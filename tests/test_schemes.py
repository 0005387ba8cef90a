"""Hand-traced firing schedules and structural event invariants.

The exact traces here were worked out on paper from the firing rules
before the streaming code existed; they are the oracle, the code is
under test.
"""

import collections
import gc
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewalbench import schemes
from renewalbench.laws import make_law
from renewalbench.paths import StartMode, sample_path
from renewalbench.schemes import (
    EstimateEvent,
    SchemeConfig,
    iter_scheme,
    run_scheme,
)

P2 = [0, 1, 1] * 40 + [0]  # runs of exactly two ones
G05 = SchemeConfig(gamma=0.5)
E05 = SchemeConfig(epsilon=0.5)


def geometric_bits(n, seed=7):
    law = make_law({"type": "geometric", "q": 0.5, "truncate": 60})
    return sample_path(law, n, StartMode.STATIONARY, seed=seed).bits


class TestPoly:
    def test_alternating_first_event(self):
        events = run_scheme("poly", [0, 1, 0, 1, 0, 1, 0], G05)
        assert [e.time for e in events] == [4, 6]
        first = events[0]
        assert first == EstimateEvent(
            ordinal=1,
            time=4,
            run_age=0,
            estimate=1.0,
            residual_counts=((1, 2),),
            sample_count=2,
            window_start=0,
            window_end=4,
        )

    def test_periodic_trace(self):
        events = run_scheme("poly", P2[:31], G05)
        assert [e.time for e in events] == [9] + list(range(12, 31))
        first = events[0]
        assert (first.sample_count, first.estimate) == (3, 2.0)
        assert first.residual_counts == ((2, 3),)
        assert first.window_start == 0
        at15 = [e for e in events if e.time == 15][0]
        assert at15.sample_count == 4
        assert at15.window_start == 3
        assert at15.estimate == 2.0
        for event in events:
            assert event.estimate == {0: 2.0, 1: 1.0, 2: 0.0}[event.run_age]

    def test_single_run_never_fires(self):
        assert run_scheme("poly", [0, 1, 1, 1, 1], G05) == []
        assert run_scheme("poly", [1, 1, 1, 1], G05) == []

    def test_requires_gamma(self):
        with pytest.raises(ValueError):
            run_scheme("poly", [0, 1, 0], SchemeConfig(epsilon=0.5))

    def test_sample_count_follows_fire_time(self):
        bits = geometric_bits(4000)
        for event in run_scheme("poly", bits, SchemeConfig(gamma=0.3)):
            assert event.sample_count == math.ceil(event.time**0.7)

    def test_mean_bound_on_emitted_events(self):
        # disjoint run segments force rsum <= time - m, hence the
        # polynomial bound estimate <= time^gamma - 1
        for gamma in (0.3, 0.5):
            config = SchemeConfig(gamma=gamma)
            for event in run_scheme("poly", geometric_bits(5000, seed=11), config):
                assert event.estimate <= event.time / event.sample_count - 1 + 1e-9
                assert event.estimate <= event.time**gamma - 1 + 1e-9


class TestPolyWarnings:
    def test_warns_when_gamma_too_big_for_alpha(self):
        with pytest.warns(UserWarning, match="1-2/alpha"):
            run_scheme("poly", [0, 1, 0], SchemeConfig(gamma=0.3, declared_alpha=2.5))

    def test_warns_when_alpha_admits_nothing(self):
        with pytest.warns(UserWarning, match="no gamma"):
            run_scheme("poly", [0, 1, 0], SchemeConfig(gamma=0.1, declared_alpha=2.0))

    def test_silent_when_admissible(self):
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error")
            run_scheme("poly", [0, 1, 0], SchemeConfig(gamma=0.2, declared_alpha=10.0))
            run_scheme("poly", [0, 1, 0], G05)  # no declared alpha, advisory skipped


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestLog:
    def test_periodic_trace(self):
        events = run_scheme("log", P2[:36], G05)
        assert [e.time for e in events] == [
            17, 18, 20, 21, 23, 24, 26, 27, 29, 30, 32, 33, 34, 35,
        ]

    def test_periodic_event_fields(self):
        events = {e.time: e for e in run_scheme("log", P2[:22], G05)}
        at18 = events[18]
        assert at18.run_age == 0
        assert at18.estimate == 2.0
        assert at18.residual_counts == ((2, 4),)
        assert at18.sample_count == 4
        assert at18.window_start == 6
        assert at18.window_end == 15  # last used occurrence, below 2^4
        at20 = events[20]
        assert at20.run_age == 2
        assert at20.estimate == 0.0
        assert at20.window_start == 5
        assert at20.window_end == 14
        # same (age, scale) key as t=17: frozen payload
        assert events[17].residual_counts == at20.residual_counts
        assert events[17].window_end == at20.window_end

    def test_estimates_by_age(self):
        for event in run_scheme("log", P2, G05):
            assert event.estimate == {0: 2.0, 1: 1.0, 2: 0.0}[event.run_age]

    def test_never_fires_at_or_below_two(self):
        for bits in ([0, 1, 0], [0, 0, 0], [0, 1, 1]):
            assert run_scheme("log", bits, G05) == []

    def test_window_end_below_scale_boundary(self):
        config = SchemeConfig(gamma=0.3)
        for event in run_scheme("log", geometric_bits(6000, seed=3), config):
            scale = event.time.bit_length() - 1
            assert event.window_end < (1 << scale)
            assert event.window_start > scale
            assert event.sample_count == math.ceil(2.0 ** (scale * 0.7))
            assert event.estimate <= event.time / event.sample_count - 1 + 1e-9

    def test_warns_on_large_gamma(self):
        with pytest.warns(UserWarning, match="1/3"):
            run_scheme("log", [0, 1, 0], G05)


class TestOffline:
    def test_short_trace(self):
        rows = run_scheme("offline", [0, 1, 0, 1, 1])
        assert [r.position for r in rows] == [0, 1, 2, 3, 4]
        assert [r.defined for r in rows] == [False, False, True, True, False]
        assert rows[2].estimate == 1.0
        assert rows[3].run_age == 1 and rows[3].estimate == 0.0
        assert rows[4].run_age == 2 and rows[4].estimate is None

    def test_periodic_trace(self):
        rows = {r.position: r for r in run_scheme("offline", P2[:10])}
        assert not rows[0].defined and not rows[1].defined and not rows[2].defined
        n6 = rows[6]
        assert n6.run_age == 0
        assert n6.sample_count == 2
        assert n6.estimate == 2.0
        assert n6.residual_counts == ((2, 2),)
        assert rows[8].run_age == 2 and rows[8].estimate == 0.0
        assert rows[9].sample_count == 3

    def test_distribution(self):
        # at position 5 age 0 has recurred three times, with residuals
        # 1, 1 and 0; position 1 is the first of age 1
        rows = run_scheme("offline", [0, 1, 0, 1, 0, 0])
        assert rows[5].residual_counts == ((0, 1), (1, 2))
        assert rows[5].distribution() == {0: 1 / 3, 1: 2 / 3}
        assert not rows[1].defined and rows[1].distribution() == {}

    def test_rows_start_at_first_zero(self):
        rows = run_scheme("offline", [1, 1, 0, 1])
        assert [r.position for r in rows] == [2, 3]
        assert not rows[0].defined


class TestEps:
    def test_periodic_trace(self):
        events = run_scheme("eps", P2[:12], E05)
        assert [e.time for e in events] == [3, 4, 6, 7, 8, 9, 10, 11]
        assert [e.estimate for e in events] == [2.0, 1.0, 2.0, 1.0, 0.0, 2.0, 1.0, 0.0]
        # t=8 is an exact tie: 6 positions of smaller age, threshold 6.0
        tie = events[4]
        assert (tie.time, tie.run_age) == (8, 2)

    def test_all_zero_path(self):
        events = run_scheme("eps", [0] * 8, SchemeConfig(epsilon=0.3))
        assert [e.time for e in events] == list(range(1, 8))
        assert all(e.estimate == 0.0 for e in events)
        assert [e.sample_count for e in events] == list(range(1, 8))

    def test_firings_without_history_are_suppressed(self):
        # ages 1..3 in the open run beat the threshold thanks to the
        # late first zero, but no completed run has seen them
        assert run_scheme("eps", [1, 1, 0, 1, 1, 1], E05) == []
        events = run_scheme("eps", [1, 1, 0, 1, 1, 1, 0, 1], E05)
        assert [(e.time, e.run_age, e.estimate) for e in events] == [
            (6, 0, 3.0),
            (7, 1, 2.0),
        ]

    def test_requires_epsilon(self):
        with pytest.raises(ValueError):
            run_scheme("eps", [0, 1, 0], G05)


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_gamma_range(self, bad):
        with pytest.raises(ValueError):
            SchemeConfig(gamma=bad)

    @pytest.mark.parametrize("bad", [0.0, 1.0, 2.0])
    def test_epsilon_range(self, bad):
        with pytest.raises(ValueError):
            SchemeConfig(epsilon=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["gamma", "epsilon", "declared_alpha"])
    def test_non_finite_is_named(self, field, bad):
        # json.dumps would echo it as NaN or Infinity, which strict JSON rejects
        with pytest.raises(ValueError, match=f"{field} must be a finite real number"):
            SchemeConfig(**{field: bad})

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            run_scheme("quadratic", [0, 1, 0], G05)


# Text, a 2, a half or a negative number is not a bit: each is refused
# with its first position named, not read as no zeros or as a one.
NOT_BITS = {
    "str-list": (["0", "1", "1", "0", "1"], "got an array of dtype <U1"),
    "str": ("01101", "got an array of dtype <U1"),
    "bytes": (b"01101", "position 0 holds 48"),
    "two": ([0, 2, 1, 0, 1], "position 1 holds 2"),
    "half": ([0, 0.5, -3, 0], "position 1 holds 0.5"),
    "negative": (np.array([0, 1, -3, 0], dtype=np.int8), "position 2 holds -3"),
    "block": (np.array([[0, 1, 1, 0], [0, 1, 3, 0]]), "position (1, 2) holds 3"),
}
ENTRY_POINTS = {
    "run_scheme": lambda bits: run_scheme("offline", bits, G05),
    "iter_scheme": lambda bits: iter_scheme("poly", bits, G05),  # refused when called
    "scheme_columns": lambda bits: schemes.scheme_columns("eps", bits, E05),
    "prefix_scan": schemes.prefix_scan,
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("bits, named", NOT_BITS.values(), ids=NOT_BITS)
def test_a_path_of_non_bits_is_refused_and_named(entry, bits, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        ENTRY_POINTS[entry](bits)


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.float64])
def test_every_numeric_dtype_of_bits_gives_the_same_estimates(dtype):
    bits = [0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0] * 3
    assert run_scheme("offline", np.array(bits, dtype=dtype), G05) == run_scheme("offline", bits, G05)


def _event_runs():
    config = SchemeConfig(gamma=0.3, epsilon=0.4)
    bits = geometric_bits(3000, seed=23)
    return [
        ("poly", run_scheme("poly", bits, config), bits),
        ("log", run_scheme("log", bits, config), bits),
        ("eps", run_scheme("eps", bits, config), bits),
    ]


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestEventInvariants:
    def test_ordinals_and_times(self):
        for tag, events, _ in _event_runs():
            assert events, tag
            assert [e.ordinal for e in events] == list(range(1, len(events) + 1))
            times = [e.time for e in events]
            assert times == sorted(set(times))

    def test_histogram_is_exact(self):
        for tag, events, _ in _event_runs():
            for event in events:
                counts = event.residual_counts
                assert sum(c for _, c in counts) == event.sample_count
                assert [v for v, _ in counts] == sorted({v for v, _ in counts})
                mean = sum(v * c for v, c in counts) / event.sample_count
                assert event.estimate == mean  # identical division, no fuzz
                masses = event.distribution()
                assert abs(sum(masses.values()) - 1.0) < 1e-12

    def test_window_fields_are_observed_spans(self):
        for tag, events, _ in _event_runs():
            for event in events:
                assert 0 <= event.window_start <= event.window_end <= event.time

    def test_no_lookahead(self):
        config = SchemeConfig(gamma=0.3, epsilon=0.4)
        bits = geometric_bits(1500, seed=41)
        for tag in ("poly", "log", "eps"):
            full = run_scheme(tag, bits, config)
            assert full
            cut = full[len(full) // 2]
            prefix = run_scheme(tag, bits[: cut.time + 1], config)
            assert prefix == full[: cut.ordinal]

    def test_offline_no_lookahead(self):
        bits = geometric_bits(800, seed=5)
        full = run_scheme("offline", bits)
        prefix = run_scheme("offline", bits[:401])
        assert prefix == [r for r in full if r.position <= 400]


@pytest.mark.filterwarnings("ignore::UserWarning")
@given(
    bits=st.lists(st.integers(min_value=0, max_value=1), min_size=3, max_size=250),
    gamma=st.sampled_from([0.2, 0.3, 0.45]),
    epsilon=st.sampled_from([0.2, 0.5, 0.8]),
)
@settings(max_examples=150, deadline=None)
def test_fuzz_event_structure(bits, gamma, epsilon):
    config = SchemeConfig(gamma=gamma, epsilon=epsilon)
    for tag in ("poly", "log", "eps"):
        previous = 0
        for event in run_scheme(tag, bits, config):
            assert event.time > previous
            previous = event.time
            assert sum(c for _, c in event.residual_counts) == event.sample_count
            assert event.estimate <= event.time / event.sample_count - 1 + 1e-9
    rows = run_scheme("offline", bits)
    zeros = [i for i, b in enumerate(bits) if b == 0]
    if zeros:
        assert [r.position for r in rows] == list(range(zeros[0], len(bits)))
    else:
        assert rows == []


# tracemalloc peak of draining iter_scheme on a 20k-bit stationary path
# (seed 3), in bytes per bit: poly 150.7, log 73.7 and offline 176.8 on
# geometric(0.5), eps 227.8 on zipf(3, 1e4) (Python 3.11, numpy 2.4).
# The walk holds the columns and one block's estimates; while it held
# two blocks' at a time the peaks were 201.3, 80.6, 237.2 and 333.9, and
# while the columns also held each window's end 157.6, 80.6, 185.0 and
# 235.7.  The bounds leave 5% over the figures.
WALK_PEAK_BYTES_PER_BIT = {"poly": 159, "log": 78, "offline": 186, "eps": 240}


@pytest.mark.parametrize("tag", sorted(WALK_PEAK_BYTES_PER_BIT))
def test_estimate_walk_memory_per_bit_is_bounded(tag):
    spec = {"type": "zipf", "s": 3, "truncate": 10_000} if tag == "eps" else {"type": "geometric", "q": 0.5, "truncate": 60}
    bits = sample_path(make_law(spec), 20_000, StartMode.STATIONARY, seed=3).bits
    schemes._window_sizes.cache_clear()  # poly builds its table in the call
    # A full collection empties the interpreter's free lists, which would
    # otherwise hand the walk a varying share of its tuples and floats
    # untraced: on a path this short that moves the peak by a quarter.
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        collections.deque(iter_scheme(tag, bits, SchemeConfig(gamma=0.3, epsilon=0.1)), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / bits.size < WALK_PEAK_BYTES_PER_BIT[tag]
