"""Streaming passes against the per-position quadratic reference
(oracles.ref_run), the reference against its own prefixes, and the
selftest's digests against the reference.

Equality here is exact object equality: same firing times, same
ordinals, same histograms, same floats.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewalbench import selfcheck
from renewalbench.adversary import fooling_probability
from renewalbench.evaluation import ExperimentConfig, run_experiment
from renewalbench.laws import make_law
from renewalbench.paths import StartMode, sample_path
from renewalbench.schemes import SCHEME_TAGS, OfflineEstimate, SchemeConfig, iter_scheme, run_scheme, scheme_columns

import oracles
from oracles import ref_run

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def random_setups(count, seed, support_cap=40):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            spec = {
                "type": "geometric",
                "q": float(rng.uniform(0.2, 0.8)),
                "truncate": int(rng.integers(10, support_cap)),
            }
        elif kind == 1:
            size = int(rng.integers(2, 9))
            masses = rng.dirichlet(np.ones(size))
            spec = {"type": "explicit", "p": [float(x) for x in masses]}
        else:
            spec = {
                "type": "zipf",
                "s": float(rng.uniform(2.2, 4.0)),
                "truncate": int(rng.integers(50, 500)),
            }
        config = SchemeConfig(
            gamma=float(rng.uniform(0.15, 0.6)),
            epsilon=float(rng.uniform(0.1, 0.9)),
        )
        mode = StartMode.STATIONARY if rng.random() < 0.5 else StartMode.AT_RENEWAL
        yield make_law(spec), int(rng.integers(2**32)), config, mode


class TestRandomizedParity:
    def test_sampled_paths(self):
        for law, seed, config, mode in random_setups(30, seed=2025):
            bits = sample_path(law, 600, mode, seed=seed).bits
            for tag in SCHEME_TAGS:
                assert run_scheme(tag, bits, config) == ref_run(tag, bits, config), (
                    tag,
                    law.provenance,
                    seed,
                )

    def test_hand_paths(self):
        config = SchemeConfig(gamma=0.5, epsilon=0.5)
        paths = [
            [0, 1, 1] * 12 + [0],
            [0, 1] * 20,
            [0] * 25,
            [1] * 10,  # no zero at all: both sides empty
            [1, 1, 0, 1, 1, 1, 0, 1],
            [0, 1, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 1, 1, 1, 0],
        ]
        for bits in paths:
            for tag in SCHEME_TAGS:
                assert run_scheme(tag, bits, config) == ref_run(tag, bits, config)


@given(
    bits=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=160),
    gamma=st.floats(min_value=0.05, max_value=0.95),
    epsilon=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=250, deadline=None)
def test_fuzz_parity(bits, gamma, epsilon):
    config = SchemeConfig(gamma=gamma, epsilon=epsilon)
    for tag in SCHEME_TAGS:
        assert run_scheme(tag, bits, config) == ref_run(tag, bits, config)


def test_selftest_digests_are_the_oracles():
    # selftest checks run_scheme against these pins where no oracle is
    # installed, so they must be the oracle's, and the engine must agree
    # with it case by case
    cases = []

    def both(tag, bits, config):
        events = ref_run(tag, bits, config)
        assert repr(run_scheme(tag, bits, config)) == repr(events), (tag, config)
        cases.append(tag)
        return events

    assert selfcheck._streaming_digests(both) == selfcheck.STREAMING_DIGESTS
    assert sorted(cases) == sorted(SCHEME_TAGS * 6)


def _cut(rows, t):
    """The rows of a full-path run that a prefix ending at t may report."""
    return [row for row in rows if (row.position if isinstance(row, OfflineEstimate) else row.time) <= t]


def test_reference_reads_only_the_prefix():
    # ref_run(bits[:t+1]) must be ref_run(bits) up to t, at every t.  An
    # estimate that read a bit past t can differ between the two, and
    # every t is checked because such a read rarely changes one.
    rng = np.random.default_rng(808)
    for _ in range(20):
        size = int(rng.integers(1, 151))
        bits = (rng.random(size) >= rng.uniform(0.05, 0.95)).astype(np.int64).tolist()
        config = SchemeConfig(
            gamma=float(rng.uniform(0.02, 0.98)),
            epsilon=float(rng.uniform(0.02, 0.98)),
        )
        for tag in SCHEME_TAGS:
            full = ref_run(tag, bits, config)
            for t in range(size):
                assert ref_run(tag, bits[: t + 1], config) == _cut(full, t), (bits, config, tag, t)


# a path without a zero too: the checks come before the scan
PATHS = ([0, 1, 1, 0, 1, 0], [1, 1])
BLOCKS = (np.zeros((2, 12), dtype=int), [[0, 1], [1, 0]])


class TestOneEntryPath:
    """The engine and the reference decide a tag, its parameter and the
    path's shape in the same place, so they refuse and warn alike, and
    iter_scheme does so when it is called, not when it is iterated.
    Warnings point at the first frame outside the package, so those the
    reference raises point into tests/oracles.py, not at its caller."""

    @pytest.mark.parametrize(
        "tag, config, inputs",
        [
            ("quadratic", SchemeConfig(gamma=0.3, epsilon=0.3), PATHS),
            ("poly", SchemeConfig(epsilon=0.3), PATHS),
            ("log", SchemeConfig(epsilon=0.3), PATHS),
            ("eps", SchemeConfig(gamma=0.3), PATHS),
            # a block of paths is not one path, whatever the tag
            *((tag, SchemeConfig(gamma=0.3, epsilon=0.3), BLOCKS) for tag in SCHEME_TAGS),
        ],
    )
    def test_same_errors(self, tag, config, inputs):
        for bits in inputs:
            messages = []
            for run in (run_scheme, iter_scheme, ref_run):
                with pytest.raises(ValueError) as caught:
                    run(tag, bits, config)
                messages.append(str(caught.value))
            assert messages[0] == messages[1] == messages[2]
            assert np.ndim(bits) == 1 or f"shape {np.shape(bits)}" in messages[0]

    @pytest.mark.parametrize(
        "tag, config, count",
        [
            ("poly", SchemeConfig(gamma=0.3, declared_alpha=2.5), 1),
            ("poly", SchemeConfig(gamma=0.1, declared_alpha=2.0), 1),
            ("poly", SchemeConfig(gamma=0.5), 0),
            ("log", SchemeConfig(gamma=0.4), 1),
            ("log", SchemeConfig(gamma=0.2, declared_alpha=2.0), 0),
            ("eps", SchemeConfig(gamma=0.9, epsilon=0.5, declared_alpha=2.0), 0),
            ("offline", SchemeConfig(gamma=0.9, declared_alpha=2.0), 0),
        ],
    )
    def test_same_warnings(self, tag, config, count):
        seen = []
        for run in (run_scheme, iter_scheme, ref_run):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run(tag, [0, 1, 1, 0, 1, 0, 1, 1, 0] * 4, config)
            seen.append([(w.category, str(w.message)) for w in caught])
        assert seen[0] == seen[1] == seen[2]
        assert len(seen[0]) == count

    @pytest.mark.parametrize(
        "tag, config",
        [("log", SchemeConfig(gamma=0.4)), ("poly", SchemeConfig(gamma=0.4, declared_alpha=2.5))],
    )
    def test_warnings_point_at_the_caller(self, tag, config):
        # a filter on the caller's module must catch the warning whichever
        # entry point the caller went through
        geometric = {"type": "geometric", "q": 0.5, "truncate": 60}
        bits = [0, 1, 1, 0, 1, 0, 1, 1, 0] * 4
        entries = {
            "iter_scheme": lambda: iter_scheme(tag, bits, config),
            "run_scheme": lambda: run_scheme(tag, bits, config),
            "scheme_columns": lambda: scheme_columns(tag, bits, config),
            "run_experiment": lambda: run_experiment(ExperimentConfig(geometric, tag, config, length=200)),
            "fooling_probability": lambda: fooling_probability(make_law(geometric), tag, config, (1, 30), 1.0, 100, 0),
        }
        for name, call in entries.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            assert [(w.filename, w.lineno) for w in caught] == [(__file__, call.__code__.co_firstlineno)], name
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ref_run(tag, bits, config)
        assert [w.filename for w in caught] == [oracles.__file__]

    @pytest.mark.parametrize("tag", SCHEME_TAGS)
    def test_generator_reads_as_its_list(self, tag):
        law = make_law({"type": "geometric", "q": 0.5, "truncate": 60})
        bits = sample_path(law, 400, StartMode.STATIONARY, seed=5).bits.tolist()
        config = SchemeConfig(gamma=0.3, epsilon=0.4)
        assert run_scheme(tag, (b for b in bits), config) == run_scheme(tag, bits, config)
        assert ref_run(tag, (b for b in bits), config) == ref_run(tag, bits, config)
        streamed, listed = scheme_columns(tag, (b for b in bits), config), scheme_columns(tag, bits, config)
        assert all(np.array_equal(a, b) for a, b in zip(streamed, listed))
