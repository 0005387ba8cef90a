"""The columnar scan, its window counts and the scorer.

run_experiment scores every scheme from the columns of one prefix scan;
score_events and good_index_density score the events that run_scheme
builds.  Both read their histograms from window_counts, which must equal
np.unique on every window, and both scores must give the same floats,
bit for bit.  poly's window sizes must equal Python's ceil(t ** e).
Hand paths pin each firing rule at its boundary against ref_run.
"""

import math

import numpy as np
import pytest

from renewalbench import evaluation, schemes
from renewalbench.evaluation import (
    ExperimentConfig,
    good_index_density,
    run_experiment,
    score_events,
)
from renewalbench.laws import make_law, residual_law
from renewalbench.paths import StartMode, sample_path, sample_paths
from renewalbench.schemes import (
    SchemeConfig,
    _window_sizes,
    prefix_scan,
    ref_run,
    run_scheme,
    scheme_columns,
    window_counts,
)

LAWS = [
    {"type": "geometric", "q": 0.5, "truncate": 60},
    {"type": "geometric", "q": 0.8, "truncate": 200},
    {"type": "zipf", "s": 3.0, "truncate": 10_000},
    {"type": "zipf", "s": 2.2, "truncate": 500},
    {"type": "explicit", "p": [0.0, 0.25, 0.0, 0.0, 0.5, 0.0, 0.25]},
    {"type": "explicit", "p": [0.4, 0.0, 0.6]},
]
TOLERANCES = (0.02, 0.1, 0.35, 1.5)


@pytest.mark.parametrize("spec", LAWS, ids=lambda spec: spec["type"])
@pytest.mark.parametrize("mode", list(StartMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("scheme", ["poly", "offline", "eps", "log"])
def test_columnar_records_equal_per_event_scores(spec, mode, scheme):
    config = ExperimentConfig(
        law=spec,
        scheme=scheme,
        scheme_config=SchemeConfig(gamma=0.3, epsilon=0.1),
        length=6000,
        start_mode=mode,
        replicates=2,
        base_seed=11,
        tolerances=TOLERANCES,
        keep_records=True,
    )
    report = run_experiment(config)
    law = make_law(spec)
    expected = []
    for replicate, summary in enumerate(report.replicate_summaries):
        bits = sample_path(law, config.length - 1, mode, seed=11, stream=replicate).bits
        events = run_scheme(scheme, bits, config.scheme_config)
        scored = score_events(law, events, scheme=scheme, replicate=replicate)
        assert summary.event_count == len(scored)
        expected.extend(scored)
        if scheme == "offline":
            assert summary.good_index_density == tuple(
                (tolerance, good_index_density(events, law, tolerance, config.length - 1))
                for tolerance in TOLERANCES
            )
    assert expected
    assert [r.row() for r in report.records] == [r.row() for r in expected]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("spec", LAWS, ids=lambda spec: spec["type"])
@pytest.mark.parametrize("mode", list(StartMode), ids=lambda mode: mode.value)
def test_block_columns_equal_per_path_columns(spec, mode):
    # A block's rows are its paths' rows, path after path; each window
    # holds the same residuals as on the path alone.
    law = make_law(spec)
    rng = np.random.default_rng(2)
    for length in (1, 2, 9, 65, 300):
        block = sample_paths(law, length - 1, mode, int(rng.integers(1 << 30)), range(23)).copy()
        block[int(rng.integers(23))] = 1  # a path without a zero
        config = SchemeConfig(gamma=float(rng.uniform(0.05, 0.95)), epsilon=float(rng.uniform(0.05, 0.95)))
        for tag in ("poly", "log", "eps", "offline"):
            cols = scheme_columns(tag, block, config)
            assert cols.first[0] == 0 and cols.first[-1] == cols.time.size
            for path, bits in enumerate(block):
                one = scheme_columns(tag, bits, config)
                rows = slice(cols.first[path], cols.first[path + 1])
                for name in ("time", "age", "m", "sum"):
                    assert np.array_equal(getattr(cols, name)[rows], getattr(one, name)), (tag, name)
                windows = zip(cols.lo[rows].tolist(), cols.hi[rows].tolist(), one.lo.tolist(), one.hi.tolist())
                for lo, hi, one_lo, one_hi in windows:
                    assert np.array_equal(cols.residuals[lo:hi], one.residuals[one_lo:one_hi])


def _cut_paths():
    """Sampled paths of two laws from both start modes, short sampled
    paths with a few estimates, a path with none and one without a
    zero."""
    for spec in (LAWS[0], LAWS[2]):
        for mode in StartMode:
            yield sample_path(make_law(spec), 2999, mode, seed=5, stream=1).bits
    for length, seed in ((12, 2), (20, 3)):
        yield sample_path(make_law(LAWS[0]), length - 1, StartMode.STATIONARY, seed=seed).bits
    yield np.array([0] + [1] * 50)
    yield np.ones(40, dtype=np.int8)


@pytest.mark.parametrize("tag", ["poly", "log", "eps", "offline"])
def test_cut_columns_are_the_last_rows_of_the_full_columns(tag):
    # run_experiment's JSON reports build only the final decile's
    # columns, from the same firing rows as scheme_columns
    config = SchemeConfig(gamma=0.3, epsilon=0.2)
    counts = []
    for bits in _cut_paths():
        full = scheme_columns(tag, bits, config)
        count, cut = schemes._path_columns(tag, bits, config, evaluation._final_decile)
        n = full.time.size
        kept = math.ceil(n / 10)
        assert count == n
        assert cut.first.tolist() == [0, kept]
        assert cut.residuals.tobytes() == full.residuals.tobytes()
        for name in ("time", "age", "lo", "hi", "m", "sum"):
            assert getattr(cut, name).tobytes() == getattr(full, name)[n - kept :].tobytes(), name
        counts.append(n)
    assert counts[-2:] == [0, 0]
    assert any(0 < n < 10 for n in counts) and all(n >= 100 for n in counts[:4])


@pytest.mark.parametrize("scheme", ["poly", "offline", "eps", "log"])
def test_scores_do_not_depend_on_block_size(monkeypatch, scheme):
    # On a heavy tail a value's entries lie far apart, so with tiny
    # blocks its rows span many blocks, most of them without a hit.
    config = ExperimentConfig(
        law={"type": "zipf", "s": 2.2, "truncate": 500},
        scheme=scheme,
        scheme_config=SchemeConfig(gamma=0.3, epsilon=0.1),
        length=6000,
        base_seed=1,
        keep_records=True,
    )
    whole = [r.row() for r in run_experiment(config).records]
    monkeypatch.setattr(evaluation, "_BLOCK", 7)
    assert whole
    assert [r.row() for r in run_experiment(config).records] == whole


@pytest.mark.parametrize("spec", LAWS, ids=lambda spec: spec["type"])
def test_residual_totals_equal_residual_law_sums(spec):
    law = make_law(spec)
    scorer = evaluation._Scorer(law)
    for age in {*range(0, law.support, max(1, law.support // 100)), law.support - 1}:
        if law.tails[age] > 0.0:
            assert scorer._residual_total(age) == math.fsum(residual_law(law, age).probs)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_paths_without_estimates():
    # no zero at all, a lone zero, and a path too short to fire
    config = SchemeConfig(gamma=0.5, epsilon=0.5)
    for bits in ([1] * 50, [1, 1, 0, 1], [0, 1]):
        for scheme in ("poly", "log", "eps"):
            assert run_scheme(scheme, bits, config) == ref_run(scheme, bits, config) == []
        assert run_scheme("offline", bits) == ref_run("offline", bits, config)
        assert prefix_scan(bits).rank.size == len(bits) - (bits.index(0) if 0 in bits else len(bits))
    for scheme in ("poly", "offline", "eps", "log"):
        report = run_experiment(
            ExperimentConfig(
                law={"type": "explicit", "p": [0.0, 0.0, 1.0]},
                scheme=scheme,
                scheme_config=config,
                length=2,
                start_mode=StartMode.AT_RENEWAL,
                keep_records=True,
            )
        )
        assert report.replicate_summaries[0].event_count == 0
        assert report.records == ()
        assert math.isnan(report.pooled.median_tv)


def test_log_warns_through_run_experiment():
    config = ExperimentConfig(
        law={"type": "geometric", "q": 0.5, "truncate": 60},
        scheme="log",
        scheme_config=SchemeConfig(gamma=0.4),
        length=500,
    )
    with pytest.warns(UserWarning, match="1/3"):
        run_experiment(config)


@pytest.mark.parametrize("gamma", [0.05, 0.1, 0.2, 0.25, 0.3, 1 / 3, 0.45, 0.5, 0.6, 0.75, 0.9])
def test_window_sizes_equal_python_ceil(gamma):
    exponent = 1.0 - gamma
    sizes = _window_sizes(50_000, exponent)
    assert not sizes.flags.writeable
    assert sizes.tolist() == [math.ceil(t**exponent) for t in range(50_000)]


def _rank_at(t, rank):
    """A path whose position t sits at age 2 with exactly `rank` earlier
    positions of age 2: rank runs of two ones, zeros, then a run whose
    second one is at t."""
    bits = [0, 1, 1] * rank
    bits += [0] * (t - 2 - len(bits))
    return bits + [0, 1, 1, 1, 0]


@pytest.mark.parametrize(
    "gamma, t, m",
    [(0.5, 16, 4), (0.5, 49, 7), (0.5, 144, 12), (0.5, 961, 31), (0.3, 1024, 128)],
)
def test_threshold_at_exact_powers(gamma, t, m):
    # t^(1-gamma) is the integer m (1024 ** 0.7 rounds to just below 128)
    config = SchemeConfig(gamma=gamma)
    assert math.ceil(t ** (1.0 - gamma)) == m
    for rank in (m - 1, m):
        bits = _rank_at(t, rank)
        assert len(bits) == t + 3 and prefix_scan(bits).rank[t] == rank
        events = run_scheme("poly", bits, config)
        assert events == ref_run("poly", bits, config)
        at_t = [e for e in events if e.time == t]
        if rank < m:
            assert at_t == []
        else:
            assert [(e.run_age, e.sample_count) for e in at_t] == [(2, m)]


def test_eps_fires_at_equality():
    # [0, 1, 1] repeated: at t = 8 (age 2) the ages below 2 in [0, 8]
    # number 6 = 8 * (1 - 0.5/2), so eps fires there; one more zero in
    # the prefix makes them 7 and it does not
    config = SchemeConfig(epsilon=0.5)
    for bits, fires in (([0, 1, 1] * 4, True), ([0, 1, 1, 0, 0, 1, 0, 1, 1, 0], False)):
        assert bits[6:9] == [0, 1, 1]
        events = run_scheme("eps", bits, config)
        assert events == ref_run("eps", bits, config)
        assert any(e.time == 8 for e in events) == fires


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize(
    "bits, gamma, fired",
    [
        # the scale window moves at t = 2^k: with zeros only, (2, 4)
        # holds one age-0 entry at t = 7, too few; (3, 8) holds four at
        # t = 8, and (4, 16) takes over at t = 16
        ([0] * 20, 0.5, list(range(8, 20))),
        # age 0 first recurs at 3, so it may fire only once 2^3 < t: not
        # at t = 8, though (3, 8) already holds 4, 5, 6 and 7
        ([0, 1, 1] + [0] * 9, 0.5, [9, 10, 11]),
        # needed = ceil(2^(3 * 0.6)) = 4 at scale 3: (3, 8) holds exactly
        # four age-0 entries, and one fewer when position 5 is a one
        ([0] * 12, 0.4, [8, 9, 10, 11]),
        ([0] * 5 + [1] + [0] * 6, 0.4, []),
    ],
)
def test_log_scale_gate_and_window_boundaries(bits, gamma, fired):
    config = SchemeConfig(gamma=gamma)
    events = run_scheme("log", bits, config)
    assert events == ref_run("log", bits, config)
    assert [e.time for e in events if e.run_age == 0] == fired


class _CountingNumpy:
    """numpy, counting the running counts the kernel builds."""

    def __init__(self):
        self.cumsum_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def cumsum(self, *args, **kwargs):
        self.cumsum_calls += 1
        return np.cumsum(*args, **kwargs)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize(
    "spec, length",
    [({"type": "geometric", "q": 0.5, "truncate": 60}, 3000), ({"type": "zipf", "s": 2.2, "truncate": 500}, 8000)],
    ids=["geometric", "zipf"],
)
def test_window_counts_equal_unique_counts(monkeypatch, spec, length):
    # Rows in class order, in blocks of 37, as the scorer passes them.
    bits = sample_path(make_law(spec), length - 1, StartMode.STATIONARY, seed=0, stream=0).bits
    config = SchemeConfig(gamma=0.3, epsilon=0.1)
    counting = _CountingNumpy()
    monkeypatch.setattr(schemes, "np", counting)
    bisected = 0
    for tag in ("poly", "log", "eps", "offline"):
        cols = scheme_columns(tag, bits, config)
        residuals = cols.residuals
        order = np.argsort(cols.age, kind="stable")
        begins, ends = cols.lo[order], cols.hi[order]
        blocks = [(begins[start : start + 37], ends[start : start + 37]) for start in range(0, order.size, 37)]
        assert len(blocks) > 2
        found: list[list] = [[] for _ in order]
        previous = (-1, -1)
        calls = counting.cumsum_calls
        for block, value, first, counts in window_counts(residuals, iter(blocks)):
            assert (block, value) > previous  # blocks in turn, values ascending
            previous = (block, value)
            # a slice of the block's windows, misses counted 0
            assert 0 <= first and first + counts.size <= len(blocks[block][0]) and counts.size
            assert np.all(counts >= 0)
            rows = counts.nonzero()[0]
            for row, count in zip((rows + first).tolist(), counts[rows].tolist()):
                found[block * 37 + row].append((value, count))
            # a step that counts from the running count builds it first
            bisected += counting.cumsum_calls == calls
            calls = counting.cumsum_calls
        for row, (lo, hi) in enumerate(zip(begins.tolist(), ends.tolist())):
            values, counts = np.unique(residuals[lo:hi], return_counts=True)
            assert found[row] == list(zip(values.tolist(), counts.tolist())), (tag, row)
    if spec["type"] == "zipf":
        assert int(prefix_scan(bits).residuals.max()) >= 100  # runs in the hundreds
    # both branches ran
    assert counting.cumsum_calls > 0 and bisected > 0
