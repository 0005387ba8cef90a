"""The columnar scan, its window counts and the scorer.

run_experiment scores every scheme from the columns of one prefix scan;
the oracles score_events and good_index_density (tests/oracles.py)
score the events that run_scheme builds.  Both read their histograms from window_counts, which must equal
np.unique on every window, and both scores must give the same floats,
bit for bit.  poly's window sizes must equal Python's ceil(t ** e).
Hand paths pin each firing rule at its boundary against the oracle
ref_run.
Row columns take 4 bytes.  Paths whose sums pass 2^31 pin every
scheme's columns, and eps's on a long geometric path, to those of the
all-int64 scan.
"""

import hashlib
import math

import numpy as np
import pytest

from renewalbench import evaluation, schemes
from renewalbench.evaluation import ExperimentConfig, run_experiment
from renewalbench.laws import make_law, residual_law, residual_mean
from renewalbench.paths import StartMode, sample_path, sample_paths
from renewalbench.schemes import (
    SchemeConfig,
    _window_sizes,
    prefix_scan,
    run_scheme,
    scheme_columns,
    window_counts,
)

from oracles import good_index_density, ref_run, score_events

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
    assert [tuple(r) for r in report.records] == [tuple(r) for r in expected]


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
                windows = zip(cols.lo[rows].tolist(), one.lo.tolist(), one.m.tolist())
                for lo, one_lo, m in windows:
                    assert np.array_equal(cols.residuals[lo : lo + m], one.residuals[one_lo : one_lo + m])


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("spec", LAWS, ids=lambda spec: spec["type"])
@pytest.mark.parametrize("epsilon", [0.05, 0.3, 0.9])
def test_eps_columns_are_offline_columns_where_eps_fires(spec, epsilon):
    # eps and offline both average the row's whole completed class and
    # differ only in where they fire, eps at some of offline's rows
    law = make_law(spec)
    config = SchemeConfig(epsilon=epsilon)
    path = sample_path(law, 2999, StartMode.STATIONARY, seed=4).bits
    for bits in (path, sample_paths(law, 64, StartMode.AT_RENEWAL, 4, range(40))):
        eps, offline = scheme_columns("eps", bits, config), scheme_columns("offline", bits, config)
        keys = []
        for cols in (eps, offline):
            path_of_row = np.arange(cols.first.size - 1).repeat(np.diff(cols.first))
            keys.append(path_of_row * bits.shape[-1] + cols.time)
        fired = np.isin(keys[1], keys[0])
        assert 0 < np.count_nonzero(fired) == eps.time.size <= offline.time.size
        assert np.array_equal(eps.first, np.concatenate(([0], fired.cumsum()))[offline.first])
        assert np.array_equal(eps.residuals, offline.residuals)
        for name in ("time", "age", "lo", "m", "sum"):
            assert np.array_equal(getattr(eps, name), getattr(offline, name)[fired]), name


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
        count, cut = schemes._scheme_scan(tag, bits, config, evaluation._final_decile)[1:]
        n = full.time.size
        kept = math.ceil(n / 10)
        assert count == n
        assert cut.first.tolist() == [0, kept]
        assert cut.residuals.tobytes() == full.residuals.tobytes()
        for name in ("time", "age", "lo", "m", "sum"):
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
    whole = [tuple(r) for r in run_experiment(config).records]
    monkeypatch.setattr(evaluation, "_BLOCK", 7)
    assert whole
    assert [tuple(r) for r in run_experiment(config).records] == whole


@pytest.mark.parametrize("tag", ["poly", "log", "eps", "offline"])
def test_histograms_do_not_depend_on_block_size(monkeypatch, tag):
    # Events count their histograms a block of rows at a time; with
    # blocks of 7, log's rows that share a window cross block edges.
    bits = sample_path(make_law({"type": "zipf", "s": 2.2, "truncate": 500}), 5999, StartMode.STATIONARY, seed=1).bits
    config = SchemeConfig(gamma=0.3, epsilon=0.1)
    whole = run_scheme(tag, bits, config)
    assert len(whole) > 7
    if tag == "log":
        cols = scheme_columns(tag, bits, config)
        edges = np.arange(7, cols.lo.size, 7)
        hi = cols.lo + cols.m
        assert np.any((cols.lo[edges] == cols.lo[edges - 1]) & (hi[edges] == hi[edges - 1]))
    monkeypatch.setattr(schemes, "_HISTOGRAM_BLOCK", 7)
    assert run_scheme(tag, bits, config) == whole
    prefix = bits[:1500]
    assert run_scheme(tag, prefix, config) == ref_run(tag, prefix, config)


@pytest.mark.parametrize("spec", LAWS, ids=lambda spec: spec["type"])
def test_residual_totals_equal_residual_law_sums(spec):
    law = make_law(spec)
    scorer = evaluation._Scorer(law)
    for age in {*range(0, law.support, max(1, law.support // 100)), law.support - 1}:
        if law.tails[age] > 0.0:
            assert scorer._residual_total(age) == math.fsum(residual_law(law, age).probs)


@pytest.mark.parametrize("spec", LAWS, ids=lambda spec: spec["type"])
def test_thetas_equal_residual_means(spec):
    # the oracle scores with residual_mean; the scorer divides the law's
    # tables at every age of a row, which must give the same bits
    law = make_law(spec)
    ages = np.flatnonzero(np.array(law.tails) > 0.0)
    expected = np.array([residual_mean(law, age) for age in ages.tolist()])
    assert evaluation._Scorer(law).thetas(ages).tobytes() == expected.tobytes()


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
    # the table is built a slice at a time; its end is not a slice's
    n = 6 * schemes._SLICE + 123
    sizes = _window_sizes(n, exponent)
    assert not sizes.flags.writeable
    assert sizes.tolist() == [math.ceil(t**exponent) for t in range(n)]


@pytest.mark.parametrize("spec", [LAWS[0], LAWS[2]], ids=["geometric", "zipf"])
@pytest.mark.parametrize("epsilon", [0.1, 0.9])
def test_eps_fires_equal_the_whole_row_test(spec, epsilon):
    # the firing test runs a slice at a time, carrying the rank sum and
    # the running maximum at zero rows; built whole it reads as below
    law = make_law(spec)
    n = 3 * schemes._SLICE + 123
    path = sample_path(law, n, StartMode.STATIONARY, seed=5).bits
    for bits in (path, sample_paths(law, n // 2, StartMode.STATIONARY, 6, range(3))):
        scan = prefix_scan(bits)
        below = scan.rank.cumsum(dtype=np.int64) - scan.rank
        below -= np.maximum.accumulate(np.where(scan.ages == 0, below, 0))
        below += scan.ages
        whole = (below <= scan.time * (1.0 - 0.5 * epsilon)) & (scan.rank > 0)
        fires = schemes._eps_fires(scan, 1.0 - 0.5 * epsilon)
        assert fires.dtype == bool and fires.tolist() == whole.tolist()
        assert 0 < np.count_nonzero(fires) < fires.size


def _masks():
    """Firing masks for _cut: empty, none firing, fewer than ten
    firings, firings only near the start, and dense and sparse masks
    several search steps long."""
    step = schemes._SLICE
    rng = np.random.default_rng(11)
    yield np.zeros(0, dtype=bool)
    yield np.zeros(3 * step, dtype=bool)
    few = np.zeros(2 * step + 5, dtype=bool)
    few[[0, 17, step + 1, 2 * step + 4]] = True
    yield few
    start = np.zeros(4 * step + 9, dtype=bool)
    start[:40:3] = True
    yield start
    for density in (0.95, 0.3, 0.001):
        yield rng.random(5 * step + 17) < density


@pytest.mark.parametrize("mask", list(_masks()), ids=["empty", "none", "few", "start", "dense", "half", "sparse"])
def test_cut_finds_the_tail_keep_returns(mask):
    rows = mask.nonzero()[0]
    count, cut = schemes._cut(mask, evaluation._final_decile)
    assert count == rows.size
    assert cut.tolist() == evaluation._final_decile(rows).tolist()
    count, every = schemes._cut(mask, None)
    assert count == rows.size and every.tolist() == rows.tolist()


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
    # Rows in class order, in blocks of 37, one counter call per block,
    # as the scorer passes them.
    bits = sample_path(make_law(spec), length - 1, StartMode.STATIONARY, seed=0, stream=0).bits
    config = SchemeConfig(gamma=0.3, epsilon=0.1)
    counting = _CountingNumpy()
    monkeypatch.setattr(schemes, "np", counting)
    bisected = 0
    for tag in ("poly", "log", "eps", "offline"):
        cols = scheme_columns(tag, bits, config)
        residuals = cols.residuals
        order = np.argsort(cols.age, kind="stable")
        begins, sizes = cols.lo[order], cols.m[order]
        blocks = [(begins[start : start + 37], sizes[start : start + 37]) for start in range(0, order.size, 37)]
        assert len(blocks) > 2
        found: list[list] = [[] for _ in order]
        count = window_counts(residuals)
        calls = counting.cumsum_calls
        for block, (block_begins, block_sizes) in enumerate(blocks):
            previous = -1
            for value, first, counts in count(block_begins, block_sizes):
                assert value > previous  # values ascending
                previous = value
                # a slice of the block's windows, misses counted 0
                assert 0 <= first and first + counts.size <= len(block_begins) and counts.size
                assert np.all(counts >= 0)
                rows = counts.nonzero()[0]
                for row, number in zip((rows + first).tolist(), counts[rows].tolist()):
                    found[block * 37 + row].append((value, number))
                # a step that counts from the running count builds it first
                bisected += counting.cumsum_calls == calls
                calls = counting.cumsum_calls
        for row, (lo, m) in enumerate(zip(begins.tolist(), sizes.tolist())):
            values, counts = np.unique(residuals[lo : lo + m], return_counts=True)
            assert found[row] == list(zip(values.tolist(), counts.tolist())), (tag, row)
    if spec["type"] == "zipf":
        assert int(prefix_scan(bits).residuals.max()) >= 100  # runs in the hundreds
    # both branches ran
    assert counting.cumsum_calls > 0 and bisected > 0


def _overflow_path():
    """A renewal-start path of 400,000 bits with runs of 30,000 ones: its
    residuals sum past 2^31, and so does a class times the length."""
    p = [0.0] * 30_001
    p[0], p[1], p[2], p[30_000] = 0.5, 0.3, 0.19, 0.01
    return sample_path(make_law({"type": "explicit", "p": p}), 399_999, StartMode.AT_RENEWAL, seed=3, stream=0).bits


def _digests(cols) -> str:
    """The first 16 hex digits of the sha256 of each pinned column as
    int64 bytes, whatever type the column has; the fourth is each
    window's end, lo + m."""
    columns = (cols.time, cols.age, cols.lo, cols.lo + cols.m, cols.m, cols.sum)
    return " ".join(hashlib.sha256(np.asarray(c, dtype=np.int64).tobytes()).hexdigest()[:16] for c in columns)


# Row count and column digests, recorded while every scan column was int64.
OVERFLOW_PINS = {
    "poly": (24, "38f1547fc4177776 5d89f056865052bc 8f8868e00273e512 3a84e3f0f8079c6c 454813d59cc4875b 1da77a7299e4aa21"),
    "log": (17, "9b0b3eafab2959e0 b707241545a34626 075d8d8e28fb28e9 1054a5c10ab0c6c9 4dead82c2c3edba1 2cb4886951904b20"),
    "eps": (347_594, "3dfdda4223202973 c42bfdefcc932deb 67a21e8e81afe3f2 ddd8d1867d79015a 96de39a13d3fdf7c 213695f0155fd976"),
    "offline": (369_999, "20e444c57ed845c3 3e8d82c66c1f263d 0cca036b105e88d1 c7ba94c82cdb3392 4777f246bc285db1 1dd685f10b1e0142"),
}


def test_overflow_regime_path_is_past_int32():
    scan = prefix_scan(_overflow_path())
    assert int(scan.prefix[-1]) == 5_850_196_674
    assert int(scan.ages.max()) * scan.length == 12_000_000_000


@pytest.mark.parametrize("tag", sorted(OVERFLOW_PINS))
def test_overflow_regime_columns_are_pinned(tag):
    # 4-byte row columns must leave every value that can pass 2^31 (the
    # prefix sums, log's sort key) in int64
    cols = scheme_columns(tag, _overflow_path(), SchemeConfig(gamma=0.3, epsilon=0.1))
    assert (cols.time.size, _digests(cols)) == OVERFLOW_PINS[tag]


def test_eps_rank_sums_past_int32_are_pinned():
    # eps counts occupancy from running sums of the ranks, which pass
    # 2^31 on a 200k-bit geometric path
    bits = sample_path(make_law(LAWS[0]), 199_999, StartMode.STATIONARY, seed=0, stream=0).bits
    assert int(prefix_scan(bits).rank.sum(dtype=np.int64)) == 6_683_789_307
    cols = scheme_columns("eps", bits, SchemeConfig(epsilon=0.1))
    assert (cols.time.size, _digests(cols)) == (
        193_743,
        "a842c5234a9cfe96 c69d1067b1225528 2f6882e04b74eba3 e5af31b432d23448 a314aaae44ac2cb0 7741a43c4e224f77",
    )


ROW_COLUMNS = ("time", "ages", "classes", "rank", "order", "residuals", "first", "psi")


@pytest.mark.parametrize("shape", [(1, 5000), (40, 65)], ids=["path", "block"])
def test_scan_row_columns_take_four_bytes(shape):
    bits = sample_paths(make_law(LAWS[0]), shape[1] - 1, StartMode.STATIONARY, 0, range(shape[0]))
    scan = prefix_scan(bits[0] if shape[0] == 1 else bits)
    for name in ROW_COLUMNS:
        assert getattr(scan, name).dtype == np.int32, name
    assert scan.prefix.dtype == scan.starts.dtype == np.int64
    assert _window_sizes(shape[1], 0.7).dtype == np.int32


def test_row_type_widens_at_2_to_the_31():
    # sizes only: nothing of that size is allocated
    assert schemes._index_dtype((1 << 31) - 1) == np.int32
    assert schemes._index_dtype(1 << 31) == np.int64
