"""Tests of the state RunIndex.feed builds, read from its attributes.

The naive reference here recomputes that state by rescanning the full
bit prefix with nothing but the definitions: age = distance to the last
zero at or before a position, residual = distance to the next zero
after it, occurrences recorded only once that next zero exists.
"""

from collections import defaultdict
from itertools import accumulate

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from renewalbench.laws import make_law
from renewalbench.paths import StartMode, sample_path
from renewalbench.runindex import RunIndex


def feed_all(bits):
    index = RunIndex()
    for b in bits:
        index.feed(int(b))
    return index


def naive_state(bits):
    """(psi, taus, occurrences) recomputed from scratch."""
    zeros = [i for i, b in enumerate(bits) if b == 0]
    psi = zeros[0] if zeros else None
    taus = {}
    occurrences = defaultdict(list)
    if psi is None:
        return psi, taus, occurrences
    last = None
    for i, b in enumerate(bits):
        if b == 0:
            last = i
        if last is not None:
            taus[i] = i - last
    zero_arr = zeros
    for i in range(psi, len(bits)):
        nxt = None
        for z in zero_arr:
            if z > i:
                nxt = z
                break
        if nxt is not None:
            occurrences[taus[i]].append((i, nxt - i - 1))
    return psi, taus, occurrences


def occurrences_of(index):
    return {t: list(zip(log.positions, log.residuals)) for t, log in index.classes.items()}


class TestSpecTraces:
    def test_open_run_stores_nothing(self):
        index = feed_all([0, 1, 1])
        assert index.psi == 0
        assert index.current_tau == 2
        assert index.classes == {}

    def test_single_completed_run(self):
        index = feed_all([0, 1, 0])
        assert index.current_tau == 0
        assert occurrences_of(index) == {0: [(0, 1)], 1: [(1, 0)]}

    def test_ones_before_first_zero_are_ignored(self):
        index = feed_all([1, 1, 0, 1])
        assert index.psi == 2
        assert index.current_tau == 1
        assert index.classes == {}

    def test_alternating_counts(self):
        index = feed_all([0, 1, 0, 1, 0])
        assert index.current_tau == 0
        assert occurrences_of(index) == {0: [(0, 1), (2, 1)], 1: [(1, 0), (3, 0)]}

    def test_periodic_run_of_two(self):
        bits = [0, 1, 1, 0, 1, 1, 0, 1, 1, 0]
        index = feed_all(bits)
        # position 9's zero closes the run opened at 6
        assert occurrences_of(index)[0] == [(0, 2), (3, 2), (6, 2)]


def check_against_naive(bits):
    index = feed_all(bits)
    psi, taus, occurrences = naive_state(bits)
    assert index.psi == psi
    assert index.length == len(bits)
    if psi is None:
        assert index.classes == {}
        return
    n = len(bits)
    assert index.current_tau == taus[n - 1]
    assert occurrences_of(index) == dict(occurrences)
    for log in index.classes.values():
        # prefix sums reproduce the residuals exactly
        assert log.prefix == [0, *accumulate(log.residuals)]
    first_seen = {}
    for i in range(psi + 1, n):
        first_seen.setdefault(taus[i], i)
    assert index.first_seen == first_seen
    ages = [0] * index._age_counts.size
    for tau in taus.values():
        ages[tau] += 1
    assert index._age_counts.raw == ages
    assert index._ages_total == n - psi


class TestNaiveEquivalence:
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_random_bits(self, bits):
        check_against_naive(bits)

    @given(
        st.lists(st.sampled_from([0, 1, 1, 1]), min_size=1, max_size=200),
        st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_one_heavy_bits_at_each_prefix(self, bits, cut):
        check_against_naive(bits[:cut])

    def test_long_sampled_path(self):
        law = make_law({"type": "geometric", "q": 0.5, "truncate": 60})
        bits = sample_path(law, 5000, StartMode.STATIONARY, seed=17).bits.tolist()
        check_against_naive(bits)


class TestStructuralInvariants:
    def sampled_paths(self):
        laws = [
            make_law({"type": "geometric", "q": 0.5, "truncate": 60}),
            make_law({"type": "explicit", "p": [0.5, 0.3, 0.2]}),
            make_law({"type": "explicit", "p": [0.0, 0.0, 1.0]}),
        ]
        for i, law in enumerate(laws):
            yield sample_path(law, 2000, StartMode.AT_RENEWAL, seed=100 + i).bits

    def test_bookkeeping_identity(self):
        for bits in self.sampled_paths():
            index = feed_all(bits)
            open_positions = index.length - index.open_run_start
            recorded = sum(len(log.positions) for log in index.classes.values())
            assert recorded + open_positions + index.psi == index.length

    def test_residual_identity_per_completed_run(self):
        for bits in self.sampled_paths():
            index = feed_all(bits)
            zeros = np.flatnonzero(np.asarray(bits) == 0)
            for z, nxt in zip(zeros[:-1], zeros[1:]):
                s = int(nxt - z - 1)
                for t in range(s + 1):
                    log = index.classes[t]
                    row = log.positions.index(int(z) + t)
                    assert log.residuals[row] == s - t

    def test_no_lookahead_and_sorted_positions(self):
        for bits in self.sampled_paths():
            index = feed_all(bits)
            last_fed = index.length - 1
            for t, log in index.classes.items():
                assert all(
                    p + r + 1 <= last_fed for p, r in zip(log.positions, log.residuals)
                )
                assert log.positions == sorted(log.positions)

    def test_fenwick_growth_under_long_run(self):
        index = RunIndex()
        index.feed(0)
        for _ in range(3000):
            index.feed(1)
        assert index.current_tau == 3000
        counts = index._age_counts
        assert counts.size == 4096
        assert counts.raw == [1] * 3001 + [0] * (counts.size - 3001)
        # every node holds the sum of the keys it covers after each growth
        for j in range(1, counts.size + 1):
            assert counts.tree[j] == sum(counts.raw[j - (j & -j) : j])
