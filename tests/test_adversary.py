"""Adversarial staged construction: closed forms, exact prefix distance,
fooling Monte Carlo with stub estimators, stage advance and verification."""

import dataclasses
import json
import math
import tracemalloc
from functools import partial
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from renewalbench import adversary
from renewalbench.adversary import (
    BudgetExhausted,
    FoolingResult,
    StageState,
    _stage_bounds,
    _wilson,
    advance_stage,
    audit_json,
    fooling_probability,
    mu_L_shift,
    stage0,
    tv_prefix_exact,
    verify_stage,
)
from renewalbench.laws import (
    MAX_SUPPORT,
    LawError,
    make_law,
    perturb,
    residual_mean,
    stationary_zero_prob,
)
from renewalbench.paths import StartMode, sample_path
from renewalbench.schemes import EstimateEvent, SchemeConfig, iter_scheme

CFG = SchemeConfig(gamma=0.3)


def p_law(probs):
    return make_law({"type": "explicit", "p": list(probs)})


class TestStage0:
    def test_halving_law(self):
        state = stage0()
        law = state.law
        assert state.stage == 0
        assert state.markers == (0,)
        assert state.audits == ()
        assert abs(law.prob(0) - 0.5) < 1e-15
        assert abs(law.prob(1) - 0.25) < 1e-15
        assert abs(law.mean - 1.0) < 1e-9
        assert abs(stationary_zero_prob(law) - 0.5) < 1e-9

    def test_support_is_sixty(self):
        law = stage0().law
        assert law.support == 60
        assert law.prob(59) > 0.0
        assert law.prob(60) == 0.0


class TestMeanShift:
    def test_worked_example(self):
        law = stage0().law
        assert perturb(law, 41, 0.05).mean - law.mean == pytest.approx(2.05, abs=1e-12)

    def test_matches_law_mean_difference(self):
        law = stage0().law
        moved = perturb(law, 41, 0.05)
        assert moved.mean - law.mean == pytest.approx(41 * 0.05, abs=1e-12)


def brute_tail_mean_shift(law, age, delta, k):
    moved = perturb(law, k, delta)

    def tail_mean(l):
        hi = max(len(l.probs), k + 1)
        num = sum((i - age) * l.prob(i) for i in range(age, hi))
        den = sum(l.prob(i) for i in range(age, hi))
        return num / den

    return tail_mean(moved) - tail_mean(law)


class TestTailMeanShift:
    def test_age_zero_is_exactly_k_delta(self):
        law = stage0().law
        assert mu_L_shift(law, 0, 0.05, 41) == pytest.approx(2.05, abs=1e-12)

    @pytest.mark.parametrize("age", [0, 1, 2, 5, 10, 25])
    @pytest.mark.parametrize("delta,k", [(0.01, 80), (0.001, 60), (0.06, 200)])
    def test_closed_form_matches_brute_recomputation(self, age, delta, k):
        law = stage0().law
        closed = mu_L_shift(law, age, delta, k)
        assert closed == pytest.approx(brute_tail_mean_shift(law, age, delta, k), abs=1e-9)

    def test_k_below_age_rejected(self):
        with pytest.raises(ValueError, match="k >= L"):
            mu_L_shift(stage0().law, 10, 0.01, 9)

    def test_zero_tail_rejected(self):
        law = make_law({"type": "geometric", "q": 0.5, "truncate": 10})
        with pytest.raises(LawError, match="zero tail"):
            mu_L_shift(law, 11, 0.01, 20)

    def test_delta_out_of_range_rejected(self):
        law = stage0().law
        with pytest.raises(ValueError):
            mu_L_shift(law, 1, 0.6, 10)
        with pytest.raises(ValueError):
            mu_L_shift(law, 1, 0.0, 10)


def brute_prefix_tv(law_a, law_b, n):
    # direct enumeration of every continuation after the forced zero
    total = 0.0
    for bits in product((0, 1), repeat=n):
        pa = pb = 1.0
        run = 0
        for x in bits:
            if x:
                run += 1
            else:
                pa *= law_a.prob(run)
                pb *= law_b.prob(run)
                run = 0
        total += abs(pa * law_a.tail(run) - pb * law_b.tail(run))
    return total


class TestPrefixTvExact:
    def test_identical_laws(self):
        law = stage0().law
        assert tv_prefix_exact(law, law, 8) == 0.0

    def test_disjoint_two_point_laws(self):
        assert tv_prefix_exact(p_law([0, 0, 1]), p_law([0, 1]), 2) == pytest.approx(2.0)

    def test_single_bit_perturbation(self):
        law = stage0().law
        moved = perturb(law, 41, 0.001)
        assert tv_prefix_exact(law, moved, 1) == pytest.approx(0.002, abs=1e-12)

    def test_symmetric(self):
        law = stage0().law
        moved = perturb(law, 41, 0.001)
        for n in (1, 5, 12):
            assert tv_prefix_exact(law, moved, n) == tv_prefix_exact(moved, law, n)

    def test_monotone_in_prefix_length(self):
        law = stage0().law
        moved = perturb(law, 41, 0.001)
        values = [tv_prefix_exact(law, moved, n) for n in range(1, 13)]
        for earlier, later in zip(values, values[1:]):
            assert later >= earlier - 1e-15
        assert values[-1] <= 2.0

    @pytest.mark.parametrize(
        "probs_a,probs_b",
        [
            ([0.5, 0.5], [0.25, 0.5, 0.25]),
            ([0.9, 0.1], [0.1, 0.9]),
            ([0.3, 0.0, 0.7], [0.3, 0.7]),
        ],
    )
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_matches_direct_enumeration(self, probs_a, probs_b, n):
        law_a, law_b = p_law(probs_a), p_law(probs_b)
        assert tv_prefix_exact(law_a, law_b, n) == pytest.approx(
            brute_prefix_tv(law_a, law_b, n), abs=1e-12
        )

    def test_equals_enumeration_by_concatenation(self):
        # the enumerator as first written, doubling by concatenation
        def concatenated(law_a, law_b, n):
            def tables(law):
                run = np.array([law.prob(i) for i in range(n + 1)])
                return run, np.array([1.0] + [law.tail(r) for r in range(1, n + 2)])

            (mass_a, trail_a), (mass_b, trail_b) = tables(law_a), tables(law_b)
            probs_a, probs_b, runs = np.array([1.0]), np.array([1.0]), np.array([0])
            for _ in range(n):
                probs_a = np.concatenate([probs_a * mass_a[runs], probs_a])
                probs_b = np.concatenate([probs_b * mass_b[runs], probs_b])
                runs = np.concatenate([np.zeros_like(runs), runs + 1])
            return float(np.abs(probs_a * trail_a[runs] - probs_b * trail_b[runs]).sum())

        rng = np.random.default_rng(20)
        halving = stage0().law
        pairs = [(halving, perturb(halving, 41, 0.001)), (perturb(halving, 40961, 4.9e-5), halving)]
        for _ in range(3):
            laws = []
            for _ in "ab":
                masses = rng.random(int(rng.integers(1, 25)))
                masses[rng.random(masses.size) < 0.3] = 0.0
                masses[-1] += 0.1
                laws.append(p_law(masses / masses.sum()))
            pairs.append(tuple(laws))
        for law_a, law_b in pairs:
            for n in range(21):
                assert tv_prefix_exact(law_a, law_b, n) == concatenated(law_a, law_b, n), n

    def test_chunks_of_128_strings_add_up_as_the_full_enumeration(self, monkeypatch):
        # at 7 bits a chunk is numpy's smallest pairwise block, so every
        # N above 7 adds several chunk sums pairwise
        monkeypatch.setattr(adversary, "_CHUNK_BITS", 7)
        self.test_equals_enumeration_by_concatenation()

    def test_twenty_bits_hold_no_full_enumeration(self):
        # the 2^20 masses of one law alone take 8 MB
        law = stage0().law
        moved = perturb(law, 40961, 4.9e-5)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tv_prefix_exact(law, moved, 20)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 4 << 20
        assert current - before < 1 << 20

    @settings(max_examples=60, deadline=None)
    @given(
        masses=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=16),
        k=st.integers(min_value=1, max_value=40),
        share=st.floats(min_value=0.01, max_value=0.99),
        lengths=st.tuples(st.integers(min_value=0, max_value=14), st.integers(min_value=0, max_value=14)),
    )
    def test_shorter_prefixes_are_no_further_apart(self, masses, k, share, lengths):
        # the delta search screens on a shorter prefix; it may reject on
        # it only because the distance cannot shrink as the prefix grows
        masses[0] += 0.1
        law = p_law(np.array(masses) / sum(masses))
        moved = perturb(law, k, share * law.prob(0))
        n, N = sorted(lengths)
        assume(n < N)
        assert tv_prefix_exact(law, moved, n) <= tv_prefix_exact(law, moved, N) + 1e-15

    def test_rejects_out_of_range_lengths(self):
        law = stage0().law
        with pytest.raises(ValueError, match="capped"):
            tv_prefix_exact(law, law, 21)
        with pytest.raises(ValueError):
            tv_prefix_exact(law, law, -1)


def silent_runner(bits, config):
    return []


def rewriting_runner(fn):
    # keeps real firing times and ages, only rewrites the estimate
    def runner(bits, config):
        for event in iter_scheme("poly", bits, config):
            yield EstimateEvent(
                ordinal=event.ordinal,
                time=event.time,
                run_age=event.run_age,
                estimate=fn(event.run_age),
                residual_counts=event.residual_counts,
                sample_count=event.sample_count,
                window_start=event.window_start,
                window_end=event.window_end,
            )

    return runner


def constant_estimate_runner(value):
    return rewriting_runner(lambda age: value)


def oracle_runner(law):
    return rewriting_runner(lambda age: residual_mean(law, age))


class TestFoolingProbability:
    def test_silent_runner_reports_diagnostic(self):
        law = stage0().law
        result = fooling_probability(law, silent_runner, CFG, (0, 64), 3.0, 200, seed=5)
        assert result.estimate == 0.0
        assert result.successes == 0
        assert result.executed_reps > 0
        assert result.ci_low == 0.0
        assert result.ci_high > 0.0

    def test_runner_quoting_the_target_is_never_fooled(self):
        law = stage0().law
        runner = constant_estimate_runner(3.0)
        result = fooling_probability(law, runner, CFG, (0, 64), 3.0, 200, seed=5)
        assert result.estimate == 0.0
        # it fires in the window: a quote just below the cutoff is fooled
        below = fooling_probability(law, constant_estimate_runner(1.999), CFG, (0, 64), 3.0, 200, seed=5)
        assert below.estimate > 0.0

    def test_runner_outputting_zero_is_fooled_at_firing_coverage(self):
        law = stage0().law
        runner = constant_estimate_runner(0.0)
        result = fooling_probability(law, runner, CFG, (0, 64), 2.05, 400, seed=5)
        assert result.estimate > 0.9
        assert result.ci_high <= 1.0

    def test_oracle_runner_is_never_fooled_at_the_true_mean(self):
        law = stage0().law
        result = fooling_probability(law, oracle_runner(law), CFG, (0, 64), law.mean, 200, seed=5)
        assert result.estimate == 0.0

    def test_real_scheme_is_fooled_by_inflated_target(self):
        law = stage0().law
        result = fooling_probability(law, "poly", CFG, (0, 64), law.mean + 2.0, 500, seed=7)
        assert result.estimate > 0.98

    def test_reproducible_for_fixed_seed(self):
        law = stage0().law
        a = fooling_probability(law, "poly", CFG, (0, 64), law.mean + 2.0, 150, seed=11)
        b = fooling_probability(law, "poly", CFG, (0, 64), law.mean + 2.0, 150, seed=11)
        assert a == b

    def test_precondition_errors(self):
        law = stage0().law
        with pytest.raises(ValueError, match="100 reps"):
            fooling_probability(law, silent_runner, CFG, (0, 64), 3.0, 50, seed=1)
        with pytest.raises(ValueError, match="window"):
            fooling_probability(law, silent_runner, CFG, (64, 64), 3.0, 200, seed=1)

    def test_wilson_needs_a_trial(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="need at least one trial"):
                _wilson(0, n)


def reaches_marker(bits, age, bound):
    """Whether a position in (age, bound) has run age `age`."""
    run = None
    for t, bit in enumerate(bits.tolist()[:bound]):
        run = 0 if bit == 0 else (None if run is None else run + 1)
        if t > age and run == age:
            return True
    return False


def per_path_fooling(law, runner, config, window, target_mu, reps, seed):
    """fooling_probability as a loop over paths and events."""
    age, bound = window
    successes = executed = 0
    for rep in range(reps):
        bits = sample_path(law, bound, StartMode.AT_RENEWAL, seed=seed, stream=rep).bits
        if not reaches_marker(bits, age, bound):
            continue
        executed += 1
        for event in runner(bits, config):
            if event.time >= bound:
                break
            if event.time <= age:
                continue
            if event.run_age == age and event.estimate < target_mu - 1.0:
                successes += 1
                break
    low, high = _wilson(successes, reps)
    return FoolingResult(successes / reps, low, high, successes, reps, executed)


def per_path_joint(state, runner, config, reps, seed):
    """verify_stage's joint fooling estimate as a loop over paths."""
    windows = [state.window(i) for i in range(1, state.stage + 1)]
    cutoffs = [residual_mean(state.law, age) - 1.0 for age, _ in windows]
    bound = max(b for _, b in windows)
    successes = 0
    for rep in range(reps):
        bits = sample_path(state.law, bound, StartMode.AT_RENEWAL, seed=seed, stream=rep).bits
        pending = set(range(len(windows)))
        for event in runner(bits, config):
            for i in tuple(pending):
                age, end = windows[i]
                if age < event.time < end and event.run_age == age and event.estimate < cutoffs[i]:
                    pending.discard(i)
        successes += not pending
    return successes / reps


class TestBlockedMonteCarlo:
    @pytest.mark.parametrize("window", [(0, 5), (3, 40), (7, 30)])
    def test_executed_counts_paths_that_reach_the_marker_age(self, window):
        law = stage0().law
        result = fooling_probability(law, "poly", CFG, window, 3.0, 300, seed=12)
        reached = sum(
            reaches_marker(sample_path(law, window[1], StartMode.AT_RENEWAL, 12, rep).bits, *window)
            for rep in range(300)
        )
        assert 0 < result.executed_reps == reached < 300

    @pytest.mark.parametrize("scheme", ["poly", "log", "eps"])
    def test_tag_and_wrapped_runner_agree(self, scheme, stage_one):
        config = SchemeConfig(gamma=0.3, epsilon=0.1)
        runner = partial(iter_scheme, scheme)
        results = []
        for law in (stage0().law, stage_one.law):
            for age, bound in ((0, 64), (1, 200), (2, 700)):
                # the cutoff at the true conditional mean splits the paths
                args = (config, (age, bound), residual_mean(law, age) + 1.0, 150)
                tagged = fooling_probability(law, scheme, *args, seed=3)
                assert fooling_probability(law, runner, *args, seed=3) == tagged
                results.append(tagged)
        assert any(0 < r.successes < r.executed_reps for r in results)
        report = verify_stage(stage_one, scheme, config, reps=300, seed=9)
        assert verify_stage(stage_one, runner, config, reps=300, seed=9) == report

    @pytest.mark.parametrize("scheme", ["poly", "eps"])
    def test_results_equal_the_per_path_loops(self, scheme, stage_one):
        config = SchemeConfig(gamma=0.3, epsilon=0.1)
        runner = partial(iter_scheme, scheme)
        for law in (stage0().law, stage_one.law):
            # age 40 is out of reach of 45 bits: nothing counts as fired
            for age, bound in ((0, 64), (1, 90), (3, 40), (40, 45)):
                args = (config, (age, bound), residual_mean(law, age) + 1.0, 200)
                expected = per_path_fooling(law, runner, *args, seed=4)
                assert fooling_probability(law, scheme, *args, seed=4) == expected
        report = verify_stage(stage_one, scheme, config, reps=200, seed=6)
        assert report["conditions"][0]["estimate"] == per_path_joint(stage_one, runner, config, 200, 6)

    def test_unknown_tag_is_rejected(self):
        with pytest.raises(ValueError, match=r"unknown scheme tag 'offline'; expected one of \['eps', 'log', 'poly'\]"):
            fooling_probability(stage0().law, "offline", CFG, (0, 64), 3.0, 200, seed=1)


@pytest.fixture(scope="module")
def stage_one():
    return advance_stage(stage0(), "poly", CFG, seed=0)


def two_window_state(stage_one, marker, horizon, k, share):
    """stage_one advanced by hand: share * p_0 moved to k, and the window
    (marker, horizon) added."""
    law = stage_one.law
    delta = share * law.prob(0)
    law_next = perturb(law, k, delta)
    audit = dataclasses.replace(
        stage_one.audits[0],
        stage=2,
        delta=delta,
        k=k,
        p0_before=law.prob(0),
        mean_after=law_next.mean,
    )
    return StageState(
        stage=2,
        markers=stage_one.markers + (marker, horizon),
        law_history=stage_one.law_history + (law_next,),
        audits=stage_one.audits + (audit,),
    )


class TestAdvanceStage:
    def test_first_stage_within_default_budgets(self):
        state = advance_stage(stage0(), "poly", CFG, seed=0)
        assert state.stage == 1
        assert len(state.markers) == 2
        assert state.markers[0] == 0
        assert state.markers[1] >= 64
        audit = state.audits[0]
        assert audit.k * audit.delta > 2.0
        assert audit.k * audit.delta < 2.01
        assert audit.delta < 0.25 * audit.p0_before
        assert audit.tv_value <= _stage_bounds(1)[1] == 1e-3
        assert audit.tv_exact_n == 20
        assert audit.fooling_estimate >= 1.0 - 2e-3
        # exact bookkeeping: the mean moves by k*delta
        assert state.law.mean - stage0().law.mean == pytest.approx(
            audit.k * audit.delta, abs=1e-9
        )
        # the analytic per-coordinate bound dominates the exact value
        assert audit.tv_value <= audit.tv_analytic_bound

    def test_screened_search_picks_what_the_unscreened_one_picks(self):
        # stage 1 from the halving law: marker 0, delta = 0.2 * p_0 halved
        # until the exact distance at N = 20 is within 1e-3
        law = stage0().law
        delta = 0.2 * law.prob(0)
        while True:
            k = math.floor(2.0 / delta) + 1
            value = tv_prefix_exact(law, perturb(law, k, delta), 20)
            if value <= 1e-3:
                break
            delta *= 0.5
        audit = advance_stage(stage0(), "poly", CFG, seed=0).audits[0]
        assert (audit.delta, audit.k, audit.tv_value) == (delta, k, value)

    def test_screen_leaves_one_exact_call(self, monkeypatch):
        lengths = []
        exact = adversary.tv_prefix_exact
        monkeypatch.setattr(adversary, "tv_prefix_exact", lambda a, b, N: lengths.append(N) or exact(a, b, N))
        advance_stage(stage0(), "poly", CFG, seed=0)
        # twelve candidates, eleven rejected by the 14-bit screen alone
        assert lengths == [14] * 12 + [20]

    def test_float_edge_guard_steps_k_past_a_shift_of_exactly_two(self, monkeypatch):
        # a shift that rounds to 2.0 at the formula's k is not more than
        # 2: k steps up by one, here at every delta the search tries
        plain = advance_stage(stage0(), "poly", CFG, seed=0).audits[0]
        shift, tried = adversary.mu_L_shift, []

        def at_the_edge(law, age, delta, k):
            first = delta not in {d for d, _ in tried}
            tried.append((delta, k))
            return 2.0 if first else shift(law, age, delta, k)

        monkeypatch.setattr(adversary, "mu_L_shift", at_the_edge)
        audit = advance_stage(stage0(), "poly", CFG, seed=0).audits[0]
        assert tried[:4] == [(0.1, 21), (0.1, 22), (0.05, 41), (0.05, 42)]
        assert (audit.delta, audit.k, audit.tv_value) == (plain.delta, plain.k + 1, plain.tv_value)

    def test_a_candidate_past_the_screen_can_still_fail_the_exact_distance(self, monkeypatch):
        # the first candidate reads close on the 14-bit screen and far at
        # N = 20, so delta halves and the search goes on as it would
        plain = advance_stage(stage0(), "poly", CFG, seed=0).audits[0]
        exact, lengths = adversary.tv_prefix_exact, []

        def screened_then_far(a, b, N):
            lengths.append(N)
            return [0.0, 1.0][len(lengths) - 1] if len(lengths) <= 2 else exact(a, b, N)

        monkeypatch.setattr(adversary, "tv_prefix_exact", screened_then_far)
        assert advance_stage(stage0(), "poly", CFG, seed=0).audits[0] == plain
        assert lengths == [14, 20] + [14] * 11 + [20]

    def test_deterministic_given_seed(self):
        a = advance_stage(stage0(), "poly", CFG, seed=3)
        b = advance_stage(stage0(), "poly", CFG, seed=3)
        assert a.audits == b.audits
        assert a.markers == b.markers
        assert a.law.probs.tolist() == b.law.probs.tolist()

    def test_second_stage_exhausts_the_marker_search(self):
        # the first perturbation leaves every tail beyond the window at
        # exactly delta, and 3*delta sits above the next stage's cap, so
        # no admissible age marker exists at any scale
        state = advance_stage(stage0(), "poly", CFG, seed=0)
        with pytest.raises(BudgetExhausted) as info:
            advance_stage(state, "poly", CFG, seed=1)
        assert info.value.constraint == "marker"

    def test_later_stage_searches_k_and_delta_at_a_marker(self, monkeypatch):
        # A stage-1 law whose first perturbation moved 1e-5 to 200,001
        # leaves every tail past the window at 1e-5, so age 65 is a
        # realizable marker for stage 2 (3e-5 < 100^-2).  Its k comes
        # from the marker's formula, and delta halves until k*delta is
        # below 100^-2 and the prefix distance below 1000^-2.
        passing = FoolingResult(1.0, 0.99, 1.0, 1500, 1500, 1500)
        monkeypatch.setattr(adversary, "fooling_probability", lambda *args, **kwargs: passing)
        base = stage0().law
        law = perturb(base, 200_001, 1e-5)
        first = advance_stage(stage0(), "poly", CFG).audits[0]
        first = dataclasses.replace(first, delta=1e-5, k=200_001, mean_after=law.mean)
        state = StageState(stage=1, markers=(0, 64), law_history=(base, law), audits=(first,))
        advanced = advance_stage(state, "poly", CFG)
        audit = advanced.audits[-1]
        assert advanced.markers == (0, 64, 65, 128)
        assert advanced.window(2) == (65, 128)
        assert audit.k == 253_692
        assert audit.delta == 0.2 * law.prob(0) * 0.5**28
        assert mu_L_shift(law, 65, audit.delta, audit.k) > 2.0
        assert audit.k * audit.delta < 1e-4
        assert audit.tv_value <= _stage_bounds(2)[1] == 1e-6
        assert audit.k < MAX_SUPPORT

    def test_horizon_budget_can_exhaust(self, monkeypatch):
        monkeypatch.setattr(adversary, "_HORIZON_MAX", 32)  # below the first horizon, 64
        with pytest.raises(BudgetExhausted) as info:
            advance_stage(stage0(), "poly", CFG, seed=0)
        assert info.value.constraint == "horizon"

    def test_perturbation_budget_can_exhaust(self, monkeypatch):
        monkeypatch.setattr(adversary, "_DELTA_HALVINGS", 0)
        with pytest.raises(BudgetExhausted) as info:
            advance_stage(stage0(), "poly", CFG, seed=0)
        assert info.value.constraint == "perturbation"

    def test_stage_cap(self, monkeypatch):
        state = advance_stage(stage0(), "poly", CFG, seed=0)
        monkeypatch.setattr(adversary, "_MAX_STAGE", 1)
        with pytest.raises(ValueError, match="cap"):
            advance_stage(state, "poly", CFG)


class TestStageStateInvariants:
    def test_markers_must_increase(self):
        law = stage0().law
        with pytest.raises(ValueError, match="strictly increasing"):
            StageState(stage=1, markers=(5, 5), law_history=(law, law), audits=())

    def test_history_length_must_match(self):
        law = stage0().law
        with pytest.raises(ValueError, match="one law per stage"):
            StageState(stage=1, markers=(0, 64), law_history=(law,), audits=())

    def test_stage_must_not_be_negative(self):
        with pytest.raises(ValueError, match="stage must be >= 0"):
            StageState(stage=-1, markers=(0,), law_history=())

    def test_one_audit_per_advance(self, stage_one):
        with pytest.raises(ValueError, match="audits must hold one entry per advance"):
            StageState(stage=1, markers=stage_one.markers, law_history=stage_one.law_history)

    def test_delta_stays_under_a_quarter_of_p0(self, stage_one):
        audit = stage_one.audits[0]
        over = dataclasses.replace(audit, delta=0.25 * audit.p0_before)
        with pytest.raises(ValueError, match="stage 1 delta .* breaks the quarter-of-p0 bound"):
            dataclasses.replace(stage_one, audits=(over,))

    def test_window_accessor(self):
        state = advance_stage(stage0(), "poly", CFG, seed=0)
        assert state.window(1) == (state.markers[0], state.markers[1])
        with pytest.raises(ValueError):
            state.window(2)
        with pytest.raises(ValueError):
            stage0().window(1)

    def test_marker_counts(self, stage_one):
        law = stage_one.law
        with pytest.raises(ValueError, match="markers must be"):
            StageState(stage=0, markers=(0, 64), law_history=(law,))
        with pytest.raises(ValueError, match="markers must be"):
            StageState(stage=1, markers=(0, 64, 65), law_history=stage_one.law_history, audits=stage_one.audits)

    def test_two_window_state(self, stage_one):
        # (L_0, N_1, L_1, N_2): the layout advance_stage builds at stage 2
        marker, horizon = stage_one.markers[1] + 1, 2 * stage_one.markers[1]
        state = two_window_state(stage_one, marker, horizon, 300, 0.01)
        assert state.window(1) == stage_one.window(1)
        assert state.window(2) == (marker, horizon)
        entries = json.loads(audit_json(state))
        assert [entry["markers"] for entry in entries] == [list(stage_one.markers), list(state.markers)]
        assert [entry["k"] for entry in entries] == [stage_one.audits[0].k, 300]
        report = verify_stage(state, "poly", CFG, reps=100, seed=5)
        by_name = {c["condition"]: c for c in report["conditions"]}
        assert by_name["joint_fooling"]["windows"] == [list(state.window(1)), [marker, horizon]]
        assert [entry["stage"] for entry in by_name["prefix_tv"]["stages"]] == [1, 2]
        assert {check["age"] for check in by_name["tail_mean_monotone"]["checks"]} == {0, marker}
        # the joint verdict over both windows, for a tag and a callable runner
        joint = per_path_joint(state, partial(iter_scheme, "poly"), CFG, 100, 5)
        assert by_name["joint_fooling"]["estimate"] == joint
        called = verify_stage(state, partial(iter_scheme, "poly"), CFG, reps=100, seed=5)
        assert called["conditions"][0]["estimate"] == joint

    def test_two_window_joint_verdict_needs_both_windows(self, stage_one):
        # eps fires at age 65 once runs of 70 are common: each window
        # alone fools many paths, and the joint verdict fewer than either
        config = SchemeConfig(gamma=0.3, epsilon=0.1)
        state = two_window_state(stage_one, 65, 400, 70, 0.24)
        law = state.law
        alone = [
            fooling_probability(law, "eps", config, window, residual_mean(law, window[0]), 200, seed=5).estimate
            for window in (state.window(1), state.window(2))
        ]
        joint = per_path_joint(state, partial(iter_scheme, "eps"), config, 200, 5)
        assert 0.0 < joint < min(alone)
        for runner in ("eps", partial(iter_scheme, "eps")):
            assert verify_stage(state, runner, config, reps=200, seed=5)["conditions"][0]["estimate"] == joint


class TestVerifyStage:
    def test_first_stage_verifies(self):
        state = advance_stage(stage0(), "poly", CFG, seed=0)
        report = verify_stage(state, "poly", CFG, reps=2000, seed=424243)
        assert report["all_passed"]
        by_name = {c["condition"]: c for c in report["conditions"]}
        joint = by_name["joint_fooling"]
        assert joint["estimate"] >= joint["threshold"] - (joint["ci"][1] - joint["ci"][0]) / 2
        assert joint["threshold"] == pytest.approx(0.998)
        assert by_name["mean_increment"]["first_stage_kdelta"] > 2.0
        assert by_name["prefix_tv"]["stages"][0]["value"] <= 1e-3
        assert by_name["tail_mean_monotone"]["passed"]

    def test_corrupted_law_fails_the_mean_condition(self):
        state = advance_stage(stage0(), "poly", CFG, seed=0)
        doctored = StageState(
            stage=1,
            markers=state.markers,
            law_history=(state.law_history[0], p_law([0, 0, 1])),
            audits=state.audits,
        )
        report = verify_stage(doctored, "poly", CFG, reps=300, seed=99)
        assert not report["all_passed"]
        by_name = {c["condition"]: c for c in report["conditions"]}
        assert not by_name["mean_increment"]["passed"]

    def test_requires_an_advanced_stage(self):
        with pytest.raises(ValueError):
            verify_stage(stage0(), "poly", CFG)

    def test_rejects_tiny_rep_counts(self):
        state = advance_stage(stage0(), "poly", CFG, seed=0)
        with pytest.raises(ValueError, match="100 reps"):
            verify_stage(state, "poly", CFG, reps=10)


class TestAuditJson:
    def test_shape_and_values(self):
        state = advance_stage(stage0(), "poly", CFG, seed=0)
        entries = json.loads(audit_json(state))
        assert len(entries) == 1
        entry = entries[0]
        assert set(entry) == {"stage", "law", "markers", "delta", "k", "fooling", "tv", "mean"}
        audit = state.audits[0]
        assert entry["stage"] == 1
        assert entry["delta"] == audit.delta
        assert entry["k"] == audit.k
        assert entry["markers"] == [0, state.markers[1]]
        assert entry["fooling"]["est"] == audit.fooling_estimate
        assert entry["fooling"]["ci"] == list(audit.fooling_ci)
        assert entry["tv"]["exact_n"] == 20
        assert entry["tv"]["value"] == audit.tv_value
        assert entry["mean"] == pytest.approx(state.law.mean)
        assert entry["law"]["type"] == "perturbed"
