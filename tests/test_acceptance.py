"""Acceptance gate: eight end-to-end criteria with pinned tolerances.

Monte Carlo thresholds were frozen after one calibration run at the
seeds used here; deterministic traces are hand-derived.  Runtime limits
are asserted where the criterion carries one.
"""

import math
import statistics
import time
import warnings

import numpy as np
import pytest

from renewalbench.adversary import (
    BudgetExhausted,
    advance_stage,
    stage0,
    tv_prefix_exact,
    verify_stage,
)
from renewalbench.evaluation import ExperimentConfig, run_experiment
from renewalbench.laws import make_law, residual_mean, stationary_zero_prob
from renewalbench.paths import StartMode, sample_path
from renewalbench.schemes import (
    SCHEME_TAGS,
    SchemeConfig,
    iter_scheme,
    run_scheme,
)

from oracles import markov_tail_bound_holds, ref_run, score_events

GEOM = {"type": "geometric", "q": 0.5, "truncate": 60}
ZIPF = {"type": "zipf", "s": 3.0, "truncate": 10_000}
P2 = {"type": "explicit", "p": [0.0, 0.0, 1.0]}

# frozen for criterion 6 from the calibration run at base_seed 2718
# (pooled final-decile median abs err measured 0.00465)
EPS_ERR_THRESHOLD = 0.02


def test_criterion_1_deterministic_law():
    started = time.perf_counter()
    law = make_law(P2)
    bits = [0, 1, 1] * 60 + [0]

    poly_events = run_scheme("poly", bits, SchemeConfig(gamma=0.5))
    assert [e.time for e in poly_events] == [9] + list(range(12, len(bits)))

    eps_events = run_scheme("eps", bits, SchemeConfig(epsilon=0.5))
    assert [e.time for e in eps_events][:5] == [3, 4, 6, 7, 8]

    log_events = run_scheme("log", bits, SchemeConfig(gamma=0.25))
    assert log_events, "the dyadic scheme must fire on the periodic path"

    offline = [row for row in run_scheme("offline", bits) if row.defined]
    assert offline

    for events in (poly_events, eps_events, log_events, offline):
        for record in score_events(law, events):
            assert record.abs_err == 0.0
            assert record.tv == 0.0
    assert time.perf_counter() - started < 1.0


def _random_setups(count, seed):
    rng = np.random.default_rng(seed)
    for i in range(count):
        kind = i % 3
        if kind == 0:
            law_spec = {
                "type": "geometric",
                "q": float(rng.uniform(0.15, 0.85)),
                "truncate": int(rng.integers(20, 80)),
            }
        elif kind == 1:
            support = int(rng.integers(2, 9))
            weights = rng.dirichlet(np.ones(support))
            law_spec = {"type": "explicit", "p": [float(w) for w in weights]}
        else:
            law_spec = {
                "type": "zipf",
                "s": float(rng.uniform(2.2, 4.5)),
                "truncate": int(rng.integers(30, 300)),
            }
        config = SchemeConfig(
            gamma=float(rng.uniform(0.05, 0.95)),
            epsilon=float(rng.uniform(0.05, 0.95)),
        )
        mode = StartMode.STATIONARY if i % 2 else StartMode.AT_RENEWAL
        yield law_spec, int(rng.integers(1 << 32)), config, mode, SCHEME_TAGS[i % 4]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_2_streaming_equals_reference():
    started = time.perf_counter()
    for law_spec, path_seed, config, mode, tag in _random_setups(200, seed=1234):
        law = make_law(law_spec)
        bits = sample_path(law, 3000, mode, seed=path_seed).bits
        assert run_scheme(tag, bits, config) == ref_run(tag, bits, config), (
            law_spec,
            path_seed,
            tag,
        )
    assert time.perf_counter() - started < 120.0


def test_criterion_3_polynomial_scheme_converges():
    started = time.perf_counter()
    config = ExperimentConfig(
        law=GEOM,
        scheme="poly",
        scheme_config=SchemeConfig(gamma=0.3),
        length=200_000,
        replicates=50,
        base_seed=2026,
    )
    report = run_experiment(config)
    assert report.pooled.median_abs_err < 0.05
    assert report.pooled.p90_abs_err < 0.12
    assert report.pooled.median_tv < 0.1
    densities = [s.firing_density for s in report.replicate_summaries]
    assert statistics.median(densities) >= 0.9
    assert time.perf_counter() - started < 600.0


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_4_dyadic_scheme_final_event_and_density():
    law = make_law(GEOM)
    config = SchemeConfig(gamma=0.3)
    final_errors = []
    densities = []
    for r in range(50):
        bits = sample_path(law, 199_999, StartMode.STATIONARY, seed=777, stream=r).bits
        last = None
        count = 0
        for event in iter_scheme("log", bits, config):
            last = event
            count += 1
        final_errors.append(abs(last.estimate - residual_mean(law, last.run_age)))
        densities.append(count / 200_000)
    assert statistics.median(final_errors) < 0.1
    assert statistics.median(densities) >= 0.8

    # density recovers between dyadic refreshes, so it must grow with N
    medians = []
    for n_positions in (1 << 14, 1 << 16, 1 << 17):
        per_rep = []
        for r in range(20):
            bits = sample_path(law, n_positions - 1, StartMode.STATIONARY, seed=777, stream=r).bits
            per_rep.append(sum(1 for _ in iter_scheme("log", bits, config)) / n_positions)
        medians.append(statistics.median(per_rep))
    assert medians[0] < medians[1] < medians[2]


def test_criterion_5_offline_good_index_density():
    config = ExperimentConfig(
        law=GEOM,
        scheme="offline",
        scheme_config=SchemeConfig(),
        length=100_001,
        replicates=20,
        base_seed=31415,
        tolerances=(0.1,),
    )
    report = run_experiment(config)
    densities = [dict(s.good_index_density)[0.1] for s in report.replicate_summaries]
    assert statistics.median(densities) >= 0.9


def test_criterion_6_occupancy_scheme_on_heavy_tail():
    config = ExperimentConfig(
        law=ZIPF,
        scheme="eps",
        scheme_config=SchemeConfig(epsilon=0.1),
        length=100_000,
        replicates=20,
        base_seed=2718,
    )
    report = run_experiment(config)
    densities = [s.firing_density for s in report.replicate_summaries]
    assert statistics.median(densities) >= 0.9
    assert report.pooled.median_abs_err < EPS_ERR_THRESHOLD

    # hand-derived deterministic trace on the period-3 path
    bits = [0, 1, 1] * 10 + [0]
    events = run_scheme("eps", bits, SchemeConfig(epsilon=0.5))
    assert [e.time for e in events][:8] == [3, 4, 6, 7, 8, 9, 10, 11]
    assert events[0].estimate == 2.0
    assert events[1].estimate == 1.0


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_7_inequality_suite():
    # Markov bound on the residual run outliving its conditional mean,
    # over a randomized grid of laws, ages, and horizons
    rng = np.random.default_rng(7)
    laws = [make_law(GEOM), make_law(ZIPF), make_law(P2)]
    for _ in range(37):
        kind = int(rng.integers(3))
        if kind == 0:
            laws.append(
                make_law(
                    {
                        "type": "geometric",
                        "q": float(rng.uniform(0.1, 0.9)),
                        "truncate": int(rng.integers(10, 100)),
                    }
                )
            )
        elif kind == 1:
            weights = rng.dirichlet(np.ones(int(rng.integers(2, 10))))
            laws.append(make_law({"type": "explicit", "p": [float(w) for w in weights]}))
        else:
            laws.append(
                make_law(
                    {
                        "type": "zipf",
                        "s": float(rng.uniform(2.5, 4.5)),
                        "truncate": int(rng.integers(20, 500)),
                    }
                )
            )
    for law in laws:
        for age in range(0, 9):
            if law.tail(age) <= 0.0:
                break
            for horizon in (4, 64, 4096, 1 << 20):
                assert markov_tail_bound_holds(law, age, horizon)

    # firing-window mean bounds on every emitted event: polynomial
    # events against time^gamma - 1, dyadic events against
    # 2^(scale*gamma) - 1
    for law_spec in (GEOM, ZIPF):
        law = make_law(law_spec)
        for gamma in (0.3, 0.5):
            config = SchemeConfig(gamma=gamma)
            for r in range(4):
                bits = sample_path(law, 30_000, StartMode.STATIONARY, seed=4242, stream=r).bits
                for event in iter_scheme("poly", bits, config):
                    assert event.estimate <= event.time**gamma - 1.0 + 1e-12
        config = SchemeConfig(gamma=0.3)
        for r in range(4):
            bits = sample_path(law, 30_000, StartMode.STATIONARY, seed=4242, stream=r).bits
            for event in iter_scheme("log", bits, config):
                scale = event.time.bit_length() - 1
                assert event.estimate <= 2.0 ** (scale * 0.3) - 1.0 + 1e-12

    # long-run zero frequency against the closed form
    for law_spec in (P2, GEOM, ZIPF):
        law = make_law(law_spec)
        bits = sample_path(law, 999_999, StartMode.STATIONARY, seed=90210).bits
        freq = float(np.mean(np.asarray(bits) == 0))
        assert abs(freq - stationary_zero_prob(law)) <= 0.01


def test_criterion_8_adversarial_stage_demonstration():
    started = time.perf_counter()
    config = SchemeConfig(gamma=0.3)
    base = stage0()

    state = advance_stage(base, "poly", config, seed=0)
    audit = state.audits[0]
    assert state.markers == (0, 64)

    # the mean moves by exactly k*delta (float accumulation tolerance
    # over a support of tens of thousands of entries)
    assert abs(state.law.mean - base.law.mean - audit.k * audit.delta) <= 1e-9
    assert audit.k * audit.delta > 2.0
    assert audit.delta < 0.25 * audit.p0_before
    # growth ledger in anchored form: the first stage adds its exact
    # k*delta and nothing more
    assert audit.k * audit.delta < 2.01
    # conditional tail means never decrease at the age markers
    assert residual_mean(state.law, 0) >= residual_mean(base.law, 0) - 1e-12
    # exact prefix closeness at min(N_1, 20)
    n_exact = min(state.markers[1], 20)
    assert tv_prefix_exact(base.law, state.law, n_exact) <= 1e-3

    report = verify_stage(state, "poly", config, reps=10_000, seed=914_771)
    assert report["all_passed"]
    joint = next(c for c in report["conditions"] if c["condition"] == "joint_fooling")
    assert joint["threshold"] == pytest.approx(0.998)
    assert joint["estimate"] >= 0.95  # hard bar; the 0.998 target is reported above

    # the next stage exhausts its search space: the first perturbation
    # left every tail beyond the window at exactly delta, and 3*delta
    # exceeds the next stage's tail cap
    with pytest.raises(BudgetExhausted) as info:
        advance_stage(state, "poly", config, seed=1)
    assert info.value.constraint == "marker"
    assert time.perf_counter() - started < 1200.0
