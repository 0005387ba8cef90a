"""Staged adversarial construction against a pluggable estimator.

Each stage moves a sliver of run-length mass from 0 to a far index k,
which barely changes what any fixed prefix can see but hugely raises
the conditional mean beyond a chosen age marker.  The stage is accepted
only after a Monte Carlo check that the estimator, run on the current
law, keeps firing inside the designated window at the marker age with
estimates far below the new conditional mean: those firings are the
fooling events.

A stage advance needs three searches in a fixed order: the age marker
(tail mass small enough), the window horizon (estimator fools with
probability near 1 by then), and the perturbation (k, delta) subject to
the mean-shift, bookkeeping, and prefix-closeness constraints.  Any of
them can run out of room at finite scale; that is reported as
BudgetExhausted naming the constraint, never papered over.

The Monte Carlo checks sample their paths a block at a time.  A scheme
tag, or the package's iter_poly/iter_log/iter_eps, runs as one call of
the scheme's columns per block, and the checks are existence tests on
the columns (path, time, age, sum/m); any other runner is called path
by path and fills the same columns.  The exact prefix distance builds
the 2^N string masses of each law in place, and keeps the base law's
for the next call of the delta search.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .laws import MAX_SUPPORT, LawError, RenewalLaw, make_law, perturb, residual_mean
from .paths import StartMode, sample_paths
from .paths import sample_path  # noqa: F401  bench/traced.py wraps adversary.sample_path
from .schemes import (
    _BLOCK_BITS,
    EstimateEvent,
    PrefixScan,
    SchemeConfig,
    _scan_columns,
    iter_eps,
    iter_log,
    iter_poly,
    prefix_scan,
)

__all__ = [
    "StageAudit",
    "StageState",
    "SearchBudgets",
    "BudgetExhausted",
    "FoolingResult",
    "stage0",
    "mu_L_shift",
    "tv_prefix_exact",
    "fooling_probability",
    "advance_stage",
    "verify_stage",
    "audit_json",
]

# two-sided 95% normal quantile, for Wilson intervals
_Z95 = 1.959963984540054

SchemeRunner = Callable[[Sequence[int], SchemeConfig], Iterable[EstimateEvent]]

# The package's iterators run as their tags: one kernel call per block.
_TAGS = {iter_poly: "poly", iter_log: "log", iter_eps: "eps"}


@dataclass(frozen=True)
class StageAudit:
    """What one stage advance measured while it was accepted."""

    stage: int
    marker: int
    horizon: int
    delta: float
    k: int
    p0_before: float
    mean_before: float
    mean_after: float
    target_mu_search: float
    fooling_estimate: float
    fooling_ci: tuple[float, float]
    fooling_reps: int
    fooling_executed: int
    fooling_any_fired: bool
    tv_exact_n: int
    tv_value: float
    tv_analytic_bound: float
    tv_threshold: float
    seed: int


@dataclass(frozen=True)
class StageState:
    """Stage index, the full law history, interleaved markers, audits.

    markers alternate age thresholds and window horizons:
    (L_0, N_1, L_1, N_2, ..., N_stage), strictly increasing.  The
    quantitative stage conditions (mean growth, prefix closeness) are
    deliberately NOT enforced here so that verify_stage can take any
    state, including a corrupted one, and report which condition fails.
    """

    stage: int
    markers: tuple[int, ...]
    law_history: tuple[RenewalLaw, ...]
    audits: tuple[StageAudit, ...] = ()

    def __post_init__(self):
        if self.stage < 0:
            raise ValueError("stage must be >= 0")
        if len(self.law_history) != self.stage + 1:
            raise ValueError("law_history must hold one law per stage, in order")
        if len(self.markers) != max(1, 2 * self.stage):
            raise ValueError("markers must be (L_0,) at stage 0, else (L_0, N_1, L_1, ..., N_stage)")
        if list(self.markers) != sorted(set(self.markers)):
            raise ValueError("markers must be strictly increasing")
        if len(self.audits) != self.stage:
            raise ValueError("audits must hold one entry per advance")
        for audit in self.audits:
            if not 0.0 < audit.delta < 0.25 * audit.p0_before:
                raise ValueError(
                    f"stage {audit.stage} delta {audit.delta} breaks the "
                    f"quarter-of-p0 bound {0.25 * audit.p0_before}"
                )

    @property
    def law(self) -> RenewalLaw:
        return self.law_history[-1]

    def window(self, i: int) -> tuple[int, int]:
        """(L_{i-1}, N_i) for 1 <= i <= stage."""
        if not 1 <= i <= self.stage:
            raise ValueError(f"stage holds windows 1..{self.stage}, asked for {i}")
        return self.markers[2 * (i - 1)], self.markers[2 * i - 1]


def stage0(truncate: int = 60) -> StageState:
    """Halving run-length law, the construction's starting point."""
    law = make_law({"type": "geometric", "q": 0.5, "truncate": truncate})
    return StageState(stage=0, markers=(0,), law_history=(law,))


def mu_L_shift(law: RenewalLaw, L: int, delta: float, k: int) -> float:
    """Closed-form change of the conditional tail mean at age L under
    the same perturbation.  Only valid when the moved mass lands inside
    the conditioned tail (k >= L)."""
    if k < L:
        raise ValueError(f"closed form needs k >= L, got k={k} < L={L}")
    if not 0.0 < delta < law.prob(0):
        raise ValueError(f"delta must lie in (0, p_0={law.prob(0)}), got {delta}")
    if L == 0:
        # the conditioning mass is the whole law on both sides, so only
        # the numerator moves: exactly k*delta
        return k * delta
    beta = law.tail(L)
    if beta <= 0.0:
        raise LawError(f"age {L} has zero tail mass")
    weighted = law.overshoot(L) + L * beta  # sum of i*p_i over i >= L
    return (k * delta) / (beta + delta) - delta * weighted / (beta * (beta + delta))


def _close_trailing_runs(strings: np.ndarray, table: np.ndarray) -> None:
    """Multiply the masses of the 2^s strings of one length by table at
    their trailing run.  Strings are kept so that the last bit appended
    is the top bit of the index, so the trailing run is the number of
    leading ones: r on the r-th dyadic block from the bottom, and s for
    the last string."""
    start, size = 0, strings.size
    run = 0
    while size > 1:
        size //= 2
        strings[start : start + size] *= table[run]
        start += size
        run += 1
    strings[start] *= table[run]


def _string_masses(law: RenewalLaw, n: int) -> np.ndarray:
    """Masses of the 2^n strings x_1..x_n that follow x_0 = 0.

    A string's mass is the product of the run masses of its completed
    runs times the tail mass of its trailing partial run.
    """
    mass = np.array([law.prob(i) for i in range(n + 1)])
    trail = np.array([1.0] + [law.tail(r) for r in range(1, n + 2)])
    probs = np.empty(1 << n)
    probs[0] = 1.0
    width = 1
    for _ in range(n):
        # next bit 1 extends the trailing run, next bit 0 closes it
        probs[width : 2 * width] = probs[:width]
        _close_trailing_runs(probs[:width], mass)
        width *= 2
    _close_trailing_runs(probs, trail)
    return probs


@lru_cache(maxsize=1)
def _base_string_masses(law: RenewalLaw, n: int) -> np.ndarray:
    """Read-only string masses of the law that the delta search compares
    with a new candidate per step."""
    masses = _string_masses(law, n)
    masses.setflags(write=False)
    return masses


def tv_prefix_exact(law_a: RenewalLaw, law_b: RenewalLaw, N: int) -> float:
    """Exact L1 distance between the two path measures on strings
    x_0..x_N with x_0 = 0, over all 2^N continuations.  The masses of
    law_a, the base law, are kept for the next call.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if N > 20:
        raise ValueError(f"exact enumeration is capped at N=20, got {N}")
    gaps = _string_masses(law_b, N)
    np.subtract(_base_string_masses(law_a, N), gaps, out=gaps)
    return float(np.abs(gaps, out=gaps).sum())


def _wilson(successes: int, n: int) -> tuple[float, float]:
    if n <= 0:
        raise ValueError("need at least one trial")
    phat = successes / n
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2 * n)) / denom
    half = _Z95 * math.sqrt(phat * (1 - phat) / n + z2 / (4 * n * n)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == n else min(1.0, center + half)
    return low, high


@dataclass(frozen=True)
class FoolingResult:
    estimate: float
    ci_low: float
    ci_high: float
    successes: int
    reps: int
    executed_reps: int
    any_fired: bool


def _runner_tag(runner) -> str | SchemeRunner:
    tag = _TAGS.get(runner, runner)
    if isinstance(tag, str) and tag not in _TAGS.values():
        raise ValueError(f"unknown scheme tag {tag!r}; expected one of {sorted(_TAGS.values())}")
    return tag


def _runner_columns(runner: SchemeRunner, config: SchemeConfig, bits: np.ndarray, paths: np.ndarray, bound: int):
    """(path, time, age, estimate) of what a runner fires on the given
    paths of a block before bound.  Event times increase, so a path's
    run stops at its first event at or past bound."""
    fired = []
    for path in paths.tolist():
        for event in runner(bits[path], config):
            if event.time >= bound:
                break
            fired.append((path, event.time, event.run_age, event.estimate))
    if not fired:
        return (np.zeros(0, dtype=np.intp),) * 3 + (np.zeros(0),)
    path, time, age, estimate = zip(*fired)
    return np.array(path), np.array(time), np.array(age), np.array(estimate, dtype=np.float64)


def _monte_carlo(
    law: RenewalLaw,
    runner: str | SchemeRunner,
    config: SchemeConfig,
    bound: int,
    reps: int,
    seed: int,
    marker: int | None = None,
) -> Iterator[tuple[np.ndarray, tuple]]:
    """The estimator on the renewal-started paths of streams 0..reps-1,
    positions 0..bound, a block of paths at a time.

    Yields per block the mask of the paths that count, and the (path,
    time, age, estimate) columns of the estimates fired on them before
    bound.  With a marker age, a path counts only if one of its
    positions in (marker, bound) has that age, since no estimate at the
    marker can fire on the others; a runner is not run on them.  A tag
    runs the scheme's columns on the whole block at once; any other
    runner runs path by path.
    """
    runner = _runner_tag(runner)
    per_block = max(1, _BLOCK_BITS // (bound + 1))
    for start in range(0, reps, per_block):
        streams = range(start, min(reps, start + per_block))
        bits = sample_paths(law, bound, StartMode.AT_RENEWAL, seed, streams)
        if isinstance(runner, str):
            scan, cols = _scan_columns(runner, bits, config)
            counted = _counted(scan, marker, bound)
            path = np.arange(len(streams)).repeat(np.diff(cols.first))
            keep = cols.time < bound
            keep &= counted[path]
            yield counted, (path[keep], cols.time[keep], cols.age[keep], cols.sum[keep] / cols.m[keep])
        else:
            counted = _counted(prefix_scan(bits), marker, bound)
            yield counted, _runner_columns(runner, config, bits, counted.nonzero()[0], bound)


def _counted(scan: PrefixScan, marker: int | None, bound: int) -> np.ndarray:
    """The paths of a scanned block that count: all of them, or with a
    marker those with a position in (marker, bound) at that age."""
    if marker is None:
        return np.ones(scan.psi.size, dtype=bool)
    at = scan.ages == marker
    at &= scan.time > marker
    at &= scan.time < bound
    counted = np.zeros(scan.psi.size, dtype=bool)
    counted[scan.first.searchsorted(at.nonzero()[0], "right") - 1] = True
    return counted


def fooling_probability(
    law: RenewalLaw,
    runner: str | SchemeRunner,
    config: SchemeConfig,
    window: tuple[int, int],
    target_mu: float,
    reps: int,
    seed: int,
) -> FoolingResult:
    """Probability that the estimator, on a path of this law started at
    a renewal, fires somewhere strictly inside the window at exactly the
    window's age with an estimate more than 1 below target_mu.

    runner is a scheme tag ("poly", "log", "eps") or a callable like
    iter_poly; the package's iterators run as their tags.
    """
    age, n_bound = window
    if not 0 <= age < n_bound:
        raise ValueError(f"window must satisfy 0 <= age < bound, got {window}")
    if reps < 100:
        raise ValueError(f"need at least 100 reps for a usable interval, got {reps}")
    cutoff = target_mu - 1.0
    successes = 0
    executed = 0
    any_fired = False
    for counted, (path, time, ages, estimate) in _monte_carlo(law, runner, config, n_bound, reps, seed, age):
        executed += int(np.count_nonzero(counted))
        inside = time > age
        any_fired = any_fired or bool(inside.any())
        inside &= ages == age
        inside &= estimate < cutoff
        fooled = np.zeros_like(counted)
        fooled[path[inside]] = True
        successes += int(np.count_nonzero(fooled))
    low, high = _wilson(successes, reps)
    return FoolingResult(
        estimate=successes / reps,
        ci_low=low,
        ci_high=high,
        successes=successes,
        reps=reps,
        executed_reps=executed,
        any_fired=any_fired,
    )


@dataclass(frozen=True)
class SearchBudgets:
    horizon_start: int = 64
    horizon_max: int = 1 << 15
    fooling_reps: int = 1500
    delta_start_fraction: float = 0.2  # of p_0, then halved
    delta_halvings: int = 60
    marker_scan_limit: int = MAX_SUPPORT
    max_stage: int = 3


class BudgetExhausted(RuntimeError):
    """A stage-advance search ran out of room; .constraint names which."""

    def __init__(self, constraint: str, message: str):
        super().__init__(message)
        self.constraint = constraint


def _k_bound(law: RenewalLaw, age_markers: Iterable[int]) -> float:
    """Smallest k beyond which the perturbation cannot lower any
    conditional tail mean at the given ages (it must exceed every
    age plus that age's current conditional mean)."""
    return max(age + residual_mean(law, age) for age in age_markers)


def advance_stage(
    stage: StageState,
    runner: str | SchemeRunner,
    config: SchemeConfig,
    budgets: SearchBudgets = SearchBudgets(),
    seed: int = 0,
) -> StageState:
    j = stage.stage
    if j >= budgets.max_stage:
        raise ValueError(f"stage cap is {budgets.max_stage}, state is at {j}")
    law = stage.law
    next_stage = j + 1
    small = 100.0 ** (-next_stage)
    tv_threshold = 1000.0 ** (-next_stage)
    fool_threshold = 1.0 - 2.0 * 1000.0 ** (-next_stage)

    # 1) age marker: tiny but realizable tail mass beyond every marker
    if j == 0:
        marker = stage.markers[0]
    else:
        # the first candidate whose tail is small enough, or 0: tails
        # only shrink, so nothing further is realizable
        start = stage.markers[-1] + 1
        tails = np.asarray(law.tails[start : budgets.marker_scan_limit])
        stops = ((tails <= 0.0) | (3.0 * tails < small)).nonzero()[0]
        marker = start + int(stops[0]) if stops.size and tails[stops[0]] > 0.0 else None
        if marker is None:
            raise BudgetExhausted(
                "marker",
                f"no age above {stage.markers[-1]} has positive tail mass "
                f"below {small / 3.0:g} (stage {next_stage})",
            )
    marker_mu = residual_mean(law, marker)
    target_mu = marker_mu + 2.0

    # 2) window horizon: double until the estimator is all but surely
    # fooled at the marker age before the horizon
    horizon = None
    best = None
    n = budgets.horizon_start
    trial = 0
    while n <= budgets.horizon_max:
        if n > marker:
            result = fooling_probability(
                law,
                runner,
                config,
                (marker, n),
                target_mu,
                budgets.fooling_reps,
                seed=seed + 1_000_003 * trial,
            )
            if best is None or result.estimate > best[1].estimate:
                best = (n, result)
            if result.estimate >= fool_threshold:
                horizon = n
                fooling = result
                break
        trial += 1
        n *= 2
    if horizon is None:
        detail = (
            f"best estimate {best[1].estimate:.6f} at horizon {best[0]}"
            if best
            else "no horizon above the marker fit the budget"
        )
        raise BudgetExhausted(
            "horizon",
            f"fooling never reached {fool_threshold:.6f} by horizon "
            f"{budgets.horizon_max} (stage {next_stage}; {detail})",
        )

    # 3) perturbation: shift more than 2 of conditional mean at the
    # marker while staying prefix-close and respecting the bookkeeping
    p0 = law.prob(0)
    beta = law.tail(marker)
    k_floor = _k_bound(law, stage.markers[0::2] + (marker,))
    exact_n = min(horizon, 20)
    delta = budgets.delta_start_fraction * p0
    chosen = None
    for _ in range(budgets.delta_halvings):
        if delta >= 0.25 * p0:
            delta *= 0.5
            continue
        if marker == 0:
            k = math.floor(2.0 / delta) + 1
        else:
            k = math.floor(marker + marker_mu + 2.0 * (beta + delta) / delta) + 1
        k = max(k, math.floor(k_floor) + 1, marker)
        while mu_L_shift(law, marker, delta, k) <= 2.0:  # float-edge guard
            k += 1
        if k >= MAX_SUPPORT:
            delta *= 0.5
            continue
        if next_stage >= 2 and k * delta >= small:
            delta *= 0.5
            continue
        candidate = perturb(law, k, delta)
        tv_value = tv_prefix_exact(law, candidate, exact_n)
        if tv_value <= tv_threshold:
            chosen = (delta, k, candidate, tv_value)
            break
        delta *= 0.5
    if chosen is None:
        raise BudgetExhausted(
            "perturbation",
            f"no (k, delta) after {budgets.delta_halvings} halvings kept the "
            f"exact prefix TV at N={exact_n} under {tv_threshold:g} "
            f"(stage {next_stage})",
        )
    delta, k, law_next, tv_value = chosen

    audit = StageAudit(
        stage=next_stage,
        marker=marker,
        horizon=horizon,
        delta=delta,
        k=k,
        p0_before=p0,
        mean_before=law.mean,
        mean_after=law_next.mean,
        target_mu_search=target_mu,
        fooling_estimate=fooling.estimate,
        fooling_ci=(fooling.ci_low, fooling.ci_high),
        fooling_reps=fooling.reps,
        fooling_executed=fooling.executed_reps,
        fooling_any_fired=fooling.any_fired,
        tv_exact_n=exact_n,
        tv_value=tv_value,
        # each completed or trailing run factor moves by at most delta
        # in one coordinate, two absolute terms per factor
        tv_analytic_bound=2.0 * delta * (exact_n + 1),
        tv_threshold=tv_threshold,
        seed=seed,
    )
    new_markers = stage.markers + ((marker,) if j >= 1 else ()) + (horizon,)
    return StageState(
        stage=next_stage,
        markers=new_markers,
        law_history=stage.law_history + (law_next,),
        audits=stage.audits + (audit,),
    )


def verify_stage(
    stage: StageState,
    runner: str | SchemeRunner,
    config: SchemeConfig,
    reps: int = 10_000,
    seed: int = 104_729,
) -> dict:
    """Re-measures every stage condition with fresh seeds and returns a
    report; failures are entries, never exceptions.
    """
    j = stage.stage
    if j < 1:
        raise ValueError("verification needs at least one advanced stage")
    if reps < 100:
        raise ValueError(f"need at least 100 reps, got {reps}")
    law = stage.law
    laws = stage.law_history
    windows = [stage.window(i) for i in range(1, j + 1)]
    targets = [residual_mean(law, age) for age, _ in windows]
    cutoffs = [t - 1.0 for t in targets]
    max_bound = max(bound for _, bound in windows)

    successes = 0
    for fooled, (path, time, ages, estimate) in _monte_carlo(law, runner, config, max_bound, reps, seed):
        for (age, bound), cutoff in zip(windows, cutoffs):
            hit = time > age
            hit &= time < bound
            hit &= ages == age
            hit &= estimate < cutoff
            inside = np.zeros_like(fooled)
            inside[path[hit]] = True
            fooled &= inside
        successes += int(np.count_nonzero(fooled))
    estimate = successes / reps
    low, high = _wilson(successes, reps)
    joint_threshold = 1.0 - sum(2.0 * 1000.0 ** (-i) for i in range(1, j + 1))
    half_width = (high - low) / 2.0
    conditions = [
        {
            "condition": "joint_fooling",
            "passed": estimate >= joint_threshold - half_width,
            "estimate": estimate,
            "ci": [low, high],
            "threshold": joint_threshold,
            "windows": [list(w) for w in windows],
            "targets": targets,
            "reps": reps,
        }
    ]

    # mean growth, anchored after the first jump: the first perturbation
    # raises the mean by exactly k*delta (which must exceed 2), later
    # ones together add less than the geometric tail of 1/100.  The
    # identity tolerance allows float accumulation over supports of
    # tens of thousands of entries.
    first = stage.audits[0]
    identity_gap = abs(laws[1].mean - laws[0].mean - first.k * first.delta)
    anchored_budget = sum(100.0 ** (-h) for h in range(2, j + 1))
    anchored_ok = law.mean <= laws[1].mean + anchored_budget + 1e-12
    conditions.append(
        {
            "condition": "mean_increment",
            "passed": (
                identity_gap <= 1e-9
                and first.k * first.delta > 2.0
                and first.delta < 0.25 * first.p0_before
                and anchored_ok
            ),
            "first_stage_identity_gap": identity_gap,
            "first_stage_kdelta": first.k * first.delta,
            "mean": law.mean,
            "anchored_bound": laws[1].mean + anchored_budget,
        }
    )

    tv_entries = []
    tv_ok = True
    for i, audit in enumerate(stage.audits, start=1):
        n_exact = min(stage.markers[2 * i - 1], 20)
        value = tv_prefix_exact(laws[i - 1], laws[i], n_exact)
        bound = 1000.0 ** (-i)
        tv_entries.append({"stage": i, "exact_n": n_exact, "value": value, "bound": bound})
        tv_ok = tv_ok and value <= bound
    conditions.append({"condition": "prefix_tv", "passed": tv_ok, "stages": tv_entries})

    mono_entries = []
    mono_ok = True
    age_markers = stage.markers[0::2]
    for i in range(1, j + 1):
        for age in age_markers[:i]:
            before = residual_mean(laws[i - 1], age)
            after = residual_mean(laws[i], age)
            ok = after >= before - 1e-12
            mono_ok = mono_ok and ok
            mono_entries.append(
                {"stage": i, "age": age, "before": before, "after": after, "passed": ok}
            )
    conditions.append(
        {"condition": "tail_mean_monotone", "passed": mono_ok, "checks": mono_entries}
    )

    return {
        "stage": j,
        "all_passed": all(c["passed"] for c in conditions),
        "reps": reps,
        "seed": seed,
        "conditions": conditions,
    }


def audit_json(stage: StageState) -> str:
    """Canonical audit trail: one entry per accepted stage."""
    entries = []
    for audit in stage.audits:
        entries.append(
            {
                "stage": audit.stage,
                "law": stage.law_history[audit.stage].provenance,
                "markers": list(stage.markers[: 2 * audit.stage]),
                "delta": audit.delta,
                "k": audit.k,
                "fooling": {
                    "est": audit.fooling_estimate,
                    "ci": list(audit.fooling_ci),
                },
                "tv": {
                    "exact_n": audit.tv_exact_n,
                    "value": audit.tv_value,
                    "analytic_bound": audit.tv_analytic_bound,
                },
                "mean": audit.mean_after,
            }
        )
    return json.dumps(entries, indent=2, sort_keys=True)
