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

One Monte Carlo routine serves the horizon search and the
verification: it takes a list of windows (age, bound, cutoff) and counts
the paths fooled in all of them, a block of sampled paths at a time.
The search passes one window and its age marker, so that only paths
reaching the marker count; verify_stage passes every stage's window.
A runner is a scheme tag or any callable (bits, config) -> events.  A
tag runs as one call of the scheme's columns per block, and the checks
are existence tests on the columns (path, time, age, sum/m); a callable
is called path by path and fills the same columns.  Each stage's bounds
and the prefix length of its closeness check are stated once, in
_stage_bounds and _closeness_length.  The exact prefix distance holds
the masses of 2^14 strings per law at a time, 2.25 MB at N = 20,
and keeps nothing between calls.  The delta search screens each
candidate on the prefix six bits shorter first: the distance cannot
grow as the prefix shrinks, so a candidate already too far there is
rejected for a 64th of the exact call's work.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .laws import MAX_SUPPORT, LawError, RenewalLaw, make_law, perturb, residual_mean
from .paths import StartMode, sample_paths
from .paths import sample_path  # noqa: F401  bench/traced.py wraps adversary.sample_path
from .schemes import _BLOCK_BITS, _STOPPING_TAGS, EstimateEvent, SchemeConfig, _scheme_scan, prefix_scan

__all__ = [
    "StageAudit",
    "StageState",
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

_EXACT_CAP = 20  # longest prefix tv_prefix_exact enumerates
_CHUNK_BITS = 14  # its chunks of 2^14 strings; at least 7, so they sum as numpy does

# two-sided 95% normal quantile, for Wilson intervals
_Z95 = 1.959963984540054

SchemeRunner = Callable[[Sequence[int], SchemeConfig], Iterable[EstimateEvent]]


@dataclass(frozen=True)
class StageAudit:
    """What one stage advance measured while it was accepted.  Its window
    is the state's window(stage) and its bounds _stage_bounds(stage)."""

    stage: int
    delta: float
    k: int
    p0_before: float
    mean_after: float
    fooling_estimate: float
    fooling_ci: tuple[float, float]
    tv_exact_n: int
    tv_value: float
    tv_analytic_bound: float


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


def stage0() -> StageState:
    """Halving run-length law, the construction's starting point."""
    law = make_law({"type": "geometric", "q": 0.5, "truncate": 60})
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


def _close_trailing_runs(strings: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Multiply the masses of the 2^s strings of one length by table at
    their trailing run, in place.  The last bit appended is the top bit
    of the index, so the trailing run is the number of leading ones: r
    on the r-th dyadic block from the bottom, and s for the last string."""
    n = strings.size
    for run in range(n.bit_length()):
        strings[n - (n >> run) : n - (n >> run + 1)] *= table[run]
    return strings


def _padded(table: np.ndarray, size: int) -> np.ndarray:
    """The first size entries of a law's table, zero past its end."""
    out = np.zeros(size)
    out[: table.size] = table[:size]
    return out


def tv_prefix_exact(law_a: RenewalLaw, law_b: RenewalLaw, N: int) -> float:
    """Exact L1 distance between the two path measures on strings
    x_0..x_N with x_0 = 0, over all 2^N continuations.

    A string's mass is the product, in bit order, of the run masses of
    its completed runs and the tail mass of its trailing run.  The
    masses of the first c = min(N, _CHUNK_BITS) bits are built by
    doubling; the strings then go 2^c at a time, depth first over their
    last N - c bits, and the chunk sums add pairwise in string order.
    The value is numpy's sum of the 2^N gaps, bit for bit, from at most
    N - c + 3 chunks per law (2.25 MB at N = 20); nothing is kept.
    """
    if not 0 <= N <= _EXACT_CAP:
        raise ValueError(f"N must lie in 0..{_EXACT_CAP}, where exact enumeration is capped, got {N}")
    c = min(N, _CHUNK_BITS)
    mass = [_padded(law.probs, N + 1) for law in (law_a, law_b)]
    # a trailing run of r ones has mass tail(r); the empty one has mass 1
    trail = [np.concatenate(([1.0], _padded(law.tails[1:], N + 1))) for law in (law_a, law_b)]
    heads = [np.ones(1 << c), np.ones(1 << c)]
    for head, table in zip(heads, mass):
        for width in 1 << np.arange(c):
            # next bit 1 extends the trailing run, next bit 0 closes it
            head[width : 2 * width] = head[:width]
            _close_trailing_runs(head[:width], table)

    def close(chunks, tables, ones):
        # until a zero follows bit c, each string's run also holds its head's
        if chunks is None:
            return [_close_trailing_runs(head.copy(), table[ones:]) for head, table in zip(heads, tables)]
        return [chunk * table[ones] for chunk, table in zip(chunks, tables)]

    sums = np.empty(1 << (N - c))
    # (next bit past c, chunk index, ones since the last zero past c,
    # masses of the chunk so far, or None until that zero)
    stack = [(0, 0, 0, None)]
    while stack:
        bit, index, ones, chunks = stack.pop()
        if bit == N - c:
            a, b = close(chunks, trail, ones)
            sums[index] = np.abs(np.subtract(a, b, out=a), out=a).sum()
        else:
            stack.append((bit + 1, index, 0, close(chunks, mass, ones)))
            stack.append((bit + 1, index | 1 << bit, ones + 1, chunks))
    # numpy sums more than 128 doubles as the sum of their two halves
    while sums.size > 1:
        sums = sums[0::2] + sums[1::2]
    return float(sums[0])


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


def _fooled(
    law: RenewalLaw,
    runner: str | SchemeRunner,
    config: SchemeConfig,
    windows: Sequence[tuple[int, int, float]],
    reps: int,
    seed: int,
    marker: int | None = None,
) -> tuple[int, int]:
    """The estimator on the renewal-started paths of streams 0..reps-1,
    positions 0..the largest window bound, a block of paths at a time.

    A path is fooled in the window (age, bound, cutoff) if the estimator
    fires in (age, bound) at that run age with an estimate below cutoff.
    Returns the paths fooled in every window and the paths counted.  With a
    marker age, only the paths with a position in (marker, bound) at
    that age count, since no estimate at the marker can fire on the
    others; a runner is not run on them.  A tag runs the scheme's
    columns on the whole block at once; any other runner runs path by
    path.
    """
    if isinstance(runner, str) and runner not in _STOPPING_TAGS:
        raise ValueError(f"unknown scheme tag {runner!r}; expected one of {sorted(_STOPPING_TAGS)}")
    bound = max(end for _, end, _ in windows)
    per_block = max(1, _BLOCK_BITS // (bound + 1))
    fooled_paths = counted_paths = 0
    for start in range(0, reps, per_block):
        streams = range(start, min(reps, start + per_block))
        bits = sample_paths(law, bound, StartMode.AT_RENEWAL, seed, streams)
        scan, _, cols = _scheme_scan(runner, bits, config) if isinstance(runner, str) else (prefix_scan(bits), 0, None)
        # the paths that count; each window then keeps those it fooled
        if marker is None:
            fooled = np.ones(len(streams), dtype=bool)
        else:
            at = scan.ages == marker
            at &= scan.time > marker
            at &= scan.time < bound
            fooled = np.zeros(len(streams), dtype=bool)
            fooled[scan.first.searchsorted(at.nonzero()[0], "right") - 1] = True
        if cols is None:
            path, time, ages, estimate = _runner_columns(runner, config, bits, fooled.nonzero()[0], bound)
        else:
            path = np.arange(len(streams)).repeat(np.diff(cols.first))
            keep = cols.time < bound
            keep &= fooled[path]
            path, time, ages, estimate = path[keep], cols.time[keep], cols.age[keep], cols.sum[keep] / cols.m[keep]
        counted_paths += int(np.count_nonzero(fooled))
        for age, end, cutoff in windows:
            hit = time > age
            hit &= time < end
            hit &= ages == age
            hit &= estimate < cutoff
            inside = np.zeros_like(fooled)
            inside[path[hit]] = True
            fooled &= inside
        fooled_paths += int(np.count_nonzero(fooled))
    return fooled_paths, counted_paths


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

    runner is a scheme tag ("poly", "log", "eps"), run on a block of
    paths at once, or any callable (bits, config) -> events, run path by
    path.
    """
    age, n_bound = window
    if not 0 <= age < n_bound:
        raise ValueError(f"window must satisfy 0 <= age < bound, got {window}")
    if reps < 100:
        raise ValueError(f"need at least 100 reps for a usable interval, got {reps}")
    successes, executed = _fooled(law, runner, config, [(age, n_bound, target_mu - 1.0)], reps, seed, age)
    low, high = _wilson(successes, reps)
    return FoolingResult(
        estimate=successes / reps,
        ci_low=low,
        ci_high=high,
        successes=successes,
        reps=reps,
        executed_reps=executed,
    )


_HORIZON_START = 64  # first window horizon tried, then doubled
_HORIZON_MAX = 1 << 15  # last window horizon tried
_FOOLING_REPS = 1500  # paths per horizon tried
_DELTA_START_FRACTION = 0.2  # of p_0, then halved
_DELTA_HALVINGS = 60  # deltas tried per stage
_MAX_STAGE = 3  # stages advance_stage builds


class BudgetExhausted(RuntimeError):
    """A stage-advance search ran out of room; .constraint names which."""

    def __init__(self, constraint: str, message: str):
        super().__init__(message)
        self.constraint = constraint


def _stage_bounds(stage: int) -> tuple[float, float]:
    """Stage s's mass bound 100^-s and closeness bound 1000^-s; its
    fooling may fall short of 1 by twice the closeness bound."""
    return 100.0 ** (-stage), 1000.0 ** (-stage)


def _closeness_length(horizon: int) -> int:
    """Prefix length at which a stage with this window horizon must be
    close to the stage before, capped where the enumeration stops."""
    return min(horizon, _EXACT_CAP)


def _k_bound(law: RenewalLaw, age_markers: Iterable[int]) -> float:
    """Smallest k beyond which the perturbation cannot lower any
    conditional tail mean at the given ages (it must exceed every
    age plus that age's current conditional mean)."""
    return max(age + residual_mean(law, age) for age in age_markers)


def advance_stage(
    stage: StageState,
    runner: str | SchemeRunner,
    config: SchemeConfig,
    seed: int = 0,
) -> StageState:
    j = stage.stage
    if j >= _MAX_STAGE:
        raise ValueError(f"stage cap is {_MAX_STAGE}, state is at {j}")
    law = stage.law
    next_stage = j + 1
    small, tv_threshold = _stage_bounds(next_stage)
    fool_threshold = 1.0 - 2.0 * tv_threshold

    # 1) age marker: tiny but realizable tail mass beyond every marker
    if j == 0:
        marker = stage.markers[0]
    else:
        # the first candidate whose tail is small enough, or 0: tails
        # only shrink, so nothing further is realizable
        start = stage.markers[-1] + 1
        tails = law.tails[start:MAX_SUPPORT]
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
    n = _HORIZON_START
    trial = 0
    while n <= _HORIZON_MAX:
        if n > marker:
            result = fooling_probability(
                law, runner, config, (marker, n), target_mu, _FOOLING_REPS, seed=seed + 1_000_003 * trial
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
            f"{_HORIZON_MAX} (stage {next_stage}; {detail})",
        )

    # 3) perturbation: shift more than 2 of conditional mean at the
    # marker while staying prefix-close and respecting the bookkeeping
    p0 = law.prob(0)
    beta = law.tail(marker)
    k_floor = _k_bound(law, stage.markers[0::2] + (marker,))
    exact_n = _closeness_length(horizon)
    delta = _DELTA_START_FRACTION * p0
    chosen = None
    for _ in range(_DELTA_HALVINGS):
        if marker == 0:
            k = math.floor(2.0 / delta) + 1
        else:
            k = math.floor(marker + marker_mu + 2.0 * (beta + delta) / delta) + 1
        k = max(k, math.floor(k_floor) + 1, marker)
        while mu_L_shift(law, marker, delta, k) <= 2.0:  # float-edge guard
            k += 1
        if k >= MAX_SUPPORT or (next_stage >= 2 and k * delta >= small):
            delta *= 0.5
            continue
        candidate = perturb(law, k, delta)
        # a shorter prefix is a function of the longer one, so its
        # distance is no larger: a screen over a 64th of the strings
        # rejects most candidates, with a margin for float error
        if tv_prefix_exact(law, candidate, max(exact_n - 6, 0)) > tv_threshold * (1.0 + 1e-9):
            delta *= 0.5
            continue
        tv_value = tv_prefix_exact(law, candidate, exact_n)
        if tv_value <= tv_threshold:
            chosen = (delta, k, candidate, tv_value)
            break
        delta *= 0.5
    if chosen is None:
        raise BudgetExhausted(
            "perturbation",
            f"no (k, delta) after {_DELTA_HALVINGS} halvings kept the "
            f"exact prefix TV at N={exact_n} under {tv_threshold:g} "
            f"(stage {next_stage})",
        )
    delta, k, law_next, tv_value = chosen

    audit = StageAudit(
        stage=next_stage,
        delta=delta,
        k=k,
        p0_before=p0,
        mean_after=law_next.mean,
        fooling_estimate=fooling.estimate,
        fooling_ci=(fooling.ci_low, fooling.ci_high),
        tv_exact_n=exact_n,
        tv_value=tv_value,
        # each completed or trailing run factor moves by at most delta
        # in one coordinate, two absolute terms per factor
        tv_analytic_bound=2.0 * delta * (exact_n + 1),
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
    cutoffs = [(age, bound, target - 1.0) for (age, bound), target in zip(windows, targets)]
    successes = _fooled(law, runner, config, cutoffs, reps, seed)[0]
    estimate = successes / reps
    low, high = _wilson(successes, reps)
    joint_threshold = 1.0 - sum(2.0 * _stage_bounds(i)[1] for i in range(1, j + 1))
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
    anchored_budget = sum(_stage_bounds(h)[0] for h in range(2, j + 1))
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
    for i, (_, horizon) in enumerate(windows, start=1):
        n_exact = _closeness_length(horizon)
        value = tv_prefix_exact(laws[i - 1], laws[i], n_exact)
        bound = _stage_bounds(i)[1]
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
