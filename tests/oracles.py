"""Reference implementations that the tests compare the package with.

The package makes estimates one way, with the columnar engine
(schemes.prefix_scan and the firing rules on its columns).  ref_run
re-derives every estimate position by position, by a quadratic rescan
of each path's run ages and next zeros, and must equal run_scheme
event by event; it reads a tag, its parameter and the path through
schemes._setting and schemes._one_path, so the two refuse and warn
alike.  selfcheck pins the sha256 of its estimates on the selftest's
cases, so an install without the tests still checks the engine.

The package scores estimates one way, with the columnar scorer
(evaluation._Scorer.score_columns).  score_events scores each event's
histogram by a plain loop over its values, against the law's own
residual_mean and residual_law's masses, by plain Python division, and
with nothing of the scorer's; good_index_density recounts offline's
good-index density from those scores, and firing_density counts
stopping times.  The columnar
records and summaries must equal them bit for bit.  The law helpers
restate closed forms the package computes another way: tv_l1 the L1
distance, stationary_state_law the masses whose cumulative sum is
RenewalLaw.stationary_cdf, and markov_tail_bound_holds the Markov
bound that conditioning windows rest on.
"""

from __future__ import annotations

import math
from itertools import takewhile
from typing import Iterable

import numpy as np

from renewalbench.evaluation import ScoredRecord
from renewalbench.laws import LawError, RenewalLaw, residual_mean
from renewalbench.schemes import EstimateEvent, OfflineEstimate, SchemeConfig, _one_path, _setting

# Tolerance for identities that hold exactly up to float rounding
# (single divisions, mass moved between two indices).
PROB_TOL = 1e-12


def tv(law: RenewalLaw, counts: tuple[tuple[int, int], ...], m: int, age: int, total: float) -> float:
    """The L1 distance between the histogram `counts` of m residuals and
    the law's residual law at `age`, whose masses sum to `total`, with
    the scorer's float operations in the scorer's order."""
    # q is the quotient residual_law computes, as score_columns reads it
    probs, tail = law.probs, law.tails[age]
    size = len(probs) - age
    acc = 0.0
    seen = 0.0
    for value, count in counts:
        q = probs[age + value] / tail if value < size else 0.0
        acc += abs(count / m - q)
        seen += q
    # mass of the true law at values the histogram never hit
    return acc + max(0.0, total - seen)


def score_events(
    law: RenewalLaw,
    events: Iterable[EstimateEvent | OfflineEstimate],
    scheme: str = "",
    replicate: int = 0,
) -> list[ScoredRecord]:
    """Per-event errors against the law; order-independent, pure.

    Offline rows are accepted too; undefined ones are skipped (they
    carry no estimate to score).
    """
    out = []
    totals = {}  # by age: the fsum of the residual law's masses
    for event in events:
        if isinstance(event, OfflineEstimate):
            if not event.defined:
                continue
            ordinal, time = event.position, event.position
        else:
            ordinal, time = event.ordinal, event.time
        age = event.run_age
        theta = residual_mean(law, age)
        if age not in totals:
            # residual_law's masses, by the same plain division
            tail = law.tail(age)
            totals[age] = math.fsum(p / tail for p in law.probs[age:])
        estimate = event.estimate
        out.append(
            ScoredRecord(
                replicate=replicate,
                scheme=scheme,
                ordinal=ordinal,
                time=time,
                run_age=age,
                estimate=estimate,
                theta=theta,
                abs_err=abs(estimate - theta),
                tv=tv(law, event.residual_counts, event.sample_count, age, totals[age]),
            )
        )
    return out


def firing_density(events, N: int) -> float:
    """Stopping times up to N per unit of path, the Theorem 1 Eq. (1) probe."""
    return sum(1 for e in events if e.time <= N) / N


def good_index_density(
    estimates: Iterable[OfflineEstimate],
    law: RenewalLaw,
    tolerance: float,
    N: int,
) -> float:
    """Fraction of positions 0..N whose offline estimate exists and is
    within tolerance in both mean and L1 distance.  Positions with no
    row at all (before the first zero, or beyond the path) count as bad.
    """
    rows = takewhile(lambda row: row.position <= N, estimates)
    records = score_events(law, rows)
    return sum(r.abs_err <= tolerance and r.tv <= tolerance for r in records) / (N + 1)


def tv_l1(a, b) -> float:
    """Variation distance in L1 form: sum of |a_l - b_l|, range [0, 2].

    Accepts plain mass sequences; shorter ones are zero-padded.  Both
    inputs must be (sub)probability vectors.
    """
    n = max(len(a), len(b))
    return math.fsum(
        abs((a[l] if l < len(a) else 0.0) - (b[l] if l < len(b) else 0.0))
        for l in range(n)
    )


def stationary_state_law(law: RenewalLaw) -> tuple[float, ...]:
    """Stationary distribution of the run-age chain.

    State ``i`` (the current run holds exactly ``i`` ones so far) has
    mass ``tail(i) / (1 + mean)``; the masses sum to one because the
    tails sum to ``1 + mean``.
    """
    scale = 1.0 / (1.0 + law.mean)
    return tuple(law.tails[i] * scale for i in range(law.support))


def markov_tail_bound_holds(law: RenewalLaw, age: int, horizon: int) -> bool:
    """Check the Markov bound on the residual run outliving its mean.

    For ``m = ceil(residual_mean(age) * log2(horizon))`` this tests
    ``tail(age + m) / tail(age) <= 1 / log2(horizon)``.  The inequality
    is how long conditioning windows are justified; it is a plain
    Markov bound, so it holds for every law.
    """
    if horizon < 2:
        raise LawError(f"horizon must be >= 2, got {horizon}")
    lg = math.log2(horizon)
    mu = residual_mean(law, age)
    # Markov needs a positive threshold; mu can hit 0 at the truncated
    # support's edge, where the residual is surely 0 and any m >= 1 works.
    m = max(1, math.ceil(mu * lg))
    return law.tail(age + m) / law.tail(age) <= 1.0 / lg + PROB_TOL


# --- quadratic reference ---------------------------------------------------
#
# ref_run re-derives every firing with numpy primitives and no scan
# column.  It builds two arrays once per path: age[i], the distance from
# i back to the last zero at or before it, and next_zero[i], the first
# zero after i.  At position t it reads only indices <= t: age[i]
# depends on bits <= i alone, and next_zero is read only at positions
# of completed runs, i < last <= t, where the next zero is at most
# last.  Everything else (the age class, the window, the stopping rule)
# is rescanned from those arrays at every t, so agreement with the
# columnar pass cross-validates both.  Division is the same exact
# int/int everywhere, which is what makes "byte identical" a meaningful
# claim for the floats.


def _ref_histogram(residuals: np.ndarray) -> tuple[tuple[int, int], ...]:
    values, counts = np.unique(residuals, return_counts=True)
    return tuple(zip(values.tolist(), counts.tolist()))


def ref_run(scheme: str, bits, config: SchemeConfig):
    """Slow per-position rescan twin of run_scheme, same output exactly."""
    arr = _one_path(bits)
    parameter = _setting(scheme, config)
    zeros = np.flatnonzero(arr == 0)
    out: list = []
    if zeros.size == 0:
        return out
    psi = int(zeros[0])
    positions = np.arange(arr.size)
    following = np.searchsorted(zeros, positions, "right")
    age = positions - zeros[np.maximum(following - 1, 0)]  # read from psi on
    next_zero = zeros[np.minimum(following, zeros.size - 1)]  # read below last
    ordinal = 0
    for t in range(psi if scheme == "offline" else psi + 1, arr.size):
        tau = int(age[t])
        last = t - tau
        at_age = psi + np.flatnonzero(age[psi:last] == tau)
        count = at_age.size
        if scheme == "offline":
            residuals = next_zero[at_age] - at_age - 1
            estimate = int(residuals.sum()) / count if count else None
            out.append(OfflineEstimate(t, tau, count, estimate, _ref_histogram(residuals)))
            continue
        if scheme == "poly":
            threshold = t ** (1.0 - parameter)
            if count < threshold:
                continue
            used = at_age[count - math.ceil(threshold) :]
            start, end = used[0], t
        elif scheme == "log":
            # the age must recur strictly below log2(t): 2^i < t
            low_stop = (t - 1).bit_length() - 1
            if not np.any(age[psi + 1 : low_stop + 1] == tau):
                continue
            scale = t.bit_length() - 1
            needed = math.ceil(2.0 ** (scale * (1.0 - parameter)))
            used = at_age[(at_age > scale) & (at_age < (1 << scale))][:needed]
            if used.size < needed:
                continue
            start, end = used[0], used[-1]
        else:  # eps
            if int((age[psi : t + 1] < tau).sum()) > t * (1.0 - 0.5 * parameter) or count == 0:
                continue
            used, start, end = at_age, psi, t
        residuals = next_zero[used] - used - 1
        ordinal += 1
        out.append(
            EstimateEvent(
                ordinal=ordinal,
                time=t,
                run_age=tau,
                estimate=int(residuals.sum()) / used.size,
                residual_counts=_ref_histogram(residuals),
                sample_count=used.size,
                window_start=int(start),
                window_end=int(end),
            )
        )
    return out
