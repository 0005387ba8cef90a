"""Causal estimators of the residual run length in a binary path.

At selected positions (data-driven stopping times) each scheme emits
the empirical distribution of past residuals observed at the same run
age as the current position, together with its mean.  They differ only
in when they stop and which past occurrences they average:

  poly     fires when the age class holds at least t^(1-gamma)
           completed occurrences; averages the last ceil(t^(1-gamma)).
  log      fires when the age recurs below log2(t) and the fixed window
           (log2(t), 2^log2(t)) holds enough occurrences; averages the
           first ceil(2^(floor(log2 t)(1-gamma))) of them, never
           refreshed for a given (age, scale).
  offline  no stopping rule; reports at every position the average over
           all prior occurrences, or an undefined placeholder.
  eps      fires when ages below the current one account for at most
           t(1 - epsilon/2) positions; averages all prior occurrences.

poly and offline read their windows from one columnar scan of the
whole path (prefix_scan): the run age of every position, its rank in
its age class, and the class residuals with their prefix sums.  A
firing at t still reads no bit past t.  Its window holds only earlier
positions of the same age, and those lie in runs that completed before
t, because an age cannot recur inside the open run.  log and eps make a
single left-to-right pass over a RunIndex.

Estimates are exact rationals (integer sums over integer counts)
converted to float by a single division, so the emitted mean equals the
mean of the emitted distribution bit for bit.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .laws import LawError, gamma_limit
from .runindex import RunIndex

__all__ = [
    "SCHEME_TAGS",
    "SchemeConfig",
    "EstimateEvent",
    "OfflineEstimate",
    "PrefixScan",
    "EventColumns",
    "prefix_scan",
    "scheme_columns",
    "iter_poly",
    "iter_log",
    "iter_eps",
    "iter_offline",
    "run_poly",
    "run_log",
    "run_offline",
    "run_eps",
    "run_scheme",
    "ref_run",
]

SCHEME_TAGS = ("poly", "log", "offline", "eps")


@dataclass(frozen=True)
class SchemeConfig:
    """Per-run knobs. gamma drives poly/log, epsilon drives eps.

    declared_alpha is advisory: when the caller knows a power-moment
    exponent for the source, gamma outside the admissible range only
    warns, it never blocks the run.
    """

    gamma: float | None = None
    epsilon: float | None = None
    declared_alpha: float | None = None

    def __post_init__(self):
        if self.gamma is not None and not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.epsilon is not None and not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")


@dataclass(frozen=True, slots=True)
class EstimateEvent:
    """One firing: where it stopped, what it averaged, what it got.

    residual_counts is the exact histogram, ((value, count), ...)
    ascending by value, with counts summing to sample_count.  estimate
    is their mean.  window_start/window_end are the first and last
    positions the scheme read for this estimate, except for poly where
    window_end is the firing position itself (the window is anchored
    backward from it).
    """

    ordinal: int
    time: int
    run_age: int
    estimate: float
    residual_counts: tuple[tuple[int, int], ...]
    sample_count: int
    window_start: int
    window_end: int

    def distribution(self) -> dict[int, float]:
        m = self.sample_count
        return {value: count / m for value, count in self.residual_counts}


@dataclass(frozen=True, slots=True)
class OfflineEstimate:
    """Per-position report of the windowless scheme.

    sample_count == 0 means undefined (the age has not recurred);
    estimate is then None and residual_counts empty.
    """

    position: int
    run_age: int
    sample_count: int
    estimate: float | None
    residual_counts: tuple[tuple[int, int], ...]

    @property
    def defined(self) -> bool:
        return self.sample_count > 0

    def distribution(self) -> dict[int, float]:
        m = self.sample_count
        return {value: count / m for value, count in self.residual_counts}


def _as_positions(bits) -> Sequence[int]:
    # ndarray iteration yields numpy scalars; tolist() is cheaper and
    # gives plain ints downstream
    if isinstance(bits, np.ndarray):
        return bits.tolist()
    if isinstance(bits, (list, tuple)):
        return bits
    return list(bits)


class _Window:
    """Histogram of residuals[lo:hi] maintained under sliding ends.

    A window stays inside one age class.  It starts empty at ``start``,
    the lower end of its first window, so that alignment reads only the
    window itself.
    """

    __slots__ = ("lo", "hi", "counts", "rsum", "_snap", "_snap_key")

    def __init__(self, start: int = 0):
        self.lo = start
        self.hi = start
        self.counts: dict[int, int] = {}
        self.rsum = 0
        self._snap: tuple[tuple[int, int], ...] = ()
        self._snap_key = (start, start)

    def align(self, residuals, lo: int, hi: int):
        counts = self.counts
        while self.hi < hi:
            value = residuals[self.hi]
            counts[value] = counts.get(value, 0) + 1
            self.rsum += value
            self.hi += 1
        while self.hi > hi:
            self.hi -= 1
            value = residuals[self.hi]
            left = counts[value] - 1
            if left:
                counts[value] = left
            else:
                del counts[value]
            self.rsum -= value
        # lo can move either way: the prescribed width may grow faster
        # than the class gains occurrences
        while self.lo > lo:
            self.lo -= 1
            value = residuals[self.lo]
            counts[value] = counts.get(value, 0) + 1
            self.rsum += value
        while self.lo < lo:
            value = residuals[self.lo]
            left = counts[value] - 1
            if left:
                counts[value] = left
            else:
                del counts[value]
            self.rsum -= value
            self.lo += 1

    def snapshot(self) -> tuple[tuple[int, int], ...]:
        key = (self.lo, self.hi)
        if key != self._snap_key:
            self._snap = tuple(sorted(self.counts.items()))
            self._snap_key = key
        return self._snap


def _need(config: SchemeConfig, attr: str) -> float:
    value = getattr(config, attr)
    if value is None:
        raise ValueError(f"this scheme needs SchemeConfig.{attr}")
    return value


def _warn_gamma_poly(config: SchemeConfig):
    alpha = config.declared_alpha
    if alpha is None:
        return
    try:
        limit = gamma_limit(alpha)
    except LawError:
        warnings.warn(
            f"declared_alpha={alpha} admits no gamma (needs alpha > 2)",
            UserWarning,
            stacklevel=3,
        )
        return
    if config.gamma >= limit:
        warnings.warn(
            f"gamma={config.gamma} is not below min(1-2/alpha, 1/3)="
            f"{limit:.6g} for declared_alpha={alpha}",
            UserWarning,
            stacklevel=3,
        )


class PrefixScan(NamedTuple):
    """Prefix facts of a path from its first zero psi on, as columns.

    Row i of ``ages`` and ``rank`` is position psi + i: its run age, and
    how many earlier positions had that age.  Those earlier positions
    all lie in completed runs, since ages only grow inside a run.

    The same positions in class order, by (age, position), give
    ``order`` (their row), ``residuals`` (the ones their run still had
    to come; 0 in the open run, where it is unknown) and the exact
    prefix sums ``prefix``.  Age class a holds class-order entries
    ``starts[a]:starts[a + 1]``, completed occurrences first.
    """

    psi: int
    ages: np.ndarray
    rank: np.ndarray
    order: np.ndarray
    residuals: np.ndarray
    prefix: np.ndarray
    starts: np.ndarray


def prefix_scan(bits) -> PrefixScan:
    """Scan a whole path at once.  A path without a zero has no rows."""
    # array methods rather than numpy functions: on the short paths of
    # the adversary's Monte Carlo the call overhead is the cost
    arr = bits if isinstance(bits, np.ndarray) else np.asarray(_as_positions(bits))
    zeros = (arr == 0).nonzero()[0]
    if not zeros.size:
        none = np.zeros(0, dtype=np.intp)
        return PrefixScan(arr.size, none, none, none, none, np.zeros(1, dtype=np.int64), none)
    psi = int(zeros[0])
    size = arr.size - psi
    ends = np.empty(zeros.size, dtype=zeros.dtype)  # one past each run
    ends[:-1] = zeros[1:]
    ends[-1] = arr.size
    runs = ends - zeros  # positions per run, its zero included
    ages = np.arange(psi, arr.size) - zeros.repeat(runs)
    residuals = (runs - 1).repeat(runs) - ages
    residuals[zeros[-1] - psi :] = 0
    order = ages.argsort(kind="stable")
    sizes = np.bincount(ages)
    starts = np.zeros(sizes.size + 1, dtype=sizes.dtype)
    sizes.cumsum(out=starts[1:])
    rank = np.empty_like(ages)
    rank[order] = np.arange(size) - starts[:-1].repeat(sizes)
    # a leading 0 makes prefix[k] the sum of the first k residuals
    padded = np.zeros(size + 1, dtype=np.int64)
    padded[1:] = residuals[order]
    return PrefixScan(psi, ages, rank, order, padded[1:], padded.cumsum(), starts)


class EventColumns(NamedTuple):
    """Estimates of poly or offline on one path, one row per estimate.

    Row i averaged ``residuals[lo[i]:hi[i]]``, the class-ordered
    residuals of the scan: ``m[i]`` values whose exact total is
    ``sum[i]``.
    """

    residuals: np.ndarray
    time: np.ndarray
    age: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    m: np.ndarray
    sum: np.ndarray


def _columns(scan: PrefixScan, rows: np.ndarray, m: np.ndarray, count: np.ndarray) -> EventColumns:
    """Rows whose window is entries count - m .. count of their class."""
    age = scan.ages[rows]
    hi = scan.starts[age]
    hi += count
    lo = hi - m
    total = scan.prefix[hi]
    total -= scan.prefix[lo]
    rows += scan.psi
    return EventColumns(scan.residuals, rows, age, lo, hi, m, total)


@lru_cache(maxsize=4)
def _window_sizes(n: int, exponent: float) -> np.ndarray:
    """math.ceil(t ** exponent) for t in 0..n-1, read-only.

    numpy's power may differ from Python's in the last place.  That
    moves the ceiling only where t ** exponent lies next to an integer,
    so exactly those entries are recomputed with Python's pow.
    """
    power = np.power(np.arange(n, dtype=np.float64), exponent)
    sizes = np.ceil(power).astype(np.intp)
    near = np.flatnonzero(np.abs(power - np.rint(power)) <= power * 1e-9)
    for t in near.tolist():
        sizes[t] = math.ceil(t**exponent)
    sizes.setflags(write=False)
    return sizes


def _poly_columns(scan: PrefixScan, gamma: float) -> EventColumns:
    """poly fires at t > psi when its age class holds at least
    t^(1-gamma) completed occurrences.  The rank is an integer, so that
    means rank >= m = ceil(t^(1-gamma)); it then averages the last m."""
    psi = scan.psi
    sizes = _window_sizes(psi + scan.rank.size, 1.0 - gamma)[psi:]
    rows = (scan.rank[1:] >= sizes[1:]).nonzero()[0]
    rows += 1
    return _columns(scan, rows, sizes[rows], scan.rank[rows])


def _offline_columns(scan: PrefixScan) -> EventColumns:
    """offline averages the whole completed class; rank 0 is undefined
    and has no row."""
    rows = scan.rank.nonzero()[0]
    count = scan.rank[rows]
    return _columns(scan, rows, count, count)


def scheme_columns(tag: str, bits, config: SchemeConfig) -> EventColumns:
    """Columns of a columnar scheme (poly or offline) on a whole path."""
    if tag == "poly":
        gamma = _need(config, "gamma")
        _warn_gamma_poly(config)
        return _poly_columns(prefix_scan(bits), gamma)
    if tag == "offline":
        return _offline_columns(prefix_scan(bits))
    raise ValueError(f"scheme {tag!r} has no columnar form; expected 'poly' or 'offline'")


def iter_poly(bits, config: SchemeConfig) -> Iterator[EstimateEvent]:
    gamma = _need(config, "gamma")
    _warn_gamma_poly(config)
    scan = prefix_scan(bits)
    return _poly_events(scan, _poly_columns(scan, gamma))


def _poly_events(scan: PrefixScan, cols: EventColumns) -> Iterator[EstimateEvent]:
    # one incremental histogram per age class: rebuilding each event's
    # histogram from its window costs more than the scan on short paths
    residuals = scan.residuals.tolist()
    firsts = (scan.order[cols.lo] + scan.psi).tolist()
    windows: dict[int, _Window] = {}
    rows = zip(cols.time.tolist(), cols.age.tolist(), cols.lo.tolist(), cols.hi.tolist(), firsts)
    for ordinal, (t, tau, lo, hi, first) in enumerate(rows, 1):
        window = windows.get(tau)
        if window is None:
            window = windows[tau] = _Window(lo)
        window.align(residuals, lo, hi)
        m = hi - lo
        yield EstimateEvent(
            ordinal=ordinal,
            time=t,
            run_age=tau,
            estimate=window.rsum / m,
            residual_counts=window.snapshot(),
            sample_count=m,
            window_start=first,
            window_end=t,
        )


def iter_log(bits, config: SchemeConfig) -> Iterator[EstimateEvent]:
    gamma = _need(config, "gamma")
    if gamma >= 1.0 / 3.0:
        warnings.warn(
            f"gamma={gamma} is not below 1/3; the log scheme's guarantees "
            "assume gamma < 1/3",
            UserWarning,
            stacklevel=2,
        )
    return _iter_log(_as_positions(bits), gamma)


def _iter_log(bits, gamma: float) -> Iterator[EstimateEvent]:
    index = RunIndex(track_ages=False)
    feed = index.feed
    classes = index.classes
    first_seen = index.first_seen
    exponent = 1.0 - gamma
    # (age, scale) -> finished event payload; the first c occurrences in
    # a scale window never change once present, so one computation serves
    # every later firing at that key
    cache: dict[tuple[int, int], tuple] = {}
    ordinal = 0
    for t, bit in enumerate(bits):
        feed(bit)
        psi = index.psi
        if psi is None or t <= psi:
            continue
        tau = index.current_tau
        first = first_seen.get(tau)
        # recurrence strictly below log2(t); for integer positions that
        # is exactly 2^first < t, guarded to keep the shift small
        if first is None or first >= t.bit_length() or (1 << first) >= t:
            continue
        scale = t.bit_length() - 1
        key = (tau, scale)
        payload = cache.get(key)
        if payload is None:
            log = classes.get(tau)
            if log is None:
                continue
            positions = log.positions
            start = bisect_right(positions, scale)
            stop = bisect_left(positions, 1 << scale, start)
            needed = math.ceil(2.0 ** (scale * exponent))
            if stop - start < needed:
                continue
            used_stop = start + needed
            counts: dict[int, int] = {}
            for value in log.residuals[start:used_stop]:
                counts[value] = counts.get(value, 0) + 1
            payload = (
                log.range_sum(start, used_stop) / needed,
                tuple(sorted(counts.items())),
                needed,
                positions[start],
                positions[used_stop - 1],
            )
            cache[key] = payload
        ordinal += 1
        yield EstimateEvent(
            ordinal=ordinal,
            time=t,
            run_age=tau,
            estimate=payload[0],
            residual_counts=payload[1],
            sample_count=payload[2],
            window_start=payload[3],
            window_end=payload[4],
        )


def iter_eps(bits, config: SchemeConfig) -> Iterator[EstimateEvent]:
    epsilon = _need(config, "epsilon")
    return _iter_eps(_as_positions(bits), epsilon)


def _iter_eps(bits, epsilon: float) -> Iterator[EstimateEvent]:
    index = RunIndex()
    feed = index.feed
    classes = index.classes
    count_tau_less = index.count_tau_less
    factor = 1.0 - 0.5 * epsilon
    windows: dict[int, _Window] = {}
    ordinal = 0
    for t, bit in enumerate(bits):
        feed(bit)
        psi = index.psi
        if psi is None or t <= psi:
            continue
        tau = index.current_tau
        if count_tau_less(tau) > t * factor:
            continue
        log = classes.get(tau)
        if log is None:
            continue
        count = len(log.positions)
        if count == 0:
            continue  # fired, but there is nothing to average yet
        window = windows.get(tau)
        if window is None:
            window = windows[tau] = _Window()
        window.align(log.residuals, 0, count)
        ordinal += 1
        yield EstimateEvent(
            ordinal=ordinal,
            time=t,
            run_age=tau,
            estimate=window.rsum / count,
            residual_counts=window.snapshot(),
            sample_count=count,
            window_start=psi,
            window_end=t,
        )


def run_poly(bits, config: SchemeConfig) -> list[EstimateEvent]:
    return list(iter_poly(bits, config))


def run_log(bits, config: SchemeConfig) -> list[EstimateEvent]:
    return list(iter_log(bits, config))


def run_eps(bits, config: SchemeConfig) -> list[EstimateEvent]:
    return list(iter_eps(bits, config))


def iter_offline(bits) -> Iterator[OfflineEstimate]:
    """Windowless per-position estimates, one for every position >= psi."""
    return _offline_rows(prefix_scan(bits))


def _offline_rows(scan: PrefixScan) -> Iterator[OfflineEstimate]:
    residuals = scan.residuals.tolist()
    starts = scan.starts.tolist()
    windows: dict[int, _Window] = {}
    rows = zip(scan.ages.tolist(), scan.rank.tolist())
    for position, (tau, count) in enumerate(rows, scan.psi):
        if count == 0:
            yield OfflineEstimate(position, tau, 0, None, ())
            continue
        lo = starts[tau]
        window = windows.get(tau)
        if window is None:
            window = windows[tau] = _Window(lo)
        window.align(residuals, lo, lo + count)
        yield OfflineEstimate(
            position=position,
            run_age=tau,
            sample_count=count,
            estimate=window.rsum / count,
            residual_counts=window.snapshot(),
        )


def run_offline(bits) -> list[OfflineEstimate]:
    return list(iter_offline(bits))


def run_scheme(tag: str, bits, config: SchemeConfig):
    """Dispatch by tag; offline returns OfflineEstimates, the rest events."""
    if tag == "poly":
        return run_poly(bits, config)
    if tag == "log":
        return run_log(bits, config)
    if tag == "offline":
        return run_offline(bits)
    if tag == "eps":
        return run_eps(bits, config)
    raise ValueError(f"unknown scheme tag {tag!r}; expected one of {SCHEME_TAGS}")


# --- quadratic reference ---------------------------------------------------
#
# ref_run re-derives every firing from the prefix bits[0..t] alone with
# numpy primitives: no state survives from one position to the next, so
# agreement with the streaming pass cross-validates both.  Division is
# the same exact int/int everywhere, which is what makes "byte
# identical" a meaningful claim for the floats.


def _ref_histogram(residuals: np.ndarray) -> tuple[tuple[int, int], ...]:
    values, counts = np.unique(residuals, return_counts=True)
    return tuple(zip(values.tolist(), counts.tolist()))


def _ref_matches(zeros_t, psi: int, last: int, tau: int):
    """Positions in [psi, last) at age tau, with their residuals."""
    completed = np.arange(psi, last)
    ages = completed - zeros_t[np.searchsorted(zeros_t, completed, "right") - 1]
    at_age = completed[ages == tau]
    residuals = zeros_t[np.searchsorted(zeros_t, at_age, "right")] - at_age - 1
    return at_age, residuals


def ref_run(scheme: str, bits, config: SchemeConfig):
    """Slow full-prefix-rescan twin of run_scheme, same output exactly."""
    if scheme not in SCHEME_TAGS:
        raise ValueError(f"unknown scheme tag {scheme!r}; expected one of {SCHEME_TAGS}")
    arr = np.asarray(_as_positions(bits), dtype=np.int64)
    zeros = np.flatnonzero(arr == 0)
    out: list = []
    if zeros.size == 0:
        return out
    psi = int(zeros[0])
    if scheme == "poly":
        gamma = _need(config, "gamma")
        _warn_gamma_poly(config)
        exponent = 1.0 - gamma
    elif scheme == "log":
        gamma = _need(config, "gamma")
        exponent = 1.0 - gamma
    elif scheme == "eps":
        factor = 1.0 - 0.5 * _need(config, "epsilon")
    ordinal = 0
    for t in range(psi if scheme == "offline" else psi + 1, arr.size):
        zcount = int(np.searchsorted(zeros, t, "right"))
        zeros_t = zeros[:zcount]
        last = int(zeros_t[-1])
        tau = t - last

        if scheme == "offline":
            at_age, residuals = _ref_matches(zeros_t, psi, last, tau)
            if at_age.size == 0:
                out.append(OfflineEstimate(t, tau, 0, None, ()))
            else:
                out.append(
                    OfflineEstimate(
                        position=t,
                        run_age=tau,
                        sample_count=int(at_age.size),
                        estimate=int(residuals.sum()) / int(at_age.size),
                        residual_counts=_ref_histogram(residuals),
                    )
                )
            continue

        if scheme == "poly":
            at_age, residuals = _ref_matches(zeros_t, psi, last, tau)
            count = int(at_age.size)
            threshold = t**exponent
            if count < threshold:
                continue
            m = math.ceil(threshold)
            used = residuals[count - m :]
            ordinal += 1
            out.append(
                EstimateEvent(
                    ordinal=ordinal,
                    time=t,
                    run_age=tau,
                    estimate=int(used.sum()) / m,
                    residual_counts=_ref_histogram(used),
                    sample_count=m,
                    window_start=int(at_age[count - m]),
                    window_end=t,
                )
            )
        elif scheme == "log":
            # recurrence of the age strictly below log2(t)
            low_stop = (t - 1).bit_length() - 1  # largest i with 2^i < t
            if low_stop < psi + 1:
                continue
            low = np.arange(psi + 1, low_stop + 1)
            low_ages = low - zeros_t[np.searchsorted(zeros_t, low, "right") - 1]
            if not bool(np.any(low_ages == tau)):
                continue
            scale = t.bit_length() - 1
            at_age, residuals = _ref_matches(zeros_t, psi, last, tau)
            inside = (at_age > scale) & (at_age < (1 << scale))
            wpos = at_age[inside]
            needed = math.ceil(2.0 ** (scale * exponent))
            if int(wpos.size) < needed:
                continue
            used = residuals[inside][:needed]
            ordinal += 1
            out.append(
                EstimateEvent(
                    ordinal=ordinal,
                    time=t,
                    run_age=tau,
                    estimate=int(used.sum()) / needed,
                    residual_counts=_ref_histogram(used),
                    sample_count=needed,
                    window_start=int(wpos[0]),
                    window_end=int(wpos[needed - 1]),
                )
            )
        else:  # eps
            everyone = np.arange(psi, t + 1)
            ages = everyone - zeros_t[np.searchsorted(zeros_t, everyone, "right") - 1]
            if int((ages < tau).sum()) > t * factor:
                continue
            at_age, residuals = _ref_matches(zeros_t, psi, last, tau)
            count = int(at_age.size)
            if count == 0:
                continue
            ordinal += 1
            out.append(
                EstimateEvent(
                    ordinal=ordinal,
                    time=t,
                    run_age=tau,
                    estimate=int(residuals.sum()) / count,
                    residual_counts=_ref_histogram(residuals),
                    sample_count=count,
                    window_start=psi,
                    window_end=t,
                )
            )
    return out
