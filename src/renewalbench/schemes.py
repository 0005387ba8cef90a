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

A tag and its parameter are decided in one place, _setting: it rejects
an unknown tag, reads gamma (poly, log) or epsilon (eps) from the
SchemeConfig, and warns where the scheme's guarantees do not hold.
Every entry point, the reference ref_run included, starts there.

Every scheme reads its windows from one columnar scan of the whole
path (prefix_scan): the run age of every position, its rank in its age
class, and the class residuals with their prefix sums.  A firing at t
still reads no bit past t.  Its window holds only earlier positions of
the same age, and those lie in runs that completed before t, because an
age cannot recur inside the open run.  eps's occupancy count is a
prefix fact too: the positions of [psi, t] below the current age are
the open run's own, plus, at each of its ages, that position's rank.

The scan and the firing rules also take a block of equal-length paths,
the rows of a 2-D array, with age classes keyed by (path, age); one
path is a block of one.  Callers that run many paths, like the
adversary's Monte Carlo, pass blocks of at most _BLOCK_BITS = 2^16
positions (a longer path is a block of its own).  The scan holds 48
bytes per position (about 56 in a block of several paths, which keeps
each row's class too).  Building a scheme's columns for every row peaks
at 80-116 bytes per position (tracemalloc, geometric paths, one 1M-bit
path and a block of 1000 65-bit paths: poly 80-110, log 101-116, eps
102-107, offline 104-107), so a full block takes about 7 MB.  A JSON
report reads only each path's final decile, and builds columns only
for those rows once every firing is found: poly 73, log 86 and eps 65
bytes per position on the 1M-bit path.

Each estimate's histogram is counted from the same columns:
window_counts walks the residual values in ascending order and counts
each value over the contiguous slice of windows that can hold it.  The
scorer sums those counts directly; the event adapters take rows a block
at a time, count each distinct window of the block once, and turn the
counts into the residual_counts tuples as the events are drawn.

Estimates are exact rationals (integer sums over integer counts)
converted to float by a single division, so the emitted mean equals the
mean of the emitted distribution bit for bit.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, tee
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .laws import LawError, _is_real, _plain, gamma_limit

__all__ = [
    "SCHEME_TAGS",
    "SchemeConfig",
    "EstimateEvent",
    "OfflineEstimate",
    "PrefixScan",
    "EventColumns",
    "prefix_scan",
    "scheme_columns",
    "iter_scheme",
    "run_scheme",
    "ref_run",
]

# Most positions a caller puts in one block of paths.  A block of
# several paths then has fewer than 2^16 classes (path, age), whose keys
# sort as 16-bit integers.
_BLOCK_BITS = 1 << 16


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
        for name in ("gamma", "epsilon", "declared_alpha"):
            value = getattr(self, name)
            if value is not None and not _is_real(value):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            object.__setattr__(self, name, _plain(value))
        if self.gamma is not None and not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.epsilon is not None and not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")


class EstimateEvent(NamedTuple):
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


class OfflineEstimate(NamedTuple):
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


def _as_path(bits) -> np.ndarray:
    """The one input rule of every entry point: an ndarray is read as it
    is, and any other sequence or iterable of bits, a generator
    included, is read once into one."""
    return bits if isinstance(bits, np.ndarray) else np.array(list(bits))


def _one_path(bits) -> np.ndarray:
    """_as_path for iter_scheme and ref_run, which take one path: a
    block of paths goes to prefix_scan or scheme_columns."""
    arr = _as_path(bits)
    if arr.ndim != 1:
        raise ValueError(f"expected one path of bits, got an array of shape {arr.shape}")
    return arr


_PACKAGE = os.path.dirname(__file__) + os.sep


def _warn(message: str) -> None:
    """A UserWarning located at the first frame outside this package,
    whichever entry point the caller went through."""
    frame, level = sys._getframe(), 1
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, UserWarning, stacklevel=level)


def _warn_gamma_poly(config: SchemeConfig):
    alpha = config.declared_alpha
    if alpha is None:
        return
    try:
        limit = gamma_limit(alpha)
    except LawError:
        _warn(f"declared_alpha={alpha} admits no gamma (needs alpha > 2)")
        return
    if config.gamma >= limit:
        _warn(f"gamma={config.gamma} is not below min(1-2/alpha, 1/3)={limit:.6g} for declared_alpha={alpha}")


def _setting(tag: str, config: SchemeConfig) -> float | None:
    """The parameter the scheme of this tag reads: gamma for poly and
    log, epsilon for eps, none for offline.  Raises for an unknown tag or
    a missing parameter, and warns where the scheme's guarantees do not
    hold for the config."""
    if tag not in _BUILDERS:
        raise ValueError(f"unknown scheme tag {tag!r}; expected one of {SCHEME_TAGS}")
    if tag == "offline":
        return None
    attr = "epsilon" if tag == "eps" else "gamma"
    value = getattr(config, attr)
    if value is None:
        raise ValueError(f"this scheme needs SchemeConfig.{attr}")
    if tag == "poly":
        _warn_gamma_poly(config)
    elif tag == "log" and value >= 1.0 / 3.0:
        _warn(f"gamma={value} is not below 1/3; the log scheme's guarantees assume gamma < 1/3")
    return value


def _stable_order(keys: np.ndarray, dtype) -> np.ndarray:
    """Stable argsort of nonnegative integers as `dtype` indices; numpy
    radix-sorts 16-bit keys, several times faster than its merge sort
    of 64-bit ones."""
    if keys.max(initial=0) < 1 << 16:
        keys = keys.astype(np.uint16)
    return keys.argsort(kind="stable").astype(dtype, copy=False)


class PrefixScan(NamedTuple):
    """Prefix facts of a block of equal-length paths, as columns.

    The scan rows are the positions of each path from its first zero on,
    path after path.  Path p has its first zero at ``psi[p]`` (its
    ``length`` if it has none) and the rows ``first[p]:first[p + 1]``;
    ``time`` is each row's position in its path.  Row i's ``ages`` and
    ``rank`` are its run age and how many earlier positions of its path
    had that age.  Those all lie in completed runs, since ages only grow
    inside a run.

    Age classes are keyed by (path, age): row i is in class
    ``classes[i] = p * width + ages[i]``.  The rows in class order, by
    (path, age, position), give ``order`` (their row), ``residuals``
    (the ones their run still had to come; 0 in the open run, where it
    is unknown) and the exact prefix sums ``prefix``.  Class c holds class-order entries ``starts[c]:starts[c + 1]``,
    completed occurrences first.  One path is a block of one, whose
    classes are its ages.
    """

    length: int
    width: int
    psi: np.ndarray
    first: np.ndarray
    time: np.ndarray
    ages: np.ndarray
    classes: np.ndarray
    rank: np.ndarray
    order: np.ndarray
    residuals: np.ndarray
    prefix: np.ndarray
    starts: np.ndarray


def prefix_scan(bits) -> PrefixScan:
    """Scan one path, or a block of paths as the rows of a 2-D array."""
    # array methods rather than numpy functions: on the short paths of
    # the adversary's Monte Carlo the call overhead is the cost
    arr = _as_path(bits)
    paths, length = arr.shape if arr.ndim == 2 else (1, arr.size)
    zeros = (arr.reshape(-1) == 0).nonzero()[0]
    path = zeros // length if zeros.size else zeros
    # one past each run: the next zero, or the end of its path, where
    # the run is still open
    ends = path + 1
    ends *= length
    open_ = np.ones(zeros.size, dtype=bool)
    np.greater_equal(zeros[1:], ends[:-1], out=open_[:-1])
    np.minimum(ends[:-1], zeros[1:], out=ends[:-1])
    runs = ends - zeros  # positions per run, its zero included
    del ends
    # scan row of each run's zero, and the total
    bounds = np.zeros(runs.size + 1, dtype=np.intp)
    runs.cumsum(out=bounds[1:])
    size = int(bounds[-1])
    first = bounds[path.searchsorted(np.arange(paths + 1))]
    psi = length - (first[1:] - first[:-1])
    ages = np.arange(size)
    ages -= bounds[:-1].repeat(runs)
    del bounds
    zeros -= path * length
    time = zeros.repeat(runs)
    time += ages
    del zeros
    # a completed run of k ones leaves k - age to come; the open run at
    # the end of each path gets -1 - age, clipped to 0
    left = runs - 1
    left[open_] = -1
    residuals = left.repeat(runs)
    del left, open_
    residuals -= ages
    np.maximum(residuals, 0, out=residuals)
    width = int(runs.max(initial=0))  # ages run 0..width - 1
    if paths == 1:
        classes = ages
    else:
        path *= width
        classes = path.repeat(runs)
        classes += ages
    del path, runs
    order = _stable_order(classes, np.intp)
    sizes = np.bincount(classes, minlength=paths * width)
    starts = np.zeros(sizes.size + 1, dtype=sizes.dtype)
    sizes.cumsum(out=starts[1:])
    within = np.arange(size)
    within -= starts[:-1].repeat(sizes)
    rank = np.empty_like(ages)
    rank[order] = within
    del within
    # a leading 0 makes prefix[k] the sum of the first k residuals
    padded = np.zeros(size + 1, dtype=np.int64)
    # "clip" (the indices are valid) writes in place; "raise" buffers
    residuals.take(order, out=padded[1:], mode="clip")
    del residuals
    return PrefixScan(length, width, psi, first, time, ages, classes, rank, order, padded[1:], padded.cumsum(), starts)


class EventColumns(NamedTuple):
    """Estimates of one scheme on a path or a block, one row per estimate.

    Path p of the block has rows ``first[p]:first[p + 1]``, in time
    order.  Row i averaged ``residuals[lo[i]:hi[i]]``, the class-ordered
    residuals of the scan: ``m[i]`` values whose exact total is
    ``sum[i]``.
    """

    residuals: np.ndarray
    first: np.ndarray
    time: np.ndarray
    age: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    m: np.ndarray
    sum: np.ndarray


def _columns(scan: PrefixScan, rows: np.ndarray, age: np.ndarray, lo: np.ndarray, m: np.ndarray) -> EventColumns:
    """Ascending scan rows whose window is the m class-order entries from lo on."""
    hi = lo + m
    total = scan.prefix[hi]
    total -= scan.prefix[lo]
    return EventColumns(scan.residuals, rows.searchsorted(scan.first), scan.time[rows], age, lo, hi, m, total)


def _cut(rows: np.ndarray, keep) -> tuple[int, np.ndarray]:
    """How many rows fired, and the firing rows whose columns are built:
    the tail that keep returns from all of them, or all without keep."""
    return rows.size, rows if keep is None else keep(rows)


def window_counts(residuals: np.ndarray, blocks: Iterable[tuple[np.ndarray, np.ndarray]]) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """Value-major histograms of windows residuals[begins[i]:ends[i]].

    The windows come in blocks of (begins, ends), each grouped by age
    class.  For each block k in turn and each residual value in
    ascending order, yields (k, value, first, counts): counts[j] is how
    many times window first + j of the block holds the value, over the
    slice of windows that can hold it.  Windows of the slice that miss
    the value count 0.

    A window lies inside its age class, so the windows of a grouped
    block that can hold an entry in [first, last] are one slice: from
    the first that reaches past first up to the last that starts at or
    before last.  A value's step reads only that slice, so the work
    follows the (window, value) pairs counted, not the number of
    distinct values times the windows: on a heavy-tailed path one long
    run adds hundreds of values that only a few windows hold.
    """
    # Indices that are only bisected are kept in 32 bits where they fit.
    # begins and ends stay native: they index the running count, and
    # numpy widens narrower indices on every gather.
    index = np.int32 if residuals.size < 1 << 31 else np.intp
    # class-order entries of each value, ascending
    by_value = _stable_order(residuals, index)
    bounds = np.zeros(int(residuals.max(initial=0)) + 2, dtype=np.intp)
    np.bincount(residuals, minlength=bounds.size - 1).cumsum(out=bounds[1:])
    values = (bounds[1:] > bounds[:-1]).nonzero()[0]
    lowest = by_value[bounds[values]]
    highest = by_value[bounds[values + 1] - 1]
    # running count of one value over the residuals a slice spans
    running = np.zeros(residuals.size + 1, dtype=np.int32)
    for block, (begins, ends) in enumerate(blocks):
        # the furthest end up to each window, and the least start from it on
        reach = np.maximum.accumulate(ends).astype(index)
        latest = np.minimum.accumulate(begins[::-1])[::-1].astype(index)
        firsts = reach.searchsorted(lowest, side="right")
        lasts = latest.searchsorted(highest, side="right")
        held = (firsts < lasts).nonzero()[0]
        # bisection queries in the entries' type: numpy would copy the
        # entries to a wider one
        narrow_begins, narrow_ends = begins.astype(index), ends.astype(index)
        for value, first, last in zip(values[held].tolist(), firsts[held].tolist(), lasts[held].tolist()):
            entries = by_value[bounds[value] : bounds[value + 1]]
            # Count from the running count where that costs less than
            # bisecting the entries for every window.
            base, top = int(latest[first]), int(reach[last - 1])
            if top - base < (last - first) * (3 + entries.size.bit_length()):
                running[base] = 0
                hits = residuals[base:top] == value
                np.cumsum(hits, dtype=np.int32, out=running[base + 1 : top + 1])
                counts = running[ends[first:last]] - running[begins[first:last]]
            else:
                counts = entries.searchsorted(narrow_ends[first:last])
                counts -= entries.searchsorted(narrow_begins[first:last])
            yield block, value, first, counts


@lru_cache(maxsize=4)
def _window_sizes(n: int, exponent: float) -> np.ndarray:
    """math.ceil(t ** exponent) for t in 0..n-1, read-only.

    numpy's power may differ from Python's in the last place.  That
    moves the ceiling only where t ** exponent lies next to an integer,
    so exactly those entries are recomputed with Python's pow.  It is
    built in place, with one temporary of its size besides it.
    """
    power = np.arange(n, dtype=np.float64)
    np.power(power, exponent, out=power)
    # within 1e-9 relative of an integer; the tolerance dwarfs the last
    # place, so scaling the gap rather than the power changes nothing
    gap = np.rint(power)
    gap -= power
    np.abs(gap, out=gap)
    gap *= 1e9
    near = np.flatnonzero(gap <= power)
    del gap
    sizes = np.ceil(power, out=power).astype(np.intp)
    for t in near.tolist():
        sizes[t] = math.ceil(t**exponent)
    sizes.setflags(write=False)
    return sizes


def _poly_columns(scan: PrefixScan, gamma: float, keep=None) -> tuple[int, EventColumns]:
    """poly fires at t > psi when its age class holds at least
    t^(1-gamma) completed occurrences.  The rank is an integer, so that
    means rank >= m = ceil(t^(1-gamma)); it then averages the last m."""
    sizes = _window_sizes(scan.length, 1.0 - gamma)[scan.time]
    # m is at least 1 for t > 0, and so at psi = 0, whose rank is 0
    np.maximum(sizes, 1, out=sizes)
    count, rows = _cut((scan.rank >= sizes).nonzero()[0], keep)
    m = sizes[rows]
    del sizes
    age = scan.ages[rows]
    lo = scan.starts[scan.classes[rows]]
    lo += scan.rank[rows]
    lo -= m
    return count, _columns(scan, rows, age, lo, m)


# 2^s for every scale s a position can have
_POWERS = np.left_shift(1, np.arange(63, dtype=np.int64))


@lru_cache(maxsize=4)
def _log_window_sizes(exponent: float) -> np.ndarray:
    """ceil(2.0 ** (s * exponent)) for every scale s, by Python's pow."""
    sizes = np.array([math.ceil(2.0 ** (s * exponent)) for s in range(_POWERS.size)])
    sizes.setflags(write=False)
    return sizes


def _log_columns(scan: PrefixScan, gamma: float, keep=None) -> tuple[int, EventColumns]:
    """log fires at t > psi when the age tau = age(t) first recurred
    after psi below log2(t), and the completed occurrences of tau at
    positions in (s, 2^s), s = floor(log2 t), number at least
    needed = ceil(2^(s(1-gamma))); it averages the first needed of them.

    Those occurrences lie before 2^s <= t, so all of them completed
    before t, and later runs only add positions past t: the window of
    one (path, age, scale) never changes.
    """
    length, width, time, ages, classes = scan.length, scan.width, scan.time, scan.ages, scan.classes
    order, starts = scan.order, scan.starts
    if not ages.size:
        return 0, _columns(scan, ages, ages, ages, ages)
    # first position after psi of each class: its head, but the second
    # entry for age 0, whose head is psi itself
    head = starts[:-1].copy()
    head[::width] += starts[1::width] - head[::width] > 1
    # an empty class at the end would read past the last entry
    np.minimum(head, ages.size - 1, out=head)
    first = time[order[head]]
    del head
    # bit_length(t - 1) at index t, and 0 at t = 0
    bit_length = _POWERS.searchsorted(np.arange(-1, length), "right")
    # 2^first < t, i.e. first < bit_length(t - 1); never at psi, where
    # first >= psi >= bit_length(psi - 1)
    rows = (first[classes] < bit_length[time]).nonzero()[0]
    del first
    # a row that passes has age <= first < bit_length(length), and so
    # has its scale bit_length(t) - 1: a grid of (path, age, scale)
    # cells with age and scale below bit_length(length) holds the
    # window of every row
    scales = length.bit_length()
    ages_in = min(width, scales)
    cell = classes[rows] // width
    cell *= ages_in
    cell += ages[rows]
    cell *= scales
    cell += bit_length[time[rows] + 1]
    cell -= 1
    del bit_length
    tau, scale = np.divmod(np.arange(scan.psi.size * ages_in * scales), scales)
    tau = np.divmod(tau, ages_in)
    tau = tau[0] * width + tau[1]
    # class entries in (class, position) order, as one sorted key
    key = classes[order]
    key *= length
    key += time[order]
    tau *= length
    lo = key.searchsorted(tau + scale, "right")
    tau += _POWERS[scale]
    count = key.searchsorted(tau, "left")
    del key
    count -= lo
    m = _log_window_sizes(1.0 - gamma)[scale]
    fired, kept = _cut((count >= m)[cell].nonzero()[0], keep)
    rows = rows[kept]
    cell = cell[kept]
    return fired, _columns(scan, rows, ages[rows], lo[cell], m[cell])


def _eps_columns(scan: PrefixScan, epsilon: float, keep=None) -> tuple[int, EventColumns]:
    """eps fires at t > psi when at most t(1 - epsilon/2) positions of
    [psi, t] have an age below tau = age(t), and averages the whole
    completed class of tau if it is not empty.

    The open run holds tau of those positions, one at each age below
    tau.  At each of those ages the completed ones number the rank of
    the open run's position, so the count is tau + rank[t - tau .. t - 1].
    """
    ages, rank = scan.ages, scan.rank
    # rank summed over t - tau .. t - 1: its prefix sum before t, less
    # that before the run's zero, the last row of age 0 up to t (the
    # sums never fall, so a running maximum carries it along the run)
    below = rank.cumsum()
    below -= rank
    at_zero = np.where(ages == 0, below, 0)
    np.maximum.accumulate(at_zero, out=at_zero)
    below -= at_zero
    del at_zero
    below += ages
    # psi's own row has rank 0, so t > psi holds for every row fired
    fires = below <= scan.time * (1.0 - 0.5 * epsilon)
    del below
    fires &= rank > 0
    count, rows = _cut(fires.nonzero()[0], keep)
    del fires
    age = ages[rows]
    return count, _columns(scan, rows, age, scan.starts[scan.classes[rows]], rank[rows])


def _offline_columns(scan: PrefixScan, _parameter: None = None, keep=None) -> tuple[int, EventColumns]:
    """offline averages the whole completed class; rank 0 is undefined
    and has no row."""
    count, rows = _cut(scan.rank.nonzero()[0], keep)
    age = scan.ages[rows]
    return count, _columns(scan, rows, age, scan.starts[scan.classes[rows]], scan.rank[rows])


# Each scheme's columns from the scan, the parameter _setting returns
# and an optional cut of its firing rows (see _cut), with the number of
# rows that fired.
_BUILDERS = {"poly": _poly_columns, "log": _log_columns, "offline": _offline_columns, "eps": _eps_columns}
SCHEME_TAGS = tuple(_BUILDERS)


def _scan_columns(tag: str, bits, config: SchemeConfig) -> tuple[PrefixScan, EventColumns]:
    """Settles the scheme's parameter, then scans the path and builds
    the scheme's columns."""
    parameter = _setting(tag, config)
    scan = prefix_scan(bits)
    return scan, _BUILDERS[tag](scan, parameter)[1]


def _path_columns(tag: str, bits, config: SchemeConfig, keep=None) -> tuple[int, EventColumns]:
    """How many estimates the scheme makes on one path, and the columns
    of those keep selects: keep takes the ascending scan rows of all of
    them and returns a tail, whose columns alone are gathered (every
    row's without keep)."""
    parameter = _setting(tag, config)
    return _BUILDERS[tag](prefix_scan(_one_path(bits)), parameter, keep)


def scheme_columns(tag: str, bits, config: SchemeConfig) -> EventColumns:
    """Columns of one scheme's estimates on a whole path, or on a block
    of equal-length paths, the rows of a 2-D array."""
    return _scan_columns(tag, bits, config)[1]


# Rows whose histograms are counted together, and that are then turned
# into events or offline rows together; bounds the counts held.
_HISTOGRAM_BLOCK = 1 << 10


def _histograms(residuals: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> Iterator[tuple[tuple[int, int], ...]]:
    """The residual_counts of each window residuals[lo[i]:hi[i]], in
    row order, from window_counts.

    Rows are counted a block at a time.  A block's distinct windows are
    counted once, sorted, which groups them by class, and rows with the
    same window share one tuple, held until its last row.
    """
    size = residuals.size + 1
    starts = range(0, lo.size, _HISTOGRAM_BLOCK)
    keys = (lo[start : start + _HISTOGRAM_BLOCK] * size + hi[start : start + _HISTOGRAM_BLOCK] for start in starts)
    blocks, counted = tee(np.unique(key, return_inverse=True) for key in keys)
    hits = window_counts(residuals, ((unique // size, unique % size) for unique, _ in counted))
    # windows are never empty, so every block has hits
    for (_, found), (unique, inverse) in zip(groupby(hits, itemgetter(0)), blocks):
        found = list(found)
        # the block's (window, value) counts as a table: its nonzero cells
        # in row-major order are each window's values, ascending
        table = np.zeros((unique.size, len(found)), dtype=np.int32)
        for column, (_, _, first, counts) in enumerate(found):
            table[first : first + counts.size, column] = counts
        values = np.array([value for _, value, _, _ in found])
        del found
        windows, columns = table.nonzero()
        counts = table[windows, columns].tolist()
        values = values[columns].tolist()
        # window w's terms are bounds[w]:bounds[w + 1]
        bounds = np.zeros(unique.size + 1, dtype=np.intp)
        np.count_nonzero(table, axis=1).cumsum(out=bounds[1:])
        bounds = bounds.tolist()
        del table, windows, columns
        shared = [None] * unique.size
        left = np.bincount(inverse).tolist()  # rows still to come per window
        for window in inverse.tolist():
            histogram = shared[window]
            if histogram is None:
                start, stop = bounds[window], bounds[window + 1]
                histogram = tuple(zip(values[start:stop], counts[start:stop]))
            left[window] -= 1
            shared[window] = histogram if left[window] else None
            yield histogram


def _events(cols: EventColumns, window_start: np.ndarray, window_end: np.ndarray, histograms) -> Iterator[EstimateEvent]:
    # Histograms come from _histograms, counted a block of rows at a
    # time; the scan is not kept, only the columns the events read.
    # Each estimate is the float64 quotient of the int64 columns.  It
    # equals Python's int / int while the sums stay below 2^53, which
    # holds on any path shorter than 2^32 bits (residuals are < 2^21).
    for block in range(0, cols.time.size, _HISTOGRAM_BLOCK):
        part = slice(block, block + _HISTOGRAM_BLOCK)
        yield from map(
            EstimateEvent._make,
            zip(
                range(block + 1, cols.time.size + 1),
                cols.time[part].tolist(),
                cols.age[part].tolist(),
                (cols.sum[part] / cols.m[part]).tolist(),
                histograms,
                cols.m[part].tolist(),
                window_start[part].tolist(),
                window_end[part].tolist(),
            ),
        )


def _offline_rows(psi: int, ages: np.ndarray, rank: np.ndarray, cols: EventColumns, histograms) -> Iterator[OfflineEstimate]:
    """One estimate per scan row; the rows of positive rank are the
    defined ones, whose columns and histograms come in order."""
    defined = 0
    for block in range(0, ages.size, _HISTOGRAM_BLOCK):
        part = slice(block, block + _HISTOGRAM_BLOCK)
        counts = rank[part]
        rows = slice(defined, defined + np.count_nonzero(counts))
        defined = rows.stop
        estimates = iter((cols.sum[rows] / cols.m[rows]).tolist())
        for position, tau, count in zip(range(psi + block, psi + ages.size), ages[part].tolist(), counts.tolist()):
            if count == 0:
                yield OfflineEstimate(position, tau, 0, None, ())
            else:
                yield OfflineEstimate(position, tau, count, next(estimates), next(histograms))


def iter_scheme(tag: str, bits, config: SchemeConfig = SchemeConfig()) -> Iterator[EstimateEvent | OfflineEstimate]:
    """Estimates of one scheme on one path, in time order: an
    EstimateEvent per firing, or for offline an OfflineEstimate per
    position from psi on.  The tag, its parameter and the path are
    checked, and the path scanned, at the call.

    An event's window starts at the first entry averaged, or at psi for
    eps, and ends at the firing, or at the last entry averaged for log.
    """
    parameter = _setting(tag, config)
    scan = prefix_scan(_one_path(bits))
    cols = _BUILDERS[tag](scan, parameter)[1]
    histograms = _histograms(cols.residuals, cols.lo, cols.hi)
    if tag == "offline":
        return _offline_rows(int(scan.psi[0]), scan.ages, scan.rank, cols, histograms)
    start = np.full(cols.time.size, scan.psi[0]) if tag == "eps" else scan.time[scan.order[cols.lo]]
    end = scan.time[scan.order[cols.hi - 1]] if tag == "log" else cols.time
    return _events(cols, start, end, histograms)


def run_scheme(tag: str, bits, config: SchemeConfig = SchemeConfig()) -> list[EstimateEvent | OfflineEstimate]:
    """The estimates of iter_scheme as a list."""
    return list(iter_scheme(tag, bits, config))


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
    parameter = _setting(scheme, config)
    arr = _one_path(bits)
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
