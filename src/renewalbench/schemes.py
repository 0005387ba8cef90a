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
Every entry point goes through it, and so does the test oracle ref_run
(tests/oracles.py); the columnar ones reach it through _scheme_scan,
which then scans.

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
positions (a longer path is a block of its own).  Every row-sized
column takes 4 bytes but the prefix sums, which take 8, so the scan
holds 28 bytes per position (about 35 in a block of several paths,
which keeps each row's class too).  Building a scheme's columns for
every row peaks at 49-75 bytes per position (tracemalloc, geometric
paths, one 1M-bit path and a block of 1000 65-bit paths: poly 49-67,
log 74-75, eps 63-66, offline 64-66), so a full block takes about
5 MB.  A JSON report reads only each path's final decile, and builds
columns only for those rows once every firing is found, with no index
of every firing: poly 37, log 45 and eps 33 bytes per position on the
1M-bit path.  poly's window sizes on one path are a view of a cached
table, so its firing stage allocates only one-byte masks per row.

Each estimate's histogram is counted from the same columns:
window_counts indexes the residuals by value once and returns a counter
that takes one block of windows, grouped by class, per call.  It walks
the residual values in ascending order and counts each value over the
contiguous slice of the block's windows that can hold it.  Each caller
loops over its own blocks.  The scorer gathers a block of rows in class
order and sums its counts directly.  iter_scheme walks the columns once,
a block of rows at a time in row order: it counts each distinct window
of the block once, turns the counts into the residual_counts tuples and
makes the block's estimates (for offline, with the undefined positions
between them) before it counts the next block.

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
from typing import Callable, Iterator, NamedTuple

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
            if value is not None and not (_is_real(value) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
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


def _as_path(bits) -> np.ndarray:
    """The one input rule of every entry point: an ndarray is read as it
    is, and any other sequence or iterable of bits, a generator
    included, is read once into one.  Its entries must be the numbers 0
    and 1: a str path or a 2 is refused, not scanned as a run of ones."""
    arr = bits if isinstance(bits, np.ndarray) else np.array(list(bits))
    kind = arr.dtype.kind
    if kind not in "buif":
        raise ValueError(f"bits must be the numbers 0 and 1, got an array of dtype {arr.dtype}")
    # bool and unsigned input, the sampler's uint8 among it, needs only max()
    if not arr.size or (arr.max() <= 1 if kind in "bu" else ((arr == 0) | (arr == 1)).all()):
        return arr
    at = np.unravel_index(np.argmax((arr != 0) & (arr != 1)), arr.shape)
    position = int(at[0]) if arr.ndim == 1 else tuple(map(int, at))
    raise ValueError(f"bits must be 0 or 1, but position {position} holds {arr[at].item()!r}")


def _one_path(bits) -> np.ndarray:
    """_as_path for iter_scheme, and for the test oracle ref_run, which
    take one path: a block of paths goes to prefix_scan or
    scheme_columns."""
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


def _index_dtype(size: int):
    """The integer type of row-sized columns and row indices for a block
    of `size` positions: 4 bytes while every row index fits."""
    return np.int32 if size < 1 << 31 else np.int64


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

    Every row column and ``first`` and ``psi`` take the row type of
    _index_dtype, 4 bytes below 2^31 positions; ``prefix`` and
    ``starts`` are int64.
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
    if arr.ndim not in (1, 2):
        raise ValueError(f"expected one path or a 2-D block of paths, got an array of shape {arr.shape}")
    paths, length = arr.shape if arr.ndim == 2 else (1, arr.size)
    # every value below but the prefix sums is at most the block's size,
    # so each takes the row type
    index = _index_dtype(arr.size)
    zeros = (arr.reshape(-1) == 0).nonzero()[0].astype(index)
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
    bounds = np.zeros(runs.size + 1, dtype=index)
    runs.cumsum(dtype=index, out=bounds[1:])
    size = int(bounds[-1])
    first = bounds[path.searchsorted(np.arange(paths + 1, dtype=index))]
    psi = length - (first[1:] - first[:-1])
    ages = np.arange(size, dtype=index)
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
    # order stays native while it indexes here: numpy would widen a
    # narrower index on each gather
    order = _stable_order(classes, np.intp)
    sizes = np.bincount(classes, minlength=paths * width)
    starts = np.zeros(sizes.size + 1, dtype=sizes.dtype)
    sizes.cumsum(out=starts[1:])
    within = np.arange(size, dtype=index)
    within -= starts[:-1].astype(index).repeat(sizes)
    rank = np.empty_like(ages)
    rank[order] = within
    del within
    residuals = residuals[order]
    order = order.astype(index)
    # a leading 0 makes prefix[k] the sum of the first k residuals; the
    # sums alone can pass 2^31
    prefix = np.zeros(size + 1, dtype=np.int64)
    prefix[1:] = residuals
    prefix.cumsum(out=prefix)
    return PrefixScan(length, width, psi, first, time, ages, classes, rank, order, residuals, prefix, starts)


class EventColumns(NamedTuple):
    """Estimates of one scheme on a path or a block, one row per estimate.

    Path p of the block has rows ``first[p]:first[p + 1]``, in time
    order.  Row i averaged the ``m[i]`` class-ordered residuals of the
    scan from ``lo[i]`` on, whose exact total is ``sum[i]``.
    """

    residuals: np.ndarray
    first: np.ndarray
    time: np.ndarray
    age: np.ndarray
    lo: np.ndarray
    m: np.ndarray
    sum: np.ndarray


def _columns(scan: PrefixScan, rows: np.ndarray, lo: np.ndarray, m: np.ndarray) -> EventColumns:
    """Ascending scan rows whose window is the m class-order entries from lo on."""
    total = scan.prefix[lo + m]
    total -= scan.prefix[lo]
    return EventColumns(scan.residuals, rows.searchsorted(scan.first), scan.time[rows], scan.ages[rows], lo, m, total)


# Entries handled per step where a step bounds a temporary: of
# _window_sizes' build, of eps's firing test and of _cut's search for
# a tail.
_SLICE = 1 << 13


def _cut(fires: np.ndarray, keep) -> tuple[int, np.ndarray]:
    """How many rows fired, fires being nonzero at those, and the firing
    rows whose columns are built: all of them without keep.  With keep,
    the tail that keep returns from range(count), the firings' indices
    among themselves; its rows are found by searching fires from the
    end, _SLICE rows at a time, so no index of every firing is held."""
    if keep is None:
        rows = fires.nonzero()[0]
        return rows.size, rows
    count = int(np.count_nonzero(fires))
    need = len(keep(range(count)))
    parts, found, end = [np.zeros(0, dtype=np.intp)], 0, fires.size
    while found < need:
        begin = max(end - _SLICE, 0)
        part = fires[begin:end].nonzero()[0]
        part += begin
        parts.append(part)
        found += part.size
        end = begin
    rows = np.concatenate(parts[::-1])
    return count, rows[rows.size - need :]


def window_counts(residuals: np.ndarray) -> Callable[[np.ndarray, np.ndarray], Iterator[tuple[int, int, np.ndarray]]]:
    """A counter of value-major histograms of windows, the m[i] residuals from begins[i] on.

    The residuals are indexed by value once, here.  The counter,
    count(begins, m), takes one block of windows grouped by age class
    and, for each residual value in ascending order, yields
    (value, first, counts): counts[j] is how many times window first + j
    of the block holds the value, over the slice of windows that can
    hold it.  Windows of the slice that miss the value count 0.  The
    counter's running count is shared by every call, so one block must
    be read to the end before the next call.

    A window lies inside its age class, so the windows of a grouped
    block that can hold an entry in [first, last] are one slice: from
    the first that reaches past first up to the last that starts at or
    before last.  A value's step reads only that slice, so the work
    follows the (window, value) pairs counted, not the number of
    distinct values times the windows: on a heavy-tailed path one long
    run adds hundreds of values that only a few windows hold.
    """
    # Indices that are only bisected are kept in the row type.  begins
    # and ends stay native: they index the running count, and numpy
    # widens narrower indices on every gather.
    index = _index_dtype(residuals.size)
    # class-order entries of each value, ascending
    by_value = _stable_order(residuals, index)
    bounds = np.zeros(int(residuals.max(initial=0)) + 2, dtype=np.intp)
    np.bincount(residuals, minlength=bounds.size - 1).cumsum(out=bounds[1:])
    values = (bounds[1:] > bounds[:-1]).nonzero()[0]
    lowest = by_value[bounds[values]]
    highest = by_value[bounds[values + 1] - 1]
    # running count of one value over the residuals a slice spans
    running = np.zeros(residuals.size + 1, dtype=np.int32)

    def count(begins: np.ndarray, m: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
        ends = begins + m
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
            yield value, first, counts

    return count


@lru_cache(maxsize=4)
def _window_sizes(n: int, exponent: float) -> np.ndarray:
    """math.ceil(t ** exponent) for t in 0..n-1, read-only, in the row
    type (the values are at most t).

    numpy's power may differ from Python's in the last place.  That
    moves the ceiling only where t ** exponent lies next to an integer,
    so exactly those entries are recomputed with Python's pow.  It is
    built _SLICE entries at a time, so its temporaries are of a slice's
    size, not the table's.
    """
    sizes = np.empty(n, dtype=_index_dtype(n))
    for begin in range(0, n, _SLICE):
        power = np.arange(begin, min(begin + _SLICE, n), dtype=np.float64)
        np.power(power, exponent, out=power)
        # within 1e-9 relative of an integer; the tolerance dwarfs the
        # last place, so scaling the gap rather than the power changes
        # nothing
        gap = np.rint(power)
        gap -= power
        np.abs(gap, out=gap)
        gap *= 1e9
        near = np.flatnonzero(gap <= power)
        sizes[begin : begin + power.size] = np.ceil(power, out=power)
        for t in (near + begin).tolist():
            sizes[t] = math.ceil(t**exponent)
    sizes.setflags(write=False)
    return sizes


def _poly_columns(scan: PrefixScan, gamma: float, keep=None) -> tuple[int, EventColumns]:
    """poly fires at t > psi when its age class holds at least
    t^(1-gamma) completed occurrences.  The rank is an integer, so that
    means rank >= m = ceil(t^(1-gamma)); it then averages the last m."""
    table = _window_sizes(scan.length, 1.0 - gamma)
    # a one-path scan's rows are its positions psi..length-1, whose
    # sizes are a view of the table; a block's are gathered
    sizes = table[int(scan.psi[0]) :] if scan.psi.size == 1 else table[scan.time]
    # psi's row has rank 0 and never fires, though its m is 0 at psi = 0
    fires = scan.rank >= sizes
    fires &= scan.rank > 0
    count, rows = _cut(fires, keep)
    del fires
    m = sizes[rows]
    del sizes
    lo = scan.starts[scan.classes[rows]]
    lo += scan.rank[rows]
    lo -= m
    return count, _columns(scan, rows, lo, m)


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
        return 0, _columns(scan, ages, ages, ages)
    # a row that passes the recurrence test below has age <= first <
    # bit_length(length), and so has its scale bit_length(t) - 1: a grid
    # of (path, age, scale) cells with age and scale below
    # bit_length(length) holds the window of every row.  The windows are
    # counted first, so that their sort key is never held beside a
    # row-sized index.
    scales = length.bit_length()
    ages_in = min(width, scales)
    cells = scan.psi.size * ages_in * scales
    tau, scale = np.divmod(np.arange(cells), scales)
    tau = np.divmod(tau, ages_in)
    tau = tau[0] * width + tau[1]
    # class entries in (class, position) order, as one sorted key: the
    # class of each, read off starts, times the length (which can pass
    # 2^31), plus its position
    key = np.arange(starts.size - 1, dtype=np.int64).repeat(np.diff(starts))
    key *= length
    key += time[order]
    tau *= length
    lo = key.searchsorted(tau + scale, "right")
    tau += _POWERS[scale]
    count = key.searchsorted(tau, "left")
    del key
    count -= lo
    m = _log_window_sizes(1.0 - gamma)[scale]
    # first position after psi of each class: its head, but the second
    # entry for age 0, whose head is psi itself
    head = starts[:-1].copy()
    head[::width] += starts[1::width] - head[::width] > 1
    # an empty class at the end would read past the last entry
    np.minimum(head, ages.size - 1, out=head)
    first = time[order[head]]
    del head
    # bit_length(t - 1) at index t, and 0 at t = 0; one byte holds it
    bit_length = _POWERS.searchsorted(np.arange(-1, length), "right").astype(np.uint8)
    # 2^first < t, i.e. first < bit_length(t - 1); never at psi, where
    # first >= psi >= bit_length(psi - 1)
    rows = (first[classes] < bit_length[time]).nonzero()[0].astype(_index_dtype(ages.size))
    del first
    cell = (classes[rows] // width).astype(_index_dtype(cells), copy=False)
    cell *= ages_in
    cell += ages[rows]
    cell *= scales
    cell += bit_length[1:][time[rows]]
    cell -= 1
    del bit_length
    fired, kept = _cut((count >= m)[cell], keep)
    rows = rows[kept]
    cell = cell[kept]
    return fired, _columns(scan, rows, lo[cell], m[cell])


def _class_columns(scan: PrefixScan, fires: np.ndarray, keep) -> tuple[int, EventColumns]:
    """Columns of the rows fires marks, each averaging its whole completed class."""
    count, rows = _cut(fires, keep)
    del fires
    return count, _columns(scan, rows, scan.starts[scan.classes[rows]], scan.rank[rows])


def _eps_columns(scan: PrefixScan, epsilon: float, keep=None) -> tuple[int, EventColumns]:
    """eps fires at t > psi when at most t(1 - epsilon/2) positions of
    [psi, t] have an age below tau = age(t), and averages the whole
    completed class of tau if it is not empty.

    The open run holds tau of those positions, one at each age below
    tau.  At each of those ages the completed ones number the rank of
    the open run's position, so the count is tau + rank[t - tau .. t - 1].
    """
    return _class_columns(scan, _eps_fires(scan, 1.0 - 0.5 * epsilon), keep)


def _eps_fires(scan: PrefixScan, share: float) -> np.ndarray:
    """The rows where eps fires: at most time * share positions have an
    age below the row's, and the rank is positive.  Built _SLICE rows at
    a time, so its temporaries are of a slice's size; the running sum
    and maximum below carry from one slice to the next."""
    fires = np.empty(scan.rank.size, dtype=bool)
    # rank summed over t - tau .. t - 1: its prefix sum before t, less
    # that before the run's zero, the last row of age 0 up to t (the
    # sums never fall, so a running maximum carries it along the run);
    # the sums can pass 2^31
    total = at_zero = 0
    for begin in range(0, fires.size, _SLICE):
        part = slice(begin, begin + _SLICE)
        rank, ages, fired = scan.rank[part], scan.ages[part], fires[part]
        below = rank.cumsum(dtype=np.int64)
        below += total
        total = below[-1]
        below -= rank
        zero = np.where(ages == 0, below, 0)
        zero[0] = max(zero[0], at_zero)
        np.maximum.accumulate(zero, out=zero)
        at_zero = zero[-1]
        below -= zero
        below += ages
        # psi's own row has rank 0, so t > psi holds for every row fired
        np.less_equal(below, scan.time[part] * share, out=fired)
        fired &= rank > 0
    return fires


def _offline_columns(scan: PrefixScan, _parameter: None = None, keep=None) -> tuple[int, EventColumns]:
    """offline averages the whole completed class; rank 0 is undefined
    and has no row."""
    return _class_columns(scan, scan.rank, keep)


# Each scheme's columns from the scan, the parameter _setting returns
# and an optional cut of its firing rows (see _cut), with the number of
# rows that fired.
_BUILDERS = {"poly": _poly_columns, "log": _log_columns, "offline": _offline_columns, "eps": _eps_columns}
SCHEME_TAGS = tuple(_BUILDERS)
# The schemes with a stopping rule, which the adversary can run.
_STOPPING_TAGS = ("poly", "log", "eps")


def _scheme_scan(tag: str, bits, config: SchemeConfig, keep=None) -> tuple[PrefixScan, int, EventColumns]:
    """Settles the scheme's parameter, then scans the path, or the block
    of paths, and builds the scheme's columns.  Returns the scan, how
    many estimates the scheme makes, and the columns of those keep
    selects: keep takes range(count), the estimates in time order, and
    returns a tail of it, whose columns alone are gathered (every
    row's without keep)."""
    parameter = _setting(tag, config)
    scan = prefix_scan(bits)
    return (scan, *_BUILDERS[tag](scan, parameter, keep))


def scheme_columns(tag: str, bits, config: SchemeConfig) -> EventColumns:
    """Columns of one scheme's estimates on a whole path, or on a block
    of equal-length paths, the rows of a 2-D array."""
    return _scheme_scan(tag, bits, config)[2]


# Rows whose histograms are counted together, and that are then turned
# into estimates together; bounds the counts held.
_HISTOGRAM_BLOCK = 1 << 10


def _block_histograms(count, size: int, lo: np.ndarray, m: np.ndarray) -> list[tuple[tuple[int, int], ...]]:
    """The residual_counts of a block's windows, the m[i] residuals from
    lo[i] on, in row order, from window_counts' counter for size - 1
    residuals.  Distinct windows are counted once, sorted, which groups
    them by class; rows with the same window share one tuple."""
    unique, inverse = np.unique(lo * size + m, return_inverse=True)
    found = list(count(unique // size, unique % size))
    # the block's (window, value) counts as a table: its nonzero cells
    # in row-major order are each window's values, ascending
    table = np.zeros((unique.size, len(found)), dtype=np.int32)
    for column, (_, first, counts) in enumerate(found):
        table[first : first + counts.size, column] = counts
    values = np.array([value for value, _, _ in found])
    del found
    windows, columns = table.nonzero()
    counts = table[windows, columns].tolist()
    values = values[columns].tolist()
    # window w's terms are bounds[w]:bounds[w + 1]
    bounds = np.zeros(unique.size + 1, dtype=np.intp)
    np.count_nonzero(table, axis=1).cumsum(out=bounds[1:])
    bounds = bounds.tolist()
    del table, windows, columns
    histograms = [tuple(zip(values[a:b], counts[a:b])) for a, b in zip(bounds, bounds[1:])]
    return [histograms[w] for w in inverse.tolist()]


def _estimates(cols: EventColumns, start=None, end=None, ages=None, psi: int = 0) -> Iterator[EstimateEvent | OfflineEstimate]:
    """The estimates of iter_scheme, made a _HISTOGRAM_BLOCK of rows at
    a time: an EstimateEvent per row, its window from the start and end
    columns, or for offline, given the scan's ages from psi on, an
    OfflineEstimate per position, undefined between the rows' times.

    Only the columns the estimates read are kept, not the scan.  Each
    estimate is the float64 quotient of the int64 columns.  It equals
    Python's int / int while the sums stay below 2^53, which holds on
    any path shorter than 2^32 bits (residuals are < 2^21).
    """
    count = window_counts(cols.residuals)
    rows, size = cols.time.size, cols.residuals.size + 1
    position = psi  # offline's first position not yet yielded

    def undefined(stop: int) -> Iterator[OfflineEstimate]:
        taus = ages[position - psi : stop - psi].tolist()
        return (OfflineEstimate(at, tau, 0, None, ()) for at, tau in enumerate(taus, position))

    for block in range(0, rows, _HISTOGRAM_BLOCK):
        part = slice(block, block + _HISTOGRAM_BLOCK)
        histograms = _block_histograms(count, size, cols.lo[part], cols.m[part])
        time, age, m = cols.time[part].tolist(), cols.age[part].tolist(), cols.m[part].tolist()
        estimate = (cols.sum[part] / cols.m[part]).tolist()
        if ages is None:
            yield from map(
                EstimateEvent._make,
                zip(range(block + 1, rows + 1), time, age, estimate, histograms, m, start[part].tolist(), end[part].tolist()),
            )
        else:
            for row in zip(time, age, m, estimate, histograms):
                if row[0] > position:
                    yield from undefined(row[0])
                yield OfflineEstimate._make(row)
                position = row[0] + 1
        # the next block's are made once this block's are let go
        del histograms, time, age, m, estimate
    if ages is not None:
        yield from undefined(psi + ages.size)


def iter_scheme(tag: str, bits, config: SchemeConfig = SchemeConfig()) -> Iterator[EstimateEvent | OfflineEstimate]:
    """Estimates of one scheme on one path, in time order: an
    EstimateEvent per firing, or for offline an OfflineEstimate per
    position from psi on.  The tag, its parameter and the path are
    checked, and the path scanned, at the call.

    An event's window starts at the first entry averaged, or at psi for
    eps, and ends at the firing, or at the last entry averaged for log.
    """
    scan, _, cols = _scheme_scan(tag, _one_path(bits), config)
    if tag == "offline":
        return _estimates(cols, ages=scan.ages, psi=int(scan.psi[0]))
    # the windows are read off the scan here, which the estimates then
    # let go; eps's all start at psi, a view of it rather than a column
    start = np.broadcast_to(scan.psi, cols.time.shape) if tag == "eps" else scan.time[scan.order[cols.lo]]
    end = scan.time[scan.order[cols.lo + cols.m - 1]] if tag == "log" else cols.time
    return _estimates(cols, start, end)


def run_scheme(tag: str, bits, config: SchemeConfig = SchemeConfig()) -> list[EstimateEvent | OfflineEstimate]:
    """The estimates of iter_scheme as a list."""
    return list(iter_scheme(tag, bits, config))
