"""Streaming index over an observed bit sequence.

No scheme reads it: all four take the same facts from one columnar scan
of the whole path (schemes.prefix_scan).  It stays as the per-bit
baseline whose feed cost bench/traced.py times.

Feeds one bit at a time and maintains, in O(1) amortized work per bit:

* psi, the position of the first zero;
* the run age of the newest position (time since the last zero);
* per-age occurrence logs: every position of every completed run,
  keyed by its age, with the residual run length that followed it;
* cumulative counts of observed ages, for "how many positions had age
  below a" queries.

Occurrences are recorded only when a run completes.  That is enough
for every estimator query: positions inside the still-open run share
the current run's start, so their ages are all distinct from each
other and strictly below the age of any later position in the same
run; a query for the newest position's age can therefore only be
matched by completed-run positions.  The equivalence is fuzz-tested
against a full-prefix rescan.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

__all__ = ["RunIndex", "ClassLog"]


class _Fenwick:
    """Prefix-sum tree over nonnegative integer keys with dynamic growth."""

    __slots__ = ("size", "tree", "raw")

    def __init__(self, size: int = 64):
        self.size = size
        self.tree = [0] * (size + 1)
        self.raw = [0] * size

    def _grow(self, need: int):
        size = self.size
        while size <= need:
            size *= 2
        raw = self.raw + [0] * (size - self.size)
        tree = [0] * (size + 1)
        for i, v in enumerate(raw):
            if v:
                j = i + 1
                while j <= size:
                    tree[j] += v
                    j += j & -j
        self.size, self.tree, self.raw = size, tree, raw

    def add(self, index: int, value: int):
        if index >= self.size:
            self._grow(index)
        self.raw[index] += value
        j = index + 1
        tree, size = self.tree, self.size
        while j <= size:
            tree[j] += value
            j += j & -j

    def prefix(self, count: int) -> int:
        """Sum of entries at indexes < count."""
        j = min(count, self.size)
        total = 0
        tree = self.tree
        while j > 0:
            total += tree[j]
            j -= j & -j
        return total


class ClassLog:
    """All completed-run occurrences of one age value, in position order.

    ``prefix[i]`` is the sum of the first i residuals, so any window's
    residual total is an exact integer difference.
    """

    __slots__ = ("positions", "residuals", "prefix")

    def __init__(self):
        self.positions = []
        self.residuals = []
        self.prefix = [0]

    def append(self, position: int, residual: int):
        self.positions.append(position)
        self.residuals.append(residual)
        self.prefix.append(self.prefix[-1] + residual)

    def __len__(self):
        return len(self.positions)

    def range_sum(self, lo: int, hi: int) -> int:
        """Exact sum of residuals[lo:hi]."""
        return self.prefix[hi] - self.prefix[lo]


_EMPTY = ClassLog()


class RunIndex:
    """Single-threaded mutable index; feed bits, then query freely.

    Queries about ages never observed return 0/empty.  Queries that
    need psi raise ValueError while no zero has been seen.
    """

    __slots__ = (
        "psi",
        "length",
        "current_tau",
        "open_run_start",
        "classes",
        "first_seen",
        "_age_counts",
        "_ages_total",
    )

    def __init__(self, track_ages: bool = True):
        self.psi = None
        self.length = 0
        self.current_tau = None
        self.open_run_start = None
        self.classes: dict[int, ClassLog] = {}
        # first position strictly after psi at which each age occurred
        self.first_seen: dict[int, int] = {}
        # Fenwick upkeep costs O(log) per bit; callers that never use
        # count_tau_less opt out
        self._age_counts = _Fenwick() if track_ages else None
        self._ages_total = 0

    def feed(self, bit: int):
        position = self.length
        self.length = position + 1
        if bit:
            if self.psi is None:
                return
            tau = position - self.open_run_start
        else:
            if self.psi is None:
                self.psi = position
                self.open_run_start = position
                tau = 0
            else:
                # the zero at open_run_start completed a run of s ones:
                # record that zero and each position of the run
                z = self.open_run_start
                s = position - z - 1
                classes = self.classes
                for t in range(s + 1):
                    log = classes.get(t)
                    if log is None:
                        log = classes[t] = ClassLog()
                    log.append(z + t, s - t)
                self.open_run_start = position
                tau = 0
        self.current_tau = tau
        if self._age_counts is not None:
            self._age_counts.add(tau, 1)
        self._ages_total += 1
        if position > self.psi and tau not in self.first_seen:
            self.first_seen[tau] = position

    def _require_psi(self):
        if self.psi is None:
            raise ValueError("no zero observed yet; queries need psi")

    def class_log(self, tau: int) -> ClassLog:
        return self.classes.get(tau, _EMPTY)

    def match_count(self, tau: int) -> int:
        """Completed-run occurrences of this age.

        When ``tau`` is the newest position's age this equals the
        number of earlier positions (from psi on) with that age.
        """
        self._require_psi()
        log = self.classes.get(tau)
        return len(log) if log is not None else 0

    def last_m_occurrences(self, tau: int, m: int) -> list[tuple[int, int]]:
        """The m most recent occurrences, ascending by position."""
        self._require_psi()
        log = self.classes.get(tau)
        have = len(log) if log is not None else 0
        if m < 1 or have < m:
            raise ValueError(
                f"need {m} occurrences of age {tau}, have {have}"
            )
        return list(zip(log.positions[-m:], log.residuals[-m:]))

    def first_m_in_window(
        self, tau: int, lo: int, hi: int, m: int
    ) -> list[tuple[int, int]]:
        """First m occurrences with lo < position < hi, ascending.

        Returns fewer than m (possibly none) if the window holds fewer.
        """
        log = self.classes.get(tau)
        if log is None or m < 1:
            return []
        positions = log.positions
        start = bisect_right(positions, lo)
        stop = bisect_left(positions, hi, start)
        stop = min(stop, start + m)
        return list(zip(positions[start:stop], log.residuals[start:stop]))

    def count_tau_less(self, tau: int) -> int:
        """Positions from psi on (current one included) with age < tau."""
        self._require_psi()
        if self._age_counts is None:
            raise ValueError("age counting disabled for this index")
        if tau <= 0:
            return 0
        if tau >= self._age_counts.size:
            return self._ages_total
        return self._age_counts.prefix(tau)

    def total_occurrences(self) -> int:
        return sum(len(log) for log in self.classes.values())
