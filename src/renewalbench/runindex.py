"""Streaming per-bit index over an observed bit sequence.

Only bench/traced.py uses it: its runindex.feed layer times this feed,
bit by bit, as a per-bit baseline.  No scheme, CLI path or other module
reads it; the schemes take every age, class and residual from one
columnar scan of the whole path (schemes.prefix_scan), checked against
the oracle schemes.ref_run.  The module goes with that layer (ROADMAP
item 2).

Feeding one bit at a time maintains, in O(1) amortized work per bit
(plus O(log) for the optional age counts):

* psi, the position of the first zero;
* the run age of the newest position (time since the last zero);
* per-age occurrence logs: every position of every completed run,
  keyed by its age, with the residual run length that followed it and
  the running sum of those residuals;
* the first position after psi at which each age occurred;
* a Fenwick tree of the ages observed (with track_ages).

Occurrences are recorded only when a run completes, since a position's
residual is known only then.
"""

from __future__ import annotations

__all__ = ["RunIndex"]


class _Fenwick:
    """Prefix-sum (Fenwick) tree over nonnegative integer keys with
    dynamic growth; only its upkeep remains, no prefix query."""

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


class RunIndex:
    """Single-threaded mutable index, built by feeding bits; its state is
    read from the attributes.  track_ages=False skips the Fenwick upkeep
    (no query reads it any more; the traced benchmark times both feeds).
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
