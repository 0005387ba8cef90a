"""Finite-support laws for the run lengths of a binary renewal process.

A law assigns probability ``probs[k]`` to a run of exactly ``k`` ones
between consecutive zeros.  Everything downstream (simulation, the
estimation schemes, the adversarial construction) consumes laws through
this module, so the invariants are enforced once here: finite support,
nonnegative masses, total mass one, and precomputed tail/overshoot
tables that make conditional quantities O(1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real

import numpy as np

__all__ = [
    "PROB_TOL",
    "SUM_TOL",
    "MAX_SUPPORT",
    "LawError",
    "RenewalLaw",
    "ResidualLaw",
    "make_law",
    "law_from_json",
    "residual_mean",
    "residual_law",
    "stationary_zero_prob",
    "power_moment",
    "gamma_limit",
    "perturb",
    "law_info_text",
]

# Tolerance for identities that hold exactly up to float rounding
# (single divisions, mass moved between two indices).
PROB_TOL = 1e-12
# Tolerance for order-sensitive accumulations (normalization checks,
# moment identities over long supports).
SUM_TOL = 1e-9
# Hard cap on support size.  Laws are stored densely: at 2^21 entries
# the three per-law float64 tables take about 50 MB combined.
MAX_SUPPORT = 1 << 21


class LawError(ValueError):
    """Invalid law specification or query outside the law's support."""


@dataclass(frozen=True, eq=False)
class RenewalLaw:
    """A run-length distribution with precomputed tail sums, equal to
    a law with equal ``probs``, ``tails`` and ``mean``.

    Attributes:
        probs: mass at each run length, index 0 upward.  It and the
            two tables below are read-only float64 arrays.
        tails: ``tails[L]`` is the mass at lengths >= L; length is
            ``len(probs) + 1`` with ``tails[-1] == 0.0``.
        mean: expected run length.
        overshoots: ``overshoots[L]`` is ``sum((k - L) * probs[k] for
            k >= L)``, the unnormalized mean excess over L; same length
            as ``tails``.
        provenance: JSON-serializable description of how the law was
            built, carried into path sidecars and reports.
    """

    probs: np.ndarray
    tails: np.ndarray
    mean: float
    overshoots: np.ndarray
    provenance: dict

    def __eq__(self, other):
        if not isinstance(other, RenewalLaw):
            return NotImplemented
        return self.mean == other.mean and np.array_equal(self.probs, other.probs) and np.array_equal(self.tails, other.tails)

    __hash__ = None

    @property
    def support(self) -> int:
        return len(self.probs)

    def prob(self, k: int) -> float:
        return float(self.probs[k]) if 0 <= k < self.probs.size else 0.0

    def tail(self, L: int) -> float:
        if L < 0:
            return 1.0
        if L < len(self.tails):
            return float(self.tails[L])
        return 0.0

    def overshoot(self, L: int) -> float:
        if L < 0:
            raise LawError(f"overshoot index must be >= 0, got {L}")
        return float(self.overshoots[L]) if L < self.overshoots.size else 0.0

    @cached_property
    def length_cdf(self) -> np.ndarray:
        """Read-only ``P(K <= k) = 1 - tails[k + 1]``, built once per law;
        the final entry is exactly 1."""
        cdf = 1.0 - self.tails[1:]
        cdf.setflags(write=False)
        return cdf

    @cached_property
    def stationary_cdf(self) -> np.ndarray:
        """Read-only CDF of the stationary start state, built once per
        law: state ``i`` (the run holds ``i`` ones so far) has mass
        ``tail(i) / (1 + mean)``, and the entries are their running sums."""
        cdf = np.cumsum(self.tails[:-1] * (1.0 / (1.0 + self.mean)))
        cdf.setflags(write=False)
        return cdf


@dataclass(frozen=True)
class ResidualLaw:
    """Conditional law of the remaining run given the elapsed run age.

    ``probs[l]`` is the probability the run continues for exactly ``l``
    more ones, given it already holds ``offset`` ones.
    """

    offset: int
    probs: tuple[float, ...]
    mean: float


def _build(masses: np.ndarray, provenance: dict) -> RenewalLaw:
    """Validate raw float64 masses, renormalize, and fill in the derived
    tables."""
    if not masses.size:
        raise LawError("law needs at least one mass entry")
    if masses.size > MAX_SUPPORT:
        raise LawError(
            f"support size {masses.size} exceeds the {MAX_SUPPORT} cap"
        )
    bad = np.flatnonzero(~np.isfinite(masses) | (masses < 0.0))
    if bad.size:
        k = int(bad[0])
        raise LawError(f"mass at index {k} is invalid: {float(masses[k])!r}")
    total = math.fsum(masses.tolist())
    if abs(total - 1.0) > SUM_TOL:
        raise LawError(f"masses sum to {total!r}, expected 1 within {SUM_TOL}")
    # IEEE division rounds each quotient exactly as a Python loop would
    return _tabulate(masses / total, provenance)


def _tabulate(probs: np.ndarray, provenance: dict) -> RenewalLaw:
    """The law with the float64 masses ``probs`` as given, which it
    keeps read-only, and its derived tables."""
    # Backward accumulation keeps the tails exactly monotone and makes
    # tails[L] - tails[L+1] == probs[L] hold to full precision.  cumsum
    # adds one term at a time, from the leading 0.0, as a loop would.
    tails = np.zeros(probs.size + 1)
    tails[1:] = probs[::-1]
    tails = tails.cumsum()[::-1]
    overshoots = np.zeros_like(tails)
    overshoots[1:] = tails[:0:-1]
    overshoots = overshoots.cumsum()[::-1]
    for table in (probs, tails, overshoots):
        table.setflags(write=False)
    return RenewalLaw(probs, tails, float(overshoots[0]), overshoots, provenance)


# The last few laws make_law built, each under the JSON text of its
# spec and of its provenance: an evaluate run asks for one law from its
# flag, its config and run_experiment.  Laws are frozen, so callers
# share them.  A key's text is a fraction of its law's tables.
_BUILT: dict[str, RenewalLaw] = {}
_BUILT_KEYS = 4


def _spec_key(spec) -> str | None:
    try:
        return json.dumps(spec, sort_keys=True)
    except (TypeError, ValueError):
        return None  # not JSON text: built every time


def make_law(spec: dict) -> RenewalLaw:
    """Build a law from a specification mapping, or return the one built
    from an equal spec or provenance among the last few.

    Three types are understood:

    * ``{"type": "explicit", "p": [p0, p1, ...]}``
    * ``{"type": "geometric", "q": q, "truncate": K}`` with masses
      proportional to ``q**k`` for ``k < K``
    * ``{"type": "zipf", "s": s, "truncate": K}`` with masses
      proportional to ``(k + 1) ** -s`` for ``k < K``

    Geometric and zipf laws are renormalized over the truncated
    support, so ``truncate`` is required and every law built here has
    finite support by construction.
    """
    key = _spec_key(spec)
    law = _BUILT.get(key)
    if law is None:
        law = _make_law(spec)
        for known in (key, _spec_key(law.provenance)):
            if known is not None:
                _BUILT[known] = law
        while len(_BUILT) > _BUILT_KEYS:
            del _BUILT[next(iter(_BUILT))]
    return law


# The keys each law type reads besides "type"; a spec holding any
# other key is rejected, so a misspelling never drops a field.
_LAW_KEYS = {"explicit": ("p",), "geometric": ("q", "truncate"), "zipf": ("s", "truncate")}


def _is_real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _plain(value):
    """A number as the Python int or float it equals, so that a numpy
    scalar computes in double precision and echoes as JSON; any other
    value as it is, for its check to reject."""
    if _is_integer(value):
        return int(value)
    return float(value) if _is_real(value) else value


def _plain_spec(spec: dict) -> dict:
    """A law spec with each number, and each number of a list, plain."""
    return {
        key: type(value)(map(_plain, value)) if isinstance(value, (list, tuple)) else _plain(value)
        for key, value in spec.items()
    }


def _make_law(spec: dict) -> RenewalLaw:
    if not isinstance(spec, dict):
        raise LawError(f"law spec must be a mapping, got {type(spec).__name__}")
    spec = _plain_spec(spec)
    kind = spec.get("type")
    keys = _LAW_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise LawError(f"unknown law type {kind!r}")
    for key in spec:
        if key != "type" and key not in keys:
            raise LawError(f"{kind} law has no key {key!r}; it reads {keys}")
    if kind == "explicit":
        raw = spec.get("p")
        if not isinstance(raw, (list, tuple)):
            raise LawError("explicit law needs a 'p' list of masses")
        for k, p in enumerate(raw):
            if not _is_real(p):
                raise LawError(f"mass at index {k} must be a real number, got {p!r}")
        probs = [float(p) for p in raw]
        return _build(np.array(probs, dtype=np.float64), {"type": "explicit", "p": probs})
    K = spec.get("truncate")
    if kind == "geometric":
        q = spec.get("q")
        if not _is_real(q) or not 0.0 < q < 1.0:
            raise LawError(f"geometric law needs 0 < q < 1, got {q!r}")
        _check_truncate(K)
        raw = [(1.0 - q) * q**k for k in range(K)]
        provenance = {"type": "geometric", "q": float(q), "truncate": int(K)}
    else:
        s = spec.get("s")
        if not _is_real(s) or not s > 0.0:
            raise LawError(f"zipf law needs s > 0, got {s!r}")
        _check_truncate(K)
        raw = [(k + 1.0) ** -s for k in range(K)]
        provenance = {"type": "zipf", "s": float(s), "truncate": int(K)}
    # The masses stay Python powers, since numpy's power may take a SIMD
    # path that is not correctly rounded; its product rounds as Python's.
    scale = 1.0 / math.fsum(raw)
    return _build(np.array(raw) * scale, provenance)


def _check_truncate(K) -> None:
    if not _is_integer(K) or K < 1:
        raise LawError(f"'truncate' must be a positive integer, got {K!r}")
    if K > MAX_SUPPORT:
        raise LawError(f"'truncate' {K} exceeds the {MAX_SUPPORT} cap")


def law_from_json(text: str) -> RenewalLaw:
    """Parse a JSON law specification (see :func:`make_law`)."""
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LawError(f"law JSON is malformed: {exc}") from exc
    return make_law(spec)


def residual_mean(law: RenewalLaw, age: int) -> float:
    """Expected number of further ones given the run already holds `age`.

    This is the target every estimation scheme is scored against: with
    ``T_L = law.tail(L)``, the value is ``sum((k - L) p_k, k >= L) / T_L``.
    """
    if age < 0:
        raise LawError(f"run age must be >= 0, got {age}")
    T = law.tail(age)
    if T <= 0.0:
        raise LawError(f"run age {age} has zero mass under the law")
    return law.overshoot(age) / T


def residual_law(law: RenewalLaw, age: int) -> ResidualLaw:
    """Conditional law of the remaining run length given age `age`."""
    if age < 0:
        raise LawError(f"run age must be >= 0, got {age}")
    T = law.tail(age)
    if T <= 0.0:
        raise LawError(f"run age {age} has zero mass under the law")
    probs = tuple((law.probs[age:] / T).tolist())
    return ResidualLaw(offset=age, probs=probs, mean=law.overshoot(age) / T)


def stationary_zero_prob(law: RenewalLaw) -> float:
    """Long-run frequency of zeros: 1 / (1 + mean run length)."""
    return 1.0 / (1.0 + law.mean)


def power_moment(law: RenewalLaw, r: float) -> float:
    """``E[K^r]`` for run length K.  Finite for every r since support is."""
    return math.fsum(p * float(k) ** r for k, p in enumerate(law.probs.tolist()) if p > 0.0)


def gamma_limit(alpha: float) -> float:
    """Largest usable window exponent for a declared tail exponent.

    A declared polynomial tail ``P(K >= k) ~ k**-alpha`` supports any
    window exponent strictly below ``min(1 - 2/alpha, 1/3)``.  Only
    meaningful for alpha > 2 (finite variance).
    """
    if not alpha > 2.0:
        raise LawError(f"declared tail exponent must exceed 2, got {alpha!r}")
    return min(1.0 - 2.0 / alpha, 1.0 / 3.0)


def perturb(law: RenewalLaw, to_index: int, delta: float) -> RenewalLaw:
    """Move mass ``delta`` from run length 0 out to ``to_index``.

    The total stays exactly one (no renormalization), the mean grows by
    exactly ``to_index * delta``, and the support extends to cover
    ``to_index`` if needed.  Requires positive mass headroom at 0.
    """
    if to_index < 1:
        raise LawError(f"target index must be >= 1, got {to_index}")
    if to_index + 1 > MAX_SUPPORT:
        raise LawError(
            f"target index {to_index} exceeds the {MAX_SUPPORT} support cap"
        )
    if not 0.0 < delta < law.prob(0):
        raise LawError(
            f"delta must lie in (0, {law.prob(0)!r}), got {delta!r}"
        )
    probs = np.zeros(max(law.support, to_index + 1))
    probs[: law.support] = law.probs
    probs[0] -= delta
    probs[to_index] += delta
    provenance = {
        "type": "perturbed",
        "base": law.provenance,
        "to_index": int(to_index),
        "delta": float(delta),
    }
    return _tabulate(probs, provenance)


def law_info_text(law: RenewalLaw, ages: int = 10) -> str:
    """Human-readable summary used by the command-line `law-info`."""
    lines = [
        f"support size : {law.support}",
        f"mean run     : {law.mean!r}",
        f"zero freq    : {stationary_zero_prob(law)!r}",
        f"provenance   : {json.dumps(law.provenance, sort_keys=True)}",
        "age  tail mass       residual mean",
    ]
    for L in range(min(ages, law.support)):
        T = law.tail(L)
        if T <= 0.0:
            lines.append(f"{L:>3}  {T:<14.6g}  (unreachable)")
            continue
        lines.append(f"{L:>3}  {T:<14.6g}  {residual_mean(law, L):.6g}")
    return "\n".join(lines)
