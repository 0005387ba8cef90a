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
from dataclasses import dataclass, field
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
    "stationary_state_law",
    "power_moment",
    "gamma_limit",
    "markov_tail_bound_holds",
    "perturb",
    "tv_l1",
    "law_info_text",
]

# Tolerance for identities that hold exactly up to float rounding
# (single divisions, mass moved between two indices).
PROB_TOL = 1e-12
# Tolerance for order-sensitive accumulations (normalization checks,
# moment identities over long supports).
SUM_TOL = 1e-9
# Hard cap on support size.  Laws are stored densely; 2^21 doubles is
# about 17 MB for the three per-law tables combined.
MAX_SUPPORT = 1 << 21


class LawError(ValueError):
    """Invalid law specification or query outside the law's support."""


@dataclass(frozen=True)
class RenewalLaw:
    """A run-length distribution with precomputed tail sums.

    Attributes:
        probs: mass at each run length, index 0 upward.
        tails: ``tails[L]`` is the mass at lengths >= L; length is
            ``len(probs) + 1`` with ``tails[-1] == 0.0``.
        mean: expected run length.
        overshoots: ``overshoots[L]`` is ``sum((k - L) * probs[k] for
            k >= L)``, the unnormalized mean excess over L; same length
            as ``tails``.
        provenance: JSON-serializable description of how the law was
            built, carried into path sidecars and reports.
    """

    probs: tuple[float, ...]
    tails: tuple[float, ...]
    mean: float
    overshoots: tuple[float, ...] = field(compare=False)
    provenance: dict = field(compare=False)

    @property
    def support(self) -> int:
        return len(self.probs)

    def prob(self, k: int) -> float:
        if 0 <= k < len(self.probs):
            return self.probs[k]
        return 0.0

    def tail(self, L: int) -> float:
        if L < 0:
            return 1.0
        if L < len(self.tails):
            return self.tails[L]
        return 0.0

    def overshoot(self, L: int) -> float:
        if L < 0:
            raise LawError(f"overshoot index must be >= 0, got {L}")
        if L < len(self.overshoots):
            return self.overshoots[L]
        return 0.0

    @cached_property
    def length_cdf(self) -> np.ndarray:
        """Read-only ``P(K <= k) = 1 - tails[k + 1]``, built once per law;
        the final entry is exactly 1."""
        cdf = 1.0 - np.asarray(self.tails[1:])
        cdf.setflags(write=False)
        return cdf

    @cached_property
    def stationary_cdf(self) -> np.ndarray:
        """Read-only cumulative sum of stationary_state_law, built once
        per law: the stationary start state's CDF."""
        cdf = np.cumsum(np.asarray(self.tails[:-1]) * (1.0 / (1.0 + self.mean)))
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
    masses = masses / total
    return _tabulate(tuple(masses.tolist()), provenance, masses)


def _tabulate(probs: tuple[float, ...], provenance: dict, masses: np.ndarray | None = None) -> RenewalLaw:
    """The law with masses ``probs`` as given, and its derived tables;
    ``masses``, where the caller has it, holds the same masses as a
    float64 array."""
    # Backward accumulation keeps the tails exactly monotone and makes
    # tails[L] - tails[L+1] == probs[L] hold to full precision.  cumsum
    # adds one term at a time, from the leading 0.0, as a loop would.
    tails = np.zeros(len(probs) + 1)
    tails[1:] = (probs if masses is None else masses)[::-1]
    tails = tails.cumsum()[::-1]
    overshoots = np.zeros_like(tails)
    overshoots[1:] = tails[:0:-1]
    overshoots = overshoots.cumsum()[::-1].tolist()
    return RenewalLaw(
        probs=probs,
        tails=tuple(tails.tolist()),
        mean=overshoots[0],
        overshoots=tuple(overshoots),
        provenance=provenance,
    )


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
    probs = tuple(law.prob(age + l) / T for l in range(law.support - age))
    return ResidualLaw(offset=age, probs=probs, mean=law.overshoot(age) / T)


def stationary_zero_prob(law: RenewalLaw) -> float:
    """Long-run frequency of zeros: 1 / (1 + mean run length)."""
    return 1.0 / (1.0 + law.mean)


def stationary_state_law(law: RenewalLaw) -> tuple[float, ...]:
    """Stationary distribution of the run-age chain.

    State ``i`` (the current run holds exactly ``i`` ones so far) has
    mass ``tail(i) / (1 + mean)``; the masses sum to one because the
    tails sum to ``1 + mean``.
    """
    scale = 1.0 / (1.0 + law.mean)
    return tuple(law.tails[i] * scale for i in range(law.support))


def power_moment(law: RenewalLaw, r: float) -> float:
    """``E[K^r]`` for run length K.  Finite for every r since support is."""
    return math.fsum(p * float(k) ** r for k, p in enumerate(law.probs) if p > 0.0)


def gamma_limit(alpha: float) -> float:
    """Largest usable window exponent for a declared tail exponent.

    A declared polynomial tail ``P(K >= k) ~ k**-alpha`` supports any
    window exponent strictly below ``min(1 - 2/alpha, 1/3)``.  Only
    meaningful for alpha > 2 (finite variance).
    """
    if not alpha > 2.0:
        raise LawError(f"declared tail exponent must exceed 2, got {alpha!r}")
    return min(1.0 - 2.0 / alpha, 1.0 / 3.0)


def markov_tail_bound_holds(law: RenewalLaw, age: int, horizon: int) -> bool:
    """Check the Markov bound on the residual run outliving its mean.

    For ``m = ceil(residual_mean(age) * log2(horizon))`` this tests
    ``tail(age + m) / tail(age) <= 1 / log2(horizon)``.  The inequality
    is how long conditioning windows are justified; it is a plain
    Markov bound, so it holds for every law, but the helper keeps the
    check executable in audits.
    """
    if horizon < 2:
        raise LawError(f"horizon must be >= 2, got {horizon}")
    lg = math.log2(horizon)
    mu = residual_mean(law, age)
    # Markov needs a positive threshold; mu can hit 0 at the truncated
    # support's edge, where the residual is surely 0 and any m >= 1 works.
    m = max(1, math.ceil(mu * lg))
    return law.tail(age + m) / law.tail(age) <= 1.0 / lg + PROB_TOL


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
    n = max(law.support, to_index + 1)
    probs = [0.0] * n
    probs[: law.support] = law.probs
    probs[0] -= delta
    probs[to_index] += delta
    provenance = {
        "type": "perturbed",
        "base": law.provenance,
        "to_index": int(to_index),
        "delta": float(delta),
    }
    return _tabulate(tuple(probs), provenance)


def tv_l1(a, b) -> float:
    """Variation distance in L1 form: sum of |a_l - b_l|, range [0, 2].

    Accepts plain mass sequences; shorter ones are zero-padded.  Both
    inputs must be (sub)probability vectors.  No scorer calls it: it is
    the plain L1 distance that the tests compare the scorer's tv with.
    """
    n = max(len(a), len(b))
    return math.fsum(
        abs((a[l] if l < len(a) else 0.0) - (b[l] if l < len(b) else 0.0))
        for l in range(n)
    )


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
