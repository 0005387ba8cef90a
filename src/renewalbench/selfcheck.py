"""Fast in-process health checks behind the `selftest` subcommand.

Each check re-derives a handful of known answers or compares the
estimates with digests recorded from the test oracle ref_run
(tests/oracles.py), which a plain install does not ship; together they
cover every module's core contract in a few seconds.  They are not a
substitute for the test suite, just a deployable smoke screen.
"""

from __future__ import annotations

import hashlib
import time
import warnings
from typing import Callable

import numpy as np

from .adversary import mu_L_shift, stage0, tv_prefix_exact
from .evaluation import CSV_COLUMNS, _Scorer
from .laws import make_law, perturb, residual_mean, stationary_zero_prob
from .paths import StartMode, sample_path
from .schemes import SCHEME_TAGS, SchemeConfig, prefix_scan, run_scheme, scheme_columns

P2_BITS = [0, 1, 1] * 14 + [0]


def _expect(condition, detail="") -> None:
    # a plain assert would vanish under python -O and pass every check
    if not condition:
        raise AssertionError(detail)


def _check_law_closed_forms() -> None:
    law = make_law({"type": "explicit", "p": [0.0, 0.0, 1.0]})
    _expect(law.mean == 2.0)
    _expect(stationary_zero_prob(law) == 1.0 / 3.0)
    _expect(residual_mean(law, 1) == 1.0)
    halving = stage0().law
    _expect(abs(halving.mean - 1.0) < 1e-9)
    _expect(abs(stationary_zero_prob(halving) - 0.5) < 1e-9)


def _check_scheme_traces() -> None:
    poly_times = [e.time for e in run_scheme("poly", P2_BITS, SchemeConfig(gamma=0.5))]
    _expect(poly_times == [9] + list(range(12, len(P2_BITS))), poly_times)
    eps_events = run_scheme("eps", P2_BITS[:12], SchemeConfig(epsilon=0.5))
    _expect([e.time for e in eps_events] == [3, 4, 6, 7, 8, 9, 10, 11])
    _expect(eps_events[0].estimate == 2.0)
    # the scorer every evaluate run uses: on the deterministic law each
    # eps estimate is exact, in mean and in distribution
    cols = scheme_columns("eps", P2_BITS[:12], SchemeConfig(epsilon=0.5))
    _expect(cols.time.tolist() == [3, 4, 6, 7, 8, 9, 10, 11], cols.time)
    errs, tvs = _Scorer(make_law({"type": "explicit", "p": [0, 0, 1]})).score_columns(cols)
    _expect(not errs.any() and not tvs.any(), (errs, tvs))
    _expect(len(CSV_COLUMNS) == 9)


# _streaming_digests(ref_run), recorded from the test oracle;
# tests/test_reference.py re-derives them from it
STREAMING_DIGESTS = {
    "poly": "949840731d8a424b85b6b0bb036264736c0eac20ec602e71e1e68f0df72fd36e",
    "log": "55fa6d76b15370b080fef4c7feb507ba1096d778504ebf60e224b070e55c98a9",
    "offline": "a8983e1c910eb5026716e067cba8a68aee8164ab09a8cd7574e11194542d743d",
    "eps": "9f9c514e0dec1d9c76ff131572c8b934535334c3b917bf70d2cf3ebce0790781",
}


def _streaming_digests(run) -> dict[str, str]:
    """Per tag, the sha256 of repr(run(tag, bits, config)) over six cases
    in order: three seeded 301-bit paths, two configs each."""
    specs = [
        {"type": "geometric", "q": 0.5, "truncate": 60},
        {"type": "explicit", "p": [0.2, 0.5, 0.0, 0.3]},
        {"type": "zipf", "s": 3.0, "truncate": 50},
    ]
    configs = [SchemeConfig(gamma=0.3, epsilon=0.4), SchemeConfig(gamma=0.45, epsilon=0.15)]
    hashes = {tag: hashlib.sha256() for tag in SCHEME_TAGS}
    with warnings.catch_warnings():
        # gamma=0.45 sits outside the log scheme's guarantee zone on
        # purpose; the estimates are the point here
        warnings.simplefilter("ignore")
        for i, spec in enumerate(specs):
            bits = sample_path(make_law(spec), 300, StartMode.STATIONARY, seed=17 + i).bits
            for config in configs:
                for tag in SCHEME_TAGS:
                    hashes[tag].update(repr(run(tag, bits, config)).encode())
    return {tag: h.hexdigest() for tag, h in hashes.items()}


def _check_streaming_digests() -> None:
    moved = [tag for tag, digest in _streaming_digests(run_scheme).items() if digest != STREAMING_DIGESTS[tag]]
    _expect(not moved, f"estimates of {', '.join(moved)} differ from the oracle's digests")


def _check_prefix_scan_bookkeeping() -> None:
    law = make_law({"type": "geometric", "q": 0.4, "truncate": 40})
    bits = sample_path(law, 1500, StartMode.AT_RENEWAL, seed=23).bits
    scan = prefix_scan(bits)
    zeros = np.flatnonzero(np.asarray(bits) == 0)
    psi = int(zeros[0])
    _expect(scan.psi[0] == psi and scan.ages.size == len(bits) - psi)
    _expect(not scan.ages[zeros - psi].any())
    # each completed run of s ones holds s+1 positions, whose residuals
    # s, s-1, ..., 0 total s(s+1)/2; the open run's count as 0
    runs = np.diff(zeros) - 1
    _expect(int((runs + 1).sum()) == int(zeros[-1]) - psi)
    _expect(int(scan.prefix[-1]) == int((runs * (runs + 1) // 2).sum()))
    # ranks number each age class 0, 1, ... in path order
    sizes = np.diff(scan.starts)
    _expect(np.array_equal(sizes, np.bincount(scan.ages)))
    _expect(int(scan.rank.sum()) == int((sizes * (sizes - 1) // 2).sum()))
    _expect(runs.size >= 1)


def _check_sharp_mean_bound() -> None:
    law = make_law({"type": "geometric", "q": 0.5, "truncate": 60})
    bits = sample_path(law, 4000, StartMode.STATIONARY, seed=31).bits
    config = SchemeConfig(gamma=0.3, epsilon=0.2)
    for tag in ("poly", "log", "eps"):
        for event in run_scheme(tag, bits, config):
            bound = (event.time - event.sample_count) / event.sample_count
            _expect(event.estimate <= bound + 1e-12, (tag, event.time))


def _check_adversary_closed_forms() -> None:
    halving = stage0().law
    _expect(abs(perturb(halving, 41, 0.05).mean - halving.mean - 2.05) < 1e-12)
    _expect(abs(mu_L_shift(halving, 0, 0.05, 41) - 2.05) < 1e-12)
    moved = perturb(halving, 41, 0.001)
    _expect(abs(tv_prefix_exact(halving, moved, 1) - 0.002) < 1e-12)
    two = make_law({"type": "explicit", "p": [0, 0, 1]})
    one = make_law({"type": "explicit", "p": [0, 1]})
    _expect(abs(tv_prefix_exact(two, one, 2) - 2.0) < 1e-12)


CHECKS: tuple[tuple[str, Callable[[], None]], ...] = (
    ("law closed forms", _check_law_closed_forms),
    ("scheme hand traces", _check_scheme_traces),
    ("streaming vs oracle digests", _check_streaming_digests),
    ("prefix scan bookkeeping", _check_prefix_scan_bookkeeping),
    ("sharp mean bound", _check_sharp_mean_bound),
    ("adversary closed forms", _check_adversary_closed_forms),
)


def run_selftest(write: Callable[[str], None] = print) -> int:
    """Runs every check; returns the number of failures."""
    failures = 0
    for name, check in CHECKS:
        started = time.perf_counter()
        try:
            check()
        except Exception as exc:  # report and keep going
            failures += 1
            write(f"FAIL {name}: {exc!r}")
        else:
            write(f"ok   {name} ({time.perf_counter() - started:.2f}s)")
    write(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return failures
