"""The benchmark's workloads: how each one is invoked through the
`renewalbench` CLI and how its payload is checked.

Workload sizes follow the computations of Morvai & Weiss
(arXiv:0811.2076): causal residual-run estimators on long paths
(the three `evaluate` workloads) and the staged adversarial law checked
by Monte Carlo on many short paths (`adversary-poly`).  Why each one is
in the set is written in BENCHMARK.json.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field

GEOMETRIC = {"type": "geometric", "q": 0.5, "truncate": 60}
ZIPF = {"type": "zipf", "s": 3, "truncate": 10_000}

# Pooled final-decile errors must stay below this on the JSON workloads.
# At these path lengths the estimators sit within a few hundredths of the
# exact conditional law; a broken estimator or scorer lands far above.
MAX_POOLED_MEDIAN_ERROR = 0.2


@dataclass(frozen=True)
class Workload:
    """One CLI invocation shape; `seed` is the only thing a run varies."""

    name: str
    command: str  # "evaluate" or "adversary"
    scheme: str
    params: dict = field(default_factory=dict)  # --gamma / --epsilon values
    law: dict | None = None
    length: int = 0
    replicates: int = 1
    format: str = "json"
    verify_reps: int = 1000

    def argv(self, seed: int) -> list[str]:
        """CLI arguments after `python -m renewalbench.cli`, without --out."""
        args = [self.command, "--scheme", self.scheme]
        for key, value in sorted(self.params.items()):
            args += [f"--{key}", repr(value)]
        if self.command == "evaluate":
            args += [
                "--law", json.dumps(self.law, sort_keys=True),
                "--length", str(self.length),
                "--replicates", str(self.replicates),
                "--seed", str(seed),
                "--format", self.format,
            ]
        else:
            args += ["--seed", str(seed), "--replicates", str(self.verify_reps)]
        return args

    def spec(self) -> dict:
        return asdict(self)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("poly-geom", "evaluate", "poly", {"gamma": 0.3}, GEOMETRIC, 200_000),
        Workload("eps-zipf", "evaluate", "eps", {"epsilon": 0.1}, ZIPF, 100_000),
        Workload("offline-csv", "evaluate", "offline", {}, GEOMETRIC, 100_000, format="csv"),
        Workload("adversary-poly", "adversary", "poly"),
    )
}


def input_bits(workload: Workload, payload: bytes) -> int:
    """Path bits the invocation was asked to process.

    For `evaluate` that is replicates x length.  For `adversary` it is
    the verification's share: reps paths, each covering positions
    0..N of the widest window the payload reports.
    """
    if workload.command == "evaluate":
        return workload.replicates * workload.length
    joint = json.loads(payload)["verify"]["conditions"][0]
    return joint["reps"] * (max(bound for _, bound in joint["windows"]) + 1)


def residual_means(spec: dict) -> list[float]:
    """Exact conditional mean residual at every age, computed here from
    the law's definition so the CSV check does not lean on the package."""
    K = spec["truncate"]
    if spec["type"] == "geometric":
        raw = [(1.0 - spec["q"]) * spec["q"] ** k for k in range(K)]
    else:
        raw = [(k + 1.0) ** -spec["s"] for k in range(K)]
    total = math.fsum(raw)
    probs = [p / total for p in raw]
    means = []
    for age in range(K):
        tail = math.fsum(probs[age:])
        means.append(math.fsum((k - age) * p for k, p in enumerate(probs[age:], start=age)) / tail)
    return means


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _check_stats(where: str, stats: dict, problems: list[str]) -> None:
    values = [stats[k] for k in ("median_abs_err", "p90_abs_err", "median_tv", "p90_tv")]
    if not all(math.isfinite(v) for v in values):
        problems.append(f"{where}: non-finite error statistics {values}")
        return
    if not 0.0 <= stats["median_abs_err"] <= stats["p90_abs_err"]:
        problems.append(f"{where}: abs_err quantiles out of order")
    if not 0.0 <= stats["median_tv"] <= stats["p90_tv"] <= 2.0:
        problems.append(f"{where}: L1 quantiles outside [0, 2] or out of order")


def _check_json_report(workload: Workload, seed: int, payload: bytes) -> list[str]:
    problems: list[str] = []
    report = json.loads(payload)
    config = report["config"]
    expected = {
        "scheme": workload.scheme,
        "length": workload.length,
        "replicates": workload.replicates,
        "base_seed": seed,
    }
    for key, value in expected.items():
        if config.get(key) != value:
            problems.append(f"config {key}={config.get(key)!r}, asked for {value!r}")
    for key, value in workload.params.items():
        if config["scheme_config"].get(key) != value:
            problems.append(f"scheme_config {key} differs from {value!r}")
    summaries = report["replicate_summaries"]
    if [s["replicate"] for s in summaries] != list(range(workload.replicates)):
        problems.append("replicate summaries are not 0..R-1")
    pooled_count = 0
    for s in summaries:
        where = f"replicate {s['replicate']}"
        count = s["event_count"]
        if count < 1:
            problems.append(f"{where}: no events")
            continue
        if s["firing_density"] != count / workload.length:
            problems.append(f"{where}: firing_density != event_count/length")
        decile = s["final_decile"]
        if decile["sample_count"] != math.ceil(count / 10):
            problems.append(f"{where}: final decile holds {decile['sample_count']}, expected ceil({count}/10)")
        pooled_count += decile["sample_count"]
        _check_stats(where, decile, problems)
    pooled = report["pooled"]
    if pooled["sample_count"] != pooled_count:
        problems.append("pooled sample_count is not the sum of the final deciles")
    _check_stats("pooled", pooled, problems)
    for key in ("median_abs_err", "median_tv"):
        if not pooled[key] < MAX_POOLED_MEDIAN_ERROR:
            problems.append(f"pooled {key} {pooled[key]} is not below {MAX_POOLED_MEDIAN_ERROR}")
    if report["records"]:
        problems.append("JSON report retained records it was not asked for")
    return problems


def _check_csv_report(workload: Workload, payload: bytes) -> list[str]:
    problems: list[str] = []
    text = payload.decode("ascii")
    # the CLI ends every payload with a newline, after the CSV writer's own
    if not text.endswith("\n\n"):
        return ["CSV payload does not end with the CLI's blank line"]
    rows = csv.reader(io.StringIO(text[:-1]))
    header = next(rows, None)
    if header != ["replicate", "scheme", "n", "lambda", "tau", "h", "theta", "abs_err", "tv"]:
        return [f"unexpected CSV header {header}"]
    theta = residual_means(workload.law)
    last = {}
    count = 0
    for line, row in enumerate(rows, start=2):
        replicate, scheme, n, lam, tau = int(row[0]), row[1], int(row[2]), int(row[3]), int(row[4])
        h, th, err, tv = (float(v) for v in row[5:])
        bad = []
        if scheme != workload.scheme or not 0 <= replicate < workload.replicates:
            bad.append("replicate/scheme")
        if n != lam or not 0 <= n < workload.length or n <= last.get(replicate, -1):
            bad.append("position order")
        if not 0 <= tau <= n or not _close(th, theta[tau]):
            bad.append(f"theta at age {tau}")
        if err != abs(h - th) or not 0.0 <= tv <= 2.0 + 1e-12 or h < 0.0:
            bad.append("abs_err/tv/h")
        if bad:
            problems.append(f"CSV line {line}: {', '.join(bad)}")
            if len(problems) >= 5:
                break
        last[replicate] = n
        count += 1
    if count == 0:
        problems.append("CSV report holds no rows")
    return problems


def _check_adversary(workload: Workload, payload: bytes) -> list[str]:
    problems: list[str] = []
    doc = json.loads(payload)
    if set(doc) != {"audit", "verify", "next_stage"}:
        return [f"adversary payload keys {sorted(doc)}"]
    audit = doc["audit"]
    if len(audit) != 1 or audit[0].get("stage") != 1:
        problems.append("audit does not hold exactly stage 1")
    else:
        stage = audit[0]
        markers = stage["markers"]
        if len(markers) != 2 or not 0 <= markers[0] < markers[1]:
            problems.append(f"stage-1 markers {markers} are not (L_0, N_1)")
        if not (stage["k"] >= 1 and 0.0 < stage["delta"] and "fooling" in stage and "tv" in stage):
            problems.append("stage-1 perturbation fields missing or invalid")
    verify = doc["verify"]
    if verify.get("reps") != workload.verify_reps or verify.get("stage") != 1:
        problems.append(f"verify ran {verify.get('reps')} reps at stage {verify.get('stage')}")
    names = [c.get("condition") for c in verify.get("conditions", [])]
    if names[:1] != ["joint_fooling"] or verify["conditions"][0].get("reps") != workload.verify_reps:
        problems.append(f"verify conditions {names}")
    if not isinstance(doc["next_stage"].get("advanced"), bool):
        problems.append("next_stage lacks the advanced flag")
    return problems


def check_payload(workload: Workload, seed: int, payload: bytes) -> list[str]:
    """Problems found in one payload; empty when it is correct."""
    try:
        if workload.command == "adversary":
            return _check_adversary(workload, payload)
        if workload.format == "csv":
            return _check_csv_report(workload, payload)
        return _check_json_report(workload, seed, payload)
    except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
        return [f"payload does not parse: {type(exc).__name__}: {exc}"]
