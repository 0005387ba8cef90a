"""Smoke test of the benchmark itself, on tiny inputs.

    python3 bench/smoke.py

Runs every workload at a tiny size, untraced and traced, and checks that
each metric BENCHMARK.json names is reported with its unit.  Then feeds
the checks damaged payloads and confirms each is counted as a failure:
a wrong value in every payload, one payload that differs from the
others of its argv, and a digest that does not match the recorded one.
Exits 0 when every expectation holds.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run
from workloads import WORKLOADS

TINY = {
    "poly-geom": {"length": 4000},
    "eps-zipf": {"length": 4000},
    "offline-csv": {"length": 2000},
    "adversary-poly": {"verify_reps": 100},
}
SEED = 1


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(what: str, holds: bool) -> None:
        print(f"# smoke: {'ok  ' if holds else 'FAIL'} {what}", flush=True)
        if not holds:
            failures.append(what)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            result = run.run(tiny(name), SEED, 0, trace, units, {})
            reported = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(f"{name} trace={trace} is correct", result["correct"] and result["failed"] == 0)
            expect(f"{name} trace={trace} reports every metric with its unit", reported == units)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    workload = tiny("poly-geom")

    def wrong_count(payload: bytes) -> bytes:
        return payload.replace(b'"event_count": ', b'"event_count": 1', 1)

    result = run.run(workload, SEED, 0, 0, units, {}, corrupt=wrong_count)
    expect("a wrong value in every payload fails every invocation",
           not result["correct"] and result["failed"] == result["attempted"])

    calls = []

    def second_differs(payload: bytes) -> bytes:
        calls.append(None)
        return payload + b" " if len(calls) == 2 else payload

    result = run.run(workload, SEED, 0, 0, units, {}, corrupt=second_differs)
    expect("a payload that differs from its argv's first is a failure",
           not result["correct"] and result["failed"] == 1)

    recorded = {workload.name: {"seed": 0, "argv": workload.argv(0), "sha256": "0" * 64}}
    result = run.run(workload, SEED, 0, 0, units, recorded)
    expect("a digest that differs from the recorded one is a failure",
           not result["correct"] and result["failed"] == 1)

    print(f"# smoke: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
