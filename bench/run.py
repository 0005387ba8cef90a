"""renewalbench benchmark: one workload, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package under test is the
checkout's `src/renewalbench`, started through its CLI in a fresh
single-threaded process per invocation.

--trace 0 times the CLI with no wrappers: it sets up the package several
times (`setup_s`), then repeats the seeded invocation and reports
medians.  Each timed child is paired with bench/reference.py, a fixed
program timed before and after it, and its time is scaled to a machine
on which the reference takes REFERENCE_S (see Pace); the unscaled
medians are printed and kept in the record.  The set-up probes count
against the S seconds.  --trace 1 alternates an untraced CLI invocation
with bench/traced.py, which runs the same CLI in process with a span
around each call one package module makes into another, and reports
per-layer numbers.  Both modes check every payload (see workloads.py),
and that every invocation of one argv yields the same bytes.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A fuller record, with the machine ledger and every sample, goes to
.bench_build/results/.  bench/smoke.py tests the benchmark itself on
tiny inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Workload, check_payload, input_bits

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "renewalbench"
OUT = ROOT / ".bench_build"

MIN_SAMPLES = 3  # timed CLI invocations per untraced run, at least
MIN_TRACED = 2  # traced invocations per traced run, so counts can be compared
SETUP_PROBES = 5
# Time metrics are scaled to a machine on which bench/reference.py, as a
# fresh process, takes this long: about its median on the 2-core Xeon the
# benchmark was written on, where it took 0.28 s in fast spells and
# 0.42 s in slow ones.
REFERENCE_S = 0.35
CHILD_TIMEOUT_S = 170
# per-layer units that count work; these must repeat exactly across runs
EXACT_UNITS = {"count", "count/bit", "count/event", "ratio", "B"}

# Runs in a fresh interpreter: time to import the package and build the
# workload's law, plus what the ledger needs from the child's side.
SETUP_PROBE = """
import json, sys, time
start = time.perf_counter()
import renewalbench
from renewalbench import adversary, laws
law = adversary.stage0() if sys.argv[1] == "adversary" else laws.make_law(json.loads(sys.argv[2]))
setup_s = time.perf_counter() - start
import numpy
print(json.dumps({"setup_s": setup_s, "module": renewalbench.__file__, "numpy": numpy.__version__}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


@dataclass
class Sample:
    """One child process: its wall time, peak RSS and verdict."""

    wall_s: float
    rss_mb: float
    ok: bool
    sha256: str = ""
    problems: list = field(default_factory=list)


def spawn(args: list[str], stdout, stderr) -> tuple[float, float, int]:
    """Run `python args...` to completion; wall seconds, peak RSS in MB
    of that process alone, exit code.  Killed after CHILD_TIMEOUT_S."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=child_env(),
        stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr,
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Pace:
    """How fast the machine runs, from bench/reference.py timed before
    and after each timed child.  factor() scales the child timed since
    the previous call to a machine where the reference takes REFERENCE_S;
    on a shared machine this takes out most of the run-to-run drift."""

    def __init__(self):
        self.times = [self._reference()]

    @staticmethod
    def _reference() -> float:
        wall, _, code = spawn([str(BENCH / "reference.py")], subprocess.DEVNULL, subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError(f"reference program exited {code}")
        return wall

    def factor(self) -> float:
        self.times.append(self._reference())
        return REFERENCE_S / statistics.mean(self.times[-2:])


class Runner:
    """Invokes the CLI for one workload and checks what comes back."""

    def __init__(self, workload: Workload, expected: dict, corrupt=None):
        self.workload = workload
        self.expected = expected
        self.corrupt = corrupt  # test hook: payload bytes -> damaged bytes
        self.checked: dict[str, list[str]] = {}
        self.digests: dict[int, str] = {}  # seed -> payload digest of its first invocation
        self.payload_file = OUT / "tmp" / f"{workload.name}.payload"
        self.stderr_file = OUT / "tmp" / f"{workload.name}.stderr"
        self.attempted = 0
        self.failed = 0
        self.bits = 0

    def _verdict(self, sample: Sample) -> Sample:
        self.attempted += 1
        if not sample.ok:
            self.failed += 1
        return sample

    def _stderr_tail(self) -> str:
        return self.stderr_file.read_text(errors="replace").strip()[-400:]

    def cli(self, seed: int) -> Sample:
        """One untraced invocation, its payload checked."""
        argv = ["-m", "renewalbench.cli", *self.workload.argv(seed), "--out", str(self.payload_file)]
        self.payload_file.unlink(missing_ok=True)
        with open(self.stderr_file, "wb") as err:
            wall, rss, code = spawn(argv, subprocess.DEVNULL, err)
        if code != 0:
            return self._verdict(Sample(wall, rss, False, problems=[f"exit {code}: {self._stderr_tail()}"]))
        payload = self.payload_file.read_bytes()
        if self.corrupt is not None:
            payload = self.corrupt(payload)
        digest = hashlib.sha256(payload).hexdigest()
        if digest not in self.checked:
            self.checked[digest] = check_payload(self.workload, seed, payload)
            self.bits = input_bits(self.workload, payload) if not self.checked[digest] else 0
        problems = self.checked[digest] + self._repeat(seed, digest)
        return self._verdict(Sample(wall, rss, not problems, digest, problems))

    def _repeat(self, seed: int, digest: str) -> list[str]:
        """Every invocation of one argv must give the same payload bytes."""
        first = self.digests.setdefault(seed, digest)
        return [] if digest == first else [f"payload {digest} differs from the first one of this argv, {first}"]

    def pinned(self) -> Sample | None:
        """The invocation whose payload digest is recorded in
        expected.json, when this workload has one at this size."""
        entry = self.expected.get(self.workload.name)
        if not entry or entry["argv"] != self.workload.argv(entry["seed"]):
            return None
        sample = self.cli(entry["seed"])
        if sample.ok and sample.sha256 != entry["sha256"]:
            sample.ok = False
            sample.problems.append(f"payload sha256 {sample.sha256} != recorded {entry['sha256']}")
            self.failed += 1
        return sample

    def setup(self) -> dict:
        """Import the package and build the law in a fresh process."""
        law = json.dumps(self.workload.law or {})
        result = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, self.workload.command, law],
            cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if result.returncode != 0:
            raise RuntimeError(f"setup probe failed: {result.stderr.strip()[-400:]}")
        probe = json.loads(result.stdout)
        if not Path(probe["module"]).resolve().is_relative_to(PACKAGE.resolve()):
            raise RuntimeError(f"imported {probe['module']}, not the package under {PACKAGE}")
        return probe

    def traced(self, seed: int, run_id: int) -> tuple[Sample, dict]:
        """One traced in-process run (bench/traced.py) in a fresh process."""
        out = OUT / "trace" / f"{self.workload.name}-seed{seed}-run{run_id}.json"
        out.unlink(missing_ok=True)
        args = [str(BENCH / "traced.py"), json.dumps(self.workload.spec()), str(seed), str(run_id), str(out)]
        with open(self.stderr_file, "wb") as err:
            wall, rss, code = spawn(args, subprocess.DEVNULL, err)
        if code != 0:
            return self._verdict(Sample(wall, rss, False, problems=[f"traced exit {code}: {self._stderr_tail()}"])), {}
        trace = json.loads(out.read_text())
        trace["file"] = str(out.with_suffix(".spans.json").relative_to(ROOT))
        problems = self._repeat(seed, trace["payload_sha256"])
        return self._verdict(Sample(wall, rss, not problems, trace["payload_sha256"], problems)), trace


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def ledger(workload: Workload, seed: int, probe: dict) -> dict:
    """The machine and code a result was measured on."""
    git_sha = None
    try:
        # the ceiling keeps git from taking a repository above the checkout for ours
        head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        if head.returncode == 0:
            git_sha = head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    src = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu_model
            )
    except OSError:
        pass
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": probe.get("numpy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "workload": workload.name,
        "seed": seed,
        "argv": ["python3", "-m", "renewalbench.cli", *workload.argv(seed)],
    }


def measure_untraced(runner: Runner, seed: int, seconds: float, units: dict) -> tuple[dict, dict]:
    """Time metrics are medians of each child's time times its pace
    factor; the raw medians go to the record and the report."""
    start = time.perf_counter()
    pinned = runner.pinned()
    pace = Pace()
    setups, setup = [], []
    for _ in range(SETUP_PROBES):
        setups.append(runner.setup())
        setup.append(setups[-1]["setup_s"] * pace.factor())
    head = time.perf_counter() - start
    samples: list[Sample] = []
    factors: list[float] = []
    while True:
        samples.append(runner.cli(seed))
        factors.append(pace.factor())
        elapsed = time.perf_counter() - start
        cycle = (elapsed - head) / len(samples)
        if len(samples) >= MIN_SAMPLES and elapsed + cycle > seconds:
            break
    good = [(s, f) for s, f in zip(samples, factors) if s.ok]
    problems = [p for s in samples + ([pinned] if pinned else []) for p in s.problems]
    walls = [s.wall_s * f for s, f in good] or [0.0]
    raw = [s.wall_s for s, _ in good] or [0.0]
    wall = statistics.median(walls)
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "bits_per_s": runner.bits / wall if wall else 0.0,
        "peak_rss_mb": statistics.median(s.rss_mb for s, _ in good) if good else 0.0,
    }
    detail = {
        "probe": setups[0],
        "problems": problems,
        "pinned": pinned.__dict__ if pinned else None,
        "samples": [dict(s.__dict__, factor=f) for s, f in zip(samples, factors)],
        "setup_samples": setup,
        "raw_setup_s": [p["setup_s"] for p in setups],
        "reference_s": pace.times,
        "raw": {"wall_s": statistics.median(raw), "setup_s": statistics.median(p["setup_s"] for p in setups)},
        "sample_counts": {"wall_s": len(good), "setup_s": len(setup), "bits_per_s": len(good), "peak_rss_mb": len(good)},
        "quartiles": {"wall_s": quartiles(walls), "setup_s": quartiles(setup)},
        "input_bits": runner.bits,
        "failed_frac": runner.failed / runner.attempted,
    }
    return {name: values[name] for name in units}, detail


def measure_traced(runner: Runner, seed: int, seconds: float, units: dict) -> tuple[dict, dict]:
    start = time.perf_counter()
    probe = runner.setup()
    pinned = runner.pinned()
    head = time.perf_counter() - start
    plain: list[Sample] = []
    traced: list[tuple[Sample, dict]] = []
    while True:
        plain.append(runner.cli(seed))
        traced.append(runner.traced(seed, len(traced)))
        elapsed = time.perf_counter() - start
        pair = (elapsed - head) / len(traced)
        if len(traced) >= MIN_TRACED and elapsed + pair > seconds:
            break
    problems = [p for s in plain + [t[0] for t in traced] + ([pinned] if pinned else []) for p in s.problems]
    traces = [t for s, t in traced if s.ok]
    walls = [s.wall_s for s, t in traced if s.ok]
    values = {}
    for name, unit in units.items():
        if name == "cli.unattributed_s":
            # interpreter start, imports and exit: the traced process
            # outside cli.main and outside traced.py's own work
            values[name] = (
                statistics.median(w - (t["cli_ns"] + t["own_ns"]) / 1e9 for w, t in zip(walls, traces))
                if traces
                else 0.0
            )
        elif name == "trace.overhead_s":
            untraced = [s.wall_s for s in plain if s.ok]
            values[name] = (
                statistics.median(w - t["own_ns"] / 1e9 for w, t in zip(walls, traces)) - statistics.median(untraced)
                if traces and untraced
                else 0.0
            )
        elif unit in EXACT_UNITS:
            seen = {t["metrics"][name] for t in traces}
            if len(seen) > 1:
                problems.append(f"{name} differs across traced runs: {sorted(seen)}")
            values[name] = traces[0]["metrics"][name] if traces else 0
        else:
            values[name] = statistics.median(t["metrics"][name] for t in traces) if traces else 0.0
    detail = {
        "probe": probe,
        "problems": problems,
        "pinned": pinned.__dict__ if pinned else None,
        "untraced_samples": [s.__dict__ for s in plain],
        "traced_samples": [dict(s.__dict__, trace_file=t.get("file")) for s, t in traced],
        "sample_counts": {name: len(traces) for name in units},
        "failed_frac": runner.failed / runner.attempted,
    }
    return values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package to benchmark at {PACKAGE}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    expected = json.loads((BENCH / "expected.json").read_text())
    workload = WORKLOADS[args.workload]
    result = run(workload, args.seed, args.seconds, args.trace, units, expected)
    return 0 if result["correct"] else 1


def run(workload: Workload, seed: int, seconds: float, trace: int, units: dict, expected: dict, corrupt=None) -> dict:
    """Measure, check, print the report and the result line; return it."""
    for sub in ("tmp", "trace", "results"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, expected, corrupt)
    measure = measure_traced if trace else measure_untraced
    values, detail = measure(runner, seed, seconds, units)
    book = ledger(workload, seed, detail["probe"])
    correct = runner.failed == 0 and not detail["problems"]
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = OUT / "results" / f"{workload.name}-seed{seed}-trace{trace}.json"
    record.write_text(json.dumps({"ledger": book, "result": result, "detail": detail}, indent=1, default=str))

    print(f"# renewalbench bench: workload={workload.name} seed={seed} trace={trace} seconds={seconds:g}")
    print("# ledger " + json.dumps(book, sort_keys=True))
    for name, unit in units.items():
        line = f"{name:34s} {values[name]:>16.6g} {unit:12s} n={detail['sample_counts'][name]}"
        if name in detail.get("quartiles", {}):
            q1, _, q3 = detail["quartiles"][name]
            line += f"  q1={q1:.6g} q3={q3:.6g}"
        print(line)
    print(f"{'failed_frac':34s} {detail['failed_frac']:>16.6g} {'ratio':12s} n={runner.attempted}")
    for name, value in detail.get("raw", {}).items():
        print(f"# unscaled {name} {value:.6g} s; reference median {statistics.median(detail['reference_s']):.6g} s")
    for problem in detail["problems"]:
        print(f"# problem: {problem}")
    print(f"# record {record.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)
    return result


if __name__ == "__main__":
    sys.exit(main())
