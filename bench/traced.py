"""Traced in-process run of one benchmark workload.

run.py starts this script as a fresh process, with PYTHONPATH pointing
at the package under test:

    python3 bench/traced.py SPEC_JSON SEED RUN_ID OUT_JSON

It runs `renewalbench.cli.main` on the workload's argv, as the untraced
CLI does, and records a span around every call that one package module
makes into another: name, start, end, parent span, workload and run id.
The calls are timed by wrapping the imported name in the calling module,
from this file; nothing in the package changes.  Spans stay in memory.
At exit they are written next to OUT_JSON, and OUT_JSON gets the payload
digest, the per-layer numbers and the time this script spent on its own
work (feed pass, metrics, flush), so run.py can leave it out.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from contextlib import contextmanager
from itertools import islice
from pathlib import Path

from renewalbench import adversary, cli, evaluation, schemes
from renewalbench.runindex import RunIndex

from workloads import Workload

now = time.perf_counter_ns

# Events pulled from a scheme per timed batch; run_experiment scores
# them in stream, as untraced.  Batches of 1024 kept enough events alive
# to add over a second of garbage-collector work on poly-geom that the
# untraced run does not do; at 32 trace.overhead_s is 0.1-0.2 s there.
BATCH = 32

# Bits of sampled paths kept for the separate RunIndex feed pass.
FEED_SAMPLE_BITS = 1 << 20

# Spans that time this script's own bookkeeping: children of a layer's
# span, so they leave its self time, but counted in no layer.
BENCH = "bench"


class Tracer:
    """Spans in memory.  A span's `busy` is the time spent inside the
    layer; it equals end - start except for scheme iterators advanced
    one event at a time, whose time is summed over those calls."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def _open(self, name: str) -> dict:
        start = now()
        record = {
            "id": len(self.spans),
            "name": name,
            "start": start,
            "end": start,
            "busy": 0,
            "parent": self._stack[-1]["id"] if self._stack else None,
        }
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = now()
            record["busy"] = record["end"] - record["start"]

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace owner.attr by a traced call; note(span, result, *args)
        runs in a bookkeeping span after the layer's span closes."""
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = inner(*args, **kwargs)
            if note is not None:
                with self.span(BENCH):
                    note(record, result, *args)
            return result

        setattr(owner, attr, traced)

    def batched(self, make):
        """A scheme iterator whose events are pulled in timed batches;
        the counting runs in a bookkeeping span."""

        def pulled(bits, *args):
            with self.span("schemes.pass") as record:
                rows = make(bits, *args)
            record["bits"] = len(bits)
            while True:
                with self.span("schemes.pass") as record:
                    batch = list(islice(rows, BATCH))
                with self.span(BENCH):
                    record["events"] = len(batch)
                    record["bins"] = sum(len(e.residual_counts) for e in batch)
                    record["undefined"] = sum(
                        1 for e in batch if isinstance(e, schemes.OfflineEstimate) and not e.defined
                    )
                if not batch:
                    return
                yield from batch

        return pulled

    def runner(self, make):
        """A scheme runner whose events are timed one `next` at a time,
        for consumers that stop early (the adversary's Monte Carlo)."""

        def run(bits, config):
            record = self._open("schemes.pass")
            events = make(bits, config)
            record["end"] = now()
            record["busy"] = record["end"] - record["start"]
            record.update(bits=len(bits), events=0, bins=0)
            return _TimedEvents(events, record)

        return run


class _TimedEvents:
    __slots__ = ("events", "record")

    def __init__(self, events, record):
        self.events = events
        self.record = record

    def __iter__(self):
        return self

    def __next__(self):
        record = self.record
        start = now()
        try:
            event = next(self.events)
        finally:
            record["end"] = now()
            record["busy"] += record["end"] - start
        record["events"] += 1
        record["bins"] += len(event.residual_counts)
        return event


def instrument(tracer: Tracer, kept: list) -> None:
    """Wrap every call the CLI's evaluate and adversary paths make from
    one package module into another."""
    held = [0]

    def keep(record, path, *args):
        record["bits"] = len(path.bits)
        if held[0] < FEED_SAMPLE_BITS:
            kept.append(path.bits)
            held[0] += len(path.bits)

    def retained(record, payload, report, *args):
        record["records"] = len(report.records)

    def fooling(record, result, *args):
        record.update(reps=result.reps, executed=result.executed_reps)

    def verified(record, result, *args):
        record["paths"] = result["reps"]

    tracer.wrap(cli, "law_from_json", "laws.make_law")
    tracer.wrap(cli, "run_experiment", "evaluation.run_experiment")
    tracer.wrap(cli, "emit_report", "evaluation.emit_report", retained)
    tracer.wrap(cli, "stage0", "adversary.stage0")
    tracer.wrap(cli, "advance_stage", "adversary.advance_stage")
    tracer.wrap(cli, "verify_stage", "adversary.verify_stage", verified)
    tracer.wrap(cli, "audit_json", "adversary.audit_json")
    for name, make in list(cli._ADVERSARY_RUNNERS.items()):
        cli._ADVERSARY_RUNNERS[name] = tracer.runner(make)

    tracer.wrap(evaluation, "make_law", "laws.make_law")
    tracer.wrap(evaluation, "sample_path", "paths.sample_path", keep)
    evaluation.iter_offline = tracer.batched(evaluation.iter_offline)
    for name, make in list(evaluation._SCHEME_ITERATORS.items()):
        evaluation._SCHEME_ITERATORS[name] = tracer.batched(make)
    tracer.wrap(evaluation, "_final_decile", "evaluation.aggregate")
    tracer.wrap(evaluation.AggregateStats, "from_arrays", "evaluation.aggregate")

    tracer.wrap(adversary, "make_law", "laws.make_law")
    tracer.wrap(adversary, "perturb", "laws.perturb")
    tracer.wrap(adversary, "sample_path", "paths.sample_path", keep)
    tracer.wrap(adversary, "fooling_probability", "adversary.fooling_probability", fooling)
    tracer.wrap(adversary, "tv_prefix_exact", "adversary.tv_prefix_exact")


def feed_pass(tracer: Tracer, kept: list, track_ages: bool) -> None:
    """RunIndex cost per bit, as a pass of its own: the schemes own their
    index, so its share of a scheme pass cannot be timed from outside."""
    for bits in kept:
        positions = bits.tolist()
        with tracer.span("runindex.feed") as record:
            feed = RunIndex(track_ages=track_ages).feed
            for bit in positions:
                feed(bit)
        record["bits"] = len(positions)


def layer_metrics(spans: list[dict], payload_bytes: int) -> dict:
    """Per-layer numbers from the spans: totals, counts and self times."""
    child_busy = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_busy[s["parent"]] += s["busy"]
    busy, own, calls, attr, self_ns = {}, {}, {}, {}, {}
    for s in spans:
        name = s["name"]
        busy[name] = busy.get(name, 0) + s["busy"]
        own[name] = own.get(name, 0) + s["busy"] - child_busy[s["id"]]
        calls[name] = calls.get(name, 0) + 1
        for key in ("bits", "events", "bins", "undefined", "reps", "executed", "paths", "records"):
            if key in s:
                attr[(name, key)] = attr.get((name, key), 0) + s[key]
    for name, ns in own.items():
        layer = name.split(".")[0]
        self_ns[layer] = self_ns.get(layer, 0) + ns

    def ratio(a, b):
        return a / b if b else 0.0

    def total(name, key):
        return attr.get((name, key), 0)

    events = total("schemes.pass", "events")
    scored = events - total("schemes.pass", "undefined")
    return {
        "laws.build_ms": busy.get("laws.make_law", 0) / 1e6,
        "laws.perturb_calls": calls.get("laws.perturb", 0),
        "laws.perturb_ms": busy.get("laws.perturb", 0) / 1e6,
        "laws.self_s": self_ns.get("laws", 0) / 1e9,
        "paths.sample_calls": calls.get("paths.sample_path", 0),
        "paths.sample_ns_per_bit": ratio(busy.get("paths.sample_path", 0), total("paths.sample_path", "bits")),
        "paths.sample_us_per_call": ratio(busy.get("paths.sample_path", 0) / 1e3, calls.get("paths.sample_path", 0)),
        "paths.self_s": self_ns.get("paths", 0) / 1e9,
        "runindex.feed_ns_per_bit": ratio(busy.get("runindex.feed", 0), total("runindex.feed", "bits")),
        "schemes.pass_ns_per_bit": ratio(busy.get("schemes.pass", 0), total("schemes.pass", "bits")),
        "schemes.events": events,
        "schemes.events_per_bit": ratio(events, total("schemes.pass", "bits")),
        "schemes.offline_undefined_rows": total("schemes.pass", "undefined"),
        "schemes.hist_bins_per_event": ratio(total("schemes.pass", "bins"), scored),
        "schemes.self_s": self_ns.get("schemes", 0) / 1e9,
        # run_experiment's own time, once sampling, the scheme pass and
        # aggregation are taken out, is its fused scoring loop
        "evaluation.score_us_per_event": ratio(own.get("evaluation.run_experiment", 0) / 1e3, scored),
        "evaluation.aggregate_ms": busy.get("evaluation.aggregate", 0) / 1e6,
        "evaluation.emit_s": busy.get("evaluation.emit_report", 0) / 1e9,
        "evaluation.emit_bytes": payload_bytes if "evaluation.emit_report" in busy else 0,
        "evaluation.records_retained": total("evaluation.emit_report", "records"),
        "evaluation.self_s": self_ns.get("evaluation", 0) / 1e9,
        "adversary.fooling_s": busy.get("adversary.fooling_probability", 0) / 1e9,
        "adversary.fooling_paths": total("adversary.fooling_probability", "reps"),
        "adversary.fooling_executed_ratio": ratio(
            total("adversary.fooling_probability", "executed"),
            total("adversary.fooling_probability", "reps"),
        ),
        "adversary.tv_prefix_s": busy.get("adversary.tv_prefix_exact", 0) / 1e9,
        "adversary.tv_prefix_calls": calls.get("adversary.tv_prefix_exact", 0),
        "adversary.verify_s": busy.get("adversary.verify_stage", 0) / 1e9,
        "adversary.verify_paths": total("adversary.verify_stage", "paths"),
        "adversary.self_s": self_ns.get("adversary", 0) / 1e9,
        "cli.self_s": self_ns.get("cli", 0) / 1e9,
    }


def main(argv: list[str]) -> int:
    spec, seed, run_id, out = json.loads(argv[1]), int(argv[2]), int(argv[3]), Path(argv[4])
    workload = Workload(**spec)
    payload_file = out.with_suffix(".payload")
    tracer = Tracer()
    kept: list = []
    instrument(tracer, kept)
    with tracer.span("cli.main") as root:
        code = cli.main([*workload.argv(seed), "--out", str(payload_file)])
    own_start = now()
    if code != 0:
        return code
    payload = payload_file.read_bytes()
    payload_file.unlink()
    feed_pass(tracer, kept, track_ages=workload.scheme == "eps")
    spans = tracer.spans
    metrics = layer_metrics(spans, len(payload))
    named = [dict(s, workload=workload.name, run=run_id) for s in spans]
    out.with_suffix(".spans.json").write_text(json.dumps(named))
    own_ns = now() - own_start

    result = {
        "workload": workload.name,
        "run": run_id,
        "seed": seed,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "metrics": metrics,
        "cli_ns": root["busy"],
        "own_ns": own_ns,
    }
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
