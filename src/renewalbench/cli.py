"""Command-line front door: law inspection, path simulation, experiment
runs, the adversarial stage construction, and a self-test.

Exit codes: 0 success, 1 usage error (bad flags or subcommand), 2
validation error (well-formed invocation, bad values) or an adversary
whose stage-1 search ran out of room, 3 self-test failure.  Every run
echoes the resolved configuration, seeds included; the echo goes to
stdout when the data payload is written to a file and to stderr when
the payload itself occupies stdout, so the payload bytes stay clean
either way.

Each subcommand imports only the modules it runs: the names the
evaluate and adversary handlers call load their home module on first
use (PEP 562), so `evaluate` never imports `adversary` and `adversary`
never imports `evaluation` (nor `csv`).  The handlers read those names
as attributes of this module, so a name replaced here with `setattr`
(by a test, or by bench/traced.py) is the one that gets called.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace

from .laws import law_from_json, law_info_text
from .paths import parse_start_mode, sample_path, dump_path
from .schemes import SCHEME_TAGS, SchemeConfig

# The names a handler loads on first use (evaluation's, then the
# adversary's), each through the package, which knows its home module.
_LAZY = (
    "ExperimentConfig", "emit_report", "run_experiment",
    "BudgetExhausted", "advance_stage", "audit_json", "stage0", "verify_stage",
)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[__package__], name)
    globals()[name] = value
    return value


# This module, whose attributes the handlers read: a bare global name
# would not reach __getattr__.
_cli = sys.modules[__name__]

# evaluate keeps records (for CSV export, or with keep_records) only up
# to this many path positions: it retains every scored record, as seven
# numeric columns (48 B per record; time and age take 4 bytes each),
# until it writes them
MAX_CSV_POSITIONS = 2_000_000

# The adversary's schemes by tag (adversary._TAGS, spelled out so that
# building the parser imports no adversary).  A runner is its tag;
# bench/traced.py wraps the values in place, and nothing calls them.
_ADVERSARY_RUNNERS = {tag: tag for tag in ("poly", "log", "eps")}


class _Parser(argparse.ArgumentParser):
    # the contract reserves exit code 2 for validation; usage errors
    # (argparse's default 2) must come back as 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_law(text: str):
    text = text.strip()
    if not text.startswith("{"):
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read()
    return law_from_json(text)


def _emit(write, out: str | None, resolved: dict) -> None:
    """Write the payload with write(stream), then a trailing newline."""
    echo = "# config " + json.dumps(resolved, sort_keys=True)
    if out:
        with open(out, "wb") as fh:
            write(fh)
            fh.write(b"\n")
        print(echo)
    else:
        print(echo, file=sys.stderr)
        write(sys.stdout.buffer)
        sys.stdout.buffer.write(b"\n")
        sys.stdout.buffer.flush()


def _cmd_law_info(args) -> int:
    law = _load_law(args.law)
    payload = law_info_text(law).encode()
    _emit(lambda fh: fh.write(payload), args.out, {"law": law.provenance})
    return 0


def _cmd_simulate(args) -> int:
    law = _load_law(args.law)
    if args.length < 1:
        raise ValueError(f"length must be >= 1, got {args.length}")
    if not args.out:
        raise ValueError("simulate writes its path to a file; --out is required")
    mode = parse_start_mode(args.mode)
    path = sample_path(law, args.length - 1, mode, seed=args.seed, stream=0)
    dump_path(path, args.out)
    print(
        "# config "
        + json.dumps(
            {
                "law": law.provenance,
                "length": args.length,
                "mode": mode.value,
                "seed": args.seed,
                "stream": 0,
                "out": args.out,
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_evaluate(args) -> int:
    base: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ValueError("config file must hold a JSON object")
    if args.law:
        base["law"] = _load_law(args.law).provenance
    if args.scheme:
        base["scheme"] = args.scheme
    if args.length is not None:
        base["length"] = args.length
    if args.replicates is not None:
        base["replicates"] = args.replicates
    if args.seed is not None:
        base["base_seed"] = args.seed
    if args.mode:
        base["start_mode"] = args.mode
    # --format wins over the config's format, which the echo records
    fmt = base.pop("format", "json")
    fmt = args.format or fmt
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    scheme_config = base.get("scheme_config", {})
    if not isinstance(scheme_config, dict):
        raise ValueError(f"scheme_config must be a JSON object, got {scheme_config!r}")
    if args.gamma is not None:
        scheme_config["gamma"] = args.gamma
    if args.epsilon is not None:
        scheme_config["epsilon"] = args.epsilon
    if args.alpha is not None:
        scheme_config["declared_alpha"] = args.alpha
    base["scheme_config"] = scheme_config
    for key in ("law", "scheme", "length"):
        if key not in base:
            raise ValueError(f"evaluate needs {key!r} from --config or flags")
    config = _cli.ExperimentConfig.from_json_dict(base)
    if fmt == "csv" and not config.keep_records:
        config = replace(config, keep_records=True)
    if config.keep_records and config.replicates * config.length > MAX_CSV_POSITIONS:
        raise ValueError(
            "a run that keeps records (CSV export or keep_records) retains every "
            f"event record; limit replicates*length to {MAX_CSV_POSITIONS}, or write "
            "JSON without keep_records"
        )
    report = _cli.run_experiment(config)
    resolved = config.to_json_dict()
    resolved["format"] = fmt
    _emit(lambda fh: _cli.emit_report(report, fmt, fh), args.out, resolved)
    return 0


def _cmd_adversary(args) -> int:
    gamma = args.gamma
    epsilon = args.epsilon
    if args.scheme in ("poly", "log") and gamma is None:
        gamma = 0.3
    if args.scheme == "eps" and epsilon is None:
        epsilon = 0.1
    config = SchemeConfig(gamma=gamma, epsilon=epsilon)
    reps = args.replicates if args.replicates is not None else 2000
    if reps < 100:  # verify_stage's floor, checked before the stage-1 search
        raise ValueError(f"need at least 100 reps, got {reps}")
    seed = args.seed
    try:
        state = _cli.advance_stage(_cli.stage0(), args.scheme, config, seed=seed)
    except _cli.BudgetExhausted as exc:
        print(f"error: stage 1: {exc.constraint}: {exc}", file=sys.stderr)
        return 2
    verify = _cli.verify_stage(state, args.scheme, config, reps=reps, seed=seed + 58_000_001)
    try:
        further = _cli.advance_stage(state, args.scheme, config, seed=seed + 1)
        next_stage = {"advanced": True, "audit": json.loads(_cli.audit_json(further))}
    except _cli.BudgetExhausted as exc:
        next_stage = {"advanced": False, "constraint": exc.constraint, "detail": str(exc)}
    resolved = {
        "scheme": args.scheme,
        "scheme_config": asdict(config),
        "seed": seed,
        "verify_reps": reps,
        "verify_seed": seed + 58_000_001,
    }
    payload = json.dumps(
        {
            "audit": json.loads(_cli.audit_json(state)),
            "verify": verify,
            "next_stage": next_stage,
        },
        indent=2,
        sort_keys=True,
    ).encode()
    _emit(lambda fh: fh.write(payload), args.out, resolved)
    return 0


def _cmd_selftest(args) -> int:
    from .selfcheck import run_selftest  # only this subcommand runs it

    failures = run_selftest()
    return 3 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="renewalbench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("law-info", _cmd_law_info, "print mean, zero frequency, and the residual table")
    p.add_argument("--law", required=True, help="law JSON (inline or a file path)")
    p.add_argument("--out", help="write the table here instead of stdout")

    p = add("simulate", _cmd_simulate, "sample one path and write it as a line of 0/1 digits")
    p.add_argument("--law", required=True, help="law JSON (inline or a file path)")
    p.add_argument("--length", type=int, required=True, help="number of positions")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--mode", choices=["stationary", "renewal"], default="stationary",
        help="start from the stationary window law or at a renewal",
    )
    p.add_argument(
        "--out", required=True,
        help="dump file: one ASCII line of 0/1 digits, plus a JSON sidecar at <out>.json",
    )

    p = add("evaluate", _cmd_evaluate, "run a replicated experiment and write the report")
    p.add_argument("--config", help="experiment config JSON file; flags override it")
    p.add_argument("--law", help="law JSON (inline or a file path)")
    p.add_argument("--scheme", choices=SCHEME_TAGS)
    p.add_argument("--gamma", type=float, help="exponent for poly/log firing thresholds")
    p.add_argument("--epsilon", type=float, help="occupancy slack for the eps scheme")
    p.add_argument("--alpha", type=float, help="declared power-moment order (warnings only)")
    p.add_argument("--seed", type=int, help="base seed; replicate r uses stream r")
    p.add_argument("--replicates", type=int)
    p.add_argument("--length", type=int, help="positions per replicate")
    p.add_argument("--mode", choices=["stationary", "renewal"])
    p.add_argument("--format", choices=["csv", "json"], help="defaults to the config's format, else json")
    p.add_argument("--out", help="write the report here instead of stdout")

    p = add("adversary", _cmd_adversary, "build stage 1, verify it, and probe the next stage")
    p.add_argument("--scheme", choices=list(_ADVERSARY_RUNNERS), default="poly")
    p.add_argument("--gamma", type=float, help="defaults to 0.3 for poly/log")
    p.add_argument("--epsilon", type=float, help="defaults to 0.1 for eps")
    p.add_argument("--seed", type=int, default=0, help="stage-search seed")
    p.add_argument("--replicates", type=int, help="verification reps (default 2000)")
    p.add_argument("--out", help="write the audit JSON here instead of stdout")

    add("selftest", _cmd_selftest, "run the curated oracle and invariant checks")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed the message already
        code = exc.code
        return code if isinstance(code, int) else 1
    try:
        return args.handler(args)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
