"""Command-line driver: subcommand behavior, exit codes, determinism."""

import csv
import fnmatch
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import renewalbench
from renewalbench import adversary, cli, evaluation, laws, selfcheck
from renewalbench.adversary import BudgetExhausted
from renewalbench.cli import main
from renewalbench.evaluation import CSV_COLUMNS, report_from_json
from renewalbench.paths import load_path
from renewalbench.schemes import SCHEME_TAGS

P2_LAW = '{"type":"explicit","p":[0,0,1]}'
GEOM_LAW = '{"type":"geometric","q":0.5,"truncate":60}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args, cwd=None):
    """Run a fresh interpreter on the package under test."""
    src = str(Path(renewalbench.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


class TestLawInfo:
    def test_two_run_law_table(self, capsys):
        code, out, err = run_cli(capsys, "law-info", "--law", P2_LAW)
        assert code == 0
        assert "mean run     : 2.0" in out
        assert "0.3333333333333333" in out
        lines = [l for l in out.splitlines() if l.strip().startswith("1 ")]
        assert any(line.split()[-1] == "1" for line in lines)  # residual mean at age 1
        assert out.startswith("# config ") or err.startswith("# config ")

    def test_unreachable_ages_are_named(self, capsys):
        # every run is empty, so no position has age 1 or 2
        code, out, _ = run_cli(capsys, "law-info", "--law", '{"type":"explicit","p":[1,0,0]}')
        assert code == 0
        assert out == (
            "support size : 3\n"
            "mean run     : 0.0\n"
            "zero freq    : 1.0\n"
            'provenance   : {"p": [1.0, 0.0, 0.0], "type": "explicit"}\n'
            "age  tail mass       residual mean\n"
            "  0  1               0\n"
            "  1  0               (unreachable)\n"
            "  2  0               (unreachable)\n"
        )

    def test_law_from_file(self, capsys, tmp_path):
        law_file = tmp_path / "law.json"
        law_file.write_text(P2_LAW)
        code, out, _ = run_cli(capsys, "law-info", "--law", str(law_file))
        assert code == 0
        assert "mean run     : 2.0" in out

    def test_invalid_law_is_a_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "law-info", "--law", '{"type":"explicit","p":[0.4,0.4]}')
        assert code == 2
        assert "error:" in err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "law-info", "--law", P2_LAW, "--frobnicate")[0] == 1

    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0


class TestNonFiniteInput:
    # NaN and Infinity are not JSON, so no input may put one into a payload or echo
    ZIPF_OVERFLOW = '{"type":"zipf","s":1e999,"truncate":5}'

    @pytest.mark.parametrize(
        "argv",
        [
            ["law-info", "--law", ZIPF_OVERFLOW],
            ["simulate", "--law", ZIPF_OVERFLOW, "--length", "10", "--out", "never-written.path"],
            ["evaluate", "--law", ZIPF_OVERFLOW, "--scheme", "offline", "--length", "40"],
        ],
        ids=["law-info", "simulate", "evaluate"],
    )
    def test_infinite_zipf_exponent_exits_2(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: zipf law needs a finite s > 0, got inf\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_exits_2(self, capsys, alpha):
        code, out, err = run_cli(
            capsys, "evaluate", "--law", GEOM_LAW, "--scheme", "offline", "--length", "40", f"--alpha={alpha}",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: declared_alpha must be a finite real number"), err


class TestSimulate:
    def test_dump_round_trip(self, capsys, tmp_path):
        out = tmp_path / "path.npz"
        code, stdout, _ = run_cli(
            capsys, "simulate", "--law", P2_LAW, "--length", "31",
            "--seed", "5", "--mode", "renewal", "--out", str(out),
        )
        assert code == 0
        assert '"seed": 5' in stdout
        path = load_path(out)
        assert list(path.bits) == [0, 1, 1] * 10 + [0]
        assert path.seed == 5

    def test_requires_out(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--law", P2_LAW, "--length", "10")
        assert code == 1  # enforced by argparse as a required flag
        assert "--out" in err


class TestEvaluate:
    def test_csv_has_the_nine_columns(self, capsys):
        code, out, err = run_cli(
            capsys, "evaluate", "--law", P2_LAW, "--scheme", "poly", "--gamma", "0.5",
            "--length", "40", "--seed", "3", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) > 1
        assert len(rows[1]) == 9
        assert err.startswith("# config ")
        assert '"base_seed": 3' in err

    def test_json_report_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "evaluate", "--law", GEOM_LAW, "--scheme", "eps", "--epsilon", "0.4",
            "--length", "300", "--replicates", "2", "--seed", "9",
        )
        assert code == 0
        report = report_from_json(out)
        assert report.config.replicates == 2
        assert report.config.base_seed == 9
        assert len(report.replicate_summaries) == 2

    def test_config_file_with_flag_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "law": json.loads(P2_LAW), "scheme": "poly",
            "scheme_config": {"gamma": 0.5}, "length": 40, "base_seed": 0,
        }))
        code, out, _ = run_cli(
            capsys, "evaluate", "--config", str(cfg), "--seed", "7", "--length", "50",
        )
        assert code == 0
        report = report_from_json(out)
        assert report.config.base_seed == 7
        assert report.config.length == 50
        assert report.config.scheme == "poly"

    def test_outside_guarantee_zone_warns_but_succeeds(self, capsys):
        with pytest.warns(UserWarning, match="not below"):
            code, out, _ = run_cli(
                capsys, "evaluate", "--law", GEOM_LAW, "--scheme", "poly",
                "--gamma", "0.5", "--alpha", "3", "--length", "200", "--seed", "1",
            )
        assert code == 0
        assert report_from_json(out).config.scheme_config.declared_alpha == 3.0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_file_and_stdout_give_the_same_bytes(self, capsysbinary, tmp_path, fmt):
        argv = [
            "evaluate", "--law", GEOM_LAW, "--scheme", "offline", "--length", "300",
            "--replicates", "2", "--seed", "4", "--format", fmt,
        ]
        out = tmp_path / "report"
        assert main([*argv, "--out", str(out)]) == 0
        to_file = capsysbinary.readouterr()
        assert main(argv) == 0
        to_stdout = capsysbinary.readouterr()
        payload = out.read_bytes()
        assert payload == to_stdout.out
        assert payload.endswith(b"\n\n" if fmt == "csv" else b"}\n")
        # only the config echo moves: to stdout beside a file, else stderr
        assert to_file.out == to_stdout.err
        assert to_file.out.startswith(b"# config ") and to_file.err == b""

    def test_missing_required_field_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "evaluate", "--scheme", "poly", "--length", "50")
        assert code == 2
        assert "law" in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tolerances", [float("nan")]),
            ("tolerances", [0.1, float("inf")]),
            ("tolerances", [0.0]),
            ("length", 1.5),
            ("length", True),
            ("replicates", 2.5),
            ("base_seed", 1.5),
            ("base_seed", False),
            ("format", "xml"),
            ("format", 5),
            ("format", None),
            ("keep_records", "no"),
            ("keep_records", 1),
            ("tolerances", 0.1),
            ("tolerances", ["0.1"]),
            ("tolerances", [True]),
            ("gamma", "0.3"),
            ("gamma", True),
            ("epsilon", "0.2"),
            ("declared_alpha", "3"),
            ("declared_alpha", [3]),
        ],
    )
    def test_bad_config_field_is_validation_error(self, capsys, tmp_path, field, value):
        config = {"law": json.loads(GEOM_LAW), "scheme": "offline", "length": 40}
        if field in ("gamma", "epsilon", "declared_alpha"):
            config["scheme_config"] = {field: value}
        else:
            config[field] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "evaluate", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {field} must be"), err

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"replicate": 5}, "'replicate'"),
            ({"scheme_config": {"epsilonn": 0.2}}, "'epsilonn'"),
            ({"scheme_config": 5}, "scheme_config must be a JSON object, got 5"),
            ({"scheme_config": "x"}, "scheme_config must be a JSON object, got 'x'"),
            ({"scheme_config": [1]}, "scheme_config must be a JSON object, got [1]"),
            ({"law": {"type": "geometric", "q": 0.5, "truncate": 60, "truncat": 9}}, "'truncat'"),
            ({"law": {"type": "zipf", "s": True, "truncate": 5}}, "got True"),
        ],
    )
    def test_unknown_or_malformed_key_is_named(self, capsys, tmp_path, change, named):
        config = {"law": json.loads(GEOM_LAW), "scheme": "offline", "length": 40, **change}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "evaluate", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and named in err, err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_config_echo_feeds_back_as_config(self, capsysbinary, tmp_path, fmt):
        argv = [
            "evaluate", "--law", GEOM_LAW, "--scheme", "offline", "--length", "300",
            "--replicates", "2", "--seed", "4", "--mode", "renewal", "--format", fmt,
        ]
        assert main(argv) == 0
        first = capsysbinary.readouterr()
        assert first.err.startswith(b"# config ")
        cfg = tmp_path / "echo.json"
        cfg.write_bytes(first.err[len(b"# config ") :])
        # the echo's format chooses the output when no --format is given
        for flags in ([], ["--format", fmt]):
            assert main(["evaluate", "--config", str(cfg), *flags]) == 0
            again = capsysbinary.readouterr()
            assert again.out == first.out
            assert again.err == first.err

    @pytest.mark.parametrize(
        "config_format, flags, written",
        [
            ("csv", [], "csv"),
            ("csv", ["--format", "json"], "json"),
            ("json", ["--format", "csv"], "csv"),
        ],
    )
    def test_config_format_unless_the_flag_overrides(self, capsysbinary, tmp_path, config_format, flags, written):
        config = {"law": json.loads(GEOM_LAW), "scheme": "offline", "length": 60, "format": config_format}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["evaluate", "--config", str(cfg), *flags]) == 0
        captured = capsysbinary.readouterr()
        assert captured.out.startswith(b"replicate,scheme," if written == "csv" else b"{")
        assert json.loads(captured.err[len(b"# config ") :])["format"] == written

    @pytest.mark.parametrize("change", [{"format": "csv"}, {"keep_records": True}])
    def test_record_cap_applies_to_every_run_that_keeps_records(self, capsys, tmp_path, monkeypatch, change):
        monkeypatch.setattr(cli, "MAX_CSV_POSITIONS", 100)
        config = {"law": json.loads(GEOM_LAW), "scheme": "offline", "length": 60, "replicates": 2}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _, _ = run_cli(capsys, "evaluate", "--config", str(cfg))
        assert code == 0  # no records kept, no cap
        cfg.write_text(json.dumps({**config, **change}))
        code, out, err = run_cli(capsys, "evaluate", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "record" in err and "100" in err, err

    def test_oversized_csv_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "evaluate", "--law", GEOM_LAW, "--scheme", "poly", "--gamma", "0.3",
            "--length", "2000000", "--replicates", "2", "--format", "csv",
        )
        assert code == 2
        assert "CSV" in err

    def test_byte_identical_for_identical_invocations(self, capsys, tmp_path):
        argv = [
            "evaluate", "--law", GEOM_LAW, "--scheme", "log", "--gamma", "0.3",
            "--length", "400", "--replicates", "2", "--seed", "11",
        ]
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(capsys, *argv, "--out", str(out_a))[0] == 0
        assert run_cli(capsys, *argv, "--out", str(out_b))[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestAdversary:
    def test_stage_one_audit_and_verify(self, capsys, tmp_path):
        out = tmp_path / "audit.json"
        code, stdout, _ = run_cli(
            capsys, "adversary", "--gamma", "0.3", "--seed", "0",
            "--replicates", "300", "--out", str(out),
        )
        assert code == 0
        assert '"seed": 0' in stdout
        doc = json.loads(out.read_text())
        assert [a["stage"] for a in doc["audit"]] == [1]
        assert doc["audit"][0]["fooling"]["est"] >= 0.99
        assert doc["verify"]["all_passed"] is True
        assert doc["next_stage"]["advanced"] is False
        assert doc["next_stage"]["constraint"] == "marker"

    # Payload digests recorded before the delta search screened on a
    # shorter prefix and the sampler converted short paths by the block
    # (eps at seed 42: before the search and the verification shared one
    # Monte Carlo routine); these must leave the bytes as they were.
    @pytest.mark.parametrize(
        "scheme, seed, digest",
        [
            ("poly", "0", "3e0adb656fb5ce77e3610e0a1018144cdab433820d896c6578156c9324a9b2f6"),
            ("poly", "42", "2cd9498b7f9460b2153d427fd4e9bdcbb6f43da2be6fe155c3f9c68c0e8ef36b"),
            ("log", "0", "5abcdb6d6435cc282dc6119f461c355732d3001ac33c3545358103f953d52997"),
            ("eps", "42", "65e588831c50e5d66985dc42b022313c888a0bb401c10afe86e1b6370eaf09a1"),
        ],
    )
    def test_payloads_keep_their_recorded_digests(self, capsys, tmp_path, scheme, seed, digest):
        out = tmp_path / "adversary.json"
        argv = ("adversary", "--scheme", scheme, "--seed", seed, "--replicates", "1000", "--out", str(out))
        assert run_cli(capsys, *argv)[0] == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_stage_one_stop_exits_2_and_writes_nothing(self, capsys, tmp_path, monkeypatch):
        def exhausted(*args, **kwargs):
            raise BudgetExhausted("horizon", "fooling never reached 0.998 by horizon 32768")

        monkeypatch.setattr(cli, "advance_stage", exhausted)
        out = tmp_path / "audit.json"
        code, stdout, err = run_cli(capsys, "adversary", "--scheme", "log", "--replicates", "100", "--out", str(out))
        assert code == 2
        assert err == "error: stage 1: horizon: fooling never reached 0.998 by horizon 32768\n"
        assert stdout == "" and not out.exists()

    def test_too_few_replicates_fail_before_the_search(self, capsys, tmp_path, monkeypatch):
        def searched(*args, **kwargs):
            raise AssertionError("the stage-1 search ran")

        monkeypatch.setattr(cli, "advance_stage", searched)
        out = tmp_path / "audit.json"
        code, stdout, err = run_cli(capsys, "adversary", "--scheme", "log", "--replicates", "50", "--out", str(out))
        assert code == 2
        assert err == "error: need at least 100 reps, got 50\n"
        assert stdout == "" and not out.exists()

    def test_runner_tags_are_the_adversary_tags(self):
        assert set(cli._ADVERSARY_RUNNERS) == set(adversary._TAGS)

    def test_offline_scheme_rejected(self, capsys):
        code, _, err = run_cli(capsys, "adversary", "--scheme", "offline")
        assert code == 1  # argparse choices catch it as usage

    def test_alpha_is_not_a_flag(self, capsys):
        # a declared alpha only turns on evaluate's poly warning
        code, out, err = run_cli(capsys, "adversary", "--alpha", "3")
        assert code == 1 and out == ""
        assert "unrecognized arguments: --alpha 3" in err

    def test_tiny_replicates_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "adversary", "--replicates", "5")
        assert code == 2
        assert "100" in err


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "6/6 checks passed" in out
        assert "FAIL" not in out

    def test_sabotage_still_fails_under_python_O(self):
        # python -O strips assert statements; the checks must not rely on them
        script = (
            "import sys\n"
            "from renewalbench import selfcheck\n"
            "selfcheck.run_scheme = lambda tag, bits, config: []\n"
            "selfcheck.stationary_zero_prob = lambda law: 0.0\n"
            "failures = selfcheck.run_selftest(lambda line: None)\n"
            "print(f'optimize={sys.flags.optimize} failures={failures}')\n"
        )
        done = run_python("-O", "-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "optimize=1 failures=3"

    def test_checks_the_scorer_that_runs(self, monkeypatch):
        # every evaluate run scores with score_columns, so the selftest
        # must fail when that scorer is off, even by a little
        score = evaluation._Scorer.score_columns

        def off(self, cols):
            errs, tvs = score(self, cols)
            return errs, tvs + 1e-3

        monkeypatch.setattr(evaluation._Scorer, "score_columns", off)
        lines = []
        assert selfcheck.run_selftest(write=lines.append) == 1
        assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == ["FAIL scheme hand traces"]

    @pytest.mark.parametrize("tag", SCHEME_TAGS)
    def test_checks_the_estimates_that_run(self, monkeypatch, tag):
        # the digests stand in for the oracle on an install without the
        # tests, so one ulp off in one tag's last estimate must fail
        # them, and name that tag
        run = selfcheck.run_scheme

        def off(which, bits, config):
            events = run(which, bits, config)
            if which == tag and events:
                last = events[-1]
                events[-1] = last._replace(estimate=math.nextafter(last.estimate, -math.inf))
            return events

        monkeypatch.setattr(selfcheck, "run_scheme", off)
        lines = []
        assert selfcheck.run_selftest(write=lines.append) == 1
        failed = [line for line in lines if line.startswith("FAIL")]
        assert [line.split(":")[0] for line in failed] == ["FAIL streaming vs oracle digests"]
        assert f"estimates of {tag} differ" in failed[0]


EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected.json"


@pytest.mark.parametrize("name", sorted(json.loads(EXPECTED.read_text())))
def test_benchmark_payloads_keep_their_recorded_digests(capsys, tmp_path, name):
    # the benchmark's pinned seed-0 runs: payload bytes must not move
    entry = json.loads(EXPECTED.read_text())[name]
    out = tmp_path / "payload"
    assert main([*entry["argv"], "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == entry["sha256"]


def _main(*argv):
    return f"from renewalbench.cli import main\ncode = main({list(argv)!r})"


def _evaluate(fmt):
    return _main("evaluate", "--scheme", "offline", "--law", GEOM_LAW, "--length", "2000", "--format", fmt, "--out", "report")


# Each entry point: what runs before `before` is taken, the code, the
# module patterns that may not load after it, and the ones that must.
# A bare import loads neither a submodule nor numpy, and the benchmark's
# set-up probe skips evaluation.  On numpy 2, np.quantile's first call
# imports numpy.ma (~10 ms); numpy 1 imports numpy.ma with numpy itself,
# so the CLI cases import numpy first.  Each subcommand imports only the
# modules it runs: csv and orjson are for CSV export only, evaluation
# for evaluate, adversary for adversary, and selfcheck for selftest.
ENTRY_POINTS = {
    "bare": ("", "import renewalbench", ["numpy", "renewalbench.*"], []),
    "probe": ("", "import renewalbench\nfrom renewalbench import adversary, laws", ["renewalbench.evaluation"], []),
    "import": (
        "import numpy",
        "from renewalbench.cli import main",
        ["numpy.ma", "csv", "orjson", "renewalbench.adversary", "renewalbench.evaluation", "renewalbench.selfcheck"],
        [],
    ),
    "json": (
        "import numpy",
        _evaluate("json"),
        ["numpy.ma", "csv", "orjson", "renewalbench.adversary", "renewalbench.selfcheck"],
        ["renewalbench.evaluation"],
    ),
    "csv": (
        "import numpy",
        _evaluate("csv"),
        ["numpy.ma", "renewalbench.adversary", "renewalbench.selfcheck"],
        ["csv", "orjson", "renewalbench.evaluation"],
    ),
    "adversary": (
        "import numpy",
        _main("adversary", "--replicates", "100", "--out", "audit.json"),
        ["csv", "orjson", "renewalbench.evaluation", "renewalbench.selfcheck"],
        ["renewalbench.adversary"],
    ),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_imports_stay_lazy(tmp_path, entry):
    first, code, absent, present = ENTRY_POINTS[entry]
    script = (
        f"import json, sys\n{first}\n"
        "before = set(sys.modules)\n"
        "code = 0\n"
        f"{code}\n"
        "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n"
    )
    done = run_python("-c", script, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    status, loaded = json.loads(done.stdout.splitlines()[-1])
    assert status == 0
    assert [pattern for pattern in absent if fnmatch.filter(loaded, pattern)] == []
    assert [name for name in present if name not in loaded] == []


@pytest.mark.parametrize("name", cli._LAZY)
def test_lazy_cli_names_are_their_home_objects(name):
    home = importlib.import_module(f"renewalbench.{renewalbench._HOME[name]}")
    assert getattr(cli, name) is getattr(home, name)


def test_unknown_cli_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'run_adversary'"):
        cli.run_adversary


@pytest.mark.parametrize(
    "argv, names",
    [
        (["evaluate", "--scheme", "poly", "--gamma", "0.3", "--law", GEOM_LAW, "--length", "2000"], ["run_experiment", "emit_report"]),
        (["adversary", "--replicates", "100"], ["stage0", "advance_stage", "verify_stage", "audit_json"]),
    ],
    ids=["evaluate", "adversary"],
)
def test_handlers_call_the_names_set_on_cli(capsys, monkeypatch, argv, names):
    # bench/traced.py wraps these names with setattr; the wrapper must run
    called = []
    for name in names:
        inner = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _name=name, _inner=inner, **k: called.append(_name) or _inner(*a, **k))
    assert run_cli(capsys, *argv)[0] == 0
    assert set(called) == set(names)


def test_bare_import_reaches_submodules():
    # a submodule is an attribute of the package before anything imports it
    script = "import renewalbench\nprint(renewalbench.laws.make_law.__module__)\n"
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "renewalbench.laws"


def test_evaluate_builds_its_law_once(capsys, monkeypatch):
    monkeypatch.setattr(laws, "_BUILT", {})
    built = []
    fresh = laws._make_law
    monkeypatch.setattr(laws, "_make_law", lambda spec: built.append(spec) or fresh(spec))
    law = '{"type": "zipf", "s": 3, "truncate": 2000}'
    code, out, _ = run_cli(capsys, "evaluate", "--law", law, "--scheme", "eps", "--epsilon", "0.1", "--length", "500")
    assert code == 0 and len(built) == 1
    assert report_from_json(out).config.law == {"type": "zipf", "s": 3.0, "truncate": 2000}
