"""Command-line driver: subcommand behavior, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import renewalbench
from renewalbench.cli import main
from renewalbench.evaluation import CSV_COLUMNS, report_from_json
from renewalbench.paths import load_path

P2_LAW = '{"type":"explicit","p":[0,0,1]}'
GEOM_LAW = '{"type":"geometric","q":0.5,"truncate":60}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLawInfo:
    def test_two_run_law_table(self, capsys):
        code, out, err = run_cli(capsys, "law-info", "--law", P2_LAW)
        assert code == 0
        assert "mean run     : 2.0" in out
        assert "0.3333333333333333" in out
        lines = [l for l in out.splitlines() if l.strip().startswith("1 ")]
        assert any(line.split()[-1] == "1" for line in lines)  # residual mean at age 1
        assert out.startswith("# config ") or err.startswith("# config ")

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

    def test_missing_required_field_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "evaluate", "--scheme", "poly", "--length", "50")
        assert code == 2
        assert "law" in err

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

    def test_offline_scheme_rejected(self, capsys):
        code, _, err = run_cli(capsys, "adversary", "--scheme", "offline")
        assert code == 1  # argparse choices catch it as usage

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
            "selfcheck.run_poly = lambda bits, config: []\n"
            "selfcheck.stationary_zero_prob = lambda law: 0.0\n"
            "failures = selfcheck.run_selftest(lambda line: None)\n"
            "print(f'optimize={sys.flags.optimize} failures={failures}')\n"
        )
        src = str(Path(renewalbench.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "optimize=1 failures=2"
