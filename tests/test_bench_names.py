"""bench/traced.py times the package by wrapping, from outside, names
that one package module takes from another.  A rename must fail here,
not crash the traced benchmark run."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from renewalbench.laws import make_law
from renewalbench.paths import StartMode, sample_path
from renewalbench.runindex import RunIndex

TRACED = Path(__file__).resolve().parents[1] / "bench" / "traced.py"
MODULES = {"adversary", "cli", "evaluation", "schemes"}

# the names the traced run wraps or imports today; the parser below
# must find at least these
EXPECTED = {
    "cli._ADVERSARY_RUNNERS",
    "cli.law_from_json",
    "cli.run_experiment",
    "cli.emit_report",
    "cli.stage0",
    "cli.advance_stage",
    "cli.verify_stage",
    "cli.audit_json",
    "adversary.sample_path",
    "adversary.make_law",
    "adversary.perturb",
    "adversary.fooling_probability",
    "adversary.tv_prefix_exact",
    "evaluation._SCHEME_ITERATORS",
    "evaluation.iter_offline",
    "evaluation._final_decile",
    "runindex.RunIndex",
}


def traced_names() -> set[str]:
    """`module.name` for every package name traced.py imports, reads or
    wraps."""
    names = set()
    for node in ast.walk(ast.parse(TRACED.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("renewalbench."):
            names.update(f"{node.module.split('.', 1)[1]}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in MODULES:
            names.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "wrap":
            owner, attr = node.args[:2]
            names.add(f"{ast.unparse(owner)}.{attr.value}")
    return names


def resolve(name: str):
    module, *attrs = name.split(".")
    value = importlib.import_module(f"renewalbench.{module}")
    for attr in attrs:
        value = getattr(value, attr)
    return value


def test_every_traced_name_exists():
    names = traced_names()
    assert EXPECTED <= names
    for name in sorted(names):
        resolve(name)


def test_runner_tables_are_dicts():
    # traced.py replaces their entries in place
    assert isinstance(resolve("cli._ADVERSARY_RUNNERS"), dict)
    assert isinstance(resolve("evaluation._SCHEME_ITERATORS"), dict)


@pytest.mark.parametrize("track_ages", [True, False])
def test_runindex_feeds_as_traced(track_ages):
    # feed_pass's loop: one bound feed per path, fed the path's bits
    bits = sample_path(make_law({"type": "geometric", "q": 0.5, "truncate": 60}), 3000, StartMode.STATIONARY, seed=3).bits
    feed = RunIndex(track_ages=track_ages).feed
    for bit in bits.tolist():
        feed(bit)
    index = feed.__self__
    assert index.length == bits.size
    assert index.psi == int(np.flatnonzero(bits == 0)[0])
