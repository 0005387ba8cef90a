"""The package namespace: every public name resolves from its home module
on first use, `from renewalbench import *` binds every public name, and
each public name is read by a package module or named in the README."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import renewalbench

SOURCE = Path(renewalbench.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"

# the public names, by home module
HOMES = {
    "laws": [
        "LawError", "RenewalLaw", "ResidualLaw", "gamma_limit", "law_from_json",
        "law_info_text", "make_law", "perturb", "power_moment", "residual_law",
        "residual_mean", "stationary_zero_prob",
    ],
    "paths": [
        "Path", "PathError", "StartMode", "dump_path", "load_path",
        "parse_start_mode", "sample_path",
    ],
    "schemes": [
        "SCHEME_TAGS", "EstimateEvent", "OfflineEstimate", "SchemeConfig",
        "iter_scheme", "run_scheme",
    ],
    "evaluation": [
        "CSV_COLUMNS", "AggregateStats", "EvalReport", "ExperimentConfig",
        "ReplicateSummary", "ScoredRecord", "emit_report", "report_from_json",
        "run_experiment",
    ],
    "adversary": [
        "BudgetExhausted", "FoolingResult", "StageAudit",
        "StageState", "advance_stage", "audit_json", "fooling_probability",
        "mu_L_shift", "stage0", "tv_prefix_exact", "verify_stage",
    ],
}
REEXPORTED = [(module, name) for module, names in HOMES.items() for name in names]
STAR = sorted([*HOMES, *(name for _, name in REEXPORTED)])


def test_all_is_the_star_import_set():
    assert len(REEXPORTED) == 45 and len(STAR) == 50
    assert renewalbench.__all__ == STAR
    bound = {}
    exec("from renewalbench import *", bound)
    assert sorted(set(bound) - {"__builtins__"}) == STAR


@pytest.mark.parametrize("module, name", REEXPORTED, ids=lambda value: value)
def test_name_is_its_home_module_object(module, name):
    home = importlib.import_module(f"renewalbench.{module}")
    assert getattr(renewalbench, name) is getattr(home, name)


@pytest.mark.parametrize("module", sorted(HOMES))
def test_submodule_is_the_module(module):
    assert getattr(renewalbench, module) is importlib.import_module(f"renewalbench.{module}")


def test_dir_lists_every_public_name():
    assert set(STAR) <= set(dir(renewalbench))
    assert "__version__" in dir(renewalbench)


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        renewalbench.no_such_name
    assert not hasattr(renewalbench, "no_such_name")


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names a module reads: a name, an attribute, an import or an
    imported module.  A top-level def or class does not count its own
    name, nor does an assignment, so a name only defined, or only listed
    as a string (as in __all__), is not referenced."""
    names = set()
    for statement in tree.body:
        found = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                found.update((node.module or "").split("."))
                found.update(alias.name for alias in node.names)
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            found.discard(statement.name)
        names |= found
    return names


def test_every_public_name_is_used_or_documented():
    # a public name that no package module reads and the README does not
    # name is API only the tests call
    used = set()
    for path in SOURCE.glob("*.py"):
        used |= _referenced_names(ast.parse(path.read_text()))
    readme = README.read_text()
    orphans = [
        name for name in renewalbench.__all__ if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert orphans == []


# the names that left the package for the test oracles, by former home
MOVED = [
    ("evaluation", "firing_density"), ("evaluation", "good_index_density"),
    ("evaluation", "score_events"), ("laws", "markov_tail_bound_holds"),
    ("laws", "stationary_state_law"), ("laws", "tv_l1"), ("schemes", "_ref_histogram"),
    ("schemes", "ref_run"),
]


@pytest.mark.parametrize("module, name", MOVED, ids=lambda value: value)
def test_moved_name_is_only_a_test_oracle(module, name):
    import oracles

    home = importlib.import_module(f"renewalbench.{module}")
    assert name not in renewalbench.__all__
    assert not hasattr(renewalbench, name)
    assert not hasattr(home, name)
    assert callable(getattr(oracles, name))


def test_search_budgets_are_adversary_constants():
    # the construction's search settings are fixed, so no caller passes them
    import inspect

    from renewalbench import adversary

    assert "SearchBudgets" not in renewalbench.__all__
    assert not hasattr(renewalbench, "SearchBudgets")
    assert not hasattr(adversary, "SearchBudgets")
    assert list(inspect.signature(adversary.advance_stage).parameters) == ["stage", "runner", "config", "seed"]
    assert (adversary._HORIZON_START, adversary._HORIZON_MAX) == (64, 1 << 15)
    assert (adversary._DELTA_HALVINGS, adversary._MAX_STAGE) == (60, 3)


def test_package_keeps_one_scorer():
    # the scalar per-event tv left with score_events; score_columns scores every run
    from renewalbench.evaluation import _Scorer

    assert not hasattr(_Scorer, "tv")
    assert callable(_Scorer.score_columns)


def test_every_stage_audit_field_is_read():
    # a field that the adversary never reads restates the state or a
    # constant, and could drift from it unnoticed
    import dataclasses

    from renewalbench.adversary import StageAudit

    def audits(node):
        return isinstance(node, ast.Attribute) and node.attr == "audits"

    # per function, the names bound to an audit (`for a in x.audits`,
    # `a = x.audits[i]`) and the attributes read off those names
    read = set()
    for func in ast.walk(ast.parse((SOURCE / "adversary.py").read_text())):
        if not isinstance(func, ast.FunctionDef):
            continue
        names = {n.target.id for n in ast.walk(func) if isinstance(n, ast.For) and audits(n.iter)}
        names |= {
            target.id
            for n in ast.walk(func)
            if isinstance(n, ast.Assign) and isinstance(n.value, ast.Subscript) and audits(n.value.value)
            for target in n.targets
        }
        read |= {
            n.attr
            for n in ast.walk(func)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in names
        }
    assert [field.name for field in dataclasses.fields(StageAudit) if field.name not in read] == []
