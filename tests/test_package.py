"""The package namespace: every public name resolves from its home module
on first use, and `from renewalbench import *` binds the same names as
when the package imported all five modules eagerly."""

import importlib

import pytest

import renewalbench

# the names the eager imports bound, by home module
HOMES = {
    "laws": [
        "LawError", "RenewalLaw", "ResidualLaw", "gamma_limit", "law_from_json",
        "law_info_text", "make_law", "markov_tail_bound_holds", "perturb",
        "power_moment", "residual_law", "residual_mean", "stationary_state_law",
        "stationary_zero_prob", "tv_l1",
    ],
    "paths": [
        "Path", "PathError", "StartMode", "dump_path", "load_path",
        "parse_start_mode", "sample_path",
    ],
    "schemes": [
        "SCHEME_TAGS", "EstimateEvent", "OfflineEstimate", "SchemeConfig",
        "iter_scheme", "ref_run", "run_scheme",
    ],
    "evaluation": [
        "CSV_COLUMNS", "AggregateStats", "EvalReport", "ExperimentConfig",
        "ReplicateSummary", "ScoredRecord", "emit_report", "firing_density",
        "good_index_density", "report_from_json", "run_experiment", "score_events",
    ],
    "adversary": [
        "BudgetExhausted", "FoolingResult", "SearchBudgets", "StageAudit",
        "StageState", "advance_stage", "audit_json", "fooling_probability",
        "mu_L_shift", "stage0", "tv_prefix_exact", "verify_stage",
    ],
}
REEXPORTED = [(module, name) for module, names in HOMES.items() for name in names]
STAR = sorted([*HOMES, *(name for _, name in REEXPORTED)])


def test_all_is_the_star_import_set():
    assert len(REEXPORTED) == 53 and len(STAR) == 58
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
