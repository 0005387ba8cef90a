"""Estimation of residual run lengths in binary renewal processes.

Causal estimators with data-dependent firing times, all read from one
columnar prefix scan of the path, a seeded path sampler, an experiment
harness that scores estimates against the exact conditional law, and a
staged adversarial construction that fools any fixed estimator at
carefully placed windows.

Each name below loads its module on first use (PEP 562), so a bare
``import renewalbench`` imports neither a submodule nor numpy.
"""

import importlib

__version__ = "0.1.0"

# Each public name by its home module; a submodule is named by itself.
_HOMES = {
    "laws": (
        "LawError",
        "RenewalLaw",
        "ResidualLaw",
        "gamma_limit",
        "law_from_json",
        "law_info_text",
        "make_law",
        "perturb",
        "power_moment",
        "residual_law",
        "residual_mean",
        "stationary_zero_prob",
    ),
    "paths": (
        "Path",
        "PathError",
        "StartMode",
        "dump_path",
        "load_path",
        "parse_start_mode",
        "sample_path",
    ),
    "schemes": (
        "SCHEME_TAGS",
        "EstimateEvent",
        "OfflineEstimate",
        "SchemeConfig",
        "iter_scheme",
        "run_scheme",
    ),
    "evaluation": (
        "CSV_COLUMNS",
        "AggregateStats",
        "EvalReport",
        "ExperimentConfig",
        "ReplicateSummary",
        "ScoredRecord",
        "emit_report",
        "report_from_json",
        "run_experiment",
    ),
    "adversary": (
        "BudgetExhausted",
        "FoolingResult",
        "StageAudit",
        "StageState",
        "advance_stage",
        "audit_json",
        "fooling_probability",
        "mu_L_shift",
        "stage0",
        "tv_prefix_exact",
        "verify_stage",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in (module, *names)}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = importlib.import_module(f".{module}", __name__)
    value = home if name == module else getattr(home, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
