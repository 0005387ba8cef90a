"""Estimation of residual run lengths in binary renewal processes.

Causal estimators with data-dependent firing times, all read from one
columnar prefix scan of the path, a seeded path sampler, an experiment
harness that scores estimates against the exact conditional law, and a
staged adversarial construction that fools any fixed estimator at
carefully placed windows.
"""

from .laws import (
    LawError,
    RenewalLaw,
    ResidualLaw,
    gamma_limit,
    law_from_json,
    law_info_text,
    make_law,
    markov_tail_bound_holds,
    perturb,
    power_moment,
    residual_law,
    residual_mean,
    stationary_state_law,
    stationary_zero_prob,
    tv_l1,
)
from .paths import Path, PathError, StartMode, dump_path, load_path, parse_start_mode, sample_path
from .schemes import (
    SCHEME_TAGS,
    EstimateEvent,
    OfflineEstimate,
    SchemeConfig,
    iter_scheme,
    ref_run,
    run_scheme,
)
from .evaluation import (
    CSV_COLUMNS,
    AggregateStats,
    EvalReport,
    ExperimentConfig,
    ReplicateSummary,
    ScoredRecord,
    emit_report,
    firing_density,
    good_index_density,
    report_from_json,
    run_experiment,
    score_events,
)
from .adversary import (
    BudgetExhausted,
    FoolingResult,
    SearchBudgets,
    StageAudit,
    StageState,
    advance_stage,
    audit_json,
    fooling_probability,
    mu_L_shift,
    stage0,
    tv_prefix_exact,
    verify_stage,
)

__version__ = "0.1.0"
