"""Pairwise sequential adaptive randomization for network-correlated experiments."""

from .errors import ContractError, EdgeListParseError, ParameterError
from .graph import (
    CsrGraph,
    ErParams,
    GoeParams,
    Graph,
    RevealedView,
    SbmParams,
    density,
    from_edge_list,
    gen_er,
    gen_goe,
    gen_sbm,
    induced_subgraph_sample,
)
from .design import (
    ADAPTIVE,
    RANDOM,
    DesignConfig,
    DesignResult,
    imbalance_recompute,
    run_design,
    run_design_final,
    run_design_many,
)
from .outcome import OutcomeParams, TrialOutcome, analytic_variance, simulate_outcomes
from .montecarlo import (
    ExperimentResult,
    ExperimentSpec,
    MomentSummary,
    ReductionReport,
    ResultRow,
    adaptive_fourth_moment_bound,
    goe_fourth_moment_bound,
    random_design_expected_i2,
    reduction_report,
    run_experiment,
    sparse_edge_probability,
    summarize,
)
from .oracle import ExactExpectation, OracleResult, brute_force_min, exact_policy_expectation

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
