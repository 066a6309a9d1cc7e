"""convlab: convergence-mode experiments for inductive inference methods.

A small laboratory for empirical problems (hypotheses, evidence trees,
worlds, losses), the inference methods that tackle them, and the three-level
hierarchy of convergence guarantees those methods can achieve: settling on
the exact truth, probably outputting the exact truth, and probably landing
close to the truth.  The convergence engine verifies claims by exact
enumeration, analytic bounds, and seeded Monte Carlo, and produces
mechanized witnesses for the unachievability arguments.
"""

__version__ = "0.1.0"

from .core import (
    FAIR,
    NO,
    SUSPEND,
    UNFAIR,
    YES,
    Branch,
    Classifier,
    ConfigurationError,
    CountLaws,
    EmpiricalProblem,
    FiniteHypothesisSpace,
    InferenceMethod,
    InputDomainError,
    IntervalHypothesisSpace,
    LossFunction,
    Measure,
    PreconditionError,
    ResourceBudgetError,
    ValidationReport,
    World,
    alternating_branch,
    as_fraction,
    binary_sequence,
    constant_branch,
    identification_loss,
    loss_of,
    output_at,
    single_zero_branch,
    validate_problem,
)
from .methods import (
    empirical_risk,
    erm,
    erm_method,
    fair_coin_test,
    fair_coin_threshold,
    frequency_estimator,
    raven_rule,
)
from .problems import (
    DEFAULT_THETA_GRID,
    binary_classification,
    coin_bias,
    easy_raven,
    excess_risk_loss,
    fair_coin,
    fine_grained_raven,
    risk,
)
from .convergence import (
    EXACT,
    INCONCLUSIVE,
    MODE_IDENTIFICATION,
    MODE_STOCHASTIC_APPROXIMATION,
    MODE_STOCHASTIC_IDENTIFICATION,
    REFUTED_AT_HORIZON,
    SUPPORTED_AT_HORIZON,
    Budget,
    CurvePoint,
    Estimate,
    ModeParams,
    SuccessCriterion,
    SuccessCurve,
    Verdict,
    WorldVerdict,
    analytic_bound,
    bernoulli_bound,
    cardinality_witness,
    cardinality_witness_report,
    check_mode,
    exact_success_prob,
    lock_time,
    mc_success_prob,
    mode_params,
    required_sample_size,
    resolve_workers,
    success_curve,
    success_set_curve,
    success_set_prob,
    underdetermination_witness,
    within,
)
