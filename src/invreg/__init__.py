"""Adaptive penalty-based selection of regularization operators for
discretized linear inverse problems."""

from .concentration import (
    GaussianNoise,
    IdentityCheck,
    MomentReport,
    QuadFormSpec,
    TailReport,
    default_u_grid,
    eta,
    moment_bound_shape,
    moment_check,
    penalized_level,
    projection_identity_check,
    tail_check,
    tail_levels,
)
from .errors import (
    DegenerateDesignError,
    DimensionError,
    InsufficientDataError,
    InvregError,
    ParameterError,
    RankError,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    RateFit,
    RiskRow,
    SourceSpec,
    SynthProblem,
    bias_m0,
    fit_rate,
    monte_carlo_risk,
    synth_problem,
    theoretical_exponent,
)
from .operator import (
    DesignGrid,
    DiscretizedOperator,
    IllposednessDiagnostics,
    SampledProjection,
    SpectralSynthetic,
    build_design_matrix,
    choose_m0,
    cosine_design,
    discretize_operator,
    empirical_norm,
    empirical_projection,
    midpoint_grid,
)
from .regularizers import (
    RegularizerFamily,
    projection_family,
    tikhonov_family,
)
from .selection import (
    CandidateRow,
    PenaltyConfig,
    SelectionResult,
    default_weights,
    kraft_sum,
    objectives,
    penalties,
    select,
    select_by_threshold,
    select_coefficients,
    threshold_objectives,
)

__version__ = "0.1.0"
