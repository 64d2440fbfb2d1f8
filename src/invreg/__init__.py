"""Adaptive penalty-based selection of regularization operators for
discretized linear inverse problems."""

from .concentration import (
    GaussianNoise,
    IdentityCheck,
    MomentReport,
    QuadFormSpec,
    TailReport,
    TwoPointNoise,
    default_u_grid,
    eta,
    moment_check,
    moment_condition_ratios,
    penalized_level,
    projection_identity_check,
    tail_check,
    z_envelope,
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
    ProjectionErrorRow,
    RateFit,
    RiskRow,
    SourceSpec,
    SynthProblem,
    bias_m0,
    fit_rate,
    monte_carlo_risk,
    projection_error_bound_check,
    synth_problem,
    theoretical_exponent,
)
from .operator import (
    BasisFamily,
    DesignGrid,
    DesignMatrix,
    DiscretizedOperator,
    IllposednessDiagnostics,
    SpectralSynthetic,
    build_design_matrix,
    choose_m0,
    cosine_basis,
    diagnostics,
    discretize_operator,
    empirical_norm,
    empirical_projection,
    empirical_scalar_product,
    indicator_basis,
    midpoint_grid,
    table_basis,
)
from .regularizers import (
    Diagonal,
    Projection,
    Regularizer,
    RegularizerFamily,
    Tikhonov,
    build_regularizer,
    projection_family,
    regularized_truth,
    tikhonov_family,
)
from .selection import (
    CandidateRow,
    PenaltyConfig,
    SelectionResult,
    contrast,
    default_weights,
    estimate_noise_variance,
    kraft_sum,
    objectives,
    penalties,
    penalty,
    select,
    select_by_threshold,
)

__version__ = "0.1.0"
