"""Quasi-Monte Carlo pricing with regression-based orthogonal transforms."""

from .brownian_max import (
    BarrierCoefficients,
    barrier_coefficients,
    indicator_moment,
    prob_max_exceeds,
    weighted_max_expectation,
)
from .harness import (
    BatchStats,
    ExperimentConfig,
    RawRow,
    UnsupportedCombinationError,
    run_experiment,
    timing_report,
    write_raw_csv,
    write_summary_csv,
)
from .lt import LtResult, lt_transform, payoff_gradient_at_zero
from .payoffs import (
    average_call,
    barrier_average_call,
    barrier_hit,
    basket_paths,
    log_drift,
    payoff,
)
from .regression import (
    LogExpPayoffSpec,
    RegressionVector,
    VarianceReport,
    asian_spec,
    basket_spec,
    logexp_coefficients,
    regression_chain,
    regression_transform,
    variance_report,
    variance_report_continuum,
)
from .rng import (
    apply_shift,
    inv_normal_cdf,
    max_dimension,
    shift_vector,
    shifted_normals,
    sobol_block,
    sobol_point,
)
from .transforms import (
    BasketCovSpec,
    BrownianBridgeConstruction,
    ChainConstruction,
    ForwardConstruction,
    HouseholderReflection,
    KroneckerConstruction,
    PcaConstruction,
    TransformChain,
    cholesky_psd,
    complete_first_k_columns,
    construction_matrix,
    eigh_factor,
    householder_from_target,
    pca_factors,
)

__version__ = "0.1.0"
