"""Quasi-Monte Carlo pricing with regression-based orthogonal transforms.

The public names are resolved on first use (PEP 562), so ``import
qmcpricer``, and the command line's refusals and --help, import no numpy.
"""

import importlib

# public name -> the module that defines it
_SOURCES = {
    "brownian_max": (
        "BarrierCoefficients",
        "barrier_coefficients",
        "indicator_moment",
        "prob_max_exceeds",
        "weighted_max_expectation",
    ),
    "config": ("ExperimentConfig", "UnsupportedCombinationError"),
    "harness": (
        "BatchStats",
        "RawRow",
        "run_experiment",
        "timing_report",
        "write_raw_csv",
        "write_summary_csv",
    ),
    "lt": ("LtResult", "lt_transform", "payoff_gradient_at_zero"),
    "payoffs": (
        "average_call",
        "barrier_average_call",
        "barrier_hit",
        "basket_paths",
        "log_drift",
        "log_paths",
        "payoff",
        "prices",
    ),
    "regression": (
        "LogExpPayoffSpec",
        "RegressionVector",
        "VarianceReport",
        "asian_spec",
        "basket_spec",
        "logexp_coefficients",
        "regression_chain",
        "regression_transform",
        "variance_report",
        "variance_report_continuum",
    ),
    "rng": (
        "apply_shift",
        "inv_normal_cdf",
        "max_dimension",
        "shift_vector",
        "shifted_normals",
        "sobol_block",
    ),
    "transforms": (
        "BasketCovSpec",
        "BrownianBridgeConstruction",
        "ChainConstruction",
        "ForwardConstruction",
        "KroneckerConstruction",
        "PcaConstruction",
        "TransformChain",
        "cholesky_psd",
        "complete_first_k_columns",
        "construction_matrix",
        "eigh_factor",
        "householder_from_target",
        "pca_factors",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:  # a submodule not yet imported falls through to the import system
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
