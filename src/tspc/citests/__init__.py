"""Conditional-independence tests: Gaussian partial correlation and kernel HSIC."""

from .base import CiOutcome, CiQuery, CiTestError
from .bootstrap import BootstrapConfig, stationary_bootstrap_threshold
from .gaussian import (
    CovMatrix,
    GaussianCiConfig,
    fisher_z,
    gaussian_ci_test,
    gaussian_gamma,
    partial_correlation,
    sample_covariance,
)
from .hsic import (
    ColumnFactors,
    HsicConfig,
    decoupled_pair_gamma,
    hsic_ci_test,
    hsic_conditional,
    pair_gamma,
)

__all__ = [
    "CiOutcome",
    "CiQuery",
    "CiTestError",
    "BootstrapConfig",
    "stationary_bootstrap_threshold",
    "CovMatrix",
    "GaussianCiConfig",
    "fisher_z",
    "gaussian_ci_test",
    "gaussian_gamma",
    "partial_correlation",
    "sample_covariance",
    "ColumnFactors",
    "HsicConfig",
    "decoupled_pair_gamma",
    "hsic_ci_test",
    "hsic_conditional",
    "pair_gamma",
]
