"""Growth-adaptive differentially private stochastic convex optimization.

Core pieces: shared types and projections (:mod:`dpgrowth.core`), noise
calibration and the empirical privacy falsifier (:mod:`dpgrowth.mechanisms`),
the regularized inner solver (:mod:`dpgrowth.erm`), the localization chain
(:mod:`dpgrowth.localization`), the epoch outer loop
(:mod:`dpgrowth.epoch_growth`), the grid exponential sampler
(:mod:`dpgrowth.inv_sensitivity`), instance generators
(:mod:`dpgrowth.instances`), and the experiment harness and CLI
(:mod:`dpgrowth.harness`)."""

from .core import (
    ConvergenceError,
    Dataset,
    Domain,
    GrowthSpec,
    InvalidInputError,
    LossOracle,
    PrivacyParams,
    ResourceError,
    RngStream,
    project,
    verify_growth,
    verify_kl,
)
from .instances import build_instance

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "Dataset",
    "Domain",
    "GrowthSpec",
    "InvalidInputError",
    "LossOracle",
    "PrivacyParams",
    "ResourceError",
    "RngStream",
    "project",
    "verify_growth",
    "verify_kl",
    "build_instance",
    "__version__",
]
