"""Convergence certificates and spectral diagnostics for deep pyramidal
networks trained by full-batch gradient descent."""

from .activation import ActivationParams, evaluate
from .certificates import (
    Certificate,
    certify,
    check_assumption,
    monitor_invariants,
    rate_constants,
    spectral_quantities,
)
from .gradients import (
    GradientBundle,
    TrainConfig,
    TrainLog,
    grad,
    pl_lower_bound,
    train,
)
from .initializers import (
    InitConfig,
    first_layer,
    init_certifiable,
    init_lecun,
    sphere_data,
    sphere_targets,
    tune_gain,
)
from .lambda_star import (
    GramEstimate,
    HermiteSpec,
    gram_hermite,
    gram_mc,
    hermite_coeffs,
    khatri_rao_power,
    kr_min_singular,
)
from .network import Dataset, ForwardTrace, Params, Shape, forward, loss

__version__ = "0.1.0"

__all__ = [
    "ActivationParams",
    "Certificate",
    "Dataset",
    "ForwardTrace",
    "GradientBundle",
    "GramEstimate",
    "HermiteSpec",
    "InitConfig",
    "Params",
    "Shape",
    "TrainConfig",
    "TrainLog",
    "certify",
    "check_assumption",
    "evaluate",
    "first_layer",
    "forward",
    "grad",
    "gram_hermite",
    "gram_mc",
    "hermite_coeffs",
    "init_certifiable",
    "init_lecun",
    "khatri_rao_power",
    "kr_min_singular",
    "loss",
    "monitor_invariants",
    "pl_lower_bound",
    "rate_constants",
    "spectral_quantities",
    "sphere_data",
    "sphere_targets",
    "train",
    "tune_gain",
]
