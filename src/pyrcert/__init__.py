"""Convergence certificates and spectral diagnostics for deep pyramidal
networks trained by full-batch gradient descent."""

from .activation import ActivationParams, deriv, deriv2, evaluate, gap_bound, uniform_gap
from .certificates import (
    Certificate,
    certify,
    check_assumption,
    lambda_f,
    monitor_invariants,
    predicted_decay,
    rate_constants,
    spectral_quantities,
)
from .gradients import (
    GradientBundle,
    TrainConfig,
    TrainLog,
    grad,
    jacobian_block,
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
    hermite_poly,
    khatri_rao_power,
    kr_min_singular,
)
from .network import Dataset, ForwardTrace, Params, Shape, forward, loss, theta_distance, vec

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
    "deriv",
    "deriv2",
    "evaluate",
    "first_layer",
    "forward",
    "gap_bound",
    "grad",
    "gram_hermite",
    "gram_mc",
    "hermite_coeffs",
    "hermite_poly",
    "init_certifiable",
    "init_lecun",
    "jacobian_block",
    "khatri_rao_power",
    "kr_min_singular",
    "lambda_f",
    "loss",
    "monitor_invariants",
    "pl_lower_bound",
    "predicted_decay",
    "rate_constants",
    "spectral_quantities",
    "sphere_data",
    "sphere_targets",
    "theta_distance",
    "train",
    "tune_gain",
    "uniform_gap",
    "vec",
]
