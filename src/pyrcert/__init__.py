"""Convergence certificates and spectral diagnostics for deep pyramidal
networks trained by full-batch gradient descent."""

from .activation import ActivationParams, evaluate
from .certificates import (
    Certificate,
    certificate_from_spectra,
    certify,
    monitor_invariants,
    spectral_quantities,
)
from .gradients import (
    GradientBundle,
    TrainConfig,
    TrainLog,
    grad,
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
    "certificate_from_spectra",
    "certify",
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
    "spectral_quantities",
    "sphere_data",
    "sphere_targets",
    "train",
    "tune_gain",
]
