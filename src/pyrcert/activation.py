"""Gaussian-smoothed leaky-ReLU activations.

The family is parameterized by a slope floor ``gamma`` in (0, 1) and a
smoothing scale ``beta`` > 0.  It is the piecewise-linear ramp
``max(gamma*x, x)`` convolved with a narrow Gaussian and shifted so that the
value at 0 is exactly 0.  The closed form goes through the standard normal
CDF, so everything here reduces to ``erfc`` and ``exp`` calls.

Key analytic facts used throughout the package: the slope stays in
``[gamma, 1]``, ``|sigma(x)| <= |x|``, the slope is ``beta``-Lipschitz, and
the gap to the unsmoothed ramp is uniformly bounded by
``(1-gamma)^2/(2*pi*beta) + (1-gamma)/(pi*beta)``.  The tests assert each
one; the second derivative and the gap they check it with are reference
implementations in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "ActivationParams",
    "evaluate",
    "value_and_slope",
    "as_function",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ActivationParams:
    """Slope floor and smoothness scale of one member of the family."""

    gamma: float
    beta: float

    def __post_init__(self) -> None:
        if not (isinstance(self.gamma, (int, float)) and 0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma must lie strictly in (0, 1), got {self.gamma!r}")
        if not (isinstance(self.beta, (int, float)) and math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")


def _as_finite_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("activation input must be finite")
    return arr


def evaluate(params: ActivationParams, x):
    """Activation value; accepts scalars or arrays (applied entrywise)."""
    return value_and_slope(params, x)[0]


def value_and_slope(params: ActivationParams, x):
    """Value and first derivative in one pass: one ``erfc``, three buffers.

    With ``z`` the scaled argument and ``u = z/sqrt(2)``, the slope is
    ``g + (1-g)*ncdf(z)`` with ``ncdf(z) = 0.5*erfc(-u)``.  Since
    ``ncdf(z) + ncdf(-z) = 1``, the two ramp terms
    ``x*ncdf(z) + g*x*ncdf(-z)`` of the value sum to ``x*slope``, so
    ``sigma(x) = a*(bump - 1) + x*slope`` needs no second ``erfc``.

    This is the checked entry point: it converts the input, rejects
    non-finite entries and handles 0-d input around ``_value_and_slope``.
    The slope is bit-exact against ``g + (1-g)*(0.5*erfc(-u))`` (scaling
    by 0.5 is exact); the value is within a few ulps of the two-``erfc`` sum.
    """
    arr = _as_finite_array(x)
    xs = arr.reshape(1) if arr.ndim == 0 else arr  # ufuncs with out= need an array
    with np.errstate(under="ignore", over="ignore"):
        val, slope = _value_and_slope(params, xs)
    if arr.ndim == 0:
        return float(val[0]), float(slope[0])
    return val, slope


def _value_and_slope(params: ActivationParams, xs: np.ndarray):
    """The unchecked kernel of ``value_and_slope``, for a finite float64
    array of at least one dimension, which it does not check.

    The work runs in place: one buffer holds ``z``, then ``-u``, then
    ``erfc(-u)``, then the slope; a second holds ``-z*z/2``, then the
    bump, then ``a*bump - a``; the third is the value.  ``z*z`` overflows
    and ``exp`` underflows to 0 for large ``|x|``, and ``z`` itself can
    overflow to inf; every one of these reaches the correct limit, so a
    caller that wants no warnings runs this under
    ``np.errstate(under="ignore", over="ignore")``.
    """
    g, b = params.gamma, params.beta
    a = (1.0 - g) ** 2 / (2.0 * math.pi * b)
    slope = np.multiply(xs, b * _SQRT_2PI / (1.0 - g))
    bump = np.multiply(slope, slope)
    bump *= -0.5
    np.exp(bump, out=bump)
    bump *= a
    bump -= a
    slope *= -_INV_SQRT2
    # erfc keeps full relative accuracy in the tails
    special.erfc(slope, out=slope)
    slope *= 0.5 * (1.0 - g)
    slope += g
    val = np.multiply(xs, slope)
    val += bump
    return val, slope


def as_function(params: ActivationParams):
    """Vectorized ``x -> sigma(x)`` closure (for the Gram/Hermite machinery)."""

    def sigma(x):
        return evaluate(params, x)

    sigma.label = f"smoothed_leaky_relu(gamma={params.gamma}, beta={params.beta})"
    return sigma
