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

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ActivationParams",
    "evaluate",
    "value_and_slope",
    "as_function",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _real(value, name: str) -> float:
    """``value`` as a Python float: ints, floats and NumPy real scalars
    pass, an int past the float range as an infinity; a bool (a number only
    by accident), a string, None or a complex number is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True)
class ActivationParams:
    """Slope floor and smoothness scale of one member of the family."""

    gamma: float
    beta: float

    def __post_init__(self) -> None:
        gamma, beta = _real(self.gamma, "gamma"), _real(self.beta, "beta")
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"gamma must lie strictly in (0, 1), got {self.gamma!r}")
        if not (math.isfinite(beta) and beta > 0.0):
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")
        # the scale of z and the bump height, as _constants computes them
        scale, a = beta * _SQRT_2PI / (1.0 - gamma), (1.0 - gamma) ** 2 / (2.0 * math.pi * beta)
        if not (math.isfinite(scale) and math.isfinite(a)):
            raise ValueError(f"beta={self.beta!r} at gamma={self.gamma!r} overflows the activation's constants")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "beta", beta)


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
    non-finite entries, allocates the value, slope and bump buffers and
    handles 0-d input around ``_value_and_slope``.  The slope is bit-exact
    against ``g + (1-g)*(0.5*erfc(-u))`` (scaling by 0.5 is exact); the
    value is within a few ulps of the two-``erfc`` sum.
    """
    arr = _as_finite_array(x)
    xs = arr.reshape(1) if arr.ndim == 0 else arr  # ufuncs with out= need an array
    val, slope, bump = np.empty_like(xs), np.empty_like(xs), np.empty_like(xs)
    with np.errstate(under="ignore", over="ignore"):
        _value_and_slope(_constants(params), xs, val, slope, bump)
    if arr.ndim == 0:
        return float(val[0]), float(slope[0])
    return val, slope


@functools.cache
def _erfc():
    """scipy's ``erfc`` ufunc, imported on the first call: loading
    ``scipy.special`` takes about 0.2 s, which a command that never
    evaluates the activation should not pay."""
    from scipy import special

    return special.erfc


def _constants(params: ActivationParams) -> tuple:
    """What ``_value_and_slope`` needs of ``params``: the scale of ``z``,
    the bump height ``a``, the slope's ``(1-g)/2``, its floor ``g`` and the
    ``erfc`` ufunc, which the first call imports."""
    g, b = params.gamma, params.beta
    return b * _SQRT_2PI / (1.0 - g), (1.0 - g) ** 2 / (2.0 * math.pi * b), 0.5 * (1.0 - g), g, _erfc()


# The kernel's fixed factors as 0-d arrays: a ufunc takes one with less
# per-call work than a Python float, and rounds with the same float64 value.
_MINUS_HALF = np.array(-0.5)
_MINUS_INV_SQRT2 = np.array(-_INV_SQRT2)


def _value_and_slope(consts, xs: np.ndarray, val: np.ndarray, slope: np.ndarray, bump: np.ndarray) -> None:
    """The unchecked kernel of ``value_and_slope``: writes the value of the
    finite float64 array ``xs`` into ``val`` and its slope into ``slope``,
    using ``bump`` as scratch; ``consts`` is ``_constants(params)``, its
    four numbers as floats or, for a caller that runs it every step, as 0-d
    arrays, and its last member the ``erfc`` ufunc.  The
    three buffers are the caller's, shaped like ``xs`` and distinct from it
    and from each other, so a caller that runs it every step allocates
    nothing.

    One buffer holds ``z``, then ``-u``, then ``erfc(-u)``, then the slope;
    a second holds ``-z*z/2``, then the bump, then ``a*bump - a``; the third
    is the value.  ``z*z`` overflows and ``exp`` underflows to 0 for large
    ``|x|``, and ``z`` itself can overflow to inf; every one of these
    reaches the correct limit, so a caller that wants no warnings runs this
    under ``np.errstate(under="ignore", over="ignore")``.
    """
    scale, a, half_gap, g, erfc = consts
    multiply, add = np.multiply, np.add
    multiply(xs, scale, slope)
    multiply(slope, slope, bump)
    multiply(bump, _MINUS_HALF, bump)
    np.exp(bump, bump)
    multiply(bump, a, bump)
    np.subtract(bump, a, bump)
    multiply(slope, _MINUS_INV_SQRT2, slope)
    # erfc keeps full relative accuracy in the tails
    erfc(slope, slope)
    multiply(slope, half_gap, slope)
    add(slope, g, slope)
    multiply(xs, slope, val)
    add(val, bump, val)


def as_function(params: ActivationParams):
    """Vectorized ``x -> sigma(x)`` closure (for the Gram/Hermite machinery)."""

    def sigma(x):
        return evaluate(params, x)

    sigma.label = f"smoothed_leaky_relu(gamma={params.gamma}, beta={params.beta})"
    return sigma
