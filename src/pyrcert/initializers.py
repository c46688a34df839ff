"""Weight initializers and synthetic sphere data.

Two schemes are provided:

* ``certifiable`` - a wide LeCun first layer, a second layer with small
  (possibly zero) variance, and deep layers equal to a gain above 1 times a
  top-block identity, so every deep singular value is exactly the gain.
  Raising the gain shrinks the right-hand sides of the certificate's
  initial conditions, so a finite gain always exists that makes the
  certificate pass (``tune_gain`` finds it).
* ``lecun`` - iid Gaussians with variance equal to the reciprocal fan-in.
  A wide first layer under this scheme is the paper's LeCun application;
  ``certify`` decides each instance on its own.

All draws are split into per-layer streams keyed by (seed, layer index), so
adding layers never perturbs the draws of earlier layers; the synthetic
inputs and targets have streams of their own.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .activation import ActivationParams, evaluate
from .certificates import Certificate, certify
from .network import Dataset, Params, Shape, _size

__all__ = [
    "InitConfig",
    "layer_rng",
    "first_layer",
    "init_certifiable",
    "init_lecun",
    "tune_gain",
    "sphere_data",
    "sphere_targets",
]

# stream tags for dataset inputs and targets, disjoint from layer indices
_DATA_STREAM = 104729
_TARGET_STREAM = 104730
# tune_gain gives up above GAIN_MAX; a certified search returns the flip
# point times GAIN_MARGIN when that still certifies
GAIN_MAX = 1e15
GAIN_MARGIN = 1.2


@dataclass(frozen=True)
class InitConfig:
    """Knobs of the certifiable scheme.

    ``gain`` (> 1) anchors the deep layers, which are exactly ``gain``
    times a top-block identity.  ``second_layer_var`` is the iid variance of
    the second layer (0 gives an exactly-zero second layer, which zeroes the
    initial network output).  ``seed`` is an integer >= 0.
    """

    gain: float = 2.0
    second_layer_var: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gain) and self.gain > 1.0):
            raise ValueError(f"gain must be finite and exceed 1, got {self.gain}")
        if not (math.isfinite(self.second_layer_var) and self.second_layer_var >= 0.0):
            raise ValueError(
                f"second_layer_var must be finite and >= 0, got {self.second_layer_var}"
            )
        object.__setattr__(self, "seed", _size(self.seed, "seed", 0))


def layer_rng(seed: int, stream: int) -> np.random.Generator:
    """Deterministic per-stream generator; streams never interact.  ``seed``
    must be an integer >= 0; it is never truncated."""
    return np.random.default_rng(np.random.SeedSequence([_size(seed, "seed", 0), stream]))


def _lecun_layer(seed: int, l: int, fan_in: int, fan_out: int) -> np.ndarray:
    return layer_rng(seed, l).normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_in, fan_out))


def first_layer(shape: Shape, seed: int) -> np.ndarray:
    """``W_1`` of both schemes: iid N(0, 1/d) from stream 1."""
    return _lecun_layer(seed, 1, shape.d, shape.widths[0])


def init_certifiable(shape: Shape, data: Dataset, cfg: InitConfig) -> Params:
    """Draw the certifiable initialization for the given shape.

    First layer: iid N(0, 1/d).  Second layer: iid N(0, second_layer_var)
    (exactly zero when the variance is zero).  Deep layers: ``gain`` times
    a top-block identity.
    """
    dims = shape.dims
    if shape.widths[0] < data.n_samples:
        warnings.warn(
            f"first layer width {shape.widths[0]} is below the sample count "
            f"{data.n_samples}; the certificate cannot hold",
            stacklevel=2,
        )
    if cfg.second_layer_var == 0.0:
        w2 = np.zeros((dims[1], dims[2]))
    else:
        w2 = layer_rng(cfg.seed, 2).normal(
            0.0, math.sqrt(cfg.second_layer_var), size=(dims[1], dims[2])
        )
    weights = [first_layer(shape, cfg.seed), w2]
    for l in range(3, shape.depth + 1):
        w = np.zeros((dims[l - 1], dims[l]))
        np.fill_diagonal(w, cfg.gain)  # top block = gain * identity
        weights.append(w)
    return Params(tuple(weights))


def init_lecun(shape: Shape, seed: int) -> Params:
    """iid N(0, 1/fan_in) for every layer, per-layer streams."""
    dims = shape.dims
    weights = tuple(
        _lecun_layer(seed, l, dims[l - 1], dims[l]) for l in range(1, shape.depth + 1)
    )
    return Params(weights)


def tune_gain(
    shape: Shape, data: Dataset, act: ActivationParams, cfg: InitConfig
) -> tuple[float, Params, Certificate]:
    """Raise the deep-layer gain until both initial conditions hold.

    Doubles the gain to find a passing value, bisects down to ~1% of the
    flip point, then applies the ``GAIN_MARGIN`` safety factor.  Returns the
    final gain, the drawn parameters, and their certificate.  A refused
    instance (degenerate data with zero lambda_F, depth 2, where the gain
    enters no weight, or no certifying gain up to ``GAIN_MAX``) returns its
    starting attempt ``(cfg.gain, params, cert)``, whose certificate says why.
    """

    def attempt(g: float) -> tuple[Params, Certificate]:
        params = init_certifiable(shape, data, replace(cfg, gain=g))
        return params, certify(params, data, act)

    g = cfg.gain
    params, cert = attempt(g)
    if not cert.certified:
        refused = g, params, cert
        if cert.degenerate_reason is not None or shape.depth == 2:
            return refused
        lo = g
        while True:
            g *= 2.0
            if g > GAIN_MAX:
                return refused
            params, cert = attempt(g)
            if cert.certified:
                break
            lo = g
        hi = g
        while hi / lo > 1.01:
            mid = math.sqrt(lo * hi)
            p_mid, c_mid = attempt(mid)
            if c_mid.certified:
                hi, params, cert = mid, p_mid, c_mid
            else:
                lo = mid
        g = hi
    g_final = g * GAIN_MARGIN
    p_fin, c_fin = attempt(g_final)
    if c_fin.certified:
        return g_final, p_fin, c_fin
    return g, params, cert


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def sphere_data(n_samples: int, d: int, radius: float | None = None, seed: int = 0) -> np.ndarray:
    """iid rows uniform on the sphere of the given radius (default sqrt(d));
    ``n_samples`` and ``d`` are integers >= 1."""
    n_samples, d = _size(n_samples, "n_samples", 1), _size(d, "d", 1)
    r = math.sqrt(d) if radius is None else float(radius)
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    rng = layer_rng(seed, _DATA_STREAM)
    X = rng.normal(size=(n_samples, d))
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    # a zero row has probability zero; regenerate entries defensively anyway
    while np.any(norms == 0.0):  # pragma: no cover - measure-zero branch
        bad = norms[:, 0] == 0.0
        X[bad] = rng.normal(size=(int(bad.sum()), d))
        norms = np.linalg.norm(X, axis=1, keepdims=True)
    return r * X / norms


def sphere_targets(
    mode: str, shape: Shape, X: np.ndarray, act: ActivationParams, seed: int, scale: float
) -> np.ndarray:
    """Targets ``Y`` (N x n_L) of Frobenius norm ``scale`` for inputs ``X``.

    ``"gaussian"``: iid normal entries from the target stream, normalized.
    ``"aligned"``: rank 1 along the dominant left singular vector of the
    first hidden layer's output under ``first_layer(shape, seed)``, spread
    evenly over the outputs.  The certified step size is tiny, so aligned
    targets keep a certified run short: off-mode components converge very
    slowly.
    """
    n, n_out = X.shape[0], shape.widths[-1]
    if mode == "gaussian":
        G = layer_rng(seed, _TARGET_STREAM).normal(size=(n, n_out))
        return scale * G / np.linalg.norm(G)
    if mode == "aligned":
        u = np.linalg.svd(evaluate(act, X @ first_layer(shape, seed)))[0][:, 0]
        return scale * np.outer(u, np.full(n_out, 1.0 / math.sqrt(n_out)))
    raise ValueError(f"unknown target mode {mode!r}")
