"""Weight initializers and synthetic sphere data.

Two schemes are provided:

* ``certifiable`` - a wide LeCun first layer, an exactly-zero second layer,
  and deep layers equal to a gain above 1 times a top-block identity, so
  every deep singular value is exactly the gain.  Raising the gain shrinks
  the right-hand sides of the certificate's initial conditions, so from
  depth 3 on a finite gain always exists that makes the certificate pass
  (``tune_gain`` finds it from one measurement).
* ``lecun`` - iid Gaussians with variance equal to the reciprocal fan-in.
  A wide first layer under this scheme is the paper's LeCun application;
  ``certify`` decides each instance on its own.

This module holds the layout of every random stream.  Weights are drawn
from per-layer streams keyed by (seed, layer index), so adding layers never
perturbs the draws of earlier layers; the synthetic inputs and targets have
streams of their own, and ``lambda_star.gram_mc``'s Monte Carlo batches
streams spawned from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .activation import ActivationParams, _real, evaluate
from .certificates import Certificate, certificate_from_spectra, certify
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
    times a top-block identity.  ``seed`` is an integer >= 0.
    """

    gain: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "gain", _real(self.gain, "gain"))
        if not (math.isfinite(self.gain) and self.gain > 1.0):
            raise ValueError(f"gain must be finite and exceed 1, got {self.gain}")
        object.__setattr__(self, "seed", _size(self.seed, "seed", 0))


def layer_rng(seed: int, stream: int) -> np.random.Generator:
    """Deterministic per-stream generator; streams never interact.  ``seed``
    must be an integer >= 0; it is never truncated."""
    return np.random.default_rng(np.random.SeedSequence([_size(seed, "seed", 0), stream]))


def _batch_rngs(seed: int, n: int):
    """``n`` streams spawned from ``seed``, each made when it is reached."""
    for stream in np.random.SeedSequence(seed).spawn(n):
        yield np.random.default_rng(stream)


def _lecun_layer(seed: int, l: int, fan_in: int, fan_out: int) -> np.ndarray:
    return layer_rng(seed, l).normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_in, fan_out))


def first_layer(shape: Shape, seed: int) -> np.ndarray:
    """``W_1`` of both schemes: iid N(0, 1/d) from stream 1."""
    return _lecun_layer(seed, 1, shape.d, shape.widths[0])


def init_certifiable(shape: Shape, cfg: InitConfig) -> Params:
    """Draw the certifiable initialization for the given shape.

    First layer: iid N(0, 1/d).  Second layer: exactly zero, which zeroes
    the initial network output.  Deep layers: ``gain`` times a top-block
    identity.
    """
    dims = shape.dims
    weights = [first_layer(shape, cfg.seed), np.zeros((dims[1], dims[2]))]
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

    The network is drawn and certified once at ``cfg.gain``, and once more
    at the chosen gain if it moved; every other attempt replays that one
    measurement through ``certificate_from_spectra`` with the deep spectra
    set to the gain.  The replay equals a real ``certify`` of the drawn
    network, bit for bit, because:

    * W_2 = 0 makes every later hidden layer sigma(0) = 0 exactly, so the
      output is 0 and phi0 = ||Y||^2 / 2 at every gain;
    * W_1, and so F_1 and lambda_F, do not depend on the gain, and neither
      do the first two spectral proxies;
    * each deep layer is g * [I; 0], whose computed singular values are
      exactly g.
    """

    def draw(g: float) -> tuple[Params, Certificate]:
        params = init_certifiable(shape, replace(cfg, gain=g))
        return params, certify(params, data, act)

    params, cert = draw(cfg.gain)
    n_deep = shape.depth - 2

    def certifies(g: float) -> bool:
        # a gain whose constants leave the float64 range does not certify
        deep = (g,) * n_deep
        try:
            return certificate_from_spectra(
                cert.lambda_bar[:2] + deep, deep, cert.lambda_f, data.X, cert.phi0, act
            ).certified
        except ValueError:
            return False

    # hi certifies and a searched lo refuses; hi is inf while the gain doubles
    lo = hi = cfg.gain
    if not cert.certified:
        if cert.degenerate_reason is not None or n_deep == 0:
            return cfg.gain, params, cert
        hi = math.inf
    while hi / lo > 1.01:
        g = 2.0 * lo if hi == math.inf else math.sqrt(lo * hi)
        if g > GAIN_MAX:
            return cfg.gain, params, cert
        if certifies(g):
            hi = g
        else:
            lo = g
    g = hi
    if certifies(g * GAIN_MARGIN):
        g *= GAIN_MARGIN
    if g == cfg.gain:
        return g, params, cert
    return (g, *draw(g))


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def sphere_data(n_samples: int, d: int, radius: float | None = None, seed: int = 0) -> np.ndarray:
    """iid rows uniform on the sphere of the given radius (default sqrt(d));
    ``n_samples`` and ``d`` are integers >= 1."""
    n_samples, d = _size(n_samples, "n_samples", 1), _size(d, "d", 1)
    r = math.sqrt(d) if radius is None else _real(radius, "radius")
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
    """Targets ``Y`` (N x n_L) of Frobenius norm ``scale``, a finite real
    number >= 0, for inputs ``X``.

    ``"gaussian"``: iid normal entries from the target stream, normalized.
    ``"aligned"``: rank 1 along the dominant left singular vector of the
    first hidden layer's output under ``first_layer(shape, seed)``, spread
    evenly over the outputs.  The certified step size is tiny, so aligned
    targets keep a certified run short: off-mode components converge very
    slowly.
    """
    scale = _real(scale, "scale")
    if not (math.isfinite(scale) and scale >= 0.0):
        raise ValueError(f"scale must be finite and >= 0, got {scale}")
    n, n_out = X.shape[0], shape.widths[-1]
    if mode == "gaussian":
        G = layer_rng(seed, _TARGET_STREAM).normal(size=(n, n_out))
        return scale * G / np.linalg.norm(G)
    if mode == "aligned":
        u = np.linalg.svd(evaluate(act, X @ first_layer(shape, seed)))[0][:, 0]
        return scale * np.outer(u, np.full(n_out, 1.0 / math.sqrt(n_out)))
    raise ValueError(f"unknown target mode {mode!r}")
