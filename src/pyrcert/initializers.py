"""Weight initializers, width planning, and synthetic sphere data.

Two schemes are provided:

* ``certifiable`` - a wide LeCun first layer, a second layer with small
  (possibly zero) variance, and deep layers with singular values anchored
  well above 1 by a gain parameter.  Raising the gain shrinks the right-hand
  sides of the certificate's initial conditions, so a finite gain always
  exists that makes the certificate pass (``tune_gain`` finds it).
* ``lecun`` - iid Gaussians with variance equal to the reciprocal fan-in.

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
from .network import Dataset, Params, Shape

__all__ = [
    "InitConfig",
    "WidthPlan",
    "layer_rng",
    "first_layer",
    "init_certifiable",
    "init_lecun",
    "tune_gain",
    "required_width_lecun",
    "growing_widths_ok",
    "sphere_data",
    "sphere_targets",
]

SCHEMES = ("certifiable", "lecun")
DEEP_STYLES = ("gaussian", "scaled_identity")
# stream tags for dataset inputs and targets, disjoint from layer indices
_DATA_STREAM = 104729
_TARGET_STREAM = 104730


@dataclass(frozen=True)
class InitConfig:
    """Scheme selection plus the certifiable-scheme knobs.

    ``gain`` (> 1) anchors the deep-layer singular values; for the
    scaled-identity style the deep matrices are exactly ``gain`` times a
    top-block identity.  ``second_layer_var`` is the iid variance of the
    second layer (0 gives an exactly-zero second layer, which zeroes the
    initial network output).
    """

    scheme: str = "certifiable"
    gain: float = 2.0
    second_layer_var: float = 0.0
    deep_style: str = "scaled_identity"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if self.scheme == "certifiable":
            if not self.gain > 1.0:
                raise ValueError(f"gain must exceed 1, got {self.gain}")
            if self.second_layer_var < 0.0:
                raise ValueError("second_layer_var must be >= 0")
            if self.deep_style not in DEEP_STYLES:
                raise ValueError(
                    f"unknown deep_style {self.deep_style!r}, expected one of {DEEP_STYLES}"
                )


def layer_rng(seed: int, stream: int) -> np.random.Generator:
    """Deterministic per-stream generator; streams never interact."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stream)]))


def _lecun_layer(seed: int, l: int, fan_in: int, fan_out: int) -> np.ndarray:
    return layer_rng(seed, l).normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_in, fan_out))


def first_layer(shape: Shape, seed: int) -> np.ndarray:
    """``W_1`` of both schemes: iid N(0, 1/d) from stream 1."""
    return _lecun_layer(seed, 1, shape.d, shape.widths[0])


def init_certifiable(
    shape: Shape, data: Dataset, act: ActivationParams, cfg: InitConfig
) -> Params:
    """Draw the certifiable initialization for the given shape.

    First layer: iid N(0, 1/d).  Second layer: iid N(0, second_layer_var)
    (exactly zero when the variance is zero).  Deep layers: either iid
    N(0, (200*gain)^2 / fan_in) or ``gain`` times a top-block identity.
    The activation argument is unused by the construction itself; it is part
    of the signature because the scheme is only meaningful for activations
    with a positive slope floor.
    """
    if cfg.scheme != "certifiable":
        raise ValueError(f"config selects scheme {cfg.scheme!r}")
    del act
    dims = shape.dims
    L = shape.depth
    if shape.widths[0] < data.n_samples:
        warnings.warn(
            f"first layer width {shape.widths[0]} is below the sample count "
            f"{data.n_samples}; the certificate cannot hold",
            stacklevel=2,
        )
    weights = [first_layer(shape, cfg.seed)]
    if L >= 2:
        if cfg.second_layer_var == 0.0:
            w2 = np.zeros((dims[1], dims[2]))
        else:
            w2 = layer_rng(cfg.seed, 2).normal(
                0.0, math.sqrt(cfg.second_layer_var), size=(dims[1], dims[2])
            )
        weights.append(w2)
    for l in range(3, L + 1):
        fan_in, fan_out = dims[l - 1], dims[l]
        if cfg.deep_style == "gaussian":
            if not math.sqrt(fan_in) >= 1.01 * math.sqrt(fan_out):
                raise ValueError(
                    f"gaussian deep layers need sqrt(n_{l - 1}) >= 1.01*sqrt(n_{l}); "
                    f"widths ({fan_in}, {fan_out}) violate this at layer {l}"
                )
            std = 200.0 * cfg.gain / math.sqrt(fan_in)
            weights.append(layer_rng(cfg.seed, l).normal(0.0, std, size=(fan_in, fan_out)))
        else:
            w = np.zeros((fan_in, fan_out))
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
    shape: Shape,
    data: Dataset,
    act: ActivationParams,
    cfg: InitConfig,
    gain_max: float = 1e15,
    margin: float = 1.2,
) -> tuple[float, Params, Certificate]:
    """Raise the deep-layer gain until both initial conditions hold.

    Doubles the gain to find a passing value, bisects down to ~1% of the
    flip point, then applies a safety margin.  Returns the final gain, the
    drawn parameters, and their certificate.  Raises if no gain up to
    ``gain_max`` certifies (e.g. degenerate data with zero lambda_F).
    """

    def attempt(g: float) -> tuple[Params, Certificate]:
        params = init_certifiable(shape, data, act, replace(cfg, gain=g))
        return params, certify(params, data, act)

    g = max(cfg.gain, 1.0 + 1e-9)
    params, cert = attempt(g)
    if not cert.certified:
        if cert.degenerate_reason is not None:
            raise RuntimeError(f"cannot certify: {cert.degenerate_reason}")
        lo = g
        while True:
            g *= 2.0
            if g > gain_max:
                raise RuntimeError(f"no certifying gain found up to {gain_max:g}")
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
    if margin != 1.0:
        g_final = g * margin
        p_fin, c_fin = attempt(g_final)
        if c_fin.certified:
            return g_final, p_fin, c_fin
    return g, params, cert


# ---------------------------------------------------------------------------
# Width planning for LeCun initialization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WidthPlan:
    """First-layer width requirement and admissible step size, LeCun scheme.

    Evaluates the published sufficient conditions literally.  Both outputs
    scale with ``2**(c*L)`` for a user-supplied constant ``c`` that the
    theory leaves unspecified, so the plan is conservative by construction.
    """

    n1_required: int
    eta_max_lecun: float
    terms: tuple[float, float, float, float]
    n_samples: int
    d: int
    lambda_star: float
    depth: int
    t: float
    t0: float
    c_const: float
    x_op: float
    x_fro: float
    y_fro: float
    n_out: int
    note: str = "conservative: depends on unspecified constant c"


def t0_floor(X: np.ndarray, lambda_star: float) -> float:
    """Smallest admissible truncation parameter for the width plan."""
    X = np.asarray(X, dtype=np.float64)
    d = X.shape[1]
    x_op = float(np.linalg.norm(X, 2))
    inner = max(1.0, 2.0 * math.sqrt(6.0 * d) * x_op**2 / lambda_star)
    return max(1.0, math.sqrt(4.0 / d * math.log(inner)))


def growing_widths_ok(shape: Shape, t: float) -> bool:
    """Whether every consecutive pair satisfies sqrt(n_{l-1}) >= 1.01*(sqrt(n_l)+t)."""
    dims = shape.widths
    return all(
        math.sqrt(dims[i - 1]) >= 1.01 * (math.sqrt(dims[i]) + t)
        for i in range(1, len(dims))
    )


def required_width_lecun(
    data: Dataset,
    lambda_star: float,
    depth: int,
    t: float,
    t0: float,
    c_const: float = 1.0,
) -> WidthPlan:
    """Literal evaluation of the LeCun width requirement and step-size cap."""
    if not lambda_star > 0.0:
        raise ValueError(f"lambda_star must be positive, got {lambda_star}")
    if not t > 0.0:
        raise ValueError("t must be positive")
    floor = t0_floor(data.X, lambda_star)
    if t0 < floor:
        raise ValueError(f"t0={t0} is below its admissible floor {floor:.6g}")
    if depth < 2:
        raise ValueError("depth must be >= 2")
    N, d = data.n_samples, data.d
    n_out = data.n_out
    x_op = float(np.linalg.norm(data.X, 2))
    x_fro = float(np.linalg.norm(data.X, "fro"))
    y_fro = float(np.linalg.norm(data.Y, "fro"))

    blowup = 2.0 ** (c_const * depth)
    output_scale = (math.sqrt(n_out) + t) * x_fro / math.sqrt(d) + y_fro
    term1 = float(N)
    term2 = float(d)
    term3 = c_const * t0**2 * d * x_op**2 * (t0**2 + math.log(N)) / lambda_star
    term4 = blowup * x_fro**2 / (d * lambda_star**2) * output_scale**2
    n1_required = int(math.ceil(max(term1, term2, term3, term4)))

    eta_den = (
        blowup
        * (n1_required / d)
        * max(1.0, x_fro**2)
        * max(1.0, (math.sqrt(n_out) + t) * x_fro / math.sqrt(d), y_fro)
    )
    return WidthPlan(
        n1_required=n1_required,
        eta_max_lecun=1.0 / eta_den,
        terms=(term1, term2, term3, term4),
        n_samples=N,
        d=d,
        lambda_star=lambda_star,
        depth=depth,
        t=t,
        t0=t0,
        c_const=c_const,
        x_op=x_op,
        x_fro=x_fro,
        y_fro=y_fro,
        n_out=n_out,
    )


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def sphere_data(n_samples: int, d: int, radius: float | None = None, seed: int = 0) -> np.ndarray:
    """iid rows uniform on the sphere of the given radius (default sqrt(d))."""
    if n_samples < 1 or d < 1:
        raise ValueError("n_samples and d must be >= 1")
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
