"""Expected first-layer Gram matrix and its smallest eigenvalue (lambda*).

For data rows of norm sqrt(d) and Gaussian first-layer weights of variance
1/d, the expected Gram matrix of the activated features admits two
estimators:

* plain Monte Carlo over weight draws, with batched standard errors, and
* a truncated Hermite series, using that the Gram of the r-fold Khatri-Rao
  power equals the entrywise r-th power of X X^T, so no d^r-wide matrix is
  ever materialized.

The same identity gives the smallest singular value of a Khatri-Rao power
from its N x N Gram; the powers themselves are built only when that route
cannot certify the value.  The module also provides the Hermite
coefficients that feed the series.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .initializers import _batch_rngs
from .network import _size

__all__ = [
    "GramEstimate",
    "HermiteSpec",
    "hermite_coeffs",
    "khatri_rao_power",
    "kr_min_singular",
    "gram_mc",
    "gram_hermite",
    "sigma_linear",
]

MAX_HERMITE_ORDER = 200
KR_ENTRY_BUDGET = 10**8
# Relative accuracy to which kr_min_singular certifies sigma_min from the Gram
# route before it falls back to an SVD of the Khatri-Rao power.
KR_REL_TOL = 1e-10
COEFF_CONVERGENCE_TOL = 1e-8
QUAD_START = 200  # hermite_coeffs' first quadrature order, unless r_max + 1 is higher
MAX_QUAD_ORDER = 2**16  # hermite_coeffs doubles the quadrature order up to here
MC_BATCHES = 10  # gram_mc's independent sample batches

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
# LAPACK's symmetric eigensolver is backward stable: each computed eigenvalue
# of an n x n matrix A lies within a small multiple of eps * n * ||A||_2 of
# the true one; _EIG_ERR is that multiple, with room to spare.
_EIG_ERR = 4.0
# gram_mc applies sigma to blocks of this many pre-activations (128 KiB).
_MC_BLOCK_ENTRIES = 2**14


def sigma_linear(x):
    """Identity activation (the degenerate, purely linear case)."""
    return np.asarray(x, dtype=np.float64)


sigma_linear.label = "linear"


@dataclass(frozen=True)
class GramEstimate:
    """An estimate of the expected feature Gram matrix and its bottom eigenvalue."""

    gram: np.ndarray
    lambda_min: float
    n_samples: Optional[int] = None
    r_max: Optional[int] = None
    stderr: Optional[np.ndarray] = None
    tail_mass: Optional[float] = None
    seed: Optional[int] = None

    @property
    def stderr_max(self) -> Optional[float]:
        return None if self.stderr is None else float(np.max(self.stderr))


@dataclass(frozen=True)
class HermiteSpec:
    """Hermite coefficients of a target function under the Gaussian weight."""

    coeffs: np.ndarray  # mu_0 .. mu_{r_max}
    quad_order: int
    target: str
    converged: np.ndarray  # per-coefficient quadrature stability
    norm_sq: float  # quadrature value of E[sigma(g)^2]

    @property
    def r_max(self) -> int:
        return len(self.coeffs) - 1

    def tail_mass(self, r: int) -> float:
        """Coefficient mass (clamped at zero) beyond the integer order ``r`` >= 0."""
        r = _size(r, "order", 0)
        head = float(np.sum(self.coeffs[: r + 1] ** 2))
        return max(self.norm_sq - head, 0.0)


def _check_order(r: int) -> int:
    r = _size(r, "order", 0)
    if r > MAX_HERMITE_ORDER:
        raise ValueError(
            f"order {r} exceeds the 64-bit stability cap {MAX_HERMITE_ORDER}"
        )
    return r


def _hermite_table(x: np.ndarray, r_max: int) -> np.ndarray:
    """Values h_0..h_{r_max} at each point, by the three-term recurrence:
    the normalized probabilists' Hermite polynomials, orthonormal under the
    standard Gaussian weight."""
    H = np.empty((r_max + 1,) + x.shape)
    H[0] = 1.0
    if r_max >= 1:
        H[1] = x
    for r in range(1, r_max):
        H[r + 1] = (x * H[r] - math.sqrt(r) * H[r - 1]) / math.sqrt(r + 1)
    return H


def _coeffs_at_order(sigma: Callable, r_max: int, quad_order: int) -> tuple[np.ndarray, float]:
    # roots_hermite stays stable at high orders, unlike the power-basis
    # route; scipy is imported here, on first use, to keep it off startup
    from scipy.special import roots_hermite

    nodes, weights = roots_hermite(quad_order)
    y = math.sqrt(2.0) * nodes  # Gauss-Hermite weight e^{-x^2} -> Gaussian weight
    vals = np.asarray(sigma(y), dtype=np.float64)
    H = _hermite_table(y, r_max)
    scaled = weights * vals / math.sqrt(math.pi)
    coeffs = H @ scaled
    norm_sq = float(np.sum(weights * vals * vals) / math.sqrt(math.pi))
    return coeffs, norm_sq


def hermite_coeffs(sigma: Callable, r_max: int) -> HermiteSpec:
    """Coefficients mu_0..mu_{r_max} by Gauss-Hermite quadrature.

    The order doubles from ``QUAD_START``, or from ``r_max + 1`` if that is
    higher, until doubling it once more moves no coefficient by 1e-8 or
    more; the spec keeps that order and the coefficients at double it.
    Doubling stops at ``MAX_QUAD_ORDER``, where coefficients still moving
    are flagged as non-converged (with a warning).
    """
    r_max = _check_order(r_max)
    quad_order = max(QUAD_START, r_max + 1)
    base, _ = _coeffs_at_order(sigma, r_max, quad_order)
    while True:
        refined, norm_sq = _coeffs_at_order(sigma, r_max, 2 * quad_order)
        converged = np.abs(refined - base) < COEFF_CONVERGENCE_TOL
        if np.all(converged) or 4 * quad_order > MAX_QUAD_ORDER:
            break
        quad_order, base = 2 * quad_order, refined
    if not np.all(converged):
        bad = np.flatnonzero(~converged)
        warnings.warn(
            f"Hermite coefficients {bad.tolist()} did not stabilize under "
            f"quadrature refinement (order {quad_order} -> {2 * quad_order})",
            stacklevel=2,
        )
    label = getattr(sigma, "label", getattr(sigma, "__name__", "sigma"))
    return HermiteSpec(
        coeffs=refined,
        quad_order=quad_order,
        target=str(label),
        converged=converged,
        norm_sq=norm_sq,
    )


# ---------------------------------------------------------------------------
# Khatri-Rao powers
# ---------------------------------------------------------------------------


def _check_data(X: np.ndarray) -> np.ndarray:
    """``X`` as a finite float64 matrix with at least one row and one column."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if X.shape[0] < 1:
        raise ValueError("X must have at least one row (N >= 1)")
    if X.shape[1] < 1:
        raise ValueError("X must have at least one column (d >= 1)")
    if not np.isfinite(X).all():
        raise ValueError("X must be finite")
    return X


def khatri_rao_power(X: np.ndarray, r: int) -> np.ndarray:
    """Row-wise r-fold Kronecker power: row i becomes x_i x ... x x_i (r times)."""
    X, r = _check_data(X), _size(r, "power", 1)
    n, d = X.shape
    entries = n * d**r
    if entries > KR_ENTRY_BUDGET:
        raise ValueError(
            f"Khatri-Rao power needs {entries:.3g} entries "
            f"({entries * 8 / 2**30:.2f} GiB), over the {KR_ENTRY_BUDGET:.0e} budget"
        )
    K = X.copy()
    for _ in range(r - 1):
        K = (K[:, :, None] * X[:, None, :]).reshape(n, -1)
    return K


def kr_min_singular(X: np.ndarray, r: int) -> tuple[float, float]:
    """Smallest singular value of the r-th Khatri-Rao power K (its N-th, so
    zero when N > d^r), certified to relative ``KR_REL_TOL``, plus the
    coherence-based deterministic floor.

    K is never built when its Gram ``K K^T = (X X^T)^{∘r}`` (an
    N x N matrix) certifies ``sqrt(lambda_min)`` to that tolerance; an
    ill-conditioned or rank-deficient power falls back to an SVD of K, which
    is subject to ``KR_ENTRY_BUDGET``.

    The floor is ``sign(v) * sqrt(|v|)`` with
    ``v = min_i ||x_i||^{2r} - N * max_{i != j} |<x_i, x_j>|^r``, Gershgorin's
    bound on ``lambda_min((X X^T)^{∘r})``, valid for rows of any norm and
    vacuous (non-positive) whenever the data are too coherent.  Non-finite
    ``X``, or a Gram that overflows, raises ``ValueError``.
    """
    X, r = _check_data(X), _size(r, "power", 1)
    n, d = X.shape
    C = X @ X.T
    G = C.copy()
    for _ in range(r - 1):
        G *= C
    if not np.isfinite(G).all():
        raise ValueError(f"the Gram (X X^T)^∘{r} overflows float64")
    ev = np.linalg.eigvalsh(G)
    # Each entry of C errs by at most gamma_d * ||x_i|| ||x_j|| and the r - 1
    # products add gamma_{r-1}, so |G - (X X^T)^{∘r}| <= delta * a a^T with
    # a_i = ||x_i||^r: a 2-norm error of at most delta * sum(a_i^2), a sum
    # that is trace(G) up to delta; 2 * (r*d + r) * eps covers delta twice
    # over.  eigvalsh is backward stable (_EIG_ERR * n * eps * ||G||_2).  The
    # tiny term keeps the route out of the subnormal range, where these
    # relative bounds would not hold.
    err = (
        2.0 * (r * d + r) * _EPS * float(np.trace(G))
        + _EIG_ERR * n * _EPS * float(np.max(np.abs(ev)))
        + n * (d + r) * _TINY
    )
    # err < ev[0] proves that K has full row rank N, so sqrt(ev[0]) is its
    # N-th singular value; N rows in d^r dimensions make that value zero.
    if ev[0] > 0.0 and err <= 2.0 * KR_REL_TOL * ev[0] and math.isfinite(err):
        exact = math.sqrt(ev[0])
    elif n > d**r:
        exact = 0.0
    else:
        exact = float(np.linalg.svd(khatri_rao_power(X, r), compute_uv=False)[-1])
    if n > 1:
        coherence = float(np.max(np.abs(C[~np.eye(n, dtype=bool)])))
    else:
        coherence = 0.0
    v = float(np.min(np.diag(C))) ** r - n * coherence**r
    bound = math.copysign(math.sqrt(abs(v)), v)
    return exact, bound


# ---------------------------------------------------------------------------
# Gram estimators
# ---------------------------------------------------------------------------


def _lambda_min_sym(G: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((G + G.T) / 2.0)[0])


def gram_mc(
    X: np.ndarray,
    sigma: Callable,
    n_samples: int,
    seed: int = 0,
) -> GramEstimate:
    """Monte Carlo estimate of E[sigma(Xw) sigma(Xw)^T], w ~ N(0, I_d/d).

    Samples are split across ``MC_BATCHES`` independent substreams of
    ``seed`` (fewer if ``n_samples`` is smaller), one per batch, and reduced
    in batch order, so a given (seed, n_samples) pair is bit reproducible;
    ``seed`` is an integer >= 0.  Per-entry standard errors come from the
    batch means.

    ``sigma`` must act entrywise, as both in-package activations do: each
    batch's pre-activations ``X W`` fill one buffer reused by every batch,
    and ``sigma`` replaces them in place, one block of ``_MC_BLOCK_ENTRIES``
    entries (128 KiB) at a time.  The estimate is bit-identical to the
    whole-batch formula ``S = sigma(X W)``, ``S S^T``.  The peak memory is
    the buffer plus the larger of one batch of draws and a few blocks, so
    about (N + d) * ceil(n_samples / MC_BATCHES) * 8 bytes: 1.95 MB at N=16,
    d=8 and 1e5 samples, 19.2 MB at 1e6.  Bad data (non-finite, or without
    rows or columns) and a Gram that is not finite raise ``ValueError``,
    without a warning; the first batch whose Gram is not finite ends the
    draws.
    """
    X = _check_data(X)
    n_samples = _size(n_samples, "n_samples", 1)
    n_batches = min(MC_BATCHES, n_samples)
    seed = _size(seed, "seed", 0)
    N, d = X.shape
    scale = 1.0 / math.sqrt(d)
    sizes = [n_samples // n_batches] * n_batches
    for i in range(n_samples % n_batches):
        sizes[i] += 1
    block = max(1, _MC_BLOCK_ENTRIES // N)
    buf = np.empty(N * sizes[0])  # sizes[0] is the largest batch

    not_finite = "the Monte Carlo Gram is not finite: sigma(X w) overflows or is NaN"
    total = np.zeros((N, N))
    batch_means = np.empty((n_batches, N, N))
    with np.errstate(over="ignore", invalid="ignore"):
        for b, (size, rng) in enumerate(zip(sizes, _batch_rngs(seed, n_batches))):
            W = rng.normal(0.0, scale, size=(d, size))
            # the product stays whole: X @ W[:, j:j+B] may round differently
            S = np.matmul(X, W, out=buf[: N * size].reshape(N, size))
            del W  # so the next batch's draws never coexist with these
            for j in range(0, size, block):
                S[:, j : j + block] = sigma(S[:, j : j + block])
            contrib = S @ S.T
            if not np.isfinite(contrib).all():
                raise ValueError(not_finite)
            total += contrib
            batch_means[b] = contrib / size
        G = total / n_samples
    if not np.isfinite(G).all():  # finite batches may still sum past the float range
        raise ValueError(not_finite)
    if n_batches > 1:
        stderr = np.std(batch_means, axis=0, ddof=1) / math.sqrt(n_batches)
    else:
        stderr = np.full((N, N), np.nan)
    return GramEstimate(
        gram=G,
        lambda_min=_lambda_min_sym(G),
        n_samples=n_samples,
        stderr=stderr,
        seed=seed,
    )


def gram_hermite(X: np.ndarray, coeffs: HermiteSpec, r_max: Optional[int] = None) -> GramEstimate:
    """Truncated Hermite-series Gram matrix for norm-sqrt(d) rows.

    Entry (i, j) is ``sum_k mu_k^2 (<x_i, x_j>/d)^k`` up to ``r_max``; each
    term is positive semidefinite, so the bottom eigenvalue is nondecreasing
    in the truncation order.  Rejects bad data (non-finite, or without rows
    or columns) and rows whose norm deviates from sqrt(d).
    """
    X = _check_data(X)
    N, d = X.shape
    norms = np.linalg.norm(X, axis=1)
    if not np.allclose(norms, math.sqrt(d), rtol=1e-8, atol=1e-8):
        raise ValueError("rows must have norm sqrt(d) for the series expansion")
    if r_max is None:
        r_max = coeffs.r_max
    r_max = _size(r_max, "r_max", 0)
    if r_max > coeffs.r_max:
        raise ValueError(f"r_max must lie in [0, {coeffs.r_max}], got {r_max}")
    C = (X @ X.T) / d
    G = np.zeros((N, N))
    power = np.ones((N, N))
    for k in range(r_max + 1):
        if k > 0:
            power = power * C
        G += coeffs.coeffs[k] ** 2 * power
    return GramEstimate(
        gram=G,
        lambda_min=_lambda_min_sym(G),
        r_max=r_max,
        tail_mass=coeffs.tail_mass(r_max),
    )
