"""Reference implementations the tests compare pyrcert against.

No command reaches any of these, so they live with the tests: the dense
Jacobian blocks and the parameter distance behind the gradient and
Lipschitz checks, the parameter-distance envelope of acceptance criterion 3,
the activation's second derivative and its gap to the ramp behind
criterion 4, the normalized Hermite polynomials, and a CSV writer and
parser for fixtures.
"""

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from pyrcert.activation import ActivationParams, evaluate
from pyrcert.certificates import Certificate, _first_false
from pyrcert.gradients import TrainLog
from pyrcert.lambda_star import _hermite_table
from pyrcert.network import Dataset, ForwardTrace, Params, _write_matrix_csv, forward

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def jacobian_block(
    params: Params,
    data: Dataset,
    act: ActivationParams,
    l: int,
    trace: Optional[ForwardTrace] = None,
) -> np.ndarray:
    """Dense Jacobian of vec(F_L) with respect to vec(W_l).

    Shape ``(N*n_L, n_{l-1}*n_l)`` under column-major vec on both sides.
    Built by propagating the layer-l seed through slope diagonals and weight
    contractions; cost is quadratic in the parameter count.
    """
    L = params.depth
    if not 1 <= l <= L:
        raise ValueError(f"layer index out of range: {l} (depth {L})")
    if trace is None:
        trace = forward(params, data, act)
    N = data.n_samples
    n_lm1, n_l = params.weights[l - 1].shape
    f_prev = trace.F[l - 1]

    # T[a, q, b, c] = d(F_t)[a, q] / d(W_l)[b, c], starting at t = l
    T = np.zeros((N, n_l, n_lm1, n_l))
    for q in range(n_l):
        T[:, q, :, q] = f_prev
    for t in range(l + 1, L + 1):
        T = T * trace.S[t - 2][:, :, None, None]
        T = np.einsum("aqbc,qr->arbc", T, params.weights[t - 1])

    n_L = params.widths[-1]
    # rows follow vec(F_L) (index a + q*N), cols follow vec(W_l) (index b + c*n_{l-1})
    return T.transpose(1, 0, 3, 2).reshape(N * n_L, n_lm1 * n_l)


def theta_distance(a: Params, b: Params) -> float:
    """Root of summed squared Frobenius norms of the per-layer differences."""
    if a.widths != b.widths or a.d != b.d:
        raise ValueError("parameter tuples have different architectures")
    total = 0.0
    for wa, wb in zip(a.weights, b.weights):
        delta = wa - wb
        total += float(np.vdot(delta, delta))
    return math.sqrt(total)


@dataclass(frozen=True)
class DistanceReport:
    """Parameter-distance decay check against the final iterate.

    ``lhs`` is the remaining path length ``eta * sum of later gradient
    norms``, a rigorous upper bound on the distance from step k to the last
    iterate; ``rhs`` is the certified envelope plus the tail slack measured
    at the end of the checked window.
    """

    holds: bool
    k_window: int
    eps_slack: float
    lhs: np.ndarray
    rhs: np.ndarray
    first_violation: Optional[int]


def distance_envelope(log: TrainLog, cert: Certificate, upto_loss: float) -> DistanceReport:
    """The certified parameter-distance envelope ``(1 - eta*alpha0)**(k/2) *
    q1``, checked for every step up to the first step whose loss falls
    below ``upto_loss``, with the final iterate as the limit proxy."""
    n = log.n_steps
    hit = np.flatnonzero(log.loss <= upto_loss)
    k_window = int(hit[0]) if hit.size else n - 1
    # eta * suffix sums of gradient norms: movement still ahead of step k,
    # an upper bound on the distance to the final iterate
    moves = log.eta * log.grad_norm[: n - 1]
    suffix = np.concatenate([np.cumsum(moves[::-1])[::-1], [0.0]])
    eps_slack = float(suffix[k_window])
    ks = np.arange(k_window + 1, dtype=np.float64)
    rhs = (1.0 - log.eta * cert.alpha0) ** (ks / 2.0) * cert.q1 + eps_slack
    lhs = suffix[: k_window + 1]
    ok = lhs <= rhs
    return DistanceReport(
        holds=bool(np.all(ok)),
        k_window=k_window,
        eps_slack=eps_slack,
        lhs=lhs,
        rhs=rhs,
        first_violation=_first_false(ok),
    )


def deriv2(params: ActivationParams, x):
    """Second derivative of the activation; positive everywhere and bounded
    by ``beta``."""
    arr = np.asarray(x, dtype=np.float64)
    z = (params.beta * _SQRT_2PI / (1.0 - params.gamma)) * arr
    with np.errstate(under="ignore"):
        out = params.beta * np.exp(-0.5 * z * z)
    return float(out) if arr.ndim == 0 else out


def uniform_gap(params: ActivationParams, grid) -> float:
    """Max deviation from the ramp ``max(gamma*x, x)`` over a grid of
    evaluation points; an empty grid raises ``ValueError``."""
    arr = np.asarray(grid, dtype=np.float64)
    ramp = np.maximum(params.gamma * arr, arr)
    return float(np.max(np.abs(evaluate(params, arr) - ramp)))


def gap_bound(params: ActivationParams) -> float:
    """Closed-form upper bound on the deviation from the ramp, any x."""
    g, b = params.gamma, params.beta
    return (1.0 - g) ** 2 / (2.0 * math.pi * b) + (1.0 - g) / (math.pi * b)


def hermite_poly(r: int, x):
    """Normalized probabilists' Hermite polynomial h_r at ``x``."""
    return _hermite_table(np.asarray(x, dtype=np.float64), r)[r]


def dataset_to_csv(data: Dataset, x_path, y_path) -> None:
    """Write X and Y to separate CSV files with header rows, the layout the
    ``file`` dataset source reads."""
    _write_matrix_csv(data.X, x_path, "x")
    _write_matrix_csv(data.Y, y_path, "y")


def trainlog_from_csv(path) -> dict[str, np.ndarray]:
    """Re-parse an exported training log into named numeric columns."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    if not rows or any(len(row) != len(header) for row in rows):
        raise ValueError(f"malformed training log CSV: {path}")
    table = np.asarray(rows, dtype=np.float64)
    return {name: table[:, i] for i, name in enumerate(header)}
