"""Reference implementations the tests compare pyrcert against.

No command reaches any of these, so they live with the tests: the literal
initial-condition and rate-constant formulas that
``certificate_from_spectra`` must match bitwise, the gain search with a real
``certify`` of every gain, the dense Jacobian blocks
and the parameter distance behind the gradient and Lipschitz checks, the
parameter-distance envelope of acceptance criterion 3, the PL-style floor
of the second-layer gradient, the activation's second derivative and its
gap to the ramp behind criterion 4, the normalized Hermite polynomials, a
CSV writer and parser for fixtures, a recorder of the network kernel's
forward passes, the trainer's log written row by row, the block of the
weights' spectra cells that the trainer once built after each run, a
log's columns and judgement read a block at a time as whole arrays, the
report judged over whole columns, and the per-row ``F_1`` column.
"""

import contextlib
import csv
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from pyrcert import gradients
from pyrcert.activation import ActivationParams, evaluate
from pyrcert.certificates import DEGENERATE_LAMBDA_F, Certificate, InvariantReport, _first_false, certify
from pyrcert.certificates import _decay_bound, _judge, invariant_flags
from pyrcert.gradients import TrainLog, _Spectra, _split, grad
from pyrcert.initializers import GAIN_MARGIN, GAIN_MAX, init_certifiable
from pyrcert.lambda_star import _hermite_table
from pyrcert.network import Dataset, ForwardTrace, Params, _Kernel, _write_matrix_csv, forward, loss_of

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class AssumptionVerdict:
    """Verdicts and slack ratios for the two initial-condition inequalities."""

    cond1_holds: bool
    cond1_slack: float
    cond2_holds: bool
    cond2_slack: float
    reason: Optional[str] = None


def _deep_products(lambda_bar: tuple[float, ...], lambda_min_deep: tuple[float, ...]):
    bar_deep = float(np.prod(lambda_bar[2:])) if len(lambda_bar) > 2 else 1.0
    min_deep = float(np.prod(lambda_min_deep)) if lambda_min_deep else 1.0
    return bar_deep, min_deep


def check_assumption(
    lambda_bar: tuple[float, ...],
    lambda_min_deep: tuple[float, ...],
    lam_f: float,
    X: np.ndarray,
    phi0: float,
    gamma: float,
) -> AssumptionVerdict:
    """Evaluate both initial-condition inequalities literally.

    At depth 2 the deep products are empty (= 1) and the max() term keeps
    only its last two arguments, since the minimum over an empty layer range
    would be +inf and annihilate the first argument.
    """
    L = len(lambda_bar)
    X = np.asarray(X, dtype=np.float64)
    x_fro = float(np.linalg.norm(X, "fro"))
    x_op = float(np.linalg.norm(X, 2))
    bar_deep, min_deep = _deep_products(lambda_bar, lambda_min_deep)
    pref = (gamma**4 / 3.0) * (6.0 / gamma**2) ** L
    root_phi = math.sqrt(2.0 * phi0)
    ratio = bar_deep / min_deep**2 if min_deep > 0 else math.inf

    if L >= 3:
        pair_min = min(
            lb * lm for lb, lm in zip(lambda_bar[2:], lambda_min_deep)
        )
        first_arg = (
            2.0 * lambda_bar[0] * lambda_bar[1] / pair_min if pair_min > 0 else math.inf
        )
        max_term = max(first_arg, lambda_bar[0], lambda_bar[1])
    else:
        max_term = max(lambda_bar[0], lambda_bar[1])

    rhs1 = pref * x_fro * root_phi * ratio * max_term
    rhs2 = 2.0 * pref * x_op * x_fro * root_phi * ratio * lambda_bar[1]
    lhs1 = lam_f**2
    lhs2 = lam_f**3

    cond1 = lhs1 >= rhs1
    cond2 = lhs2 >= rhs2
    slack1 = lhs1 / rhs1 if rhs1 > 0 else math.inf
    slack2 = lhs2 / rhs2 if rhs2 > 0 else math.inf
    reason = None
    if lam_f <= DEGENERATE_LAMBDA_F and phi0 > 0:
        reason = "degenerate data"
    return AssumptionVerdict(
        cond1_holds=bool(cond1),
        cond1_slack=float(slack1),
        cond2_holds=bool(cond2),
        cond2_slack=float(slack2),
        reason=reason,
    )


def rate_constants(
    lambda_bar: tuple[float, ...],
    lambda_min_deep: tuple[float, ...],
    lam_f: float,
    X: np.ndarray,
    phi0: float,
    act: ActivationParams,
) -> tuple[float, float, float, float, float, bool]:
    """Literal evaluation of (alpha0, q0, q1, r_product, eta_max, vacuous)."""
    L = len(lambda_bar)
    gamma, beta = act.gamma, act.beta
    X = np.asarray(X, dtype=np.float64)
    x_fro = float(np.linalg.norm(X, "fro"))
    _, min_deep = _deep_products(lambda_bar, lambda_min_deep)
    root_phi = math.sqrt(2.0 * phi0)

    alpha0 = (4.0 / gamma**4) * (gamma**2 / 4.0) ** L * lam_f**2 * min_deep**2
    r_product = float(np.prod([max(1.0, 1.5 * lb) for lb in lambda_bar]))
    bar_all = float(np.prod(lambda_bar))
    bar_min = min(lambda_bar)
    ls = L * math.sqrt(L)
    q0 = (
        ls * 1.5 ** (2 * (L - 1)) * x_fro**2 * bar_all**2 / bar_min**2
        + ls * x_fro * (1.0 + L * beta * x_fro * r_product) * r_product * root_phi
    )
    vacuous = not alpha0 > 0.0
    if vacuous:
        q1 = math.inf if phi0 > 0 else 0.0
        eta_max = math.nan
    else:
        sum_term = sum(bar_all / lb for lb in lambda_bar)
        q1 = (4.0 / 3.0) * 1.5**L * (x_fro / alpha0) * sum_term * root_phi
        eta_max = min(1.0 / alpha0, 1.0 / q0) if q0 > 0 else 1.0 / alpha0
    return float(alpha0), float(q0), float(q1), r_product, float(eta_max), vacuous


def tune_gain_literal(shape, data, act, cfg) -> tuple[float, Certificate]:
    """``initializers.tune_gain``'s search as two loops, with every gain
    drawn and certified for real: double the gain from ``cfg.gain`` until
    one certifies, bisect down to 1% of the flip point, then apply
    ``GAIN_MARGIN`` if that still certifies.  Returns the chosen gain and
    its certificate; a refused instance returns ``cfg.gain`` and its."""

    def attempt(g):
        return certify(init_certifiable(shape, replace(cfg, gain=g)), data, act)

    def certifies(g):
        try:
            return attempt(g).certified
        except ValueError:  # constants past the float64 range
            return False

    cert, g = attempt(cfg.gain), cfg.gain
    if not cert.certified:
        if cert.degenerate_reason is not None or shape.depth == 2:
            return g, cert
        lo = g
        while True:
            g *= 2.0
            if g > GAIN_MAX:
                return cfg.gain, cert
            if certifies(g):
                break
            lo = g
        hi = g
        while hi / lo > 1.01:
            mid = math.sqrt(lo * hi)
            if certifies(mid):
                hi = mid
            else:
                lo = mid
        g = hi
    if certifies(g * GAIN_MARGIN):
        g *= GAIN_MARGIN
    return g, attempt(g)


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


def pl_lower_bound(trace: ForwardTrace, params: Params) -> float:
    """Certified floor for the norm of the second-layer gradient.

    Product of the smallest singular value of the first hidden layer output,
    the per-layer slope floors (minimum diagonal entry of each slope
    diagonal), the smallest singular values of the deep weights, and the
    residual norm.  Empty products (depth 2) equal 1.
    """
    L = params.depth
    if L < 2:
        raise ValueError("need depth >= 2")
    value = float(np.linalg.svd(trace.F[1], compute_uv=False)[-1])
    for p in range(3, L + 1):
        sigma_floor = float(np.min(trace.S[p - 2]))
        sv_min = float(np.linalg.svd(params.weights[p - 1], compute_uv=False)[-1])
        value *= sigma_floor * sv_min
    return value * float(np.linalg.norm(trace.residual()))


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


@contextlib.contextmanager
def forward_starts():
    """Yield a list that receives the ``start`` of every
    ``network._Kernel.forward`` pass run inside the block: 0 where the pass
    recomputes layer 1, 1 where it keeps layer 1's buffers."""
    starts, forward_pass = [], _Kernel.forward

    def recorded(kernel, start=0):
        starts.append(start)
        forward_pass(kernel, start)

    _Kernel.forward = recorded
    try:
        yield starts
    finally:
        _Kernel.forward = forward_pass


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


def _extremes(a: np.ndarray) -> tuple[float, float]:
    """The smallest and largest singular value, or NaNs where LAPACK fails."""
    try:
        sv = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError:
        return math.nan, math.nan
    return float(sv[-1]), float(sv[0])


def dense_log(params, data, act, eta, n_rows, thresholds, max_steps, first) -> dict[str, np.ndarray]:
    """The columns of a training log of ``n_rows`` rows, written one row at
    a time: ``forward`` and ``grad`` of the current weights and an exact
    SVD of ``F_1`` and of every weight on each row, then ``W -= eta * g``.
    A pass with a non-finite pre-activation logs NaN for ``F_1``, the loss
    and the gradient norm.  On rows ``1 .. first - 1`` the weights' cells
    are instead the bounds a certified run proves there, one scalar
    operation at a time in the order of the trainer's arithmetic: the
    running sum of step bounds with ``_Spectra``'s constants for
    ``thresholds``, widened around step 0's exact values."""
    W = [w.copy() for w in params.weights]
    spectra = _Spectra([(data.n_samples, W[0].shape[1])] + [w.shape for w in W], thresholds, eta, max_steps)
    losses, norms, rows = [], [], []
    for k in range(n_rows):
        try:
            p = Params(tuple(W))
            trace = forward(p, data, act)
            g = grad(p, data, act)
            losses.append(loss_of(trace))
            norms.append(g.norm)
            f1 = _extremes(trace.F[1])
        except ValueError:
            losses.append(math.nan)
            norms.append(math.nan)
            f1 = (math.nan, math.nan)
        rows.append([f1] + [_extremes(w) for w in W])
        if k + 1 < n_rows:
            for w, gl in zip(W, g.layers):
                w -= eta * gl
    P = 0.0
    for k in range(1, first):
        P += norms[k - 1] * spectra.rate + spectra.creep
        for i in range(1, len(W) + 1):
            low0, top0 = rows[0][i]
            margin = spectra.svd_err[i] * top0 + spectra.underflow[i]
            radius = P * spectra.grow * spectra.inflate[i] + margin
            rows[k][i] = (low0 - radius, radius + top0)
    table = np.array(rows).reshape(n_rows, len(W) + 1, 2)
    return {
        "loss": np.array(losses),
        "grad_norm": np.array(norms),
        "sv_f1": table[:, 0, 0],
        "min_sv_w": table[:, 3:, 0],
        "norm_w": table[:, 1:, 1],
    }


def run_spectra(params, data, act, thresholds, eta, max_steps, first) -> _Spectra:
    """The ``_Spectra`` of a ``train`` run of ``params`` after its step 0,
    which sets its constants, and with the run's ``first``."""
    W = params.weights
    spectra = _Spectra([(data.n_samples, W[0].shape[1])] + [w.shape for w in W], thresholds, eta, max_steps)
    spectra.measure_all(0, (forward(params, data, act).F[1], *W))
    spectra.first = first
    return spectra


def cells_block(spectra, records, grad_norm) -> np.ndarray:
    """The weights' cells of a log as one ``(n_rows, n_cells)`` block, as
    the trainer built it after each run before it computed them when read:
    the cumulative sum of ``grad_norm * rate + creep`` over rows
    ``1 .. first - 1``, times ``grow``, then for each cell ``record[0] +
    sign * radius`` there, between the rows measured, ``records``."""
    grown = grad_norm[: max(spectra.first - 1, 0)] * spectra.rate
    grown = np.cumsum(grown + spectra.creep) * spectra.grow
    cols = []
    for i, sign, record in zip(spectra.matrices[1:], spectra.signs[1:], records):
        bound = grown * (sign * spectra.inflate[i]) + sign * spectra.margins[i] + record[0]
        cols.append(np.concatenate([record[:1], bound, record[1:]]))
    return np.stack(cols, axis=1)


def read_cells(cells, grad_norm, size) -> np.ndarray:
    """A log's weight cells as one ``(n_rows, n_cells)`` block, read a
    block of ``size`` rows at a time as ``monitor_invariants`` and the CSV
    writer read them."""
    return np.concatenate([block.T.copy() for block in cells.blocks(grad_norm, size)])


def log_columns(log: TrainLog, cert: Optional[Certificate] = None) -> dict:
    """``log``'s columns by name, each contiguous along the steps, read in
    blocks: the cells, ``spectra_exact`` from the weights' split, and with
    ``cert`` the ``bound`` and ``(n_steps, 4)`` ``flags`` of ``_judge``."""
    n, L = log.n_steps, log.final_params.depth
    cells = read_cells(log.cells, log.grad_norm, gradients.BLOCK_ROWS).T.copy().T  # column-major
    exact = np.ones(n, dtype=bool)
    exact[1 : _split(log.cells.records[-1], n)] = False
    cols = dict(loss=log.loss, grad_norm=log.grad_norm, sv_f1=cells[:, 0], spectra_exact=exact)
    cols.update(min_sv_w=cells[:, 1:-L], norm_w=cells[:, -L:])
    if cert is not None:
        cols["bound"] = _decay_bound(cert, log.eta, log.phi0, 0, n)
        judged = _judge(cert, log.eta, log.phi0, log.blocks(), {})
        cols["flags"] = np.concatenate([flags.T for *_, flags in judged], axis=1).T
    return cols


def with_columns(log: TrainLog, sv_f1, min_sv_w, norm_w) -> TrainLog:
    """``log`` with cells measured on every row, ``sv_f1``, ``min_sv_w``
    and ``norm_w`` (shaped like the log's own)."""
    records = tuple(np.ascontiguousarray(c) for c in (sv_f1, *np.transpose(min_sv_w), *np.transpose(norm_w)))
    return replace(log, cells=replace(log.cells, records=records))


def whole_run_report(cert, eta, phi0, columns, loss):
    """``monitor_invariants`` as it judged a run in one pass before it read
    the log in blocks of rows: the bound by one vectorised power over
    ``np.arange(n_steps)``, the flags by ``invariant_flags`` over whole
    columns, and each check's count and first violation, searched in the
    whole column: ``(bound, flags, n_violations, first_violation)``."""
    bound = np.arange(len(loss), dtype=np.float64)
    np.power(1.0 - eta * cert.alpha0, bound, out=bound)
    np.multiply(bound, phi0, out=bound)
    flags = invariant_flags(cert, columns, loss, bound)
    columns = dict(zip(InvariantReport.CHECKS, flags.T))
    counts = {name: col.size - int(np.count_nonzero(col)) for name, col in columns.items()}
    first = {name: _first_false(col) for name, col in columns.items()}
    return bound, flags, counts, first


def f1_column(params, data, act, eta, n_rows) -> np.ndarray:
    """``F_1``'s smallest singular value on each of ``n_rows`` rows, as the
    trainer once logged it in a column of its own: the run replayed with
    ``forward``, ``grad`` and ``W -= eta * g``, and an exact SVD of ``F_1``
    on every row.  (The trainer measured ``F_1`` on each row that
    recomputed layer 1 and logged the value last measured on every row;
    on the rows between, ``F_1`` is bitwise the matrix measured.)"""
    W = [w.copy() for w in params.weights]
    column = []
    for k in range(n_rows):
        p = Params(tuple(W))
        column.append(_extremes(forward(p, data, act).F[1])[0])
        if k + 1 < n_rows:
            for w, gl in zip(W, grad(p, data, act).layers):
                w -= eta * gl
    return np.array(column)


@contextlib.contextmanager
def measured_rows():
    """Yield a list that receives the row of every
    ``gradients._Spectra.measure_all`` call made inside the block: the rows
    on which a run measured every matrix."""
    rows, measure_all = [], _Spectra.measure_all

    def recorded(spectra, k, mats):
        rows.append(k)
        measure_all(spectra, k, mats)

    _Spectra.measure_all = recorded
    try:
        yield rows
    finally:
        _Spectra.measure_all = measure_all
