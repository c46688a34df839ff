"""Gradients and the trainer.

A gradient is the backward pass of the network kernel that ran the forward
pass (``network._pass``): reverse accumulation, which is algebraically
identical to the closed-form product of per-layer slope diagonals and
Kronecker factors (the tests rebuild that product literally and compare).
The trainer runs plain full-batch gradient descent and logs, per step, the
spectral quantities whose invariants a convergence certificate promises to
preserve; ``trainlog_to_csv`` judges them once, as it writes them.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, repeat, starmap
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .activation import ActivationParams, _real
from .activation import value_and_slope  # noqa: F401 - bound here for perfbench's tracer
from .certificates import Certificate, InvariantReport, _check_depth, _judge
from .certificates import invariant_cells, invariant_thresholds
from .network import _FLOAT_CELL, Dataset, Params, _check_dims, _Kernel, _pass, _size
from .network import _write_csv

__all__ = [
    "GradientBundle",
    "TrainConfig",
    "TrainLog",
    "grad",
    "train",
    "trainlog_to_csv",
]

DIVERGENCE_LOSS = 1e12
# Rows per block of a log read in blocks (``TrainLog.blocks``): the bound
# and flags are judged a block at a time, and the buffers of a block stay a
# few KiB, so a CSV written with a certificate peaks within 24 KiB.
BLOCK_ROWS = 64


@dataclass(frozen=True)
class GradientBundle:
    """Per-layer loss gradients, shaped exactly like the parameters."""

    layers: tuple[np.ndarray, ...]
    sq_norm: float

    @property
    def norm(self) -> float:
        return math.sqrt(self.sq_norm)


def _flat_views(shapes) -> tuple[np.ndarray, list[np.ndarray]]:
    """One flat vector and its C-ordered views, one per shape, in order."""
    flat = np.empty(sum(m * n for m, n in shapes))
    views, start = [], 0
    for m, n in shapes:
        views.append(flat[start : start + m * n].reshape(m, n))
        start += m * n
    return flat, views


def grad(params: Params, data: Dataset, act: ActivationParams) -> GradientBundle:
    """Gradient of the square loss with respect to every weight matrix,
    written by the backward pass of ``_pass``'s kernel into views of one
    flat vector, whose squared norm is one ``vdot``."""
    flat, grads = _flat_views([w.shape for w in params.weights])
    kernel = _pass(params, data, act, grads)
    kernel.loss()
    kernel.backward()
    return GradientBundle(layers=tuple(grads), sq_norm=float(np.vdot(flat, flat)))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Step size, step budget and stopping loss.

    ``eta = 0`` is allowed as a diagnostic no-op run.
    """

    eta: float
    max_steps: int
    stop_loss: float = 0.0

    def __post_init__(self) -> None:
        for name in ("eta", "stop_loss"):
            value = _real(getattr(self, name), name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "max_steps", _size(self.max_steps, "max_steps", 0))


def _split(record: np.ndarray, n: int) -> int:
    """The first row after row 0 that ``record`` holds of an ``n``-row
    column: a record holds row 0 and the last ``len(record) - 1`` rows
    (``n`` if it holds only row 0)."""
    return n - len(record) + 1


@dataclass(frozen=True)
class _Cells:
    """The spectra cells of a log, held as the data that proves them, not
    as columns, in the CSV's order (``certificates.invariant_cells``): the
    lower bound of ``F_1``, the lower bounds of ``W_3..W_L``, then the
    upper bounds of ``W_1..W_L``.

    ``records[j]`` is cell ``j`` on the rows that measured its matrix:
    row 0 and the last ``len(records[j]) - 1`` rows.  Each row between is
    proven (``_Spectra``, whose proof checks this very expression): with
    ``P`` the running sum of ``grad_norm * rate + creep`` over the rows
    before it, added in row order as the trainer added it, cell ``j`` of
    such a row is ``((P * grow) * scales[j] + offsets[j]) +
    records[j][0]``.  ``F_1`` is bitwise row 0's matrix there, so its
    radius is 0: with scale and offset 0 and a finite ``P >= 0``, its cell
    is ``records[0][0]`` bitwise.  ``blocks`` computes the cells when they
    are read, a block of rows at a time, by these float operations in this
    order, carrying ``P`` across blocks.
    """

    records: tuple[np.ndarray, ...]
    rate: float
    creep: float
    grow: float
    scales: tuple[float, ...]  # the sign of the cell's bound times inflate
    offsets: tuple[float, ...]  # the sign times margin

    def blocks(self, grad_norm: np.ndarray, size: int) -> Iterator[np.ndarray]:
        """For each block of ``size`` rows of ``grad_norm`` in order, its
        cells as the rows of one ``(n_cells, rows)`` array, written into a
        buffer that the next block overwrites."""
        n = len(grad_norm)
        splits = [_split(record, n) for record in self.records]
        split = max(splits)  # P runs over rows 1 .. split - 1
        grown, buf = np.empty(min(size, n)), np.empty((len(self.records), min(size, n)))
        P = 0.0
        for k0 in range(0, n, size):
            k1 = min(k0 + size, n)
            a, b = max(k0, 1), min(k1, split)  # the block's rows of P
            seg = grown[: max(b - a, 0)]
            if b > a:
                np.multiply(grad_norm[a - 1 : b - 1], self.rate, seg)
                np.add(seg, self.creep, seg)
                seg[0] += P  # the sum of the rows before the block
                np.add.accumulate(seg, out=seg)  # adds in row order
                P = float(seg[-1])
                np.multiply(seg, self.grow, seg)
            block = buf[:, : k1 - k0]
            # one cell at a time: a ufunc over a 2-D block allocates buffers
            # larger than the block
            for row, record, cut, scale, offset in zip(block, self.records, splits, self.scales, self.offsets):
                if k0 == 0:
                    row[0] = record[0]
                if b > a:
                    # value + sign * radius; negating is exact, so a lower
                    # bound is value - radius bitwise
                    cell = row[a - k0 : b - k0]
                    np.multiply(seg, scale, cell)
                    np.add(cell, offset, cell)
                    np.add(cell, record[0], cell)
                if k1 > cut:  # rows recorded after row 0, also over F_1's computed ones
                    row[max(k0, cut) - k0 :] = record[max(k0 - cut, 0) + 1 : k1 - cut + 1]
            yield block


@dataclass
class TrainLog:
    """Per-step measurements of a gradient-descent run, row k for step k,
    judged against a certificate as ``trainlog_to_csv`` writes them.

    ``loss`` and ``grad_norm`` are the only columns held, views of the
    arrays the trainer appended to.  ``cells`` holds the spectra cells
    (``certificates.invariant_cells``) on the rows that measured them, and
    computes the rows between from ``grad_norm`` (``_Cells``).  The log is
    read only a block of rows at a time, through ``blocks``.  ``F_1``'s
    cell is exact on every row.  The other cells of a certified run are
    certified one-sided bounds: lower bounds for the smallest singular
    values, upper bounds for the operator norms.  They are exact on row 0
    and on every row from the first after it that measured every matrix
    (the last row, if the proof lasts the run; row 1 of an uncertified
    run), the CSV's rows with ``spectra_exact`` = 1.  ``spectra_svds``
    counts the exact SVDs the run took.  ``final_params`` is the last
    iterate, or ``params0`` if an update overflowed a weight to a
    non-finite value (the run has then ``diverged``).
    """

    loss: np.ndarray
    grad_norm: np.ndarray
    cells: _Cells
    spectra_svds: int
    final_params: Params
    eta: float
    diverged: bool
    stop_reason: str

    @property
    def n_steps(self) -> int:
        return len(self.loss)

    @property
    def phi0(self) -> float:
        return float(self.loss[0])

    @property
    def final_loss(self) -> float:
        return float(self.loss[-1])

    def blocks(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """``(k0, cells, loss)`` of each block of ``BLOCK_ROWS`` rows from
        row ``k0``, ``cells`` the spectra cells as the rows of one array,
        in the CSV's order.  Each block is valid until the next is asked
        for."""
        cells = self.cells.blocks(self.grad_norm, BLOCK_ROWS)
        for k0, block in zip(range(0, self.n_steps, BLOCK_ROWS), cells):
            yield k0, block, self.loss[k0 : k0 + block.shape[1]]


# Lazy spectra.  LAPACK's SVD is backward stable: each computed singular
# value of an m x n matrix A lies within a small multiple of
# eps * max(m, n) * ||A||_2 of the true one; _SVD_ERR is that multiple, with
# room to spare.
_EPS = float(np.finfo(np.float64).eps)
_SVD_ERR = 4.0
# The square root of the smallest normal float.  Squares of entries below it
# underflow, so a computed Frobenius norm may miss up to that much per entry.
_SQRT_TINY = math.sqrt(float(np.finfo(np.float64).tiny))
# The smallest subnormal: a product that underflows is off by half of it.
_TINIEST = math.ulp(0.0)


class _Spectra:
    """Lazy but rigorous spectra of one run's monitored matrices of
    ``shapes``: ``F_1``, then ``W_1..W_L``, as matrices ``0..L``.

    ``records`` holds one array per cell (``certificates.invariant_cells``)
    of a row: ``F_1``'s, then the weights', each with its matrix, its
    radius's sign (+ for a cap) and its threshold.  ``F_1`` changes only on
    a step that recomputes layer 1, and is bitwise the matrix last measured
    on every other step.  So the trainer measures it on each step that
    recomputes it, and records it on row 0 and on every row from the first
    after it that measured ``F_1``.  The weights' cells are recorded only
    on the rows that measure every matrix.  ``cell_table`` hands the
    records to the log with the constants that prove the rows between.

    Step 0's exact SVDs (``measure_all``) are the run's one reference for
    ``W_1..W_L``.  By Weyl's inequality no singular value of ``W_i`` moves
    further from step 0's than the displacement ``||W_i - W_i(0)||_F``.
    That displacement times ``inflate``, plus ``margin``, bounds what an
    exact SVD of the current matrix would compute: ``inflate`` covers the
    SVD error growing with ``||W_i||_2`` and the rounding of the bound;
    ``margin`` the SVD error of both matrices at ``||W_i(0)||_2``, the
    rounding of the bounds, and underflowed squares.

    The displacement is audited in O(1) per step from the path length.  The
    trainer's step rounds ``s = fl(eta * g)`` and then ``fl(theta - s)``
    entrywise over the ``n`` weights; ``theta_i`` itself is a float at distance ``|s_i|`` from
    the exact difference, so the nearest float moves ``theta_i`` by at
    most ``2 |s_i|``, and ``theta`` by at most ``2 ||s||``.  With ``u``
    the unit roundoff, ``||s|| <= (1 + u) eta ||g|| + sqrt(n) ulp(0) / 2``
    (a product that underflows is off by half the smallest subnormal), and
    ``||g|| <= gn (1 + (n + 2) eps) + 2 sqrt(n) sqrt(tiny)`` for the
    computed norm ``gn`` (rounding of the ``n`` squares, their sum and the
    square root; squares that underflow).  So one step moves ``theta`` by
    at most ``t = gn * rate + creep``; the spare factors of ``rate`` and
    ``creep`` cover the rounding of ``t`` itself, also where it underflows.
    The trainer keeps the running sum ``P`` of these ``t``.  Each addition
    of non-negative floats rounds by at most ``u`` times the later sum, so
    after ``j <= max_steps`` additions the exact sum is at most
    ``P (1 + j eps) <= P * grow``, which bounds every displacement, and

        radius_i(P) = P * grow * inflate[i] + margin[i].

    Step 0 stores each weight cell's ``scales[j] = sign * inflate[i]`` and
    ``offsets[j] = sign * margin[i]`` (``F_1``'s are 0), and a proven row
    reads it as ``((P * grow) * scales[j] + offsets[j]) + value_0``, with
    ``value_0`` step 0's: negating is exact, so a floor's cell is
    ``value_0 - radius_i(P)`` bitwise, and every rounding is monotone.
    ``limit`` is the least over the weights' cells of the largest ``P`` at
    which that computed cell meets its threshold, found once at step 0; an
    uncertified run's thresholds (None) are met by no bound, so its
    ``limit`` is -inf.  The trainer compares ``P`` with ``limit`` once per
    step and measures every matrix on each row from the first whose ``P``
    passed it, ``first``; ``P`` never decreases.  The cells of rows ``1 ..
    first - 1`` are computed only when the log is read, by ``_Cells``
    from the logged gradient norms by the same sum and expression, so each
    meets its threshold and a flag read from the log is the exact SVD's.
    """

    def __init__(self, shapes, thresholds, eta: float, max_steps: int) -> None:
        cells = invariant_cells(len(shapes) - 1)
        self.matrices = [i for _, i, _ in cells]
        self.signs = [1.0 if check == "norm_w" else -1.0 for *_, check in cells]
        self.thresholds = [-s * math.inf for s in self.signs] if thresholds is None else thresholds.tolist()
        self.inflate = [1.0 + (2.0 * m * n + _SVD_ERR * max(m, n) + 8.0) * _EPS for m, n in shapes]
        self.underflow = [2.0 * math.sqrt(m * n) * _SQRT_TINY for m, n in shapes]
        self.svd_err = [(2.0 * _SVD_ERR * max(m, n) + 4.0) * _EPS for m, n in shapes]
        size = sum(m * n for m, n in shapes[1:])
        root = math.sqrt(size)
        self.rate = 2.0 * eta * (1.0 + (size + 8.0) * _EPS)
        self.creep = 8.0 * eta * root * _SQRT_TINY + 4.0 * root * _TINIEST
        self.grow = 1.0 + (max_steps + 8.0) * _EPS
        self.tops, self.lows = [math.nan] * len(shapes), [math.nan] * len(shapes)
        self.limit = -math.inf
        # F_1's cell, then the weights' cells measured on row 0 and on rows
        # first .. k, one array per cell
        self.records = [array("d") for _ in cells]
        self.n_svds = 0

    def measure(self, i: int, a: np.ndarray) -> None:
        """One exact SVD of matrix ``i``, now ``a``."""
        self.n_svds += 1
        try:
            sv = np.linalg.svd(a, compute_uv=False)
            self.tops[i], self.lows[i] = float(sv[0]), float(sv[-1])
        except np.linalg.LinAlgError:  # NaN entries of a blown-up run
            self.tops[i] = self.lows[i] = math.nan

    def _limit(self, j: int) -> float:
        """The largest running sum at which cell ``j``, as ``_Cells`` reads
        it, meets its threshold, or -inf if none does."""
        scale, offset, value, sign = self.scales[j], self.offsets[j], self.records[j][0], self.signs[j]
        limit = sign * self.thresholds[j]  # negated for a floor, as each cell below
        slack = limit - sign * value - sign * offset  # a floor's: (value - floor) - margin
        if not slack >= 0.0:
            return -math.inf
        P = slack / (sign * scale) / self.grow
        # the computed cell may miss the exact inverse by a few roundings
        for shift in range(-50, 8):
            if sign * (((P * self.grow) * scale + offset) + value) <= limit:
                return P
            P -= P * 2.0**shift
        return -math.inf

    def measure_all(self, k: int, mats) -> None:
        """Measure every matrix on row ``k``; step 0, the reference, sets
        the cells' ``scales``, ``offsets`` and ``limit``."""
        for i, a in enumerate(mats):
            self.measure(i, a)
        for i, sign, record in zip(self.matrices[1:], self.signs[1:], self.records[1:]):
            record.append(self.tops[i] if sign > 0 else self.lows[i])
        if k == 0:
            self.margins = [e * top + u for e, top, u in zip(self.svd_err, self.tops, self.underflow)]
            weights = list(zip(self.matrices, self.signs))[1:]
            self.scales = [0.0, *(sign * self.inflate[i] for i, sign in weights)]
            self.offsets = [0.0, *(sign * self.margins[i] for i, sign in weights)]
            self.limit = min(self._limit(j) for j in range(1, len(self.records)))

    def cell_table(self) -> _Cells:
        """The cells of the log: the records, and the constants that prove
        the rows between."""
        return _Cells(
            records=tuple(np.frombuffer(r) for r in self.records),
            rate=self.rate,
            creep=self.creep,
            grow=self.grow,
            scales=tuple(self.scales),
            offsets=tuple(self.offsets),
        )


def train(
    params0: Params,
    data: Dataset,
    act: ActivationParams,
    cfg: TrainConfig,
    cert: Optional[Certificate] = None,
) -> TrainLog:
    """Full-batch gradient descent from ``params0``.

    With a certificate of the network's depth, the step size must sit
    strictly below the certified cap, and the logged spectra prove or refute
    the certificate's thresholds on every step; ``trainlog_to_csv`` writes
    them with their invariant flags.  A run is aborted (log retained) if the
    loss exceeds ``1e12`` or turns non-finite.  A non-finite loss is also where
    a non-finite hidden pre-activation shows (the iterates overflowed):
    only then are the hidden layers checked, and if one is not finite the
    step is logged with NaN layers, loss and gradient norm.

    Every step runs the network kernel (``network._Kernel``) on buffers
    made once for the run.  Spectra are lazy but rigorous (``_Spectra``).
    ``F_1`` is measured on each step that recomputes layer 1; its last
    measured value is exact on every step.  The bounds of
    ``W_1..W_L`` are proven from step 0's exact SVDs; their per-step audit
    is one running sum of the logged gradient norms and one comparison
    with ``_Spectra.limit``.  The bound cells it proves are not stored:
    the log computes them from ``grad_norm`` when they are read.  Step 0,
    the last step and every step from the first whose running sum passes
    the limit take ``L + 1`` exact SVDs; an uncertified run proves nothing
    (its limit is -inf), so that is every step.

    The log is held once, so memory follows the rows logged, not
    ``max_steps``: each step appends its loss and gradient norm to two
    growing arrays.  ``_Spectra`` records the weights' cells only on the
    rows that measure every matrix, and ``F_1``'s smallest singular value
    on row 0 and on every row from the first after it that measured
    ``F_1``.  A certified run whose proof lasts and whose ``W_1`` never
    moves thus holds two columns and two rows of each record.

    The weights ``W_1..W_L`` are views of one flat vector, and every
    step updates them all with one multiply and one subtraction.  At a
    certified step size the rounded step ``eta * grad_1`` often rounds
    away against ``W_1``.  Whenever ``W_1``'s bytes after a step equal its
    bytes before, the next pass keeps layer 1's ``(G_1, F_1, S_1)``: the
    pass is deterministic, so they are the very values a recomputation
    would give.  Any other step recomputes that layer.

    The whole loop runs in one ``np.errstate(under="ignore",
    over="ignore", invalid="ignore")``: the activation needs the first two,
    and an overflowed layer meets ``inf * 0`` in a product, so a run that
    diverges ends as ``diverged`` without warnings.
    """
    _check_dims(params0, data)
    L = params0.depth
    eta = cfg.eta
    if cert is not None:
        _check_depth(cert, L)
        if cert.vacuous:
            raise ValueError("certificate is vacuous (zero rate), cannot certify a step size")
        if not eta < cert.eta_max:
            raise ValueError(
                f"eta={eta} is not below the certified cap {cert.eta_max}"
            )

    X = data.X
    # W_1..W_L are views of one flat vector, updated in one subtraction
    wshapes = [w.shape for w in params0.weights]
    theta, W = _flat_views(wshapes)
    for v, w in zip(W, params0.weights):
        v[...] = w
    gflat, grads = _flat_views(wshapes)
    kernel = _Kernel(X, data.Y, W, act, grads=grads)
    forward_pass, backward, loss_of_pass = kernel.forward, kernel.backward, kernel.loss
    F1 = kernel.F[1]
    thresholds = invariant_thresholds(cert) if cert is not None else None
    spectra = _Spectra([(X.shape[0], wshapes[0][1])] + wshapes, thresholds, eta, cfg.max_steps)
    loss_log, gn_log = array("d"), array("d")
    rate, creep, lows = spectra.rate, spectra.creep, spectra.lows
    f1_append = spectra.records[0].append
    suffix = False  # whether a row after step 0 has measured F_1
    eta_0d = np.array(eta)  # a ufunc takes a 0-d array with less work than a float
    bits = w1_bits = W[0].tobytes()  # the W_1 that layer 1's buffers hold

    start = 0
    P = 0.0  # the audit's running sum of step bounds
    k = 0
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        while True:
            forward_pass(start)
            loss_k = loss_of_pass()
            if not math.isfinite(loss_k) and not kernel.finite():
                kernel.blank()
                loss_k = loss_of_pass()
            if not math.isfinite(loss_k) or loss_k > DIVERGENCE_LOSS:
                stop_reason = "diverged"
            elif loss_k <= cfg.stop_loss:
                stop_reason = "stop_loss"
            elif k == cfg.max_steps:
                stop_reason = "max_steps"
            else:
                stop_reason = None
            backward()
            gn = math.sqrt(float(np.vdot(gflat, gflat)))

            loss_log.append(loss_k)
            gn_log.append(gn)
            # limit is -inf until step 0 measures every matrix and sets it
            if stop_reason is not None or not P <= spectra.limit:
                spectra.measure_all(k, (F1, *W))
                suffix = k > 0
            elif start == 0:
                spectra.measure(0, F1)
                suffix = True
            if suffix or k == 0:
                f1_append(lows[0])

            if stop_reason is not None:
                break
            # the gradient becomes the step in place; each entry rounds as in
            # a per-layer ``W[l] -= eta * grads[l]``
            np.multiply(gflat, eta_0d, gflat)
            np.subtract(theta, gflat, theta)
            P += gn * rate + creep
            bits = W[0].tobytes()
            start = 1 if bits == w1_bits else 0  # 1 keeps layer 1
            w1_bits = bits
            k += 1

    # an update that overflowed a weight leaves no finite last iterate;
    # the final weights are copies, not views of the trainer's vector
    final = Params(tuple(w.copy() for w in W)) if np.isfinite(theta).all() else params0
    return TrainLog(
        loss=np.frombuffer(loss_log),
        grad_norm=np.frombuffer(gn_log),
        cells=spectra.cell_table(),
        spectra_svds=spectra.n_svds,
        final_params=final,
        eta=eta,
        diverged=stop_reason == "diverged",
        stop_reason=stop_reason,
    )


# ---------------------------------------------------------------------------
# Log export
# ---------------------------------------------------------------------------


def trainlog_to_csv(log: TrainLog, path, cert: Optional[Certificate] = None) -> Optional[InvariantReport]:
    """Fixed-order CSV: k, loss, bound, the spectra columns of
    ``certificates.invariant_cells``, grad_norm, spectra_exact, then one
    ``flag_<check>`` column per name in ``InvariantReport.CHECKS``.  Bound
    and flags judge ``log`` against ``cert`` (one of another depth raises
    ``ValueError``), and the report returned counts the flag columns;
    without one it is ``None``, the bound is NaN and the flag columns are
    left out.

    ``F_1``'s column is exact on every row.  The others of a certified run
    are certified one-sided bounds, lower for a floor and upper for a cap,
    exact on rows with ``spectra_exact`` = 1 (every row, uncertified).

    Each row is formatted from the columns and written on its own.  The
    columns the log does not hold are read as they are written:
    ``spectra_exact`` row by row from the weights' split, and the cells,
    bound and flags a block of ``BLOCK_ROWS`` rows at a time
    (``TrainLog.blocks``, judged and counted by ``certificates._judge``).
    So the write holds one block, one row and the file's buffer beside the log.
    """
    L, n = log.final_params.depth, log.n_steps
    header = ["k", "loss", "bound", *(c for c, _, _ in invariant_cells(L)), "grad_norm", "spectra_exact"]
    # without a certificate the bound cell is the literal NaN of the template
    cells = ["%d", _FLOAT_CELL, "nan"] + [_FLOAT_CELL] * len(log.cells.records) + [_FLOAT_CELL, "%d"]
    first = _split(log.cells.records[-1], n)
    exact = chain((1,), repeat(0, first - 1), repeat(1, n - first))
    blocks = log.blocks()
    judged, report = cert is not None, {}
    if judged:
        _check_depth(cert, L)
        blocks = _judge(cert, log.eta, log.phi0, blocks, report)
        header.extend("flag_" + name for name in InvariantReport.CHECKS)
        cells[2] = _FLOAT_CELL
        cells.extend(["%d"] * len(InvariantReport.CHECKS))

    def block(k0, columns, *judgement):
        # a judged block ends in its bound and flags, an unjudged one in its
        # loss, which the row reads from the log.  The row numbers come
        # first: zip stops there, before it reads the stream past the block
        k1 = k0 + columns.shape[1]
        bound, flags = ([judgement[0]], judgement[1].T) if judged else ((), ())
        return [range(k0, k1), log.loss[k0:k1], *bound, *columns, log.grad_norm[k0:k1], exact, *flags]

    # starmap keeps no judged block once it is handed on
    _write_csv(path, header, cells, starmap(block, blocks))
    return InvariantReport(**report) if judged else None
