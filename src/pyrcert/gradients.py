"""Gradients, the PL-style gradient floor, and the trainer.

Gradients are computed by reverse accumulation, which is algebraically
identical to the closed-form product of per-layer slope diagonals and
Kronecker factors (the tests rebuild that product literally and compare).
The trainer runs plain full-batch gradient descent and logs, per step, the
spectral quantities whose invariants a convergence certificate promises to
preserve; ``certificates.monitor_invariants`` judges them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .activation import ActivationParams
from .activation import value_and_slope  # noqa: F401 - bound here for perfbench's tracer
from .certificates import Certificate, InvariantReport, invariant_thresholds
from .network import _FLOAT_FMT, Dataset, ForwardTrace, Params, _check_dims, _layers, forward

__all__ = [
    "GradientBundle",
    "TrainConfig",
    "TrainLog",
    "grad",
    "pl_lower_bound",
    "train",
    "trainlog_to_csv",
]

DIVERGENCE_LOSS = 1e12


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


def _backprop(F, S, weights, E: np.ndarray, flat: np.ndarray, grads) -> float:
    """The backward kernel, on raw arrays: writes each layer's gradient
    into ``grads``, views of the one vector ``flat`` shaped like
    ``weights``, and returns the squared norm of ``flat``.  ``F`` and
    ``S`` are a forward pass's outputs and slopes, and ``E = F[L] - Y``
    its residual.  The products are ``np.dot``, as in the forward kernel."""
    D = E
    for l in range(len(weights), 0, -1):
        np.dot(F[l - 1].T, D, out=grads[l - 1])
        if l > 1:
            D = np.dot(D, weights[l - 1].T)
            D *= S[l - 2]
    return float(np.vdot(flat, flat))


def grad(
    params: Params,
    data: Dataset,
    act: ActivationParams,
    trace: Optional[ForwardTrace] = None,
) -> GradientBundle:
    """Gradient of the square loss with respect to every weight matrix."""
    if trace is None:
        trace = forward(params, data, act)
    else:
        _check_dims(params, data)
    flat, grads = _flat_views([w.shape for w in params.weights])
    sq = _backprop(trace.F, trace.S, params.weights, trace.residual(), flat, grads)
    return GradientBundle(layers=tuple(grads), sq_norm=sq)


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
        if not (math.isfinite(self.eta) and self.eta >= 0.0):
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if not (math.isfinite(self.stop_loss) and self.stop_loss >= 0.0):
            raise ValueError("stop_loss must be finite and >= 0")


@dataclass
class TrainLog:
    """Per-step measurements of a gradient-descent run, row k for step k;
    ``certificates.monitor_invariants`` judges them against a certificate.

    The spectra (``sv_f1``, ``min_sv_w``, ``norm_w``) of a certified run are
    certified one-sided bounds: lower bounds for the smallest singular
    values, upper bounds for the operator norms.  They are exact on rows
    where ``spectra_exact`` is set, and on every row of an uncertified run.
    ``spectra_svds`` counts the exact SVDs the run took.  ``final_params``
    is the last iterate, or ``params0`` if an update overflowed a weight to
    a non-finite value (the run has then ``diverged``).
    """

    loss: np.ndarray
    grad_norm: np.ndarray
    sv_f1: np.ndarray
    min_sv_w: np.ndarray
    norm_w: np.ndarray
    spectra_exact: np.ndarray
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


# First log allocation in rows; the log doubles whenever it fills up, so
# its memory follows the rows used rather than ``max_steps``.
_LOG_CHUNK = 1024

# Rows ``trainlog_to_csv`` formats per write: blocks this small keep the
# formatted text off the peak memory of a run.
_CSV_BLOCK = 64

# Lazy spectra.  LAPACK's SVD is backward stable: each computed singular
# value of an m x n matrix A lies within a small multiple of
# eps * max(m, n) * ||A||_2 of the true one; _SVD_ERR is that multiple, with
# room to spare.
_EPS = float(np.finfo(np.float64).eps)
_SVD_ERR = 4.0
# Squares of entries below this underflow, so a computed Frobenius norm may
# miss up to this much per entry.
_SQRT_TINY = math.sqrt(float(np.finfo(np.float64).tiny))


def _freeze_tol(w: np.ndarray) -> float:
    """A quarter of the smallest spacing of ``w``'s entries: subtracting a
    float of smaller magnitude leaves every entry bitwise unchanged, since
    each entry's rounding interval reaches half the gap on either side, and
    the gap below a power of two is half the gap above.  Zero and subnormal
    entries make it 0, so no step is proven to keep them; a NaN or infinite
    entry makes it NaN, which no comparison passes."""
    return float(np.min(np.spacing(np.abs(w)))) / 4.0


def _grown(a: np.ndarray, rows: int, fill) -> np.ndarray:
    out = np.full((rows,) + a.shape[1:], fill, dtype=a.dtype)
    out[: len(a)] = a
    return out


def train(
    params0: Params,
    data: Dataset,
    act: ActivationParams,
    cfg: TrainConfig,
    cert: Optional[Certificate] = None,
) -> TrainLog:
    """Full-batch gradient descent from ``params0``.

    With a certificate, the step size must sit strictly below the certified
    cap, and the logged spectra prove or refute the certificate's
    thresholds on every step; ``certificates.monitor_invariants`` turns them
    into the invariant flags.  A run is aborted (log retained) if the loss
    exceeds ``1e12`` or turns non-finite, including when the iterates
    overflow and the forward pass meets a non-finite pre-activation.

    Spectra of a certified run are lazy but rigorous.  Each monitored matrix
    (``F_1`` and every ``W_l``) keeps a reference copy with the singular
    values of one exact SVD.  By Weyl's inequality no singular value moves
    further from the reference's than ``||A - A_ref||_2 <= ||A - A_ref||_F``.
    That displacement, inflated for rounding and widened by the SVD error
    of both matrices, turns the reference extremes into certified bounds
    on what an exact SVD of the current matrix would compute.  A matrix
    whose bounds do not prove its thresholds gets an exact SVD, which is
    logged and becomes its new reference; so the logged spectra decide each
    flag as an exact SVD would, on every step.  Step 0, the last logged
    step and every step of an uncertified run take exact SVDs, ``L + 1``
    per step.  A matrix that is still the very array of its reference
    (``F_1`` and ``W_1`` while ``W_1`` is unchanged) has displacement
    exactly 0, and its radius is the margin alone, since
    ``sqrt(0) * inflate + margin == margin`` in floating point.

    Layer 1 is reused exactly.  At a certified step size ``eta * grad``
    is often below a quarter of ``W_1``'s smallest spacing, and then it
    cannot move any entry of ``W_1``.  A step whose rounded
    ``eta * ||grad_1||`` proves this updates ``W_2..W_L`` only.  Any other
    step computes ``W_1``'s update out of place, which rounds exactly like
    the in-place one, and keeps ``W_1`` if the result is bitwise equal to
    it.  While ``W_1`` is kept, the next pass starts from the previous
    pass's ``(G_1, F_1, S_1)``, which are then the very values a
    recomputation would give.  Any change, NaN included, replaces ``W_1``
    and drops them.

    The whole loop runs in one ``np.errstate(under="ignore",
    over="ignore")``: the forward kernel's activation needs it, and a run
    that diverges ends as ``diverged`` without overflow warnings.
    """
    _check_dims(params0, data)
    L = params0.depth
    eta = float(cfg.eta)
    if cert is not None:
        if cert.vacuous:
            raise ValueError("certificate is vacuous (zero rate), cannot certify a step size")
        if not eta < cert.eta_max:
            raise ValueError(
                f"eta={eta} is not below the certified cap {cert.eta_max}"
            )

    X, Y = data.X, data.Y
    # W_2..W_L are views of one flat vector, updated in one subtraction;
    # W_1 is a separate array, replaced out of place
    wshapes = [w.shape for w in params0.weights]
    deep, deep_w = _flat_views(wshapes[1:])
    for v, w in zip(deep_w, params0.weights[1:]):
        v[...] = w
    W = [params0.weights[0].copy(), *deep_w]
    gflat, grads = _flat_views(wshapes)
    w1_size = params0.weights[0].size
    g1, gdeep = gflat[:w1_size], gflat[w1_size:]
    # log columns: loss, grad norm, then per monitored matrix (F_1,
    # W_1..W_L) its lower bounds and its upper bounds
    LO, HI = 2, 2 + (L + 1)
    max_rows = cfg.max_steps + 1
    cap = min(max_rows, _LOG_CHUNK)
    rows = np.full((cap, HI + (L + 1)), np.nan)
    exact_a = np.zeros(cap, dtype=bool)

    svd = np.linalg.svd
    if cert is not None:
        # thresholds each monitored matrix must prove, or else check exactly
        f1_floor, deep_floors, norm_caps = invariant_thresholds(cert)
        floors = [f1_floor, -math.inf, -math.inf] + deep_floors.tolist()
        caps = [math.inf] + norm_caps.tolist()
    # ||A - A_ref||_F * inflate + margin bounds how far any singular value
    # an exact SVD of A would compute lies from the reference's computed
    # ones.  inflate covers the rounding of the difference, the sum of
    # squares (size * eps bounds its rounding in any summation order, so
    # vdot and reduceat alike), the square root and the final add, and the
    # SVD error of A growing with ||A||_2 <= ||A_ref||_2 + the displacement;
    # margin covers the SVD error of both matrices at ||A_ref||_2, the
    # rounding of the bounds, and underflowed squares.
    shapes = [(X.shape[0], wshapes[0][1])] + wshapes
    inflate = [1.0 + (2.0 * m * n + _SVD_ERR * max(m, n) + 8.0) * _EPS for m, n in shapes]
    underflow = [2.0 * math.sqrt(m * n) * _SQRT_TINY for m, n in shapes]
    # eta * (sqrt(vdot(g_1, g_1)) * w1_inflate + underflow[1]) bounds every
    # entry of the rounded step eta * g_1: w1_inflate covers the rounding
    # of the sum of squares, the square root and both products, and the
    # underflow term the squares that underflow.  Below _freeze_tol(W_1),
    # the step leaves W_1 bitwise unchanged.
    w1_inflate = 1.0 + (w1_size + 4.0) * _EPS
    w1_tol = _freeze_tol(W[0])
    # references: F_1 and W_1 are the arrays themselves (they are replaced,
    # never changed in place); W_2..W_L are copies in one flat vector
    refs: list = [None, None]
    ref_deep, ref_w = _flat_views(wshapes[1:])
    starts = np.cumsum([0] + [m * n for m, n in wshapes[1:-1]])
    tops = [math.nan] * (L + 1)
    lows = [math.nan] * (L + 1)
    margins = [math.nan] * (L + 1)
    n_svds = 0

    first = None  # hidden layer 1's (G_1, F_1, S_1) while W_1 is unchanged
    k = 0
    diverged = False
    stop_reason = "max_steps"
    with np.errstate(under="ignore", over="ignore"):
        while True:
            try:
                G, F, S = _layers(X, W, act, first)
                if S:
                    first = (G[0], F[1], S[0])
            except ValueError:
                # non-finite pre-activation: the iterates blew up, and NaN
                # layers carry through to a non-finite loss that ends the run
                F = [X] + [np.full((X.shape[0], n), math.nan) for _, n in wshapes]
                S = F[1:L]
            E = F[L] - Y
            loss_k = 0.5 * float(np.vdot(E, E))
            last = (
                not math.isfinite(loss_k)
                or loss_k > DIVERGENCE_LOSS
                or loss_k <= cfg.stop_loss
                or k == cfg.max_steps
            )
            gsq = _backprop(F, S, W, E, gflat, grads)

            if k == cap:
                cap = min(2 * cap, max_rows)
                rows = _grown(rows, cap, np.nan)
                exact_a = _grown(exact_a, cap, False)
            row = rows[k]
            row[0] = loss_k
            row[1] = math.sqrt(gsq)
            prove = cert is not None and k > 0 and not last
            if prove:
                # squared displacements of W_2..W_L, summed per matrix
                deep_sq = np.add.reduceat(np.square(deep - ref_deep), starts).tolist()
            all_exact = True
            for i in range(L + 1):
                a = F[1] if i == 0 else W[i - 1]
                if prove:
                    if i >= 2:
                        radius = math.sqrt(deep_sq[i - 2]) * inflate[i] + margins[i]
                    elif a is refs[i]:  # zero displacement: sqrt(0) * inflate + margin
                        radius = margins[i]
                    else:
                        delta = a - refs[i]
                        radius = (
                            math.sqrt(float(np.vdot(delta, delta))) * inflate[i] + margins[i]
                        )
                    lo = lows[i] - radius
                    hi = tops[i] + radius
                    if lo >= floors[i] and hi <= caps[i]:
                        row[LO + i] = lo
                        row[HI + i] = hi
                        all_exact = False
                        continue
                # exact SVD: it decides this matrix's flags and becomes the
                # reference of the proofs that follow
                n_svds += 1
                try:
                    sv = svd(a, compute_uv=False)
                    tops[i], lows[i] = float(sv[0]), float(sv[-1])
                except np.linalg.LinAlgError:  # NaN entries of a blown-up run
                    tops[i] = lows[i] = math.nan
                if i <= 1:
                    refs[i] = a
                else:
                    ref_w[i - 2][...] = a
                m, n = shapes[i]
                margins[i] = (2.0 * _SVD_ERR * max(m, n) + 4.0) * _EPS * tops[i] + underflow[i]
                row[LO + i] = lows[i]
                row[HI + i] = tops[i]
            exact_a[k] = all_exact

            if last:
                if not math.isfinite(loss_k) or loss_k > DIVERGENCE_LOSS:
                    diverged = True
                    stop_reason = "diverged"
                elif loss_k <= cfg.stop_loss:
                    stop_reason = "stop_loss"
                break
            # the gradient becomes the step in place; each entry rounds as in
            # a per-layer ``W[l] -= eta * grads[l]``
            if eta * (math.sqrt(float(np.vdot(g1, g1))) * w1_inflate + underflow[1]) < w1_tol:
                gdeep *= eta  # W_1 provably stays put
            else:
                gflat *= eta
                w1 = W[0] - grads[0]
                if not (w1 == W[0]).all():  # NaN entries compare unequal
                    W[0] = w1
                    w1_tol = _freeze_tol(w1)
                    first = None
            deep -= gdeep
            k += 1

    # an update that overflowed a weight leaves no finite last iterate;
    # the final deep weights are copies, not views of the trainer's vector
    if np.isfinite(W[0]).all() and np.isfinite(deep).all():
        final = Params((W[0], *(w.copy() for w in deep_w)))
    else:
        final = params0
    rows = rows[: k + 1]
    return TrainLog(
        loss=rows[:, 0].copy(),
        grad_norm=rows[:, 1].copy(),
        sv_f1=rows[:, LO].copy(),
        min_sv_w=rows[:, LO + 3 : HI].copy(),
        norm_w=rows[:, HI + 1 :].copy(),
        spectra_exact=exact_a[: k + 1].copy(),
        spectra_svds=n_svds,
        final_params=final,
        eta=eta,
        diverged=diverged,
        stop_reason=stop_reason,
    )


# ---------------------------------------------------------------------------
# Log export
# ---------------------------------------------------------------------------


def trainlog_to_csv(log: TrainLog, path, report: Optional[InvariantReport] = None) -> None:
    """Fixed-order CSV: k, loss, bound, sv_F1, min_sv_W3.., max_norm_W1..,
    grad_norm, spectra_exact, then one ``flag_<check>`` column per name in
    ``InvariantReport.CHECKS``.  Bound and flags come from ``report``;
    without one the bound is NaN and the flag columns are left out.

    The spectra columns of a certified run are certified one-sided bounds:
    ``sv_F1`` and ``min_sv_W*`` lower bounds, ``max_norm_W*`` upper bounds.
    They are exact on rows with ``spectra_exact`` = 1, which an uncertified
    run has throughout.
    """
    L = log.final_params.depth
    header = ["k", "loss", "bound", "sv_F1"]
    header.extend(f"min_sv_W{l}" for l in range(3, L + 1))
    header.extend(f"max_norm_W{l}" for l in range(1, L + 1))
    header.extend(["grad_norm", "spectra_exact"])
    # one %-template per row, the cells taken column-wise with tolist();
    # "%.17g" % v is format(v, _FLOAT_FMT), and the rows end like csv's.
    # Without a report the bound cell is the literal NaN of the template.
    num = "%" + _FLOAT_FMT
    floats = [log.loss, log.sv_f1, *log.min_sv_w.T, *log.norm_w.T, log.grad_norm]
    cells = ["%d", num, "nan"] + [num] * (len(floats) - 1)
    ints = [log.spectra_exact]
    if report is not None:
        header.extend("flag_" + name for name in InvariantReport.CHECKS)
        floats.insert(1, report.bound)
        cells[2] = num
        ints.extend(report.flags.T)
    template = ",".join(cells + ["%d"] * len(ints)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, log.n_steps, _CSV_BLOCK):
            stop = min(start + _CSV_BLOCK, log.n_steps)
            cols = [range(start, stop)]
            cols.extend(col[start:stop].tolist() for col in floats + ints)
            fh.write("".join(template % row for row in zip(*cols)))
