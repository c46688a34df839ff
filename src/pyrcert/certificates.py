"""Convergence certificates: initialization spectra, rate constants, and
trajectory-invariant monitoring.

``certify`` measures a concrete (parameters, dataset, activation) triple:
the initial loss, spectral proxies of every initial weight matrix and the
smallest singular value of the first hidden layer's output.
``certificate_from_spectra`` turns these into verdicts for the two
initial-condition inequalities and the derived rate constants

* ``alpha0`` - certified geometric contraction rate of the loss,
* ``q0``    - gradient-smoothness proxy bounding the admissible step size,
* ``q1``    - prefactor of the parameter-distance decay,
* ``eta_max = min(1/alpha0, 1/q0)``.

Verdicts compare exactly computed floats with no tolerance; each comes with
the ratio LHS/RHS ("slack", >= 1 means the condition holds).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

import numpy as np

from .activation import ActivationParams
from .activation import evaluate  # noqa: F401 - bound here for perfbench's tracer
from .network import Dataset, Params, _json_safe, _write_json, forward, loss_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .gradients import TrainLog

__all__ = [
    "Certificate",
    "InvariantReport",
    "spectral_quantities",
    "certificate_from_spectra",
    "certify",
    "invariant_cells",
    "invariant_thresholds",
    "invariant_flags",
    "monitor_invariants",
    "certificate_to_json",
    "certificate_from_json",
]

DEGENERATE_LAMBDA_F = 1e-12


@dataclass(frozen=True)
class Certificate:
    """All named constants of a convergence certificate."""

    lambda_bar: tuple[float, ...]
    lambda_min_deep: tuple[float, ...]  # layers 3..L; empty at depth 2
    lambda_f: float
    phi0: float
    alpha0: float
    q0: float
    q1: float
    r_product: float
    eta_max: float
    cond1_holds: bool
    cond1_slack: float
    cond2_holds: bool
    cond2_slack: float
    gamma: float
    beta: float
    depth: int
    x_fro: float
    x_op: float
    vacuous: bool
    degenerate_reason: Optional[str]
    depth2_convention: bool

    def __post_init__(self) -> None:
        want = (self.depth, max(self.depth - 2, 0))
        got = (len(self.lambda_bar), len(self.lambda_min_deep))
        if got != want:
            raise ValueError(
                f"a depth-{self.depth} certificate needs {want[0]} lambda_bar and {want[1]} "
                f"lambda_min_deep entries, got {got[0]} and {got[1]}"
            )

    @property
    def certified(self) -> bool:
        return self.cond1_holds and self.cond2_holds and not self.vacuous


def spectral_quantities(params0: Params) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Upper spectral proxies for every layer and singular-value floors for
    layers 3..L.

    The first two layers get the shifted proxy ``(2/3)*(1 + ||W||_2)``; the
    rest use the operator norm directly.
    """
    bars: list[float] = []
    mins: list[float] = []
    for l, w in enumerate(params0.weights, start=1):
        try:
            svs = np.linalg.svd(w, compute_uv=False)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - numerical edge
            raise ValueError(f"SVD failed at layer {l}") from exc
        top = float(svs[0])
        if l <= 2:
            bars.append((2.0 / 3.0) * (1.0 + top))
        else:
            bars.append(top)
            mins.append(float(svs[-1]))
    return tuple(bars), tuple(mins)


def certificate_from_spectra(
    lambda_bar: tuple[float, ...],
    lambda_min_deep: tuple[float, ...],
    lam_f: float,
    X: np.ndarray,
    phi0: float,
    act: ActivationParams,
) -> Certificate:
    """The certificate of measured spectra: both initial-condition
    inequalities with their slacks, then the rate constants, literally.

    At depth 2 the deep products are empty (= 1) and the max() term keeps
    only its last two arguments, since the minimum over an empty layer range
    would be +inf and annihilate the first argument.  A constant past the
    float64 range (a float power that overflows, or a non-vacuous
    certificate's infinite ``alpha0`` or ``q0``) raises ``ValueError``
    naming the depth.
    """
    L = len(lambda_bar)
    gamma, beta = act.gamma, act.beta
    X = np.asarray(X, dtype=np.float64)
    x_fro = float(np.linalg.norm(X, "fro"))
    x_op = float(np.linalg.norm(X, 2))
    # a product past the float64 range reads as inf, caught below
    with np.errstate(over="ignore"):
        bar_deep = float(np.prod(lambda_bar[2:])) if L > 2 else 1.0
        min_deep = float(np.prod(lambda_min_deep)) if lambda_min_deep else 1.0
        r_product = float(np.prod([max(1.0, 1.5 * lb) for lb in lambda_bar]))
        bar_all = float(np.prod(lambda_bar))
    root_phi = math.sqrt(2.0 * phi0)

    try:
        # the two initial conditions: lambda_F**2 >= rhs1 and lambda_F**3 >= rhs2
        pref = (gamma**4 / 3.0) * (6.0 / gamma**2) ** L
        ratio = bar_deep / min_deep**2 if min_deep > 0 else math.inf
        if L >= 3:
            pair_min = min(lb * lm for lb, lm in zip(lambda_bar[2:], lambda_min_deep))
            first_arg = 2.0 * lambda_bar[0] * lambda_bar[1] / pair_min if pair_min > 0 else math.inf
            max_term = max(first_arg, lambda_bar[0], lambda_bar[1])
        else:
            max_term = max(lambda_bar[0], lambda_bar[1])
        rhs1 = pref * x_fro * root_phi * ratio * max_term
        rhs2 = 2.0 * pref * x_op * x_fro * root_phi * ratio * lambda_bar[1]
        lhs1, lhs2 = lam_f**2, lam_f**3

        # the rate constants
        alpha0 = (4.0 / gamma**4) * (gamma**2 / 4.0) ** L * lam_f**2 * min_deep**2
        bar_min = min(lambda_bar)
        ls = L * math.sqrt(L)
        # +inf for a zero deep layer, whose lambda_min = 0 makes alpha0 = 0 (vacuous)
        q0 = ls * 1.5 ** (2 * (L - 1)) * x_fro**2 * bar_all**2 / bar_min**2 if bar_min else math.inf
        q0 += ls * x_fro * (1.0 + L * beta * x_fro * r_product) * r_product * root_phi
        vacuous = not alpha0 > 0.0
        if vacuous:
            q1 = math.inf if phi0 > 0 else 0.0
            eta_max = math.nan
        else:
            # every lambda_bar is > 0 here, so an infinite alpha0 or q0 is a
            # product past the float64 range
            if not (math.isfinite(alpha0) and math.isfinite(q0)):
                raise OverflowError
            sum_term = sum(bar_all / lb for lb in lambda_bar)
            q1 = (4.0 / 3.0) * 1.5**L * (x_fro / alpha0) * sum_term * root_phi
            eta_max = min(1.0 / alpha0, 1.0 / q0) if q0 > 0 else 1.0 / alpha0
    except OverflowError:  # a float power or product past the float64 range
        raise ValueError(
            f"the certificate's constants at depth {L} leave the float64 range"
        ) from None
    return Certificate(
        lambda_bar=tuple(lambda_bar),
        lambda_min_deep=tuple(lambda_min_deep),
        lambda_f=lam_f,
        phi0=phi0,
        alpha0=float(alpha0),
        q0=float(q0),
        q1=float(q1),
        r_product=r_product,
        eta_max=float(eta_max),
        cond1_holds=bool(lhs1 >= rhs1),
        cond1_slack=float(lhs1 / rhs1 if rhs1 > 0 else math.inf),
        cond2_holds=bool(lhs2 >= rhs2),
        cond2_slack=float(lhs2 / rhs2 if rhs2 > 0 else math.inf),
        gamma=gamma,
        beta=beta,
        depth=L,
        x_fro=x_fro,
        x_op=x_op,
        vacuous=vacuous,
        degenerate_reason="degenerate data" if lam_f <= DEGENERATE_LAMBDA_F and phi0 > 0 else None,
        depth2_convention=L == 2,
    )


def certify(params0: Params, data: Dataset, act: ActivationParams) -> Certificate:
    """The certificate of an initialization on a dataset: measures the
    initial loss and spectra, then evaluates :func:`certificate_from_spectra`.

    Requires the pyramidal shape plus a first layer at least as wide as the
    sample count (the width hypothesis behind the gradient floor).
    """
    shape = params0.shape  # validates the pyramidal ordering
    if shape.widths[0] < data.n_samples:
        raise ValueError(
            f"certificate requires first-layer width >= sample count "
            f"(n1={shape.widths[0]}, N={data.n_samples})"
        )
    trace = forward(params0, data, act)
    phi0 = loss_of(trace)
    lambda_bar, lambda_min_deep = spectral_quantities(params0)
    lam_f = float(np.linalg.svd(trace.F[1], compute_uv=False)[-1])
    return certificate_from_spectra(lambda_bar, lambda_min_deep, lam_f, data.X, phi0, act)


# ---------------------------------------------------------------------------
# Trajectory monitoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantReport:
    """The four invariants' verdicts on a log against a certificate: each
    check's number of failing steps and first one, and whether all hold.
    The report holds only these counts, tallied by ``_judge`` as it yields
    each block's bound and flags: ``trainlog_to_csv`` returns the report of
    the flag columns it writes to ``trainlog.csv``."""

    first_violation: dict[str, Optional[int]]
    n_violations: dict[str, int]
    all_hold: bool

    CHECKS = ("sv_w", "norm_w", "sv_f1", "loss_bound")


def _first_false(col: np.ndarray) -> Optional[int]:
    # argmin finds the first False without a negated copy
    bad = int(np.argmin(col)) if col.size else 0
    return bad if col.size and not col[bad] else None


def _check_depth(cert: Certificate, depth: int) -> None:
    if cert.depth != depth:
        raise ValueError(f"the certificate is for depth {cert.depth}, but the network has depth {depth}")


@functools.cache
def invariant_cells(depth: int) -> tuple[tuple[str, int, str], ...]:
    """The CSV's spectra columns at depth ``depth``, in order, each
    ``(column, matrix, check)``: matrix 0 is ``F_1`` and ``l`` is ``W_l``;
    ``norm_w`` cells cap ``||W_l||_2``, the others floor a ``sigma_min``."""
    floors = [("sv_F1", 0, "sv_f1")] + [(f"min_sv_W{l}", l, "sv_w") for l in range(3, depth + 1)]
    return (*floors, *((f"max_norm_W{l}", l, "norm_w") for l in range(1, depth + 1)))


def invariant_thresholds(cert: Certificate) -> np.ndarray:
    """The certified corridor, one threshold per ``invariant_cells`` cell:
    the floors of ``sigma_min(F_1)`` and of ``sigma_min(W_l)`` for layers
    3..L, then the caps of ``||W_l||_2`` for layers 1..L."""
    floors = (cert.lambda_f, *cert.lambda_min_deep)
    return np.array([v / 2.0 for v in floors] + [1.5 * v for v in cert.lambda_bar])


def invariant_flags(
    cert: Certificate,
    columns: Iterable[np.ndarray],
    loss: np.ndarray,
    bound: np.ndarray,
) -> np.ndarray:
    """Per-step verdicts ``(n_steps, 4)`` for the four invariants, in the
    order of ``InvariantReport.CHECKS``, each column contiguous.

    ``columns`` are the CSV's spectra columns (``invariant_cells``) as 1-D
    columns, as they are; another count raises ``ValueError``.  Each is
    read once, in order, and released before the next is asked for, so an
    iterator may compute each one when it is reached; a ``TrainLog.blocks``
    block gives them as the rows of one array.  The spectra may be exact
    or certified one-sided bounds (lower bounds for the floors, upper
    bounds for the norms); with bounds a flag holds only where the bound
    proves it.
    """
    # each check's column is contiguous: the rows of a (4, n_steps) block
    block = np.empty((4, len(loss)), dtype=bool)
    block[:3].fill(True)
    rows = dict(zip(InvariantReport.CHECKS, block))
    layout = zip(invariant_cells(cert.depth), invariant_thresholds(cert), columns, strict=True)
    # one cell at a time into the loss check's row, free until last, then
    # ANDed in place (``where=col`` with ``out=col`` overlap, so NumPy copies)
    for (_, _, check), limit, cells in layout:
        test = np.less_equal if check == "norm_w" else np.greater_equal
        rows[check] &= test(cells, limit, out=block[3])
    np.less_equal(loss, bound, out=block[3])
    return block.T


def _decay_bound(cert: Certificate, eta: float, phi0: float, k0: int, k1: int) -> np.ndarray:
    """The certified loss ceiling ``(1 - eta*alpha0)**k * phi0`` on rows
    ``k = k0 .. k1 - 1``, built in one buffer.  ``np.power`` over an
    ``arange`` gives each row the bits of the whole column's vectorised
    power whatever the block; a scalar power per row would differ from it
    in the last bit on some rows, and the logged bound column is pinned
    bitwise."""
    bound = np.arange(k0, k1, dtype=np.float64)
    np.power(1.0 - eta * cert.alpha0, bound, out=bound)
    np.multiply(bound, phi0, out=bound)
    return bound


def _judge(cert: Certificate, eta: float, phi0: float, blocks, report: dict) -> Iterator[tuple]:
    """``(k0, columns, bound, flags)`` of each block ``(k0, columns, loss)``
    of a log's rows from row ``k0``: its ceiling by ``_decay_bound`` and its
    ``invariant_flags``, counted into ``report`` as it is yielded; the
    drained stream leaves ``InvariantReport``'s fields in ``report``."""
    first = report["first_violation"] = dict.fromkeys(InvariantReport.CHECKS)
    counts = report["n_violations"] = dict.fromkeys(InvariantReport.CHECKS, 0)
    for k0, columns, loss in blocks:
        bound = _decay_bound(cert, eta, phi0, k0, k0 + len(loss))
        flags = invariant_flags(cert, columns, loss, bound)
        # counted and searched in place, with no negated copy of a column
        for name, col in zip(InvariantReport.CHECKS, flags.T):
            bad = col.size - int(np.count_nonzero(col))
            if bad and first[name] is None:
                first[name] = k0 + _first_false(col)
            counts[name] += bad
        yield k0, columns, bound, flags
        del bound, flags, col  # released before the next block is made
    report["all_hold"] = not any(counts.values())


def monitor_invariants(log: "TrainLog", cert: Certificate) -> InvariantReport:
    """Judge a logged run against a certificate: per step, the certified
    decay bound ``(1 - eta*alpha0)**k * phi0`` and the invariant flags.
    A certified run logs certified bounds where it skipped an SVD, each
    proving its thresholds, so against the run's own certificate the flags
    equal those of an exact SVD on every step; against a tighter
    certificate a bound may fail to prove a step that holds.  A certificate
    of another depth than the logged network's raises ``ValueError``.

    The log is judged a block of ``gradients.BLOCK_ROWS`` rows at a time
    (``TrainLog.blocks``) by draining ``_judge``'s stream, the one that
    ``trainlog_to_csv`` writes: the judge holds one block's bound, flags
    and cells, whatever the log's length.
    """
    _check_depth(cert, log.final_params.depth)
    report: dict = {}
    for _ in _judge(cert, log.eta, log.phi0, log.blocks(), report):
        pass
    return InvariantReport(**report)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


# Certificate fields written nested, as (object, key); the rest are top level.
_NESTED = {
    "cond1_holds": ("init_condition_1", "holds"),
    "cond1_slack": ("init_condition_1", "slack"),
    "cond2_holds": ("init_condition_2", "holds"),
    "cond2_slack": ("init_condition_2", "slack"),
}


def certificate_to_json(cert: Certificate, path=None) -> dict:
    """JSON payload with every field of the certificate plus its verdict
    ``certified``; non-finite floats are written as ``null``."""
    payload: dict = {}
    for f in fields(Certificate):
        v = getattr(cert, f.name)
        outer, inner = _NESTED.get(f.name, (f.name, None))
        if inner is None:
            payload[outer] = v
        else:
            payload.setdefault(outer, {})[inner] = v
    payload["certified"] = cert.certified
    if path is not None:
        _write_json(path, payload)
    return _json_safe(payload)


def certificate_from_json(path) -> Certificate:
    """Inverse of :func:`certificate_to_json`: ``null`` reads as +inf, except
    ``eta_max``, whose only non-finite value is NaN (a vacuous certificate)."""
    with open(path) as fh:
        payload = json.load(fh)
    values = {}
    for f in fields(Certificate):
        outer, inner = _NESTED.get(f.name, (f.name, None))
        v = payload[outer] if inner is None else payload[outer][inner]
        if isinstance(v, list):
            v = tuple(math.inf if x is None else x for x in v)
        elif v is None and f.type == "float":
            v = math.nan if f.name == "eta_max" else math.inf
        values[f.name] = v
    return Certificate(**values)
