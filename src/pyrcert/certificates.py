"""Convergence certificates: initialization spectra, rate constants, and
trajectory-invariant monitoring.

A certificate gathers, for a concrete (parameters, dataset, activation)
triple: spectral proxies of every initial weight matrix, the smallest
singular value of the first hidden layer's output, verdicts for the two
initial-condition inequalities, and the derived rate constants

* ``alpha0`` - certified geometric contraction rate of the loss,
* ``q0``    - gradient-smoothness proxy bounding the admissible step size,
* ``q1``    - prefactor of the parameter-distance decay,
* ``eta_max = min(1/alpha0, 1/q0)``.

Verdicts compare exactly computed floats with no tolerance; each comes with
the ratio LHS/RHS ("slack", >= 1 means the condition holds).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Optional

import numpy as np

from .activation import ActivationParams
from .activation import evaluate  # noqa: F401 - bound here for perfbench's tracer
from .network import Dataset, Params, forward, loss_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .gradients import TrainLog

__all__ = [
    "Certificate",
    "AssumptionVerdict",
    "InvariantReport",
    "spectral_quantities",
    "check_assumption",
    "rate_constants",
    "certify",
    "invariant_thresholds",
    "invariant_flags",
    "monitor_invariants",
    "certificate_to_json",
    "certificate_from_json",
]

DEGENERATE_LAMBDA_F = 1e-12


@dataclass(frozen=True)
class AssumptionVerdict:
    """Verdicts and slack ratios for the two initial-condition inequalities."""

    cond1_holds: bool
    cond1_slack: float
    cond2_holds: bool
    cond2_slack: float
    reason: Optional[str] = None


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


def certify(params0: Params, data: Dataset, act: ActivationParams) -> Certificate:
    """Compute the full certificate for an initialization on a dataset.

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
    verdict = check_assumption(lambda_bar, lambda_min_deep, lam_f, data.X, phi0, act.gamma)
    alpha0, q0, q1, r_product, eta_max, vacuous = rate_constants(
        lambda_bar, lambda_min_deep, lam_f, data.X, phi0, act
    )
    return Certificate(
        lambda_bar=lambda_bar,
        lambda_min_deep=lambda_min_deep,
        lambda_f=lam_f,
        phi0=phi0,
        alpha0=alpha0,
        q0=q0,
        q1=q1,
        r_product=r_product,
        eta_max=eta_max,
        cond1_holds=verdict.cond1_holds,
        cond1_slack=verdict.cond1_slack,
        cond2_holds=verdict.cond2_holds,
        cond2_slack=verdict.cond2_slack,
        gamma=act.gamma,
        beta=act.beta,
        depth=shape.depth,
        x_fro=float(np.linalg.norm(data.X, "fro")),
        x_op=float(np.linalg.norm(data.X, 2)),
        vacuous=vacuous,
        degenerate_reason=verdict.reason,
        depth2_convention=shape.depth == 2,
    )


# ---------------------------------------------------------------------------
# Trajectory monitoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantReport:
    """The certified loss ceiling and the four invariants' verdicts, per step."""

    bound: np.ndarray  # (n_steps,)
    flags: np.ndarray  # (n_steps, 4) bool, in the order of CHECKS
    first_violation: dict[str, Optional[int]]
    n_violations: dict[str, int]
    all_hold: bool

    CHECKS = ("sv_w", "norm_w", "sv_f1", "loss_bound")


def _first_false(col: np.ndarray) -> Optional[int]:
    bad = np.flatnonzero(~col)
    return int(bad[0]) if bad.size else None


def invariant_thresholds(cert: Certificate) -> tuple[float, np.ndarray, np.ndarray]:
    """The certified corridor: the floor of ``sigma_min(F_1)``, the floors of
    ``sigma_min(W_l)`` for layers 3..L and the caps of ``||W_l||_2`` for
    layers 1..L."""
    return (
        cert.lambda_f / 2.0,
        np.asarray(cert.lambda_min_deep, dtype=np.float64) / 2.0,
        1.5 * np.asarray(cert.lambda_bar, dtype=np.float64),
    )


def invariant_flags(
    cert: Certificate,
    sv_f1: np.ndarray,
    min_sv_w: np.ndarray,
    norm_w: np.ndarray,
    loss: np.ndarray,
    bound: np.ndarray,
) -> np.ndarray:
    """Per-step verdicts ``(n_steps, 4)`` for the four invariants, in the
    order of ``InvariantReport.CHECKS``.

    The spectra may be exact or certified one-sided bounds (lower bounds for
    ``sv_f1`` and ``min_sv_w``, upper bounds for ``norm_w``); with bounds a
    flag holds only where the bound proves it.
    """
    f1_floor, lam_floor, norm_cap = invariant_thresholds(cert)
    flags = np.empty((len(loss), 4), dtype=bool)
    flags[:, 0] = np.all(min_sv_w >= lam_floor[None, :], axis=1)
    flags[:, 1] = np.all(norm_w <= norm_cap[None, :], axis=1)
    flags[:, 2] = sv_f1 >= f1_floor
    flags[:, 3] = loss <= bound
    return flags


def monitor_invariants(log: "TrainLog", cert: Certificate) -> InvariantReport:
    """Judge a logged run against a certificate: per step, the certified
    decay bound ``(1 - eta*alpha0)**k * phi0`` and the invariant flags.
    A certified run logs certified bounds where it skipped an SVD, each
    proving its thresholds, so against the run's own certificate the flags
    equal those of an exact SVD on every step; against a tighter
    certificate a bound may fail to prove a step that holds.
    """
    # one vectorised power: a scalar power per step would differ from it in
    # the last bit on some steps, and the logged bound column is pinned bitwise
    bound = (1.0 - log.eta * cert.alpha0) ** np.arange(log.n_steps) * log.phi0
    flags = invariant_flags(cert, log.sv_f1, log.min_sv_w, log.norm_w, log.loss, bound)

    first = {
        name: _first_false(flags[:, i]) for i, name in enumerate(InvariantReport.CHECKS)
    }
    counts = {
        name: int((~flags[:, i]).sum()) for i, name in enumerate(InvariantReport.CHECKS)
    }
    return InvariantReport(
        bound=bound,
        flags=flags,
        first_violation=first,
        n_violations=counts,
        all_hold=bool(np.all(flags)),
    )


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


def _json_safe(v):
    """``v`` with every non-finite float in it replaced by ``None``."""
    if isinstance(v, dict):
        return {key: _json_safe(x) for key, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


def certificate_to_json(cert: Certificate, path=None) -> dict:
    """JSON payload with every field of the certificate plus its verdict
    ``certified``; non-finite floats are written as ``null``."""
    payload: dict = {}
    for f in fields(Certificate):
        v = _json_safe(getattr(cert, f.name))
        outer, inner = _NESTED.get(f.name, (f.name, None))
        if inner is None:
            payload[outer] = v
        else:
            payload.setdefault(outer, {})[inner] = v
    payload["certified"] = cert.certified
    if path is not None:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
    return payload


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
