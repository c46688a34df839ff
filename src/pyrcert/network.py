"""Pyramidal fully-connected networks: shapes, data, forward pass, square loss.

A network with depth ``L`` has weight matrices ``W_l`` of shape
``(n_{l-1}, n_l)`` with ``n_0 = d``, a convention every module relies on.
Hidden layers ``1..L-1`` apply the activation entrywise; the output layer is
linear.
"""

from __future__ import annotations

import csv
import json
import operator
from dataclasses import dataclass

import numpy as np

from .activation import ActivationParams, _value_and_slope
from .activation import evaluate  # noqa: F401 - bound here for perfbench's tracer

__all__ = [
    "Shape",
    "Dataset",
    "Params",
    "ForwardTrace",
    "forward",
    "loss",
    "loss_of",
    "dataset_from_csv",
    "dataset_to_json",
    "dataset_from_json",
]

_FLOAT_FMT = ".17g"  # every float the package writes to CSV; round-trips float64


def _size(value, name: str) -> int:
    """``value`` as a Python int: integers of any kind pass, while a bool or
    a float (even an integral one) is refused rather than truncated."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Shape:
    """Input dimension plus per-layer widths ``n_1..n_L`` (pyramidal)."""

    d: int
    widths: tuple[int, ...]

    def __post_init__(self) -> None:
        d = _size(self.d, "shape.d")
        widths = tuple(_size(w, f"shape.widths[{i}]") for i, w in enumerate(self.widths))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "widths", widths)
        if self.d < 1:
            raise ValueError(f"input dimension must be >= 1, got {self.d}")
        if len(self.widths) < 2:
            raise ValueError("depth must be at least 2 (one hidden + output layer)")
        if any(w < 1 for w in self.widths):
            raise ValueError(f"all widths must be positive, got {self.widths}")
        deep = self.widths[1:]
        if any(a < b for a, b in zip(deep, deep[1:])):
            raise ValueError(
                f"widths from the second layer on must be non-increasing, got {self.widths}"
            )

    @property
    def depth(self) -> int:
        return len(self.widths)

    @property
    def dims(self) -> tuple[int, ...]:
        """(n_0, n_1, ..., n_L) with n_0 = d."""
        return (self.d, *self.widths)


@dataclass(frozen=True)
class Dataset:
    """Training inputs ``X`` (N x d) and targets ``Y`` (N x n_L)."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=np.float64)
        Y = np.asarray(self.Y, dtype=np.float64)
        if X.ndim != 2 or Y.ndim != 2:
            raise ValueError("X and Y must both be 2-D arrays")
        if X.shape[0] != Y.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]}")
        if X.shape[0] < 1:
            raise ValueError("need at least one sample")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise ValueError("dataset entries must be finite")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def n_out(self) -> int:
        return self.Y.shape[1]


@dataclass(frozen=True)
class Params:
    """Weight tuple ``(W_1, ..., W_L)`` with consistent inner dimensions."""

    weights: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        ws = tuple(np.asarray(w, dtype=np.float64) for w in self.weights)
        if len(ws) < 1:
            raise ValueError("need at least one weight matrix")
        for i, w in enumerate(ws, start=1):
            if w.ndim != 2:
                raise ValueError(f"W_{i} must be 2-D, got shape {w.shape}")
            if not np.all(np.isfinite(w)):
                raise ValueError(f"W_{i} has non-finite entries")
        for i in range(1, len(ws)):
            if ws[i - 1].shape[1] != ws[i].shape[0]:
                raise ValueError(
                    f"layer {i} outputs {ws[i - 1].shape[1]} units but layer "
                    f"{i + 1} expects {ws[i].shape[0]}"
                )
        object.__setattr__(self, "weights", ws)

    @property
    def depth(self) -> int:
        return len(self.weights)

    @property
    def d(self) -> int:
        return self.weights[0].shape[0]

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(w.shape[1] for w in self.weights)

    @property
    def shape(self) -> Shape:
        """Shape of this parameter tuple; raises if not pyramidal."""
        return Shape(d=self.d, widths=self.widths)


@dataclass(frozen=True)
class ForwardTrace:
    """Pre-activations, layer outputs and activation slopes from one
    full-dataset pass.

    ``F[0]`` is the input, ``F[l] = sigma(G[l])`` entrywise for hidden
    layers, and ``F[L] = G[L]`` (linear output).  ``S`` holds the slopes
    of hidden layers ``1..L-1``, computed with their values in one pass.
    """

    data: Dataset
    G: tuple[np.ndarray, ...]
    F: tuple[np.ndarray, ...]
    S: tuple[np.ndarray, ...]

    def residual(self) -> np.ndarray:
        return self.F[-1] - self.data.Y


def _check_dims(params: Params, data: Dataset) -> None:
    if data.d != params.d:
        raise ValueError(
            f"layer 1: input dimension mismatch (X has {data.d} columns, "
            f"W_1 expects {params.d})"
        )
    if data.n_out != params.widths[-1]:
        raise ValueError(
            f"layer {params.depth}: output dimension mismatch (Y has "
            f"{data.n_out} columns, W_{params.depth} produces {params.widths[-1]})"
        )


def _layers(X: np.ndarray, weights, act: ActivationParams, first=None):
    """The forward kernel: pre-activations ``G``, outputs ``F`` and hidden
    slopes ``S`` of one pass, on raw arrays.  It checks no dimensions
    because the trainer calls it every step; a non-finite pre-activation
    raises ``ValueError``.  ``first``, when given, is hidden layer 1's
    ``(G_1, F_1, S_1)`` for these very weights, and the pass starts from it.

    The products are ``np.dot``, which calls the same BLAS gemm as ``@``
    for less per-call overhead, so it gives the same bits.  The hidden
    layers run the unchecked activation kernel after one finiteness check
    each.  The kernel enters no ``errstate``: its callers hold one,
    ``under`` and ``over`` ignored, so an overflow of a hidden layer's
    product raises the ``ValueError`` without a warning."""
    G, F, S = [], [X], []
    if first is not None:
        G.append(first[0])
        F.append(first[1])
        S.append(first[2])
    for w in weights[len(S) : -1]:
        g = np.dot(F[-1], w)
        if np.count_nonzero(np.isfinite(g)) != g.size:
            raise ValueError("activation input must be finite")
        f, s = _value_and_slope(act, g)
        G.append(g)
        F.append(f)
        S.append(s)
    out = np.dot(F[-1], weights[-1])
    G.append(out)  # G_L coincides with the linear output
    F.append(out)
    return tuple(G), tuple(F), tuple(S)


def forward(params: Params, data: Dataset, act: ActivationParams) -> ForwardTrace:
    """Forward pass over the whole dataset; deterministic.  Overflow and
    underflow pass silently: a hidden layer's overflow raises
    ``ValueError``, and the output layer's reads as inf or NaN."""
    _check_dims(params, data)
    with np.errstate(under="ignore", over="ignore"):
        G, F, S = _layers(data.X, params.weights, act)
    return ForwardTrace(data=data, G=G, F=F, S=S)


def loss_of(trace: ForwardTrace) -> float:
    """Square loss of an already-computed trace."""
    r = trace.residual()
    return 0.5 * float(np.vdot(r, r))


def loss(params: Params, data: Dataset, act: ActivationParams) -> float:
    """Square loss ``0.5 * ||f_L - y||_2^2``."""
    return loss_of(forward(params, data, act))


# ---------------------------------------------------------------------------
# Dataset serialization
# ---------------------------------------------------------------------------


def _write_matrix_csv(M: np.ndarray, path, prefix: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"{prefix}{j}" for j in range(M.shape[1])])
        for row in M:
            writer.writerow([format(v, _FLOAT_FMT) for v in row])


def _read_matrix_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader if row]
    M = np.asarray(rows, dtype=np.float64)
    if M.ndim != 2 or M.shape[1] != len(header):
        raise ValueError(f"malformed matrix CSV: {path}")
    return M


def dataset_from_csv(x_path, y_path) -> Dataset:
    return Dataset(X=_read_matrix_csv(x_path), Y=_read_matrix_csv(y_path))


def dataset_to_json(data: Dataset, path) -> None:
    """Single-file bundle: inputs, targets, and their dimensions."""
    payload = {
        "X": data.X.tolist(),
        "Y": data.Y.tolist(),
        "shape": {"N": data.n_samples, "d": data.d, "n_out": data.n_out},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def dataset_from_json(path) -> Dataset:
    with open(path) as fh:
        payload = json.load(fh)
    data = Dataset(X=np.asarray(payload["X"]), Y=np.asarray(payload["Y"]))
    want = payload.get("shape")
    if want is not None:
        got = {"N": data.n_samples, "d": data.d, "n_out": data.n_out}
        if got != want:
            raise ValueError(f"bundle shape {want} does not match arrays {got}")
    return data
