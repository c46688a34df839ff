"""Pyramidal fully-connected networks: shapes, data, the pass kernel, square loss.

A network with depth ``L`` has weight matrices ``W_l`` of shape
``(n_{l-1}, n_l)`` with ``n_0 = d``, a convention every module relies on.
Hidden layers ``1..L-1`` apply the activation entrywise; the output layer is
linear.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .activation import ActivationParams, _constants, _value_and_slope
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

_FLOAT_CELL = "%.17g"  # every float the package writes to CSV; round-trips float64


def _write_csv(path, header, cells, blocks) -> None:
    """The ``header`` row, then one row per entry of the columns of each
    of the ``blocks`` in turn by the %-template of ``cells`` (a literal
    cell reads no column), each written on its own and ended in ``\\r\\n``
    like ``csv.writer``'s; a memoryview reads a NumPy column as Python
    scalars, with no list of them.  A block is a list of columns of its
    rows, and may be made only when it is reached."""
    template = (",".join(cells) + "\r\n").encode()
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for columns in blocks:
            # a list, not a generator: unpacking a generator resizes a new
            # tuple each time, and CPython keeps every one on a free list
            rows = zip(*[memoryview(c) if isinstance(c, np.ndarray) else c for c in columns])
            fh.writelines(template % row for row in rows)
            del columns, rows  # released before the next block is made


def _json_safe(v):
    """``v`` with every non-finite float in it replaced by ``None``."""
    if isinstance(v, dict):
        return {key: _json_safe(x) for key, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _json_text(payload) -> str:
    """Strict JSON, indented by 2, with every non-finite float as ``null``."""
    return json.dumps(_json_safe(payload), indent=2, allow_nan=False)


def _write_json(path, payload) -> str:
    """``payload`` written to ``path`` as ``_json_text``, which it returns."""
    text = _json_text(payload)
    with open(path, "w") as fh:
        fh.write(text)
    return text


def _size(value, name: str, low: int) -> int:
    """``value`` as a Python int of at least ``low``: integers of any kind
    pass, while a bool or a float (even an integral one) is refused rather
    than truncated, and so is an integer below ``low``."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


@dataclass(frozen=True)
class Shape:
    """Input dimension plus per-layer widths ``n_1..n_L`` (pyramidal)."""

    d: int
    widths: tuple[int, ...]

    def __post_init__(self) -> None:
        d = _size(self.d, "shape.d", 1)
        widths = tuple(_size(w, f"shape.widths[{i}]", 1) for i, w in enumerate(self.widths))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "widths", widths)
        if len(self.widths) < 2:
            raise ValueError("depth must be at least 2 (one hidden + output layer)")
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
        for name, a in (("X", X), ("Y", Y)):
            if a.shape[1] < 1:
                raise ValueError(f"{name} must have at least one column")
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
            if 0 in w.shape:
                raise ValueError(f"W_{i} must have rows and columns, got shape {w.shape}")
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


class _Kernel:
    """The forward and backward pass of one network on one dataset, on
    buffers made once: ``forward``, ``grad`` and the trainer all run it.

    ``weights`` are the caller's arrays, read on every pass, so a trainer
    that updates them in place steps the same kernel.  ``G``, ``F`` and
    ``S`` are the pre-activations, layer outputs and hidden slopes of the
    last pass, laid out as in ``ForwardTrace`` (``F[0]`` is ``X`` and
    ``F[L]`` is ``G[L]``).  ``E`` is the residual and ``grads``, when
    given, are the arrays ``backward`` writes each layer's gradient into,
    shaped like ``weights``.

    Every product is ``np.dot(a, b, out)``, which calls the same BLAS gemm
    as ``@`` for less per-call overhead and gives the same bits; the
    transposes it needs are views made here once.  The hidden layers run
    the unchecked activation kernel into their own buffers.  The kernel
    checks nothing and enters no ``errstate``: a non-finite pre-activation
    carries through IEEE arithmetic to a non-finite output (``inf * 0`` is
    NaN inside ``np.dot``), so a caller checks ``finite`` only when the
    loss is not finite, and holds ``np.errstate(under, over, invalid
    ignored)`` around its passes."""

    def __init__(self, X, Y, weights, act: ActivationParams, grads=None) -> None:
        N = X.shape[0]
        widths = [w.shape[1] for w in weights]
        G = [np.empty((N, n)) for n in widths]
        F = [X, *(np.empty((N, n)) for n in widths[:-1]), G[-1]]
        S = [np.empty((N, n)) for n in widths[:-1]]
        self.G, self.F, self.S, self.Y = G, F, S, Y
        self.E = np.empty((N, widths[-1]))
        *factors, erfc = _constants(act)
        self._consts = (*(np.array(c) for c in factors), erfc)
        scratch = [np.empty((N, n)) for n in widths[:-1]]
        self._hidden = [
            (F[l], w, G[l], F[l + 1], S[l], scratch[l]) for l, w in enumerate(weights[:-1])
        ]
        self._output = (F[-2], weights[-1], G[-1])
        if grads is not None:
            # layer l's delta D_l is E for the output layer and, below it,
            # the activation's scratch of that layer, free once the forward
            # pass is done; each step back writes grad_l = F_{l-1}^T D_l,
            # then D_{l-1} = (D_l W_l^T) * S_{l-1}
            D = [*scratch, self.E]
            self._back = [
                (F[l].T, D[l], grads[l]) + ((weights[l].T, D[l - 1], S[l - 1]) if l else (None,) * 3)
                for l in reversed(range(len(widths)))
            ]

    def forward(self, start: int = 0) -> None:
        """One pass from hidden layer ``start + 1`` on: ``start = 1`` keeps
        layer 1's buffers, which must hold the values for these weights."""
        consts = self._consts
        for a, w, g, f, s, bump in self._hidden[start:]:
            np.dot(a, w, g)
            _value_and_slope(consts, g, f, s, bump)
        a, w, g = self._output
        np.dot(a, w, g)

    def loss(self) -> float:
        """The square loss of the last pass; leaves its residual in ``E``."""
        E = self.E
        np.subtract(self.F[-1], self.Y, E)
        return 0.5 * float(np.vdot(E, E))

    def backward(self) -> None:
        """Each layer's gradient into ``grads``, from the residual ``E``."""
        for ft, d, grad, wt, down, s in self._back:
            np.dot(ft, d, grad)
            if wt is not None:
                np.dot(d, wt, down)
                np.multiply(down, s, down)

    def finite(self) -> bool:
        """Whether every hidden pre-activation of the last pass is finite."""
        return all(np.isfinite(g).all() for g in self.G[:-1])

    def blank(self) -> None:
        """NaN layers, as a pass that met a non-finite pre-activation logs
        them: the loss and every gradient computed from them are NaN."""
        for f in self.F[1:]:
            f.fill(math.nan)


def _pass(params: Params, data: Dataset, act: ActivationParams, grads=None) -> _Kernel:
    """The one checked pass: check the dimensions, build a kernel of
    ``params`` on ``data`` with buffers of its own (and ``grads`` for its
    ``backward``), run its forward pass over the whole dataset and return
    it.  The pass is deterministic.  Overflow and underflow pass silently:
    a non-finite hidden pre-activation raises ``ValueError`` after the
    pass, and the output layer's reads as inf or NaN."""
    _check_dims(params, data)
    kernel = _Kernel(data.X, data.Y, params.weights, act, grads)
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        kernel.forward()
    if not kernel.finite():
        raise ValueError("activation input must be finite")
    return kernel


def forward(params: Params, data: Dataset, act: ActivationParams) -> ForwardTrace:
    """Forward pass over the whole dataset, run and checked by ``_pass``: a
    non-finite hidden pre-activation raises ``ValueError``."""
    kernel = _pass(params, data, act)
    return ForwardTrace(data=data, G=tuple(kernel.G), F=tuple(kernel.F), S=tuple(kernel.S))


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
    n = M.shape[1]
    _write_csv(path, [f"{prefix}{j}" for j in range(n)], [_FLOAT_CELL] * n, [M.T])


def _read_matrix_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])  # an empty file is malformed too
        try:
            M = np.asarray([[float(v) for v in row] for row in reader if row], dtype=np.float64)
        except ValueError:  # a ragged row or a cell that is not a number
            M = None
    if M is None or M.ndim != 2 or M.shape[1] != len(header):
        raise ValueError(f"malformed matrix CSV: {path}")
    return M


def dataset_from_csv(x_path, y_path) -> Dataset:
    return Dataset(X=_read_matrix_csv(x_path), Y=_read_matrix_csv(y_path))


def dataset_to_json(data: Dataset, path) -> None:
    """Single-file bundle: inputs, targets, and their dimensions."""
    shape = {"N": data.n_samples, "d": data.d, "n_out": data.n_out}
    _write_json(path, {"X": data.X.tolist(), "Y": data.Y.tolist(), "shape": shape})


def dataset_from_json(path) -> Dataset:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f'dataset bundle {path} must be a JSON object with "X" and "Y"')
    arrays = {}
    for key in ("X", "Y"):
        if key not in payload:
            raise ValueError(f"dataset bundle {path} has no {key!r} array")
        try:
            arrays[key] = np.asarray(payload[key], dtype=np.float64)
        except (TypeError, ValueError):
            raise ValueError(f"dataset bundle {path} has a ragged or non-numeric {key!r} array") from None
    data = Dataset(**arrays)
    want = payload.get("shape")
    if want is not None:
        got = {"N": data.n_samples, "d": data.d, "n_out": data.n_out}
        if got != want:
            raise ValueError(f"bundle shape {want} does not match arrays {got}")
    return data
