"""Per-layer tracing of pyrcert from outside its source.

The tracer replaces module attributes with timing wrappers for the duration
of a ``with`` block and restores them afterwards.  Each wrapped call is
aggregated into a count, a total time and a child time per (name, parent)
pair, so the hot per-step calls of the trainer (about 400k per seed) cost a
few dictionary updates each instead of one span object each.  Calls of the
names in ``COLD`` are also kept as individual spans (id, name, parent id,
start, end), which ``spans`` returns for writing out at the end of a run.

Self time of a layer is its total time minus the time of the wrapped calls
made directly inside it.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

# Spans kept one by one: at most a few hundred per pass.
COLD = frozenset(
    {
        "cli",
        "gradients.train",
        "gradients.trainlog_to_csv",
        "certificates.monitor_invariants",
        "initializers.tune_gain",
        "lambda_star.gram_mc",
        "lambda_star.hermite_coeffs",
        "lambda_star.gram_hermite",
    }
)


class Tracer:
    """Aggregated call statistics plus named counters for one traced pass."""

    def __init__(self) -> None:
        self.calls: dict[tuple[str, str | None], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # frames: [name, child seconds, span id]
        self._spans: list[tuple] = []
        self._patches: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as one traced call of ``name``."""
        parent = self._stack[-1] if self._stack else None
        span_id = len(self._spans) if name in COLD else None
        frame = [name, 0.0, span_id]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            dt = t1 - t0
            self._stack.pop()
            if parent is not None:
                parent[1] += dt
            stat = self.calls[(name, parent[0] if parent else None)]
            stat[0] += 1
            stat[1] += dt
            stat[2] += frame[1]
            if span_id is not None:
                parent_id = parent[2] if parent else None
                self._spans.append(
                    (span_id, name, parent_id, t0 - self._origin, t1 - self._origin)
                )

    def count(self, name: str, amount: float) -> None:
        self.counters[name] += amount

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, after=None, only_under: str | None = None):
        """Replace ``owner.attr`` by a traced wrapper named ``name``.

        ``after(result, args, kwargs)`` runs outside the timed interval to
        update counters.  With ``only_under``, calls whose direct traced
        parent has another name pass through untraced.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if only_under is not None and tracer._parent() != only_under:
                return original(*args, **kwargs)
            result = tracer.call(name, original, *args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def total(self, name: str, parent: str | None = ...) -> tuple[int, float, float]:
        """(calls, seconds, child seconds) of ``name``, over all parents
        unless one is given."""
        n, s, child = 0, 0.0, 0.0
        for (nm, par), (c, t, ch) in self.calls.items():
            if nm == name and (parent is ... or par == parent):
                n, s, child = n + c, s + t, child + ch
        return n, s, child

    def spans(self) -> list[dict]:
        return [
            {"id": i, "name": n, "parent": p, "start_s": a, "end_s": b}
            for i, n, p, a, b in sorted(self._spans)
        ]


def _file_bytes(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def install(tracer: Tracer) -> None:
    """Wrap the public functions each pyrcert module calls across its
    boundaries.  Names are patched where they are looked up: a module that
    did ``from .activation import evaluate`` holds its own reference."""
    from pyrcert import activation, certificates, cli, gradients, initializers, network

    def elements(_result, args, kwargs):
        x = args[1] if len(args) > 1 else kwargs.get("x")
        tracer.count("activation.evaluate.elements", int(np.size(x)))

    for module in (activation, network, certificates, cli):
        tracer.patch(module, "evaluate", "activation.evaluate", after=elements)
    tracer.patch(gradients, "value_and_slope", "activation.value_and_slope")

    tracer.patch(certificates, "forward", "network.forward")

    def dataset_bytes(_result, args, _kwargs):
        tracer.count("network.io.bytes", _file_bytes(args[1]))

    tracer.patch(cli, "_dataset_to_json", "network.io", after=dataset_bytes)

    def train_rows(log, args, kwargs):
        cfg = args[3] if len(args) > 3 else kwargs["cfg"]
        tracer.count("gradients.log_rows_reserved", cfg.max_steps + 1)
        tracer.count("gradients.log_rows_used", log.n_steps)
        tracer.count("gradients.steps", log.n_steps - 1)

    tracer.patch(cli, "train", "gradients.train", after=train_rows)
    # the trainer binds np.linalg.svd on entry; every SVD it issues is a
    # spectra computation for the invariant flags
    tracer.patch(np.linalg, "svd", "certificates.spectra", only_under="gradients.train")

    def csv_bytes(_result, args, _kwargs):
        tracer.count("gradients.trainlog_to_csv.bytes", _file_bytes(args[1]))

    tracer.patch(cli, "trainlog_to_csv", "gradients.trainlog_to_csv", after=csv_bytes)
    tracer.patch(cli, "monitor_invariants", "certificates.monitor_invariants")

    tracer.patch(cli, "certify", "certificates.certify")
    tracer.patch(initializers, "certify", "certificates.certify")
    tracer.patch(cli, "tune_gain", "initializers.tune_gain")

    def mc_samples(_result, args, kwargs):
        n = args[2] if len(args) > 2 else kwargs["n_samples"]
        tracer.count("lambda_star.gram_mc.samples", int(n))

    tracer.patch(cli, "gram_mc", "lambda_star.gram_mc", after=mc_samples)
    tracer.patch(cli, "hermite_coeffs", "lambda_star.hermite_coeffs")
    tracer.patch(cli, "gram_hermite", "lambda_star.gram_hermite")
    tracer.patch(cli, "kr_min_singular", "lambda_star.kr_min_singular")


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as (value, unit), each per traced pass."""
    out: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float) -> None:
        if name.endswith(("_s", ".s")):
            unit = "s"
        elif name.endswith(".bytes"):
            unit = "bytes"
        else:
            unit = "count"
        out[name] = (value / passes, unit)

    n, s, _ = tracer.total("activation.value_and_slope")
    put("activation.value_and_slope.calls", n)
    put("activation.value_and_slope.s", s)
    n, s, _ = tracer.total("activation.evaluate")
    put("activation.evaluate.calls", n)
    put("activation.evaluate.s", s)
    put("activation.evaluate.elements", tracer.counters["activation.evaluate.elements"])
    n, s, _ = tracer.total("network.forward")
    put("network.forward.calls", n)
    put("network.forward.s", s)
    _, s, _ = tracer.total("network.io")
    put("network.io.s", s)
    put("network.io.bytes", tracer.counters["network.io.bytes"])
    n, s, child = tracer.total("gradients.train")
    put("gradients.train.calls", n)
    put("gradients.train.s", s)
    put("gradients.train.self_s", s - child)
    put("gradients.steps", tracer.counters["gradients.steps"])
    _, s, _ = tracer.total("gradients.trainlog_to_csv")
    put("gradients.trainlog_to_csv.s", s)
    put("gradients.trainlog_to_csv.bytes", tracer.counters["gradients.trainlog_to_csv.bytes"])
    put("gradients.log_rows_reserved", tracer.counters["gradients.log_rows_reserved"])
    put("gradients.log_rows_used", tracer.counters["gradients.log_rows_used"])
    reserved = tracer.counters["gradients.log_rows_reserved"]
    out["gradients.log_rows_useful_frac"] = (
        tracer.counters["gradients.log_rows_used"] / reserved if reserved else 0.0,
        "ratio",
    )
    n, s, _ = tracer.total("certificates.spectra")
    put("certificates.spectra.calls", n)
    put("certificates.spectra.s", s)
    n, s, _ = tracer.total("certificates.certify")
    put("certificates.certify.calls", n)
    put("certificates.certify.s", s)
    _, s, _ = tracer.total("certificates.monitor_invariants")
    put("certificates.monitor_invariants.s", s)
    n, s, _ = tracer.total("initializers.tune_gain")
    put("initializers.tune_gain.calls", n)
    put("initializers.tune_gain.s", s)
    put("initializers.tune_gain.attempts", tracer.total("certificates.certify", "initializers.tune_gain")[0])
    _, s, _ = tracer.total("lambda_star.gram_mc")
    put("lambda_star.gram_mc.s", s)
    put("lambda_star.gram_mc.samples", tracer.counters["lambda_star.gram_mc.samples"])
    put("lambda_star.hermite_coeffs.s", tracer.total("lambda_star.hermite_coeffs")[1])
    put("lambda_star.gram_hermite.s", tracer.total("lambda_star.gram_hermite")[1])
    n, s, _ = tracer.total("lambda_star.kr_min_singular")
    put("lambda_star.kr_min_singular.calls", n)
    put("lambda_star.kr_min_singular.s", s)
    n, s, child = tracer.total("cli")
    put("cli.calls", n)
    put("cli.s", s)
    put("cli.self_s", s - child)
    put("certificates.decay_underflow", tracer.counters["certificates.decay_underflow"])
    return out
