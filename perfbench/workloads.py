"""The three benchmark workloads: inputs, one timed pass, and output checks.

Every operation goes through ``pyrcert.cli.main`` in this process, exactly as
the ``pyrcert`` command would run it.  Instance seeds are drawn from pinned
pools so that every instance a run can meet has a reference value in
``reference.json``.

A pass returns its wall-clock, its units of work and, for every operation,
an observation: the values read back from the files the command wrote.
``check`` turns an observation into the list of checks it fails, against
both the absolute rules (exit code, verdicts, loss level) and the pinned
reference values.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

# Relative tolerance of each reference value compared with a tolerance.
# Certificate constants come from a few SVDs of the initial weights, so they
# agree to rounding; final_loss ends ~50k GD steps and may drift further
# when a BLAS kernel sums in another order.  Everything else (step counts,
# verdicts, stop reasons, violation counts, kr pass flags) compares exactly.
REL_TOL = {
    "final_loss": 1e-6,
    "alpha0": 1e-9,
    "eta_max": 1e-9,
    "lambda_f": 1e-9,
    "mc_lambda_min": 1e-9,
    "hermite_lambda_min": 1e-9,
    "sigma_min": 1e-9,
    "bound": 1e-9,
}


def invoke(args: list[str], tracer=None) -> tuple[int, float]:
    """Run one pyrcert command in-process; return (exit code, seconds)."""
    from pyrcert.cli import main

    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            if tracer is None:
                main(args, standalone_mode=False)
            else:
                tracer.call("cli", main, args, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # noqa: BLE001 - a crashed command is a failed operation
            code = 1
            sys.__stderr__.write(traceback.format_exc())
    return code, time.perf_counter() - t0


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def decay_underflows(cert: dict) -> bool:
    """Whether 1 - eta*alpha0 rounds to 1.0 at the CLI's eta = 0.9*eta_max."""
    eta_max = cert.get("eta_max")
    return eta_max is not None and 1.0 - 0.9 * eta_max * cert["alpha0"] == 1.0


def _mismatches(key: str, obs: dict, ref: dict | None) -> list[str]:
    if ref is None:
        return [f"{key}: no reference value"]
    bad = []
    for field, want in ref.items():
        got = obs.get(field)
        tol = REL_TOL.get(field)
        if tol is None:
            if got != want:
                bad.append(f"{key}.{field}: {got!r} != reference {want!r}")
            continue
        gots = got if isinstance(got, list) else [got]
        wants = want if isinstance(want, list) else [want]
        if len(gots) != len(wants) or not all(
            isinstance(g, (int, float)) and abs(g - w) <= tol * abs(w)
            for g, w in zip(gots, wants)
        ):
            bad.append(f"{key}.{field}: {got!r} not within {tol:g} of reference {want!r}")
    return bad


class StepSampler:
    """Reads the step counter ``k`` of the running ``pyrcert.gradients.train``
    frame every ``interval`` seconds from a side thread, the way a sampling
    profiler reads a stack; the trainer itself is not wrapped or changed.

    ``step_seconds`` gives the seconds per step of each window of
    ``window`` consecutive samples inside one training run.
    """

    def __init__(self, interval: float = 0.02, window: int = 2) -> None:
        from pyrcert import gradients

        self._code = gradients.train.__code__
        self._interval = interval
        self._window = window
        self._main = threading.main_thread().ident
        self._stop = threading.Event()
        self._samples: list[tuple[int, float, int]] = []  # (frame id, time, k)
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            frame = sys._current_frames().get(self._main)
            while frame is not None and frame.f_code is not self._code:
                frame = frame.f_back
            if frame is not None:
                k = frame.f_locals.get("k")
                if isinstance(k, int):
                    self._samples.append((id(frame), time.perf_counter(), k))

    def __enter__(self) -> "StepSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def step_seconds(self) -> list[float]:
        out: list[float] = []
        run: list[tuple[int, float, int]] = []
        w = self._window
        for sample in self._samples + [None]:
            # a new frame, or a counter that went back, starts another run
            if run and (sample is None or sample[0] != run[-1][0] or sample[2] < run[-1][2]):
                out += [(b[1] - a[1]) / (b[2] - a[2]) for a, b in zip(run[::w], run[w::w]) if b[2] > a[2]]
                run = []
            if sample is not None:
                run.append(sample)
        return out


class Workload:
    """One set of inputs plus the pass that runs them."""

    name = ""
    unit = ""
    POOL: tuple = ()
    PICK = 1

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.instances = self.pick(seed)

    def pick(self, seed: int) -> list:
        """The pooled instances a run with this benchmark seed uses."""
        return random.Random(seed).sample(self.POOL, self.PICK)

    def prepare(self) -> None:
        """Write the input files; part of set-up."""

    def run_pass(self, out: Path, tracer=None) -> dict:
        """One timed pass: ``seconds`` of wall-clock, ``units`` of work,
        ``samples`` (typical seconds per unit over short stretches of the
        pass), ``unit_times`` (seconds of each unit timed alone), ``named``
        timings and ``obs`` observations."""
        raise NotImplementedError

    def memory_pass(self, out: Path) -> dict:
        """The operations whose peak allocation is measured (one of each kind)."""
        raise NotImplementedError

    def check(self, key: str, obs: dict, ref: dict) -> list[str]:
        """The checks one operation's observation fails."""
        if obs.get("exit") != 0 or "error" in obs:
            return [f"{key}: exit {obs.get('exit')} {obs.get('error', '')}".rstrip()]
        return self.verdicts(key, obs) + _mismatches(key, obs, ref.get(key))

    def verdicts(self, key: str, obs: dict) -> list[str]:
        """Absolute rules on a successful operation's outputs."""
        raise NotImplementedError

    def pinned(self, key: str) -> tuple[str, ...]:
        """Fields of an observation kept as reference values."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# train_certified
# ---------------------------------------------------------------------------


class TrainCertified(Workload):
    """``pyrcert sweep --jobs 1`` over two seeds of the acceptance instance.

    Each run is ~40-80k tiny GD steps, so the per-call cost of the activation
    and of the seven SVDs per step dominates; the 1.5M-row log is reserved
    up front.  Units are GD steps.
    """

    name = "train_certified"
    unit = "GD step"
    POOL = tuple(range(12))
    PICK = 2
    STOP_LOSS = 1e-12
    MAX_STEPS = 1_500_000
    # stop level of the memory pass: same instance and step budget, so the
    # same log reservation, but ~1k steps because tracemalloc slows each
    # step about 7x
    PREFIX_LOSS = 2.5e-3

    def _config(self, seeds: list[int], stop_loss: float) -> dict:
        return {
            "shape": {"d": 8, "widths": [16, 6, 4, 2]},
            "activation": {"gamma": 0.5, "beta": 1.0},
            "dataset": {"source": "sphere", "n": 16, "targets": "aligned", "target_scale": 0.1},
            "init": {"scheme": "certifiable", "auto_gain": True},
            "train": {"eta": None, "max_steps": self.MAX_STEPS, "stop_loss": stop_loss},
            "sweep": {"seeds": seeds},
        }

    def prepare(self) -> None:
        seeds = self.instances
        for tag, cfg in (
            ("train.json", self._config(seeds, self.STOP_LOSS)),
            ("train_prefix.json", self._config(seeds[:1], self.PREFIX_LOSS)),
        ):
            with open(self.work / tag, "w") as fh:
                json.dump(cfg, fh)

    def _sweep(self, config: str, out: Path, tracer) -> tuple[float, dict]:
        code, seconds = invoke(
            ["sweep", "--config", str(self.work / config), "--jobs", "1", "--out", str(out)], tracer
        )
        obs = {}
        seeds = _read_json(self.work / config)["sweep"]["seeds"]
        for s in seeds:
            obs[str(s)] = self._observe(out / f"run_{s}", code)
        return seconds, obs

    @staticmethod
    def _observe(run_dir: Path, code: int) -> dict:
        try:
            summary = _read_json(run_dir / "summary.json")
            cert = _read_json(run_dir / "certificate.json")
        except (OSError, ValueError) as exc:
            return {"exit": code, "error": str(exc)}
        return {
            "exit": code,
            "steps": summary["steps"],
            "stop_reason": summary["stop_reason"],
            "certified": summary["certified"],
            "invariants_hold": summary.get("invariants_hold"),
            "violations": summary["violations"],
            "final_loss": summary["final_loss"],
            "alpha0": summary["alpha0"],
            "eta_max": cert["eta_max"],
            "lambda_f": cert["lambda_f"],
            "decay_underflow": decay_underflows(cert),
        }

    def run_pass(self, out: Path, tracer=None) -> dict:
        with StepSampler() as sampler:
            seconds, obs = self._sweep("train.json", out, tracer)
        steps = sum(o.get("steps", 0) for o in obs.values())
        # without an observable step counter, the pass mean stands in
        windows = sampler.step_seconds() or [seconds / max(steps, 1)]
        return {
            "seconds": seconds,
            "units": steps,
            "samples": windows,
            "unit_times": [],
            "named": {},
            "obs": obs,
        }

    def memory_pass(self, out: Path) -> dict:
        _, obs = self._sweep("train_prefix.json", out, None)
        return {f"prefix/{k}": v for k, v in obs.items()}

    def verdicts(self, key: str, obs: dict) -> list[str]:
        bad = []
        stop = self.PREFIX_LOSS if key.startswith("prefix/") else self.STOP_LOSS
        if not (obs["certified"] and obs["invariants_hold"]):
            bad.append(f"{key}: certified={obs['certified']} invariants_hold={obs['invariants_hold']}")
        if any(obs["violations"].values()):
            bad.append(f"{key}: violations {obs['violations']}")
        if not obs["final_loss"] <= stop:
            bad.append(f"{key}: final_loss {obs['final_loss']} > {stop}")
        return bad

    def pinned(self, key: str) -> tuple[str, ...]:
        fields = ("steps", "stop_reason", "certified", "invariants_hold", "violations")
        if key.startswith("prefix/"):
            return fields
        return fields + ("final_loss", "alpha0", "eta_max", "lambda_f")


# ---------------------------------------------------------------------------
# certify_depths
# ---------------------------------------------------------------------------


class CertifyDepths(Workload):
    """``pyrcert certify`` over 20 seeds at each of six depths, 3..20.

    All of it is ``tune_gain`` (14-36 certify attempts per instance),
    ``certify``, ``forward`` and the CLI's file I/O, with no GD step.  From
    depth 8 on, ``1 - eta*alpha0 == 1.0`` in float64.  Units are certify calls.
    """

    name = "certify_depths"
    unit = "certify call"
    DEPTHS = (3, 4, 6, 8, 12, 20)
    # Seed 36 is left out: at depth 3 its lambda_F is 4.6e-5 and no gain
    # certifies it, a correct refusal (exit 2), and every operation of a
    # workload must succeed.
    POOL = tuple(s for s in range(41) if s != 36)
    PICK = 20

    def prepare(self) -> None:
        for depth in self.DEPTHS:
            cfg = {
                "shape": {"d": 8, "widths": [16] + [6] * (depth - 2) + [2]},
                "activation": {"gamma": 0.5, "beta": 1.0},
                "dataset": {"source": "sphere", "n": 16, "targets": "aligned", "target_scale": 0.1},
                "init": {"scheme": "certifiable", "auto_gain": True},
            }
            with open(self.work / f"certify_L{depth}.json", "w") as fh:
                json.dump(cfg, fh)

    def _certify(self, depth: int, s: int, out: Path, tracer) -> tuple[float, str, Path, int]:
        run_dir = out / f"L{depth}_s{s}"
        config = self.work / f"certify_L{depth}.json"
        code, seconds = invoke(
            ["certify", "--config", str(config), "--seed", str(s), "--out", str(run_dir)], tracer
        )
        return seconds, f"L{depth}/{s}", run_dir, code

    @staticmethod
    def _observe(run_dir: Path, code: int) -> dict:
        try:
            cert = _read_json(run_dir / "certificate.json")
        except (OSError, ValueError) as exc:
            return {"exit": code, "error": str(exc)}
        return {
            "exit": code,
            "certified": cert["certified"],
            "alpha0": cert["alpha0"],
            "eta_max": cert["eta_max"],
            "lambda_f": cert["lambda_f"],
            "decay_underflow": decay_underflows(cert),
        }

    def run_pass(self, out: Path, tracer=None) -> dict:
        t0 = time.perf_counter()
        # depth-interleaved, so drift during a pass touches every depth alike
        calls = [self._certify(depth, s, out, tracer) for s in self.instances for depth in self.DEPTHS]
        seconds = time.perf_counter() - t0
        times = [c[0] for c in calls]
        return {
            "seconds": seconds,
            "units": len(calls),
            "samples": [statistics.median(times)],
            "unit_times": times,
            "named": {},
            "obs": {key: self._observe(run_dir, code) for _, key, run_dir, code in calls},
        }

    def memory_pass(self, out: Path) -> dict:
        s = self.instances[0]
        calls = [self._certify(depth, s, out, None) for depth in self.DEPTHS]
        return {key: self._observe(run_dir, code) for _, key, run_dir, code in calls}

    def verdicts(self, key: str, obs: dict) -> list[str]:
        return [] if obs["certified"] is True else [f"{key}: certificate does not hold"]

    def pinned(self, key: str) -> tuple[str, ...]:
        return ("certified", "alpha0", "eta_max", "lambda_f", "decay_underflow")


# ---------------------------------------------------------------------------
# lambda_star
# ---------------------------------------------------------------------------


class LambdaStar(Workload):
    """``pyrcert lambda-star --method both`` at 1e5 Monte Carlo samples, then
    ``pyrcert kr`` over 100 seeds.

    The activation runs on 16x10^4 blocks: the throughput regime, opposite
    to train_certified's small calls.  Units are the two CLI calls.
    """

    name = "lambda_star"
    unit = "CLI call (lambda-star or kr)"
    POOL = tuple(range(16))
    SAMPLES = 100_000
    KR_SEEDS = 100

    def _calls(self, out: Path, tracer) -> tuple[float, float, tuple]:
        (i,) = self.instances
        ls_dir, kr_dir = out / "lambda_star", out / "kr"
        ls_code, ls_s = invoke(
            ["lambda-star", "--method", "both", "--sigma", "smoothed", "--n", "16", "--d", "8",
             "--samples", str(self.SAMPLES), "--r-max", "10", "--seed", str(i), "--out", str(ls_dir)],
            tracer,
        )
        kr_code, kr_s = invoke(
            ["kr", "--n", "30", "--d", "40", "--r", "2", "--n-seeds", str(self.KR_SEEDS),
             "--seed", str(self.KR_SEEDS * i), "--out", str(kr_dir)],
            tracer,
        )
        return ls_s, kr_s, (i, ls_dir, ls_code, kr_dir, kr_code)

    @staticmethod
    def _observe(i: int, ls_dir: Path, ls_code: int, kr_dir: Path, kr_code: int) -> dict:
        ls: dict = {"exit": ls_code}
        try:
            g = _read_json(ls_dir / "gram.json")
            ls.update(
                mc_lambda_min=g["monte_carlo"]["lambda_min"],
                hermite_lambda_min=g["hermite"]["lambda_min"],
                max_abs_entry_diff=g["discrepancy"]["max_abs_entry_diff"],
                allowance=g["discrepancy"]["allowance_5stderr_plus_tail"],
            )
        except (OSError, ValueError, KeyError) as exc:
            ls["error"] = str(exc)
        kr: dict = {"exit": kr_code}
        try:
            with open(kr_dir / "kr.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            kr.update(
                seeds=[int(r["seed"]) for r in rows],
                sigma_min=[float(r["sigma_min"]) for r in rows],
                bound=[float(r["bound"]) for r in rows],
                passes=[int(r["pass"]) for r in rows],
            )
        except (OSError, ValueError, KeyError) as exc:
            kr["error"] = str(exc)
        return {f"lambda_star/{i}": ls, f"kr/{i}": kr}

    def run_pass(self, out: Path, tracer=None) -> dict:
        t0 = time.perf_counter()
        ls_s, kr_s, produced = self._calls(out, tracer)
        seconds = time.perf_counter() - t0
        return {
            "seconds": seconds,
            "units": 2,
            "samples": [(ls_s + kr_s) / 2],
            "unit_times": [ls_s, kr_s],
            "named": {"gram_mc_s": ls_s, "kr_s": kr_s},
            "obs": self._observe(*produced),
        }

    def memory_pass(self, out: Path) -> dict:
        return self._observe(*self._calls(out, None)[2])

    def verdicts(self, key: str, obs: dict) -> list[str]:
        if key.startswith("lambda_star/"):
            if obs["max_abs_entry_diff"] <= obs["allowance"]:
                return []
            return [f"{key}: MC-Hermite gap {obs['max_abs_entry_diff']} over allowance {obs['allowance']}"]
        finite = all(math.isfinite(v) for v in obs["sigma_min"] + obs["bound"])
        if len(obs["seeds"]) == self.KR_SEEDS and finite:
            return []
        return [f"{key}: {len(obs['seeds'])} rows, all finite: {finite}"]

    def pinned(self, key: str) -> tuple[str, ...]:
        if key.startswith("lambda_star/"):
            return ("mc_lambda_min", "hermite_lambda_min")
        return ("seeds", "passes", "sigma_min", "bound")


WORKLOADS = {w.name: w for w in (TrainCertified, CertifyDepths, LambdaStar)}


def quantile(values: list[float], q: float) -> float:
    """Percentile by linear interpolation (statistics.quantiles, inclusive)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]
