"""Benchmark of pyrcert: certified training, certification across depths,
and lambda* estimation, each run in-process through ``pyrcert.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run measures the end-to-end metrics with no tracing;
with ``--trace 1`` it runs untraced passes, then traced passes, and reports
the per-layer metrics plus the tracing overhead (traced minus untraced pass
time).  Every operation's outputs are checked against the absolute rules and
the reference values in ``reference.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.

The program under test is ``src/pyrcert`` next to this directory; without
it the run fails before measuring anything.
"""

from __future__ import annotations

import os

# One BLAS thread: the small matrices of the trainer and certifier run
# faster single-threaded, and a shared machine gives steadier timings.
# Set before anything imports numpy.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from workloads import WORKLOADS, quantile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

def load_program() -> None:
    """Put the checkout's ``src`` first on the path and import pyrcert from it."""
    if not (SRC / "pyrcert" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pyrcert sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import pyrcert.cli  # noqa: F401

    if Path(sys.modules["pyrcert"].__file__).resolve().parent != SRC / "pyrcert":
        raise SystemExit("perfbench: pyrcert was imported from outside the checkout")


def environment(workload) -> dict:
    from importlib.metadata import version

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "pyrcert").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload.name,
        "seed": workload.seed,
        "instances": workload.instances,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; the
    benchmark may run in an export that is not a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def measure_setup(args, work: Path) -> float:
    """Median wall-clock of fresh processes that import pyrcert and write the
    workload's inputs: what a user pays before the first command runs."""
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed), "--work", str(work / f"setup{i}")]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Checks:
    """Operations attempted and the ones whose outputs failed a check."""

    def __init__(self, workload, reference: dict) -> None:
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, observations: dict) -> None:
        for key, obs in observations.items():
            bad = self.workload.check(key, obs, self.reference)
            self.attempted += 1
            self.failed += bool(bad)
            self.messages += bad


def run_passes(workload, work: Path, seconds: float, checks: Checks, tracer=None) -> list[dict]:
    """Repeat passes until ``seconds`` have gone by (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        out = work / f"pass{len(passes)}{'t' if tracer else ''}"
        result = workload.run_pass(out, tracer)
        checks.add(result["obs"])
        if tracer is not None:
            tracer.count(
                "certificates.decay_underflow",
                sum(bool(o.get("decay_underflow")) for o in result["obs"].values()),
            )
        shutil.rmtree(out, ignore_errors=True)
        passes.append(result)
    return passes


def peak_memory(workload, work: Path, checks: Checks) -> float:
    """Peak traced allocation (MB) of the workload's memory pass.

    The pass runs once untraced first, so that one-time allocations (lazy
    imports, caches) and the garbage they leave do not count."""
    for traced in (False, True):
        out = work / f"memory{int(traced)}"
        gc.collect()
        if traced:
            tracemalloc.start()
        try:
            obs = workload.memory_pass(out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        checks.add(obs)
        shutil.rmtree(out, ignore_errors=True)
    return peak / 1e6


def summarize(workload, passes: list[dict]) -> dict:
    """End-to-end figures of the timed passes, gated and informative."""
    seconds = [p["seconds"] for p in passes]
    out = {"run_s": statistics.median(seconds), "passes": len(passes)}
    # Other tenants load the machine for seconds to minutes at a time.  Each
    # sample is the typical unit cost over a short stretch of the run; the
    # fastest one is the run's least disturbed moment.
    samples = [t for p in passes for t in p["samples"]]
    unit_times = [t for p in passes for t in p["unit_times"]]
    out["unit_us"] = min(samples) * 1e6
    out["unit_n"] = len(samples)
    if workload.name == "train_certified":
        out["steps"] = sum(p["units"] for p in passes)
        out["train_step_us"] = sum(seconds) / out["steps"] * 1e6
    if workload.name == "certify_depths":
        out["certify_p50_ms"] = quantile(unit_times, 0.5) * 1e3
        out["certify_p90_ms"] = quantile(unit_times, 0.9) * 1e3
    for name in ("gram_mc_s", "kr_s"):
        values = [p["named"][name] for p in passes if name in p["named"]]
        if values:
            out[name] = statistics.median(values)
    return out


def result_line(checks: Checks, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": checks.failed == 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run(args) -> int:
    load_program()
    workload_cls = WORKLOADS[args.workload]
    work = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workload_cls(args.seed, work)
        workload.prepare()
        with open(HERE / "reference.json") as fh:
            reference = json.load(fh)[workload.name]
        checks = Checks(workload, reference)
        env = environment(workload)
        record: dict = {"env": env}
        if args.trace:
            metrics, record = traced_run(args, workload, work, checks, record)
        else:
            setup_s = measure_setup(args, work)
            peak_mb = peak_memory(workload, work, checks)  # also warms every code path
            passes = run_passes(workload, work, args.seconds, checks)
            figures = summarize(workload, passes)
            figures["failed_frac"] = checks.failed / checks.attempted
            record["figures"] = figures
            metrics = {
                "setup_s": (setup_s, "s"),
                "unit_us": (figures["unit_us"], "us"),
                "peak_mem_mb": (peak_mb, "MB"),
            }
            print(f"workload {workload.name}: seed {args.seed}, instances {workload.instances}, "
                  f"unit = one {workload.unit}")
            for name, value in figures.items():
                print(f"  {name:<16} {value:.6g}")
        record["failures"] = list(dict.fromkeys(checks.messages))[:50]
        record["metrics"] = {k: v for k, (v, _) in metrics.items()}
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        with open(results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(record, fh, indent=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for message in list(dict.fromkeys(checks.messages))[:20]:
        print(f"CHECK FAILED {message}")
    print("env " + json.dumps(env))
    print(result_line(checks, metrics))
    return 0 if checks.failed == 0 else 1


def traced_run(args, workload, work: Path, checks: Checks, record: dict):
    from tracer import Tracer, install, layer_metrics

    if workload.name != "train_certified":  # a training pass is too long to spare
        checks.add(workload.run_pass(work / "warmup")["obs"])  # warm every code path
        shutil.rmtree(work / "warmup", ignore_errors=True)
    plain = run_passes(workload, work, args.seconds / 2, checks)
    with Tracer() as tracer:
        install(tracer)
        traced = run_passes(workload, work, args.seconds / 2, checks, tracer)
    metrics = layer_metrics(tracer, len(traced))
    # traced minus untraced time of one pass, from the contention-robust
    # per-unit figures: the raw pass times differ more with the machine's
    # load than with the tracing
    plain_f, traced_f = summarize(workload, plain), summarize(workload, traced)
    units = statistics.median(p["units"] for p in traced)
    metrics["trace.overhead_s"] = ((traced_f["unit_us"] - plain_f["unit_us"]) * 1e-6 * units, "s")
    record["spans"] = tracer.spans()
    record["untraced"], record["traced"] = plain_f, traced_f
    print(f"workload {workload.name}: seed {args.seed}, per traced pass "
          f"({len(traced)} traced, {len(plain)} untraced passes)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        load_program()
        args.work.mkdir(parents=True, exist_ok=True)
        WORKLOADS[args.workload](args.seed, args.work).prepare()
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
