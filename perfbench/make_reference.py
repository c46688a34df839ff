"""Regenerate ``reference.json``: the outputs of every pooled instance.

    python3 perfbench/make_reference.py [--workload NAME ...]

Runs each workload's operations once over its whole instance pool and pins
the fields each workload's ``pinned`` names.  Refuses to pin an output
that fails an absolute check (exit code, verdict, loss level).  Regenerate
only when a change is meant to alter a logged value, and say why in the
change; the benchmark then compares against the new values.  The
training pool takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run  # sets the BLAS thread cap before numpy loads
from workloads import WORKLOADS, CertifyDepths, LambdaStar, TrainCertified


def observe(workload) -> dict:
    """Observations of every pooled instance of ``workload``."""
    work = workload.work
    obs: dict = {}
    if isinstance(workload, TrainCertified):
        for s in workload.POOL:
            workload.instances = [s]
            workload.prepare()
            obs.update(workload.memory_pass(work / f"prefix{s}"))
        workload.instances = list(workload.POOL)
        workload.prepare()
        obs.update(workload.run_pass(work / "full")["obs"])
    elif isinstance(workload, CertifyDepths):
        workload.instances = list(workload.POOL)
        obs.update(workload.run_pass(work / "all")["obs"])
    elif isinstance(workload, LambdaStar):
        for i in workload.POOL:
            workload.instances = [i]
            obs.update(workload.run_pass(work / f"i{i}")["obs"])
    return obs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    run.load_program()
    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.is_file() else {}
    for name in args.workload or sorted(WORKLOADS):
        work = run.OUT / f"reference-{name}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            workload = WORKLOADS[name](0, work)
            workload.prepare()
            obs = observe(workload)
            bad = [m for key, o in obs.items() for m in workload.check(key, o, {key: {}})]
            if bad:
                print("\n".join(bad), file=sys.stderr)
                return 1
            reference[name] = {
                key: {f: o[f] for f in workload.pinned(key)} for key, o in sorted(obs.items())
            }
            print(f"{name}: {len(obs)} instances pinned")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    reference["generated_with"] = {k: v for k, v in run.environment(workload).items()
                                   if k not in ("workload", "seed", "instances")}
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
