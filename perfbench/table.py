"""Run every workload once and print its metrics, one workload per row.

    python3 perfbench/table.py [--seed N] [--seconds S] [--trace 0|1]

Untraced (the default), the columns are the end-to-end metrics under the
names the README gives them, with their units; a cell is ``-``
where a metric does not apply to the workload.  With ``--trace 1`` the rows
are the per-layer metrics and the columns the workloads.  Exits non-zero
if any output check of any workload failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".perfbench_out" / "results"
WORKLOADS = ("train_certified", "certify_depths", "lambda_star")

# (name, unit) of each column, looked up in the run's figures and metrics
COLUMNS = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("train_step_us", "us"),
    ("certify_p50_ms", "ms"),
    ("certify_p90_ms", "ms"),
    ("gram_mc_s", "s"),
    ("kr_s", "s"),
    ("peak_mem_mb", "MB"),
    ("unit_us", "us"),
    ("unit_n", "count"),
    ("failed_frac", "ratio"),
)


def run_workload(name: str, args) -> tuple[int, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
    path.unlink(missing_ok=True)  # never show an earlier run's figures
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    record = json.loads(path.read_text()) if path.is_file() else {}
    return proc.returncode, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    codes, records = {}, {}
    for name in WORKLOADS:
        codes[name], records[name] = run_workload(name, args)

    env = next(iter(records.values())).get("env", {})
    print("env " + json.dumps({k: v for k, v in env.items() if k not in ("workload", "instances")}))
    if args.trace:
        names = list(records[WORKLOADS[0]].get("metrics", {}))
        print(f"{'metric':<40}" + "".join(f"{w:>18}" for w in WORKLOADS))
        for metric in names:
            cells = (records[w].get("metrics", {}).get(metric) for w in WORKLOADS)
            print(f"{metric:<40}" + "".join(f"{'-' if v is None else format(v, '.6g'):>18}" for v in cells))
    else:
        print(f"{'workload':<16}" + "".join(f"{f'{n} [{u}]':>22}" for n, u in COLUMNS))
        for w in WORKLOADS:
            values = {**records[w].get("figures", {}), **records[w].get("metrics", {})}
            cells = (values.get(name) for name, _ in COLUMNS)
            print(f"{w:<16}" + "".join(f"{'-' if v is None else format(v, '.6g'):>22}" for v in cells))
    failed = [w for w in WORKLOADS if codes[w] != 0]
    if failed:
        print(f"output checks failed on: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
