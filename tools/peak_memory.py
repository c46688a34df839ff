"""Peak memory and read-time costs of pinned train runs.

For each pinned run, prints the least and the greatest ``tracemalloc``
peak of five runs of the whole train pipeline (``cli._run_training``:
set-up, ``train`` and one CSV write, which judges a certified run once)
and of five of ``gradients.train`` alone, all after a warm-up run of the
same pipeline, then the best of five timings of ``monitor_invariants``
(the judgement of a log held in memory) and of ``trainlog_to_csv`` on the
run's log.

Measures the package of the checkout that holds this script, or the one
whose source directory is given with ``--src``::

    python3 tools/peak_memory.py
    python3 tools/peak_memory.py --src /path/to/other/checkout/src

Peaks are in-process ``tracemalloc`` figures, which count the allocations
made through Python's and NumPy's allocators; a run is about seven times
slower while traced.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

# (name, config flags by dotted key), as `pyrcert train` takes them
RUNS = [
    ("train --seed 0 --stop-loss 1e-12", {"seed": 0, "train.stop_loss": 1e-12}),
    ("train --seed 2 --stop-loss 2.5e-3", {"seed": 2, "train.stop_loss": 2.5e-3}),
    ("train --eta 1e-4 --max-steps 20000", {"train.eta": 1e-4, "train.max_steps": 20_000}),
]


def _peak(call, *args) -> int:
    """The ``tracemalloc`` peak, in bytes, of ``call(*args)``."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peaks(call, *args, repeats: int) -> tuple[int, int]:
    """The least and the greatest ``_peak`` of ``repeats`` calls."""
    peaks = [_peak(call, *args) for _ in range(repeats)]
    return min(peaks), max(peaks)


def _best(call, *args, repeats: int) -> float:
    """The shortest wall-clock of ``repeats`` calls of ``call(*args)``, in s."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call(*args)
        times.append(time.perf_counter() - t0)
    return min(times)


def measure(flags: dict, out_dir: Path, repeats: int = 5) -> dict:
    """One train pipeline of the config ``flags``, writing into ``out_dir``:
    its log's ``rows``, the least ``pipeline`` and ``train`` peaks in bytes
    of ``repeats`` and the greatest (``pipeline_max``, ``train_max``), and
    the best of ``repeats`` timings in seconds of ``monitor`` (None for an
    uncertified run) and ``csv``."""
    from pyrcert import cli
    from pyrcert.certificates import monitor_invariants

    cfg = cli._load_config(None, flags)
    seen: dict = {}
    train, write = cli.train, cli.trainlog_to_csv

    def train_spy(*args, **kwargs):
        seen["train"] = (args, kwargs)
        return train(*args, **kwargs)

    def write_spy(*args):
        seen["csv"] = args
        return write(*args)

    cli.train, cli.trainlog_to_csv = train_spy, write_spy
    try:
        cli._run_training(cfg, out_dir)  # the warm-up, which records the inputs
    finally:
        cli.train, cli.trainlog_to_csv = train, write
    args, kwargs = seen["train"]
    log, cert = seen["csv"][0], seen["csv"][2]
    pipeline = _peaks(cli._run_training, cfg, out_dir, repeats=repeats)
    train_peaks = _peaks(lambda: train(*args, **kwargs), repeats=repeats)
    return {
        "rows": log.n_steps,
        "pipeline": pipeline[0],
        "pipeline_max": pipeline[1],
        "train": train_peaks[0],
        "train_max": train_peaks[1],
        "monitor": None if cert is None else _best(monitor_invariants, log, cert, repeats=repeats),
        "csv": _best(write, log, out_dir / "trainlog.csv", cert, repeats=repeats),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    default = Path(__file__).resolve().parent.parent / "src"
    parser.add_argument("--src", type=Path, default=default, help="the package's source directory")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    for name, flags in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            m = measure(flags, Path(tmp))
        monitor = "-" if m["monitor"] is None else f"{1e3 * m['monitor']:.2f} ms"
        print(
            f"{name}: {m['rows']} rows, pipeline peak {m['pipeline'] / 1e6:.3f}"
            f"-{m['pipeline_max'] / 1e6:.3f} MB, train peak {m['train'] / 1e6:.3f}"
            f"-{m['train_max'] / 1e6:.3f} MB, monitor_invariants {monitor}, "
            f"trainlog_to_csv {m['csv']:.3f} s"
        )


if __name__ == "__main__":
    main()
