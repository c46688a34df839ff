"""Digest of the pinned CLI runs, for checking that a change keeps their
outputs byte-identical.

Runs each pinned command of the checkout that holds this script, from a
fresh temporary working directory with fixed relative ``--out`` paths, and
prints one ``<sha256> <path>`` line per output file, and per run for its
stdout, stderr and exit code.  Compare two checkouts with::

    python3 tools/pinned_runs.py > new.txt
    python3 /path/to/other/checkout/tools/pinned_runs.py > old.txt
    diff old.txt new.txt

(or run this script with ``--src /path/to/other/checkout/src``).

With ``--per-key``, each JSON output gets one ``<sha256> <path>#<key>``
line per leaf, the digest of the leaf's JSON text, and each CSV output one
per column, the digest of its cells; a key path joins object keys with
``.`` and list indices as ``[i]``.  Other files, the streams and the exit
codes keep their whole-file lines.  A change that only adds JSON keys or
CSV columns then shows in ``diff`` as added lines only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# config files the runs read, written into the working directory first
CONFIGS = {
    "lecun.json": '{"init": {"scheme": "lecun"}}',
    # the dataset bundle the certify run writes
    "bundle.json": '{"dataset": {"source": "file", "bundle": "certify/dataset.json"}}',
    # a depth-2 network on a literal CSV dataset: a 4x3 X and a 4x1 Y
    "csv.json": '{"shape": {"d": 3, "widths": [4, 1]}, '
    '"dataset": {"source": "file", "x_csv": "x.csv", "y_csv": "y.csv"}}',
    "x.csv": "x0,x1,x2\n0.5,-1.2,0.3\n1.1,0.4,-0.7\n-0.6,0.9,1.3\n0.2,-0.3,-1.5\n",
    "y.csv": "y0\n0.1\n-0.2\n0.3\n0.05\n",
    # a certified depth-2 run whose 65536-wide first layer moves: F_1 is
    # measured after step 0
    "lecun_wide.json": '{"shape": {"d": 8, "widths": [65536, 2]}, '
    '"dataset": {"n": 4, "targets": "gaussian"}, "init": {"scheme": "lecun"}, '
    '"train": {"max_steps": 100, "stop_loss": 0.0}}',
}

# (output directory, CLI arguments), in order: each run writes only under
# its directory
RUNS = [
    ("train_seed0", ["train", "--seed", "0", "--stop-loss", "1e-12"]),
    ("train_seed6", ["train", "--seed", "6", "--stop-loss", "1e-12"]),
    ("sweep", ["sweep"]),
    *(
        (f"train_eta{eta}", ["train", "--seed", "0", "--eta", eta, "--max-steps", "3000"])
        for eta in ("1e-26", "1e-6", "1e-4", "0.05")
    ),
    # one run per other CSV writer: kr.csv, hermite.csv and gram.csv
    ("kr", ["kr"]),
    ("hermite_csv", ["hermite", "--format", "csv"]),
    ("lambda_star_matrix", ["lambda-star", "--samples", "20000", "--full-matrix"]),
    # one run per JSON writer and per way a run's instance is set up
    ("certify", ["certify"]),
    ("certify_lecun", ["certify", "--config", "lecun.json"]),
    ("train_bundle", ["train", "--config", "bundle.json"]),
    ("kr_json", ["kr", "--format", "json"]),
    ("hermite", ["hermite"]),
    # the CSV dataset reader and the depth-2 certificate (exit 2: it fails)
    ("certify_csv", ["certify", "--config", "csv.json"]),
    ("train_csv", ["train", "--config", "csv.json", "--eta", "1e-3", "--max-steps", "100"]),
    # the linear sigma of lambda-star and hermite
    ("hermite_linear", ["hermite", "--sigma", "linear"]),
    ("lambda_star_linear", ["lambda-star", "--sigma", "linear", "--samples", "20000"]),
    ("train_lecun_wide", ["train", "--config", "lecun_wide.json"]),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def json_leaves(value, key: str = ""):
    """``(key path, JSON text)`` of every leaf of ``value``, in order; an
    empty object or list is a leaf."""
    if isinstance(value, dict) and value:
        for name, item in value.items():
            yield from json_leaves(item, f"{key}.{name}" if key else name)
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            yield from json_leaves(item, f"{key}[{i}]")
    else:
        yield key, json.dumps(value)


def csv_columns(data: bytes):
    """``(header name, cells)`` of every column of a CSV with no quoted
    cells, the cells joined by newlines as written."""
    header, *rows = [line.split(",") for line in data.decode().splitlines()]
    if any(len(row) != len(header) for row in rows):
        raise ValueError("ragged CSV")
    return [(name, "\n".join(row[j] for row in rows)) for j, name in enumerate(header)]


def file_lines(rel: str, data: bytes, per_key: bool = False) -> list[str]:
    """The digest lines of output file ``rel`` holding ``data``."""
    if per_key and rel.endswith(".json"):
        return [f"{_sha(text.encode())} {rel}#{key}" for key, text in json_leaves(json.loads(data))]
    if per_key and rel.endswith(".csv"):
        return [f"{_sha(cells.encode())} {rel}#{name}" for name, cells in csv_columns(data)]
    return [f"{_sha(data)} {rel}"]


def digest(src: Path, per_key: bool = False) -> list[str]:
    """One line per output file (or per JSON leaf and CSV column, with
    ``per_key``), stream and exit code of every pinned run."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in CONFIGS.items():
            Path(tmp, name).write_text(text)
        for name, args in RUNS:
            cmd = [sys.executable, "-m", "pyrcert.cli", *args, "--out", name]
            done = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True)
            lines.append(f"{_sha(done.stdout)} {name}/<stdout>")
            lines.append(f"{_sha(done.stderr)} {name}/<stderr>")
            lines.append(f"{_sha(str(done.returncode).encode())} {name}/<exit {done.returncode}>")
            for path in sorted(Path(tmp, name).rglob("*")):
                if path.is_file():
                    lines += file_lines(path.relative_to(tmp).as_posix(), path.read_bytes(), per_key)
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    default = Path(__file__).resolve().parent.parent / "src"
    parser.add_argument("--src", type=Path, default=default, help="the package's source directory")
    parser.add_argument("--per-key", action="store_true", help="one line per JSON leaf and CSV column")
    args = parser.parse_args()
    print("\n".join(digest(args.src, args.per_key)))


if __name__ == "__main__":
    main()
