"""What a fresh process loads: ``import pyrcert.cli`` brings in neither
scipy nor multiprocessing, and scipy arrives only with the first activation
call or quadrature.  Each case runs in its own interpreter, since this test
process has scipy loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pyrcert

SRC = str(Path(pyrcert.__file__).resolve().parent.parent)

# the top-level packages of interest that the process holds
LOADED = 'sorted({m.partition(".")[0] for m in sys.modules} & {"scipy", "multiprocessing"})'

# runs one command through main, then prints its exit code and LOADED
RUN = f"""
import sys
from pyrcert.cli import main
try:
    code = main(sys.argv[1:], standalone_mode=False) or 0
except SystemExit as exc:
    code = exc.code or 0
print("\\n" + repr((code, {LOADED})))
"""


def fresh(code: str, *args: str, cwd) -> str:
    """The last stdout line of ``python -c code args`` with this
    checkout's package first on the path."""
    res = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()[-1]


def test_import_loads_neither_scipy_nor_multiprocessing(tmp_path):
    assert fresh(f"import sys, pyrcert, pyrcert.cli\nprint({LOADED})", cwd=tmp_path) == "[]"


@pytest.fixture
def workdir(tmp_path):
    """A working directory holding a small valid config and a refused one."""
    (tmp_path / "small.json").write_text(json.dumps({
        "shape": {"d": 4, "widths": [6, 3, 2]},
        "dataset": {"source": "sphere", "n": 6, "targets": "aligned", "target_scale": 0.2},
    }))
    (tmp_path / "bad.json").write_text('{"shape": {"no_such_key": 1}}')
    # smoothing scales whose activation constants overflow
    (tmp_path / "huge_beta.json").write_text('{"activation": {"beta": 1e308}}')
    (tmp_path / "tiny_beta.json").write_text('{"activation": {"beta": 1e-320}}')
    return tmp_path


@pytest.mark.parametrize("args, code", [
    (["kr", "--n", "6", "--d", "4", "--r", "2", "--n-seeds", "3", "--out", "kr"], 0),
    (["--help"], 0),
    (["certify", "--config", "bad.json", "--out", "c"], 1),
    *[([cmd, "--config", name, "--out", "c"], 1)
      for cmd in ("certify", "lambda-star") for name in ("huge_beta.json", "tiny_beta.json")],
])
def test_commands_without_an_activation_leave_scipy_unloaded(workdir, args, code):
    assert fresh(RUN, *args, cwd=workdir) == repr((code, []))


@pytest.mark.parametrize("args", [
    ["hermite", "--r-max", "4", "--out", "h"],
    ["certify", "--config", "small.json", "--out", "c"],
])
def test_activation_and_quadrature_load_scipy(workdir, args):
    """The import was deferred, not removed."""
    assert fresh(RUN, *args, cwd=workdir) == repr((0, ["scipy"]))
