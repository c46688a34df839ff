"""The per-key digest mode of ``tools/pinned_runs.py``: the key walk of a
JSON output, the column split of a CSV output, and what a change to either
does to the digest lines."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from pyrcert.activation import ActivationParams
from pyrcert.certificates import certify
from pyrcert.gradients import TrainConfig, train, trainlog_to_csv
from pyrcert.initializers import InitConfig, init_certifiable, sphere_data, sphere_targets
from pyrcert.network import Dataset, Shape

_spec = importlib.util.spec_from_file_location(
    "pinned_runs", Path(__file__).resolve().parent.parent / "tools" / "pinned_runs.py"
)
pinned_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pinned_runs)

NESTED = {
    "steps": 3,
    "violations": {"sv_w": 0, "norm_w": None},
    "lambda_bar": [1.5, None, {"deep": [2, 3]}],
    "empty": {},
    "none": [],
    "name": "run",
}


def json_bytes(payload) -> bytes:
    return json.dumps(payload, indent=2).encode()


def test_key_walk_on_nested_objects_lists_and_null():
    assert list(pinned_runs.json_leaves(NESTED)) == [
        ("steps", "3"),
        ("violations.sv_w", "0"),
        ("violations.norm_w", "null"),
        ("lambda_bar[0]", "1.5"),
        ("lambda_bar[1]", "null"),
        ("lambda_bar[2].deep[0]", "2"),
        ("lambda_bar[2].deep[1]", "3"),
        ("empty", "{}"),
        ("none", "[]"),
        ("name", '"run"'),
    ]


def test_leaf_digest_is_of_its_text_as_written():
    lines = pinned_runs.file_lines("run/summary.json", json_bytes({"a": {"b": 0.1}}), per_key=True)
    assert lines == [f"{pinned_runs._sha(b'0.1')} run/summary.json#a.b"]


def changed_lines(old: bytes, new: bytes, rel: str) -> tuple[set, set]:
    """The lines only the old file gives, and those only the new one gives."""
    before = set(pinned_runs.file_lines(rel, old, per_key=True))
    after = set(pinned_runs.file_lines(rel, new, per_key=True))
    return before - after, after - before


@pytest.mark.parametrize("where", ["top", "nested", "in_a_list"])
def test_an_added_key_adds_exactly_one_line(where):
    new = json.loads(json.dumps(NESTED))
    {"top": new, "nested": new["violations"], "in_a_list": new["lambda_bar"][2]}[where]["added"] = 7.25
    gone, added = changed_lines(json_bytes(NESTED), json_bytes(new), "run/certificate.json")
    assert gone == set() and len(added) == 1
    assert added.pop().endswith("added")


@pytest.mark.parametrize("leaf", [("steps",), ("violations", "norm_w"), ("lambda_bar", 2, "deep", 1)])
def test_a_changed_leaf_changes_exactly_one_line(leaf):
    new = json.loads(json.dumps(NESTED))
    parent = new
    for part in leaf[:-1]:
        parent = parent[part]
    parent[leaf[-1]] = 1e-300
    gone, added = changed_lines(json_bytes(NESTED), json_bytes(new), "run/certificate.json")
    assert len(gone) == len(added) == 1
    assert gone.pop().split()[1] == added.pop().split()[1]


def small_run():
    act = ActivationParams(0.5, 1.0)
    shape = Shape(d=4, widths=(6, 3, 2))
    X = sphere_data(6, 4, seed=0)
    data = Dataset(X, sphere_targets("aligned", shape, X, act, 0, 0.2))
    params = init_certifiable(shape, InitConfig(seed=0))
    cert = certify(params, data, act)
    log = train(params, data, act, TrainConfig(eta=1e-3, max_steps=5))
    return log, cert


@pytest.mark.parametrize("with_flags", [True, False])
def test_column_split_of_a_trainlog(tmp_path, with_flags):
    log, cert = small_run()
    path = tmp_path / "trainlog.csv"
    trainlog_to_csv(log, path, cert if with_flags else None)
    data = path.read_bytes()
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    assert any(name.startswith("flag_") for name in header) == with_flags
    columns = pinned_runs.csv_columns(data)
    assert [name for name, _ in columns] == header
    for j, (_, cells) in enumerate(columns):
        assert cells.split("\n") == [line.split(",")[j] for line in lines[1:]]
    # one line per column, each the digest of its cells
    assert pinned_runs.file_lines("t/trainlog.csv", data, per_key=True) == [
        f"{pinned_runs._sha(cells.encode())} t/trainlog.csv#{name}" for name, cells in columns
    ]
    grad_norm = [float(v) for v in dict(columns)["grad_norm"].split("\n")]
    assert np.array_equal(grad_norm, log.grad_norm)


def test_an_added_column_adds_exactly_one_line(tmp_path):
    log, cert = small_run()
    trainlog_to_csv(log, tmp_path / "a.csv", cert)
    old = (tmp_path / "a.csv").read_bytes()
    new = "".join(line + ",0\r\n" for line in old.decode().splitlines()).encode()
    new = new.replace(b",0\r\n", b",extra\r\n", 1)
    gone, added = changed_lines(old, new, "t/trainlog.csv")
    assert gone == set() and len(added) == 1 and added.pop().endswith("#extra")


def test_other_files_and_the_whole_file_mode_keep_one_line():
    data = json_bytes(NESTED)
    whole = [f"{pinned_runs._sha(data)} run/summary.json"]
    assert pinned_runs.file_lines("run/summary.json", data) == whole
    raw = bytes([0, 1])
    assert pinned_runs.file_lines("run/gram.npy", raw, per_key=True) == [f"{pinned_runs._sha(raw)} run/gram.npy"]
