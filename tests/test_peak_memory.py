"""``tools/peak_memory.py`` measures a train pipeline: the rows of its log,
the peaks of the pipeline and of ``train`` alone, and the read costs."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "peak_memory", Path(__file__).resolve().parent.parent / "tools" / "peak_memory.py"
)
peak_memory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(peak_memory)


def test_measures_a_200_step_run(tmp_path):
    m = peak_memory.measure({"seed": 0, "train.max_steps": 200}, tmp_path, repeats=2)
    assert m["rows"] == 201
    assert 0 < m["train"] <= m["pipeline"]
    assert m["pipeline"] <= m["pipeline_max"] and m["train"] <= m["train_max"]
    assert m["monitor"] > 0 and m["csv"] > 0
    assert (tmp_path / "trainlog.csv").read_text().count("\n") == 202


def test_an_uncertified_run_has_no_monitor_time(tmp_path):
    m = peak_memory.measure({"train.eta": 1e-4, "train.max_steps": 20}, tmp_path, repeats=1)
    assert m["rows"] == 21 and m["monitor"] is None
