"""The benchmark's tracer patches pyrcert names from outside its source; every
name it patches must stay bound, or ``perfbench/run.py --trace 1`` breaks."""

from pathlib import Path

import numpy as np

from pyrcert import cli, gradients

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_is_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer, install

    svd = np.linalg.svd
    with Tracer() as tracer:
        install(tracer)  # getattr of an unbound name raises AttributeError
        assert cli.train is not gradients.train
    assert cli.train is gradients.train and np.linalg.svd is svd
