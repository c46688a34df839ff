"""The benchmark reads pyrcert from outside its source.  Its tracer patches
pyrcert names, and every name it patches must stay bound, or
``perfbench/run.py --trace 1`` breaks.  Its step sampler reads the trainer's
step counter, which must stay observable, or ``train_certified``'s
``unit_us`` silently falls back to a pass mean."""

import itertools
import json
import threading
from pathlib import Path

import numpy as np
import pytest

from pyrcert import certificates, cli, gradients, network
from pyrcert.activation import ActivationParams
from pyrcert.gradients import TrainConfig, train
from pyrcert.initializers import InitConfig, sphere_data, sphere_targets, tune_gain
from pyrcert.network import Dataset, Shape

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PAUSE_TIMEOUT_S = 10.0


def test_every_traced_name_is_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer, install

    svd = np.linalg.svd
    with Tracer() as tracer:
        install(tracer)  # getattr of an unbound name raises AttributeError
        assert cli.train is not gradients.train
    assert cli.train is gradients.train and np.linalg.svd is svd


def test_certified_run_walks_the_judge_once(monkeypatch, tmp_path):
    # the trainer only measures: one trainlog_to_csv call writes the run's
    # judgement and returns its counts for summary.json, so the judge
    # walks the log once and monitor_invariants is not called.  Both
    # modules' bindings of _judge are counted (gradients imports the name)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer, install

    judge, walks = certificates._judge, []

    def counted(*args):
        walks.append(args)
        return judge(*args)

    monkeypatch.setattr(certificates, "_judge", counted)
    monkeypatch.setattr(gradients, "_judge", counted)
    args = ["train", "--seed", "0", "--max-steps", "200", "--out", str(tmp_path)]
    with Tracer() as tracer:
        install(tracer)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(args)
    assert exit_info.value.code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["certified"]
    assert tracer.total("certificates.monitor_invariants")[0] == 0
    # the prover looks np.linalg.svd up at call time, after the tracer
    # patched it, so the tracer counts every SVD the run takes
    assert tracer.total("certificates.spectra")[0] == summary["spectra_svds"]
    assert tracer.total("gradients.trainlog_to_csv")[0] == 1
    assert len(walks) == 1


class _NotifyingList(list):
    """The sampler's sample list, announcing each append on a condition."""

    def __init__(self, cond: threading.Condition) -> None:
        super().__init__()
        self.cond = cond

    def append(self, item) -> None:
        with self.cond:
            super().append(item)
            self.cond.notify_all()


def test_step_sampler_reads_the_certified_trainer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import StepSampler

    # the acceptance instance, certified as the CLI's ``train`` certifies it
    act = ActivationParams(0.5, 1.0)
    shape = Shape(d=8, widths=(16, 6, 4, 2))
    X = sphere_data(16, 8, seed=0)
    data = Dataset(X, sphere_targets("aligned", shape, X, act, 0, 0.1))
    _, params, cert = tune_gain(shape, data, act, InitConfig(gain=2.0, seed=0))

    # Pause the trainer inside three steps until the sampler has read each
    # paused frame, so the samples span two windows whatever the step speed.
    pauses = (1000, 2000, 3000)
    cond = threading.Condition()
    sampler = StepSampler()
    sampler._samples = samples = _NotifyingList(cond)
    backward = network._Kernel.backward
    calls = itertools.count()

    def pausing_backward(*args):
        if next(calls) in pauses:
            with cond:
                seen = len(samples)
                if not cond.wait_for(lambda: len(samples) > seen, timeout=PAUSE_TIMEOUT_S):
                    raise AssertionError(f"the step sampler read no sample in {PAUSE_TIMEOUT_S} s")
        return backward(*args)

    monkeypatch.setattr(network._Kernel, "backward", pausing_backward)
    with sampler:
        log = train(params, data, act, TrainConfig(eta=0.9 * cert.eta_max, max_steps=5000), cert)
    assert log.n_steps == 5001
    assert set(pauses) <= {k for _, _, k in samples}
    assert sampler.step_seconds()  # at least one window of steps
