"""Every exported name resolves, and deleted names stay deleted."""

import dataclasses
import importlib
import types

import pytest

import pyrcert

MODULES = [
    "activation",
    "certificates",
    "cli",
    "gradients",
    "initializers",
    "lambda_star",
    "network",
]

# names removed from the package; none may come back as an export
DELETED = [
    "WidthPlan",
    "required_width_lecun",
    "t0_floor",
    "growing_widths_ok",
    "leaky_ramp",
    "unvec",
    "params_to_json",
    "params_from_json",
    "hermite_coeff",
    "SCHEMES",
    "DEEP_STYLES",
    # reference implementations, now in tests/oracles.py
    "jacobian_block",
    "theta_distance",
    "DistanceReport",
    "deriv2",
    "uniform_gap",
    "gap_bound",
    "hermite_poly",
    "trainlog_from_csv",
    "dataset_to_csv",
    # wrappers and dead code
    "vec",
    "deriv",
    "lambda_f",
    "predicted_decay",
    "trainlog_summary",
]


@pytest.mark.parametrize("name", ["pyrcert"] + [f"pyrcert.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", DELETED)
def test_deleted_name_is_gone(name):
    assert not hasattr(pyrcert, name)
    for m in MODULES:
        assert not hasattr(importlib.import_module(f"pyrcert.{m}"), name)


def test_lambda_star_is_the_submodule():
    assert isinstance(pyrcert.lambda_star, types.ModuleType)
    assert "lambda_star" not in pyrcert.__all__
    assert not hasattr(pyrcert.lambda_star, "lambda_star")


def test_init_config_fields():
    fields = pyrcert.InitConfig.__dataclass_fields__
    assert list(fields) == ["gain", "second_layer_var", "seed"]


@pytest.mark.parametrize(
    "cls, names",
    [
        (pyrcert.TrainConfig, ["eta", "max_steps", "stop_loss"]),
        (
            pyrcert.TrainLog,
            [
                "loss",
                "grad_norm",
                "sv_f1",
                "min_sv_w",
                "norm_w",
                "spectra_exact",
                "spectra_svds",
                "final_params",
                "eta",
                "diverged",
                "stop_reason",
            ],
        ),
        (
            pyrcert.certificates.InvariantReport,
            ["bound", "flags", "first_violation", "n_violations", "all_hold"],
        ),
    ],
    ids=["TrainConfig", "TrainLog", "InvariantReport"],
)
def test_trainer_and_report_fields(cls, names):
    assert [f.name for f in dataclasses.fields(cls)] == names


def test_train_config_has_no_spectra_option():
    with pytest.raises(TypeError):
        pyrcert.TrainConfig(eta=0.1, max_steps=1, spectra=True)
