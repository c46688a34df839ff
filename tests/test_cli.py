"""End-to-end command-line behavior: exit codes, emitted files, round trips."""

import concurrent.futures
import csv
import json
import math
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dataset_to_csv, log_columns, trainlog_from_csv

from pyrcert import cli as cli_mod
from pyrcert.certificates import InvariantReport, _decay_bound, _judge, certificate_from_json
from pyrcert.certificates import invariant_flags
from pyrcert.gradients import BLOCK_ROWS
from pyrcert.cli import main
from pyrcert.network import dataset_from_json, dataset_to_json
from pyrcert.initializers import sphere_data
from pyrcert.network import Dataset

runner = CliRunner()

# summary.json keys in the order train writes them; a certified run appends
# its report's verdicts
SUMMARY_KEYS = [
    "steps", "records", "initial_loss", "final_loss", "eta", "alpha0", "diverged",
    "stop_reason", "violations", "spectra_svds", "seed", "certified",
]

# Every option of every command: its names, its click type (a choice list
# for a click.Choice), its default, and the config key it sets (None for
# the options that are not config keys).
TEXT = ("text", None, None)
SURFACE = {
    "certify": {
        ("--config",): TEXT,
        ("--seed",): ("integer", None, "seed"),
        ("--out",): TEXT,
    },
    "train": {
        ("--config",): TEXT,
        ("--seed",): ("integer", None, "seed"),
        ("--out",): TEXT,
        ("--eta",): ("float", None, "train.eta"),
        ("--max-steps",): ("integer", None, "train.max_steps"),
        ("--stop-loss",): ("float", None, "train.stop_loss"),
    },
    "lambda-star": {
        ("--config",): TEXT,
        ("--method",): (("mc", "hermite", "both"), None, "lambda_star.method"),
        ("--sigma",): (("smoothed", "linear"), None, "lambda_star.sigma"),
        ("--gamma",): ("float", None, "activation.gamma"),
        ("--beta",): ("float", None, "activation.beta"),
        ("--n", "--N"): ("integer", None, "dataset.n"),
        ("--d",): ("integer", None, "shape.d"),
        ("--samples",): ("integer", None, "lambda_star.samples"),
        ("--r-max",): ("integer", None, "lambda_star.r_max"),
        ("--seed",): ("integer", None, "seed"),
        ("--out",): TEXT,
        ("--full-matrix",): ("boolean", False, None),
    },
    "kr": {
        ("--config",): TEXT,
        ("--n", "--N"): ("integer", None, "kr.n"),
        ("--d",): ("integer", None, "kr.d"),
        ("--r",): ("integer", None, "kr.r"),
        ("--n-seeds",): ("integer", None, "kr.n_seeds"),
        ("--seed",): ("integer", None, "seed"),
        ("--out",): TEXT,
        ("--format",): (("csv", "json"), "csv", None),
    },
    "hermite": {
        ("--config",): TEXT,
        ("--sigma",): (("smoothed", "linear"), None, "lambda_star.sigma"),
        ("--gamma",): ("float", None, "activation.gamma"),
        ("--beta",): ("float", None, "activation.beta"),
        ("--r-max",): ("integer", None, "lambda_star.r_max"),
        ("--out",): TEXT,
        ("--format",): (("csv", "json"), "json", None),
    },
    "sweep": {
        ("--config",): TEXT,
        ("--out",): TEXT,
        ("--jobs",): ("integer", None, "sweep.jobs"),
    },
}


def run(args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


def small_config(tmp_path, **overrides):
    cfg = {
        "shape": {"d": 4, "widths": [6, 3, 2]},
        "dataset": {"source": "sphere", "n": 6, "targets": "aligned", "target_scale": 0.2},
        "train": {"eta": None, "max_steps": 2000, "stop_loss": 1e-8},
        "seed": 0,
    }
    for key, value in overrides.items():
        cfg.setdefault(key, {})
        if isinstance(value, dict):
            cfg[key] = {**cfg.get(key, {}), **value}
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def degenerate_config(tmp_path, **overrides):
    """A config whose dataset bundle repeats a row, so lambda_F = 0."""
    X = sphere_data(6, 4, seed=0)
    X[1] = X[0]
    data = Dataset(X, np.random.default_rng(0).normal(size=(6, 2)))
    bundle = tmp_path / "bundle.json"
    dataset_to_json(data, bundle)
    return small_config(tmp_path, dataset={"source": "file", "bundle": str(bundle)}, **overrides)


class TestCertify:
    def test_passing_certificate_exits_zero(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        res = run(["certify", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        payload = json.loads((out / "certificate.json").read_text())
        assert payload["init_condition_1"]["holds"]
        assert payload["init_condition_2"]["holds"]
        assert payload["init_condition_1"]["slack"] >= 1.0
        assert payload["init_condition_2"]["slack"] >= 1.0
        # config recorded verbatim in the output directory
        assert (out / "config.json").exists()

    def test_degenerate_dataset_exits_two(self, tmp_path):
        cfg = degenerate_config(tmp_path)
        res = run(["certify", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "lambda_F = 0" in res.output

    def test_refused_instance_ignores_auto_gain(self, tmp_path):
        # no gain certifies seed 36 at widths 16-6-2, so tune_gain returns its
        # first attempt: the certificate of the configured gain
        written = []
        for auto_gain in (True, False):
            cfg = tmp_path / f"auto_{auto_gain}.json"
            cfg.write_text(json.dumps(
                {"shape": {"widths": [16, 6, 2]}, "init": {"auto_gain": auto_gain}}
            ))
            out = tmp_path / f"o_{auto_gain}"
            res = run(["certify", "--config", str(cfg), "--seed", "36", "--out", str(out)])
            assert res.exit_code == 2, res.output
            written.append((out / "certificate.json").read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize(
        "depth, init",
        [(240, {}), (20, {"gain": 1e10, "auto_gain": False})],
        ids=["default-depth-240", "gain-1e10-depth-20"],
    )
    def test_constants_past_the_float_range_exit_one(self, tmp_path, depth, init):
        # (6/gamma^2)^L and the deep products overflow a float64
        path = tmp_path / "deep.json"
        widths = [16] + [6] * (depth - 2) + [2]
        path.write_text(json.dumps({"shape": {"widths": widths}, "init": init}))
        res = run(["certify", "--config", str(path), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert res.stderr.splitlines() == [
            f"error: the certificate's constants at depth {depth} leave the float64 range"
        ]

    @pytest.mark.parametrize(
        "files, dataset, message",
        [
            ({}, {"bundle": "nope.json"},
             "[Errno 2] No such file or directory: '{}/nope.json'"),
            ({"x.csv": "", "y.csv": "y0\n1\n"}, {"x_csv": "x.csv", "y_csv": "y.csv"},
             "malformed matrix CSV: {}/x.csv"),
            ({"b.json": '{"Y": [[1.0]]}'}, {"bundle": "b.json"},
             "dataset bundle {}/b.json has no 'X' array"),
            ({"b.json": "5"}, {"bundle": "b.json"},
             'dataset bundle {}/b.json must be a JSON object with "X" and "Y"'),
            ({"b.json": '"XY"'}, {"bundle": "b.json"},
             'dataset bundle {}/b.json must be a JSON object with "X" and "Y"'),
            ({"x.csv": "x0,x1\n1,2\n3\n", "y.csv": "y0\n1\n2\n"}, {"x_csv": "x.csv", "y_csv": "y.csv"},
             "malformed matrix CSV: {}/x.csv"),
            ({"x.csv": "x0\n1\n", "y.csv": "y0\nabc\n"}, {"x_csv": "x.csv", "y_csv": "y.csv"},
             "malformed matrix CSV: {}/y.csv"),
            ({"b.json": '{"X": [[1.0, 2.0], [3.0]], "Y": [[1.0], [2.0]]}'}, {"bundle": "b.json"},
             "dataset bundle {}/b.json has a ragged or non-numeric 'X' array"),
            ({"b.json": '{"X": [[1.0]], "Y": [["abc"]]}'}, {"bundle": "b.json"},
             "dataset bundle {}/b.json has a ragged or non-numeric 'Y' array"),
        ],
        ids=["missing-bundle", "empty-x-csv", "bundle-without-X", "bundle-not-object", "bundle-string",
             "ragged-x-csv", "text-y-csv", "ragged-bundle", "text-bundle"],
    )
    def test_bad_dataset_file_exits_one(self, tmp_path, files, dataset, message):
        # the message names the file, and the bundle's missing key
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        paths = {key: str(tmp_path / name) for key, name in dataset.items()}
        cfg = small_config(tmp_path, dataset={"source": "file", **paths})
        res = run(["certify", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert res.stderr.splitlines() == ["error: " + message.format(tmp_path)]

    @pytest.mark.parametrize("depth, seed, code", [(90, 0, 0), (100, 0, 2), (100, 36, 2)])
    def test_deep_gain_search_writes_finite_constants(self, tmp_path, depth, seed, code):
        # the gain search counts a replay past the float range as refused:
        # depth 90 certifies a gain with finite q0, and no gain certifies at
        # depth 100, which writes the first attempt, at gain 2, with exit 2
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"shape": {"widths": [16] + [6] * (depth - 2) + [2]}}))
        out = tmp_path / "o"
        res = run(["certify", "--config", str(path), "--seed", str(seed), "--out", str(out)])
        assert res.exit_code == code, res.output
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["certified"] is (code == 0)
        assert math.isfinite(cert["alpha0"]) and math.isfinite(cert["q0"])
        assert cert["eta_max"] > 0.0
        if code == 2:
            assert cert["lambda_bar"][2:] == [2.0] * (depth - 2)


class TestTrain:
    def test_certified_run_loss_below_bound_rowwise(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        res = run(["train", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        with open(out / "trainlog.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) >= 2
        for row in rows:
            assert float(row["loss"]) <= float(row["bound"])
            assert row["flag_loss_bound"] == "1"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["certified"] and summary["invariants_hold"]
        assert list(summary) == SUMMARY_KEYS + ["invariants_hold", "first_violation"]
        cert = json.loads((out / "certificate.json").read_text())
        assert summary["alpha0"] == cert["alpha0"]
        assert summary["violations"] == dict.fromkeys(("sv_w", "norm_w", "sv_f1", "loss_bound"), 0)

    def test_eta_zero_constant_loss(self, tmp_path):
        cfg = small_config(tmp_path, train={"eta": 0.0, "max_steps": 25, "stop_loss": 0.0})
        out = tmp_path / "out0"
        res = run(["train", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        with open(out / "trainlog.csv") as fh:
            losses = [float(row["loss"]) for row in csv.DictReader(fh)]
        assert len(set(losses)) == 1 and len(losses) == 26
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary) == SUMMARY_KEYS
        assert summary["steps"] == 25 and summary["records"] == 26
        assert summary["diverged"] is False and not summary["certified"]
        assert summary["alpha0"] is None and summary["violations"] == {}

    def test_overflowing_run_exits_two_with_log(self, tmp_path):
        cfg = small_config(
            tmp_path,
            init={"scheme": "lecun"},
            dataset={"targets": "gaussian", "target_scale": 10.0},
            train={"eta": 1e300, "max_steps": 10, "stop_loss": 0.0},
        )
        out = tmp_path / "out_div"
        with np.errstate(over="ignore", invalid="ignore"):
            res = run(["train", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 2, res.output
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diverged"] and summary["stop_reason"] == "diverged"
        with open(out / "trainlog.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == summary["records"] == 2
        assert rows[-1]["spectra_exact"] == "1"

    def test_eta_flag_overrides_config(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out1"
        res = run(["train", "--config", str(cfg), "--out", str(out), "--eta", "0.0", "--max-steps", "3"])
        assert res.exit_code == 0
        recorded = json.loads((out / "config.json").read_text())
        assert recorded["train"]["eta"] == 0.0

    def test_refused_certificate_without_eta_exits_two(self, tmp_path):
        # the certified step size was asked for and the certificate is refused
        cfg = degenerate_config(tmp_path)
        out = tmp_path / "o"
        res = run(["train", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 2
        assert res.stderr.splitlines() == [
            "error: no step size given and the certificate does not hold; pass --eta"
        ]
        assert json.loads((out / "certificate.json").read_text())["certified"] is False

    @staticmethod
    def traced_run(cfg, tmp_path, monkeypatch):
        """The tracemalloc peak of a second ``_run_training`` of ``cfg``, and
        its summary, exit code, log and report."""
        seen = []
        write = cli_mod.trainlog_to_csv

        def spy(log, path, cert):
            seen[:] = [log, write(log, path, cert)]
            return seen[1]

        monkeypatch.setattr(cli_mod, "trainlog_to_csv", spy)
        cli_mod._run_training(cfg, tmp_path)  # warm-up
        tracemalloc.start()
        try:
            summary, code = cli_mod._run_training(cfg, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, summary, code, *seen

    @staticmethod
    def held(log) -> int:
        """The bytes a log holds: its loss and gradient norm columns and
        the records of ``F_1`` and of the weights' cells."""
        return sum(a.nbytes for a in (log.loss, log.grad_norm, *log.cells.records))

    def test_certified_run_peaks_at_its_log_and_report(self, tmp_path, monkeypatch):
        # the pipeline's peak is what the log holds, plus set-up state, the
        # trainer's buffers, a block of the report and the writer's buffer;
        # the report itself holds only its counts
        cfg = cli_mod._load_config(None, {"seed": 2, "train.stop_loss": 2.5e-3})
        peak, summary, code, log, report = self.traced_run(cfg, tmp_path, monkeypatch)
        assert code == 0 and summary["certified"] and summary["records"] == 1_296
        assert peak <= self.held(log) + 64 * 1024, (peak, self.held(log))

    def test_certified_run_holds_no_weight_columns(self, tmp_path, monkeypatch):
        # the weights' six bound columns are computed when read, not held:
        # the pipeline peaks within 64 KiB of what the log holds (the six
        # columns alone are 62 KB here)
        cfg = cli_mod._load_config(None, {"seed": 2, "train.stop_loss": 2.5e-3})
        peak, summary, code, log, report = self.traced_run(cfg, tmp_path, monkeypatch)
        assert code == 0 and summary["certified"] and summary["records"] == 1_296
        assert peak <= self.held(log) + 64 * 1024, (peak, self.held(log))

    def test_certified_run_peaks_within_a_fixed_slack_of_two_columns(self, tmp_path, monkeypatch):
        # only the loss and gradient norm are held per row: F_1's column,
        # spectra_exact and each row's bound and flags are computed when
        # read, a block at a time.  Measured so, the pipeline peaks at 72.1
        # KB on this 1,296-row run, and at 89.5 KB when those four were
        # held as columns (CPython 3.11, NumPy 2.4).
        cfg = cli_mod._load_config(None, {"seed": 2, "train.stop_loss": 2.5e-3})
        peak, summary, code, log, report = self.traced_run(cfg, tmp_path, monkeypatch)
        assert code == 0 and summary["certified"] and summary["records"] == 1_296
        columns = log.loss.nbytes + log.grad_norm.nbytes
        assert peak <= columns + 60 * 1024, (peak, columns)

    def test_a_run_is_judged_again_from_its_csv(self, tmp_path, monkeypatch):
        # trainlog.csv read back by np.genfromtxt and certificate.json give
        # the run's own flags, bitwise, through the function that judged it
        seen = []
        write = cli_mod.trainlog_to_csv
        monkeypatch.setattr(cli_mod, "trainlog_to_csv", lambda log, path, cert: seen.append((log, cert)) or write(log, path, cert))
        res = run(["train", "--seed", "0", "--stop-loss", "2.5e-3", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        judged = log_columns(*seen[0])
        table = np.genfromtxt(tmp_path / "trainlog.csv", delimiter=",", names=True)
        cert = certificate_from_json(tmp_path / "certificate.json")
        L = cert.depth
        cells = [table["sv_F1"]] + [table[f"min_sv_W{l}"] for l in range(3, L + 1)]
        cells += [table[f"max_norm_W{l}"] for l in range(1, L + 1)]
        flags = invariant_flags(cert, cells, table["loss"], table["bound"])
        assert len(flags) == json.loads((tmp_path / "summary.json").read_text())["records"] > 1
        assert flags.tobytes() == judged["flags"].tobytes()
        assert table["bound"].tobytes() == judged["bound"].tobytes()
        written = np.stack([table["flag_" + name] for name in InvariantReport.CHECKS], axis=1)
        assert np.array_equal(written, flags)
        # the files alone judge the run again a block of rows at a time, as
        # the CSV writer judged it once: the bound rebuilt from the
        # certificate and summary.json's eta and initial loss is the CSV's
        # bitwise, and the counts and first violations of that stream are
        # summary.json's, which the writer counted from the flags it wrote
        summary = json.loads((tmp_path / "summary.json").read_text())
        eta, phi0, n = summary["eta"], summary["initial_loss"], len(flags)
        starts = range(0, n, BLOCK_ROWS)
        bound = [_decay_bound(cert, eta, phi0, k0, min(k0 + BLOCK_ROWS, n)) for k0 in starts]
        assert np.concatenate(bound).tobytes() == table["bound"].tobytes()
        blocks = (
            (k0, [c[k0 : k0 + BLOCK_ROWS] for c in cells], table["loss"][k0 : k0 + BLOCK_ROWS])
            for k0 in starts
        )
        report = {}
        for _ in _judge(cert, eta, phi0, blocks, report):
            pass
        assert report["n_violations"] == summary["violations"]
        assert report["first_violation"] == summary["first_violation"]

    def test_csv_dataset_source(self, tmp_path):
        X = sphere_data(6, 4, seed=3)
        Y = 0.1 * np.random.default_rng(3).normal(size=(6, 2))
        dataset_to_csv(Dataset(X, Y), tmp_path / "x.csv", tmp_path / "y.csv")
        cfg = small_config(
            tmp_path,
            dataset={"source": "file", "x_csv": str(tmp_path / "x.csv"), "y_csv": str(tmp_path / "y.csv")},
            train={"eta": 1e-3, "max_steps": 10, "stop_loss": 0.0},
        )
        res = run(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestStrictJson:
    @pytest.mark.parametrize(
        "args, name, keys",
        [
            (
                ["train", "--seed", "3", "--eta", "1e308", "--max-steps", "400"],
                "summary.json",
                ["final_loss"],
            ),
            (
                ["lambda-star", "--samples", "1", "--method", "mc"],
                "gram.json",
                ["monte_carlo", "stderr_max"],
            ),
            (["sweep", "--config", "{config}"], "aggregate.json", ["runs", 0, "final_loss"]),
        ],
        ids=["train", "lambda-star", "sweep"],
    )
    def test_non_finite_floats_are_written_as_null(self, tmp_path, args, name, keys):
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps({"sweep": {"seeds": [3]}, "train": {"eta": 1e308, "max_steps": 400}})
        )
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            res = run([a.format(config=config) for a in args] + ["--out", str(out)])
        json.loads(res.stdout, parse_constant=_reject_constant)
        for path in out.rglob("*.json"):
            json.loads(path.read_text(), parse_constant=_reject_constant)
        value = json.loads((out / name).read_text())
        for key in keys:
            value = value[key]
        assert value is None


class TestLambdaStar:
    def test_both_methods_report_discrepancy(self, tmp_path):
        out = tmp_path / "ls"
        res = run(
            [
                "lambda-star",
                "--method",
                "both",
                "--n",
                "8",
                "--d",
                "6",
                "--samples",
                "20000",
                "--r-max",
                "8",
                "--out",
                str(out),
            ]
        )
        assert res.exit_code == 0, res.output
        payload = json.loads((out / "gram.json").read_text())
        assert "discrepancy" in payload
        assert (
            payload["discrepancy"]["max_abs_entry_diff"]
            <= payload["discrepancy"]["allowance_5stderr_plus_tail"]
        )

    def test_off_sphere_rows_refused_before_sampling(self, tmp_path, monkeypatch):
        # the series needs rows of norm sqrt(d): with both methods it must
        # refuse them before the Monte Carlo spends its samples
        def no_mc(*args, **kwargs):
            pytest.fail("gram_mc ran before the Hermite series refused the rows")

        monkeypatch.setattr(cli_mod, "gram_mc", no_mc)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"dataset": {"radius": 1.0}, "shape": {"d": 4}}))
        out = tmp_path / "ls"
        res = run(["lambda-star", "--config", str(cfg), "--method", "both", "--out", str(out)])
        assert res.exit_code == 1
        assert "norm sqrt(d)" in res.stderr
        assert not (out / "gram.json").exists()

    def test_linear_sigma_overdetermined_lambda_near_zero(self, tmp_path):
        out = tmp_path / "lin"
        res = run(
            [
                "lambda-star",
                "--sigma",
                "linear",
                "--d",
                "4",
                "--n",
                "8",
                "--method",
                "mc",
                "--samples",
                "20000",
                "--out",
                str(out),
            ]
        )
        assert res.exit_code == 0
        payload = json.loads((out / "gram.json").read_text())
        assert abs(payload["monte_carlo"]["lambda_min"]) <= 1e-8

    def test_deterministic_given_seed(self, tmp_path):
        args = [
            "lambda-star", "--method", "mc", "--n", "6", "--d", "5",
            "--samples", "5000", "--seed", "7",
        ]
        ra = run(args + ["--out", str(tmp_path / "a")])
        rb = run(args + ["--out", str(tmp_path / "b")])
        assert ra.exit_code == rb.exit_code == 0
        a = json.loads((tmp_path / "a" / "gram.json").read_text())
        b = json.loads((tmp_path / "b" / "gram.json").read_text())
        assert a == b


class TestKr:
    def test_table_and_csv(self, tmp_path):
        out = tmp_path / "kr"
        res = run(["kr", "--n", "10", "--d", "16", "--r", "2", "--n-seeds", "5", "--out", str(out)])
        assert res.exit_code == 0, res.output
        with open(out / "kr.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        threshold = 16.0 / 2.0
        for row in rows:
            sv = float(row["sigma_min"])
            assert float(row["bound"]) <= sv + 1e-9
            assert row["pass"] == ("1" if sv >= threshold else "0")

    def test_power_over_the_entry_budget_exits_zero(self, tmp_path):
        # 10 x 100^4 = 1e9 entries: the certified Gram route never builds it
        out = tmp_path / "krbig"
        res = run(["kr", "--n", "10", "--d", "100", "--r", "4", "--n-seeds", "2", "--out", str(out)])
        assert res.exit_code == 0, res.output
        with open(out / "kr.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["pass"] for row in rows] == ["1", "1"]


class TestHermite:
    def test_coefficients_emitted(self, tmp_path):
        out = tmp_path / "h"
        res = run(["hermite", "--gamma", "0.5", "--beta", "1.0", "--r-max", "8", "--out", str(out)])
        assert res.exit_code == 0, res.output
        payload = json.loads((out / "hermite.json").read_text())
        assert payload["coeffs"][1] == pytest.approx(0.75, abs=1e-9)
        assert len(payload["coeffs"]) == 9
        assert payload["tail_mass"] >= 0.0

    def test_r_max_at_the_cap_needs_no_other_key(self, tmp_path):
        # the quadrature starts above r_max on its own
        out = tmp_path / "h"
        res = run(["hermite", "--r-max", "200", "--out", str(out)])
        assert res.exit_code == 0, res.output
        payload = json.loads((out / "hermite.json").read_text())
        assert len(payload["coeffs"]) == 201 and all(payload["converged"])
        assert payload["quad_order"] > 200


class TestSweep:
    def test_aggregate_written(self, tmp_path):
        cfg = small_config(tmp_path, sweep={"seeds": [0, 1, 2], "jobs": 1})
        out = tmp_path / "sw"
        res = run(["sweep", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["n_runs"] == 3
        assert agg["total_violations"] == 0
        for s in (0, 1, 2):
            assert (out / f"run_{s}" / "trainlog.csv").exists()
            assert (out / f"run_{s}" / "summary.json").exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_operational_error(self, tmp_path, jobs):
        cfg = small_config(tmp_path, sweep={"seeds": [0]})
        out = tmp_path / "sw"
        res = run(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", jobs])
        assert res.exit_code == 1
        assert "jobs" in res.output
        assert not (out / "run_0").exists()

    def test_pool_capped_at_seed_count(self, tmp_path, monkeypatch):
        sizes = []

        class InlinePool:
            """Records the requested size and maps in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 8)
        cfg = small_config(tmp_path, sweep={"seeds": [0, 1]})
        res = run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw"), "--jobs", "3"])
        assert res.exit_code == 0, res.output
        assert sizes == [2]

    def test_refused_certificate_is_a_domain_failure(self, tmp_path):
        cfg = degenerate_config(tmp_path, sweep={"seeds": [0, 1]})
        out = tmp_path / "sw"
        res = run(["sweep", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 2
        runs = json.loads((out / "aggregate.json").read_text())["runs"]
        assert [run["exit_code"] for run in runs] == [2, 2]

    def test_missing_bundle_is_operational_error(self, tmp_path):
        # train exits 1 on this config, so the sweep of it must too
        cfg = small_config(
            tmp_path,
            dataset={"source": "file", "bundle": str(tmp_path / "nope.json")},
            sweep={"seeds": [0, 1]},
        )
        out = tmp_path / "sw"
        res = run(["sweep", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 1
        runs = json.loads((out / "aggregate.json").read_text())["runs"]
        assert [run["exit_code"] for run in runs] == [1, 1]

    def test_empty_seed_list_is_operational_error(self, tmp_path):
        cfg = small_config(tmp_path, sweep={"seeds": []})
        res = run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert res.exit_code == 1


class TestConfig:
    def test_unknown_key_is_operational_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"max_step": 7}}))
        out = tmp_path / "o"
        res = run(["train", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 1
        assert "train.max_step" in res.output
        assert not (out / "config.json").exists()

    def test_deep_style_is_an_unknown_key(self, tmp_path):
        # deep layers are always gain * identity, so no key chooses their style
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"init": {"deep_style": "scaled_identity"}}))
        res = run(["certify", "--config", str(path), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert "init.deep_style" in res.output

    def test_second_layer_var_is_an_unknown_key(self, tmp_path):
        # the certifiable second layer is always exactly zero
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"init": {"second_layer_var": 0.0}}))
        res = run(["certify", "--config", str(path), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert "init.second_layer_var" in res.output

    def test_quad_order_is_an_unknown_key(self, tmp_path):
        # the Hermite quadrature starts at an order the code derives from r_max
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"lambda_star": {"quad_order": 200}}))
        res = run(["hermite", "--config", str(path), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert res.stderr.splitlines() == ["error: unknown config key 'lambda_star.quad_order'"]

    @pytest.mark.parametrize("command", ["certify", "train"])
    def test_narrow_first_layer_prints_one_error_line(self, tmp_path, command):
        # n1 = 16 < N = 20: certify's refusal is the one message, with no
        # warning printed ahead of it
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps({"dataset": {"n": 20}}))
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # print a warning as the command line would
            res = run([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert res.stderr.splitlines() == [
            "error: certificate requires first-layer width >= sample count (n1=16, N=20)"
        ]
        # certify writes the dataset before it draws and certifies the weights
        assert (tmp_path / "o" / "dataset.json").exists() is (command == "certify")

    # a section given a non-object, and a plain key given an object
    BAD_KINDS = [
        ({"init": 5}, "init"),
        ({"seed": {"a": 1}}, "seed"),
        ({"train": {"eta": {"x": 1}}}, "train.eta"),
    ]
    # values of the wrong type or outside their domain that some command
    # once accepted, truncated, or refused only after writing config.json
    TYPE_HOLES = {
        "auto_gain-str": ({"init": {"auto_gain": "false"}}, "init.auto_gain"),
        "stop_loss-str": ({"train": {"stop_loss": "1e-3"}}, "train.stop_loss"),
        "eta-str": ({"train": {"eta": "0.001"}}, "train.eta"),
        "max_steps-float": ({"train": {"max_steps": 2.5, "eta": 0.001}}, "train.max_steps"),
        "sizes-float": ({"shape": {"d": 8.9}, "dataset": {"n": 4.7}}, "shape.d"),
        "kr-float": ({"kr": {"n": 3.5, "n_seeds": 2.2}}, "kr.n"),
        "radius-str": ({"dataset": {"radius": "2"}}, "dataset.radius"),
        "gain-str": ({"init": {"gain": "2"}}, "init.gain"),
        "gamma-bool": ({"activation": {"gamma": True}}, "activation.gamma"),
        "width-float": ({"shape": {"widths": [16, 6.5, 4, 2]}}, "shape.widths[1]"),
        "samples-negative": ({"lambda_star": {"samples": -5}}, "lambda_star.samples"),
        "seeds-empty": ({"sweep": {"seeds": []}}, "sweep.seeds"),
        "out-int": ({"out": 5}, "out"),
        "gamma-above-one": ({"activation": {"gamma": 1.5}}, "activation.gamma"),
        "gamma-zero": ({"activation": {"gamma": 0}}, "activation.gamma"),
        "beta-zero": ({"activation": {"beta": 0.0}}, "activation.beta"),
        "gain-one": ({"init": {"gain": 1}}, "init.gain"),
        "radius-zero": ({"dataset": {"radius": 0.0}}, "dataset.radius"),
        "r_max-above-cap": ({"lambda_star": {"r_max": 201}}, "lambda_star.r_max"),
        "n_seeds-zero": ({"kr": {"n_seeds": 0}}, "kr.n_seeds"),
    }

    @pytest.mark.parametrize(
        "config,key",
        BAD_KINDS + list(TYPE_HOLES.values()),
        ids=[key for _, key in BAD_KINDS] + list(TYPE_HOLES),
    )
    def test_object_mismatch_is_operational_error(self, tmp_path, config, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        res = run(["certify", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 1
        assert repr(key) in res.output
        assert not (out / "config.json").exists()

    # one value outside the allowed choices for each enumerated key
    BAD_CHOICES = [
        ("certify", "init.scheme", "xavier"),
        ("certify", "dataset.source", "web"),
        ("certify", "dataset.targets", "random"),
        ("lambda-star", "lambda_star.method", "bogus"),
        ("lambda-star", "lambda_star.sigma", "relu"),
    ]

    @pytest.mark.parametrize(
        "command,key,value", BAD_CHOICES, ids=[key for _, key, _ in BAD_CHOICES]
    )
    def test_unknown_choice_is_operational_error(self, tmp_path, command, key, value):
        section, leaf = key.split(".")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({section: {leaf: value}}))
        out = tmp_path / "o"
        res = run([command, "--config", str(path), "--out", str(out)])
        assert res.exit_code == 1
        assert key in res.output and value in res.output
        assert not (out / "config.json").exists()

    # strict JSON would record a non-finite number as null, which reads back
    # as "use the default"; so no command may accept one
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_flag_fails_before_config_is_written(self, tmp_path, text):
        out = tmp_path / "o"
        res = run(["train", "--eta", text, "--max-steps", "3", "--out", str(out)])
        assert res.exit_code == 1
        assert "'train.eta' must be finite" in res.output
        assert not (out / "config.json").exists()

    NON_FINITE = [
        ('{"train": {"eta": NaN}}', "train.eta"),
        ('{"activation": {"beta": Infinity}}', "activation.beta"),
        ('{"dataset": {"target_scale": 1e999}}', "dataset.target_scale"),
        ('{"sweep": {"seeds": [0, -Infinity]}}', "sweep.seeds[1]"),
    ]

    def test_huge_negative_int_reads_as_minus_inf(self, tmp_path):
        # an int past the float range takes the sign of its value
        path = tmp_path / "bad.json"
        path.write_text('{"train": {"eta": -1%s}}' % ("0" * 400))
        out = tmp_path / "o"
        res = run(["train", "--config", str(path), "--max-steps", "3", "--out", str(out)])
        assert res.exit_code == 1
        assert res.stderr.splitlines() == ["error: config key 'train.eta' must be finite, got -inf"]
        assert not (out / "config.json").exists()

    def test_negative_target_scale_is_operational_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dataset": {"target_scale": -0.1}}')
        out = tmp_path / "o"
        res = run(["train", "--config", str(path), "--max-steps", "3", "--out", str(out)])
        assert res.exit_code == 1
        assert "'dataset.target_scale' must be a non-negative number, got -0.1" in res.output
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize("text,key", NON_FINITE, ids=[key for _, key in NON_FINITE])
    def test_non_finite_config_value_is_operational_error(self, tmp_path, text, key):
        path = tmp_path / "bad.json"
        path.write_text(text)
        out = tmp_path / "o"
        res = run(["train", "--config", str(path), "--max-steps", "3", "--out", str(out)])
        assert res.exit_code == 1
        assert f"{key!r} must be finite" in res.output
        assert not (out / "config.json").exists()

    # a seed is truncated by int(), a negative one fails only after
    # config.json is written, and a repeated sweep seed runs twice into the
    # same run_<seed>/ (with --jobs 2, at the same time)
    BAD_SEEDS = [
        (["train"], {"seed": 2.7}, "'seed' must be a non-negative integer, got 2.7"),
        (["train"], {"seed": True}, "'seed' must be a non-negative integer, got True"),
        (["kr"], {"seed": -1}, "'seed' must be a non-negative integer, got -1"),
        (["sweep"], {"sweep": {"seeds": [1.5]}}, "'sweep.seeds[0]' must be a non-negative integer"),
        (["sweep"], {"sweep": {"seeds": [1, 1]}}, "'sweep.seeds[1]' repeats seed 1"),
        (["sweep", "--jobs", "2"], {"sweep": {"seeds": [0, 1, 0]}}, "'sweep.seeds[2]' repeats seed 0"),
        (["sweep"], {"sweep": {"seeds": 3}}, "'sweep.seeds' must be a list"),
    ]

    @pytest.mark.parametrize(
        "args,config,message",
        BAD_SEEDS,
        ids=[
            "float", "bool", "negative", "float-in-sweep", "repeated", "repeated-jobs-2", "not-a-list"
        ],
    )
    def test_bad_seed_is_operational_error(self, tmp_path, args, config, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        res = run([*args, "--config", str(path), "--out", str(out)])
        assert res.exit_code == 1
        assert message in res.output
        assert not out.exists()  # neither config.json nor a run directory

    @pytest.mark.parametrize("command", ["certify", "train"])
    @pytest.mark.parametrize(
        "shape,message",
        [
            ({"widths": [6, 3.5, 2]}, "'shape.widths[1]' must be a positive integer, got 3.5"),
            ({"d": 4.0}, "'shape.d' must be a positive integer, got 4.0"),
            ({"widths": [6, True]}, "'shape.widths[1]' must be a positive integer, got True"),
        ],
        ids=["float-width", "float-d", "bool-width"],
    )
    def test_non_integer_shape_is_operational_error(self, tmp_path, command, shape, message):
        # these once trained a truncated network and exited 0
        path = small_config(tmp_path, shape=shape)
        out = tmp_path / "o"
        res = run([command, "--config", str(path), "--out", str(out)])
        assert res.exit_code == 1
        assert message in res.output
        assert not (out / "config.json").exists()

    def test_recorded_config_reruns_the_same_step_size(self, tmp_path):
        # a finite override survives the round trip through config.json
        first = tmp_path / "a"
        assert run(["train", "--eta", "1e-3", "--max-steps", "3", "--out", str(first)]).exit_code == 0
        again = tmp_path / "b"
        res = run(["train", "--config", str(first / "config.json"), "--out", str(again)])
        assert res.exit_code == 0
        for out in (first, again):
            summary = json.loads((out / "summary.json").read_text())
            assert summary["eta"] == 1e-3 and summary["certified"] is False

    # every override flag of every command, one value each, and the config
    # path it must land at in the recorded config.json
    OVERRIDES = [
        ("certify", "--seed", "3", "seed", 3),
        ("train", "--seed", "2", "seed", 2),
        ("train", "--eta", "0.002", "train.eta", 0.002),
        ("train", "--max-steps", "4", "train.max_steps", 4),
        ("train", "--stop-loss", "0.25", "train.stop_loss", 0.25),
        ("lambda-star", "--method", "mc", "lambda_star.method", "mc"),
        ("lambda-star", "--sigma", "linear", "lambda_star.sigma", "linear"),
        ("lambda-star", "--gamma", "0.4", "activation.gamma", 0.4),
        ("lambda-star", "--beta", "0.8", "activation.beta", 0.8),
        ("lambda-star", "--n", "5", "dataset.n", 5),
        ("lambda-star", "--N", "7", "dataset.n", 7),
        ("lambda-star", "--d", "3", "shape.d", 3),
        ("lambda-star", "--samples", "300", "lambda_star.samples", 300),
        ("lambda-star", "--r-max", "5", "lambda_star.r_max", 5),
        ("lambda-star", "--seed", "9", "seed", 9),
        ("kr", "--n", "3", "kr.n", 3),
        ("kr", "--N", "5", "kr.n", 5),
        ("kr", "--d", "6", "kr.d", 6),
        ("kr", "--r", "1", "kr.r", 1),
        ("kr", "--n-seeds", "2", "kr.n_seeds", 2),
        ("kr", "--seed", "11", "seed", 11),
        ("hermite", "--sigma", "linear", "lambda_star.sigma", "linear"),
        ("hermite", "--gamma", "0.3", "activation.gamma", 0.3),
        ("hermite", "--beta", "1.5", "activation.beta", 1.5),
        ("hermite", "--r-max", "3", "lambda_star.r_max", 3),
        ("sweep", "--jobs", "2", "sweep.jobs", 2),
    ]
    @pytest.mark.parametrize("command,flag,text,path,value", OVERRIDES)
    def test_flag_lands_at_its_config_path(self, tmp_path, command, flag, text, path, value):
        cfg = small_config(
            tmp_path,
            train={"eta": 1e-3, "max_steps": 3, "stop_loss": 0.0},
            lambda_star={"method": "hermite", "samples": 500, "r_max": 4},
            kr={"n": 4, "d": 3, "n_seeds": 1},
        )
        out = tmp_path / "o"
        res = run([command, "--config", str(cfg), "--out", str(out), flag, text])
        assert res.exit_code in (0, 2), res.output
        node = json.loads((out / "config.json").read_text())
        for key in path.split("."):
            node = node[key]
        assert node == value and type(node) is type(value)

    @pytest.mark.parametrize("command", list(SURFACE))
    def test_missing_config_file_exits_one(self, tmp_path, command):
        path, out = tmp_path / "nope.json", tmp_path / "o"
        res = run([command, "--config", str(path), "--out", str(out)])
        assert res.exit_code == 1
        assert res.stderr.splitlines() == [f"error: [Errno 2] No such file or directory: '{path}'"]
        assert res.stdout == "" and not out.exists()


def _names(param):
    return tuple(param.opts + param.secondary_opts)


class TestSurface:
    """The flags of every command, pinned so that no change of the CLI can
    drop, rename or retype one unnoticed."""

    def test_commands(self):
        assert sorted(main.commands) == sorted(SURFACE)

    @pytest.mark.parametrize("command", list(SURFACE))
    def test_options_and_their_config_keys(self, command):
        options = {}
        for param in main.commands[command].params:
            kind = param.type
            kind = tuple(kind.choices) if isinstance(kind, click.Choice) else kind.name
            options[_names(param)] = (kind, param.default)
        assert options == {names: spec[:2] for names, spec in SURFACE[command].items()}
        # test_flag_lands_at_its_config_path runs every override flag
        landed = {(flag, path) for cmd, flag, _, path, _ in TestConfig.OVERRIDES if cmd == command}
        keyed = {(name, spec[2]) for names, spec in SURFACE[command].items() if spec[2] for name in names}
        assert landed == keyed

    def test_readme_flag_table_is_the_cli(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Command line")[1].split("### Config file")[0]
        listed = set()
        for line in section.splitlines():
            if line.startswith("| `"):
                flags, key, commands = (cell.strip() for cell in line.strip("|").split("|"))
                names = tuple(re.findall(r"`(--[\w-]+)", flags))
                key = key.strip("`") if re.fullmatch(r"`[\w.]+`", key) else None
                for command in SURFACE if commands == "all" else commands.split(", "):
                    listed.add((command, names, key))
        assert listed == {
            (command, names, spec[2]) for command, options in SURFACE.items()
            for names, spec in options.items()
        }
        defined = {(name, _names(param)) for name, cmd in main.commands.items() for param in cmd.params}
        assert {(command, names) for command, names, _ in listed} == defined


def _nested(dotted, value):
    """``{"a": {"b": value}}`` for ``"a.b"``."""
    for key in reversed(dotted.split(".")):
        value = {key: value}
    return value


# a value of every JSON kind, for drawing the wrong one for a leaf
JSON_KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-(10**6), 10**6),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "str": st.text(max_size=4),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    "list": st.lists(st.integers(0, 50), max_size=3),
}
# the JSON kinds each config type accepts
ACCEPTS = {"int": {"int"}, "float": {"int", "float"}, "bool": {"bool"}, "str": {"str"}, "[int]": {"list"}}


def wrong_value(kind):
    """A value of a JSON kind that config type ``kind`` refuses; for a list
    of ints, also a list holding one refused entry."""
    accepted = ACCEPTS[kind.rstrip("?")] | ({"null"} if kind.endswith("?") else set())
    wrong = st.sampled_from(sorted(set(JSON_KINDS) - accepted)).flatmap(JSON_KINDS.get)
    if kind != "[int]":
        return wrong
    bad_entry = st.sampled_from(["null", "bool", "float", "str", "object"]).flatmap(JSON_KINDS.get)
    return wrong | st.tuples(st.lists(st.integers(0, 50), max_size=2), bad_entry).map(
        lambda pair: pair[0] + [pair[1]]
    )


def valid_value(kind, domain):
    """A value config type ``kind`` accepts within ``domain``."""
    rules = dict(rule.split() for rule in domain if rule[0] in "<>")
    low = next((float(rules[op]) for op in (">=", ">") if op in rules), None)
    high = next((float(rules[op]) for op in ("<=", "<") if op in rules), None)
    open_low, open_high = ">" in rules, "<" in rules

    def ints(top):
        """The integers within the bounds, up to ``top`` if unbounded above;
        a float key accepts them too."""
        lo = None if low is None else math.floor(low) + 1 if open_low else math.ceil(low)
        hi = top if high is None else math.ceil(high) - 1 if open_high else math.floor(high)
        return st.integers(min_value=lo, max_value=hi) if lo is None or lo <= hi else st.nothing()

    base = kind.rstrip("?")
    if base == "str":
        value = st.sampled_from(domain) if domain else st.text(max_size=6)
    elif base == "bool":
        value = st.booleans()
    elif base == "int":
        value = ints(2**40)
    elif base == "float":
        value = st.floats(min_value=low, max_value=high, exclude_min=open_low,
                          exclude_max=open_high, allow_nan=False, allow_infinity=False)
        value = value | ints(2**60)
    else:
        value = st.lists(ints(2**40), min_size=1, max_size=4, unique="unique" in domain)
    return st.none() | value if kind.endswith("?") else value


class TestConfigTable:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_wrong_type_names_its_key(self, data):
        key = data.draw(st.sampled_from(sorted(cli_mod.CONFIG)), label="key")
        value = data.draw(wrong_value(cli_mod.CONFIG[key][1]), label="value")
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "bad.json", Path(tmp) / "o"
            path.write_text(json.dumps(_nested(key, value)))
            res = run(["hermite", "--config", str(path), "--out", str(out)])
            assert res.exit_code == 1
            assert f"config key '{key}" in res.output
            assert not out.exists()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_accepted_config_round_trips_through_config_json(self, data):
        keys = data.draw(st.sets(st.sampled_from(sorted(cli_mod.CONFIG))), label="keys")
        user, given = {}, {}
        for key in sorted(keys):
            _, kind, domain = cli_mod.CONFIG[key]
            given[key] = data.draw(valid_value(kind, domain), label=key)
            *sections, leaf = key.split(".")
            node = user
            for section in sections:
                node = node.setdefault(section, {})
            node[leaf] = given[key]
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "in.json", Path(tmp) / "o"
            path.write_text(json.dumps(user))
            cfg, _ = cli_mod._setup("x", str(path), str(out), {})
            assert cli_mod._load_config(str(out / "config.json"), {}) == cfg
        for key, value in given.items():
            node = cfg
            for part in key.split("."):
                node = node[part]
            # an int for a float key is recorded as the nearest float
            floating = cli_mod.CONFIG[key][1].startswith("float") and value is not None
            assert node == (float(value) if floating else value)

    def test_readme_config_block_is_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Config file")[1].split("```json")[1].split("```")[0]
        defaults = cli_mod._load_config(None, {})
        assert json.loads(block) == defaults
        assert list(json.loads(block)) == list(defaults)

    # a malformed flag is an operational error, not click's usage exit 2
    @pytest.mark.parametrize(
        "args",
        [
            ["train", "--seed", "abc"],
            ["lambda-star", "--method", "bogus"],
            ["certify", "--bogus-flag"],
            ["--bogus-flag", "certify"],
            ["bogus-command"],
        ],
        ids=["bad-int", "bad-choice", "unknown-flag", "unknown-group-flag", "unknown-command"],
    )
    def test_malformed_flag_exits_one(self, tmp_path, monkeypatch, args):
        monkeypatch.setenv("PYRCERT_OUT", str(tmp_path / "env"))
        out = tmp_path / "o"
        res = run([*args, "--out", str(out)])
        assert res.exit_code == 1, res.output
        with pytest.raises(click.UsageError) as info:
            main([*args, "--out", str(out)], standalone_mode=False)
        assert info.value.exit_code == 1
        assert list(tmp_path.iterdir()) == []


class TestEnvOut:
    def test_pyrcert_out_env_sets_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PYRCERT_OUT", str(tmp_path / "envout"))
        res = run(["hermite", "--r-max", "4"])
        assert res.exit_code == 0
        assert (tmp_path / "envout" / "hermite" / "hermite.json").exists()


class TestRoundTrip:
    def test_emitted_dataset_bundle_reparses(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "rt"
        res = run(["certify", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0
        data = dataset_from_json(out / "dataset.json")
        assert data.n_samples == 6 and data.d == 4
        assert np.linalg.norm(data.Y) == pytest.approx(0.2, rel=1e-12)

    def test_emitted_trainlog_reparses(self, tmp_path):
        cfg = small_config(tmp_path, train={"eta": 0.0, "max_steps": 4, "stop_loss": 0.0})
        out = tmp_path / "rt2"
        res = run(["train", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0
        cols = trainlog_from_csv(out / "trainlog.csv")
        assert len(cols["k"]) == 5
        assert set(cols) >= {"k", "loss", "bound", "grad_norm"}

    def test_kr_json_format(self, tmp_path):
        out = tmp_path / "krj"
        res = run(
            ["kr", "--n", "6", "--d", "9", "--r", "2", "--n-seeds", "3",
             "--format", "json", "--out", str(out)]
        )
        assert res.exit_code == 0
        rows = json.loads((out / "kr.json").read_text())
        assert len(rows) == 3 and {"seed", "sigma_min", "bound", "pass"} <= set(rows[0])

    def test_hermite_csv_format(self, tmp_path):
        out = tmp_path / "hc"
        res = run(["hermite", "--r-max", "4", "--format", "csv", "--out", str(out)])
        assert res.exit_code == 0
        with open(out / "hermite.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5 and float(rows[1]["coeff"]) == pytest.approx(0.75, abs=1e-9)
