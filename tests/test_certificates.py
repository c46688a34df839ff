"""Certificate constants versus direct SVD/formula oracles, assumption
verdict behavior, and trajectory-invariant monitoring."""

import csv
import dataclasses
import json
import math
import sys
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    cells_block,
    check_assumption,
    dense_log,
    distance_envelope,
    f1_column,
    forward_starts,
    log_columns,
    measured_rows,
    rate_constants,
    read_cells,
    run_spectra,
    trainlog_from_csv,
    whole_run_report,
    with_columns,
)

from pyrcert.activation import ActivationParams, as_function, evaluate
from pyrcert.certificates import (
    Certificate,
    InvariantReport,
    certificate_from_json,
    certificate_from_spectra,
    certificate_to_json,
    certify,
    invariant_cells,
    invariant_flags,
    invariant_thresholds,
    monitor_invariants,
    spectral_quantities,
)
from pyrcert import cli, gradients
from pyrcert.certificates import _decay_bound
from pyrcert.gradients import BLOCK_ROWS, TrainConfig, train, trainlog_to_csv
from pyrcert.initializers import (
    InitConfig,
    init_certifiable,
    layer_rng,
    sphere_data,
    sphere_targets,
    tune_gain,
)
from pyrcert.lambda_star import gram_hermite, hermite_coeffs
from pyrcert.network import Dataset, Params, Shape

ACT = ActivationParams(0.5, 1.0)


def csv_cell_by_cell(log, path, cert):
    """The training-log CSV written one ``format`` call per cell, judged
    against ``cert`` if one is given."""
    L = log.final_params.depth
    header = ["k", "loss", "bound", "sv_F1"]
    header.extend(f"min_sv_W{l}" for l in range(3, L + 1))
    header.extend(f"max_norm_W{l}" for l in range(1, L + 1))
    header.extend(["grad_norm", "spectra_exact"])
    cols = log_columns(log, cert)
    bound = cols.get("bound", np.full(log.n_steps, math.nan))
    if cert is not None:
        header.extend("flag_" + name for name in InvariantReport.CHECKS)

    def fmt(v):
        return format(float(v), ".17g")

    min_sv_w, norm_w = cols["min_sv_w"], cols["norm_w"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(log.n_steps):
            row = [i, fmt(log.loss[i]), fmt(bound[i]), fmt(cols["sv_f1"][i])]
            row.extend(fmt(v) for v in min_sv_w[i])
            row.extend(fmt(v) for v in norm_w[i])
            row.extend([fmt(log.grad_norm[i]), int(cols["spectra_exact"][i])])
            if cert is not None:
                row.extend(int(b) for b in cols["flags"][i])
            writer.writerow(row)


def certifiable_instance(seed=0, n=6, d=4, widths=(6, 3, 2), y_scale=0.2):
    shape = Shape(d=d, widths=widths)
    X = sphere_data(n, d, seed=seed)
    Y = sphere_targets("aligned", shape, X, ACT, seed, y_scale)
    return shape, Dataset(X, Y), InitConfig(seed=seed)


def lambda_f(w1, X):
    """``lambda_F`` as ``certify`` computes it for a first layer ``w1`` on
    inputs ``X``, behind a zero output layer."""
    params = Params((w1, np.zeros((w1.shape[1], 1))))
    return certify(params, Dataset(X, np.zeros((X.shape[0], 1))), ACT).lambda_f


def decay_bound(alpha0, eta, phi0, n_steps):
    """The ``bound`` column of a run of ``n_steps`` records at step size
    ``eta`` from initial loss ``phi0``, judged against a certificate of
    rate ``alpha0``."""
    shape, data, cfg = certifiable_instance()
    _, params, cert = tune_gain(shape, data, ACT, cfg)
    log = train(params, data, ACT, TrainConfig(eta=0.0, max_steps=n_steps - 1))
    log = dataclasses.replace(log, eta=eta, loss=np.full(n_steps, phi0))
    return log_columns(log, dataclasses.replace(cert, alpha0=alpha0))["bound"]


class TestSpectralQuantities:
    def test_identity_deep_layers(self):
        ws = (np.zeros((3, 6)), np.zeros((6, 4)), np.eye(4), np.eye(4))
        bars, mins = spectral_quantities(Params(ws))
        assert bars[2] == bars[3] == 1.0
        assert mins == (1.0, 1.0)

    def test_zero_second_layer_proxy(self):
        ws = (np.zeros((3, 6)), np.zeros((6, 2)))
        bars, _ = spectral_quantities(Params(ws))
        assert bars[1] == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_first_two_layers_get_shifted_proxy(self):
        rng = np.random.default_rng(1)
        w1 = rng.normal(size=(3, 6))
        ws = (w1, np.zeros((6, 2)))
        bars, _ = spectral_quantities(Params(ws))
        assert bars[0] == pytest.approx((2 / 3) * (1 + np.linalg.norm(w1, 2)), rel=1e-12)

    def test_deep_layer_matches_svd_oracle(self):
        rng = np.random.default_rng(3)
        w3 = rng.normal(size=(5, 3))
        ws = (np.zeros((2, 8)), np.zeros((8, 5)), w3)
        bars, mins = spectral_quantities(Params(ws))
        svs = np.linalg.svd(w3, compute_uv=False)
        assert bars[2] == pytest.approx(svs[0], abs=1e-10)
        assert mins[0] == pytest.approx(svs[-1], abs=1e-10)


class TestLambdaF:
    def test_duplicate_rows_give_zero(self):
        X = np.vstack([np.ones((1, 3)), np.ones((1, 3)), np.eye(3)[:1]])
        w1 = np.random.default_rng(5).normal(size=(3, 4))
        assert lambda_f(w1, X) <= 1e-12

    def test_small_case_matches_svd_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(2, 2))
        w1 = rng.normal(size=(2, 3))
        want = np.linalg.svd(evaluate(ACT, X @ w1), compute_uv=False)[-1]
        assert lambda_f(w1, X) == pytest.approx(want, abs=1e-10)

    def test_statistical_floor_from_gram_eigenvalue(self):
        # floor sqrt(n1 * lambda*)/2 should hold in >= 95% of 200 draws
        n, d, n1 = 4, 8, 64
        X = sphere_data(n, d, seed=11)
        spec = hermite_coeffs(as_function(ACT), 12)
        lam_star = gram_hermite(X, spec, 12).lambda_min
        threshold = math.sqrt(n1 * lam_star) / 2.0
        hits = 0
        for s in range(200):
            w1 = layer_rng(s, 1).normal(0.0, 1.0 / math.sqrt(d), size=(d, n1))
            if lambda_f(w1, X) >= threshold:
                hits += 1
        assert hits >= 190


class TestCheckAssumption:
    def test_degenerate_data_fails_both(self):
        shape, data, cfg = certifiable_instance()
        X = data.X.copy()
        X[1] = X[0]  # duplicate row
        dup = Dataset(X, data.Y)
        params = init_certifiable(shape, cfg)
        cert = certify(params, dup, ACT)
        assert not cert.cond1_holds and not cert.cond2_holds
        assert cert.degenerate_reason == "degenerate data"

    def test_gain_sweep_flips_verdict_at_finite_gain(self):
        shape, data, cfg = certifiable_instance()
        seen_fail = seen_pass = False
        flip = None
        for j in range(60):
            gain = 2.0 ** (j + 1)
            params = init_certifiable(shape, InitConfig(gain=gain, seed=cfg.seed))
            cert = certify(params, data, ACT)
            if cert.cond1_holds and cert.cond2_holds:
                seen_pass = True
                flip = gain
                break
            seen_fail = True
        assert seen_fail and seen_pass
        # once flipped, a larger gain keeps it passing (monotone slack)
        params = init_certifiable(shape, InitConfig(gain=4 * flip, seed=cfg.seed))
        cert = certify(params, data, ACT)
        assert cert.cond1_holds and cert.cond2_holds

    def test_inflated_targets_break_the_conditions(self):
        shape, data, cfg = certifiable_instance()
        _, params, cert = tune_gain(shape, data, ACT, cfg)
        assert cert.certified
        big = Dataset(data.X, 1e6 * data.Y)
        cert_big = certify(params, big, ACT)
        assert not cert_big.cond1_holds and not cert_big.cond2_holds

    def test_slack_monotone_in_lambda_f(self):
        # doubling lambda_F scales cond1's slack by 2**2 and cond2's by 2**3
        lb = (1.5, 0.8, 2.0)
        lm = (1.7,)
        X = sphere_data(5, 3, seed=2)
        c1 = certificate_from_spectra(lb, lm, 0.5, X, 1.0, ACT)
        c2 = certificate_from_spectra(lb, lm, 1.0, X, 1.0, ACT)
        assert c2.cond1_slack > c1.cond1_slack
        assert c2.cond1_slack == pytest.approx(4.0 * c1.cond1_slack, rel=1e-12)
        assert c2.cond2_slack == pytest.approx(8.0 * c1.cond2_slack, rel=1e-12)

    def test_zero_loss_holds_trivially(self):
        X = sphere_data(4, 3, seed=3)
        cert = certificate_from_spectra((1.0, 1.0), (), 0.0, X, 0.0, ACT)
        assert cert.cond1_holds and cert.cond2_holds
        assert cert.cond1_slack == math.inf


class TestRateConstants:
    def test_depth_two_alpha0_cancels_gamma(self):
        X = sphere_data(4, 3, seed=4)
        for gamma in (0.1, 0.3, 0.5, 0.9):
            act = ActivationParams(gamma, 1.0)
            cert = certificate_from_spectra((1.0, 1.0), (), 2.0, X, 1.0, act)
            assert cert.alpha0 == pytest.approx(1.0, rel=1e-12)

    def test_r_product_floors_at_one(self):
        X = sphere_data(4, 3, seed=5)
        cert = certificate_from_spectra((2 / 3, 2 / 3, 0.5), (0.4,), 1.0, X, 1.0, ACT)
        assert cert.r_product == 1.0

    def test_zero_initial_loss_zeroes_q1(self):
        X = sphere_data(4, 3, seed=6)
        cert = certificate_from_spectra((1.0, 1.0), (), 2.0, X, 0.0, ACT)
        assert cert.q1 == 0.0 and not cert.vacuous

    def test_vacuous_when_lambda_f_zero(self):
        X = sphere_data(4, 3, seed=7)
        cert = certificate_from_spectra((1.0, 1.0), (), 0.0, X, 1.0, ACT)
        assert cert.vacuous and cert.alpha0 == 0.0
        assert math.isinf(cert.q1) and math.isnan(cert.eta_max)

    def test_eta_max_is_min_of_inverses(self):
        shape, data, cfg = certifiable_instance()
        _, _, cert = tune_gain(shape, data, ACT, cfg)
        assert cert.eta_max == pytest.approx(min(1 / cert.alpha0, 1 / cert.q0), rel=1e-15)

    @pytest.mark.parametrize(
        "deep",
        [(40.0,) * 88, (1e200, 1e200)],
        ids=["q0-product-depth-90", "alpha0-product-depth-4"],
    )
    def test_infinite_rate_constant_raises(self, deep):
        # every factor is finite, but a product overflows to inf silently:
        # a certificate with an infinite q0 or alpha0 would cap eta at 0
        X = sphere_data(16, 8, seed=9)
        with pytest.raises(ValueError, match=f"at depth {len(deep) + 2} leave the float64"):
            certificate_from_spectra((1.0, 1.0) + deep, deep, 0.02, X, 0.005, ACT)

    def test_zero_deep_layer_is_vacuous(self, tmp_path):
        # W3 = 0 has lambda_min = 0 and norm 0: Q0's shape term is +inf
        X = sphere_data(4, 3, seed=8)
        Y = np.random.default_rng(8).normal(size=(4, 2))
        ws = (
            layer_rng(8, 1).normal(size=(3, 6)),
            layer_rng(8, 2).normal(size=(6, 4)),
            np.zeros((4, 2)),
        )
        cert = certify(Params(ws), Dataset(X, Y), ACT)
        assert cert.vacuous and not cert.certified
        assert cert.q0 == math.inf and math.isnan(cert.eta_max)
        path = tmp_path / "cert.json"
        assert certificate_to_json(cert, path)["q0"] is None
        back = certificate_from_json(path)
        assert same_fields(back, cert)
        assert back.vacuous and not back.certified


def same_fields(a, b):
    """Whether two certificates agree bit for bit in every field: ``repr``
    round-trips every float exactly and prints every NaN alike."""
    return repr(dataclasses.astuple(a)) == repr(dataclasses.astuple(b))


@st.composite
def spectra(draw):
    """Random certificate inputs at depths 2..8, with zero loss and zero
    lambda_F among the draws."""
    L = draw(st.integers(2, 8))
    pos = st.floats(1e-3, 1e3, allow_nan=False)
    bars = tuple(draw(pos) for _ in range(L))
    mins = tuple(draw(st.floats(1e-3, 1.0)) * b for b in bars[2:])
    lam_f = draw(st.one_of(st.just(0.0), pos))
    phi0 = draw(st.one_of(st.just(0.0), pos))
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    X = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, d))
    act = ActivationParams(draw(st.floats(0.05, 0.95)), draw(st.floats(0.1, 10.0)))
    return bars, mins, lam_f, X, phi0, act


class TestAgainstLiteralFormulas:
    @settings(max_examples=200, deadline=None)
    @given(spectra())
    def test_every_field_matches_the_oracle(self, args):
        bars, mins, lam_f, X, phi0, act = args
        cert = certificate_from_spectra(bars, mins, lam_f, X, phi0, act)
        verdict = check_assumption(bars, mins, lam_f, X, phi0, act.gamma)
        alpha0, q0, q1, r_product, eta_max, vacuous = rate_constants(
            bars, mins, lam_f, X, phi0, act
        )
        want = Certificate(
            lambda_bar=bars,
            lambda_min_deep=mins,
            lambda_f=lam_f,
            phi0=phi0,
            alpha0=alpha0,
            q0=q0,
            q1=q1,
            r_product=r_product,
            eta_max=eta_max,
            cond1_holds=verdict.cond1_holds,
            cond1_slack=verdict.cond1_slack,
            cond2_holds=verdict.cond2_holds,
            cond2_slack=verdict.cond2_slack,
            gamma=act.gamma,
            beta=act.beta,
            depth=len(bars),
            x_fro=float(np.linalg.norm(X, "fro")),
            x_op=float(np.linalg.norm(X, 2)),
            vacuous=vacuous,
            degenerate_reason=verdict.reason,
            depth2_convention=len(bars) == 2,
        )
        assert same_fields(cert, want), (cert, want)


class TestPredictedDecay:
    def test_arithmetic(self):
        assert decay_bound(1.0, 0.1, 1.0, 3)[2] == pytest.approx(0.81, rel=1e-15)
        assert decay_bound(1.0, 0.5, 8.0, 4)[3] == pytest.approx(1.0, rel=1e-15)

    def test_step_zero_returns_initial_loss(self):
        assert decay_bound(2.0, 0.01, 7.0, 1)[0] == 7.0

    def test_vectorized_over_steps(self):
        out = decay_bound(1.0, 0.5, 8.0, 4)
        np.testing.assert_allclose(out, [8.0, 4.0, 2.0, 1.0], rtol=1e-15)

    @pytest.mark.parametrize("seed, underflows", [(0, True), (1, False), (2, False)])
    def test_a_wide_first_layer_underflows_the_decay_at_depth_4(self, seed, underflows):
        # widths N-6-4-2 at N = 128, d = 8: kappa(F_1) grows with N, and on
        # seed 0 eta*alpha0 = 1.3e-17 at the certified step size, so the
        # bound column is the constant phi0 at depth 4 (3.8e-16 and 3.2e-16
        # on seeds 1 and 2 do not underflow).  This pins today's defect;
        # log-domain certificate arithmetic (ROADMAP item 3) flips it.
        flags = {"seed": seed, "dataset.n": 128, "shape.widths": [128, 6, 4, 2], "shape.d": 8}
        cert = cli._instance(cli._load_config(None, flags), tune=True)[3]
        assert cert.certified
        eta = 0.9 * cert.eta_max
        assert (1.0 - eta * cert.alpha0 == 1.0) == underflows
        bound = _decay_bound(cert, eta, cert.phi0, 0, 3)
        assert np.all(bound == cert.phi0) == underflows
        assert bound[0] == cert.phi0 and np.all(np.diff(bound) <= 0.0)


class TestCertify:
    def test_requires_wide_first_layer(self):
        shape, data, cfg = certifiable_instance()
        narrow = Shape(d=shape.d, widths=(4, 3, 2))  # n1 < N = 6
        params = init_certifiable(narrow, cfg)
        with pytest.raises(ValueError, match="n1"):
            certify(params, data, ACT)

    def test_json_round_trip(self, tmp_path):
        shape, data, cfg = certifiable_instance()
        _, _, cert = tune_gain(shape, data, ACT, cfg)
        vacuous = dataclasses.replace(
            cert, alpha0=0.0, q1=math.inf, eta_max=math.nan, vacuous=True, cond1_slack=math.inf
        )
        shape2 = Shape(d=3, widths=(8, 2))
        X2 = sphere_data(6, 3, seed=0)
        data2 = Dataset(X2, sphere_targets("aligned", shape2, X2, ACT, 0, 1e-9))
        depth2 = certify(init_certifiable(shape2, cfg), data2, ACT)
        X = data.X.copy()
        X[1] = X[0]  # duplicate row: lambda_F = 0
        dup = Dataset(X, data.Y)
        degenerate = certify(init_certifiable(shape, cfg), dup, ACT)
        assert depth2.lambda_min_deep == () and degenerate.degenerate_reason is not None
        for i, want in enumerate((cert, vacuous, depth2, degenerate)):
            path = tmp_path / f"cert{i}.json"
            certificate_to_json(want, path)
            back = certificate_from_json(path)
            for f in dataclasses.fields(want):
                a, b = getattr(back, f.name), getattr(want, f.name)
                assert a == b or (a != a and b != b), (i, f.name, a, b)
                assert type(a) is type(b), (i, f.name, a, b)

    @pytest.mark.parametrize("key", ["lambda_bar", "lambda_min_deep"])
    def test_json_with_spectra_of_another_depth_is_refused(self, tmp_path, key):
        # one extra entry once passed the depth check of train, which ran
        # against the wrong caps, and monitor_invariants raised IndexError
        shape, data, cfg = certifiable_instance(widths=(6, 3, 3, 2))
        _, _, cert = tune_gain(shape, data, ACT, cfg)
        assert cert.certified
        path = tmp_path / "cert.json"
        payload = certificate_to_json(cert, path)
        payload[key].append(1.0)
        path.write_text(json.dumps(payload))
        got = "5 and 2" if key == "lambda_bar" else "4 and 3"
        want = f"depth-4 certificate needs 4 lambda_bar and 2 lambda_min_deep entries, got {got}"
        with pytest.raises(ValueError, match=want):
            certificate_from_json(path)

    @pytest.mark.parametrize("deep", [(0.5,), (0.5, 0.5, 0.5)], ids=["one-too-few", "one-too-many"])
    def test_spectra_of_another_depth_are_refused(self, deep):
        # zip once cut the pairs short and the certificate came back
        X = sphere_data(4, 3, seed=1)
        want = f"depth-4 certificate needs 4 lambda_bar and 2 lambda_min_deep entries, got 4 and {len(deep)}"
        with pytest.raises(ValueError, match=want):
            certificate_from_spectra((1.0, 1.0, 2.0, 2.0), deep, 1.0, X, 1.0, ACT)


class TestMonitorInvariants:
    def make_certified_run(self, max_steps=400):
        shape, data, cfg = certifiable_instance()
        _, params, cert = tune_gain(shape, data, ACT, cfg)
        log = train(
            params, data, ACT, TrainConfig(eta=0.9 * cert.eta_max, max_steps=max_steps), cert=cert
        )
        return log, cert

    @pytest.mark.parametrize(
        "run_widths, cert_widths",
        [((6, 3, 3, 2), (6, 3, 3, 3, 2)), ((6, 3, 3, 3, 2), (6, 3, 3, 2))],
        ids=["deeper-certificate", "shallower-certificate"],
    )
    def test_a_certificate_of_another_depth_is_refused(self, run_widths, cert_widths, tmp_path):
        # train once proved the wrong layers' thresholds or raised an
        # IndexError, and so did monitor_invariants; the CSV writer judges
        # with the same check
        shape, data, cfg = certifiable_instance(widths=run_widths)
        _, params, _ = tune_gain(shape, data, ACT, cfg)
        _, _, cert = tune_gain(Shape(d=4, widths=cert_widths), data, ACT, cfg)
        assert cert.certified
        message = (
            f"certificate is for depth {len(cert_widths)}, "
            f"but the network has depth {len(run_widths)}"
        )
        with pytest.raises(ValueError, match=message):
            train(params, data, ACT, TrainConfig(eta=0.9 * cert.eta_max, max_steps=5), cert=cert)
        log = train(params, data, ACT, TrainConfig(eta=0.0, max_steps=5))
        with pytest.raises(ValueError, match=message):
            monitor_invariants(log, cert)
        with pytest.raises(ValueError, match=message):
            trainlog_to_csv(log, tmp_path / "log.csv", cert)
        assert not (tmp_path / "log.csv").exists()

    def test_certified_run_has_zero_violations(self):
        log, cert = self.make_certified_run()
        report = monitor_invariants(log, cert)
        assert report.all_hold
        assert all(v is None for v in report.first_violation.values())
        assert log_columns(log, cert)["flags"].shape == (log.n_steps, 4)

    def test_bound_column_is_predicted_decay(self):
        # the vectorised (1 - eta*alpha0)**k * phi0: a scalar power per step
        # would differ from it in the last bit on some steps
        log, cert = self.make_certified_run(max_steps=3000)
        judged = log_columns(log, cert)
        want = (1.0 - log.eta * cert.alpha0) ** np.arange(log.n_steps) * log.phi0
        assert np.array_equal(judged["bound"], want)
        assert np.array_equal(judged["flags"][:, 3], log.loss <= want)

    def test_csv_round_trip(self, tmp_path):
        # the CSV carries the judged bound and flags and every log column
        # bitwise, under one flag column per check
        log, cert = self.make_certified_run()
        judged = log_columns(log, cert)
        path = tmp_path / "trainlog.csv"
        trainlog_to_csv(log, path, cert)
        cols = trainlog_from_csv(path)
        flag_names = [name for name in cols if name.startswith("flag_")]
        assert flag_names == ["flag_" + name for name in InvariantReport.CHECKS]
        assert np.array_equal(cols["k"], np.arange(log.n_steps))
        assert np.array_equal(cols["bound"], judged["bound"])
        for i, name in enumerate(flag_names):
            assert np.array_equal(cols[name], judged["flags"][:, i])
        L = log.final_params.depth
        logged = {
            "loss": log.loss,
            "grad_norm": log.grad_norm,
            "sv_F1": judged["sv_f1"],
            "spectra_exact": judged["spectra_exact"],
            **{f"min_sv_W{l}": judged["min_sv_w"][:, l - 3] for l in range(3, L + 1)},
            **{f"max_norm_W{l}": judged["norm_w"][:, l - 1] for l in range(1, L + 1)},
        }
        assert set(cols) == {"k", "bound", *flag_names, *logged}
        for name, want in logged.items():
            assert np.array_equal(cols[name], want), name

    def test_csv_bytes_match_the_cell_by_cell_writer(self, tmp_path):
        # the row-by-row %-template writer against csv.writer with one
        # format() per cell; the odd losses are judged as they are
        log, cert = self.make_certified_run()
        odd = dataclasses.replace(log, loss=log.loss.copy())
        odd.loss[:4] = [math.inf, -math.inf, math.nan, -0.0]
        for run, c in ((log, cert), (log, None), (odd, cert)):
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            trainlog_to_csv(run, got, c)
            csv_cell_by_cell(run, want, c)
            assert got.read_bytes() == want.read_bytes()

    def test_csv_without_a_report_allocates_no_bound_column(self, tmp_path):
        # the NaN bound cells come from the row template, so a write
        # without a certificate peaks no higher than a write with one
        log, cert = self.make_certified_run(max_steps=20_000)
        peaks = []
        for c in (cert, None):
            trainlog_to_csv(log, tmp_path / "warm.csv", c)
            tracemalloc.start()
            try:
                trainlog_to_csv(log, tmp_path / "log.csv", c)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0], peaks

    def test_csv_peak_memory_is_a_few_blocks(self, tmp_path):
        # rows are written one at a time and the bound and flags judged a
        # block of rows at a time, so the peak is the file's buffer, a row
        # and one judged block whatever the log's length (a 64-row block
        # of text and cell lists is 62 KB)
        for max_steps in (1_000, 20_000):
            log, cert = self.make_certified_run(max_steps=max_steps)
            assert log.n_steps == max_steps + 1
            for c in (cert, None):
                trainlog_to_csv(log, tmp_path / "warm.csv", c)
                tracemalloc.start()
                try:
                    trainlog_to_csv(log, tmp_path / "log.csv", c)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 24 * 1024, (max_steps, c is None, peak)

    def test_monitor_allocates_its_report_and_a_little(self):
        # the log is judged a block of rows at a time and the flags counted
        # in place: no column of the log's length on a 200,001-row log
        log, cert = self.make_certified_run(max_steps=0)
        long = self.repeated(log, 200_001)
        monitor_invariants(long, cert)  # warm-up
        tracemalloc.start()
        try:
            report = monitor_invariants(long, cert)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the repeated loss stays put while its bound decays
        assert log_columns(long, cert)["flags"].shape == (200_001, 4)
        assert report.n_violations["loss_bound"] == 200_000
        assert peak <= 16 * 1024, peak

    @staticmethod
    def repeated(log, n_steps):
        """A one-row ``log`` repeated to ``n_steps`` rows, every one measured."""
        columns = ("loss", "grad_norm")
        long = dataclasses.replace(log, **{f: np.repeat(getattr(log, f), n_steps) for f in columns})
        cols = log_columns(log)
        return with_columns(
            long,
            np.repeat(cols["sv_f1"], n_steps),
            np.repeat(cols["min_sv_w"], n_steps, axis=0),
            np.repeat(cols["norm_w"], n_steps, axis=0),
        )

    # late_rows fails first past the first block of 7 rows
    INJECTED = {
        "all_hold": [],
        "all_fail": slice(None),
        "row_0_fails": [0],
        "nan_rows": [3, 17, 18, 40],
        "late_rows": [17, 18, 40],
    }

    def injected_run(self, case):
        """A certified 41-row run with failing cells and losses injected on
        the rows of ``case``: ``(run, cert, cols, rows)``, ``cols`` the
        injected columns by name."""
        log, cert = self.make_certified_run(max_steps=40)
        rows = self.INJECTED[case]
        low, high = (math.nan, math.nan) if case == "nan_rows" else (0.0, math.inf)
        columns = log_columns(log)
        cols = {f: columns[f].copy() for f in ("loss", "sv_f1", "min_sv_w", "norm_w")}
        cols["sv_f1"][rows] = cols["min_sv_w"][rows] = low
        cols["norm_w"][rows] = high
        cols["loss"][rows] = math.nan  # a NaN first loss makes every bound NaN
        # a record of every row is its column
        injected_log = dataclasses.replace(log, loss=cols["loss"])
        run = with_columns(injected_log, cols["sv_f1"], cols["min_sv_w"], cols["norm_w"])
        return run, cert, cols, rows

    @pytest.mark.parametrize("case", INJECTED)
    def test_first_violations_and_counts(self, case):
        # each check's count and first failing step against the rows where
        # its literal comparison fails; each flag column is contiguous
        log, cert, cols, rows = self.injected_run(case)
        report, judged = monitor_invariants(log, cert), log_columns(log, cert)
        thresholds, L = invariant_thresholds(cert), cert.depth
        f1_floor, lam_floor, norm_cap = thresholds[0], thresholds[1:-L], thresholds[-L:]
        holds = [
            np.all(cols["min_sv_w"] >= lam_floor, axis=1),
            np.all(cols["norm_w"] <= norm_cap, axis=1),
            cols["sv_f1"] >= f1_floor,
            cols["loss"] <= judged["bound"],
        ]
        injected = np.zeros(log.n_steps, dtype=bool)
        injected[rows] = True
        for i, (name, ok) in enumerate(zip(InvariantReport.CHECKS, holds)):
            col = judged["flags"][:, i]
            assert col.flags.c_contiguous and np.array_equal(col, ok), name
            bad = np.flatnonzero(~ok)
            assert report.n_violations[name] == bad.size, name
            assert report.first_violation[name] == (int(bad[0]) if bad.size else None), name
            want = np.ones_like(injected) if case == "row_0_fails" and name == "loss_bound" else injected
            assert np.array_equal(~ok, want), name
        assert report.all_hold == (case == "all_hold")

    @pytest.mark.parametrize("block_rows", [BLOCK_ROWS, 7])
    @pytest.mark.parametrize("case", INJECTED)
    def test_the_written_verdict_is_the_reported_one(self, case, block_rows, tmp_path, monkeypatch):
        # the CSV writer judges the run once and returns the report of what
        # it wrote: monitor_invariants' report, field by field, whose counts
        # and first violations are those of the flag columns read back
        monkeypatch.setattr(gradients, "BLOCK_ROWS", block_rows)
        run, cert, _, _ = self.injected_run(case)
        path = tmp_path / "trainlog.csv"
        report, want = trainlog_to_csv(run, path, cert), monitor_invariants(run, cert)
        assert isinstance(report, InvariantReport)
        for field in dataclasses.fields(InvariantReport):
            assert getattr(report, field.name) == getattr(want, field.name), field.name
        table = np.genfromtxt(path, delimiter=",", names=True)
        assert len(table) == run.n_steps
        for name in InvariantReport.CHECKS:
            bad = np.flatnonzero(table["flag_" + name] == 0)
            assert report.n_violations[name] == bad.size, name
            assert report.first_violation[name] == (int(bad[0]) if bad.size else None), name
        assert trainlog_to_csv(run, tmp_path / "uncertified.csv") is None

    @pytest.mark.parametrize("n_steps", [1, 1_295, 46_424, 200_001])
    def test_bound_column_equals_the_literal_power_bitwise(self, n_steps):
        # the bound is built in one buffer; it must equal the literal
        # (1 - eta*alpha0)**k * phi0 bitwise, for three bases
        log, cert = self.make_certified_run(max_steps=0)
        long = self.repeated(log, n_steps)
        for base in (1.0 - log.eta * cert.alpha0, 0.999, 0.5):
            c = dataclasses.replace(cert, alpha0=(1.0 - base) / log.eta)
            want = (1.0 - log.eta * c.alpha0) ** np.arange(n_steps) * log.phi0
            assert log_columns(long, c)["bound"].tobytes() == want.tobytes()

    def test_step_zero_flags_true_by_construction(self):
        log, cert = self.make_certified_run(max_steps=0)
        assert bool(np.all(log_columns(log, cert)["flags"][0]))

    def test_uncertified_run_report_well_formed(self):
        shape, data, cfg = certifiable_instance()
        _, params, cert = tune_gain(shape, data, ACT, cfg)
        log = train(
            params,
            data,
            ACT,
            TrainConfig(eta=100 * cert.eta_max, max_steps=50),
        )
        report = monitor_invariants(log, cert)
        assert log_columns(log, cert)["flags"].shape == (log.n_steps, 4)
        assert set(report.n_violations) == {"sv_w", "norm_w", "sv_f1", "loss_bound"}

    def test_distance_envelope_checked(self):
        log, cert = self.make_certified_run()
        dist = distance_envelope(log, cert, log.loss[-1] * 2)
        assert dist.lhs.shape == dist.rhs.shape == (dist.k_window + 1,)

    def test_certified_run_descends_by_half_eta_grad_sq(self):
        # below the smoothness cap each step gains at least (eta/2)*||grad||^2
        log, _ = self.make_certified_run()
        drop = log.loss[:-1] - log.loss[1:]
        need = 0.5 * log.eta * log.grad_norm[:-1] ** 2
        assert np.all(drop >= need - 1e-12 * log.loss[0])
        assert np.all(np.diff(log.loss) <= 0.0)


class TestInvariantCells:
    def test_the_layout_is_the_csv_order(self):
        # each cell's column, matrix (0 is F_1) and check, written out
        assert invariant_cells(4) == (
            ("sv_F1", 0, "sv_f1"),
            ("min_sv_W3", 3, "sv_w"),
            ("min_sv_W4", 4, "sv_w"),
            ("max_norm_W1", 1, "norm_w"),
            ("max_norm_W2", 2, "norm_w"),
            ("max_norm_W3", 3, "norm_w"),
            ("max_norm_W4", 4, "norm_w"),
        )
        assert invariant_cells(1) == (("sv_F1", 0, "sv_f1"), ("max_norm_W1", 1, "norm_w"))

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 7])
    def test_thresholds_keep_their_bits(self, depth):
        # one threshold per cell, each the bits of its group's expression
        rng = np.random.default_rng(depth)
        _, data, cfg = certifiable_instance()
        cert = dataclasses.replace(
            certify(init_certifiable(Shape(4, (6, 3, 2)), cfg), data, ACT),
            lambda_f=float(rng.exponential()),
            lambda_min_deep=tuple(rng.exponential(size=max(depth - 2, 0))),
            lambda_bar=tuple(rng.exponential(size=depth)),
            depth=depth,
        )
        want = np.concatenate(
            [
                [cert.lambda_f / 2.0],
                np.asarray(cert.lambda_min_deep, dtype=np.float64) / 2.0,
                1.5 * np.asarray(cert.lambda_bar, dtype=np.float64),
            ]
        )
        got = invariant_thresholds(cert)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert len(got) == len(invariant_cells(depth))


class TestInvariantFlags:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.integers(1, 5))
    def test_matches_reductions_over_whole_rows(self, seed, n_steps, depth):
        # flags built one layer at a time equal np.all over each row, on
        # cells below, at and above their thresholds, and NaN
        rng = np.random.default_rng(seed)
        _, data, cfg = certifiable_instance()
        cert = dataclasses.replace(
            certify(init_certifiable(Shape(4, (6, 3, 2)), cfg), data, ACT),
            lambda_f=2.0,
            lambda_min_deep=tuple(2.0 * rng.choice([0.5, 1.0, 2.0], size=max(depth - 2, 0))),
            lambda_bar=tuple(rng.choice([0.5, 1.0, 2.0], size=depth) / 1.5),
            depth=depth,
        )
        thresholds = invariant_thresholds(cert)
        f1_floor, lam_floor, norm_cap = thresholds[0], thresholds[1:-depth], thresholds[-depth:]

        def cells(shape):
            return rng.choice([0.25, 0.5, 1.0, 2.0, 4.0, math.nan], size=shape)

        sv_f1, min_sv_w, norm_w = cells(n_steps), cells((n_steps, len(lam_floor))), cells((n_steps, depth))
        loss, bound = cells(n_steps), cells(n_steps)
        got = invariant_flags(cert, [sv_f1, *min_sv_w.T, *norm_w.T], loss, bound)
        want = np.stack(
            [
                np.all(min_sv_w >= lam_floor[None, :], axis=1),
                np.all(norm_w <= norm_cap[None, :], axis=1),
                sv_f1 >= f1_floor,
                loss <= bound,
            ],
            axis=1,
        )
        assert got.shape == (n_steps, 4) and np.array_equal(got, want)

    @pytest.mark.parametrize("count", ["weights_only", "one_long"])
    def test_refuses_a_wrong_column_count(self, count):
        # the columns are the CSV's sv_F1 .. max_norm_W{L}: the weights'
        # columns alone, or one column more, are refused
        _, data, cfg = certifiable_instance()
        cert = certify(init_certifiable(Shape(4, (6, 3, 2)), cfg), data, ACT)
        n_columns = 1 + len(cert.lambda_min_deep) + cert.depth
        ones = np.ones(3)
        columns = [ones] * (n_columns - 1 if count == "weights_only" else n_columns + 1)
        assert len(invariant_flags(cert, [ones] * n_columns, ones, ones)) == 3
        with pytest.raises(ValueError):
            invariant_flags(cert, columns, ones, ones)


class TestLogColumns:
    """The trainer logs loss and gradient norm by appending to two arrays
    and records only the spectra it measures; after the run it builds the
    spectra by column.  Each column must equal the log written one row at
    a time (``oracles.dense_log``) bitwise, and lie contiguous along the
    steps, on runs of one row, with a NaN row, where the proof runs out
    mid-run, where ``F_1`` is measured on interior rows, and without a
    certificate (every row measured)."""

    @staticmethod
    def certified(seed):
        shape, data, cfg = certifiable_instance(seed=seed)
        _, params, cert = tune_gain(shape, data, ACT, cfg)
        return params, data, cert

    def run(self, case):
        """``(params, data, eta, max_steps, cert)`` of each case."""
        if case == "one_row":
            params, data, cert = self.certified(0)
            return params, data, 0.9 * cert.eta_max, 0, cert
        if case == "nan_row":
            # the step-0 update overflows the weights: row 1 is NaN
            params, data, cert = self.certified(0)
            return params, data, 1e308, 10, dataclasses.replace(cert, eta_max=math.inf)
        if case == "proof_runs_out":
            params, data, eta, _, cert = proof_runs_out_at_30(3, (6, 4, 3, 2))
            return params, data, eta, 60, cert
        if case == "w1_moves":
            params, data, cert = self.certified(29)
            return params, data, 0.9 * cert.eta_max, 150, cert
        params, data, cert = self.certified(0)
        return params, data, 0.9 * cert.eta_max, 40, None

    @pytest.mark.parametrize("case", ["one_row", "nan_row", "proof_runs_out", "w1_moves", "uncertified"])
    def test_columns_match_the_log_written_row_by_row(self, case):
        params, data, eta, max_steps, cert = self.run(case)
        with np.errstate(over="ignore", invalid="ignore"), forward_starts() as starts:
            log = train(params, data, ACT, TrainConfig(eta=eta, max_steps=max_steps), cert=cert)
        cols = log_columns(log)
        exact = cols["spectra_exact"]
        first = 1 + int(np.argmax(exact[1:])) if log.n_steps > 1 else 0
        assert exact[0] and exact[first:].all() and not exact[1:first].any()
        thresholds = None if cert is None else invariant_thresholds(cert)
        with np.errstate(over="ignore", invalid="ignore"):
            want = dense_log(params, data, ACT, eta, log.n_steps, thresholds, max_steps, first)
        for name, col in want.items():
            got = cols[name]
            assert got.shape == col.shape and np.array_equal(got, col, equal_nan=True), name
            assert got.strides[0] == got.itemsize, name  # contiguous along the steps
        if case == "one_row":
            assert log.n_steps == 1
        elif case == "nan_row":
            assert log.diverged and log.n_steps == 2 and np.isnan(cols["sv_f1"][1])
        elif case == "proof_runs_out":
            assert first == 30
        elif case == "w1_moves":
            # layer 1 recomputed between rows proven for the weights
            assert first == log.n_steps - 1 and 0 in starts[1:-1]
        else:
            assert first == 1 and log.n_steps == 41

    @pytest.mark.parametrize("certified", [True, False])
    def test_peak_memory_is_the_log_and_a_little(self, certified):
        # the log is held once: loss, gradient norm and F_1's column grow
        # in place, and the weights' cells are recorded only on the rows
        # that measure them
        params, data, cert = self.certified(0)
        cfg = TrainConfig(eta=0.9 * cert.eta_max, max_steps=5_000)
        run = lambda: train(params, data, ACT, cfg, cert=cert if certified else None)  # noqa: E731
        run()  # warm-up
        tracemalloc.start()
        try:
            log = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert log.n_steps == 5_001 and log_columns(log)["spectra_exact"][1:-1].any() != certified
        # what the log holds: two columns, and the records of F_1 and of the
        # weights' cells only on the rows measured
        columns = (log.loss, log.grad_norm, *log.cells.records)
        assert peak <= 1.5 * sum(c.nbytes for c in columns) + 64 * 1024, peak

    def test_uncertified_run_holds_f1_once(self):
        # an uncertified run measures F_1 on every row, so its record is
        # the whole column, held once in the array the trainer appended to
        # (array('d') over-allocates by up to 1/16, within the KiB here)
        params, data, cert = self.certified(0)
        log = train(params, data, ACT, TrainConfig(eta=0.9 * cert.eta_max, max_steps=5_000))
        assert len(log.cells.records[0]) == log.n_steps == 5_001
        held = sys.getsizeof(log.cells.records[0].base.obj) - sys.getsizeof(array("d"))
        assert held <= 8 * log.n_steps + 1024, held

    def test_certified_peak_is_the_uncertified_peak_and_a_little(self):
        # a certified run holds its proven bounds as the data that proves
        # them, and computes them only when they are read
        params, data, cert = self.certified(0)
        cfg = TrainConfig(eta=0.9 * cert.eta_max, max_steps=5_000)
        peaks = []
        for use in (cert, None):
            train(params, data, ACT, cfg, cert=use)  # warm-up
            tracemalloc.start()
            try:
                log = train(params, data, ACT, cfg, cert=use)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert log.n_steps == 5_001
        assert peaks[0] <= peaks[1] + 16 * 1024, peaks


class TestWeightCells:
    """A log holds the weights' cells only on the rows that measured them
    and computes the rows between from ``grad_norm`` when they are read.
    Read as arrays or a block of rows at a time (the flags and the CSV),
    they must equal bit for bit the block the trainer once built after the
    run, at depths 1 to 4, where the proof lasts, where it runs out, on an
    uncertified run and on a run of one row."""

    @staticmethod
    def depth_one(eta=0.02, steps=60):
        """A depth-1 run whose certificate caps ``||W_1||_2`` one path length
        above step 0's, that path being ``2 * eta`` times the first 30
        gradient norms: ``params, data, eta, max_steps, cert``."""
        rng = np.random.default_rng(11)
        params = Params((rng.normal(size=(3, 2)),))
        data = Dataset(rng.normal(size=(4, 3)), rng.normal(size=(4, 2)))
        eager = log_columns(train(params, data, ACT, TrainConfig(eta=eta, max_steps=steps)))
        path = 2.0 * eta * float(np.sum(eager["grad_norm"][:30]))
        shape, data3, cfg = certifiable_instance()
        cert = dataclasses.replace(
            certify(init_certifiable(shape, cfg), data3, ACT),
            depth=1,
            lambda_bar=((float(eager["norm_w"][0, 0]) + path) / 1.5,),
            lambda_min_deep=(),
            lambda_f=float(np.min(eager["sv_f1"])),
            alpha0=0.01,
            eta_max=math.inf,
        )
        return params, data, eta, steps, cert

    def run(self, case):
        """``(params, data, eta, max_steps, cert)`` of each case."""
        if case == "depth_1":
            return self.depth_one()
        if case in ("proof_lasts", "one_row", "uncertified"):
            shape, data, cfg = certifiable_instance()
            _, params, cert = tune_gain(shape, data, ACT, cfg)
            max_steps = {"proof_lasts": 150, "one_row": 0, "uncertified": 40}[case]
            return params, data, 0.9 * cert.eta_max, max_steps, None if case == "uncertified" else cert
        widths = {"depth_2": (6, 2), "depth_3": (6, 3, 2), "depth_4": (6, 4, 3, 2)}[case]
        params, data, eta, _, cert = proof_runs_out_at_30(3, widths)
        return params, data, eta, 60, cert

    @pytest.mark.parametrize(
        "case", ["proof_lasts", "one_row", "uncertified", "depth_1", "depth_2", "depth_3", "depth_4"]
    )
    def test_cells_equal_the_block_built_after_the_run(self, case):
        params, data, eta, max_steps, cert = self.run(case)
        log = train(params, data, ACT, TrainConfig(eta=eta, max_steps=max_steps), cert=cert)
        first = assert_cells_are_the_block(log, params, data, eta, max_steps, cert)
        n_rows = log.n_steps
        # each record holds row 0 and rows first .. n_rows - 1
        assert {len(r) for r in log.cells.records[1:]} == {n_rows - max(first - 1, 0)}
        if case == "one_row":
            assert n_rows == 1
        elif case == "uncertified":
            assert first == 1 and n_rows == 41
        elif case == "proof_lasts":
            assert first == n_rows - 1 == 150
        else:
            assert log.final_params.depth == int(case[-1]) and 1 < first < n_rows - 1


class TestDepthTwo:
    def test_depth_two_certificate_and_run(self):
        # no deep layers: products over layers 3..L are empty and the
        # certificate can only be met by small enough initial loss
        shape = Shape(d=3, widths=(8, 2))
        X = sphere_data(6, 3, seed=0)
        cfg = InitConfig(seed=0)
        data = Dataset(X, sphere_targets("aligned", shape, X, ACT, 0, 1e-9))
        params = init_certifiable(shape, cfg)
        cert = certify(params, data, ACT)
        assert cert.depth2_convention
        assert cert.lambda_min_deep == ()
        assert cert.certified
        log = train(
            params,
            data,
            ACT,
            TrainConfig(eta=0.9 * cert.eta_max, max_steps=50_000, stop_loss=1e-26),
            cert=cert,
        )
        assert monitor_invariants(log, cert).all_hold
        assert distance_envelope(log, cert, 1e-22).holds
        assert log.final_loss <= 1e-26


class TestWeylSanity:
    def test_singular_value_perturbation_bounded_by_operator_norm(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            A = rng.normal(size=(6, 4))
            B = A + 0.3 * rng.normal(size=(6, 4))
            sa = np.linalg.svd(A, compute_uv=False)
            sb = np.linalg.svd(B, compute_uv=False)
            assert np.max(np.abs(sa - sb)) <= np.linalg.norm(A - B, 2) * (1 + 1e-12)


def proof_runs_out_at_30(seed, widths):
    """A run of 60 steps at eta = 0.02 whose certificate's weight thresholds
    sit one path length past step 0's exact extremes, that path being
    2 * eta times the first 30 gradient norms: ``params, data, eta``, the
    exact replay and the certificate."""
    shape, data, cfg = certifiable_instance(seed=seed, widths=widths, y_scale=1.0)
    params = init_certifiable(shape, cfg)
    eta = 0.02
    eager = train(params, data, ACT, TrainConfig(eta=eta, max_steps=60))
    path = 2.0 * eta * float(np.sum(eager.grad_norm[:30]))
    cols = log_columns(eager)
    cert = dataclasses.replace(
        certify(params, data, ACT),
        lambda_f=float(np.min(cols["sv_f1"])),
        lambda_min_deep=tuple(2.0 * (v - path) for v in cols["min_sv_w"][0]),
        lambda_bar=tuple((v + path) / 1.5 for v in cols["norm_w"][0]),
        alpha0=0.01,
        eta_max=math.inf,
    )
    return params, data, eta, eager, cert


def assert_cells_are_the_block(log, params, data, eta, max_steps, cert):
    """Assert that ``log``'s weight cells, read as arrays and in blocks of
    7 rows, equal bit for bit the block the trainer once built after the
    run (``oracles.cells_block``); return the run's ``first``."""
    cols = log_columns(log)
    exact = cols["spectra_exact"]
    first = 1 + int(np.argmax(exact[1:])) if log.n_steps > 1 else 0
    thresholds = None if cert is None else invariant_thresholds(cert)
    spectra = run_spectra(params, data, ACT, thresholds, eta, max_steps, first)
    want = cells_block(spectra, log.cells.records[1:], log.grad_norm)
    arrays = np.concatenate([cols["min_sv_w"], cols["norm_w"]], axis=1)
    for got in (arrays, read_cells(log.cells, log.grad_norm, 7)[:, 1:]):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    return first


def assert_read_in_blocks_is_the_whole_run(log, cert, params, data, eta, rows):
    """Assert that ``log``'s ``sv_f1`` and ``spectra_exact``, and its report
    against ``cert``, read a block of rows at a time, equal bit for bit the
    whole-run oracles: ``F_1`` measured on every row of a replay, the rows
    ``rows`` that measured every matrix, and ``whole_run_report``."""
    f1 = f1_column(params, data, ACT, eta, log.n_steps)
    cols = log_columns(log, cert)
    assert cols["sv_f1"].tobytes() == f1.tobytes()
    assert np.array_equal(cols["spectra_exact"], np.isin(np.arange(log.n_steps), rows))
    report = monitor_invariants(log, cert)
    bound, flags, counts, first = whole_run_report(
        cert, log.eta, log.phi0, [f1, *cols["min_sv_w"].T, *cols["norm_w"].T], log.loss
    )
    assert cols["bound"].tobytes() == bound.tobytes()
    assert cols["flags"].shape == flags.shape and np.array_equal(cols["flags"], flags)
    assert all(cols["flags"][:, i].flags.c_contiguous for i in range(4))
    assert report.n_violations == counts and report.first_violation == first
    assert report.all_hold == (not any(counts.values()))


class TestReadInBlocks:
    """A log holds ``loss`` and ``grad_norm`` per row and every other column
    as the rows that measured it, and a report holds each check's count
    and first violation.  ``sv_f1``, ``spectra_exact`` and the report's
    bound and flags are read a block of rows at a time; they must equal
    bit for bit the whole-run oracles, on logs of a block's length and a
    row either side and of two blocks and a row, where ``W_1`` stays put
    or moves on proven rows, on an uncertified run and a run of one row,
    at depths 1, 2 and 4, and where a check fails first past the first
    block, read in blocks of ``BLOCK_ROWS`` and of 7 rows."""

    B = BLOCK_ROWS
    ROWS = {"rows_B-1": B - 1, "rows_B": B, "rows_B+1": B + 1, "rows_2B+1": 2 * B + 1}
    SEEDS = {"w1_seed5": 5, "w1_seed10": 10, "w1_seed30": 30, "w1_moves": 29}

    def run(self, case):
        """``(params, data, eta, max_steps, cert)`` of each case, and the
        certificate its report is judged against."""
        if case in self.ROWS or case in ("uncertified", "one_row"):
            params, data, cert = TestLogColumns.certified(0)
            steps = self.ROWS[case] - 1 if case in self.ROWS else 40 if case == "uncertified" else 0
            return params, data, 0.9 * cert.eta_max, steps, None if case == "uncertified" else cert, cert
        if case in self.SEEDS:
            params, data, cert = TestLogColumns.certified(self.SEEDS[case])
            return params, data, 0.9 * cert.eta_max, 150, cert, cert
        if case == "depth_1":
            params, data, eta, steps, cert = TestWeightCells.depth_one()
            return params, data, eta, steps, cert, cert
        if case == "violations":
            # thresholds at the median of each exact spectral trajectory:
            # every check fails, sv_w first past the first blocks of 7 rows
            shape, data, cfg = certifiable_instance(seed=3, widths=(6, 4, 3, 2), y_scale=1.0)
            params = init_certifiable(shape, cfg)
            eager = log_columns(train(params, data, ACT, TrainConfig(eta=0.05, max_steps=60)))
            med = lambda a: tuple(float(v) for v in np.median(a, axis=0))  # noqa: E731
            cert = dataclasses.replace(
                certify(params, data, ACT),
                lambda_f=2.0 * med(eager["sv_f1"][:, None])[0],
                lambda_min_deep=tuple(2.0 * v for v in med(eager["min_sv_w"])),
                lambda_bar=tuple(v / 1.5 for v in med(eager["norm_w"])),
                alpha0=0.1,
                eta_max=math.inf,
            )
            return params, data, 0.05, 60, cert, cert
        params, data, eta, _, cert = proof_runs_out_at_30(3, {"depth_2": (6, 2), "depth_4": (6, 4, 3, 2)}[case])
        return params, data, eta, 60, cert, cert

    @pytest.mark.parametrize("block_rows", [BLOCK_ROWS, 7])
    @pytest.mark.parametrize(
        "case", [*ROWS, *SEEDS, "uncertified", "one_row", "depth_1", "depth_2", "depth_4", "violations"]
    )
    def test_blocks_equal_the_whole_run(self, case, block_rows, monkeypatch):
        monkeypatch.setattr(gradients, "BLOCK_ROWS", block_rows)
        params, data, eta, max_steps, cert, judge = self.run(case)
        with measured_rows() as rows:
            log = train(params, data, ACT, TrainConfig(eta=eta, max_steps=max_steps), cert=cert)
        assert log.n_steps == self.ROWS.get(case, max_steps + 1)
        assert_read_in_blocks_is_the_whole_run(log, judge, params, data, eta, rows)
        if case in ("w1_seed5", "w1_seed10", "w1_seed30"):
            # W_1 never moves: F_1 is measured on row 0 and the last row
            assert len(log.cells.records[0]) == 2
        elif case == "w1_moves":
            assert 2 < len(log.cells.records[0]) < log.n_steps
        elif case == "uncertified":
            assert len(log.cells.records[0]) == log.n_steps == 41
        elif case == "violations":
            first = monitor_invariants(log, judge).first_violation
            assert None not in first.values() and max(first.values()) > 7, first

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3000), st.data())
    def test_blockwise_power_and_carried_sum_are_the_whole_vector(self, n, data):
        # the bound by np.power over an arange, and a running sum
        # (np.add.accumulate) started from the sum carried over, give on any
        # block of rows the bits of the whole vector
        cut = data.draw(st.integers(0, n), label="cut")
        alpha0 = data.draw(st.floats(0.0, 1.0, exclude_max=True), label="alpha0")
        phi0 = data.draw(st.floats(1e-300, 1e300), label="phi0")
        cert = dataclasses.replace(self.run("one_row")[-1], alpha0=alpha0)
        whole = _decay_bound(cert, 1.0, phi0, 0, n)
        parts = [_decay_bound(cert, 1.0, phi0, 0, cut), _decay_bound(cert, 1.0, phi0, cut, n)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()
        assert ((1.0 - alpha0) ** np.arange(n) * phi0).tobytes() == whole.tobytes()
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = rng.exponential(size=n) * 10.0 ** rng.integers(-30, 30, size=n)
        head, tail = np.add.accumulate(x[:cut]), x[cut:].copy()
        if cut and n > cut:
            tail[0] += head[-1]
        assert np.concatenate([head, np.add.accumulate(tail)]).tobytes() == np.cumsum(x).tobytes()


class TestLazySpectra:
    """The certified trainer measures F_1 where layer 1 is recomputed and
    proves the thresholds of the weights by Weyl's inequality from step 0's
    exact SVDs; from the first step where that proof runs out, it measures
    every matrix on every step.  Replaying the same
    run with an exact SVD on every step (an uncertified run follows
    bit-identical iterates) must give the same flags and the same
    ``sv_f1``, and every logged bound must sit on the right side of the
    exact value."""

    @staticmethod
    def exact_replay(params, data, eta, steps):
        return train(params, data, ACT, TrainConfig(eta=eta, max_steps=steps))

    @staticmethod
    def check_against_exact(lazy, eager, cert):
        """Return the lazy run's flags after checking them, step by step,
        against those of the exact spectra."""
        assert np.array_equal(lazy.loss, eager.loss)
        lazy, eager = log_columns(lazy, cert), log_columns(eager)
        assert eager["spectra_exact"].all()
        want = invariant_flags(
            cert, [eager["sv_f1"], *eager["min_sv_w"].T, *eager["norm_w"].T], eager["loss"], lazy["bound"]
        )
        assert np.array_equal(lazy["flags"], want)
        assert np.array_equal(lazy["sv_f1"], eager["sv_f1"])  # exact on every row
        assert np.all(lazy["min_sv_w"] <= eager["min_sv_w"])
        assert np.all(lazy["norm_w"] >= eager["norm_w"])
        rows = lazy["spectra_exact"]
        assert rows[0] and rows[-1]
        assert np.array_equal(lazy["min_sv_w"][rows], eager["min_sv_w"][rows])
        assert np.array_equal(lazy["norm_w"][rows], eager["norm_w"][rows])
        return lazy["flags"]

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 40), st.sampled_from([(6, 3, 2), (6, 4, 3, 2)]))
    def test_certified_run_matches_exact_spectra(self, seed, widths):
        shape, data, cfg = certifiable_instance(seed=seed, widths=widths)
        _, params, cert = tune_gain(shape, data, ACT, cfg)
        eta = 0.9 * cert.eta_max
        with forward_starts() as starts:
            lazy = train(params, data, ACT, TrainConfig(eta=eta, max_steps=150), cert=cert)
        flags = self.check_against_exact(lazy, self.exact_replay(params, data, eta, 150), cert)
        assert flags.all()
        # the iterates barely move, so the weights need SVDs only at step 0
        # and the last step; F_1 is measured there and on each step between
        # that recomputes layer 1
        assert lazy.spectra_svds == 2 * (len(widths) + 1) + starts[1:-1].count(0)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 40),
        st.sampled_from([(6, 3, 2), (6, 4, 3, 2)]),
        st.sampled_from([0.02, 0.05, 0.1]),
    )
    def test_tightened_floors_force_rebases(self, seed, widths, eta):
        # thresholds at the median of each exact spectral trajectory: the
        # proofs fail near them, the exact SVDs rebase, and flags turn false
        shape, data, cfg = certifiable_instance(seed=seed, widths=widths, y_scale=1.0)
        params = init_certifiable(shape, cfg)
        eager = self.exact_replay(params, data, eta, 60)
        cols = log_columns(eager)
        med = lambda a: tuple(float(v) for v in np.median(a, axis=0))  # noqa: E731
        cert = dataclasses.replace(
            certify(params, data, ACT),
            lambda_f=2.0 * med(cols["sv_f1"][:, None])[0],
            lambda_min_deep=tuple(2.0 * v for v in med(cols["min_sv_w"])),
            lambda_bar=tuple(v / 1.5 for v in med(cols["norm_w"])),
            alpha0=0.01,
            eta_max=math.inf,
        )
        with forward_starts() as starts:
            lazy = train(params, data, ACT, TrainConfig(eta=eta, max_steps=60), cert=cert)
        flags = self.check_against_exact(lazy, eager, cert)
        assert not flags[:, :3].all()
        assert lazy.spectra_svds > 2 * (len(widths) + 1)
        # every matrix is measured on row 0 and on each row from the first
        # after it that measured every matrix; F_1 alone on the rows before
        # that which recompute layer 1
        exact = log_columns(lazy)["spectra_exact"]
        first = 1 + int(np.argmax(exact[1:]))
        assert exact[0] and exact[first:].all() and not exact[1:first].any()
        n_all = 1 + lazy.n_steps - first
        assert lazy.spectra_svds == (len(widths) + 1) * n_all + starts[1:first].count(0)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 40), st.sampled_from([(6, 3, 2), (6, 4, 3, 2)]))
    def test_proof_runs_out_mid_run(self, seed, widths):
        # the weights' thresholds sit one path length past step 0's exact
        # extremes, that path being 2 * eta times the first 30 gradient
        # norms: the running sum, whose rate is a little above 2 * eta,
        # passes the proof's limit at row 30 and not before, and from there
        # every matrix is measured on every row
        params, data, eta, eager, cert = proof_runs_out_at_30(seed, widths)
        with forward_starts() as starts, measured_rows() as rows:
            lazy = train(params, data, ACT, TrainConfig(eta=eta, max_steps=60), cert=cert)
        self.check_against_exact(lazy, eager, cert)
        assert_read_in_blocks_is_the_whole_run(lazy, cert, params, data, eta, rows)
        exact = log_columns(lazy)["spectra_exact"]
        first = 1 + int(np.argmax(exact[1:]))
        assert first == 30
        assert_cells_are_the_block(lazy, params, data, eta, 60, cert)
        assert exact[first:].all() and not exact[1:first].any()
        n_all = 1 + lazy.n_steps - first
        assert lazy.spectra_svds == (len(widths) + 1) * n_all + starts[1:first].count(0)

    @pytest.mark.parametrize("seed", [5, 10, 30])
    def test_unmoved_w1_keeps_layer_1(self, seed):
        # W_1 never moves on these runs, though its step is not far below
        # every entry's spacing: layer 1 must be kept on every pass after
        # step 0, and F_1 and the weights measured only at step 0 and the
        # last step
        shape, data, cfg = certifiable_instance(seed=seed)
        _, params, cert = tune_gain(shape, data, ACT, cfg)
        eta = 0.9 * cert.eta_max
        with forward_starts() as starts:
            log = train(params, data, ACT, TrainConfig(eta=eta, max_steps=150), cert=cert)
        assert starts == [0] + [1] * 150
        assert log.spectra_svds == 8
        assert np.array_equal(log.final_params.weights[0], params.weights[0])

    def test_threshold_met_with_equality_is_checked_exactly(self):
        # with eta = 0 the displacement is exactly 0, so only the rounding
        # margin stands between a weight's bound and a threshold equal to
        # the exact value: it must never be proven without an SVD
        shape, data, cfg = certifiable_instance(widths=(6, 4, 3, 2))
        params = init_certifiable(shape, cfg)
        eager = log_columns(self.exact_replay(params, data, 0.0, 0))
        cert = dataclasses.replace(
            certify(params, data, ACT),
            lambda_f=2.0 * float(eager["sv_f1"][0]),
            lambda_min_deep=tuple(2.0 * float(v) for v in eager["min_sv_w"][0]),
        )
        lazy = train(params, data, ACT, TrainConfig(eta=0.0, max_steps=5), cert=cert)
        assert log_columns(lazy, cert)["flags"].all()
        # W_3's and W_4's limits are -inf at step 0, so the run's limit is
        # too: every matrix is measured on all 6 rows
        assert lazy.spectra_svds == 6 * 5
        assert log_columns(lazy)["spectra_exact"].all()
