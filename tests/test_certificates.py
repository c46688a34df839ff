"""Certificate constants versus direct SVD/formula oracles, assumption
verdict behavior, and trajectory-invariant monitoring."""

import csv
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import distance_envelope, trainlog_from_csv

from pyrcert.activation import ActivationParams, as_function, evaluate
from pyrcert.certificates import (
    InvariantReport,
    certificate_from_json,
    certificate_to_json,
    certify,
    check_assumption,
    invariant_flags,
    monitor_invariants,
    rate_constants,
    spectral_quantities,
)
from pyrcert.gradients import TrainConfig, train, trainlog_to_csv
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


def csv_cell_by_cell(log, path, report):
    """The training-log CSV written one ``format`` call per cell."""
    L = log.final_params.depth
    header = ["k", "loss", "bound", "sv_F1"]
    header.extend(f"min_sv_W{l}" for l in range(3, L + 1))
    header.extend(f"max_norm_W{l}" for l in range(1, L + 1))
    header.extend(["grad_norm", "spectra_exact"])
    bound = np.full(log.n_steps, math.nan)
    if report is not None:
        header.extend("flag_" + name for name in InvariantReport.CHECKS)
        bound = report.bound

    def fmt(v):
        return format(float(v), ".17g")

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(log.n_steps):
            row = [i, fmt(log.loss[i]), fmt(bound[i]), fmt(log.sv_f1[i])]
            row.extend(fmt(v) for v in log.min_sv_w[i])
            row.extend(fmt(v) for v in log.norm_w[i])
            row.extend([fmt(log.grad_norm[i]), int(log.spectra_exact[i])])
            if report is not None:
                row.extend(int(b) for b in report.flags[i])
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
    """The ``bound`` column ``monitor_invariants`` gives a run of ``n_steps``
    records at step size ``eta`` from initial loss ``phi0`` under a
    certificate of rate ``alpha0``."""
    shape, data, cfg = certifiable_instance()
    _, params, cert = tune_gain(shape, data, ACT, cfg)
    log = train(params, data, ACT, TrainConfig(eta=0.0, max_steps=n_steps - 1))
    log = dataclasses.replace(log, eta=eta, loss=np.full(n_steps, phi0))
    return monitor_invariants(log, dataclasses.replace(cert, alpha0=alpha0)).bound


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
        params = init_certifiable(shape, dup, cfg)
        cert = certify(params, dup, ACT)
        assert not cert.cond1_holds and not cert.cond2_holds
        assert cert.degenerate_reason == "degenerate data"

    def test_gain_sweep_flips_verdict_at_finite_gain(self):
        shape, data, cfg = certifiable_instance()
        seen_fail = seen_pass = False
        flip = None
        for j in range(60):
            gain = 2.0 ** (j + 1)
            params = init_certifiable(
                shape, data, InitConfig(gain=gain, seed=cfg.seed)
            )
            cert = certify(params, data, ACT)
            if cert.cond1_holds and cert.cond2_holds:
                seen_pass = True
                flip = gain
                break
            seen_fail = True
        assert seen_fail and seen_pass
        # once flipped, a larger gain keeps it passing (monotone slack)
        params = init_certifiable(shape, data, InitConfig(gain=4 * flip, seed=cfg.seed))
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
        lb = (1.5, 0.8, 2.0)
        lm = (1.7,)
        X = sphere_data(5, 3, seed=2)
        v1 = check_assumption(lb, lm, 0.5, X, 1.0, 0.5)
        v2 = check_assumption(lb, lm, 1.0, X, 1.0, 0.5)
        assert v2.cond1_slack > v1.cond1_slack
        assert v2.cond1_slack == pytest.approx(4.0 * v1.cond1_slack, rel=1e-12)

    def test_zero_loss_holds_trivially(self):
        X = sphere_data(4, 3, seed=3)
        v = check_assumption((1.0, 1.0), (), 0.0, X, 0.0, 0.5)
        assert v.cond1_holds and v.cond2_holds
        assert v.cond1_slack == math.inf


class TestRateConstants:
    def test_depth_two_alpha0_cancels_gamma(self):
        X = sphere_data(4, 3, seed=4)
        for gamma in (0.1, 0.3, 0.5, 0.9):
            act = ActivationParams(gamma, 1.0)
            alpha0, *_ = rate_constants((1.0, 1.0), (), 2.0, X, 1.0, act)
            assert alpha0 == pytest.approx(1.0, rel=1e-12)

    def test_r_product_floors_at_one(self):
        X = sphere_data(4, 3, seed=5)
        _, _, _, r_prod, _, _ = rate_constants(
            (2 / 3, 2 / 3, 0.5), (0.4,), 1.0, X, 1.0, ACT
        )
        assert r_prod == 1.0

    def test_zero_initial_loss_zeroes_q1(self):
        X = sphere_data(4, 3, seed=6)
        _, _, q1, _, _, vac = rate_constants((1.0, 1.0), (), 2.0, X, 0.0, ACT)
        assert q1 == 0.0 and not vac

    def test_vacuous_when_lambda_f_zero(self):
        X = sphere_data(4, 3, seed=7)
        alpha0, _, q1, _, eta_max, vac = rate_constants((1.0, 1.0), (), 0.0, X, 1.0, ACT)
        assert vac and alpha0 == 0.0 and math.isinf(q1) and math.isnan(eta_max)

    def test_eta_max_is_min_of_inverses(self):
        shape, data, cfg = certifiable_instance()
        _, _, cert = tune_gain(shape, data, ACT, cfg)
        assert cert.eta_max == pytest.approx(min(1 / cert.alpha0, 1 / cert.q0), rel=1e-15)


class TestPredictedDecay:
    def test_arithmetic(self):
        assert decay_bound(1.0, 0.1, 1.0, 3)[2] == pytest.approx(0.81, rel=1e-15)
        assert decay_bound(1.0, 0.5, 8.0, 4)[3] == pytest.approx(1.0, rel=1e-15)

    def test_step_zero_returns_initial_loss(self):
        assert decay_bound(2.0, 0.01, 7.0, 1)[0] == 7.0

    def test_vectorized_over_steps(self):
        out = decay_bound(1.0, 0.5, 8.0, 4)
        np.testing.assert_allclose(out, [8.0, 4.0, 2.0, 1.0], rtol=1e-15)


class TestCertify:
    def test_requires_wide_first_layer(self):
        shape, data, cfg = certifiable_instance()
        narrow = Shape(d=shape.d, widths=(4, 3, 2))  # n1 < N = 6
        with pytest.warns(UserWarning, match="below the sample count"):
            params = init_certifiable(narrow, data, cfg)
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
        depth2 = certify(init_certifiable(shape2, data2, cfg), data2, ACT)
        X = data.X.copy()
        X[1] = X[0]  # duplicate row: lambda_F = 0
        dup = Dataset(X, data.Y)
        degenerate = certify(init_certifiable(shape, dup, cfg), dup, ACT)
        assert depth2.lambda_min_deep == () and degenerate.degenerate_reason is not None
        for i, want in enumerate((cert, vacuous, depth2, degenerate)):
            path = tmp_path / f"cert{i}.json"
            certificate_to_json(want, path)
            back = certificate_from_json(path)
            for f in dataclasses.fields(want):
                a, b = getattr(back, f.name), getattr(want, f.name)
                assert a == b or (a != a and b != b), (i, f.name, a, b)
                assert type(a) is type(b), (i, f.name, a, b)


class TestMonitorInvariants:
    def make_certified_run(self, max_steps=400):
        shape, data, cfg = certifiable_instance()
        _, params, cert = tune_gain(shape, data, ACT, cfg)
        log = train(
            params, data, ACT, TrainConfig(eta=0.9 * cert.eta_max, max_steps=max_steps), cert=cert
        )
        return log, cert

    def test_certified_run_has_zero_violations(self):
        log, cert = self.make_certified_run()
        report = monitor_invariants(log, cert)
        assert report.all_hold
        assert all(v is None for v in report.first_violation.values())
        assert report.flags.shape == (log.n_steps, 4)

    def test_bound_column_is_predicted_decay(self):
        # the vectorised (1 - eta*alpha0)**k * phi0: a scalar power per step
        # would differ from it in the last bit on some steps
        log, cert = self.make_certified_run(max_steps=3000)
        report = monitor_invariants(log, cert)
        want = (1.0 - log.eta * cert.alpha0) ** np.arange(log.n_steps) * log.phi0
        assert np.array_equal(report.bound, want)
        assert np.array_equal(report.flags[:, 3], log.loss <= want)

    def test_csv_round_trip(self, tmp_path):
        # the CSV carries the report's bound and flags and every log column
        # bitwise, under one flag column per check
        log, cert = self.make_certified_run()
        report = monitor_invariants(log, cert)
        path = tmp_path / "trainlog.csv"
        trainlog_to_csv(log, path, report)
        cols = trainlog_from_csv(path)
        flag_names = [name for name in cols if name.startswith("flag_")]
        assert flag_names == ["flag_" + name for name in InvariantReport.CHECKS]
        assert np.array_equal(cols["k"], np.arange(log.n_steps))
        assert np.array_equal(cols["bound"], report.bound)
        for i, name in enumerate(flag_names):
            assert np.array_equal(cols[name], report.flags[:, i])
        L = log.final_params.depth
        logged = {
            "loss": log.loss,
            "grad_norm": log.grad_norm,
            "sv_F1": log.sv_f1,
            "spectra_exact": log.spectra_exact,
            **{f"min_sv_W{l}": log.min_sv_w[:, l - 3] for l in range(3, L + 1)},
            **{f"max_norm_W{l}": log.norm_w[:, l - 1] for l in range(1, L + 1)},
        }
        assert set(cols) == {"k", "bound", *flag_names, *logged}
        for name, want in logged.items():
            assert np.array_equal(cols[name], want), name

    def test_csv_bytes_match_the_cell_by_cell_writer(self, tmp_path):
        # the block-wise %-template writer against csv.writer with one
        # format() per cell, on a log of several blocks and a partial one
        log, cert = self.make_certified_run()
        report = monitor_invariants(log, cert)
        assert log.n_steps % 64 != 0 and log.n_steps > 128
        odd = dataclasses.replace(log, loss=log.loss.copy())
        odd.loss[:4] = [math.inf, -math.inf, math.nan, -0.0]
        for run, rep in ((log, report), (log, None), (odd, report)):
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            trainlog_to_csv(run, got, rep)
            csv_cell_by_cell(run, want, rep)
            assert got.read_bytes() == want.read_bytes()

    def test_csv_without_a_report_allocates_no_bound_column(self, tmp_path):
        # the NaN bound cells come from the row template; a report's bound
        # and flags exist before the write, so a write without one peaks
        # no higher than a write with one
        log, cert = self.make_certified_run(max_steps=20_000)
        report = monitor_invariants(log, cert)
        peaks = []
        for rep in (report, None):
            trainlog_to_csv(log, tmp_path / "warm.csv", rep)
            tracemalloc.start()
            try:
                trainlog_to_csv(log, tmp_path / "log.csv", rep)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0], peaks

    def test_step_zero_flags_true_by_construction(self):
        log, cert = self.make_certified_run(max_steps=0)
        report = monitor_invariants(log, cert)
        assert bool(np.all(report.flags[0]))

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
        assert report.flags.shape == (log.n_steps, 4)
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


class TestDepthTwo:
    def test_depth_two_certificate_and_run(self):
        # no deep layers: products over layers 3..L are empty and the
        # certificate can only be met by small enough initial loss
        shape = Shape(d=3, widths=(8, 2))
        X = sphere_data(6, 3, seed=0)
        cfg = InitConfig(seed=0)
        data = Dataset(X, sphere_targets("aligned", shape, X, ACT, 0, 1e-9))
        params = init_certifiable(shape, data, cfg)
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


class TestLazySpectra:
    """The certified trainer proves its spectral thresholds by Weyl's
    inequality and takes an exact SVD only when the proof fails.  Replaying
    the same run with an exact SVD on every step (an uncertified run
    follows bit-identical iterates) must give the same flags, and every
    logged bound must sit on the right side of the exact value."""

    @staticmethod
    def exact_replay(params, data, eta, steps):
        return train(params, data, ACT, TrainConfig(eta=eta, max_steps=steps))

    @staticmethod
    def check_against_exact(lazy, eager, cert):
        """Return the lazy run's flags after checking them, step by step,
        against those of the exact spectra."""
        assert np.array_equal(lazy.loss, eager.loss)
        assert eager.spectra_exact.all()
        report = monitor_invariants(lazy, cert)
        want = invariant_flags(
            cert, eager.sv_f1, eager.min_sv_w, eager.norm_w, eager.loss, report.bound
        )
        assert np.array_equal(report.flags, want)
        assert np.all(lazy.sv_f1 <= eager.sv_f1)
        assert np.all(lazy.min_sv_w <= eager.min_sv_w)
        assert np.all(lazy.norm_w >= eager.norm_w)
        rows = lazy.spectra_exact
        assert rows[0] and rows[-1]
        assert np.array_equal(lazy.sv_f1[rows], eager.sv_f1[rows])
        assert np.array_equal(lazy.min_sv_w[rows], eager.min_sv_w[rows])
        assert np.array_equal(lazy.norm_w[rows], eager.norm_w[rows])
        return report.flags

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 40), st.sampled_from([(6, 3, 2), (6, 4, 3, 2)]))
    def test_certified_run_matches_exact_spectra(self, seed, widths):
        shape, data, cfg = certifiable_instance(seed=seed, widths=widths)
        _, params, cert = tune_gain(shape, data, ACT, cfg)
        eta = 0.9 * cert.eta_max
        lazy = train(params, data, ACT, TrainConfig(eta=eta, max_steps=150), cert=cert)
        flags = self.check_against_exact(lazy, self.exact_replay(params, data, eta, 150), cert)
        assert flags.all()
        # the iterates barely move, so only step 0 and the last step need SVDs
        assert lazy.spectra_svds == 2 * (len(widths) + 1)

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
        params = init_certifiable(shape, data, cfg)
        eager = self.exact_replay(params, data, eta, 60)
        med = lambda a: tuple(float(v) for v in np.median(a, axis=0))  # noqa: E731
        cert = dataclasses.replace(
            certify(params, data, ACT),
            lambda_f=2.0 * med(eager.sv_f1[:, None])[0],
            lambda_min_deep=tuple(2.0 * v for v in med(eager.min_sv_w)),
            lambda_bar=tuple(v / 1.5 for v in med(eager.norm_w)),
            alpha0=0.01,
            eta_max=math.inf,
        )
        lazy = train(params, data, ACT, TrainConfig(eta=eta, max_steps=60), cert=cert)
        flags = self.check_against_exact(lazy, eager, cert)
        assert not flags[:, :3].all()
        assert lazy.spectra_svds > 2 * (len(widths) + 1)

    def test_threshold_met_with_equality_is_checked_exactly(self):
        # with eta = 0 the displacement is exactly 0, so only the rounding
        # margin stands between the bound and a threshold equal to the exact
        # value: it must never be proven without an SVD
        shape, data, cfg = certifiable_instance(widths=(6, 4, 3, 2))
        params = init_certifiable(shape, data, cfg)
        eager = self.exact_replay(params, data, 0.0, 0)
        cert = dataclasses.replace(
            certify(params, data, ACT),
            lambda_f=2.0 * float(eager.sv_f1[0]),
            lambda_min_deep=tuple(2.0 * float(v) for v in eager.min_sv_w[0]),
        )
        lazy = train(params, data, ACT, TrainConfig(eta=0.0, max_steps=5), cert=cert)
        assert monitor_invariants(lazy, cert).flags.all()
        # F_1, W_3 and W_4 on every step; W_1 and W_2 only at steps 0 and 5
        assert lazy.spectra_svds == 6 * 3 + 2 * 2
