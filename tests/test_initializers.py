"""Initializer determinism and statistics, gain tuning, and sphere data."""

import math

import numpy as np
import pytest
from oracles import tune_gain_literal

from pyrcert import initializers
from pyrcert.activation import ActivationParams, evaluate
from pyrcert.certificates import certificate_from_spectra, certify
from pyrcert.initializers import (
    InitConfig,
    first_layer,
    init_certifiable,
    init_lecun,
    layer_rng,
    sphere_data,
    sphere_targets,
    tune_gain,
)
from pyrcert.network import Dataset, Shape, forward, loss

ACT = ActivationParams(0.5, 1.0)


def make_data(n=6, d=4, n_out=2, seed=0, y_scale=1.0):
    X = sphere_data(n, d, seed=seed)
    Y = y_scale * layer_rng(seed, 999).normal(size=(n, n_out))
    return Dataset(X, Y)


class TestInitConfig:
    def test_rejects_gain_at_or_below_one(self):
        with pytest.raises(ValueError):
            InitConfig(gain=1.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["gain"])
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            InitConfig(**{field: value})

    # a float seed once drew the weights of its truncation, and a negative
    # one failed later inside NumPy without naming the field
    @pytest.mark.parametrize("seed", [1.5, -1, True, "3"])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            InitConfig(seed=seed)
        with pytest.raises(ValueError, match="seed"):
            layer_rng(seed, 1)

    def test_numpy_integer_seed_is_stored_as_int(self):
        assert type(InitConfig(seed=np.int64(3)).seed) is int


class TestCertifiableInit:
    def test_zero_second_layer_zeroes_the_output(self):
        shape = Shape(d=4, widths=(6, 3, 2))
        data = make_data()
        params = init_certifiable(shape, InitConfig())
        assert np.all(forward(params, data, ACT).F[-1] == 0.0)
        # so the initial loss is exactly half the squared target norm
        assert loss(params, data, ACT) == pytest.approx(
            0.5 * np.linalg.norm(data.Y) ** 2, rel=1e-15
        )

    def test_scaled_identity_spectrum_is_exactly_the_gain(self):
        shape = Shape(d=4, widths=(6, 4, 4, 2))
        gain = 2.5
        params = init_certifiable(shape, InitConfig(gain=gain))
        for w in params.weights[2:]:
            svs = np.linalg.svd(w, compute_uv=False)
            assert svs[0] == svs[-1] == gain

    def test_deterministic_and_layer_streams_stable(self):
        cfg = InitConfig(seed=9)
        a = init_certifiable(Shape(d=4, widths=(6, 3, 2)), cfg)
        b = init_certifiable(Shape(d=4, widths=(6, 3, 2)), cfg)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        # adding a layer must not change the earlier draws
        deeper = init_certifiable(Shape(d=4, widths=(6, 3, 3, 2)), cfg)
        np.testing.assert_array_equal(a.weights[0], deeper.weights[0])

    def test_initial_loss_chain_bound(self):
        # sqrt(2 phi0) <= ||Y||_F + prod ||W_l||_2 * ||X||_F on every draw
        for seed in range(10):
            shape = Shape(d=4, widths=(8, 4, 2))
            data = make_data(n=8, seed=seed)
            params = init_lecun(shape, seed)  # a nonzero W_2
            phi0 = loss(params, data, ACT)
            prod = np.prod([np.linalg.norm(w, 2) for w in params.weights])
            rhs = np.linalg.norm(data.Y) + prod * np.linalg.norm(data.X)
            assert math.sqrt(2 * phi0) <= rhs * (1 + 1e-12)


def aligned_instance(widths, seed):
    """The acceptance layout: N=16, d=8, aligned targets of norm 0.1."""
    shape = Shape(d=8, widths=widths)
    X = sphere_data(16, 8, seed=seed)
    return shape, Dataset(X, sphere_targets("aligned", shape, X, ACT, seed, 0.1))


class TestTuneGain:
    def test_finds_certifying_gain(self):
        shape = Shape(d=4, widths=(6, 3, 2))
        data = make_data(y_scale=0.3)
        gain, params, cert = tune_gain(shape, data, ACT, InitConfig())
        assert cert.certified
        assert gain > 1.0
        # returned params really are drawn at the returned gain
        assert np.linalg.svd(params.weights[2], compute_uv=False)[0] == gain

    def test_degenerate_data_returns_first_attempt(self):
        X = sphere_data(6, 4, seed=1)
        X[1] = X[0]
        data = Dataset(X, make_data().Y)
        cfg = InitConfig()
        gain, params, cert = tune_gain(Shape(d=4, widths=(6, 3, 2)), data, ACT, cfg)
        assert gain == cfg.gain
        assert not cert.certified and cert.degenerate_reason == "degenerate data"
        assert np.linalg.svd(params.weights[2], compute_uv=False)[0] == cfg.gain

    def test_depth_two_refusal_takes_one_attempt(self, monkeypatch):
        # widths 16-2 have no deep layer, so the gain enters no weight: the
        # first attempt's refusal stands, and no other gain is tried
        shape, data = aligned_instance((16, 2), seed=0)
        cfg = InitConfig()
        calls = []

        def counting_certify(*args):
            calls.append(args)
            return certify(*args)

        monkeypatch.setattr(initializers, "certify", counting_certify)
        gain, params, cert = tune_gain(shape, data, ACT, cfg)
        assert len(calls) == 1
        want = init_certifiable(shape, cfg)
        assert gain == cfg.gain == 2.0 and not cert.certified
        assert all(np.array_equal(a, b) for a, b in zip(params.weights, want.weights))
        assert repr(cert) == repr(certify(want, data, ACT))


class TestGainReplay:
    """``tune_gain`` decides every gain but the first and the last from one
    measurement; these pin its premise and its cost."""

    # the doubling grid, off-grid bisection points, the margin and both ends
    GAINS = sorted(
        {2.0 * 2.0**k for k in range(50)}
        | {2.0 * 2.0 ** (k + 0.5) for k in range(0, 50, 7)}
        | {3.7, 1234.5678, 6.02e14, initializers.GAIN_MAX * initializers.GAIN_MARGIN}
    )

    @pytest.mark.parametrize("depth", [3, 4, 8, 20])
    def test_replayed_certificate_is_the_real_one(self, depth):
        shape, data = aligned_instance((16,) + (6,) * (depth - 2) + (2,), seed=1)
        cert0 = certify(init_certifiable(shape, InitConfig(seed=1)), data, ACT)

        def outcome(evaluate):
            # a deep product past the float range raises in both alike
            try:
                return repr(evaluate())
            except ValueError as exc:
                return repr(exc)

        for g in self.GAINS:
            deep = (g,) * (depth - 2)
            replayed = outcome(lambda: certificate_from_spectra(
                cert0.lambda_bar[:2] + deep, deep, cert0.lambda_f, data.X, cert0.phi0, ACT
            ))
            real = outcome(lambda: certify(
                init_certifiable(shape, InitConfig(gain=g, seed=1)), data, ACT
            ))
            assert replayed == real, g

    @pytest.mark.parametrize(
        "widths, seed, calls, certified",
        [((16, 6, 2), 36, 1, False), ((16, 6, 4, 2), 0, 2, True)],
    )
    def test_certify_calls(self, monkeypatch, widths, seed, calls, certified):
        # one draw at the configured gain, one more only if the gain moved
        shape, data = aligned_instance(widths, seed)
        seen = []

        def counting_certify(*args):
            seen.append(args)
            return certify(*args)

        monkeypatch.setattr(initializers, "certify", counting_certify)
        gain, params, cert = tune_gain(shape, data, ACT, InitConfig(seed=seed))
        assert len(seen) == calls and cert.certified is certified
        assert (gain != 2.0) is (calls == 2)
        assert repr(cert) == repr(certify(params, data, ACT))


class TestGainSearch:
    @pytest.mark.parametrize("mode", ["aligned", "gaussian"])
    @pytest.mark.parametrize("seed", [0, 6, 36])
    @pytest.mark.parametrize("depth", [3, 4, 8, 20])
    def test_matches_the_literal_search(self, depth, seed, mode):
        # the one loop tries the gains of doubling, then bisection, in order
        shape = Shape(d=8, widths=(16,) + (6,) * (depth - 2) + (2,))
        X = sphere_data(16, 8, seed=seed)
        data = Dataset(X, sphere_targets(mode, shape, X, ACT, seed, 0.1))
        gain, _, cert = tune_gain(shape, data, ACT, InitConfig(seed=seed))
        want_gain, want_cert = tune_gain_literal(shape, data, ACT, InitConfig(seed=seed))
        assert gain == want_gain
        assert repr(cert) == repr(want_cert)


class TestLecunInit:
    def test_deterministic(self):
        shape = Shape(d=8, widths=(16, 8, 4))
        a = init_lecun(shape, seed=5)
        b = init_lecun(shape, seed=5)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_sample_variance_matches_reciprocal_fan_in(self):
        shape = Shape(d=256, widths=(256, 256, 2))
        params = init_lecun(shape, seed=7)
        assert np.var(params.weights[1]) == pytest.approx(1.0 / 256, rel=0.1)

    def test_operator_norm_concentration(self):
        # scaled singular-value interval holds with freq >= 1 - 2e^{-t^2/2}
        m, n, t = 256, 64, 2.0
        lo = (math.sqrt(m) - math.sqrt(n) - t) / math.sqrt(m)
        hi = (math.sqrt(m) + math.sqrt(n) + t) / math.sqrt(m)
        shape = Shape(d=m, widths=(n, n, 2))
        hits = 0
        trials = 300
        for s in range(trials):
            w = init_lecun(shape, seed=s).weights[0]
            svs = np.linalg.svd(w, compute_uv=False)
            hits += lo <= svs[-1] and svs[0] <= hi
        assert hits / trials >= 1 - 2 * math.exp(-(t**2) / 2)


class TestSphereData:
    def test_row_norms_exact(self):
        X = sphere_data(100, 7, seed=3)
        np.testing.assert_allclose(np.linalg.norm(X, axis=1), math.sqrt(7), atol=1e-12)

    def test_custom_radius(self):
        X = sphere_data(10, 3, radius=2.5, seed=4)
        np.testing.assert_allclose(np.linalg.norm(X, axis=1), 2.5, atol=1e-12)

    def test_dimension_one_gives_signs(self):
        X = sphere_data(50, 1, seed=5)
        assert set(np.unique(X)) <= {-1.0, 1.0}

    def test_isotropy_of_the_mean(self):
        X = sphere_data(10_000, 6, seed=6)
        # mean of iid uniform sphere rows shrinks like 1/sqrt(N)
        assert np.linalg.norm(X.mean(axis=0)) <= 4.0 / math.sqrt(10_000) * math.sqrt(6)

    def test_deterministic(self):
        np.testing.assert_array_equal(sphere_data(5, 3, seed=8), sphere_data(5, 3, seed=8))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="n_samples"):
            sphere_data(0, 3)
        with pytest.raises(ValueError):
            sphere_data(3, 3, radius=-1.0)
        # a bool radius would draw rows of norm 1
        for flag in (True, np.bool_(True)):
            with pytest.raises(ValueError, match="radius"):
                sphere_data(3, 2, radius=flag)
        # sizes and seeds are refused, not truncated
        with pytest.raises(ValueError, match="n_samples"):
            sphere_data(4.5, 3)
        with pytest.raises(ValueError, match="d must"):
            sphere_data(4, 3.0)
        with pytest.raises(ValueError, match="seed"):
            sphere_data(4, 3, seed=1.7)
        with pytest.raises(ValueError, match="seed"):
            sphere_data(4, 3, seed=-2)


class TestSphereTargets:
    SHAPE = Shape(d=4, widths=(6, 3, 2))

    @pytest.mark.parametrize("mode", ["gaussian", "aligned"])
    def test_frobenius_norm_is_the_scale(self, mode):
        X = sphere_data(6, 4, seed=1)
        Y = sphere_targets(mode, self.SHAPE, X, ACT, 1, 0.3)
        assert Y.shape == (6, 2)
        assert np.linalg.norm(Y) == pytest.approx(0.3, rel=1e-14)
        np.testing.assert_array_equal(Y, sphere_targets(mode, self.SHAPE, X, ACT, 1, 0.3))

    def test_aligned_targets_follow_the_dominant_feature_direction(self):
        X = sphere_data(6, 4, seed=2)
        Y = sphere_targets("aligned", self.SHAPE, X, ACT, 2, 1.0)
        u = np.linalg.svd(evaluate(ACT, X @ first_layer(self.SHAPE, 2)))[0][:, 0]
        np.testing.assert_allclose(Y, np.outer(u, [0.5**0.5, 0.5**0.5]), rtol=1e-15)

    def test_gaussian_targets_depend_on_the_seed_only(self):
        X = sphere_data(6, 4, seed=3)
        Y = sphere_targets("gaussian", self.SHAPE, X, ACT, 3, 1.0)
        np.testing.assert_array_equal(Y, sphere_targets("gaussian", self.SHAPE, 2 * X, ACT, 3, 1.0))
        assert not np.array_equal(Y, sphere_targets("gaussian", self.SHAPE, X, ACT, 4, 1.0))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="target mode"):
            sphere_targets("spherical", self.SHAPE, sphere_data(6, 4), ACT, 0, 1.0)

    BAD_SCALES = ["1", None, True, np.True_, 1 + 0j, math.nan, math.inf, -math.inf, -1.0, -5e-324]

    @pytest.mark.parametrize("mode", ["gaussian", "aligned"])
    @pytest.mark.parametrize("scale", BAD_SCALES, ids=repr)
    def test_rejects_bad_scale(self, mode, scale):
        # refused by name, in either mode, before any target is drawn
        with pytest.raises(ValueError, match="scale"):
            sphere_targets(mode, self.SHAPE, sphere_data(6, 4), ACT, 0, scale)

    @pytest.mark.parametrize("scale", [0, 0.0, 1, np.float64(0.3), np.int64(2)])
    def test_accepts_real_scales_at_least_zero(self, scale):
        Y = sphere_targets("gaussian", self.SHAPE, sphere_data(6, 4), ACT, 0, scale)
        assert Y.dtype == np.float64 and np.linalg.norm(Y) == pytest.approx(float(scale), rel=1e-14)


class TestLecunOutputBound:
    def test_forward_norm_bound_frequency(self):
        # ||F_L||_F <= 2^(L-1) ||X||_F/sqrt(d) (sqrt(n_L)+t) across seeds
        t = 2.0
        shape = Shape(d=8, widths=(64, 16, 4))
        X = sphere_data(8, 8, seed=21)
        data = Dataset(X, np.zeros((8, 4)))
        rhs = 2 ** (shape.depth - 1) * np.linalg.norm(X) / math.sqrt(8) * (2.0 + t)
        hits = 0
        trials = 200
        for s in range(trials):
            tr = forward(init_lecun(shape, seed=s), data, ACT)
            hits += np.linalg.norm(tr.F[-1]) <= rhs
        assert hits / trials >= 1 - shape.depth * math.exp(-(t**2) / 2)
