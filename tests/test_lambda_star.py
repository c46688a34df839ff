"""Hermite polynomials/coefficients, Khatri-Rao powers, and the two Gram
estimators, cross-checked against each other and closed-form cases."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import hermite_poly
from scipy import special

from pyrcert import lambda_star as ls_mod
from pyrcert.activation import ActivationParams, as_function
from pyrcert.initializers import sphere_data
from pyrcert.lambda_star import (
    gram_hermite,
    gram_mc,
    hermite_coeffs,
    khatri_rao_power,
    kr_min_singular,
    sigma_linear,
)


ACT = ActivationParams(0.5, 1.0)
SIGMA = as_function(ACT)


class TestHermitePoly:
    def test_first_two_orders(self):
        xs = np.linspace(-3, 3, 11)
        np.testing.assert_array_equal(hermite_poly(0, xs), np.ones(11))
        np.testing.assert_array_equal(hermite_poly(1, xs), xs)

    def test_order_two_at_zero(self):
        assert hermite_poly(2, 0.0) == pytest.approx(-1.0 / math.sqrt(2), rel=1e-15)

    def test_orthonormal_under_gaussian_weight(self):
        nodes, weights = special.roots_hermite(200)
        y = math.sqrt(2.0) * nodes
        for j in range(11):
            hj = hermite_poly(j, y)
            for k in range(j, 11):
                hk = hermite_poly(k, y)
                inner = float(np.sum(weights * hj * hk)) / math.sqrt(math.pi)
                assert inner == pytest.approx(1.0 if j == k else 0.0, abs=1e-8)

    def test_order_cap(self):
        # the series stops at MAX_HERMITE_ORDER, where 64-bit values stay stable
        with pytest.raises(ValueError, match="cap 200"):
            hermite_coeffs(SIGMA, 201)
        with pytest.raises(ValueError, match=">= 0"):
            hermite_coeffs(SIGMA, -1)
        with pytest.raises(ValueError, match="order must be an integer"):
            hermite_coeffs(SIGMA, 3.9)


class TestHermiteCoeff:
    def test_linear_target(self):
        spec = hermite_coeffs(sigma_linear, 6)
        assert spec.coeffs[1] == pytest.approx(1.0, abs=1e-10)
        others = np.delete(spec.coeffs, 1)
        assert np.max(np.abs(others)) <= 1e-10

    def test_square_target(self):
        spec = hermite_coeffs(lambda x: np.asarray(x) ** 2, 6)
        assert spec.coeffs[0] == pytest.approx(1.0, abs=1e-10)
        assert spec.coeffs[2] == pytest.approx(math.sqrt(2.0), abs=1e-10)
        others = np.delete(spec.coeffs, [0, 2])
        assert np.max(np.abs(others)) <= 1e-10

    def test_smoothed_activation_coeffs_stable_under_refinement(self):
        # the narrow Gaussian bump needs ~200 nodes; from there the start of
        # the doubling does not matter: 800 nodes move no coefficient by 1e-9
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = hermite_coeffs(SIGMA, 10)
        fine, _ = ls_mod._coeffs_at_order(SIGMA, 10, 800)
        assert np.all(spec.converged)
        assert np.max(np.abs(spec.coeffs - fine)) <= 1e-9

    def test_single_coefficient_helper(self):
        assert hermite_coeffs(SIGMA, 1).coeffs[1] == pytest.approx((1 + ACT.gamma) / 2, abs=1e-10)

    def test_nonconvergent_target_flagged(self):
        # a cusp keeps high-order quadrature from stabilizing to 1e-8
        rough = lambda x: np.sqrt(np.abs(np.asarray(x)))
        with pytest.warns(UserWarning, match="did not stabilize"):
            spec = hermite_coeffs(rough, 40)
        assert not np.all(spec.converged)

    def test_nonpolynomiality_witness(self):
        # some coefficient of order >= 3 stays bounded away from zero
        spec = hermite_coeffs(SIGMA, 10)
        assert np.max(np.abs(spec.coeffs[3:])) > 1e-6

    def test_odd_orders_above_one_vanish(self):
        # the activation is linear-plus-even, so mu_3, mu_5, ... are zero
        spec = hermite_coeffs(SIGMA, 9)
        assert abs(spec.coeffs[3]) <= 1e-10
        assert abs(spec.coeffs[5]) <= 1e-10


class TestKhatriRaoPower:
    def test_basis_row(self):
        d = 4
        X = np.zeros((1, d))
        X[0, 0] = 1.0
        K = khatri_rao_power(X, 2)
        assert K.shape == (1, 16)
        want = np.zeros(16)
        want[0] = 1.0
        np.testing.assert_array_equal(K[0], want)

    def test_orthogonal_rows_exact_min_singular(self):
        X = math.sqrt(2.0) * np.eye(2)
        exact, bound = kr_min_singular(X, 2)
        assert exact == pytest.approx(2.0, rel=1e-12)
        assert bound == pytest.approx(2.0, rel=1e-12)

    def test_gram_identity(self):
        X = sphere_data(20, 10, seed=1)
        K = khatri_rao_power(X, 2)
        gram = K @ K.T
        want = (X @ X.T) ** 2
        assert np.max(np.abs(gram - want)) <= 1e-10 * np.max(np.abs(want))

    def test_memory_budget_rejected(self):
        X = np.ones((10, 100))
        with pytest.raises(ValueError, match="budget"):
            khatri_rao_power(X, 4)  # 10 * 100^4 = 1e9 entries

    def test_power_one_is_identity_map(self):
        X = sphere_data(3, 4, seed=2)
        np.testing.assert_array_equal(khatri_rao_power(X, 1), X)


class TestKrMinSingular:
    def test_duplicate_rows_vacuous_bound(self):
        base = sphere_data(3, 4, seed=3)
        X = np.vstack([base, base[:1]])
        exact, bound = kr_min_singular(X, 2)
        assert exact <= 1e-10
        assert bound <= 0.0

    def test_bound_never_exceeds_exact(self):
        for seed in range(20):
            X = sphere_data(6, 12, seed=seed)
            exact, bound = kr_min_singular(X, 2)
            assert bound <= exact + 1e-9

    def test_bound_valid_for_rows_of_any_norm(self):
        # one short row: the floor must use the smallest row norm, not sqrt(d)
        for seed in range(200):
            X = sphere_data(6, 12, seed=seed)
            X[0] *= 0.3
            exact, bound = kr_min_singular(X, 2)
            assert bound <= exact + 1e-9 * max(1.0, exact), seed

    def test_rejects_non_finite_data(self):
        X = sphere_data(4, 3, seed=5)
        X[2, 1] = math.nan
        with pytest.raises(ValueError, match="finite"):
            kr_min_singular(X, 2)
        with pytest.raises(ValueError, match="finite"):
            khatri_rao_power(X, 2)

    @pytest.mark.parametrize("scale,r", [(1e200, 1), (1e200, 2), (1e100, 2), (1e80, 4)])
    def test_overflowing_gram_is_rejected(self, scale, r):
        X = scale * np.eye(2)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows"):
            kr_min_singular(X, r)

    def test_budget_applies_on_the_fallback(self):
        # rank one, so the Gram route cannot certify and K would be built
        with pytest.raises(ValueError, match="budget"):
            kr_min_singular(np.ones((10, 100)), 4)

    def test_sphere_data_beats_half_threshold(self):
        # d^{r/2}/2 floor in the oversquare regime N <= d^r
        hits = 0
        for seed in range(50):
            X = sphere_data(30, 40, seed=seed)
            exact, _ = kr_min_singular(X, 2)
            hits += exact >= 40.0 / 2.0
        assert hits >= 49


@st.composite
def kr_inputs(draw):
    """Small data with random row scalings; the last row optionally copies the
    first up to a relative perturbation (0 makes an exact duplicate)."""
    n = draw(st.integers(1, 7))
    d = draw(st.integers(1, 5))
    r = draw(st.sampled_from([1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-1.0, 1.0, size=(n, 1))
    near = draw(st.sampled_from([None, 0.0, 1e-3, 1e-5, 1e-7, 1e-9]))
    if near is not None and n > 1:
        X[-1] = X[0] + near * np.linalg.norm(X[0]) * rng.normal(size=d)
    return X, r


def _kr_with_route(X, r):
    """kr_min_singular plus whether it skipped building the power (Gram route)."""
    with mock.patch.object(ls_mod, "khatri_rao_power", wraps=khatri_rao_power) as spy:
        exact, bound = kr_min_singular(X, r)
    return exact, bound, spy.call_count == 0


def _nth_singular(K):
    """N-th singular value of an N-row matrix (zero when it has fewer columns)."""
    sv = np.linalg.svd(K, compute_uv=False)
    return float(sv[-1]) if K.shape[0] <= K.shape[1] else 0.0


class TestKrGramRoute:
    @settings(max_examples=300, deadline=None)
    @given(kr_inputs())
    def test_agrees_with_svd_of_the_power(self, inp):
        X, r = inp
        exact, _, gram = _kr_with_route(X, r)
        want = _nth_singular(khatri_rao_power(X, r))
        if gram:
            assert abs(exact - want) <= ls_mod.KR_REL_TOL * want
        else:
            assert exact == want

    @settings(max_examples=200, deadline=None)
    @given(kr_inputs())
    def test_rank_deficient_power_is_zero(self, inp):
        # a duplicated row; draws with N > d^r are rank deficient as well
        X, r = inp
        X = np.vstack([X, X[:1]])
        exact, _ = kr_min_singular(X, r)
        K = khatri_rao_power(X, r)
        assert exact <= 1e-10 * float(np.linalg.svd(K, compute_uv=False)[0])

    @settings(max_examples=300, deadline=None)
    @given(kr_inputs())
    def test_floor_never_exceeds_sigma_min(self, inp):
        X, r = inp
        exact, bound = kr_min_singular(X, r)
        assert bound <= exact + 1e-9 * max(1.0, exact)

    def test_well_conditioned_sphere_data_takes_the_gram_route(self):
        for seed in range(20):
            X = sphere_data(30, 40, seed=seed)
            exact, _, gram = _kr_with_route(X, 2)
            assert gram
            want = _nth_singular(khatri_rao_power(X, 2))
            assert abs(exact - want) <= ls_mod.KR_REL_TOL * want


class TestGramMc:
    def test_linear_sigma_recovers_scaled_data_gram(self):
        X = sphere_data(8, 5, seed=4)
        est = gram_mc(X, sigma_linear, 100_000, seed=11)
        want = X @ X.T / 5.0
        assert np.all(np.abs(est.gram - want) <= 5.0 * est.stderr + 1e-12)

    def test_linear_sigma_rank_deficient_when_overdetermined(self):
        X = sphere_data(8, 4, seed=5)  # N > d
        est = gram_mc(X, sigma_linear, 20_000, seed=12)
        assert abs(est.lambda_min) <= 1e-10

    def test_diagonal_bounded_by_one_on_sphere_data(self):
        X = sphere_data(10, 6, seed=6)
        est = gram_mc(X, SIGMA, 50_000, seed=13)
        assert np.all(np.diag(est.gram) <= 1.0 + 5.0 * np.diag(est.stderr))

    def test_deterministic_given_seed(self):
        X = sphere_data(5, 4, seed=7)
        a = gram_mc(X, SIGMA, 10_000, seed=21)
        b = gram_mc(X, SIGMA, 10_000, seed=21)
        np.testing.assert_array_equal(a.gram, b.gram)

    def test_symmetric_and_psd_up_to_noise(self):
        X = sphere_data(6, 4, seed=8)
        est = gram_mc(X, SIGMA, 5_000, seed=23)
        np.testing.assert_allclose(est.gram, est.gram.T, atol=1e-14)
        assert est.lambda_min >= -1e-10


def _gram_mc_oracle(X, sigma, n_samples, seed):
    """The literal whole-batch Monte Carlo Gram: S = sigma(X W), then S S^T,
    with gram_mc's batch sizes and substreams."""
    n_batches = min(ls_mod.MC_BATCHES, n_samples)
    N, d = X.shape
    sizes = [n_samples // n_batches + (i < n_samples % n_batches) for i in range(n_batches)]
    streams = np.random.SeedSequence(seed).spawn(n_batches)
    total = np.zeros((N, N))
    batch_means = np.empty((n_batches, N, N))
    for b, (size, ss) in enumerate(zip(sizes, streams)):
        W = np.random.default_rng(ss).normal(0.0, 1.0 / math.sqrt(d), size=(d, size))
        S = np.asarray(sigma(X @ W), dtype=np.float64)
        contrib = S @ S.T
        total += contrib
        batch_means[b] = contrib / size
    G = total / n_samples
    if n_batches > 1:
        stderr = np.std(batch_means, axis=0, ddof=1) / math.sqrt(n_batches)
    else:
        stderr = np.full((N, N), np.nan)
    return G, stderr, float(np.linalg.eigvalsh((G + G.T) / 2.0)[0])


BAD_DATA = {
    "nan entry": (np.array([[1.0, math.nan], [0.0, 1.0]]), "finite"),
    "no rows": (np.zeros((0, 3)), "N >= 1"),
    "no columns": (np.zeros((3, 0)), "d >= 1"),
}


class TestGramMcBlocks:
    """gram_mc applies sigma blockwise inside one reused buffer; its outputs
    must equal the whole-batch formula bit for bit."""

    # blocks hold 2**14 // N columns: 163 at N=100, 54 at N=300, 1024 at N=16
    @settings(max_examples=60, deadline=None)
    @given(
        N=st.sampled_from([1, 3, 16, 100, 300]),
        d=st.sampled_from([1, 2, 3, 8, 40]),
        n_samples=st.integers(1, 4000),  # below MC_BATCHES, and uneven batches
        linear=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(N=100, d=40, n_samples=2345, linear=False, seed=1)  # partial last block, uneven
    @example(N=300, d=3, n_samples=3000, linear=True, seed=2)  # many blocks
    @example(N=16, d=8, n_samples=5, linear=False, seed=3)  # n_samples < MC_BATCHES
    @example(N=3, d=2, n_samples=1, linear=True, seed=5)  # one batch: no standard error
    @example(N=16, d=40, n_samples=3001, linear=True, seed=4)  # size < block
    @example(N=16, d=8, n_samples=20480, linear=False, seed=0)  # exactly 2 blocks
    def test_bit_identical_to_whole_batch_formula(self, N, d, n_samples, linear, seed):
        sigma = sigma_linear if linear else SIGMA
        X = sphere_data(N, d, seed=seed % 1000)
        est = gram_mc(X, sigma, n_samples, seed=seed)
        gram, stderr, lambda_min = _gram_mc_oracle(X, sigma, n_samples, seed)
        np.testing.assert_array_equal(est.gram, gram)
        np.testing.assert_array_equal(est.stderr, stderr)  # NaN-aware
        np.testing.assert_array_equal(est.lambda_min, lambda_min)

    def test_peak_memory_is_one_batch(self):
        # one N x (samples/10) buffer and one d x (samples/10) draw, not the
        # five batch-sized arrays of sigma(X @ W) computed whole
        X = sphere_data(16, 8, seed=0)
        gram_mc(X, SIGMA, 100_000)  # warm-up
        tracemalloc.start()
        try:
            gram_mc(X, SIGMA, 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (16 + 8) * 10**4 * 8 + 10**6


class TestGramInputChecks:
    @pytest.mark.parametrize("case", sorted(BAD_DATA))
    @pytest.mark.parametrize("linear", [False, True])
    def test_gram_mc_rejects_bad_data_before_any_draw(self, case, linear):
        X, cause = BAD_DATA[case]
        with mock.patch.object(np.random, "default_rng", side_effect=AssertionError("drew")):
            with pytest.raises(ValueError, match=cause):
                gram_mc(X, sigma_linear if linear else SIGMA, 100)

    @pytest.mark.parametrize("case", sorted(BAD_DATA))
    def test_gram_hermite_rejects_bad_data(self, case):
        X, cause = BAD_DATA[case]
        with pytest.raises(ValueError, match=cause):
            gram_hermite(X, hermite_coeffs(sigma_linear, 2), 2)

    # counts and orders are refused, not truncated: each of these once ran
    # with the value rounded toward zero
    @pytest.mark.parametrize(
        "call,name",
        [
            (lambda X: kr_min_singular(X, 2.7), "power"),
            (lambda X: khatri_rao_power(X, 2.7), "power"),
            (lambda X: gram_mc(X, SIGMA, 10.9), "n_samples"),
            (lambda X: gram_hermite(X, hermite_coeffs(sigma_linear, 4), 2.5), "r_max"),
        ],
        ids=["kr-power", "kr-product-power", "mc-samples", "hermite-r_max"],
    )
    def test_rejects_non_integer_counts(self, call, name):
        with pytest.raises(ValueError, match=name):
            call(sphere_data(4, 3, seed=0))

    # a float seed once raised NumPy's TypeError, a negative one a message
    # naming no field, and True drew seed 1's samples
    @pytest.mark.parametrize("seed", [1.5, -1, True])
    def test_gram_mc_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            gram_mc(sphere_data(4, 3, seed=0), SIGMA, 100, seed=seed)

    def test_gram_mc_numpy_integer_seed_is_stored_as_int(self):
        X = sphere_data(4, 3, seed=0)
        est = gram_mc(X, SIGMA, 100, seed=np.int64(1))
        assert type(est.seed) is int
        np.testing.assert_array_equal(est.gram, gram_mc(X, SIGMA, 100, seed=1).gram)

    @pytest.mark.parametrize("linear", [False, True])
    def test_gram_mc_rejects_an_overflowing_gram(self, linear):
        X = 1e200 * np.eye(2)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="not finite"):
            gram_mc(X, sigma_linear if linear else SIGMA, 100)

    @pytest.mark.parametrize("linear", [False, True])
    def test_gram_mc_stops_silently_at_the_first_overflowing_batch(self, linear):
        # squared rows of norm 1e200 overflow in the first batch's Gram: no
        # warning, and none of the other nine batches is drawn
        X = 1e200 * np.eye(2)
        rng = mock.Mock(side_effect=np.random.default_rng)
        with warnings.catch_warnings(), mock.patch.object(np.random, "default_rng", rng):
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                gram_mc(X, sigma_linear if linear else SIGMA, 100)
        assert rng.call_count == 1


class TestGramHermite:
    def test_linear_sigma_single_term(self):
        X = sphere_data(6, 4, seed=9)
        spec = hermite_coeffs(sigma_linear, 5)
        est = gram_hermite(X, spec, r_max=5)
        np.testing.assert_allclose(est.gram, X @ X.T / 4.0, atol=1e-9)

    def test_lambda_min_nondecreasing_in_truncation(self):
        X = sphere_data(8, 6, seed=10)
        spec = hermite_coeffs(SIGMA, 10)
        prev = -np.inf
        for r in range(11):
            est = gram_hermite(X, spec, r_max=r)
            assert est.lambda_min >= prev - 1e-12
            prev = est.lambda_min

    def test_matches_scalar_series(self):
        X = sphere_data(7, 5, seed=11)
        spec = hermite_coeffs(SIGMA, 8)
        est = gram_hermite(X, spec, r_max=8)
        C = X @ X.T / 5.0
        want = sum(spec.coeffs[k] ** 2 * C**k for k in range(9))
        assert np.max(np.abs(est.gram - want)) <= 1e-10

    def test_cross_checks_against_monte_carlo(self):
        X = sphere_data(8, 6, seed=12)
        spec = hermite_coeffs(SIGMA, 10)
        herm = gram_hermite(X, spec, r_max=10)
        mc = gram_mc(X, SIGMA, 200_000, seed=31)
        allowance = 5.0 * mc.stderr + herm.tail_mass
        assert np.all(np.abs(mc.gram - herm.gram) <= allowance)

    def test_rejects_off_sphere_rows(self):
        X = 2.0 * np.ones((3, 4))  # row norm 4, not sqrt(4)
        spec = hermite_coeffs(SIGMA, 4)
        with pytest.raises(ValueError, match="sqrt"):
            gram_hermite(X, spec, 4)

    def test_tail_mass_reported(self):
        X = sphere_data(5, 4, seed=13)
        spec = hermite_coeffs(SIGMA, 10)
        est = gram_hermite(X, spec, r_max=4)
        assert est.tail_mass == pytest.approx(spec.tail_mass(4))
        assert est.tail_mass > gram_hermite(X, spec, r_max=10).tail_mass

    # a float or a string once raised a TypeError naming nothing, and a
    # bool read as an order
    @pytest.mark.parametrize("r", [2.5, 2.0, "2", True, None, -1])
    def test_tail_mass_refuses_a_bad_order(self, r):
        with pytest.raises(ValueError, match="order"):
            hermite_coeffs(SIGMA, 4).tail_mass(r)


class TestLambdaStar:
    def test_duplicate_rows_drive_it_to_zero(self):
        base = sphere_data(4, 6, seed=14)
        X = np.vstack([base, base[:1]])
        spec = hermite_coeffs(SIGMA, 8)
        est = gram_hermite(X, spec, 8)
        assert est.lambda_min <= 1e-10

    def test_upper_bound_one_on_sphere_data(self):
        # trace bound: lambda* <= ||X||_F^2 / (N d) = 1
        for seed in range(5):
            X = sphere_data(6, 8, seed=seed)
            est = gram_mc(X, SIGMA, 20_000, seed=seed)
            assert est.lambda_min <= 1.0 + 5.0 * est.stderr_max


class TestHermiteCorrelationIdentity:
    def test_mc_matches_inner_product_powers(self):
        # E[h_j(<w,x>) h_k(<w,y>)] = <x,y>^j when j == k, else 0
        rng = np.random.default_rng(99)
        d = 5
        x = rng.normal(size=d)
        x /= np.linalg.norm(x)
        y = rng.normal(size=d)
        y /= np.linalg.norm(y)
        inner = float(x @ y)
        n = 400_000
        W = rng.normal(size=(n, d))
        wx, wy = W @ x, W @ y
        for j in range(5):
            hj = hermite_poly(j, wx)
            for k in range(j, 5):
                prod = hj * hermite_poly(k, wy)
                mean = float(prod.mean())
                stderr = float(prod.std(ddof=1) / math.sqrt(n))
                want = inner**j if j == k else 0.0
                assert abs(mean - want) <= 5.0 * stderr + 1e-12
