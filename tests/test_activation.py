"""Activation closed form vs quadrature/finite-difference oracles, plus the
slope and gap guarantees."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import deriv2, gap_bound, uniform_gap
from scipy import integrate, special

from pyrcert import activation
from pyrcert.activation import ActivationParams, evaluate, value_and_slope

PAIRS = [
    ActivationParams(g, b)
    for g in (0.1, 0.5, 0.9)
    for b in (0.5, 1.0, 3.0)
]


def sigma_by_quadrature(gamma, beta, x):
    """Adaptive quadrature of the Gaussian-kernel integral defining sigma.

    Integrates in the kernel-centered variable v = sqrt(c)*(u - x) so the
    integrand stays well-scaled for sharp kernels, splitting at the ramp kink.
    """
    c = math.pi * beta**2 / (1.0 - gamma) ** 2
    s = math.sqrt(c)

    def f(v):
        u = x + v / s
        return max(gamma * u, u) * math.exp(-v * v)

    kink = -x * s  # v at which u crosses 0
    window = 9.0  # e^{-81} tail, far below the target accuracy
    pts = sorted([-window, window, kink])
    segments = [(-np.inf, pts[0]), (pts[0], pts[1]), (pts[1], pts[2]), (pts[2], np.inf)]
    total = sum(
        integrate.quad(f, a, b, epsabs=1e-15, epsrel=1e-13)[0] for a, b in segments
    )
    return -((1.0 - gamma) ** 2) / (2.0 * math.pi * beta) + beta / (1.0 - gamma) * total / s


class TestParams:
    def test_rejects_gamma_out_of_range(self):
        for g in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ValueError):
                ActivationParams(g, 1.0)

    def test_rejects_bad_beta(self):
        for b in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                ActivationParams(0.5, b)


class TestEvaluate:
    def test_zero_is_fixed_point(self):
        assert evaluate(ActivationParams(0.5, 1.0), 0.0) == 0.0
        assert evaluate(ActivationParams(0.9, 1.0), 0.0) == 0.0

    def test_large_input_stays_near_ramp(self):
        act = ActivationParams(0.5, 1.0)
        assert abs(evaluate(act, 10.0) - 10.0) <= gap_bound(act)
        assert gap_bound(act) == pytest.approx(0.19894, abs=1e-5)

    def test_matches_quadrature_oracle(self):
        act = ActivationParams(0.3, 2.0)
        got = evaluate(act, 1.7)
        want = sigma_by_quadrature(0.3, 2.0, 1.7)
        assert abs(got - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("act", PAIRS)
    def test_matches_quadrature_on_a_small_grid(self, act):
        for x in (-2.3, -0.4, 0.9, 3.1):
            want = sigma_by_quadrature(act.gamma, act.beta, x)
            assert evaluate(act, x) == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_rejects_non_finite(self):
        act = ActivationParams(0.5, 1.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                evaluate(act, bad)
        with pytest.raises(ValueError):
            evaluate(act, np.array([1.0, math.nan]))

    def test_array_shape_preserved(self):
        act = ActivationParams(0.5, 1.0)
        x = np.linspace(-3, 3, 12).reshape(3, 4)
        assert evaluate(act, x).shape == (3, 4)

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(-1e9, 1e9),
        g=st.floats(0.05, 0.95),
        b=st.floats(0.05, 50.0),
    )
    def test_value_below_identity_in_magnitude(self, x, g, b):
        assert abs(evaluate(ActivationParams(g, b), x)) <= abs(x) + 1e-12


class TestDeriv:
    def test_value_at_zero(self):
        # slope at zero is the midpoint (1 + gamma) / 2
        slope = value_and_slope(ActivationParams(0.5, 1.0), 0.0)[1]
        assert slope == pytest.approx(0.75, abs=1e-15)

    def test_lower_endpoint_in_the_limit(self):
        slope = value_and_slope(ActivationParams(0.25, 1.0), -50.0)[1]
        assert slope == pytest.approx(0.25, abs=1e-9)

    def test_matches_finite_difference_of_evaluate(self):
        act = ActivationParams(0.5, 1.0)
        h = 1e-6
        fd = (evaluate(act, 0.3 + h) - evaluate(act, 0.3 - h)) / (2 * h)
        assert abs(fd - value_and_slope(act, 0.3)[1]) <= 1e-6

    @pytest.mark.parametrize("act", PAIRS)
    def test_finite_difference_on_grid(self, act):
        xs = np.linspace(-4, 4, 41)
        h = 1e-6
        fd = (evaluate(act, xs + h) - evaluate(act, xs - h)) / (2 * h)
        assert np.max(np.abs(fd - value_and_slope(act, xs)[1])) <= 1e-5

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(-1e9, 1e9),
        g=st.floats(0.05, 0.95),
        b=st.floats(0.05, 50.0),
    )
    def test_slope_range(self, x, g, b):
        s = value_and_slope(ActivationParams(g, b), x)[1]
        assert g <= s <= 1.0

    def test_monotone_nondecreasing(self):
        act = ActivationParams(0.3, 2.0)
        xs = np.linspace(-6, 6, 500)
        assert np.all(np.diff(value_and_slope(act, xs)[1]) >= 0)


class TestDeriv2:
    def test_peak_value_is_beta(self):
        assert deriv2(ActivationParams(0.5, 1.0), 0.0) == pytest.approx(1.0, abs=1e-15)
        assert deriv2(ActivationParams(0.5, 3.0), 0.0) == pytest.approx(3.0, abs=1e-15)

    def test_matches_finite_difference_of_deriv(self):
        act = ActivationParams(0.4, 2.0)
        h = 1e-6
        fd = (value_and_slope(act, 1.1 + h)[1] - value_and_slope(act, 1.1 - h)[1]) / (2 * h)
        assert abs(fd - deriv2(act, 1.1)) <= 1e-5

    @pytest.mark.parametrize("act", PAIRS)
    def test_positive_and_bounded_by_beta(self, act):
        xs = np.linspace(-8, 8, 200)
        vals = deriv2(act, xs)
        assert np.all(vals >= 0)
        assert np.all(vals <= act.beta + 1e-15)
        # strictly positive wherever the Gaussian factor is representable
        z = act.beta * math.sqrt(2 * math.pi) * xs / (1 - act.gamma)
        assert np.all(vals[np.abs(z) < 37.0] > 0)


class TestUniformGap:
    GRID = np.arange(-10.0, 10.0 + 1e-9, 0.01)

    def test_gap_below_closed_form_bound(self):
        act = ActivationParams(0.5, 1.0)
        assert uniform_gap(act, self.GRID) <= 0.19894

    def test_gap_shrinks_with_beta(self):
        act = ActivationParams(0.5, 100.0)
        assert uniform_gap(act, self.GRID) <= 0.00198894

    def test_zero_at_origin(self):
        assert uniform_gap(ActivationParams(0.9, 1.0), [0.0]) == 0.0

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            uniform_gap(ActivationParams(0.5, 1.0), [])

    @pytest.mark.parametrize("act", PAIRS)
    def test_bound_holds_for_all_pairs(self, act):
        assert uniform_gap(act, self.GRID) <= gap_bound(act)


class TestSlopeLipschitz:
    @pytest.mark.parametrize("act", PAIRS)
    def test_slope_is_beta_lipschitz_on_grid(self, act):
        xs = np.linspace(-5, 5, 1001)
        slopes = value_and_slope(act, xs)[1]
        rates = np.abs(np.diff(slopes)) / np.diff(xs)
        assert np.max(rates) <= act.beta * (1 + 1e-9)


class TestValueAndSlope:
    def test_agrees_with_separate_calls(self):
        act = ActivationParams(0.37, 1.8)
        xs = np.linspace(-4, 4, 57)
        v, _ = value_and_slope(act, xs)
        np.testing.assert_allclose(v, evaluate(act, xs), rtol=0, atol=0)

    def test_scalar_path(self):
        act = ActivationParams(0.5, 1.0)
        v, s = value_and_slope(act, 0.0)
        assert v == 0.0 and s == 0.75

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.floats(0.01, 0.99),
        st.floats(0.05, 20.0),
        st.sampled_from([1e-3, 1.0, 10.0, 1e3]),
    )
    def test_bit_identical_to_evaluate_and_deriv(self, seed, g, b, scale):
        act = ActivationParams(g, b)
        x = scale * np.random.default_rng(seed).normal(size=(7, 5))
        v, _ = value_and_slope(act, x)
        assert np.array_equal(v, evaluate(act, x))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        x = np.zeros((3, 2))
        x[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            value_and_slope(ActivationParams(0.5, 1.0), x)


def literal_value_and_slope(act, x):
    """The closed form with both normal CDFs, written out term by term."""
    g, b = act.gamma, act.beta
    a = (1.0 - g) ** 2 / (2.0 * math.pi * b)
    z = (b * math.sqrt(2.0 * math.pi) / (1.0 - g)) * x
    with np.errstate(under="ignore"):
        bump = np.exp(-0.5 * z * z)
    u = z * (1.0 / math.sqrt(2.0))
    cdf_pos = 0.5 * special.erfc(-u)
    cdf_neg = 0.5 * special.erfc(u)
    value = -a + a * bump + x * cdf_pos + g * x * cdf_neg
    return value, g + (1.0 - g) * cdf_pos, a


SHAPES = [(), (1,), (7,), (3, 5), (16, 6), (2, 3, 4)]


class TestKernel:
    """The one-erfc, in-place kernel against the literal two-erfc formula."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        g=st.floats(0.01, 0.99),
        b=st.floats(0.05, 50.0),
        scale=st.integers(-8, 4).map(lambda e: 10.0**e),
        shape=st.sampled_from(SHAPES),
    )
    def test_matches_literal_formula(self, seed, g, b, scale, shape):
        act = ActivationParams(g, b)
        x = scale * np.random.default_rng(seed).normal(size=shape)
        x_before = x.copy()
        v, s = value_and_slope(act, x)
        want_v, want_s, a = literal_value_and_slope(act, x)
        # the slope keeps every bit; the value is x*slope + a*(bump - 1)
        assert np.array_equal(s, want_s)
        eps = np.finfo(np.float64).eps
        assert np.all(np.abs(v - want_v) <= 8 * eps * (np.abs(x) + a))
        assert np.array_equal(x, x_before)
        assert np.shape(v) == np.shape(s) == shape

    @pytest.mark.parametrize("act", PAIRS)
    def test_zero_is_exactly_zero(self, act):
        assert value_and_slope(act, 0.0)[0] == 0.0
        v, _ = value_and_slope(act, np.zeros((2, 3)))
        assert np.all(v == 0.0)

    def test_layouts_agree_with_a_contiguous_copy(self):
        act = ActivationParams(0.3, 2.0)
        base = np.random.default_rng(5).normal(size=(6, 8))
        for x in (base[::2, 1::3], base.T, np.asfortranarray(base), base[2, 3]):
            v, s = value_and_slope(act, x)
            want_v, want_s = value_and_slope(act, np.array(x, order="C"))
            assert np.array_equal(v, want_v) and np.array_equal(s, want_s)
        v, s = value_and_slope(act, base[2, 3])
        assert type(v) is float and type(s) is float

    def test_one_erfc_call(self, monkeypatch):
        calls = []

        def erfc(*args, **kwargs):
            calls.append(args)
            return special.erfc(*args, **kwargs)

        monkeypatch.setattr(activation, "special", type("special", (), {"erfc": erfc}))
        value_and_slope(ActivationParams(0.5, 1.0), np.linspace(-3.0, 3.0, 11))
        assert len(calls) == 1

    def test_peak_memory_is_three_buffers(self):
        act = ActivationParams(0.5, 1.0)
        x = np.random.default_rng(1).normal(size=(16, 10_000))
        value_and_slope(act, x)  # warm up caches outside the measurement
        tracemalloc.start()
        try:
            value_and_slope(act, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * x.nbytes + 4096

    def test_huge_inputs_reach_the_ramp_without_warnings(self):
        act = ActivationParams(0.5, 1.0)
        a = (1.0 - act.gamma) ** 2 / (2.0 * math.pi * act.beta)
        x = np.array([1e200, -1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, s = value_and_slope(act, x)
        assert np.array_equal(s, [1.0, act.gamma])
        assert np.array_equal(v, [x[0] - a, act.gamma * x[1] - a])


def test_ramp_helper():
    # far from 0 the activation sits (1-gamma)^2/(2*pi*beta) below the ramp
    # max(gamma*x, x) that uniform_gap measures against, on both sides
    act = ActivationParams(0.5, 1.0)
    for x in (-40.0, 40.0):
        assert uniform_gap(act, [x]) == pytest.approx(0.25 / (2 * math.pi), rel=1e-9)
