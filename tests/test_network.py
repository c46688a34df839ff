"""Forward pass vs a straight-line reimplementation, loss, serialization
round trips, and the layer-norm/output-Lipschitz inequalities."""

import math
import re
import warnings

import numpy as np
import pytest
from oracles import dataset_to_csv, theta_distance

from pyrcert.activation import ActivationParams, value_and_slope
from pyrcert.network import (
    Dataset,
    Params,
    Shape,
    dataset_from_csv,
    dataset_from_json,
    dataset_to_json,
    forward,
    loss,
)

ACT = ActivationParams(0.5, 1.0)


def scalar_sigma(x, gamma, beta):
    """Scalar reimplementation through math.erf only (oracle)."""
    a = (1 - gamma) ** 2 / (2 * math.pi * beta)
    z = beta * math.sqrt(2 * math.pi) * x / (1 - gamma)

    def ncdf(t):
        return 0.5 * (1 + math.erf(t / math.sqrt(2)))

    return -a + a * math.exp(-0.5 * z * z) + x * ncdf(z) + gamma * x * ncdf(-z)


def naive_forward(weights, X, gamma, beta):
    """Triple-loop forward pass, independent of any numpy matmul."""
    L = len(weights)
    current = [list(map(float, row)) for row in X]
    for l, W in enumerate(weights, start=1):
        rows, cols = len(W), len(W[0])
        nxt = []
        for sample in current:
            out_row = []
            for j in range(cols):
                s = sum(sample[k] * W[k][j] for k in range(rows))
                out_row.append(s if l == L else scalar_sigma(s, gamma, beta))
            nxt.append(out_row)
        current = nxt
    return np.array(current)


def random_instance(rng, n, d, widths):
    X = rng.normal(size=(n, d))
    Y = rng.normal(size=(n, widths[-1]))
    dims = (d, *widths)
    ws = tuple(
        rng.normal(size=(dims[i], dims[i + 1])) / math.sqrt(dims[i])
        for i in range(len(widths))
    )
    return Dataset(X, Y), Params(ws)


class TestShape:
    def test_pyramidal_ordering_enforced(self):
        Shape(d=3, widths=(10, 4, 4, 2))
        with pytest.raises(ValueError):
            Shape(d=3, widths=(10, 4, 5, 2))

    def test_first_two_widths_unordered(self):
        # the wide layer may be narrower than layer 2
        Shape(d=3, widths=(4, 9, 3))

    def test_depth_floor(self):
        with pytest.raises(ValueError):
            Shape(d=3, widths=(7,))

    def test_dims(self):
        s = Shape(d=3, widths=(5, 2))
        assert s.dims == (3, 5, 2)
        assert s.depth == 2

    # a non-integral size used to be truncated (6.5 -> 6) and a bool read as 1
    BAD_SIZES = [
        ({"d": 8.9}, "shape.d", "8.9"),
        ({"d": 8.0}, "shape.d", "8.0"),
        ({"d": True}, "shape.d", "True"),
        ({"d": "8"}, "shape.d", "'8'"),
        ({"widths": (16, 6.5, 4, 2)}, "shape.widths[1]", "6.5"),
        ({"widths": (16, 6, 4, True)}, "shape.widths[3]", "True"),
        ({"widths": (16, np.float64(6.0), 4, 2)}, "shape.widths[1]", "np.float64(6.0)"),
        ({"widths": (16, np.True_, 1)}, "shape.widths[1]", "np.True_"),
    ]

    @pytest.mark.parametrize("fields,name,value", BAD_SIZES)
    def test_non_integer_size_rejected_by_name(self, fields, name, value):
        args = {"d": 8, "widths": (16, 6, 4, 2), **fields}
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value}")):
            Shape(**args)

    def test_numpy_integers_become_python_ints(self):
        s = Shape(d=np.int64(8), widths=tuple(np.array([16, 6, 4, 2], dtype=np.int32)))
        assert s == Shape(d=8, widths=(16, 6, 4, 2))
        assert all(type(n) is int for n in s.dims)


class TestDataset:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0, np.nan]]), np.array([[1.0]]))

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros((2, 1)))


class TestParams:
    def test_rejects_broken_chain(self):
        with pytest.raises(ValueError):
            Params((np.zeros((3, 4)), np.zeros((5, 2))))

    def test_shape_property(self):
        p = Params((np.zeros((3, 6)), np.zeros((6, 2))))
        assert p.shape == Shape(d=3, widths=(6, 2))


class TestForward:
    def test_zero_weights_give_zero_output(self):
        data = Dataset(np.ones((3, 2)), np.zeros((3, 1)))
        params = Params((np.zeros((2, 4)), np.zeros((4, 2)), np.zeros((2, 1))))
        tr = forward(params, data, ACT)
        assert np.all(tr.F[-1] == 0.0)

    def test_zero_input_gives_zero_output(self):
        rng = np.random.default_rng(3)
        data, params = random_instance(rng, 4, 2, (5, 3, 1))
        data0 = Dataset(np.zeros_like(data.X), data.Y)
        tr = forward(params, data0, ACT)
        assert np.max(np.abs(tr.F[-1])) == 0.0

    def test_matches_straight_line_reimplementation(self):
        rng = np.random.default_rng(11)
        data, params = random_instance(rng, 3, 2, (4, 2, 1))
        tr = forward(params, data, ACT)
        want = naive_forward([w.tolist() for w in params.weights], data.X, 0.5, 1.0)
        np.testing.assert_allclose(tr.F[-1], want, rtol=0, atol=1e-12)

    def test_trace_invariants(self):
        rng = np.random.default_rng(5)
        data, params = random_instance(rng, 4, 3, (6, 3, 2))
        tr = forward(params, data, ACT)
        assert tr.F[0] is data.X
        np.testing.assert_array_equal(tr.F[-1], tr.G[-1])
        for l in range(1, params.depth):
            value, slope = value_and_slope(ACT, tr.G[l - 1])
            np.testing.assert_array_equal(tr.F[l], value)
            np.testing.assert_array_equal(tr.S[l - 1], slope)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        data, params = random_instance(rng, 4, 3, (6, 3, 2))
        a = forward(params, data, ACT).F[-1]
        b = forward(params, data, ACT).F[-1]
        assert np.array_equal(a, b)

    def test_huge_pre_activations_pass_without_warnings(self):
        # hidden pre-activations of +-1e200: the activation's squares
        # overflow and its exponentials underflow, silently, to the ramp
        data = Dataset(np.array([[1.0]]), np.array([[0.0]]))
        params = Params((np.array([[1e200, -1e200]]), np.array([[1.0], [1.0]])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = forward(params, data, ACT)
        a = (1.0 - ACT.gamma) ** 2 / (2.0 * math.pi * ACT.beta)
        assert np.array_equal(trace.F[1], [[1e200 - a, -0.5e200 - a]])
        assert np.array_equal(trace.S[0], [[1.0, 0.5]])

    def test_overflowing_pre_activation_raises(self):
        data = Dataset(np.array([[10.0]]), np.array([[0.0]]))
        params = Params((np.array([[1e308, 1.0]]), np.array([[1.0], [1.0]])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                forward(params, data, ACT)

    def test_dimension_mismatch_names_layer(self):
        data = Dataset(np.zeros((3, 4)), np.zeros((3, 1)))
        params = Params((np.zeros((2, 4)), np.zeros((4, 1))))
        with pytest.raises(ValueError, match="layer 1"):
            forward(params, data, ACT)
        data2 = Dataset(np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="layer 2"):
            forward(params, data2, ACT)


class TestLoss:
    def test_zero_params_loss_is_half_y_sq(self):
        Y = np.zeros((2, 2))
        Y[0, 0] = 2.0  # Frobenius norm 2
        data = Dataset(np.ones((2, 3)), Y)
        params = Params((np.zeros((3, 4)), np.zeros((4, 2))))
        assert loss(params, data, ACT) == 2.0

    def test_zero_residual_gives_zero(self):
        rng = np.random.default_rng(21)
        data, params = random_instance(rng, 4, 3, (6, 3, 2))
        out = forward(params, data, ACT).F[-1]
        fitted = Dataset(data.X, out)
        assert loss(params, fitted, ACT) == 0.0

    def test_matches_naive_residual_sum(self):
        rng = np.random.default_rng(23)
        data, params = random_instance(rng, 5, 3, (7, 4, 2))
        out = naive_forward([w.tolist() for w in params.weights], data.X, 0.5, 1.0)
        want = 0.5 * sum(
            (out[i, j] - data.Y[i, j]) ** 2
            for i in range(5)
            for j in range(2)
        )
        assert loss(params, data, ACT) == pytest.approx(want, abs=1e-12)


class TestNormBounds:
    def test_layer_norm_bound(self):
        # ||F_l||_F <= ||X||_F * prod of weight operator norms, every layer
        rng = np.random.default_rng(31)
        for _ in range(20):
            data, params = random_instance(rng, 5, 3, (6, 4, 2))
            tr = forward(params, data, ACT)
            prod = 1.0
            for l in range(1, params.depth + 1):
                prod *= np.linalg.norm(params.weights[l - 1], 2)
                lhs = np.linalg.norm(tr.F[l])
                assert lhs <= np.linalg.norm(data.X) * prod * (1 + 1e-9) + 1e-9

    def test_output_lipschitz_in_parameters(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            data, pa = random_instance(rng, 5, 3, (6, 4, 2))
            _, pb = random_instance(rng, 5, 3, (6, 4, 2))
            pb = Params(tuple(w + 0.1 * rng.normal(size=w.shape) for w in pa.weights))
            caps = [
                max(np.linalg.norm(wa, 2), np.linalg.norm(wb, 2))
                for wa, wb in zip(pa.weights, pb.weights)
            ]
            fa = forward(pa, data, ACT).F[-1]
            fb = forward(pb, data, ACT).F[-1]
            L = pa.depth
            rhs = (
                math.sqrt(L)
                * np.linalg.norm(data.X)
                * (np.prod(caps) / min(caps))
                * theta_distance(pa, pb)
            )
            assert np.linalg.norm(fa - fb) <= rhs * (1 + 1e-9) + 1e-9


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(41)
        data, _ = random_instance(rng, 4, 3, (5, 2))
        dataset_to_csv(data, tmp_path / "x.csv", tmp_path / "y.csv")
        back = dataset_from_csv(tmp_path / "x.csv", tmp_path / "y.csv")
        np.testing.assert_array_equal(back.X, data.X)
        np.testing.assert_array_equal(back.Y, data.Y)

    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(43)
        data, _ = random_instance(rng, 4, 3, (5, 2))
        dataset_to_json(data, tmp_path / "bundle.json")
        back = dataset_from_json(tmp_path / "bundle.json")
        np.testing.assert_array_equal(back.X, data.X)
        np.testing.assert_array_equal(back.Y, data.Y)


def test_theta_distance_definition():
    a = Params((np.zeros((2, 3)), np.zeros((3, 1))))
    ws = (np.full((2, 3), 1.0), np.full((3, 1), 2.0))
    b = Params(ws)
    want = math.sqrt(6 * 1.0 + 3 * 4.0)
    assert theta_distance(a, b) == pytest.approx(want, rel=1e-15)
