"""Gradient correctness against finite differences and the literal
Kronecker-product construction, the PL-style floor, and trainer behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    cells_block,
    forward_starts,
    jacobian_block,
    log_columns,
    pl_lower_bound,
    read_cells,
    theta_distance,
    trainlog_from_csv,
)

from pyrcert import gradients, network
from pyrcert.activation import ActivationParams, value_and_slope
from pyrcert.gradients import (
    DIVERGENCE_LOSS,
    TrainConfig,
    _EPS,
    _Cells,
    _flat_views,
    _Spectra,
    grad,
    train,
    trainlog_to_csv,
)
from pyrcert.network import Dataset, Params, forward, loss, loss_of

ACT = ActivationParams(0.5, 1.0)


def random_instance(rng, n, d, widths, y_scale=1.0):
    X = rng.normal(size=(n, d))
    Y = y_scale * rng.normal(size=(n, widths[-1]))
    dims = (d, *widths)
    ws = tuple(
        rng.normal(size=(dims[i], dims[i + 1])) / math.sqrt(dims[i])
        for i in range(len(widths))
    )
    return Dataset(X, Y), Params(ws)


def fd_gradient(params, data, act, l, h=1e-6):
    """Central finite differences of the loss w.r.t. layer l."""
    W = params.weights[l - 1]
    out = np.zeros_like(W)
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            plus = [w.copy() for w in params.weights]
            minus = [w.copy() for w in params.weights]
            plus[l - 1][i, j] += h
            minus[l - 1][i, j] -= h
            out[i, j] = (
                loss(Params(tuple(plus)), data, act) - loss(Params(tuple(minus)), data, act)
            ) / (2 * h)
    return out


def kron_jacobian(params, trace, l):
    """The Jacobian block built literally from Kronecker factors and slope
    diagonals (left factors applied for descending output layers)."""
    N = trace.data.n_samples
    L = params.depth
    M = np.kron(np.eye(params.widths[l - 1]), trace.F[l - 1])
    for t in range(l + 1, L + 1):
        slope_diag = np.diag(trace.S[t - 2].ravel(order="F"))
        M = np.kron(params.weights[t - 1].T, np.eye(N)) @ (slope_diag @ M)
    return M


def kron_gradient(params, trace, l):
    """The layer-l gradient from the literal product form, flattened
    column-major."""
    N = trace.data.n_samples
    L = params.depth
    v = trace.residual().ravel(order="F")
    for p in range(L, l, -1):
        slope_diag = np.diag(trace.S[p - 2].ravel(order="F"))
        v = slope_diag @ (np.kron(params.weights[p - 1], np.eye(N)) @ v)
    return np.kron(np.eye(params.widths[l - 1]), trace.F[l - 1].T) @ v


class TestGrad:
    def test_zero_residual_gives_zero_gradient(self):
        rng = np.random.default_rng(2)
        data, params = random_instance(rng, 4, 3, (5, 3, 2))
        fitted = Dataset(data.X, forward(params, data, ACT).F[-1])
        g = grad(params, fitted, ACT)
        for layer in g.layers:
            assert np.all(layer == 0.0)
        assert g.sq_norm == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        data, params = random_instance(rng, 4, 3, (5, 3, 2))
        g = grad(params, data, ACT)
        for l in range(1, 4):
            fd = fd_gradient(params, data, ACT, l)
            scale = np.maximum(np.abs(fd), 1e-6 * max(1.0, np.abs(fd).max()))
            assert np.max(np.abs(fd - g.layers[l - 1]) / scale) <= 1e-5

    def test_matches_dense_kronecker_form(self):
        rng = np.random.default_rng(6)
        data, params = random_instance(rng, 4, 3, (5, 3, 2))
        tr = forward(params, data, ACT)
        g = grad(params, data, ACT)
        for l in range(1, 4):
            want = kron_gradient(params, tr, l)
            assert np.max(np.abs(want - g.layers[l - 1].ravel(order="F"))) <= 1e-10

    def test_shapes_mirror_params(self):
        rng = np.random.default_rng(8)
        data, params = random_instance(rng, 3, 2, (6, 2, 1))
        g = grad(params, data, ACT)
        for gw, w in zip(g.layers, params.weights):
            assert gw.shape == w.shape

    def test_one_kernel_per_call(self, monkeypatch):
        # the gradient is the backward pass of the kernel that ran the
        # forward pass, so one call builds one kernel
        rng = np.random.default_rng(9)
        data, params = random_instance(rng, 4, 3, (5, 3, 2))
        built = []

        class Counted(network._Kernel):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(network, "_Kernel", Counted)
        monkeypatch.setattr(gradients, "_Kernel", Counted)
        grad(params, data, ACT)
        assert len(built) == 1

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        data, params = random_instance(rng, 3, 2, (6, 2, 1))
        bad = Dataset(np.zeros((3, 5)), data.Y)
        with pytest.raises(ValueError, match="layer 1"):
            grad(params, bad, ACT)


class TestJacobianBlock:
    def test_output_layer_block_is_identity_kron_features(self):
        rng = np.random.default_rng(12)
        data, params = random_instance(rng, 4, 3, (5, 3, 2))
        tr = forward(params, data, ACT)
        J = jacobian_block(params, data, ACT, 3)
        np.testing.assert_allclose(J, np.kron(np.eye(2), tr.F[2]), atol=0, rtol=0)

    def test_block_times_residual_equals_gradient(self):
        rng = np.random.default_rng(14)
        data, params = random_instance(rng, 4, 3, (5, 3, 2))
        tr = forward(params, data, ACT)
        g = grad(params, data, ACT)
        r = tr.residual().ravel(order="F")
        for l in range(1, 4):
            J = jacobian_block(params, data, ACT, l, trace=tr)
            assert J.shape == (4 * 2, params.weights[l - 1].size)
            assert np.max(np.abs(J.T @ r - g.layers[l - 1].ravel(order="F"))) <= 1e-10

    def test_matches_dense_kronecker_jacobian(self):
        rng = np.random.default_rng(16)
        data, params = random_instance(rng, 3, 2, (4, 3, 2, 1))
        tr = forward(params, data, ACT)
        for l in range(1, 5):
            J = jacobian_block(params, data, ACT, l, trace=tr)
            np.testing.assert_allclose(J, kron_jacobian(params, tr, l), atol=1e-12)

    def test_columns_match_output_finite_differences(self):
        rng = np.random.default_rng(18)
        data, params = random_instance(rng, 3, 2, (4, 2, 2))
        J = jacobian_block(params, data, ACT, 2)
        h = 1e-6
        W2 = params.weights[1]
        for col, (j, i) in enumerate((j, i) for j in range(W2.shape[1]) for i in range(W2.shape[0])):
            plus = [w.copy() for w in params.weights]
            minus = [w.copy() for w in params.weights]
            plus[1][i, j] += h
            minus[1][i, j] -= h
            fp = forward(Params(tuple(plus)), data, ACT).F[-1].ravel(order="F")
            fm = forward(Params(tuple(minus)), data, ACT).F[-1].ravel(order="F")
            fd = (fp - fm) / (2 * h)
            denom = max(np.abs(fd).max(), 1e-8)
            assert np.max(np.abs(fd - J[:, col])) / denom <= 1e-5

    def test_layer_index_validated(self):
        rng = np.random.default_rng(20)
        data, params = random_instance(rng, 3, 2, (4, 2, 2))
        for bad in (0, 4, -1):
            with pytest.raises(ValueError):
                jacobian_block(params, data, ACT, bad)


class TestPlLowerBound:
    def test_zero_residual_gives_zero(self):
        rng = np.random.default_rng(22)
        data, params = random_instance(rng, 4, 3, (5, 3, 2))
        fitted = Dataset(data.X, forward(params, data, ACT).F[-1])
        tr = forward(params, fitted, ACT)
        assert pl_lower_bound(tr, params) == 0.0

    def test_depth_two_reduces_to_sv_times_residual(self):
        rng = np.random.default_rng(24)
        data, params = random_instance(rng, 4, 3, (5, 2))
        tr = forward(params, data, ACT)
        want = (
            np.linalg.svd(tr.F[1], compute_uv=False)[-1]
            * np.linalg.norm(tr.residual())
        )
        assert pl_lower_bound(tr, params) == pytest.approx(want, rel=1e-12)

    def test_lower_bounds_second_layer_gradient(self):
        rng = np.random.default_rng(26)
        for _ in range(25):
            data, params = random_instance(rng, 4, 3, (6, 4, 2))
            tr = forward(params, data, ACT)
            g = grad(params, data, ACT)
            lhs = pl_lower_bound(tr, params)
            assert lhs <= np.linalg.norm(g.layers[1]) * (1 + 1e-9)


class TestNormInequalities:
    def test_gradient_norm_bound(self):
        # ||grad_l|| <= ||X||_F * prod_{p != l} ||W_p||_2 * ||residual||
        rng = np.random.default_rng(28)
        for _ in range(25):
            data, params = random_instance(rng, 4, 3, (6, 4, 2))
            tr = forward(params, data, ACT)
            g = grad(params, data, ACT)
            res = np.linalg.norm(tr.residual())
            norms = [np.linalg.norm(w, 2) for w in params.weights]
            for l in range(1, 4):
                rhs = np.linalg.norm(data.X) * res
                for p in range(1, 4):
                    if p != l:
                        rhs *= norms[p - 1]
                assert np.linalg.norm(g.layers[l - 1]) <= rhs * (1 + 1e-9) + 1e-9

    def test_jacobian_lipschitz_bound(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            data, pa = random_instance(rng, 3, 2, (5, 3, 2))
            pb = Params(tuple(w + 0.05 * rng.normal(size=w.shape) for w in pa.weights))
            caps = [
                max(np.linalg.norm(wa, 2), np.linalg.norm(wb, 2))
                for wa, wb in zip(pa.weights, pb.weights)
            ]
            R = np.prod([max(1.0, c) for c in caps])
            L = pa.depth
            xf = np.linalg.norm(data.X)
            lip = math.sqrt(L) * xf * R * (1 + L * ACT.beta * xf * R)
            dist = theta_distance(pa, pb)
            for l in range(1, L + 1):
                Ja = jacobian_block(pa, data, ACT, l)
                Jb = jacobian_block(pb, data, ACT, l)
                lhs = np.linalg.norm(Ja - Jb, 2)
                assert lhs <= lip * dist * (1 + 1e-9) + 1e-9


class TestTrain:
    def test_eta_zero_keeps_params_and_loss_constant(self):
        rng = np.random.default_rng(32)
        data, params = random_instance(rng, 4, 3, (5, 3, 2))
        log = train(params, data, ACT, TrainConfig(eta=0.0, max_steps=5))
        assert np.all(log.loss == log.loss[0])
        assert theta_distance(log.final_params, params) == 0.0
        assert log.n_steps == 6

    def test_small_problem_converges(self):
        rng = np.random.default_rng(34)
        data, params = random_instance(rng, 2, 2, (4, 1), y_scale=0.5)
        log = train(params, data, ACT, TrainConfig(eta=0.05, max_steps=100_000, stop_loss=1e-10))
        assert log.final_loss <= 1e-10
        assert log.stop_reason == "stop_loss"

    def test_divergence_aborts_with_log(self):
        rng = np.random.default_rng(36)
        data, params = random_instance(rng, 4, 3, (5, 3, 2), y_scale=10.0)
        log = train(params, data, ACT, TrainConfig(eta=1e6, max_steps=10_000))
        assert log.diverged
        assert log.stop_reason == "diverged"
        assert log.n_steps < 10_001

    @pytest.mark.parametrize("eta", [1e300, 1e308])
    def test_overflow_ends_run_as_diverged(self, eta):
        # the step-0 update overflows the forward pass (eta = 1e300) or the
        # weights themselves (eta = 1e308); the next forward pass meets
        # non-finite pre-activations
        rng = np.random.default_rng(36)
        data, params = random_instance(rng, 4, 3, (5, 3, 2), y_scale=10.0)
        with np.errstate(over="ignore", invalid="ignore"):
            log = train(params, data, ACT, TrainConfig(eta=eta, max_steps=10))
        assert log.diverged and log.stop_reason == "diverged"
        assert log.n_steps == 2
        assert math.isfinite(log.loss[0]) and not math.isfinite(log.loss[1])
        assert log_columns(log)["spectra_exact"].all()
        # an iterate with non-finite weights leaves the initial one as final
        finite = all(np.all(np.isfinite(w)) for w in log.final_params.weights)
        assert finite and (log.final_params is params) == (eta == 1e308)

    def test_overflow_into_a_zero_weight_ends_as_diverged(self):
        # G_1 overflows to inf in one unit, and W_2 = 0, as the certifiable
        # init sets it, multiplies it by 0: np.dot makes that NaN, which
        # reaches the loss, and only then are the hidden layers checked.
        # The run ends as diverged without a warning, logged as the literal
        # loop logs it, and forward still refuses the pass.
        data = Dataset(np.array([[1e300, 1.0]]), np.array([[1.0]]))
        params = Params((np.array([[1e10, 1.0], [0.0, 1.0]]), np.zeros((2, 1))))
        log = train(params, data, ACT, TrainConfig(eta=0.1, max_steps=3))
        losses, norms, stop_reason, _ = literal_train(params, data, ACT, 0.1, 3)
        assert log.stop_reason == stop_reason == "diverged" and log.n_steps == 1
        assert np.array_equal(log.loss, losses, equal_nan=True)
        assert np.array_equal(log.grad_norm, norms, equal_nan=True)
        assert np.isnan(log.loss[0]) and np.isnan(log.grad_norm[0])
        with pytest.raises(ValueError, match="activation input must be finite"):
            forward(params, data, ACT)
        with pytest.raises(ValueError, match="activation input must be finite"):
            grad(params, data, ACT)

    def test_log_grows_past_its_first_allocation(self, tmp_path):
        rng = np.random.default_rng(37)
        data, params = random_instance(rng, 3, 2, (4, 1))
        log = train(params, data, ACT, TrainConfig(eta=1e-4, max_steps=2500))
        assert log.n_steps == 2501
        columns = log_columns(log)
        assert log.grad_norm.shape == columns["sv_f1"].shape == (2501,)
        assert columns["min_sv_w"].shape == (2501, 0) and columns["norm_w"].shape == (2501, 2)
        assert np.all(np.isfinite(log.loss)) and np.all(np.isfinite(columns["norm_w"]))
        assert np.all(np.diff(log.loss) <= 0.0)
        assert columns["spectra_exact"].all() and log.spectra_svds == 2501 * 3
        trainlog_to_csv(log, tmp_path / "log.csv")
        cols = trainlog_from_csv(tmp_path / "log.csv")
        assert np.array_equal(cols["k"], np.arange(2501))
        assert np.all(np.isnan(cols["bound"]))  # no report, no bound
        assert not any(name.startswith("flag_") for name in cols)

    def test_logged_loss_and_gradient_match_loss_and_grad(self):
        # the trainer runs the kernels of forward and grad, so every row
        # equals theirs bitwise; a run of k steps ends at iterate k
        rng = np.random.default_rng(39)
        data, params = random_instance(rng, 4, 3, (5, 3, 2))
        log = train(params, data, ACT, TrainConfig(eta=1e-2, max_steps=20))
        for k in range(log.n_steps):
            p = train(params, data, ACT, TrainConfig(eta=1e-2, max_steps=k)).final_params
            assert log.loss[k] == loss(p, data, ACT)
            assert log.grad_norm[k] == grad(p, data, ACT).norm
        assert theta_distance(p, log.final_params) == 0.0

    def test_final_weights_own_their_memory(self):
        # the trainer keeps W_1..W_L in one flat vector; the weights it
        # returns are separate arrays, not views of it
        rng = np.random.default_rng(41)
        data, params = random_instance(rng, 4, 3, (5, 3, 2))
        log = train(params, data, ACT, TrainConfig(eta=1e-2, max_steps=5))
        for w, w0 in zip(log.final_params.weights, params.weights):
            assert w.flags.c_contiguous and w.flags.owndata
            assert w.shape == w0.shape and not np.shares_memory(w, w0)

    def test_descent_for_small_steps(self):
        rng = np.random.default_rng(38)
        data, params = random_instance(rng, 4, 3, (5, 3, 2))
        log = train(params, data, ACT, TrainConfig(eta=1e-3, max_steps=200))
        assert np.all(np.diff(log.loss) <= 1e-12)

    def test_summary_fields(self):
        # summary.json's steps/records/diverged/stop_reason read these fields
        rng = np.random.default_rng(44)
        data, params = random_instance(rng, 3, 2, (4, 1))
        log = train(params, data, ACT, TrainConfig(eta=0.01, max_steps=5))
        assert log.n_steps - 1 == 5 and log.n_steps == 6
        assert log.diverged is False and log.stop_reason == "max_steps"
        assert log.phi0 == log.loss[0] and log.final_loss == log.loss[-1]

    def test_rejects_negative_eta(self):
        # and bools: True would train at eta = 1 or stop at loss 1.0; an
        # int past the float range is refused as infinite
        cases = [
            ("eta", -0.1), ("eta", True), ("eta", np.bool_(True)), ("eta", 10**400),
            ("stop_loss", True), ("stop_loss", np.bool_(False)),
        ]
        for field, value in cases:
            with pytest.raises(ValueError, match=field):
                TrainConfig(**{"eta": 0.0, "max_steps": 10, field: value})

    @pytest.mark.parametrize("max_steps", [3.0, 2.5, True, "3"])
    def test_rejects_non_integer_max_steps(self, max_steps):
        # a float would reach np.full as a row count, a bool would run a step
        with pytest.raises(ValueError, match="max_steps"):
            TrainConfig(eta=0.0, max_steps=max_steps)

    def test_numpy_integer_max_steps_is_stored_as_int(self):
        cfg = TrainConfig(eta=0.0, max_steps=np.int64(3))
        assert type(cfg.max_steps) is int and cfg.max_steps == 3


class TestSpectra:
    """``_Spectra`` alone, on walks of its four matrices (``F_1``, ``W_1``,
    ``W_2``, ``W_3``), driven as the trainer drives it: row 0 measures
    every matrix and is the reference; before each later row, one step
    updates ``W_1..W_3`` in one flat vector by ``theta -= fl(eta * g)`` and
    adds its bound to the running sum.  The last row, and every row whose
    running sum passed ``limit``, measures every matrix; another row where
    ``F_1`` moved (by replacement) measures ``F_1``.  Row 0 and every row
    from the first after it that measured ``F_1`` append ``F_1``'s last
    measured smallest singular value to its record, and ``cell_table``
    holds the cells, which compute the rows proven from the gradient
    norms when they are read."""

    SHAPES = [(5, 4), (3, 4), (4, 3), (3, 2)]
    N = 4

    @staticmethod
    def extremes(a):
        sv = np.linalg.svd(a, compute_uv=False)
        return float(sv[-1]), float(sv[0])

    def walk(self, spectra, f1, theta, weights, n_moves, move, eta):
        """The log of a walk of ``n_moves`` moves, ``move(k)`` giving the
        ``k``-th as a new ``F_1`` (or None) and a flat gradient ``g``: rows,
        the matrices measured on each row, the exact extremes of every
        matrix on every row, the running sum before each row, which rows
        moved ``F_1``, and row 0's extremes and margins, the reference."""
        n_rows = n_moves + 1
        norms = np.full(n_rows, np.nan)
        f1_record = spectra.records[0]
        exact, measured, sums, f1_moved = [], [], [0.0], [False]
        measure = spectra.measure
        spectra.measure = lambda i, a: (measured[-1].append(i), measure(i, a))
        P, first, suffix = 0.0, 0, False
        measured.append([])
        spectra.measure_all(0, (f1, *weights))
        f1_record.append(spectra.lows[0])
        ref = (list(spectra.lows), list(spectra.tops), list(spectra.margins))
        exact.append([self.extremes(a) for a in (f1, *weights)])
        for k in range(1, n_rows):
            new_f1, g = move(k)
            gn = math.sqrt(float(np.vdot(g, g)))
            norms[k - 1] = gn
            g = g * eta
            theta -= g
            P += gn * spectra.rate + spectra.creep
            sums.append(P)
            f1_moved.append(new_f1 is not None)
            if new_f1 is not None:
                f1 = new_f1
            measured.append([])
            if k == n_moves or not P <= spectra.limit:
                spectra.measure_all(k, (f1, *weights))
                first = first or k
                suffix = True
            elif new_f1 is not None:
                spectra.measure(0, f1)
                suffix = True
            if suffix:
                f1_record.append(spectra.lows[0])
            assert len(set(measured[-1])) == len(measured[-1])  # each at most once
            exact.append([self.extremes(a) for a in (f1, *weights)])
        # the weights' cells, read in blocks of 3 rows, are bit for bit the
        # block built after the walk
        cells = spectra.cell_table()
        # each weight record holds row 0 and rows first .. n_rows - 1
        assert {len(r) for r in cells.records[1:]} == {n_rows - first + 1}
        spectra.first = first  # the row cells_block proves up to
        want = cells_block(spectra, cells.records[1:], norms)
        rows = read_cells(cells, norms, 3)
        assert rows[:, 1:].tobytes() == want.tobytes()
        return rows, measured, exact, sums, f1_moved, ref

    def assert_log_holds(self, spectra, rows, measured, exact):
        """F_1's cell is the exact SVD's bitwise on every row.  No logged
        bound of a W is contradicted by an exact SVD, a measured one is the
        SVD's bitwise, and a proven one meets its threshold."""
        # the logged cells after F_1's, in the CSV's order: the lower bound
        # of the floored W_3 (sign -1), the upper bounds of every W (+1)
        cells = list(zip(spectra.matrices, spectra.signs))[1:]
        assert cells == [(3, -1.0), (1, 1.0), (2, 1.0), (3, 1.0)]
        column = {cell: 1 + j for j, cell in enumerate(cells)}
        assert rows.shape[1] == 1 + len(column)
        for k, ext in enumerate(exact):
            assert rows[k, 0] == ext[0][0]
            for i, (low, top) in enumerate(ext[1:], 1):
                lo, hi = (rows[k, column[i, s]] if (i, s) in column else None for s in (-1.0, 1.0))
                if i in measured[k]:
                    assert lo in (None, low) and hi in (None, top)  # bitwise
                    continue
                if lo is not None:
                    assert low >= lo >= spectra.thresholds[column[i, -1.0]]
                if hi is not None:
                    assert top <= hi <= spectra.thresholds[column[i, 1.0]]

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        # threshold offsets on either side of the exact values, or all provable
        st.lists(st.floats(-0.02, 0.1), min_size=4, max_size=4)
        | st.lists(st.floats(1e-6, 0.1), min_size=4, max_size=4),
        st.lists(
            st.lists(st.none() | st.floats(-17.0, -0.5), min_size=4, max_size=4),
            min_size=1,
            max_size=20,
        ),
    )
    def test_bounds_hold_and_measure_exactly_when_unproven(self, seed, offsets, walk):
        rng = np.random.default_rng(seed)
        f1 = rng.normal(size=self.SHAPES[0])
        theta, weights = _flat_views(self.SHAPES[1:])
        theta[...] = rng.normal(size=theta.size)
        first = [self.extremes(a) for a in (f1, *weights)]
        # the floor of W_3, caps of W_1..W_3: a negative offset puts a
        # threshold beyond the exact value, which no bound can prove.
        # F_1's floor is never proven: F_1 is measured wherever it moves.
        w3_floor = first[3][0] * (1.0 - offsets[0])
        caps = [top * (1.0 + off) for (_, top), off in zip(first[1:], offsets[1:])]
        spectra = _Spectra(self.SHAPES, np.array([first[0][0], w3_floor, *caps]), 1.0, len(walk))
        # each matrix's floor and cap, for the proof's edge written per matrix
        floors, caps = [-math.inf] * 3 + [w3_floor], [math.inf, *caps]

        # each listed matrix moves by a random step of relative size
        # 10**log_step, down to below half an ulp, where rounding doubles it
        moves, cur = [], f1
        for sizes in walk:
            g, parts = _flat_views(self.SHAPES[1:])
            g[...] = 0.0
            new_f1 = None
            for i, log_step in enumerate(sizes):
                if log_step is not None:
                    step = rng.normal(size=self.SHAPES[i])
                    step *= 10.0**log_step * first[i][1] / np.linalg.norm(step)
                    if i == 0:
                        new_f1 = cur = cur + step
                    else:
                        parts[i - 1][...] = step
            moves.append((new_f1, g))
        rows, measured, exact, sums, f1_moved, ref = self.walk(
            spectra, f1, theta, weights, len(moves), lambda k: moves[k - 1], 1.0
        )
        self.assert_log_holds(spectra, rows, measured, exact)

        # every matrix is measured on each row from the first whose running
        # sum passed limit (or the last row), and no W on a row before it
        # but row 0; F_1 there exactly where it moved
        n_rows = len(rows)
        past = [k for k in range(1, n_rows) if not sums[k] <= spectra.limit]
        edge = min(past + [n_rows - 1])
        assert spectra.first == edge
        for k in range(1, n_rows):
            if k >= edge:
                assert sorted(measured[k]) == list(range(self.N))
            else:
                assert measured[k] == ([0] if f1_moved[k] else [])

        # limit is the proof's own edge: with the running sum widened or
        # narrowed by a relative 1e-12, step 0's bounds could not or could
        # prove every W's thresholds
        def proves_all(P):
            lows, tops, margins = ref
            for i in range(1, self.N):
                radius = P * spectra.grow * spectra.inflate[i] + margins[i]
                if not (lows[i] - radius >= floors[i] and tops[i] + radius <= caps[i]):
                    return False
            return True

        for k in range(1, n_rows - 1):
            if proves_all(sums[k] * (1 + 1e-12)):
                assert k < edge
            if not proves_all(sums[k] * (1 - 1e-12)):
                assert k >= edge

    def test_a_rounded_step_moves_up_to_twice_its_size(self):
        # W_1 = u v^T has power-of-two entries; each step asks for a
        # relative 0.51 ulp, and every entry rounds up by a whole ulp, so
        # W_1 grows by a relative eps per step, twice the step's size.  A
        # path bound without the factor 2 falls below the exact norm.
        rng = np.random.default_rng(7)
        f1 = rng.normal(size=self.SHAPES[0])
        theta, weights = _flat_views(self.SHAPES[1:])
        theta[...] = rng.normal(size=theta.size)
        weights[0][...] = np.outer([1.0, 2.0, 0.5], [1.0, 4.0, 0.25, 2.0])
        w1 = weights[0].copy()
        eta = 0.51 * _EPS
        first = [self.extremes(a) for a in (f1, *weights)]
        caps = np.array([2.0 * top for _, top in first[1:]])
        steps = 400
        spectra = _Spectra(self.SHAPES, np.array([0.5 * first[0][0], 0.5 * first[3][0], *caps]), eta, steps)
        g, parts = _flat_views(self.SHAPES[1:])

        def move(_k):
            g[...] = 0.0
            np.negative(weights[0], parts[0])
            return None, g

        rows, measured, exact, *_ = self.walk(spectra, f1, theta, weights, steps, move, eta)
        assert np.array_equal(weights[0], w1 * (1.0 + steps * _EPS))
        assert not any(measured[1:-1])  # only the first and last rows measure
        self.assert_log_holds(spectra, rows, measured, exact)


class TestCells:
    """``_Cells`` alone, on synthetic records: ``F_1``'s (scale and offset
    0) and three weights' cells, ``F_1``'s split at or before the weights'.
    Read in blocks, every cell column must equal bitwise the whole-column
    rule written out: the running sum of ``grad_norm * rate + creep`` as a
    Python float in row order, ``((P * grow) * scale + offset) + record[0]``
    on the rows before the cell's split, and the record after it."""

    @staticmethod
    def split(data, lo, hi, size, label):
        """A split in ``lo .. hi``, on a block edge in some examples."""
        edges = [e for e in range(size, hi + 1, size) if e >= lo]
        pick = st.integers(lo, hi) | st.sampled_from(edges) if edges else st.integers(lo, hi)
        return data.draw(pick, label=label)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 200), st.sampled_from([1, 7, 64]), st.data())
    def test_blocks_are_the_whole_column_rule(self, n, size, data):
        s_w = self.split(data, 1, n, size, "s_w")
        s_f = self.split(data, 1, s_w, size, "s_f")
        grad_norm = np.array(data.draw(st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n), label="gn"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        splits = [s_f] + [s_w] * 3
        records = tuple(rng.exponential(size=n - s + 1) for s in splits)
        rate, creep, grow = (float(v) for v in rng.uniform(0.0, 2.0, size=3))
        scales = (0.0, *(float(v) for v in rng.uniform(-2.0, 2.0, size=3)))
        offsets = (0.0, *(float(v) for v in rng.uniform(-1.0, 1.0, size=3)))
        cells = _Cells(records, rate, creep, grow, scales, offsets)

        sums, P = [0.0], 0.0
        for k in range(1, n):
            P += float(grad_norm[k - 1]) * rate + creep
            sums.append(P)
        want = np.empty((n, len(records)))
        for j, (record, cut, scale, offset) in enumerate(zip(records, splits, scales, offsets)):
            for k in range(n):
                if k == 0:
                    want[k, j] = record[0]
                elif k < cut:
                    want[k, j] = ((sums[k] * grow) * scale + offset) + float(record[0])
                else:
                    want[k, j] = record[k - cut + 1]
        got = read_cells(cells, grad_norm, size)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # F_1's radius is 0: its rows before its split read row 0's value
        assert got[:s_f, 0].tobytes() == np.full(s_f, records[0][0]).tobytes()


def literal_train(params, data, act, eta, max_steps):
    """Gradient descent written out: ``forward`` and ``grad`` of the current
    weights, then an in-place update of every layer, on every step.  Returns
    the per-step losses and gradient norms, the stop reason and the final
    weights; a non-finite pre-activation reads as a NaN loss."""
    W = [w.copy() for w in params.weights]
    losses, norms = [], []
    k = 0
    while True:
        try:
            p = Params(tuple(W))
            trace = forward(p, data, act)
            g = grad(p, data, act)
            loss_k, norm_k = loss_of(trace), g.norm
        except ValueError:
            loss_k = norm_k = math.nan
        losses.append(loss_k)
        norms.append(norm_k)
        if not math.isfinite(loss_k) or loss_k > DIVERGENCE_LOSS:
            return losses, norms, "diverged", Params(tuple(W))
        if loss_k <= 0.0:  # TrainConfig's default stop_loss
            return losses, norms, "stop_loss", Params(tuple(W))
        if k == max_steps:
            return losses, norms, "max_steps", Params(tuple(W))
        for w, gl in zip(W, g.layers):
            w -= eta * gl
        k += 1


@st.composite
def pyramids(draw):
    """A small pyramidal instance: any first width, non-increasing after."""
    depth = draw(st.integers(2, 4))
    widths = [draw(st.integers(1, 6))]
    cap = 4
    for _ in range(depth - 1):
        cap = draw(st.integers(1, cap))
        widths.append(cap)
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data, params = random_instance(rng, n, d, tuple(widths))
    if draw(st.booleans()):
        # W_2 = 0, as the certifiable init sets it: W_1's first gradient is
        # zero, so W_1 stays put on step 0 and moves later
        ws = list(params.weights)
        ws[1] = np.zeros_like(ws[1])
        params = Params(tuple(ws))
    return data, params


# log10 of eta, one third each: below 1e-12 every update of W_1 rounds away;
# from 1e-8 to 1, W_1 moves on every step or, after a zero W_2, from step 1 on;
# above 1, most runs diverge or overflow
ETA_EXPONENTS = st.one_of(st.floats(-24.0, -12.0), st.floats(-8.0, 0.0), st.floats(0.0, 4.0))


class TestTrainEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(pyramids(), ETA_EXPONENTS, st.integers(0, 40))
    def test_train_matches_literal_loop(self, instance, log_eta, max_steps):
        data, params = instance
        eta = 10.0**log_eta
        with np.errstate(over="ignore", invalid="ignore"):
            losses, norms, stop_reason, final = literal_train(params, data, ACT, eta, max_steps)
            log = train(params, data, ACT, TrainConfig(eta=eta, max_steps=max_steps))
        assert np.array_equal(log.loss, losses, equal_nan=True)
        assert np.array_equal(log.grad_norm, norms, equal_nan=True)
        assert log.stop_reason == stop_reason
        for got, w in zip(log.final_params.weights, final.weights):
            assert np.array_equal(got, w)


def literal_kernels(params, data, act):
    """Forward and backward passes written with ``@`` and the checked
    ``value_and_slope``: the oracle of the kernels' ``np.dot`` products."""
    G, F, S = [], [data.X], []
    for w in params.weights[:-1]:
        G.append(F[-1] @ w)
        f, s = value_and_slope(act, G[-1])
        F.append(f)
        S.append(s)
    G.append(F[-1] @ params.weights[-1])
    F.append(G[-1])
    D, layers = F[-1] - data.Y, []
    for l in range(params.depth, 0, -1):
        layers.insert(0, F[l - 1].T @ D)
        if l > 1:
            D = (D @ params.weights[l - 1].T) * S[l - 2]
    return G, F, S, layers


class TestKernelProducts:
    @settings(max_examples=150, deadline=None)
    @given(pyramids())
    def test_np_dot_kernels_match_matmul_bitwise(self, instance):
        # np.dot and @ run the same BLAS gemm; any width may be 1, and N too
        data, params = instance
        G, F, S, layers = literal_kernels(params, data, ACT)
        trace = forward(params, data, ACT)
        for got, want in zip((trace.G, trace.F, trace.S), (G, F, S)):
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        g = grad(params, data, ACT)
        assert all(np.array_equal(a, b) for a, b in zip(g.layers, layers))


class TestW1Freeze:
    """The trainer keeps layer 1 for the next pass exactly when the step
    left W_1's bytes unchanged.  On either side of the edge where the step
    first moves W_1, the passes must keep layer 1 just where W_1 stayed,
    and every logged value and the final weights must equal the literal
    loop's bitwise."""

    # N=1, d=2, widths (2, 1): X's zero column and W_2's zero row leave one
    # nonzero entry in grad_1, at W_1[0, 0] = 0.25; grad_1 and W_1[0, 0] are
    # positive, so a step above a quarter of its spacing rounds W_1[0, 0]
    # down to the float below.  Row 1 of W_1 meets X's zero column only: a
    # zero, subnormal or tiny entry there never moves, and it does not
    # change the edge.
    W1 = {
        "powers-of-two": [[0.25, 1.0], [0.5, 2.0]],
        "zero": [[0.25, 1.0], [0.0, 2.0]],
        "subnormal": [[0.25, 1.0], [5e-324, 2.0]],
        "subnormal-tol-square": [[0.25, 1.0], [1e-140, 2.0]],
    }
    QUARTER_SPACING = 2.0**-56  # np.spacing(0.25) / 4

    def instance(self, w1, x0):
        data = Dataset(np.array([[x0, 0.0]]), np.array([[-1.0]]))
        return data, Params((np.array(self.W1[w1]), np.array([[1.0], [0.0]])))

    # x0 = 1e-170 makes grad_1 ~ 1e-170, whose square underflows to 0; the
    # rounded step eta * grad_1 ~ 2**-56 is the same, so the edge stays
    @pytest.mark.parametrize("x0", [1.0, 1e-170], ids=["normal", "underflowing-grad"])
    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    @pytest.mark.parametrize("w1", sorted(W1))
    def test_freeze_edge_matches_literal_loop(self, w1, side, x0):
        data, params = self.instance(w1, x0)
        g1 = grad(params, data, ACT).layers[0]
        assert np.count_nonzero(g1) == 1 and g1[0, 0] > 0.0
        # eta * ||grad_1|| just below or just above the tolerance
        eta = self.QUARTER_SPACING / g1[0, 0] * (1.0 + side * 1e-12)
        losses, norms, stop_reason, final = literal_train(params, data, ACT, eta, 3)
        with forward_starts() as starts:
            log = train(params, data, ACT, TrainConfig(eta=eta, max_steps=3))
        # every pass after a step below the edge keeps layer 1 (starts at
        # 1); every pass after a step above it recomputes layer 1
        assert starts == [0] + [int(side < 0)] * 3
        assert np.array_equal(log.loss, losses) and np.array_equal(log.grad_norm, norms)
        assert log.stop_reason == stop_reason == "max_steps"
        for got, w in zip(log.final_params.weights, final.weights):
            assert np.array_equal(got, w)
        # the edge is real: below it W_1 stays, above it W_1[0, 0] moves
        moved = not np.array_equal(final.weights[0], params.weights[0])
        assert moved == (side > 0)
