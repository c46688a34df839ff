"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The certified training
runs (criteria 2 and 3) share a module-scoped fixture so the ten runs execute
once.
"""

import math
import time

import numpy as np
import pytest
from oracles import (
    deriv2,
    distance_envelope,
    gap_bound,
    hermite_poly,
    jacobian_block,
    theta_distance,
    uniform_gap,
)

from pyrcert.activation import ActivationParams, as_function, evaluate, value_and_slope
from pyrcert.certificates import certify, monitor_invariants
from pyrcert.gradients import TrainConfig, grad, train
from pyrcert.initializers import (
    InitConfig,
    init_lecun,
    layer_rng,
    sphere_data,
    sphere_targets,
    tune_gain,
)
from pyrcert.lambda_star import (
    gram_hermite,
    gram_mc,
    hermite_coeffs,
    kr_min_singular,
    sigma_linear,
)
from pyrcert.network import Dataset, Params, Shape, forward, loss

ACT = ActivationParams(0.5, 1.0)


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" | {detail}"
    print(line, flush=True)
    assert ok, line


def random_pyramidal_instance(rng, max_n=8, max_d=6, max_depth=4, y_scale=1.0):
    n = int(rng.integers(2, max_n + 1))
    d = int(rng.integers(2, max_d + 1))
    depth = int(rng.integers(2, max_depth + 1))
    n1 = int(rng.integers(3, 9))
    deep = sorted((int(rng.integers(1, 7)) for _ in range(depth - 1)), reverse=True)
    widths = (n1, *deep)
    dims = (d, *widths)
    ws = tuple(
        rng.normal(size=(dims[i], dims[i + 1])) / math.sqrt(dims[i])
        for i in range(depth)
    )
    X = rng.normal(size=(n, d))
    Y = y_scale * rng.normal(size=(n, widths[-1]))
    return Dataset(X, Y), Params(ws)


def fd_loss_gradient(params, data, act, l, h=1e-6):
    W = params.weights[l - 1]
    out = np.zeros_like(W)
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            plus = [w.copy() for w in params.weights]
            minus = [w.copy() for w in params.weights]
            plus[l - 1][i, j] += h
            minus[l - 1][i, j] -= h
            out[i, j] = (
                loss(Params(tuple(plus)), data, act)
                - loss(Params(tuple(minus)), data, act)
            ) / (2 * h)
    return out


def kron_gradient(params, trace, l):
    N = trace.data.n_samples
    L = params.depth
    v = trace.residual().ravel(order="F")
    for p in range(L, l, -1):
        slope_diag = np.diag(trace.S[p - 2].ravel(order="F"))
        v = slope_diag @ (np.kron(params.weights[p - 1], np.eye(N)) @ v)
    return np.kron(np.eye(params.widths[l - 1]), trace.F[l - 1].T) @ v


# ---------------------------------------------------------------------------
# Criterion 1: gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(1001)
    start = time.time()
    worst_fd = 0.0
    worst_kron = 0.0
    for _ in range(50):
        data, params = random_pyramidal_instance(rng)
        tr = forward(params, data, ACT)
        g = grad(params, data, ACT, trace=tr)
        for l in range(1, params.depth + 1):
            fd = fd_loss_gradient(params, data, ACT, l)
            floor = 1e-6 * max(1.0, float(np.abs(fd).max()))
            rel = np.max(np.abs(fd - g.layers[l - 1]) / np.maximum(np.abs(fd), floor))
            worst_fd = max(worst_fd, float(rel))
            kron = kron_gradient(params, tr, l)
            got = g.layers[l - 1].ravel(order="F")
            worst_kron = max(worst_kron, float(np.max(np.abs(kron - got))))
    elapsed = time.time() - start
    ok = worst_fd <= 1e-5 and worst_kron <= 1e-10 and elapsed < 60.0
    report(
        "criterion 1: gradient correctness (50 instances)",
        ok,
        f"fd rel err {worst_fd:.3g} (<=1e-5), kron err {worst_kron:.3g} (<=1e-10), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criteria 2 and 3: certified geometric decay and parameter convergence
# ---------------------------------------------------------------------------

N_RUNS = 10


def certified_instance(seed, n=16, d=8, widths=(16, 6, 4, 2), y_scale=0.1):
    """Certifiable construction at the pinned sizes.

    Targets are rank-1 along the dominant first-layer feature direction,
    with small norm, so the certified (tiny) step size still drives the run
    to a global minimum within the step budget.
    """
    shape = Shape(d=d, widths=widths)
    X = sphere_data(n, d, seed=seed)
    cfg = InitConfig(gain=2.0, second_layer_var=0.0, seed=seed)
    data = Dataset(X, sphere_targets("aligned", shape, X, ACT, seed, y_scale))
    gain, params, cert = tune_gain(shape, data, ACT, cfg)
    return data, params, cert


@pytest.fixture(scope="module")
def certified_runs():
    runs = []
    start = time.time()
    for seed in range(N_RUNS):
        data, params, cert = certified_instance(seed)
        eta = 0.9 * cert.eta_max
        log = train(
            params,
            data,
            ACT,
            TrainConfig(eta=eta, max_steps=1_500_000, stop_loss=1e-12),
            cert=cert,
        )
        runs.append((cert, log))
    return runs, time.time() - start


def test_criterion_2_guaranteed_geometric_decay(certified_runs):
    runs, elapsed = certified_runs
    bound_violations = 0
    invariant_violations = 0
    reached = 0
    for cert, log in runs:
        rep = monitor_invariants(log, cert)
        counts = rep.n_violations
        bound_violations += counts["loss_bound"]
        invariant_violations += sum(counts.values())
        reached += log.final_loss <= 1e-8
        invariant_violations += 0 if rep.all_hold else 1
    ok = (
        bound_violations == 0
        and invariant_violations == 0
        and reached == N_RUNS
        and elapsed < 600.0
    )
    report(
        f"criterion 2: certified decay over {N_RUNS} seeds",
        ok,
        f"bound violations {bound_violations}, invariant violations "
        f"{invariant_violations}, runs reaching 1e-8: {reached}/{N_RUNS}, {elapsed:.0f}s",
    )


def test_criterion_3_parameter_convergence(certified_runs):
    runs, _ = certified_runs
    holds = 0
    worst_margin = math.inf
    for cert, log in runs:
        dist = distance_envelope(log, cert, 1e-8)
        if dist.holds:
            holds += 1
        worst_margin = min(worst_margin, float(np.min(dist.rhs - dist.lhs)))
    ok = holds == N_RUNS
    report(
        "criterion 3: parameter-distance envelope",
        ok,
        f"{holds}/{N_RUNS} runs inside (1-eta*alpha0)^(k/2)*Q1 + slack, "
        f"worst margin {worst_margin:.3g}",
    )


# ---------------------------------------------------------------------------
# Criterion 4: activation property suite
# ---------------------------------------------------------------------------


def test_criterion_4_activation_suite():
    grid = np.linspace(-20.0, 20.0, 10_000)
    pairs = [ActivationParams(g, b) for g in (0.1, 0.5, 0.9) for b in (0.5, 1.0, 3.0)]
    ok = True
    for act in pairs:
        slope = value_and_slope(act, grid)[1]
        ok &= bool(np.all(slope >= act.gamma) and np.all(slope <= 1.0))
        ok &= bool(np.all(np.abs(evaluate(act, grid)) <= np.abs(grid) + 1e-12))
        ok &= bool(np.all(np.abs(deriv2(act, grid)) <= act.beta + 1e-15))
        ok &= uniform_gap(act, grid) <= gap_bound(act)
    gaps = [uniform_gap(ActivationParams(0.5, b), grid) for b in (1.0, 10.0, 100.0, 1000.0)]
    monotone = all(a > b for a, b in zip(gaps, gaps[1:]))
    ok &= monotone and gaps[-1] <= gap_bound(ActivationParams(0.5, 1000.0))
    report(
        "criterion 4: activation suite (9 pairs x 1e4 points)",
        ok,
        f"gap sequence {['%.3g' % g for g in gaps]} monotone={monotone}",
    )


# ---------------------------------------------------------------------------
# Criterion 5: norm/Lipschitz inequality suite
# ---------------------------------------------------------------------------


def test_criterion_5_norm_inequalities():
    rng = np.random.default_rng(1005)
    slack = 1e-9
    fails = {"layer_norm": 0, "grad_norm": 0, "output_lip": 0, "jac_lip": 0}
    for _ in range(100):
        data, pa = random_pyramidal_instance(rng, max_n=5, max_d=4, max_depth=3)
        pb = Params(tuple(w + 0.1 * rng.normal(size=w.shape) for w in pa.weights))
        tra = forward(pa, data, ACT)
        ga = grad(pa, data, ACT, trace=tra)
        res = float(np.linalg.norm(tra.residual()))
        xf = float(np.linalg.norm(data.X))
        norms = [float(np.linalg.norm(w, 2)) for w in pa.weights]
        L = pa.depth

        prod = 1.0
        for l in range(1, L + 1):
            prod *= norms[l - 1]
            if np.linalg.norm(tra.F[l]) > xf * prod * (1 + slack) + slack:
                fails["layer_norm"] += 1
        for l in range(1, L + 1):
            rhs = xf * res
            for p in range(1, L + 1):
                if p != l:
                    rhs *= norms[p - 1]
            if np.linalg.norm(ga.layers[l - 1]) > rhs * (1 + slack) + slack:
                fails["grad_norm"] += 1

        caps = [
            max(na, float(np.linalg.norm(wb, 2)))
            for na, wb in zip(norms, pb.weights)
        ]
        dist = theta_distance(pa, pb)
        trb = forward(pb, data, ACT)
        out_rhs = math.sqrt(L) * xf * (np.prod(caps) / min(caps)) * dist
        if np.linalg.norm(tra.F[-1] - trb.F[-1]) > out_rhs * (1 + slack) + slack:
            fails["output_lip"] += 1

        R = float(np.prod([max(1.0, c) for c in caps]))
        jac_lip = math.sqrt(L) * xf * R * (1 + L * ACT.beta * xf * R) * dist
        for l in range(1, L + 1):
            Ja = jacobian_block(pa, data, ACT, l, trace=tra)
            Jb = jacobian_block(pb, data, ACT, l, trace=trb)
            if np.linalg.norm(Ja - Jb, 2) > jac_lip * (1 + slack) + slack:
                fails["jac_lip"] += 1
    ok = all(v == 0 for v in fails.values())
    report("criterion 5: norm and Lipschitz inequalities (100 pairs)", ok, str(fails))


# ---------------------------------------------------------------------------
# Criterion 6: lambda* machinery
# ---------------------------------------------------------------------------


def test_criterion_6_lambda_star_machinery():
    details = []

    # (a) linear activation: Gram -> X X^T / d, rank-deficient when N > d
    X = sphere_data(8, 4, seed=61)
    mc_lin = gram_mc(X, sigma_linear, 100_000, seed=61)
    a_ok = bool(
        np.all(np.abs(mc_lin.gram - X @ X.T / 4.0) <= 5.0 * mc_lin.stderr + 1e-12)
    ) and abs(mc_lin.lambda_min) <= 1e-10
    details.append(f"(a) linear ok={a_ok}")

    # (b) Hermite truncation vs Monte Carlo, N=16, d=8
    sig = as_function(ACT)
    X2 = sphere_data(16, 8, seed=62)
    spec = hermite_coeffs(sig, 10)
    herm = gram_hermite(X2, spec, r_max=10)
    mc = gram_mc(X2, sig, 1_000_000, seed=62)
    allowance = 5.0 * mc.stderr + herm.tail_mass
    b_ok = bool(np.all(np.abs(mc.gram - herm.gram) <= allowance))
    details.append(
        f"(b) max diff {np.max(np.abs(mc.gram - herm.gram)):.2e} "
        f"<= allowance min {np.min(allowance):.2e}: {b_ok}"
    )

    # (c) lambda* <= 1 (+ noise) on sphere data
    c_ok = True
    for seed in range(10):
        Xc = sphere_data(int(6 + seed), 8, seed=seed)
        est = gram_mc(Xc, sig, 20_000, seed=seed)
        c_ok &= est.lambda_min <= 1.0 + 5.0 * est.stderr_max
    details.append(f"(c) upper bound ok={c_ok}")

    # (d) correlation identity for Hermite pairs up to order 4
    rng = np.random.default_rng(64)
    x = rng.normal(size=6)
    x /= np.linalg.norm(x)
    y = rng.normal(size=6)
    y /= np.linalg.norm(y)
    W = rng.normal(size=(400_000, 6))
    wx, wy = W @ x, W @ y
    inner = float(x @ y)
    d_ok = True
    for j in range(5):
        hj = hermite_poly(j, wx)
        for k in range(5):
            prod = hj * hermite_poly(k, wy)
            mean = float(prod.mean())
            stderr = float(prod.std(ddof=1) / math.sqrt(len(prod)))
            want = inner**j if j == k else 0.0
            d_ok &= abs(mean - want) <= 5.0 * stderr + 1e-12
    details.append(f"(d) correlation identity ok={d_ok}")

    ok = a_ok and b_ok and c_ok and d_ok
    report("criterion 6: lambda* machinery", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# Criterion 7: Khatri-Rao smallest singular value
# ---------------------------------------------------------------------------


def test_criterion_7_khatri_rao_bound():
    n, d, r = 30, 40, 2
    threshold = d ** (r / 2.0) / 2.0
    hits = 0
    bound_ok = True
    for seed in range(100):
        X = sphere_data(n, d, seed=seed)
        exact, bound = kr_min_singular(X, r)
        hits += exact >= threshold
        bound_ok &= bound <= exact + 1e-9
    ok = hits >= 99 and bound_ok
    report(
        "criterion 7: Khatri-Rao floor (N=30, d=40, r=2)",
        ok,
        f"{hits}/100 above d^(r/2)/2={threshold}, bound<=exact: {bound_ok}",
    )


# ---------------------------------------------------------------------------
# Criterion 8: statistical initialization bounds
# ---------------------------------------------------------------------------


def test_criterion_8_statistical_initialization():
    n, d, n1, t = 8, 8, 256, 2.0
    X = sphere_data(n, d, seed=81)

    # feature-output norm bound under reciprocal-fan-in draws
    shape = Shape(d=d, widths=(n1, 16, 4))
    data = Dataset(X, np.zeros((n, 4)))
    depth = shape.depth
    rhs = 2 ** (depth - 1) * np.linalg.norm(X) / math.sqrt(d) * (math.sqrt(4) + t)
    out_hits = 0
    for s in range(200):
        tr = forward(init_lecun(shape, seed=s), data, ACT)
        out_hits += float(np.linalg.norm(tr.F[-1])) <= rhs

    # first-layer singular-value floor sqrt(n1 * lambda*)/2
    spec = hermite_coeffs(as_function(ACT), 12)
    lam_star = gram_hermite(X, spec, 12).lambda_min
    threshold = math.sqrt(n1 * lam_star) / 2.0
    sv_hits = 0
    for s in range(200):
        w1 = layer_rng(s, 1).normal(0.0, 1.0 / math.sqrt(d), size=(d, n1))
        f1 = evaluate(ACT, X @ w1)
        sv_hits += float(np.linalg.svd(f1, compute_uv=False)[-1]) >= threshold

    ok = out_hits / 200 >= 0.95 and sv_hits / 200 >= 0.95
    report(
        "criterion 8: statistical initialization bounds (200 seeds)",
        ok,
        f"output bound {out_hits}/200, sv floor {sv_hits}/200 "
        f"(threshold {threshold:.3f}, lambda*~{lam_star:.4f})",
    )


# ---------------------------------------------------------------------------
# Criterion 9: the LeCun application at one point, where the wide layer trains
# ---------------------------------------------------------------------------


def lecun_instance(n1):
    """Depth 2, N=4, d=8, widths (n1, 2), gaussian targets, LeCun init."""
    shape = Shape(d=8, widths=(n1, 2))
    X = sphere_data(4, 8, seed=0)
    data = Dataset(X, sphere_targets("gaussian", shape, X, ACT, 0, 0.1))
    params = init_lecun(shape, 0)
    return data, params, certify(params, data, ACT)


def test_criterion_9_lecun_wide_layer_trains():
    start = time.time()
    _, _, narrow = lecun_instance(2**12)
    data, params, cert = lecun_instance(2**16)
    refused = (
        not narrow.certified
        and not narrow.cond1_holds
        and narrow.cond2_holds
        and narrow.cond1_slack == pytest.approx(0.3761, abs=1e-4)
    )
    holds = cert.certified and cert.cond1_slack == pytest.approx(2.0446, abs=1e-4)
    log = train(
        params,
        data,
        ACT,
        TrainConfig(eta=0.9 * cert.eta_max, max_steps=100, stop_loss=0.0),
        cert=cert,
    )
    moved = [
        bool(np.all(w != w0)) for w, w0 in zip(log.final_params.weights, params.weights)
    ]
    ok = (
        refused
        and holds
        and log.n_steps == 101
        and monitor_invariants(log, cert).all_hold
        and all(moved)
        and log.final_loss < log.phi0
    )
    report(
        "criterion 9: LeCun application, depth 2, N=4 (refused at n1=2^12, holds at 2^16)",
        ok,
        f"cond1 slack {narrow.cond1_slack:.4f} -> {cert.cond1_slack:.4f}, "
        f"every entry moved per layer {moved}, loss {log.phi0:.4f} -> "
        f"{log.final_loss:.4f} in 100 certified steps, {time.time() - start:.1f}s",
    )
