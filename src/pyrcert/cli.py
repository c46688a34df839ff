"""Command-line front end: certify, train, lambda-star, kr, hermite, sweep.

Configuration comes from a JSON file merged over built-in defaults; command
line flags win over the file.  Every command records the fully resolved
configuration into its output directory, and all randomness flows from the
single top-level seed.  Exit codes: 0 on success (certificate holds, run
finished), 2 on a domain failure (certificate refused, run diverged), 1 on
operational errors (missing files, bad config).
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import click
import numpy as np

from .activation import ActivationParams, as_function
from .activation import evaluate  # noqa: F401 - bound here for perfbench's tracer
from .certificates import _json_safe, certificate_to_json, certify, monitor_invariants
from .gradients import TrainConfig, train, trainlog_summary, trainlog_to_csv
from .initializers import (
    InitConfig,
    init_certifiable,
    init_lecun,
    sphere_data,
    sphere_targets,
    tune_gain,
)
from .lambda_star import (
    gram_hermite,
    gram_mc,
    hermite_coeffs,
    kr_min_singular,
    sigma_linear,
)
from .network import _FLOAT_FMT, Dataset, Shape, _write_matrix_csv
from .network import dataset_from_csv, dataset_from_json
from .network import dataset_to_json as _dataset_to_json

DEFAULTS: dict = {
    "seed": 0,
    "out": None,
    "shape": {"d": 8, "widths": [16, 6, 4, 2]},
    "activation": {"gamma": 0.5, "beta": 1.0},
    "dataset": {
        "source": "sphere",
        "n": 16,
        "radius": None,  # default sqrt(d)
        "targets": "aligned",
        "target_scale": 0.1,
        "x_csv": None,
        "y_csv": None,
        "bundle": None,
    },
    "init": {
        "scheme": "certifiable",
        "gain": 2.0,
        "second_layer_var": 0.0,
        "auto_gain": True,
    },
    "train": {"eta": None, "max_steps": 200_000, "stop_loss": 1e-10},
    "lambda_star": {
        "method": "both",
        "sigma": "smoothed",
        "samples": 100_000,
        "r_max": 10,
        "quad_order": 200,
    },
    "kr": {"r": 2, "n": 30, "d": 40, "n_seeds": 100},
    "sweep": {"seeds": [0, 1, 2], "jobs": 1},
}

# the values each enumerated config key accepts
CHOICES: dict = {
    "init.scheme": ("certifiable", "lecun"),
    "dataset.source": ("sphere", "file"),
    "dataset.targets": ("aligned", "gaussian"),
    "lambda_star.method": ("mc", "hermite", "both"),
    "lambda_star.sigma": ("smoothed", "linear"),
}


def _merge(base: dict, override: dict, prefix: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        if key not in base:
            raise ValueError(f"unknown config key {prefix + key!r}")
        if isinstance(base[key], dict) != isinstance(value, dict):
            kind = "an object" if isinstance(base[key], dict) else "not an object"
            raise ValueError(f"config key {prefix + key!r} must be {kind}, got {value!r}")
        if isinstance(value, dict):
            out[key] = _merge(base[key], value, f"{prefix}{key}.")
        else:
            out[key] = value
    return out


def _check_finite(node, dotted: str = "") -> None:
    """Reject a non-finite number anywhere in the config: strict JSON would
    record it as ``null``, which reads back as "use the default"."""
    if isinstance(node, dict):
        for key, value in node.items():
            _check_finite(value, f"{dotted}.{key}" if dotted else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _check_finite(value, f"{dotted}[{i}]")
    elif isinstance(node, float) and not math.isfinite(node):
        raise ValueError(f"config key {dotted!r} must be finite, got {node!r}")


def _check_seeds(cfg: dict) -> None:
    """Reject a seed that is not a non-negative integer, and a sweep that
    repeats one: a run would truncate 2.7 to seed 2, numpy's seeding
    rejects -1 only after ``config.json`` is written, and two runs of one
    seed write the same ``run_<seed>/``."""
    seeds = cfg["sweep"]["seeds"]
    if not isinstance(seeds, list):
        raise ValueError(f"config key 'sweep.seeds' must be a list, got {seeds!r}")
    named = [("seed", cfg["seed"])] + [(f"sweep.seeds[{i}]", s) for i, s in enumerate(seeds)]
    for dotted, seed in named:
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ValueError(f"config key {dotted!r} must be a non-negative integer, got {seed!r}")
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ValueError(f"config key 'sweep.seeds[{i}]' repeats seed {seed}")


def _load_config(path: str | None, flags: dict) -> dict:
    """Defaults merged with the JSON file at ``path``, then the flags that
    were given (keyed by dotted config path, e.g. ``"lambda_star.r_max"``).
    A key the defaults do not have, a value outside ``CHOICES``, a
    non-finite number, a seed that is not a non-negative integer or a
    repeated sweep seed raises ``ValueError`` (exit 1) instead of being ignored."""
    cfg = json.loads(json.dumps(DEFAULTS))  # deep copy: commands mutate their config
    if path is not None:
        with open(path) as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ValueError(f"config root must be a JSON object: {path}")
        cfg = _merge(cfg, user)
    for dotted, value in flags.items():
        if value is not None:
            *parents, leaf = dotted.split(".")
            node = cfg
            for key in parents:
                node = node[key]
            node[leaf] = value
    for dotted, allowed in CHOICES.items():
        section, key = dotted.split(".")
        if cfg[section][key] not in allowed:
            raise ValueError(
                f"config key {dotted!r} must be one of {allowed}, got {cfg[section][key]!r}"
            )
    _check_finite(cfg)
    _check_seeds(cfg)
    return cfg


def _resolve_out(cfg: dict, out_flag: str | None, command: str) -> Path:
    out = out_flag or cfg.get("out") or os.environ.get("PYRCERT_OUT") or "pyrcert_out"
    path = Path(out) / command if out_flag is None and cfg.get("out") is None else Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _json_text(payload) -> str:
    return json.dumps(_json_safe(payload), indent=2, allow_nan=False)


def _write_json(path: Path, payload) -> None:
    path.write_text(_json_text(payload))


def _setup(command: str, config_path: str | None, out: str | None, flags: dict):
    """Load the config with the given flags applied, resolve the output
    directory and record ``config.json`` there."""
    cfg = _load_config(config_path, flags)
    out_dir = _resolve_out(cfg, out, command)
    _write_json(out_dir / "config.json", cfg)
    return cfg, out_dir


def _activation(cfg: dict) -> ActivationParams:
    a = cfg["activation"]
    return ActivationParams(float(a["gamma"]), float(a["beta"]))


def _sigma(cfg: dict):
    """The function whose Gram and Hermite series lambda-star and hermite study."""
    linear = cfg["lambda_star"]["sigma"] == "linear"
    return sigma_linear if linear else as_function(_activation(cfg))


def _build_dataset(cfg: dict, shape: Shape, act: ActivationParams, seed: int) -> Dataset:
    ds = cfg["dataset"]
    if ds["source"] == "file":
        if ds["bundle"]:
            return dataset_from_json(ds["bundle"])
        if not (ds["x_csv"] and ds["y_csv"]):
            raise ValueError("file dataset needs either 'bundle' or both 'x_csv' and 'y_csv'")
        return dataset_from_csv(ds["x_csv"], ds["y_csv"])
    X = sphere_data(int(ds["n"]), shape.d, radius=ds["radius"], seed=seed)
    Y = sphere_targets(ds["targets"], shape, X, act, seed, float(ds["target_scale"]))
    return Dataset(X, Y)


def _build_params_and_cert(cfg, shape, data, act, seed, tune=True):
    init = cfg["init"]
    if init["scheme"] == "lecun":
        params = init_lecun(shape, seed)
        return params, certify(params, data, act)
    icfg = InitConfig(
        gain=float(init["gain"]), second_layer_var=float(init["second_layer_var"]), seed=seed
    )
    if tune and init["auto_gain"]:
        try:
            _, params, cert = tune_gain(shape, data, act, icfg)
            return params, cert
        except RuntimeError:
            pass  # fall through and report the failing certificate as-is
    params = init_certifiable(shape, data, icfg)
    return params, certify(params, data, act)


def _echo_cert(cert) -> None:
    click.echo(f"lambda_F = {cert.lambda_f:.6g}   phi0 = {cert.phi0:.6g}")
    conds = ((1, cert.cond1_holds, cert.cond1_slack), (2, cert.cond2_holds, cert.cond2_slack))
    for i, holds, slack in conds:
        click.echo(f"init condition {i}: {'holds' if holds else 'FAILS'} (slack {slack:.6g})")
    click.echo(
        f"alpha0 = {cert.alpha0:.6g}   Q0 = {cert.q0:.6g}   Q1 = {cert.q1:.6g}   "
        f"eta_max = {cert.eta_max:.6g}"
    )


def _fail(exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(1)


@click.group()
def main() -> None:
    """Convergence certificates for deep pyramidal networks."""


@main.command()
@click.option("--config", "config_path", type=str, default=None, help="JSON config file.")
@click.option("--seed", type=int, default=None, help="Override the top-level seed.")
@click.option("--out", type=str, default=None, help="Output directory.")
def certify_cmd(config_path, seed, out) -> None:
    """Compute a convergence certificate and write certificate.json."""
    try:
        cfg, out_dir = _setup("certify", config_path, out, {"seed": seed})
        run_seed = int(cfg["seed"])
        shape = Shape(d=cfg["shape"]["d"], widths=tuple(cfg["shape"]["widths"]))
        act = _activation(cfg)
        data = _build_dataset(cfg, shape, act, run_seed)
        _dataset_to_json(data, out_dir / "dataset.json")
        _, cert = _build_params_and_cert(cfg, shape, data, act, run_seed)
        certificate_to_json(cert, out_dir / "certificate.json")
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _fail(exc)
    _echo_cert(cert)
    if cert.certified:
        click.echo(f"certificate holds; wrote {out_dir / 'certificate.json'}")
        sys.exit(0)
    if cert.degenerate_reason is not None:
        click.echo(f"certificate failed: lambda_F = 0 ({cert.degenerate_reason})", err=True)
    else:
        click.echo("certificate failed", err=True)
    sys.exit(2)


main.add_command(certify_cmd, name="certify")


@main.command()
@click.option("--config", "config_path", type=str, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", type=str, default=None)
@click.option("--eta", type=float, default=None, help="Step size; omit to use the certified cap.")
@click.option("--max-steps", type=int, default=None)
@click.option("--stop-loss", type=float, default=None)
def train_cmd(config_path, seed, out, eta, max_steps, stop_loss) -> None:
    """Run full-batch gradient descent, logging loss, bound, and invariants."""
    try:
        flags = {
            "seed": seed,
            "train.eta": eta,
            "train.max_steps": max_steps,
            "train.stop_loss": stop_loss,
        }
        cfg, out_dir = _setup("train", config_path, out, flags)
        summary, code = _run_training(cfg, out_dir)
        _write_json(out_dir / "summary.json", summary)
    except Exception as exc:  # noqa: BLE001
        _fail(exc)
    click.echo(_json_text(summary))
    sys.exit(code)


main.add_command(train_cmd, name="train")


def _run_training(cfg: dict, out_dir: Path) -> tuple[dict, int]:
    """Shared train pipeline (also used by sweep workers)."""
    run_seed = int(cfg["seed"])
    shape = Shape(d=cfg["shape"]["d"], widths=tuple(cfg["shape"]["widths"]))
    act = _activation(cfg)
    data = _build_dataset(cfg, shape, act, run_seed)
    tr = cfg["train"]
    eta = tr["eta"]
    # gain auto-tuning only when the run needs the certified step size
    params, cert = _build_params_and_cert(cfg, shape, data, act, run_seed, tune=eta is None)
    certificate_to_json(cert, out_dir / "certificate.json")
    if eta is None:
        if not cert.certified:
            raise RuntimeError(
                "no step size given and the certificate does not hold; pass --eta"
            )
        eta = 0.9 * cert.eta_max  # strict inequality against the certified cap
    eta = float(eta)
    use_cert = cert if (cert.certified and eta < cert.eta_max) else None
    tcfg = TrainConfig(eta, int(tr["max_steps"]), float(tr["stop_loss"]))
    log = train(params, data, act, tcfg, cert=use_cert)
    report = monitor_invariants(log, use_cert) if use_cert is not None else None
    trainlog_to_csv(log, out_dir / "trainlog.csv", report)
    summary = trainlog_summary(log)
    summary["seed"] = run_seed
    summary["certified"] = use_cert is not None
    if report is not None:
        summary["alpha0"] = use_cert.alpha0
        summary["violations"] = report.n_violations
        summary["invariants_hold"] = report.all_hold
        summary["first_violation"] = report.first_violation
    return summary, (2 if log.diverged else 0)


@main.command(name="lambda-star")
@click.option("--config", "config_path", type=str, default=None)
@click.option("--method", type=click.Choice(CHOICES["lambda_star.method"]), default=None)
@click.option("--sigma", type=click.Choice(CHOICES["lambda_star.sigma"]), default=None)
@click.option("--gamma", type=float, default=None)
@click.option("--beta", type=float, default=None)
@click.option("--n", "--N", "n_samples", type=int, default=None, help="Number of data rows.")
@click.option("--d", type=int, default=None, help="Data dimension.")
@click.option("--samples", type=int, default=None, help="Monte Carlo sample count.")
@click.option("--r-max", type=int, default=None, help="Series truncation order.")
@click.option("--seed", type=int, default=None)
@click.option("--out", type=str, default=None)
@click.option("--full-matrix", is_flag=True, help="Also write the Gram matrix as CSV.")
def lambda_star_cmd(
    config_path, method, sigma, gamma, beta, n_samples, d, samples, r_max, seed, out, full_matrix
) -> None:
    """Estimate the expected first-layer Gram matrix and its bottom eigenvalue."""
    try:
        flags = {
            "lambda_star.method": method,
            "lambda_star.sigma": sigma,
            "lambda_star.samples": samples,
            "lambda_star.r_max": r_max,
            "activation.gamma": gamma,
            "activation.beta": beta,
            "dataset.n": n_samples,
            "shape.d": d,
            "seed": seed,
        }
        cfg, out_dir = _setup("lambda_star", config_path, out, flags)
        ls = cfg["lambda_star"]
        run_seed = int(cfg["seed"])
        ds = cfg["dataset"]
        X = sphere_data(int(ds["n"]), int(cfg["shape"]["d"]), radius=ds["radius"], seed=run_seed)
        sig = _sigma(cfg)
        payload: dict = {"sigma": getattr(sig, "label", "sigma"), "seed": run_seed}
        mc = herm = None
        if ls["method"] in ("mc", "both"):
            mc = gram_mc(X, sig, int(ls["samples"]), seed=run_seed)
            payload["monte_carlo"] = {
                "lambda_min": mc.lambda_min,
                "n_samples": mc.n_samples,
                "stderr_max": mc.stderr_max,
            }
        if ls["method"] in ("hermite", "both"):
            spec = hermite_coeffs(sig, int(ls["r_max"]), int(ls["quad_order"]))
            herm = gram_hermite(X, spec, int(ls["r_max"]))
            payload["hermite"] = {
                "lambda_min": herm.lambda_min,
                "r_max": herm.r_max,
                "tail_mass": herm.tail_mass,
            }
        if mc is not None and herm is not None:
            diff = float(np.max(np.abs(mc.gram - herm.gram)))
            payload["discrepancy"] = {
                "max_abs_entry_diff": diff,
                "allowance_5stderr_plus_tail": 5.0 * mc.stderr_max + herm.tail_mass,
            }
        _write_json(out_dir / "gram.json", payload)
        if full_matrix:
            _write_matrix_csv((mc if mc is not None else herm).gram, out_dir / "gram.csv", "g")
    except Exception as exc:  # noqa: BLE001
        _fail(exc)
    click.echo(_json_text(payload))
    sys.exit(0)


@main.command(name="kr")
@click.option("--config", "config_path", type=str, default=None)
@click.option("--n", "--N", "n_rows", type=int, default=None)
@click.option("--d", type=int, default=None)
@click.option("--r", type=int, default=None)
@click.option("--n-seeds", type=int, default=None)
@click.option("--seed", type=int, default=None, help="First seed of the sweep.")
@click.option("--out", type=str, default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
def kr_cmd(config_path, n_rows, d, r, n_seeds, seed, out, fmt) -> None:
    """Smallest singular values of Khatri-Rao powers over seeded sphere data."""
    try:
        flags = {"kr.n": n_rows, "kr.d": d, "kr.r": r, "kr.n_seeds": n_seeds, "seed": seed}
        cfg, out_dir = _setup("kr", config_path, out, flags)
        kr = cfg["kr"]
        base = int(cfg["seed"])
        dim, power = int(kr["d"]), int(kr["r"])
        threshold = dim ** (power / 2.0) / 2.0
        rows = []
        for s in range(base, base + int(kr["n_seeds"])):
            X = sphere_data(int(kr["n"]), dim, seed=s)
            exact, bound = kr_min_singular(X, power)
            rows.append((s, exact, bound, exact >= threshold))
        if fmt == "csv":
            with open(out_dir / "kr.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["seed", "sigma_min", "bound", "pass"])
                for s, exact, bound, ok in rows:
                    writer.writerow([s, format(exact, _FLOAT_FMT), format(bound, _FLOAT_FMT), int(ok)])
        else:
            payload = [
                {"seed": s, "sigma_min": exact, "bound": bound, "pass": bool(ok)}
                for s, exact, bound, ok in rows
            ]
            _write_json(out_dir / "kr.json", payload)
    except Exception as exc:  # noqa: BLE001
        _fail(exc)
    n_pass = sum(1 for row in rows if row[3])
    click.echo(f"{'seed':>6} {'sigma_min':>14} {'bound':>14} pass")
    for s, exact, bound, ok in rows[:20]:
        click.echo(f"{s:>6} {exact:>14.6g} {bound:>14.6g} {int(ok)}")
    if len(rows) > 20:
        click.echo(f"... ({len(rows)} rows total)")
    click.echo(f"passes: {n_pass}/{len(rows)} at threshold d^(r/2)/2 = {threshold:.6g}")
    sys.exit(0)


@main.command(name="hermite")
@click.option("--config", "config_path", type=str, default=None)
@click.option("--sigma", type=click.Choice(CHOICES["lambda_star.sigma"]), default=None)
@click.option("--gamma", type=float, default=None)
@click.option("--beta", type=float, default=None)
@click.option("--r-max", type=int, default=None)
@click.option("--quad-order", type=int, default=None)
@click.option("--out", type=str, default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json")
def hermite_cmd(config_path, sigma, gamma, beta, r_max, quad_order, out, fmt) -> None:
    """Hermite coefficients of the configured activation."""
    try:
        flags = {
            "lambda_star.sigma": sigma,
            "activation.gamma": gamma,
            "activation.beta": beta,
            "lambda_star.r_max": r_max,
            "lambda_star.quad_order": quad_order,
        }
        cfg, out_dir = _setup("hermite", config_path, out, flags)
        ls = cfg["lambda_star"]
        sig = _sigma(cfg)
        spec = hermite_coeffs(sig, int(ls["r_max"]), int(ls["quad_order"]))
        payload = {
            "target": spec.target,
            "quad_order": spec.quad_order,
            "coeffs": spec.coeffs.tolist(),
            "converged": spec.converged.tolist(),
            "norm_sq": spec.norm_sq,
            "tail_mass": spec.tail_mass(spec.r_max),
        }
        _write_json(out_dir / "hermite.json", payload)
        if fmt == "csv":
            with open(out_dir / "hermite.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["r", "coeff", "converged"])
                for r, (mu, conv) in enumerate(zip(spec.coeffs, spec.converged)):
                    writer.writerow([r, format(mu, _FLOAT_FMT), int(conv)])
    except Exception as exc:  # noqa: BLE001
        _fail(exc)
    click.echo(_json_text(payload))
    sys.exit(0)


def _sweep_entry(cfg_json: str, seed: int, out_str: str) -> dict:
    """One sweep run; top level so a process pool can pickle it."""
    cfg = json.loads(cfg_json)
    cfg["seed"] = seed
    out_dir = Path(out_str)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "config.json", cfg)
    try:
        summary, code = _run_training(cfg, out_dir)
    except Exception as exc:  # noqa: BLE001 - recorded per entry
        return {"seed": seed, "error": str(exc), "exit_code": 1}
    summary["exit_code"] = code
    _write_json(out_dir / "summary.json", summary)
    return summary


@main.command(name="sweep")
@click.option("--config", "config_path", type=str, default=None)
@click.option("--out", type=str, default=None)
@click.option("--jobs", type=int, default=None,
              help="Worker pool size (>= 1; capped at the seed and CPU counts).")
def sweep_cmd(config_path, out, jobs) -> None:
    """Run the train pipeline over a list of seeds and aggregate the outcomes."""
    try:
        cfg, out_dir = _setup("sweep", config_path, out, {"sweep.jobs": jobs})
        seeds = list(cfg["sweep"]["seeds"])
        if not seeds:
            raise ValueError("sweep.seeds must be non-empty")
        n_jobs = int(cfg["sweep"]["jobs"])
        if n_jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {n_jobs}")
        n_jobs = min(n_jobs, len(seeds), os.cpu_count() or 1)
        cfg_json = json.dumps(cfg)
        entries = [(cfg_json, int(s), str(out_dir / f"run_{s}")) for s in seeds]
        if n_jobs > 1:
            with ProcessPoolExecutor(max_workers=n_jobs) as pool:
                results = list(pool.map(_sweep_entry, *zip(*entries)))
        else:
            results = [_sweep_entry(*entry) for entry in entries]
        violations = 0
        for res in results:
            violations += sum(res.get("violations", {}).values())
        aggregate = {
            "n_runs": len(results),
            "total_violations": violations,
            "all_certified": all(res.get("certified", False) for res in results),
            "runs": results,
        }
        _write_json(out_dir / "aggregate.json", aggregate)
    except Exception as exc:  # noqa: BLE001
        _fail(exc)
    click.echo(_json_text({k: aggregate[k] for k in ("n_runs", "total_violations", "all_certified")}))
    sys.exit(2 if any(res.get("exit_code", 0) != 0 for res in results) else 0)


if __name__ == "__main__":  # pragma: no cover
    main()
