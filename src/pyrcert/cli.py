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
import operator
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import click
import numpy as np

from .activation import ActivationParams, as_function
from .activation import evaluate  # noqa: F401 - bound here for perfbench's tracer
from .certificates import _json_safe, certificate_to_json, certify, monitor_invariants
from .gradients import TrainConfig, train, trainlog_to_csv
from .initializers import (
    InitConfig,
    init_certifiable,
    init_lecun,
    sphere_data,
    sphere_targets,
    tune_gain,
)
from .lambda_star import (
    MAX_HERMITE_ORDER,
    gram_hermite,
    gram_mc,
    hermite_coeffs,
    kr_min_singular,
    sigma_linear,
)
from .network import _FLOAT_FMT, Dataset, Shape, _write_matrix_csv
from .network import dataset_from_csv, dataset_from_json
from .network import dataset_to_json as _dataset_to_json

# Every config leaf by dotted path: (default, type, domain).  A type is
# "int", "float", "bool", "str" or "[int]" (a list of ints), with a trailing
# "?" if null is allowed.  A string's domain is its choices; any other
# domain holds rules: bounds such as ">= 0", "> 1" or "< 1" (on a number or
# each list entry), "unique" and "non-empty" (on a list).  A domain is given
# where a later step refuses the value anyway, so the walker refuses it
# sooner, and on kr.n_seeds, whose 0 would run no seed.
CONFIG: dict[str, tuple] = {
    "seed": (0, "int", (">= 0",)),
    "out": (None, "str?", ()),
    "shape.d": (8, "int", (">= 1",)),
    "shape.widths": ([16, 6, 4, 2], "[int]", (">= 1", "non-empty")),
    "activation.gamma": (0.5, "float", ("> 0", "< 1")),
    "activation.beta": (1.0, "float", ("> 0",)),
    "dataset.source": ("sphere", "str", ("sphere", "file")),
    "dataset.n": (16, "int", (">= 1",)),
    "dataset.radius": (None, "float?", ("> 0",)),  # null: sqrt(d)
    "dataset.targets": ("aligned", "str", ("aligned", "gaussian")),
    "dataset.target_scale": (0.1, "float", ()),
    "dataset.x_csv": (None, "str?", ()),
    "dataset.y_csv": (None, "str?", ()),
    "dataset.bundle": (None, "str?", ()),
    "init.scheme": ("certifiable", "str", ("certifiable", "lecun")),
    "init.gain": (2.0, "float", ("> 1",)),
    "init.second_layer_var": (0.0, "float", (">= 0",)),
    "init.auto_gain": (True, "bool", ()),
    "train.eta": (None, "float?", (">= 0",)),  # null: 0.9 * the certified cap
    "train.max_steps": (200_000, "int", (">= 0",)),
    "train.stop_loss": (1e-10, "float", (">= 0",)),
    "lambda_star.method": ("both", "str", ("mc", "hermite", "both")),
    "lambda_star.sigma": ("smoothed", "str", ("smoothed", "linear")),
    "lambda_star.samples": (100_000, "int", (">= 1",)),
    "lambda_star.r_max": (10, "int", (">= 0", f"<= {MAX_HERMITE_ORDER}")),
    "lambda_star.quad_order": (200, "int", (">= 1",)),
    "kr.r": (2, "int", (">= 1",)),
    "kr.n": (30, "int", (">= 1",)),
    "kr.d": (40, "int", (">= 1",)),
    "kr.n_seeds": (100, "int", (">= 1",)),
    "sweep.seeds": ([0, 1, 2], "[int]", (">= 0", "unique", "non-empty")),
    "sweep.jobs": (1, "int", (">= 1",)),
}

_TYPES = {"int": (int, "integer"), "float": (float, "number"), "bool": (bool, "boolean"),
          "str": (str, "string")}
_OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}
_SIGNS = {">= 0": "non-negative ", ">= 1": "positive "}


def _holds(value, bound: str) -> bool:
    """Whether a number meets a bound rule such as ``"> 0"``."""
    op, limit = bound.split()
    return _OPS[op](value, float(limit))


def _check(key: str, value, kind: str, domain: tuple):
    """``value`` checked against a type and domain from ``CONFIG``; an int
    given for a float comes back as a float."""
    if kind == "[int]":
        if not isinstance(value, list):
            raise ValueError(f"config key {key!r} must be a list, got {value!r}")
        if not value and "non-empty" in domain:
            raise ValueError(f"config key {key!r} must not be empty")
        items = [_check(f"{key}[{i}]", v, "int", domain) for i, v in enumerate(value)]
        for i, item in enumerate(items):
            if "unique" in domain and item in items[:i]:
                raise ValueError(f"config key '{key}[{i}]' repeats seed {item}")
        return items
    nullable, kind = kind.endswith("?"), kind.rstrip("?")
    if value is None and nullable:
        return None
    if kind == "float" and type(value) is int:
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if isinstance(value, float) and not math.isfinite(value):
        # strict JSON would record it as null, which reads back as the default
        raise ValueError(f"config key {key!r} must be finite, got {value!r}")
    typ, noun = _TYPES[kind]
    choices = domain if kind == "str" else ()
    bounds = () if choices else [rule for rule in domain if rule.split()[0] in _OPS]
    if type(value) is typ and (
        value in choices if choices else all(_holds(value, rule) for rule in bounds)
    ):
        return value
    sign = "".join(_SIGNS.get(rule, "") for rule in bounds)
    rest = " and ".join(rule for rule in bounds if rule not in _SIGNS)
    article = "an " if (sign + noun)[0] in "aeiou" else "a "
    want = f"one of {choices}" if choices else article + sign + noun
    if rest:
        want += " " + rest
    raise ValueError(
        f"config key {key!r} must be {want}{' or null' if nullable else ''}, got {value!r}"
    )


def _flatten(node, prefix: str, flat: dict) -> None:
    """Copy the leaves of the config section ``node`` (the whole config when
    ``prefix`` is empty) into ``flat`` by dotted key."""
    if not isinstance(node, dict):
        where = f"key {prefix[:-1]!r}" if prefix else "root"
        raise ValueError(f"config {where} must be an object, got {node!r}")
    for key, value in node.items():
        dotted = prefix + key
        if "." not in key and dotted in CONFIG:
            flat[dotted] = value  # _check refuses an object here
        elif any(leaf.startswith(dotted + ".") for leaf in CONFIG):
            _flatten(value, dotted + ".", flat)
        else:
            raise ValueError(f"unknown config key {dotted!r}")


def _load_config(path: str | None, flags: dict) -> dict:
    """The defaults in ``CONFIG`` merged with the JSON file at ``path``, then
    with the flags that were given (keyed by dotted path, e.g.
    ``"lambda_star.r_max"``), every leaf checked against its type and domain,
    and ``lambda_star.quad_order`` checked to exceed ``lambda_star.r_max``.
    An unknown key, an object where a value belongs or the reverse, a wrong
    type, a non-finite number or a value outside its domain raises
    ``ValueError`` (exit 1) naming the key."""
    flat = {key: default for key, (default, _, _) in CONFIG.items()}
    if path is not None:
        with open(path) as fh:
            _flatten(json.load(fh), "", flat)
    flat.update((key, value) for key, value in flags.items() if value is not None)
    cfg: dict = {}
    for key, value in flat.items():
        *sections, leaf = key.split(".")
        node = cfg
        for section in sections:
            node = node.setdefault(section, {})
        node[leaf] = _check(key, value, *CONFIG[key][1:])
    ls = cfg["lambda_star"]
    if ls["quad_order"] <= ls["r_max"]:
        raise ValueError(
            f"config key 'lambda_star.quad_order' must exceed 'lambda_star.r_max' "
            f"({ls['r_max']}), got {ls['quad_order']}"
        )
    return cfg


def _resolve_out(cfg: dict, out_flag: str | None, command: str) -> Path:
    out = out_flag or cfg["out"] or os.environ.get("PYRCERT_OUT") or "pyrcert_out"
    path = Path(out) / command if out_flag is None and cfg["out"] is None else Path(out)
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
    return ActivationParams(a["gamma"], a["beta"])


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
    X = sphere_data(ds["n"], shape.d, radius=ds["radius"], seed=seed)
    Y = sphere_targets(ds["targets"], shape, X, act, seed, ds["target_scale"])
    return Dataset(X, Y)


def _build_params_and_cert(cfg, shape, data, act, seed, tune=True):
    init = cfg["init"]
    if init["scheme"] == "lecun":
        params = init_lecun(shape, seed)
        return params, certify(params, data, act)
    icfg = InitConfig(gain=init["gain"], second_layer_var=init["second_layer_var"], seed=seed)
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


class _Refused(RuntimeError):
    """The certified step size was asked for and the certificate is refused."""

    exit_code = 2  # a domain failure; every other error exits 1


def _fail(exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(getattr(exc, "exit_code", 1))


def _exit_one(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except click.UsageError as exc:
        exc.exit_code = 1
        raise


class _Main(click.Group):
    """A usage error (unknown flag, bad flag value) exits 1 like every
    operational error, not with click's 2, which means a domain failure here."""

    def make_context(self, *args, **kwargs):
        return _exit_one(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _exit_one(super().invoke, ctx)


@click.group(cls=_Main)
def main() -> None:
    """Convergence certificates for deep pyramidal networks."""


@main.command(name="certify")
@click.option("--config", "config_path", type=str, default=None, help="JSON config file.")
@click.option("--seed", type=int, default=None, help="Override the top-level seed.")
@click.option("--out", type=str, default=None, help="Output directory.")
def certify_cmd(config_path, seed, out) -> None:
    """Compute a convergence certificate and write certificate.json."""
    try:
        cfg, out_dir = _setup("certify", config_path, out, {"seed": seed})
        shape = Shape(d=cfg["shape"]["d"], widths=tuple(cfg["shape"]["widths"]))
        act = _activation(cfg)
        data = _build_dataset(cfg, shape, act, cfg["seed"])
        _dataset_to_json(data, out_dir / "dataset.json")
        _, cert = _build_params_and_cert(cfg, shape, data, act, cfg["seed"])
        certificate_to_json(cert, out_dir / "certificate.json")
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _fail(exc)
    _echo_cert(cert)
    if cert.certified:
        click.echo(f"certificate holds; wrote {out_dir / 'certificate.json'}")
        return
    if cert.degenerate_reason is not None:
        click.echo(f"certificate failed: lambda_F = 0 ({cert.degenerate_reason})", err=True)
    else:
        click.echo("certificate failed", err=True)
    sys.exit(2)


@main.command(name="train")
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


def _run_training(cfg: dict, out_dir: Path) -> tuple[dict, int]:
    """Shared train pipeline (also used by sweep workers)."""
    run_seed = cfg["seed"]
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
            raise _Refused("no step size given and the certificate does not hold; pass --eta")
        eta = 0.9 * cert.eta_max  # strict inequality against the certified cap
    use_cert = cert if (cert.certified and eta < cert.eta_max) else None
    tcfg = TrainConfig(eta, tr["max_steps"], tr["stop_loss"])
    log = train(params, data, act, tcfg, cert=use_cert)
    report = monitor_invariants(log, use_cert) if use_cert is not None else None
    trainlog_to_csv(log, out_dir / "trainlog.csv", report)
    summary = {
        "steps": log.n_steps - 1,
        "records": log.n_steps,
        "initial_loss": log.phi0,
        "final_loss": log.final_loss,
        "eta": log.eta,
        "alpha0": None if report is None else use_cert.alpha0,
        "diverged": log.diverged,
        "stop_reason": log.stop_reason,
        "violations": {} if report is None else report.n_violations,
        "spectra_svds": log.spectra_svds,
        "seed": run_seed,
        "certified": report is not None,
    }
    if report is not None:
        summary["invariants_hold"] = report.all_hold
        summary["first_violation"] = report.first_violation
    return summary, (2 if log.diverged else 0)


@main.command(name="lambda-star")
@click.option("--config", "config_path", type=str, default=None)
@click.option("--method", type=click.Choice(CONFIG["lambda_star.method"][2]), default=None)
@click.option("--sigma", type=click.Choice(CONFIG["lambda_star.sigma"][2]), default=None)
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
        ds = cfg["dataset"]
        X = sphere_data(ds["n"], cfg["shape"]["d"], radius=ds["radius"], seed=cfg["seed"])
        sig = _sigma(cfg)
        payload: dict = {"sigma": getattr(sig, "label", "sigma"), "seed": cfg["seed"]}
        mc = herm = None
        if ls["method"] in ("mc", "both"):
            mc = gram_mc(X, sig, ls["samples"], seed=cfg["seed"])
            payload["monte_carlo"] = {
                "lambda_min": mc.lambda_min,
                "n_samples": mc.n_samples,
                "stderr_max": mc.stderr_max,
            }
        if ls["method"] in ("hermite", "both"):
            spec = hermite_coeffs(sig, ls["r_max"], ls["quad_order"])
            herm = gram_hermite(X, spec, ls["r_max"])
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
        base, dim, power = cfg["seed"], kr["d"], kr["r"]
        threshold = dim ** (power / 2.0) / 2.0
        rows = []
        for s in range(base, base + kr["n_seeds"]):
            X = sphere_data(kr["n"], dim, seed=s)
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


@main.command(name="hermite")
@click.option("--config", "config_path", type=str, default=None)
@click.option("--sigma", type=click.Choice(CONFIG["lambda_star.sigma"][2]), default=None)
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
        spec = hermite_coeffs(sig, ls["r_max"], ls["quad_order"])
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
        return {"seed": seed, "error": str(exc), "exit_code": getattr(exc, "exit_code", 1)}
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
        seeds = cfg["sweep"]["seeds"]
        n_jobs = min(cfg["sweep"]["jobs"], len(seeds), os.cpu_count() or 1)
        cfg_json = json.dumps(cfg)
        entries = [(cfg_json, s, str(out_dir / f"run_{s}")) for s in seeds]
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
    codes = {res["exit_code"] for res in results}
    sys.exit(1 if 1 in codes else max(codes))  # an operational error outranks a domain failure


if __name__ == "__main__":  # pragma: no cover
    main()
