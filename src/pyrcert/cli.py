"""Command-line front end: certify, train, lambda-star, kr, hermite, sweep.

Configuration comes from a JSON file merged over built-in defaults; command
line flags win over the file.  Every command records the fully resolved
configuration into its output directory, and all randomness flows from the
single top-level seed.  Exit codes: 0 on success (certificate holds, run
finished), 2 on a domain failure (certificate refused, run diverged), 1 on
operational errors (missing files, bad config).
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os
import sys
from pathlib import Path

import click
import numpy as np

from .activation import ActivationParams, _erfc, _real, as_function
from .activation import evaluate  # noqa: F401 - bound here for perfbench's tracer
from .certificates import certificate_to_json, certify
from .certificates import monitor_invariants  # noqa: F401 - bound here for perfbench's tracer
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
from .network import _FLOAT_CELL, Dataset, Shape, _json_text, _write_csv, _write_json
from .network import _write_matrix_csv
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
    "dataset.target_scale": (0.1, "float", (">= 0",)),
    "dataset.x_csv": (None, "str?", ()),
    "dataset.y_csv": (None, "str?", ()),
    "dataset.bundle": (None, "str?", ()),
    "init.scheme": ("certifiable", "str", ("certifiable", "lecun")),
    "init.gain": (2.0, "float", ("> 1",)),
    "init.auto_gain": (True, "bool", ()),
    "train.eta": (None, "float?", (">= 0",)),  # null: 0.9 * the certified cap
    "train.max_steps": (200_000, "int", (">= 0",)),
    "train.stop_loss": (1e-10, "float", (">= 0",)),
    "lambda_star.method": ("both", "str", ("mc", "hermite", "both")),
    "lambda_star.sigma": ("smoothed", "str", ("smoothed", "linear")),
    "lambda_star.samples": (100_000, "int", (">= 1",)),
    "lambda_star.r_max": (10, "int", (">= 0", f"<= {MAX_HERMITE_ORDER}")),
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
        value = _real(value, key)
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
    ``"lambda_star.r_max"``), every leaf checked against its type and domain.
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
    return cfg


def _resolve_out(cfg: dict, out_flag: str | None, command: str) -> Path:
    out = out_flag or cfg["out"] or os.environ.get("PYRCERT_OUT") or "pyrcert_out"
    path = Path(out) / command if out_flag is None and cfg["out"] is None else Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _setup(command: str, config_path: str | None, out: str | None, flags: dict):
    """Load the config with the given flags applied, resolve the output
    directory and record ``config.json`` there."""
    cfg = _load_config(config_path, flags)
    out_dir = _resolve_out(cfg, out, command)
    _write_json(out_dir / "config.json", cfg)
    return cfg, out_dir


def _sigma(cfg: dict):
    """The function whose Gram and Hermite series lambda-star and hermite study."""
    linear = cfg["lambda_star"]["sigma"] == "linear"
    return sigma_linear if linear else as_function(ActivationParams(**cfg["activation"]))


def _instance(cfg: dict, tune: bool, bundle: Path | None = None):
    """The run's activation, dataset, initial weights and certificate.  The
    gain is searched if ``tune`` and ``init.auto_gain``; a given ``bundle``
    receives the dataset before the weights are drawn and certified."""
    seed, ds, init = cfg["seed"], cfg["dataset"], cfg["init"]
    shape = Shape(d=cfg["shape"]["d"], widths=tuple(cfg["shape"]["widths"]))
    act = ActivationParams(**cfg["activation"])
    if ds["source"] == "sphere":
        X = sphere_data(ds["n"], shape.d, radius=ds["radius"], seed=seed)
        data = Dataset(X, sphere_targets(ds["targets"], shape, X, act, seed, ds["target_scale"]))
    elif ds["bundle"]:
        data = dataset_from_json(ds["bundle"])
    elif ds["x_csv"] and ds["y_csv"]:
        data = dataset_from_csv(ds["x_csv"], ds["y_csv"])
    else:
        raise ValueError("file dataset needs either 'bundle' or both 'x_csv' and 'y_csv'")
    if bundle is not None:
        _dataset_to_json(data, bundle)
    icfg = InitConfig(gain=init["gain"], seed=seed)
    if init["scheme"] == "lecun":
        params = init_lecun(shape, seed)
    elif tune and init["auto_gain"]:
        _, params, cert = tune_gain(shape, data, act, icfg)
        return act, data, params, cert
    else:
        params = init_certifiable(shape, icfg)
    return act, data, params, certify(params, data, act)


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


def _exit_one(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except click.UsageError as exc:
        exc.exit_code = 1
        raise


class _Main(click.Group):
    """The commands' one error boundary.  A usage error (unknown flag, bad
    flag value) exits 1 like every operational error, not with click's 2,
    which means a domain failure here.  Any other exception that is not
    click's prints ``error: <message>`` and exits with the exception's
    ``exit_code``: 2 for ``_Refused``, else 1."""

    def make_context(self, *args, **kwargs):
        return _exit_one(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        try:
            return _exit_one(super().invoke, ctx)
        except (click.ClickException, click.exceptions.Exit):
            raise
        except Exception as exc:  # noqa: BLE001 - CLI boundary
            click.echo(f"error: {exc}", err=True)
            sys.exit(getattr(exc, "exit_code", 1))


@click.group(cls=_Main)
def main() -> None:
    """Convergence certificates for deep pyramidal networks."""


def _command(name: str, *keys: str):
    """Register the decorated function as command ``name``, with
    ``--config``, ``--out`` and one override flag per dotted config key in
    ``keys``.  A flag is named after its key's leaf (``train.max_steps`` is
    ``--max-steps``, and ``n`` also answers to ``--N``) and typed by
    ``CONFIG``, where a string key's choices make a ``click.Choice``.  The
    function is called with the config and output directory from ``_setup``
    in place of these flags, and with its own options as keywords."""

    def decorate(fn):
        @functools.wraps(fn)
        def run(config_path, out, **given):
            flags = {key: given.pop(key.replace(".", "__")) for key in keys}
            fn(*_setup(name.replace("-", "_"), config_path, out, flags), **given)

        for key in reversed(keys):
            _, kind, domain = CONFIG[key]
            flag = "--" + key.rpartition(".")[2].replace("_", "-")
            typ = click.Choice(domain) if kind == "str" else _TYPES[kind.rstrip("?")][0]
            names = (flag, "--N") if flag == "--n" else (flag,)
            run = click.option(*names, key.replace(".", "__"), type=typ, default=None,
                               help=f"Sets {key}.")(run)
        run = click.option("--out", default=None, help="Output directory.")(run)
        run = click.option("--config", "config_path", default=None, help="JSON config file.")(run)
        return main.command(name=name)(run)

    return decorate


@_command("certify", "seed")
def certify_cmd(cfg: dict, out_dir: Path) -> None:
    """Compute a convergence certificate and write certificate.json."""
    *_, cert = _instance(cfg, tune=True, bundle=out_dir / "dataset.json")
    certificate_to_json(cert, out_dir / "certificate.json")
    _echo_cert(cert)
    if cert.certified:
        click.echo(f"certificate holds; wrote {out_dir / 'certificate.json'}")
        return
    if cert.degenerate_reason is not None:
        click.echo(f"certificate failed: lambda_F = 0 ({cert.degenerate_reason})", err=True)
    else:
        click.echo("certificate failed", err=True)
    sys.exit(2)


@_command("train", "seed", "train.eta", "train.max_steps", "train.stop_loss")
def train_cmd(cfg: dict, out_dir: Path) -> None:
    """Run full-batch gradient descent, logging loss, bound, and invariants."""
    summary, code = _run_training(cfg, out_dir)
    click.echo(_write_json(out_dir / "summary.json", summary))
    sys.exit(code)


def _run_training(cfg: dict, out_dir: Path) -> tuple[dict, int]:
    """Shared train pipeline (also used by sweep workers)."""
    tr = cfg["train"]
    eta = tr["eta"]
    # gain auto-tuning only when the run needs the certified step size
    act, data, params, cert = _instance(cfg, tune=eta is None)
    certificate_to_json(cert, out_dir / "certificate.json")
    if eta is None:
        if not cert.certified:
            raise _Refused("no step size given and the certificate does not hold; pass --eta")
        eta = 0.9 * cert.eta_max  # strict inequality against the certified cap
    use_cert = cert if (cert.certified and eta < cert.eta_max) else None
    tcfg = TrainConfig(eta, tr["max_steps"], tr["stop_loss"])
    log = train(params, data, act, tcfg, cert=use_cert)
    report = trainlog_to_csv(log, out_dir / "trainlog.csv", use_cert)
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
        "seed": cfg["seed"],
        "certified": report is not None,
    }
    if report is not None:
        summary["invariants_hold"] = report.all_hold
        summary["first_violation"] = report.first_violation
    return summary, (2 if log.diverged else 0)


@_command("lambda-star", "lambda_star.method", "lambda_star.sigma", "activation.gamma",
          "activation.beta", "dataset.n", "shape.d", "lambda_star.samples",
          "lambda_star.r_max", "seed")
@click.option("--full-matrix", is_flag=True, help="Also write the Gram matrix as CSV.")
def lambda_star_cmd(cfg: dict, out_dir: Path, full_matrix: bool) -> None:
    """Estimate the expected first-layer Gram matrix and its bottom eigenvalue."""
    ls = cfg["lambda_star"]
    ds = cfg["dataset"]
    X = sphere_data(ds["n"], cfg["shape"]["d"], radius=ds["radius"], seed=cfg["seed"])
    sig = _sigma(cfg)
    payload: dict = {"sigma": getattr(sig, "label", "sigma"), "seed": cfg["seed"]}
    mc = herm = None
    # the series first: it refuses rows off the sphere before any sampling
    if ls["method"] in ("hermite", "both"):
        herm = gram_hermite(X, hermite_coeffs(sig, ls["r_max"]), ls["r_max"])
    if ls["method"] in ("mc", "both"):
        mc = gram_mc(X, sig, ls["samples"], seed=cfg["seed"])
        payload["monte_carlo"] = {
            "lambda_min": mc.lambda_min,
            "n_samples": mc.n_samples,
            "stderr_max": mc.stderr_max,
        }
    if herm is not None:
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
    click.echo(_write_json(out_dir / "gram.json", payload))
    if full_matrix:
        _write_matrix_csv((mc if mc is not None else herm).gram, out_dir / "gram.csv", "g")


@_command("kr", "kr.n", "kr.d", "kr.r", "kr.n_seeds", "seed")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
def kr_cmd(cfg: dict, out_dir: Path, fmt: str) -> None:
    """Smallest singular values of Khatri-Rao powers over seeded sphere data."""
    kr = cfg["kr"]
    base, dim, power = cfg["seed"], kr["d"], kr["r"]
    threshold = dim ** (power / 2.0) / 2.0
    rows = []
    for s in range(base, base + kr["n_seeds"]):
        X = sphere_data(kr["n"], dim, seed=s)
        exact, bound = kr_min_singular(X, power)
        rows.append((s, exact, bound, exact >= threshold))
    if fmt == "csv":
        header, cells = ["seed", "sigma_min", "bound", "pass"], ["%d", _FLOAT_CELL, _FLOAT_CELL, "%d"]
        _write_csv(out_dir / "kr.csv", header, cells, [zip(*rows)])
    else:
        payload = [
            {"seed": s, "sigma_min": exact, "bound": bound, "pass": bool(ok)}
            for s, exact, bound, ok in rows
        ]
        _write_json(out_dir / "kr.json", payload)
    n_pass = sum(1 for row in rows if row[3])
    click.echo(f"{'seed':>6} {'sigma_min':>14} {'bound':>14} pass")
    for s, exact, bound, ok in rows[:20]:
        click.echo(f"{s:>6} {exact:>14.6g} {bound:>14.6g} {int(ok)}")
    if len(rows) > 20:
        click.echo(f"... ({len(rows)} rows total)")
    click.echo(f"passes: {n_pass}/{len(rows)} at threshold d^(r/2)/2 = {threshold:.6g}")


@_command("hermite", "lambda_star.sigma", "activation.gamma", "activation.beta",
          "lambda_star.r_max")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json")
def hermite_cmd(cfg: dict, out_dir: Path, fmt: str) -> None:
    """Hermite coefficients of the configured activation."""
    ls = cfg["lambda_star"]
    sig = _sigma(cfg)
    spec = hermite_coeffs(sig, ls["r_max"])
    payload = {
        "target": spec.target,
        "quad_order": spec.quad_order,
        "coeffs": spec.coeffs.tolist(),
        "converged": spec.converged.tolist(),
        "norm_sq": spec.norm_sq,
        "tail_mass": spec.tail_mass(spec.r_max),
    }
    click.echo(_write_json(out_dir / "hermite.json", payload))
    if fmt == "csv":
        columns = (range(len(spec.coeffs)), spec.coeffs, spec.converged)
        _write_csv(out_dir / "hermite.csv", ["r", "coeff", "converged"], ["%d", _FLOAT_CELL, "%d"], [columns])


def _sweep_entry(cfg: dict, out_dir: Path) -> dict:
    """One sweep run; top level so a process pool can pickle it."""
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "config.json", cfg)
    try:
        summary, code = _run_training(cfg, out_dir)
    except Exception as exc:  # noqa: BLE001 - recorded per entry
        return {"seed": cfg["seed"], "error": str(exc), "exit_code": getattr(exc, "exit_code", 1)}
    summary["exit_code"] = code
    _write_json(out_dir / "summary.json", summary)
    return summary


@_command("sweep", "sweep.jobs")
def sweep_cmd(cfg: dict, out_dir: Path) -> None:
    """Run the train pipeline over a list of seeds and aggregate the outcomes."""
    seeds = cfg["sweep"]["seeds"]
    n_jobs = min(cfg["sweep"]["jobs"], len(seeds), os.cpu_count() or 1)
    entries = [({**cfg, "seed": s}, out_dir / f"run_{s}") for s in seeds]
    if n_jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # multiprocessing, only here

        _erfc()  # scipy loads once here, so the forked workers inherit it
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(_sweep_entry, *zip(*entries)))
    else:
        results = [_sweep_entry(*entry) for entry in entries]
    aggregate = {
        "n_runs": len(results),
        "total_violations": sum(sum(res.get("violations", {}).values()) for res in results),
        "all_certified": all(res.get("certified", False) for res in results),
        "runs": results,
    }
    _write_json(out_dir / "aggregate.json", aggregate)
    click.echo(_json_text({k: aggregate[k] for k in ("n_runs", "total_violations", "all_certified")}))
    codes = {res["exit_code"] for res in results}
    sys.exit(1 if 1 in codes else max(codes))  # an operational error outranks a domain failure


if __name__ == "__main__":  # pragma: no cover
    main()
