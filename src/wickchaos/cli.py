"""Batch front door: identity-suite verification plus convergence and
distribution experiments, all emitting deterministic CSV/JSON.

Config precedence: command-line flags > JSON config file > built-in defaults.
Exit codes: 0 success, 1 verification failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
import warnings

from . import __version__
from .core import _rewrite, from_json_dict, to_json_dict
from .limits import (
    convergence_report,
    limit_distribution_test,
    write_convergence_csv,
    write_distribution_json,
)
from .sampling import ks_critical_value, write_samples_csv
from .verify import run_suites

_DEFAULT_CONVERGE_EXPANSION = {"dim": 1, "coeffs": [{"alpha": [0], "c": 1.0}, {"alpha": [1], "c": 1.0}]}
_DEFAULT_DIST_EXPANSION = {"dim": 1, "coeffs": [{"alpha": [0], "c": 1.0}, {"alpha": [1], "c": 0.5}]}

_DEFAULTS = {
    "verify": {"cases": 1000, "seed": 2024, "tolerance": None, "out": None},
    "converge": {
        "expansion": _DEFAULT_CONVERGE_EXPANSION,
        "n_max": 512,
        "n_list": None,
        "out": "converge.csv",
    },
    "dist": {
        "expansion": _DEFAULT_DIST_EXPANSION,
        "n": 64,
        "samples": 100000,
        "seed": 42,
        "concentration_eps": 0.01,
        "out": "dist.json",
        "samples_out": "samples.csv",
    },
}


# config keys whose values must be integers / finite real numbers; a JSON boolean is neither
_INT_KEYS = ("cases", "seed", "n_max", "n", "samples")
_REAL_KEYS = ("tolerance", "concentration_eps")
# output paths: a JSON integer or boolean is not a path
_PATH_KEYS = ("out", "samples_out")


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    return cfg


def resolve_config(command: str, file_cfg: dict, overrides: dict) -> dict:
    """Merge defaults, config file and flag overrides into canonical form.

    Canonical form inlines the expansion as its serialized coefficient table,
    so resolving a resolved config is the identity.
    """
    return _resolve(command, file_cfg, overrides)[0]


def _resolve(command, file_cfg, overrides):
    """The canonical config and its parsed expansion (None for verify)."""
    cfg = dict(_DEFAULTS[command])
    for key, value in file_cfg.items():
        if key not in cfg:
            raise ValueError(f"unknown config key {key!r} for command {command!r}")
        cfg[key] = value
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    for key, value in cfg.items():
        if key in _PATH_KEYS and value is not None and not isinstance(value, str):
            raise ValueError(f"config value {key!r} must be a path, got {value!r}")
        if key in _INT_KEYS + _REAL_KEYS and isinstance(value, bool):
            raise ValueError(f"config value {key!r} must be a number, got {value!r}")
        if key in _INT_KEYS:
            try:
                cfg[key] = operator.index(value)
            except TypeError:
                raise ValueError(f"config value {key!r} must be an integer, got {value!r}") from None
        if key in _REAL_KEYS and not (value is None and key == "tolerance"):
            # NaN compares false; an int past the float range would overflow float() later
            if not (isinstance(value, (int, float)) and abs(value) <= sys.float_info.max):
                raise ValueError(f"config value {key} must be finite and real, got {value!r}")
    x = None
    if "expansion" in cfg:
        value = cfg["expansion"]
        if isinstance(value, str):
            with open(value) as fh:
                value = json.load(fh)
        x = from_json_dict(value)
        cfg["expansion"] = to_json_dict(x)
    return cfg, x


def _fmt(x: float) -> str:
    return repr(float(x))


def _cmd_verify(cfg, _x) -> int:
    results = run_suites(seed=cfg["seed"], cases=cfg["cases"], tolerance=cfg["tolerance"])
    lines = [f"identity suites: {len(results)} (cases={cfg['cases']}, seed={cfg['seed']})"]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(
            f"{status}  {r.name:<32} max deviation {r.max_deviation:.3e}  tolerance {r.tolerance:.1e}"
        )
    failed = [r for r in results if not r.passed]
    lines.append(f"result: {len(results) - len(failed)}/{len(results)} suites passed")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if cfg["out"]:
        with _rewrite(cfg["out"]) as fh:
            fh.write(text)
    return 0 if not failed else 1


def _cmd_converge(cfg, x) -> int:
    ns = cfg["n_list"]  # null: the doubling schedule
    if ns is not None and not (isinstance(ns, list) and ns):
        raise ValueError(f"config value 'n_list' must be a non-empty list, got {ns!r}")
    report = convergence_report(x, ns=ns, n_max=cfg["n_max"])
    write_convergence_csv(report, cfg["out"], tool_version=__version__)
    sys.stdout.write(f"wrote {cfg['out']} ({len(report.entries)} entries)\n")
    sys.stdout.write(f"fitted_rate: {_fmt(report.fitted_rate)}\n")
    return 0


def _cmd_dist(cfg, x) -> int:
    out, csv = os.path.realpath(cfg["out"]), cfg["samples_out"]
    if out in (os.path.realpath(csv), os.path.realpath(f"{csv}.meta.json")):
        raise ValueError(f"out {cfg['out']!r} is the samples CSV {csv!r} or its .meta.json sidecar")
    n_samples = cfg["samples"]
    if 1 <= n_samples < 1000:
        sys.stderr.write("warning: below minimum sample size 1000; statistics unreliable\n")
    with warnings.catch_warnings():
        # the line above already told the user; keep the library's warning out of stderr
        warnings.filterwarnings("ignore", "n_samples below the minimum", UserWarning)
        report = limit_distribution_test(
            x,
            cfg["n"],
            n_samples,
            cfg["seed"],
            concentration_eps=float(cfg["concentration_eps"]),
        )
    write_distribution_json(report, cfg["out"], tool_version=__version__)
    write_samples_csv(report.batch, cfg["samples_out"], tool_version=__version__)
    crit = ks_critical_value(n_samples)
    if report.concentration_at_one is not None:
        sys.stdout.write(
            f"degenerate target (h1 = 0): concentration at 1 = {_fmt(report.concentration_at_one)}\n"
        )
    elif report.ks_lognormal is None:
        sys.stdout.write(f"ks undefined: no sample is positive  frac_nonpositive: {_fmt(report.frac_nonpositive)}\n")
    else:
        sys.stdout.write(
            f"ks_lognormal: {_fmt(report.ks_lognormal)} (5% critical value {_fmt(crit)})\n"
        )
        sys.stdout.write(
            f"ks_log_normal: {_fmt(report.ks_log_normal)}  frac_nonpositive: {_fmt(report.frac_nonpositive)}\n"
        )
    sys.stdout.write(f"wrote {cfg['out']} and {cfg['samples_out']}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wickchaos",
        description="Wick calculus on finite chaos expansions: verification and experiments",
    )
    parser.add_argument("--version", action="version", version=f"wickchaos {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the randomized algebraic identity suites")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--cases", type=int, help="randomized cases per suite (default 1000)")
    p.add_argument("--seed", type=int, help="suite generator seed")
    p.add_argument("--tolerance", type=float, help="override every suite tolerance")
    p.add_argument("--out", help="also write the report to this path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("converge", help="exact L2 convergence errors and certificates")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--expansion", help="path to an expansion JSON file")
    p.add_argument("--n-max", dest="n_max", type=int, help="largest power (schedule: 2,4,...)")
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("dist", help="sample a rescaled Wick power against its limit law")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--expansion", help="path to an expansion JSON file")
    p.add_argument("--n", type=int, help="Wick power index")
    p.add_argument("--samples", type=int, help="Monte Carlo sample count")
    p.add_argument("--seed", type=int, help="generator seed")
    p.add_argument("--out", help="report JSON path")
    p.add_argument("--samples-out", dest="samples_out", help="samples CSV path")
    p.set_defaults(func=_cmd_dist)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # every flag's dest is a config key of its command (tests/test_cli.py checks this)
    overrides = {k: v for k, v in vars(args).items() if k in _DEFAULTS[args.command]}
    try:
        return args.func(*_resolve(args.command, _load_config(args.config), overrides))
    except (ValueError, TypeError, OSError) as exc:  # incl. ZeroMeanError, JSONDecodeError, mistyped config values
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
