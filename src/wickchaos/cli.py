"""Batch front door: identity-suite verification plus convergence and
distribution experiments, all emitting deterministic CSV/JSON.

Config precedence: command-line flags > JSON config file > built-in defaults.
Exit codes: 0 success, 1 verification failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from . import __version__
from .core import expansion_hash, from_json_dict, to_json_dict
from .limits import (
    convergence_report,
    default_n_schedule,
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


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    return cfg


def _resolve_expansion(value):
    if isinstance(value, str):
        with open(value) as fh:
            value = json.load(fh)
    return from_json_dict(value)


def resolve_config(command: str, file_cfg: dict, overrides: dict) -> dict:
    """Merge defaults, config file and flag overrides into canonical form.

    Canonical form inlines the expansion as its serialized coefficient table,
    so resolving a resolved config is the identity.
    """
    cfg = dict(_DEFAULTS[command])
    for key, value in file_cfg.items():
        if key not in cfg:
            raise ValueError(f"unknown config key {key!r} for command {command!r}")
        cfg[key] = value
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    if "expansion" in cfg:
        cfg["expansion"] = to_json_dict(_resolve_expansion(cfg["expansion"]))
    return cfg


def _fmt(x: float) -> str:
    return repr(float(x))


def _cmd_verify(cfg) -> int:
    results = run_suites(seed=int(cfg["seed"]), cases=int(cfg["cases"]), tolerance=cfg["tolerance"])
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
        with open(cfg["out"], "w", newline="\n") as fh:
            fh.write(text)
    return 0 if not failed else 1


def _cmd_converge(cfg) -> int:
    x = from_json_dict(cfg["expansion"])
    ns = cfg["n_list"] if cfg["n_list"] else default_n_schedule(int(cfg["n_max"]))
    report = convergence_report(x, ns=ns)
    write_convergence_csv(report, cfg["out"], tool_version=__version__)
    sys.stdout.write(f"wrote {cfg['out']} ({len(report.entries)} entries)\n")
    sys.stdout.write(f"fitted_rate: {_fmt(report.fitted_rate)}\n")
    return 0


def _cmd_dist(cfg) -> int:
    x = from_json_dict(cfg["expansion"])
    n_samples = int(cfg["samples"])
    if n_samples < 1000:
        sys.stderr.write("warning: below minimum sample size 1000; statistics unreliable\n")
    with warnings.catch_warnings():
        # the line above already told the user; keep the library's warning out of stderr
        warnings.filterwarnings("ignore", "n_samples below the minimum", UserWarning)
        report = limit_distribution_test(
            x,
            int(cfg["n"]),
            n_samples,
            int(cfg["seed"]),
            concentration_eps=float(cfg["concentration_eps"]),
        )
    write_distribution_json(report, cfg["out"], tool_version=__version__, input_hash=expansion_hash(x))
    write_samples_csv(report.batch, cfg["samples_out"], tool_version=__version__)
    crit = ks_critical_value(n_samples)
    if report.ks_lognormal is None:
        sys.stdout.write(
            f"degenerate target (h1 = 0): concentration at 1 = {_fmt(report.concentration_at_one)}\n"
        )
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
        cfg = resolve_config(args.command, _load_config(args.config), overrides)
        return args.func(cfg)
    except (ValueError, OSError) as exc:  # includes ZeroMeanError and JSONDecodeError
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
