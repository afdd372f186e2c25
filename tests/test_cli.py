"""Command-line interface: subcommands, config precedence, determinism, exit codes."""

import argparse
import json

import pytest

from wickchaos.cli import _DEFAULTS, build_parser, main, resolve_config
from wickchaos.core import make_expansion, to_json_dict, univariate


def _write_expansion(path, coeffs):
    payload = to_json_dict(univariate(coeffs))
    path.write_text(json.dumps(payload))
    return str(path)


def test_verify_default_passes(capsys):
    assert main(["verify", "--cases", "10", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "13/13 suites passed" in out


def test_verify_broken_tolerance_fails(capsys):
    assert main(["verify", "--cases", "10", "--seed", "7", "--tolerance", "1e-30"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "gamma-composition" in out


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_verify_without_cases_exits_2(cases, capsys):
    # checking nothing must not read as "13/13 suites passed"
    assert main(["verify", "--cases", cases]) == 2
    captured = capsys.readouterr()
    assert "suites passed" not in captured.out
    assert "cases must be at least 1" in captured.err


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf"])
def test_verify_non_finite_tolerance_exits_2(tolerance, capsys):
    # nan would fail every suite and inf would pass any deviation
    assert main(["verify", "--cases", "1", f"--tolerance={tolerance}"]) == 2
    captured = capsys.readouterr()
    assert "suites passed" not in captured.out
    assert "tolerance must be finite" in captured.err


def test_verify_report_file(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    assert main(["verify", "--cases", "5", "--out", str(out_path)]) == 0
    assert "suites passed" in out_path.read_text()
    capsys.readouterr()


def test_converge_rerun_is_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["converge", "--n-max", "32", "--out", str(a)]) == 0
    assert main(["converge", "--n-max", "32", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    out = capsys.readouterr().out
    assert "fitted_rate" in out


def test_converge_expansion_from_file(tmp_path, capsys):
    path = _write_expansion(tmp_path / "x.json", [1.0, 0.5, 0.25])
    out_path = tmp_path / "c.csv"
    assert main(["converge", "--expansion", path, "--n-max", "8", "--out", str(out_path)]) == 0
    body = [l for l in out_path.read_text().splitlines() if not l.startswith("#")]
    assert body[0] == "n,error,bound,norm_gamma,rate_running"
    assert len(body) == 1 + 3  # n = 2, 4, 8
    capsys.readouterr()


def test_converge_degenerate_kernel_family(tmp_path, capsys):
    # mean 1 but no first chaos: errors still decay, toward the constant limit
    path = _write_expansion(tmp_path / "x.json", [1.0, 0.0, 1.0])
    out_path = tmp_path / "c.csv"
    assert main(["converge", "--expansion", path, "--n-max", "32", "--out", str(out_path)]) == 0
    rows = [
        l.split(",") for l in out_path.read_text().splitlines() if not l.startswith(("#", "n,"))
    ]
    errors = [float(r[1]) for r in rows]
    bounds = [float(r[2]) for r in rows]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert all(e <= b * (1 + 1e-8) for e, b in zip(errors, bounds))
    capsys.readouterr()


def test_converge_zero_mean_exits_2(tmp_path, capsys):
    path = _write_expansion(tmp_path / "z.json", [0.0, 1.0])
    assert main(["converge", "--expansion", path, "--out", str(tmp_path / "z.csv")]) == 2
    err = capsys.readouterr().err
    assert "min_chaos_order" in err


def test_converge_repeated_n_exits_2(tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "c.csv"
    cfg.write_text(json.dumps({"n_list": [4, 4, 8]}))
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: schedule entries must be distinct"]
    assert not out.exists()
    # an unsorted schedule stays valid and keeps its order
    cfg.write_text(json.dumps({"n_list": [8, 2, 4]}))
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith(("#", "n,"))]
    assert [int(l.split(",")[0]) for l in rows] == [8, 2, 4]
    capsys.readouterr()


@pytest.mark.parametrize("h", [30.0, 25.0])
def test_converge_out_of_float64_range_exits_2(h, tmp_path, capsys):
    # exp(h^2) overflows float64 at h = 30; at h = 25 the certificate does
    path = _write_expansion(tmp_path / "big.json", [1.0, h])
    assert main(["converge", "--expansion", path, "--n-max", "8", "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_dist_rerun_is_byte_identical(tmp_path, capsys):
    args = ["dist", "--n", "16", "--samples", "2000", "--seed", "5"]
    a_json, a_csv = tmp_path / "a.json", tmp_path / "a.csv"
    b_json, b_csv = tmp_path / "b.json", tmp_path / "b.csv"
    assert main(args + ["--out", str(a_json), "--samples-out", str(a_csv)]) == 0
    assert main(args + ["--out", str(b_json), "--samples-out", str(b_csv)]) == 0
    assert a_json.read_bytes() == b_json.read_bytes()
    assert a_csv.read_bytes() == b_csv.read_bytes()
    report = json.loads(a_json.read_text())
    for key in ("n", "N", "seed", "ks_lognormal", "ks_log_normal", "frac_nonpositive", "target_mu", "target_sigma_sq"):
        assert key in report
    capsys.readouterr()


@pytest.mark.filterwarnings("error")
def test_dist_small_sample_warning(tmp_path, capsys):
    # exactly one line, the CLI's own: the library's UserWarning must not leak too
    assert (
        main(
            [
                "dist",
                "--n",
                "4",
                "--samples",
                "10",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "d.json"),
                "--samples-out",
                str(tmp_path / "s.csv"),
            ]
        )
        == 0
    )
    captured = capsys.readouterr()
    assert "minimum sample size" in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_dist_nonpositive_samples_prints_only_the_error(samples, tmp_path, capsys):
    out = ["--out", str(tmp_path / "d.json"), "--samples-out", str(tmp_path / "s.csv")]
    assert main(["dist", "--samples", samples] + out) == 2
    assert capsys.readouterr().err.splitlines() == ["error: n_samples must be positive"]


@pytest.mark.parametrize(
    "command, cfg",
    [("converge", {"n_list": [2.5, 4]}), ("dist", {"n": [3]})],
)
def test_mistyped_config_value_exits_2(command, cfg, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = ["--out", str(tmp_path / "o.out")]
    if command == "dist":
        out += ["--samples-out", str(tmp_path / "s.csv")]
    assert main([command, "--config", str(path)] + out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_dist_overflowing_samples_exit_2(tmp_path, capsys):
    # He_301 overflows float64 at every sample point
    path = tmp_path / "x.json"
    path.write_text(json.dumps(to_json_dict(make_expansion(1, {(0,): 1.0, (301,): 1.0}))))
    args = ["dist", "--expansion", str(path), "--n", "1", "--samples", "1000"]
    out = ["--out", str(tmp_path / "d.json"), "--samples-out", str(tmp_path / "s.csv")]
    assert main(args + out) == 2
    assert "not finite in float64" in capsys.readouterr().err


def test_dist_degenerate_branch(tmp_path, capsys):
    path = _write_expansion(tmp_path / "one.json", [1.0])
    assert (
        main(
            [
                "dist",
                "--expansion",
                path,
                "--n",
                "8",
                "--samples",
                "2000",
                "--out",
                str(tmp_path / "d.json"),
                "--samples-out",
                str(tmp_path / "s.csv"),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "concentration at 1 = 1.0" in out
    report = json.loads((tmp_path / "d.json").read_text())
    assert report["ks_lognormal"] is None
    assert report["concentration_at_one"] == 1.0


def test_dist_without_positive_samples_reports_undefined_ks(tmp_path, capsys):
    # 1 + 3 He1 at n = 2 is negative at the one drawn point: h1 != 0, yet no KS sample
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"dim": 1, "coeffs": [{"alpha": [0], "c": 1}, {"alpha": [1], "c": 3}]}))
    out = ["--out", str(tmp_path / "d.json"), "--samples-out", str(tmp_path / "s.csv")]
    assert main(["dist", "--expansion", str(path), "--n", "2", "--samples", "1", "--seed", "2"] + out) == 0
    captured = capsys.readouterr()
    assert "error" not in captured.err
    assert captured.out.splitlines()[0] == "ks undefined: no sample is positive  frac_nonpositive: 1.0"
    report = json.loads((tmp_path / "d.json").read_text())
    assert report["ks_lognormal"] is None and report["ks_log_normal"] is None
    assert report["frac_nonpositive"] == 1.0 and report["concentration_at_one"] is None


def test_converge_and_dist_parse_the_expansion_once(tmp_path, monkeypatch, capsys):
    import wickchaos.core

    path = _write_expansion(tmp_path / "x.json", [1.0, 0.5])
    calls = []
    real = wickchaos.core.make_expansion
    monkeypatch.setattr(wickchaos.core, "make_expansion", lambda *a: calls.append(a) or real(*a))
    assert main(["converge", "--expansion", path, "--n-max", "8", "--out", str(tmp_path / "c.csv")]) == 0
    assert len(calls) == 1
    out = ["--out", str(tmp_path / "d.json"), "--samples-out", str(tmp_path / "s.csv")]
    assert main(["dist", "--expansion", path, "--n", "4", "--samples", "1000"] + out) == 0
    assert len(calls) == 2
    capsys.readouterr()


def test_parse_state_does_not_carry_over(tmp_path, capsys):
    # the parser is built once per process; each call must still start from the defaults
    out = ["--samples", "1000", "--out", str(tmp_path / "d.json"), "--samples-out", str(tmp_path / "s.csv")]
    assert main(["dist", "--n", "8"] + out) == 0
    assert json.loads((tmp_path / "d.json").read_text())["n"] == 8
    assert main(["dist"] + out) == 0
    assert json.loads((tmp_path / "d.json").read_text())["n"] == 64
    capsys.readouterr()


def test_every_flag_is_a_config_key():
    # main keeps only the dests that are config keys, so a flag without one would vanish silently
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(_DEFAULTS) == {"verify", "converge", "dist"}
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if action.dest not in ("help", "config"):
                assert action.dest in _DEFAULTS[command], (command, action.dest)


def test_bench_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cases": 12, "seed": 3}))
    assert main(["verify", "--config", str(cfg), "--cases", "6"]) == 0
    out = capsys.readouterr().out
    assert "cases=6" in out
    assert "seed=3" in out


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"casez": 12}))
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_invalid_expansion_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 1, "coeffs": [{"alpha": [0], "c": 1.0}, {"alpha": [0], "c": 2.0}]}))
    assert main(["converge", "--expansion", str(bad), "--out", str(tmp_path / "o.csv")]) == 2
    assert "duplicate" in capsys.readouterr().err


def test_boolean_exponent_exits_2(tmp_path, capsys):
    bad = tmp_path / "bool.json"
    bad.write_text(json.dumps({"dim": 1, "coeffs": [{"alpha": [0], "c": 1.0}, {"alpha": [True], "c": 2.0}]}))
    assert main(["converge", "--expansion", str(bad), "--out", str(tmp_path / "o.csv")]) == 2
    assert "invalid exponent True" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_resolve_config_is_idempotent():
    cfg1 = resolve_config("dist", {"expansion": to_json_dict(univariate([1.0, 0.5])), "n": 8}, {})
    cfg2 = resolve_config("dist", cfg1, {})
    assert cfg2 == cfg1
    cfg3 = resolve_config("dist", cfg1, {"n": 16})
    assert cfg3["n"] == 16
