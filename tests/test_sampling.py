"""Hermite evaluation, seeded sampling, the Mehler average, and KS statistics."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from wickchaos import (
    constant,
    evaluate,
    exp_vector,
    gamma,
    hermite_eval,
    ks_critical_value,
    ks_statistic,
    make_expansion,
    ou_apply_mc,
    sample_batch,
    univariate,
    write_samples_csv,
)
from wickchaos import sampling
from wickchaos.sampling import GENERATOR_NAME, HERMITE_DEGREE_CAP, _ndtr

he1 = univariate([0.0, 1.0])
he2 = univariate([0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# Hermite evaluation
# ---------------------------------------------------------------------------


def test_hermite_low_orders():
    for x in (-1.3, 0.0, 0.5, 2.0):
        assert hermite_eval(0, x) == 1.0
        assert hermite_eval(1, x) == x
    assert hermite_eval(2, 2.0) == 3.0  # x^2 - 1
    assert hermite_eval(3, 1.0) == -2.0  # x^3 - 3x


def test_hermite_normalized_path_consistent():
    # above the switchover the normalized recurrence must agree with the
    # plain one evaluated here as an oracle
    for k in (31, 40, 60):
        for x in (0.3, -1.1, 2.2):
            prev, cur = 1.0, x
            for j in range(1, k):
                prev, cur = cur, x * cur - j * prev
            assert hermite_eval(k, x) == pytest.approx(cur, rel=1e-10)


def test_hermite_degree_cap():
    with pytest.raises(ValueError, match="cap"):
        hermite_eval(HERMITE_DEGREE_CAP + 1, 0.0)
    with pytest.raises(ValueError, match="non-negative"):
        hermite_eval(-1, 0.0)
    with pytest.raises(ValueError, match="non-negative integer"):
        hermite_eval(True, 0.0)
    with pytest.raises(TypeError):
        hermite_eval(2.5, 0.0)
    # sqrt(k!) overflows float64 from k = 301 on: the value is not finite
    for k, x in ((301, 0.5), (310, -1.2), (398, 2.0), (1000, 0.3)):
        with pytest.raises(ValueError, match="not finite"):
            hermite_eval(k, x)
    for x in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite evaluation point"):
            hermite_eval(3, x)


def test_evaluation_raises_on_overflow():
    # sqrt(301!) overflows float64, so He_301 is not finite at any point
    x = make_expansion(1, {(0,): 1.0, (301,): 1.0})
    for evaluation in (
        lambda: evaluate(x, [0.5]),
        lambda: sample_batch(x, 5, seed=1),
        lambda: ou_apply_mc(x, 0.3, [0.5], 10, seed=1),
    ):
        with pytest.raises(ValueError, match="not finite in float64"):
            evaluation()


def test_hermite_eval_is_evaluate_of_the_one_term_expansion():
    for k in range(41):
        he_k = make_expansion(1, {(k,): 1.0})
        for x in (-3.1, -1.0, -0.25, 0.0, 0.7, 1.9, 4.4):
            assert hermite_eval(k, x) == evaluate(he_k, [x])
    # the same four errors, in the same order
    with pytest.raises(ValueError, match="non-negative"):
        hermite_eval(-1, math.nan)
    for k, x, message in (
        (3, math.nan, "non-finite evaluation point"),
        (HERMITE_DEGREE_CAP + 1, math.inf, "non-finite evaluation point"),
        (HERMITE_DEGREE_CAP + 1, 0.0, f"degree {HERMITE_DEGREE_CAP + 1} exceeds cap"),
        (301, 0.5, "a value of a degree-301 expansion is not finite"),
    ):
        with pytest.raises(ValueError, match=message):
            hermite_eval(k, x)
        with pytest.raises(ValueError, match=message):
            evaluate(make_expansion(1, {(k,): 1.0}), [x])


def test_hermite_variance_normalization():
    # sample variance of He_k over Gaussians approximates k!
    rng = np.random.default_rng(8)
    n = 200000
    xs = rng.standard_normal(n)
    for k in (1, 2, 3):
        vals = np.array([hermite_eval(k, x) for x in xs[:50000]])
        fact = math.factorial(k)
        se = float(np.std(vals**2, ddof=1) / math.sqrt(vals.shape[0]))
        assert abs(float(np.mean(vals**2)) - fact) <= 4.0 * se


# ---------------------------------------------------------------------------
# Expansion evaluation
# ---------------------------------------------------------------------------


def test_evaluate_simple():
    assert evaluate(univariate([1.0, 1.0]), [0.5]) == 1.5
    assert evaluate(he2, [2.0]) == pytest.approx(3.0, abs=1e-12)


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        evaluate(he1, [0.1, 0.2])


def test_evaluate_exponential_vector_closed_form():
    # E(h) at xi approximates exp(h xi - h^2/2)
    x = exp_vector([1.0], 30).expansion
    assert evaluate(x, [1.0]) == pytest.approx(math.exp(0.5), abs=1e-9)


def test_evaluate_normalized_switchover_consistency():
    # degree 40 forces the normalized recurrence; compare against the
    # closed form of the exponential vector
    x = exp_vector([1.0], 40).expansion
    for xi in (-0.5, 0.8, 1.7):
        assert evaluate(x, [xi]) == pytest.approx(math.exp(xi - 0.5), rel=1e-11)


def test_evaluate_multivariate():
    x = make_expansion(2, [((1, 2), 2.0)])
    xi = [0.7, 1.9]
    expect = 2.0 * 0.7 * (1.9**2 - 1.0)
    assert evaluate(x, xi) == pytest.approx(expect, rel=1e-13)


# ---------------------------------------------------------------------------
# Seeded sampling
# ---------------------------------------------------------------------------


def test_sample_batch_constant():
    batch = sample_batch(constant(1), 100, seed=1)
    assert np.all(batch.values == 1.0)
    assert batch.size == 100
    assert batch.generator == GENERATOR_NAME


def test_sample_batch_deterministic():
    x = univariate([0.2, 1.0, -0.3])
    a = sample_batch(x, 5000, seed=123)
    b = sample_batch(x, 5000, seed=123)
    assert np.array_equal(a.values, b.values)
    c = sample_batch(x, 5000, seed=124)
    assert not np.array_equal(a.values, c.values)


def test_sample_batch_moments():
    n = 100000
    batch = sample_batch(he1, n, seed=5)
    assert abs(float(np.mean(batch.values))) <= 4.0 / math.sqrt(n)
    x = univariate([1.0, 1.0])
    batch = sample_batch(x, n, seed=6)
    sq = batch.values**2
    se = float(np.std(sq, ddof=1) / math.sqrt(n))
    assert abs(float(np.mean(sq)) - 2.0) <= 4.0 * se


def test_sample_batch_rejects_empty():
    with pytest.raises(ValueError, match="positive"):
        sample_batch(he1, 0, seed=1)
    # counts are integers: no truncation, and a bool is not a count
    with pytest.raises(TypeError):
        sample_batch(he1, 10.7, 1)
    with pytest.raises(ValueError, match="n_samples must be an integer"):
        sample_batch(he1, True, 1)
    with pytest.raises(TypeError):
        ou_apply_mc(he1, 0.3, [0.1], 2.5, 1)
    with pytest.raises(ValueError, match="n_draws must be an integer"):
        ou_apply_mc(he1, 0.3, [0.1], True, 1)


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck / Mehler average
# ---------------------------------------------------------------------------


def test_ou_at_time_zero_is_exact():
    # P_0 is the identity: the t = 0 Mehler average is the point value itself,
    # whatever the draw count. Averaging n identical evaluations in floating
    # point does not round back to it in general (e.g. the first two cases).
    cases = [
        (univariate([0.3, -1.2, 0.7, 0.1]), [0.0]),
        (univariate([1.0, 0.5, 0.25]), [0.7]),
        (univariate([1.0, 0.5, 0.25]), [0.8]),
        (univariate([0.3, -1.2, 0.7, 0.1]), [-2.1]),
        (make_expansion(2, [((0, 0), 0.4), ((1, 0), -0.3), ((1, 1), 0.9), ((0, 3), 0.2)]), [1.1, -0.6]),
    ]
    for x, xi in cases:
        for n_draws in (1, 500, 1000, 100000):
            est = ou_apply_mc(x, 0.0, xi, n_draws, seed=2)
            case = f"{x!r} at {xi} with {n_draws} draws"
            assert est.value == evaluate(x, xi), case
            assert est.std_error == 0.0, case
            assert est.n_draws == n_draws, case


def test_ou_first_chaos_decays():
    xi = 1.0
    for t in (0.2, 0.7):
        est = ou_apply_mc(he1, t, [xi], 100000, seed=3)
        assert abs(est.value - math.exp(-t) * xi) <= 4.0 * est.std_error


def test_ou_second_chaos_documented_value():
    # t = ln 2 scales the second chaos by 1/4; at xi = 0 the value is -1/4
    est = ou_apply_mc(he2, math.log(2.0), [0.0], 100000, seed=4)
    assert est.value == pytest.approx(-0.25, abs=4.0 * est.std_error)
    # and at xi = 1 the target He2(1)/4 = 0
    est = ou_apply_mc(he2, math.log(2.0), [1.0], 100000, seed=5)
    assert abs(est.value - 0.0) <= 4.0 * est.std_error


def test_ou_matches_second_quantization():
    rng = np.random.default_rng(12)
    for t in (0.2, 0.7, math.log(2.0)):
        x = univariate(rng.uniform(-1, 1, size=6))
        xi = [float(rng.uniform(-1, 1))]
        est = ou_apply_mc(x, t, xi, 40000, seed=int(rng.integers(1 << 30)))
        target = evaluate(gamma(math.exp(-t), x), xi)
        assert abs(est.value - target) <= 4.0 * est.std_error + 1e-12


def test_ou_rejects_negative_time():
    with pytest.raises(ValueError, match="non-negative"):
        ou_apply_mc(he1, -0.1, [0.0], 10, seed=1)


def test_ou_rejects_non_finite_point():
    x = univariate([1.0, 0.5])
    for t in (0.3, 0.0):
        for xi in ([math.nan], [math.inf]):
            with pytest.raises(ValueError, match="non-finite evaluation point"):
                ou_apply_mc(x, t, xi, 10, seed=1)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov statistic
# ---------------------------------------------------------------------------


def _with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])


def test_ndtr_is_scipy_ndtr_bit_for_bit():
    # the port replaces scipy at run time; scipy stays the oracle in the tests
    rng = np.random.default_rng(31)
    dense = np.concatenate([rng.standard_normal(200_000) * s for s in (0.3, 1.0, 3.0, 12.0, 30.0)])
    edges = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0)]  # |x| = |a|/sqrt(2) at 1/sqrt(2), 1 and 8
    cut = math.sqrt(2.0 * 7.09782712893383996843e2)  # |a| ~ 37.68, where e^(-x^2) is cut to 0
    points = np.concatenate([
        dense,
        _with_neighbours(edges + [-e for e in edges]),
        np.outer([1.0, -1.0], cut + np.arange(-64, 65) * np.spacing(cut)).ravel(),  # every double near it
        np.linspace(-45.0, 45.0, 90_001),
        [0.0, -0.0, 1e300, -1e300, 1e155, -1e155, 5e-324, -5e-324, np.inf, -np.inf],
    ])
    with np.errstate(over="raise", invalid="raise", divide="raise"):  # underflow is expected
        got = _ndtr(points)
    assert np.array_equal(got.view(np.int64), ndtr(points).view(np.int64))


@pytest.mark.parametrize("target", ["normal", "lognormal"])
@pytest.mark.parametrize("sigma", [1e-300, 5e-324])
def test_ks_tiny_sigma_has_no_runtime_warning(target, sigma):
    # |z| near 1e300 or past float64: the CDF tail must be cut before e^(-x^2)
    # or a polynomial overflows, and an infinite z is a CDF of 0 or 1
    samples = np.array([0.5, 1.0, 2.0]) if target == "lognormal" else np.array([-1.0, 0.0, 1.0])
    # z is -huge, 0 and +huge, so the CDF is 0, 1/2 and 1
    assert ks_statistic(samples, target, 0.0, sigma) == pytest.approx(1.0 / 3.0)


def test_ks_perfect_quantile_fit():
    n = 999
    samples = ndtri((np.arange(1, n + 1)) / (n + 1))
    d = ks_statistic(samples, "normal", 0.0, 1.0)
    assert d <= 1.0 / (n + 1) + 1e-9


def test_ks_true_normal_passes_critical_value_for_most_seeds():
    n = 100000
    passed = 0
    for seed in range(40):
        batch = sample_batch(he1, n, seed=seed)
        if ks_statistic(batch, "normal", 0.0, 1.0) < ks_critical_value(n):
            passed += 1
    assert passed >= 36  # 5% level: expect ~95% of seeds to pass


def test_ks_detects_one_sigma_shift():
    n = 2000
    batch = sample_batch(he1, n, seed=77)
    # analytic sup-distance between N(0,1) and N(1,1) is 2*Phi(1/2)-1 ~ 0.383
    assert ks_statistic(batch, "normal", 1.0, 1.0) > 0.3


def test_ks_lognormal_target():
    n = 50000
    batch = sample_batch(he1, n, seed=9)
    samples = np.exp(0.5 * batch.values - 0.125)
    assert ks_statistic(samples, "lognormal", -0.125, 0.5) < ks_critical_value(n)


def test_ks_validation():
    with pytest.raises(ValueError, match="empty"):
        ks_statistic(np.array([]), "normal", 0.0, 1.0)
    with pytest.raises(ValueError, match="sigma"):
        ks_statistic(np.array([1.0]), "normal", 0.0, 0.0)
    # a NaN mu read as a perfect fit (0.0), an infinite sigma as 0.5
    with pytest.raises(ValueError, match="mu must be finite"):
        ks_statistic(np.array([1.0, 2.0]), "normal", math.nan, 1.0)
    with pytest.raises(ValueError, match="sigma must be finite"):
        ks_statistic(np.array([1.0, 2.0]), "lognormal", 0.0, math.inf)
    with pytest.raises(ValueError, match="non-positive"):
        ks_statistic(np.array([-1.0, 2.0]), "lognormal", 0.0, 1.0)
    with pytest.raises(ValueError, match="target"):
        ks_statistic(np.array([1.0]), "uniform", 0.0, 1.0)
    for n in (0, -4):
        with pytest.raises(ValueError, match="n_samples must be positive"):
            ks_critical_value(n)


def test_ks_rejects_nan_and_accepts_infinities():
    for target in ("normal", "lognormal"):
        with pytest.raises(ValueError, match="NaN"):
            ks_statistic([0.5, math.nan, 1.0, 2.0], target, 0.0, 1.0)
    # the CDF is 0, 1/2 and 1 at -inf, 0 and inf
    assert ks_statistic([-math.inf, 0.0, math.inf], "normal", 0.0, 1.0) == pytest.approx(1.0 / 3.0)
    with_inf = [0.5, 1.0, math.inf]
    assert ks_statistic(with_inf, "lognormal", 0.0, 1.0) == _unsliced_ks(with_inf, "lognormal", 0.0, 1.0)


def test_ks_value_in_unit_interval():
    batch = sample_batch(univariate([0.3, 0.9]), 500, seed=14)
    d = ks_statistic(batch, "normal", 0.3, 0.9)
    assert 0.0 <= d <= 1.0


# ---------------------------------------------------------------------------
# Slices of the draws and of the KS pass: the unsliced code is the oracle
# ---------------------------------------------------------------------------


def _unsliced_values(x, seed, m, point=lambda z: z):
    z = np.random.default_rng(seed).standard_normal((m, x.dim))
    return sampling._evaluate_points(x.exponents, x.coeffs, x.max_degree, point(z))


def _unsliced_ks(values, target, mu, sigma):
    x = np.sort(np.asarray(values, dtype=np.float64))
    if target == "lognormal":
        x = np.log(x)
    with np.errstate(over="ignore"):
        cdf = _ndtr((x - mu) / sigma)
    n = x.shape[0]
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))


_SLICED_INPUTS = [
    # degree 33: the normalized recurrence
    make_expansion(1, {(0,): 1.0, (1,): 0.5, (3,): -0.2, (33,): 2.0**-20}),
    make_expansion(2, {(0, 0): 1.0, (1, 0): 0.3, (0, 1): -0.2, (2, 1): 0.1}),
    make_expansion(3, {(0, 0, 0): 1.0, (1, 0, 0): 0.3, (0, 1, 1): -0.2, (0, 0, 2): 0.1}),
]


def test_sample_batch_slices_are_the_single_draw(monkeypatch):
    monkeypatch.setattr(sampling, "_SLICE", 1000)
    for x in _SLICED_INPUTS:
        assert np.array_equal(sample_batch(x, 4321, seed=7).values, _unsliced_values(x, 7, 4321))


def test_ou_apply_mc_slices_are_the_single_draw(monkeypatch):
    x, xi, t, n = _SLICED_INPUTS[1], np.array([0.4, -1.1]), 0.3, 4321
    vals = _unsliced_values(x, 5, n, lambda z: math.exp(-t) * xi + math.sqrt(-math.expm1(-2.0 * t)) * z)
    monkeypatch.setattr(sampling, "_SLICE", 1000)
    est = ou_apply_mc(x, t, xi, n, seed=5)
    assert est.value == float(np.mean(vals))
    assert est.std_error == float(np.std(vals, ddof=1) / math.sqrt(n))


def test_ks_slices_are_the_single_pass(monkeypatch):
    monkeypatch.setattr(sampling, "_SLICE", 1000)
    z = np.random.default_rng(8).standard_normal(4321)
    for target, values in (("normal", z), ("lognormal", np.exp(0.9 * z + 0.1))):
        for mu, sigma in ((0.1, 0.9), (0.0, 1.0), (0.5, 2.0)):
            assert ks_statistic(values, target, mu, sigma) == _unsliced_ks(values, target, mu, sigma)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def test_write_samples_csv_and_sidecar(tmp_path):
    x = univariate([1.0, 0.5])
    batch = sample_batch(x, 10, seed=3)
    path = tmp_path / "samples.csv"
    write_samples_csv(batch, path, tool_version="0.1.0")
    lines = path.read_text().splitlines()
    header_at = [i for i, line in enumerate(lines) if not line.startswith("#")][0]
    assert lines[header_at] == "index,value"
    assert len(lines) == header_at + 1 + 10
    first = lines[header_at + 1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == batch.values[0]
    meta = json.loads((tmp_path / "samples.csv.meta.json").read_text())
    assert meta["seed"] == 3
    assert meta["N"] == 10
    assert meta["generator"] == GENERATOR_NAME
    assert meta["expansion-hash"] == batch.expansion_hash


@pytest.mark.parametrize("values", [np.array([1.0, 2.0, 3.0]), np.ones((5, 1)), np.ones(6)])
def test_write_samples_csv_rejects_values_that_are_not_size_long(values, tmp_path):
    # the sidecar's N is the batch size: the CSV must hold exactly that many lines
    batch = sampling.SampleBatch(values=values, seed=1, size=5, expansion_hash="x")
    with pytest.raises(ValueError, match=r"not \(5,\)"):
        write_samples_csv(batch, tmp_path / "s.csv")
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "dim, entries, digest",
    [
        # degree 44 with pruned degrees: the normalized recurrence
        (
            1,
            {(0,): 1.0, (1,): 0.5, (2,): -0.25, (5,): 0.125, (33,): 2.0**-20, (44,): -(2.0**-30)},
            "147f03e829bd2a1455ebd6d437721fc2deae401615a21e8ee7f860a5e27e14ca",
        ),
        (
            2,
            {(0, 0): 1.0, (1, 0): 0.5, (0, 1): -0.25, (2, 1): 0.125, (1, 3): -0.0625, (4, 4): 2.0**-6},
            "822adf40596fd435fb42924bd965f213574ec5cd3786d115a47803aa0a073e7b",
        ),
    ],
)
def test_samples_csv_bytes_are_pinned(dim, entries, digest, tmp_path):
    # the seeded draws, the Hermite recurrence and repr are deterministic, so
    # a change to the evaluator or the writer must keep these bytes
    path = tmp_path / "samples.csv"
    write_samples_csv(sample_batch(make_expansion(dim, entries), 20000, seed=17), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# The samples CSV: the writer's old per-value repr loop is the oracle
# ---------------------------------------------------------------------------


def _write_samples_csv_by_repr(batch, path, tool_version=""):
    """The writer before the vectorized formatter: one repr per value, 8192 lines at a time."""
    with open(path, "w", newline="\n") as fh:
        if tool_version:
            fh.write(f"# tool: wickchaos {tool_version}\n")
        fh.write(f"# seed: {batch.seed}\n")
        fh.write(f"# expansion-hash: {batch.expansion_hash}\n")
        fh.write("index,value\n")
        for lo in range(0, len(batch.values), 8192):
            fh.write("".join([f"{i},{v!r}\n" for i, v in enumerate(batch.values[lo : lo + 8192].tolist(), lo)]))


def _repr_lines(values, lo=0):
    return "".join([f"{i},{v!r}\n" for i, v in enumerate(values.tolist(), lo)]).encode()


def _formatted_lines(values, lo=0):
    step = sampling._CSV_LINES
    return b"".join(sampling._csv_lines(values[i : i + step], lo + i).tobytes() for i in range(0, len(values), step))


def _with_signs(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


def test_csv_lines_are_repr_of_random_bit_patterns():
    # every sign, exponent and fraction, nan payloads and infinities included
    bits = np.random.default_rng(41).integers(0, 2**64, 1_000_000, dtype=np.uint64)
    values = bits.view(np.float64)
    assert _formatted_lines(values) == _repr_lines(values)


def test_csv_lines_are_repr_at_the_edges():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    integers = np.concatenate([np.arange(2**53 - 2000, 2**53 + 2000, 2), np.arange(0, 3000)]).astype(np.float64)
    values = _with_signs(np.concatenate([
        powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0.0),  # every power of two and its neighbours
        [5e-324, 1e-323, 8e-323, 2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308],
        integers,
        # the notation switches: 1e-05 and 1e+16 in scientific, 0.0001 and 9999999999999998.0 fixed
        [1e-05, 0.0001, 0.00012, 9.999999999999999e-05, 1e16, 9999999999999998.0, 1e17, 123456789012345680.0],
        [1e100, 1.5e-100, 1e-99, 1e99, 1.25e-300, 3e300],  # and exponents of three digits
        [0.1, 0.5, 1.0, 100.0, 123.456, 1 / 3],
    ]))
    assert _formatted_lines(values) == _repr_lines(values)


# sign, exponent and fraction fields: zeros, subnormals, powers of two, infinities and nan payloads
_FLOAT_BITS = st.builds(lambda sign, exp, frac: sign << 63 | exp << 52 | frac, st.integers(0, 1),
                        st.sampled_from([0, 1, 2, 1023, 2045, 2046, 2047]) | st.integers(0, 2047),
                        st.sampled_from([0, 1, 2**51, 2**52 - 1]) | st.integers(0, 2**52 - 1))


@settings(max_examples=40, deadline=None)
@given(
    head=st.lists(_FLOAT_BITS | st.floats(width=64).map(lambda x: int(np.float64(x).view(np.uint64))), max_size=40),
    n=st.integers(1, sampling._CSV_LINES),
    lo=st.integers(0, 10**15),
    seed=st.integers(0, 2**32 - 1),
)
def test_csv_lines_are_repr_of_any_bit_patterns(head, n, lo, seed):
    # one slice of n lines from index lo: drawn bit patterns first, the rest uniform
    bits = np.random.default_rng(seed).integers(0, 2**64, n, dtype=np.uint64)
    bits[: len(head)] = head[:n]
    values = bits.view(np.float64)
    assert sampling._csv_lines(values, lo).tobytes() == _repr_lines(values, lo)


def test_csv_lines_index_widths_across_slices(monkeypatch):
    values = np.random.default_rng(42).standard_normal(40) * 10.0 ** np.arange(-20, 20)
    for lines in (sampling._CSV_LINES, 7):
        monkeypatch.setattr(sampling, "_CSV_LINES", lines)
        for lo in (0, 99_990, 10**9 - 20, 10**12 - 3):  # across 9 -> 10, 99999 -> 100000, 10^9 and 10^12
            assert _formatted_lines(values, lo) == _repr_lines(values, lo)


def test_samples_csv_failing_mid_write_leaves_no_stale_tail(tmp_path, monkeypatch):
    # the CSV is written over in place: an exception in the second slice leaves the header and the
    # first slice, cut to that length, not the tail of the longer file written there before
    batch = sample_batch(univariate([1.0, 0.5]), 30, seed=3)
    monkeypatch.setattr(sampling, "_CSV_LINES", 7)
    path = tmp_path / "s.csv"
    write_samples_csv(batch, path)
    lines = path.read_bytes().splitlines(keepends=True)
    csv_lines = sampling._csv_lines

    def fail_on_second_slice(v, lo):
        if lo > 0:
            raise RuntimeError("second slice")
        return csv_lines(v, lo)

    monkeypatch.setattr(sampling, "_csv_lines", fail_on_second_slice)
    with pytest.raises(RuntimeError, match="second slice"):
        write_samples_csv(batch, path)
    assert lines[2] == b"index,value\n"
    assert path.read_bytes() == b"".join(lines[: 3 + 7])


def test_samples_csv_is_the_repr_writer_across_slices(tmp_path, monkeypatch):
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -1e-05, 1e16]
    values = np.concatenate([special, np.random.default_rng(43).standard_normal(30), special])
    batch = sampling.SampleBatch(values=values, seed=9, size=len(values), expansion_hash="0123456789abcdef")
    monkeypatch.setattr(sampling, "_CSV_LINES", 7)  # slice boundaries throughout, the index 9 -> 10 inside one
    write_samples_csv(batch, tmp_path / "a.csv", tool_version="0.1.0")
    _write_samples_csv_by_repr(batch, tmp_path / "b.csv", tool_version="0.1.0")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def _peak_bytes(write, batch, path):
    tracemalloc.start()
    try:
        write(batch, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_samples_csv_memory_is_bounded(tmp_path):
    x = univariate([1.0, 0.5])
    small, large = sample_batch(x, 2**15, seed=3), sample_batch(x, 2**17, seed=3)
    write_samples_csv(small, tmp_path / "s.csv")  # the tables are built on first use
    peak = _peak_bytes(write_samples_csv, large, tmp_path / "s.csv")
    # the repr writer peaks in one 8192-line slice: a little lower at 2^15 samples than at 2^17
    assert peak <= _peak_bytes(_write_samples_csv_by_repr, small, tmp_path / "r.csv")
    assert peak <= 1.05 * _peak_bytes(write_samples_csv, small, tmp_path / "s.csv")  # no temporary grows with N
