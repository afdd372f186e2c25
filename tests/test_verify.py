"""The randomized identity suites behind the `verify` command."""

import hashlib

import pytest

from wickchaos import verify
from wickchaos.algebra import pointwise_product
from wickchaos.core import make_expansion, multi_indexes_of_degree
from wickchaos.verify import SUITE_NAMES, random_expansion, run_suite, run_suites

import numpy as np


def test_all_suites_pass_at_default_tolerances():
    results = run_suites(seed=2024, cases=60)
    assert [r.name for r in results] == list(SUITE_NAMES)
    for r in results:
        assert r.passed, f"{r.name}: {r.max_deviation} > {r.tolerance}"


def test_broken_tolerance_fails_deterministically():
    first = run_suites(seed=2024, cases=25, tolerance=1e-30)
    second = run_suites(seed=2024, cases=25, tolerance=1e-30)
    failing = [r.name for r in first if not r.passed]
    assert failing  # rounding exceeds an impossible tolerance
    assert failing == [r.name for r in second if not r.passed]
    # the equality suites are the offenders; exact identities still pass
    assert "gamma-composition" in failing
    assert "contraction-free-term-is-wick" not in failing


def test_pass_fail_independent_of_case_count_on_fixed_seed():
    few = run_suites(seed=2024, cases=10)
    many = run_suites(seed=2024, cases=200)
    assert [(r.name, r.passed) for r in few] == [(r.name, r.passed) for r in many]


def test_case_streams_are_seed_deterministic():
    a = run_suite("gamma-composition", seed=5, cases=40)
    b = run_suite("gamma-composition", seed=5, cases=40)
    assert a.max_deviation == b.max_deviation
    c = run_suite("gamma-composition", seed=6, cases=40)
    assert a.max_deviation != c.max_deviation


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("fourier-inversion")


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_tolerance_rejected(tolerance):
    # nan would fail every suite and inf would pass any deviation
    with pytest.raises(ValueError, match="tolerance must be finite"):
        run_suite("gamma-composition", cases=1, tolerance=tolerance)


def test_case_count_is_an_integer():
    # 2.7 ran 2 cases and reported cases=2
    with pytest.raises(TypeError):
        run_suite("gamma-composition", cases=2.7)
    with pytest.raises(ValueError, match="cases must be an integer"):
        run_suite("gamma-composition", cases=True)
    with pytest.raises(ValueError, match="cases must be at least 1"):
        run_suite("gamma-composition", cases=0)


def test_suite_results_are_pinned():
    # any change to a suite's draws, its worst-case fold or its tolerance
    # changes some (name, cases, worst deviation, tolerance, verdict)
    runs = [run_suites(seed=s, cases=50) for s in range(10)]
    runs.append(run_suites(seed=0, cases=50, tolerance=1e-30))
    digest = hashlib.sha256()
    for results in runs:
        for r in results:
            digest.update(repr((r.name, r.cases, r.max_deviation.hex(), r.tolerance.hex(), r.passed)).encode())
    assert digest.hexdigest() == "a83f867d81159384d4352c74a7177b01876ca82d21c7f8ac8ed97d05b4e357d8"


def test_fixed_case_suite_runs_once_and_reports_the_requested_count(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return pointwise_product(*args, **kwargs)

    monkeypatch.setattr(verify, "pointwise_product", counting)
    counts = []
    for cases in (1, 50):
        calls.clear()
        result = run_suite("hermite-product-closed-forms", cases=cases)
        assert result.cases == cases and result.passed
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_random_expansion_respects_bounds():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = random_expansion(rng, max_degree=4)
        assert 1 <= x.dim <= 3
        assert x.max_degree <= 4
        assert 1 <= x.n_terms <= 6
        assert float(np.max(np.abs(x.coeffs))) <= 1.0


def _random_expansion_oracle(rng, dim=None, max_degree=4):
    """The dict-plus-make_expansion form: a fresh pool, one scalar draw per pick."""
    if dim is None:
        dim = int(rng.integers(1, 4))
    pool = [alpha for k in range(max_degree + 1) for alpha in multi_indexes_of_degree(dim, k)]
    count = int(rng.integers(1, 7))
    picks = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
    entries = {pool[int(i)]: float(rng.uniform(-1.0, 1.0)) for i in picks}
    return make_expansion(dim, entries)


_KEYWORD_CASES = (
    {},
    {"dim": 1},
    {"dim": 2},
    {"dim": 3},
    {"max_degree": 2},
    {"dim": 3, "max_degree": 4},
    {"dim": 2, "max_degree": 2},  # a pool of 6, as many as the most terms
    {"dim": 1, "max_degree": 2},  # a pool of 3, fewer than the most terms
    {"dim": 1, "max_degree": 0},  # the pool is the zero index alone
)


def test_random_expansion_matches_the_dict_oracle():
    for seed in range(320):
        rng = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        for kwargs in _KEYWORD_CASES:
            got = random_expansion(rng, **kwargs)
            want = _random_expansion_oracle(ref, **kwargs)
            assert got.dim == want.dim
            assert np.array_equal(got.exponents, want.exponents)
            assert np.array_equal(got.coeffs, want.coeffs)
            assert np.array_equal(got.degrees, want.degrees)
        # both consumed the generator alike
        assert rng.bytes(16) == ref.bytes(16)


def test_random_expansion_stream_is_pinned():
    # any change to the draws, their order or the canonical rows changes the
    # suite inputs, and with them every suite's worst deviation
    rng = np.random.default_rng(2024)
    digest = hashlib.sha256()
    for _ in range(40):
        for kwargs in _KEYWORD_CASES:
            x = random_expansion(rng, **kwargs)
            digest.update(np.int64(x.dim).tobytes())
            digest.update(x.exponents.tobytes())
            digest.update(x.coeffs.tobytes())
    assert digest.hexdigest() == "23ca1615a4140250bc58a7e63a453a61bfec3b685c9b292dd3dbc8e0732882cf"


@pytest.mark.parametrize("dim", [0, -1])
def test_random_expansion_rejects_bad_dim(dim):
    with pytest.raises(ValueError, match="dim >= 1"):
        random_expansion(np.random.default_rng(0), dim=dim)
