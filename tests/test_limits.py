"""Rescaled Wick powers: exact errors, certificates, and limit laws."""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from wickchaos import (
    ZeroMeanError,
    constant,
    convergence_error,
    convergence_report,
    default_n_schedule,
    exp_vector,
    expansion_hash,
    first_order_kernel,
    gamma,
    inner_product,
    ks_statistic,
    limit_distribution_test,
    make_expansion,
    max_coeff_deviation,
    min_chaos_order,
    multi_indexes_of_degree,
    proof_bound,
    proof_bound_factors,
    rescaled_wick_power,
    univariate,
    wick_power,
    write_convergence_csv,
    write_distribution_json,
)
from wickchaos import _kernels, limits, sampling
from wickchaos.core import _exp_series
from wickchaos.limits import _l2_distance_to_exponential

X11 = univariate([1.0, 1.0])  # 1 + He1


def _series_tail(hsq, start):
    return math.fsum(hsq**k / math.factorial(k) for k in range(start, start + 80))


# ---------------------------------------------------------------------------
# Rescaling
# ---------------------------------------------------------------------------


def test_rescaled_power_n1_normalizes():
    x = univariate([2.0, 1.0])
    r = rescaled_wick_power(x, 1)
    assert max_coeff_deviation(r, univariate([1.0, 0.5])) == 0.0


def test_rescaled_power_hand_coefficients():
    r = rescaled_wick_power(X11, 2)
    assert [c for _, c in r.terms()] == [1.0, 1.0, 0.25]


def test_rescaled_power_binomial_limit():
    # coefficient C(n,k) (c/n)^k approaches c^k/k!, the exponential
    # coefficients; the relative gap is ~ k(k-1)/2n
    c = 0.7
    x = univariate([1.0, c])
    for k in range(2, 5):
        prev = None
        for n in (512, 4096):
            ratio = rescaled_wick_power(x, n).coeff((k,)) / (c**k / math.factorial(k))
            assert abs(ratio - 1.0) < k * (k - 1) / n
            if prev is not None:
                assert abs(ratio - 1.0) < prev
            prev = abs(ratio - 1.0)


def test_rescaled_power_scale_invariance():
    x = univariate([0.8, 0.4, -0.2])
    for lam in (2.0, -0.3):
        for n in (3, 8):
            a = rescaled_wick_power(x, n)
            b = rescaled_wick_power(lam * x, n)
            scale = max(1.0, float(np.max(np.abs(a.coeffs))))
            assert max_coeff_deviation(a, b) / scale <= 1e-12


# Inputs in dims 1-3 and the largest K checked for each. Pruning at PRUNE_EPS
# is the limit, not GRID_CELL_CAP: the chain and the pre-scaled squaring prune
# intermediates at scales 2^-(K-k)d apart, so once pruned cells still feed the
# result (the dim-2 input at K = 8) they agree to rounding only.
_DYADIC_CASES = (
    (univariate([1.2, 0.6, -0.3, 0.2]), 11),
    (make_expansion(2, [((0, 0), 0.9), ((1, 0), 0.3), ((0, 1), -0.2), ((1, 1), 0.1), ((0, 2), 0.05)]), 6),
    (make_expansion(3, [((0, 0, 0), 1.1), ((1, 0, 0), 0.3), ((0, 1, 0), -0.2), ((0, 0, 1), 0.1), ((1, 1, 0), 0.05)]), 5),
)


def test_rescaled_power_dyadic_is_repeated_squaring():
    # scaling by 2^-k is exact and every product cell has one total degree, so
    # rescaling before each squaring changes no bit
    for x, k_max in _DYADIC_CASES:
        for k in range(k_max + 1):
            chain = rescaled_wick_power(x, 2**k)
            squared = wick_power(gamma(2.0**-k, x / x.mean()), 2**k)
            assert np.array_equal(chain.exponents, squared.exponents)
            assert np.array_equal(chain.coeffs, squared.coeffs)


def test_rescaled_power_binomial_fraction_oracle():
    # (Gamma(1/n)(1 + h He1))^{<>n} has coefficient C(n, k) (h/n)^k at order k,
    # with h = b/a exact in rationals. Each cell sums terms of one sign
    # sign(h)^k, so no cancellation: the relative error is at most the rounding
    # count, u per order for h = fl(b/a), (k + 2) per Wick product and (k + 1)
    # per Gamma(2^j/n) scaling.
    u = 2.0**-53
    rng = np.random.default_rng(23)
    cases = [(1.0, 1.0)]
    for _ in range(6):
        a = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
        cases.append((a, a * float(rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0]))))
    for a, b in cases:
        h = Fraction(b) / Fraction(a)
        for n in (3, 5, 6, 7, 12, 24, 96, 112):
            r = rescaled_wick_power(univariate([a, b]), n)
            assert r.max_degree == n
            products = n.bit_length() + n.bit_count() - 2
            scalings = n.bit_count()
            for k in range(n + 1):
                exact = math.comb(n, k) * (h / n) ** k
                err = abs(Fraction(r.coeff((k,))) - exact) / abs(exact)
                assert err <= (k + products * (k + 2) + scalings * (k + 1)) * u


def test_zero_mean_is_rejected():
    z = univariate([0.0, 1.0, 0.5])
    for fn in (
        lambda: rescaled_wick_power(z, 4),
        lambda: convergence_error(z, 4),
        lambda: proof_bound(z, 4),
        lambda: limit_distribution_test(z, 4, 2000, 1),
    ):
        with pytest.raises(ZeroMeanError):
            fn()
    with pytest.raises(ZeroMeanError):
        rescaled_wick_power(univariate([1e-13, 1.0]), 2)


# ---------------------------------------------------------------------------
# Exact convergence error
# ---------------------------------------------------------------------------


def test_convergence_error_n2_closed_form():
    # 2!(1/4 - 1/2)^2 plus the exponential tail past degree 2
    expected = math.sqrt(0.125 + _series_tail(1.0, 3))
    assert convergence_error(X11, 2) == pytest.approx(expected, abs=1e-12)
    assert convergence_error(X11, 2) == pytest.approx(0.5859, abs=1e-4)


def test_convergence_error_strictly_decreasing():
    errors = [convergence_error(X11, 2**k) for k in range(1, 10)]
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_convergence_error_zero_first_kernel_family():
    # mean 1, h1 = 0: the limit is the constant 1
    x = univariate([1.0, 0.0, 1.0])
    errors = [convergence_error(x, n) for n in (2, 8, 32, 128)]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 0.02
    # independent leading-order check: error ~ sqrt(2)/n from the degree-2 term
    assert errors[-1] == pytest.approx(math.sqrt(2.0) / 128, rel=0.05)


def test_convergence_error_exponential_fixed_point():
    # truncated exponential vectors reproduce themselves: error decays much
    # faster than for generic inputs
    e6 = exp_vector([0.6], 6).expansion
    assert convergence_error(e6, 8) < 1e-6
    assert convergence_error(e6, 8) < convergence_error(univariate([1.0, 0.6]), 8) / 1e4


def test_convergence_error_of_constant_is_zero():
    assert convergence_error(constant(1, 3.0), 5) == 0.0


def test_convergence_error_multivariate_matches_univariate():
    # a 2-d copy of the 1-d family embedded on the first coordinate
    x2 = make_expansion(2, [((0, 0), 1.0), ((1, 0), 1.0)])
    assert convergence_error(x2, 4) == pytest.approx(convergence_error(X11, 4), rel=1e-12)


# ---------------------------------------------------------------------------
# The distance to E(h) against the enumerating walk it replaced
# ---------------------------------------------------------------------------


def _enumerating_weighted_sq(row, diff):
    """alpha! * diff^2 for one term, in log space on over/underflow."""
    if diff == 0.0:
        return 0.0
    w = 1.0
    for e in row:
        w *= math.factorial(e) if e <= 170 else math.inf
    val = w * diff * diff
    if val != 0.0 and math.isfinite(val):
        return val
    ls = sum(math.lgamma(e + 1.0) for e in row)
    return math.exp(ls + 2.0 * math.log(abs(diff)))


def _enumerating_distance(x, h, support_degree):
    """||X - E(h)|| by walking every multi-index of degree <= D over supp h,
    C(D + s, s) steps, plus the forward exponential-series tail past D."""
    degree = max(int(support_degree), x.max_degree)
    remaining = dict(x.terms())
    support = [int(i) for i in np.nonzero(h)[0]]
    tables = {}
    for i in support:
        u = [1.0]
        for e in range(1, degree + 1):
            u.append(u[-1] * h[i] / e)
        tables[i] = u
    zero = (0,) * x.dim
    acc = _enumerating_weighted_sq(zero, remaining.pop(zero, 0.0) - 1.0)
    if support:
        for k in range(1, degree + 1):
            for sub in multi_indexes_of_degree(len(support), k):
                t = 1.0
                alpha = [0] * x.dim
                for i, e in zip(support, sub):
                    alpha[i] = e
                    t *= tables[i][e]
                alpha = tuple(alpha)
                acc += _enumerating_weighted_sq(alpha, remaining.pop(alpha, 0.0) - t)
    for row, c in remaining.items():
        acc += _enumerating_weighted_sq(row, c)
    hsq = float(h @ h)
    term = 1.0
    for k in range(1, degree + 1):
        term *= hsq / k
    tail = 0.0
    k = degree + 1
    while True:
        term *= hsq / k
        tail += term
        k += 1
        if term == 0.0 or term < tail * 1e-18:
            return math.sqrt(acc + tail)


def _random_with_mean(rng, dim, max_degree, terms):
    pool = [a for k in range(1, max_degree + 1) for a in multi_indexes_of_degree(dim, k)]
    picks = rng.choice(len(pool), size=min(terms, len(pool)), replace=False)
    entries = {pool[int(i)]: float(rng.uniform(-1, 1)) for i in picks}
    entries[(0,) * dim] = float(rng.uniform(0.5, 1.5))
    return make_expansion(dim, entries)


def test_distance_to_exponential_matches_enumeration():
    rng = np.random.default_rng(11)
    worst = 0.0
    for dim in (1, 2, 3):
        for trial in range(6):
            # sparse X: most degrees over supp h are incomplete
            x = _random_with_mean(rng, dim, 3, int(rng.integers(1, 7)))
            h = rng.uniform(-1.2, 1.2, dim)
            if trial % 2:
                h[int(rng.integers(dim))] = 0.0  # sparse supp h
            if trial == 5:
                h[:] = 0.0
            # the enumeration walks to max(support_degree, X's top), the distance
            # pass to X's top, and the series tail covers the degrees between
            got = _l2_distance_to_exponential([(x, h)])[0]
            for support_degree in (0, 3, 12):
                expected = _enumerating_distance(x, h, support_degree)
                worst = max(worst, abs(got - expected) / expected)
    # rescaled powers with n * deg > 170: factorials overflow, log-space weights
    for x, n in (
        (X11, 256),
        (univariate([1.0, -0.6, 0.3]), 100),
        (make_expansion(2, [((0, 0), 1.0), ((1, 0), 0.5), ((0, 1), -0.3), ((1, 1), 0.2)]), 90),
        (make_expansion(3, [((0, 0, 0), 1.0), ((1, 0, 0), 0.5), ((0, 0, 1), 0.3)]), 172),
    ):
        r = rescaled_wick_power(x, n)
        h = first_order_kernel(x / x.mean())
        degree = n * x.max_degree
        assert degree > 170
        expected = _enumerating_distance(r, h, degree)
        got = _l2_distance_to_exponential([(r, h)])[0]
        assert got == convergence_error(x, n)
        worst = max(worst, abs(got - expected) / expected)
    assert worst <= 1e-13


def test_distance_parts_sharing_a_series_match_single_part_calls():
    # parts with one |h|^2 (h, -h, or h permuted) and different stored top
    # degrees take rows of one exponential series table: each takes a prefix, and
    # its tail goes on from the prefix's last term, 0 at degree 400 where
    # 0.09^k / k! has underflowed
    x1 = univariate([1.0, 0.3, -0.2])
    x40 = make_expansion(1, {(0,): 1.0, (1,): 0.5, (40,): 1e-250})
    x400 = make_expansion(1, {(0,): 1.0, (1,): 0.3, (400,): 1e-200})
    x7 = univariate([1.0, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-3])
    x2 = make_expansion(2, [((0, 0), 1.0), ((1, 0), 0.3), ((0, 1), 0.4), ((1, 1), -0.1)])
    x2_300 = make_expansion(2, {(0, 0): 1.0, (0, 1): 0.5, (300, 0): 1e-200})
    h = np.array([0.3])
    assert _exp_series([0.09], [400])[0][0][-1] == 0.0
    for parts in (
        [(x400, h), (x1, h), (x40, -h), (x7, h), (X11, -h), (x1, 2 * h)],
        [(x2, np.array([0.3, 0.4])), (x2_300, np.array([0.4, 0.3])), (x2, np.array([0.0, 0.5]))],
    ):
        assert len({x.max_degree for x, _ in parts}) > 1
        batched = _l2_distance_to_exponential(parts)
        assert [repr(v) for v in batched] == [repr(_l2_distance_to_exponential([p])[0]) for p in parts]


def test_certificate_middles_from_rows_match_gamma_expansions():
    # the middle factor's parts are the expansions gamma(lam, X), degrees
    # included, pruned below PRUNE_EPS as gamma prunes, and so are their distances
    rng = np.random.default_rng(19)
    pruned = make_expansion(1, {(0,): 1.0, (1,): 0.5, (40,): 1e-250})
    # 1e-256 lam^300 < PRUNE_EPS at n = 2, though it would weigh 300! (1e-301)^2 ~ 1e12
    heavy = make_expansion(1, {(0,): 1.0, (1,): 0.5, (300,): 1e-256})
    inputs = [pruned, heavy] + [_random_with_mean(rng, dim, 4, 6) for dim in (1, 2, 3) for _ in range(3)]
    ns = [2, 3, 8, 64, 1000]
    for x in inputs:
        xn = x / x.mean()
        h1 = first_order_kernel(xn)
        parts = limits._middle_parts(xn, h1, ns)
        middles = _l2_distance_to_exponential(parts)
        for n, (g, _), middle in zip(ns, parts, middles):
            lam = math.sqrt(2.0) / n
            assert g == gamma(lam, xn) and np.array_equal(g.degrees, gamma(lam, xn).degrees)
            (want,) = _l2_distance_to_exponential([(gamma(lam, xn), lam * h1)])
            assert repr(middle) == repr(want) == repr(proof_bound_factors(x, n).middle)
    assert gamma(math.sqrt(2.0) / 64, pruned).n_terms == gamma(math.sqrt(2.0) / 2, heavy).n_terms == 2


def test_multiset_counts_match_math_comb():
    # C(k + s - 1, k) for s <= 6 coordinates and k <= 4096, all in one call
    k, s_minus_1 = (a.ravel() for a in np.meshgrid(np.arange(4097), np.arange(6)))
    got = limits._multiset_counts(k, s_minus_1)
    want = [math.comb(int(kk) + int(s), int(kk)) for kk, s in zip(k, s_minus_1)]
    # exact while every step's product m * (k + i) stays below 2**53, and
    # within rounding above
    exact = [w * max(int(s), 1) < 2**53 for w, s in zip(want, s_minus_1)]
    assert [int(g) for g, e in zip(got, exact) if e] == [w for w, e in zip(want, exact) if e]
    assert not all(exact)
    assert all(abs(g - w) <= 4 * np.finfo(float).eps * w for g, w in zip(got, want))


def _family_error_50_digits(h, n):
    """Closed form of ||Gamma(1/n)(1 + h He1)^{<>n} - E(h)||, 50 digits."""
    with mp.workdps(50):
        h = mp.mpf(h)
        total = mp.zero
        binom_term = mp.one  # C(n, k) (h/n)^k
        exp_term = mp.one  # h^k / k!
        for k in range(n + 1):
            total += mp.factorial(k) * (binom_term - exp_term) ** 2
            binom_term *= mp.mpf(n - k) / (k + 1) * h / n
            exp_term *= h / (k + 1)
        head = mp.fsum(h ** (2 * k) / mp.factorial(k) for k in range(n + 1))
        return mp.sqrt(total + mp.exp(h * h) - head)


def test_convergence_error_family_against_mpmath():
    # a + b He1 normalizes to 1 + h He1 with h = b * (1/a) in float64; the
    # observed deviation is <= 2e-13, so 1e-11 leaves two orders of margin
    for a, b in ((1.0, 1.0), (-1.7, 0.6), (0.5, -0.75), (1.0, 0.1)):
        for n in (2, 3, 16, 100, 512, 1024):
            expected = _family_error_50_digits(b * (1.0 / a), n)
            got = convergence_error(univariate([a, b]), n)
            assert abs(mp.mpf(got) - expected) <= 1e-11 * expected


# ---------------------------------------------------------------------------
# Certificate factors
# ---------------------------------------------------------------------------


def test_proof_bound_hand_factors_n2():
    f = proof_bound_factors(X11, 2)
    assert f.middle == pytest.approx(math.sqrt(math.exp(0.5) - 1.5), rel=1e-13)
    assert f.gamma_norm == pytest.approx(math.sqrt(1.5), rel=1e-14)
    assert f.geometric_sum == pytest.approx(1.0 + math.sqrt(1.5), rel=1e-13)
    assert f.prefactor == pytest.approx(math.e, rel=1e-15)
    assert f.bound == pytest.approx(math.e * f.middle * f.geometric_sum, rel=1e-14)
    assert convergence_error(X11, 2) <= f.bound * (1 + 1e-8)


def test_gamma_norm_power_approaches_exponential():
    f = proof_bound_factors(X11, 1024)
    assert abs(f.gamma_norm_pow / math.e - 1.0) < 0.01
    y = univariate([1.0, 0.5, 0.25])
    f = proof_bound_factors(y, 1024)
    assert abs(f.gamma_norm_pow / math.exp(0.25) - 1.0) < 0.01


def test_middle_factor_quadratic_decay():
    y = univariate([1.0, 0.5, 0.25])
    for n in (64, 128):
        ratio = proof_bound_factors(y, n).middle / proof_bound_factors(y, 2 * n).middle
        assert abs(ratio - 4.0) < 0.4


def test_degenerate_geometric_sum_for_constant_input():
    f = proof_bound_factors(constant(1, 2.0), 8)
    assert f.gamma_norm == 1.0
    assert f.geometric_sum == 8.0
    assert f.middle == 0.0
    assert f.bound == 0.0


def test_bound_dominates_error_randomized():
    rng = np.random.default_rng(15)
    for _ in range(25):
        dim = int(rng.integers(1, 3))
        pool = [a for k in range(1, 3) for a in multi_indexes_of_degree(dim, k)]
        picks = rng.choice(len(pool), size=min(3, len(pool)), replace=False)
        entries = {pool[int(i)]: float(rng.uniform(-1, 1)) for i in picks}
        entries[(0,) * dim] = float(rng.uniform(0.3, 1.0))
        x = make_expansion(dim, entries)
        for n in (2, 4, 8, 16):
            assert convergence_error(x, n) <= proof_bound(x, n) * (1 + 1e-8)


def test_out_of_float64_range_raises():
    # |h1|^2 = 900: exp(|h1|^2) is out of float64 range, so are the error's
    # series tail and the certificate's prefactor
    x = univariate([1.0, 30.0])
    with pytest.raises(ValueError, match="does not converge"):
        convergence_error(x, 2)
    with pytest.raises(ValueError, match="prefactor at n = 2 is not finite in float64"):
        proof_bound(x, 2)
    # |h1|^2 = 625: every factor is finite, their product is not
    y = univariate([1.0, 25.0])
    assert math.isfinite(convergence_error(y, 2))
    with pytest.raises(ValueError, match="bound at n = 2 is not finite in float64"):
        proof_bound(y, 2)


def test_proof_bound_requires_n_at_least_two():
    with pytest.raises(ValueError, match="n >= 2"):
        proof_bound(X11, 1)


# ---------------------------------------------------------------------------
# Zero-mean degeneracy
# ---------------------------------------------------------------------------


def test_min_chaos_order_examples():
    he1 = univariate([0.0, 1.0])
    assert min_chaos_order(he1, 5) == 5
    assert min_chaos_order(univariate([0.0, 1.0, 1.0]), 3) == 3
    assert min_chaos_order(univariate([1.0, 0.7]), 9) == 0
    empty = univariate([1.0]) - univariate([1.0])
    assert min_chaos_order(empty, 2) is None


def test_min_chaos_order_is_the_lowest_degree_of_the_wick_power():
    # the closed form against the full power, on inputs whose power prunes no
    # coefficient: it keeps every multi-index of the n-fold sum of supports
    rng = np.random.default_rng(23)
    for _ in range(60):
        dim = int(rng.integers(1, 4))
        low = int(rng.integers(0, 3))
        pool = [a for k in range(low, low + 3) for a in multi_indexes_of_degree(dim, k)]
        picks = rng.choice(len(pool), size=min(4, len(pool)), replace=False)
        x = make_expansion(dim, {pool[int(i)]: float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0)) for i in picks})
        n = int(rng.integers(1, 6))
        rows, support = [tuple(a) for a in x.exponents.tolist()], {(0,) * dim}
        for _ in range(n):
            support = {tuple(map(sum, zip(a, b))) for a in support for b in rows}
        w = wick_power(x, n)
        assert w.n_terms == len(support)
        assert min_chaos_order(x, n) == int(w.degrees[0]) == n * int(x.degrees[0])


def test_zero_mean_low_order_projections_vanish_exactly():
    rng = np.random.default_rng(19)
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        pool = [a for k in range(1, 4) for a in multi_indexes_of_degree(dim, k)]
        picks = rng.choice(len(pool), size=min(4, len(pool)), replace=False)
        x = make_expansion(dim, {pool[int(i)]: float(rng.uniform(-1, 1)) for i in picks})
        n = int(rng.integers(2, 9))
        w = wick_power(x, n)
        assert min_chaos_order(x, n) >= n
        # orthogonality against every lower-degree polynomial, exactly
        low = make_expansion(
            dim, {a: float(rng.uniform(-1, 1)) for k in range(n) for a in multi_indexes_of_degree(dim, k)}
        )
        assert inner_product(w, low) == 0.0


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_convergence_report_schedule_and_rate():
    rep = convergence_report(X11, n_max=64)
    assert [e.n for e in rep.entries] == [2, 4, 8, 16, 32, 64]
    assert all(e.error <= e.bound * (1 + 1e-8) for e in rep.entries)
    assert all(a.error > b.error for a, b in zip(rep.entries, rep.entries[1:]))
    assert rep.input_hash
    y = univariate([1.0, 0.5, 0.25])
    rep = convergence_report(y, ns=[8 * 2**k for k in range(7)])
    assert -1.3 <= rep.fitted_rate <= -0.7


def test_power_indices_and_counts_are_integers():
    # True is not n = 1, and a fractional count is not truncated
    for fn in (
        lambda: rescaled_wick_power(X11, True),
        lambda: convergence_error(X11, True),
        lambda: limit_distribution_test(X11, True, 2000, 1),
        lambda: min_chaos_order(X11, True),
    ):
        with pytest.raises(ValueError, match="n must be an integer"):
            fn()
    with pytest.raises(TypeError):
        limit_distribution_test(X11, 4, 1000.9, 1)
    for fn in (lambda: default_n_schedule(1024.7), lambda: convergence_report(X11, n_max=1024.7)):
        with pytest.raises(TypeError):
            fn()
    with pytest.raises(ValueError, match="n_max must be an integer"):
        default_n_schedule(True)


def test_convergence_report_rejects_small_n(monkeypatch):
    with pytest.raises(ValueError, match=">= 2"):
        convergence_report(X11, ns=[1, 2])
    # the schedule is checked before any work: no normalization, no product
    monkeypatch.setattr(_kernels, "convolve_terms", None)
    with pytest.raises(ValueError, match="schedule entries must be >= 2"):
        convergence_report(univariate([0.0, 1.0]), ns=[4, 1])


def test_convergence_report_schedule_edges():
    # an empty schedule does no work, so even a zero-mean input reports nothing
    for x in (X11, univariate([0.0, 1.0])):
        rep = convergence_report(x, ns=[])
        assert rep.entries == ()
        assert math.isnan(rep.fitted_rate)
        assert rep.input_hash
    # unsorted schedules keep the caller's order
    rep = convergence_report(X11, ns=[8, 2, 4])
    assert [e.n for e in rep.entries] == [8, 2, 4]
    assert rep.entries[0].error == convergence_error(X11, 8)
    assert rep.entries[1].error == convergence_error(X11, 2)
    # a repeated n would enter the rate fit twice at one abscissa
    with pytest.raises(ValueError, match="distinct"):
        convergence_report(X11, ns=[8, 2, 8])


def test_convergence_report_entries_match_standalone():
    x2 = make_expansion(2, [((0, 0), -1.3), ((1, 0), 0.4), ((0, 1), 0.7), ((1, 1), -0.2)])
    for x in (X11, univariate([0.9, -0.5, 0.3, 0.1]), x2):
        for ns in ([2, 4, 8, 16, 32, 64], [3, 5, 6, 7, 12, 24], [12, 2, 7, 64, 3, 5]):
            for e in convergence_report(x, ns=ns).entries:
                factors = proof_bound_factors(x, e.n)
                assert e.error == convergence_error(x, e.n)
                assert e.bound == factors.bound == proof_bound(x, e.n)
                assert e.norm_gamma == factors.gamma_norm


def test_convergence_report_entries_match_one_element_schedules():
    # each entry of a batched report is bit for bit the entry of a schedule
    # holding its n alone, whatever the rest of the schedule is
    x2 = make_expansion(2, [((0, 0), 1.1), ((1, 0), -0.4), ((0, 1), 0.3), ((2, 1), 0.05)])
    x3 = make_expansion(3, [((0, 0, 0), -0.8), ((1, 0, 0), 0.2), ((0, 0, 1), 0.35), ((0, 1, 1), -0.1)])
    pruned = make_expansion(1, {(0,): 1.0, (1,): 0.5, (40,): 1e-250})
    for x, ns in (
        (X11, [2, 4, 8, 16, 32, 64]),
        (univariate([0.9, -0.5, 0.3, 0.1]), [3, 5, 6, 7, 12, 24]),
        (univariate([1.0, -0.6, 0.3]), [100, 2, 130, 7]),  # n * deg > 170: log-space weights
        (constant(1, 2.0), [4, 2]),  # errors and bounds 0, fitted rate NaN
        (x2, [12, 2, 7, 3, 5]),
        (x3, [5, 2, 4]),
        (pruned, [2, 8, 64, 3]),
    ):
        report = convergence_report(x, ns=ns)
        assert [e.n for e in report.entries] == ns
        for e in report.entries:
            (single,) = convergence_report(x, ns=[e.n]).entries
            assert repr(e) == repr(single)
    # the middle factor's Gamma(sqrt(2)/n) prunes the He_40 term at n = 64 only
    xn = pruned / pruned.mean()
    assert [gamma(math.sqrt(2.0) / n, xn).n_terms for n in (2, 8, 64, 3)] == [3, 3, 2, 3]


def test_convergence_report_weighs_once_per_schedule(monkeypatch):
    # the factorial weights are taken once per batch of distances and once for
    # the certificate's gamma norms, not once per n
    calls = []
    weighted = limits._factorial_weighted

    def spy(*args):
        calls.append(args)
        return weighted(*args)

    monkeypatch.setattr(limits, "_factorial_weighted", spy)
    counts = []
    for n_max in (8, 1024):
        calls.clear()
        convergence_report(univariate([0.9, -0.5, 0.3]), n_max=n_max)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_convergence_report_shares_one_chain(monkeypatch):
    # one squaring per doubling: 10 Wick products to n = 1024, where a fresh
    # power per n would take 1 + 2 + ... + 10 = 55
    calls = []
    convolve = _kernels.convolve_terms

    def spy(*args):
        calls.append(args)
        return convolve(*args)

    monkeypatch.setattr(_kernels, "convolve_terms", spy)
    convergence_report(univariate([0.9, -0.5, 0.3]), n_max=1024)
    assert len(calls) == 10


def test_convergence_csv_round_trip(tmp_path):
    rep = convergence_report(X11, n_max=16)
    path = tmp_path / "report.csv"
    write_convergence_csv(rep, path, tool_version="0.1.0")
    write_convergence_csv(rep, tmp_path / "again.csv", tool_version="0.1.0")
    assert path.read_bytes() == (tmp_path / "again.csv").read_bytes()
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "n,error,bound,norm_gamma,rate_running"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [2, 4, 8, 16]
    assert rows[0][4] == "nan"
    for row, entry in zip(rows, rep.entries):
        assert float(row[1]) == entry.error
        assert float(row[2]) == entry.bound
        assert float(row[3]) == entry.norm_gamma


def test_running_rates_are_the_prefix_least_squares_fits(tmp_path):
    # every CSV rate against np.polyfit over the same prefix: a wrongly
    # broadcast centring moves the rates while every entry stays right
    x2 = make_expansion(2, [((0, 0), 1.1), ((1, 0), -0.4), ((0, 1), 0.3), ((2, 1), 0.05)])
    for x, ns in (
        (X11, None),
        (univariate([0.9, -0.5, 0.3, 0.1]), [3, 5, 6, 7, 12, 24]),
        (univariate([1.0, 0.5, 0.25]), [64, 2, 16, 5, 1024, 3]),
        (x2, [12, 2, 7, 3, 40]),
    ):
        report = convergence_report(x, ns=ns)
        path = tmp_path / "rates.csv"
        write_convergence_csv(report, path)
        lines = path.read_text().splitlines()
        (fitted,) = [float(l.split(": ")[1]) for l in lines if l.startswith("# fitted-rate: ")]
        rows = [l.split(",") for l in lines if not l.startswith(("#", "n,"))]
        log_n = [math.log(int(r[0])) for r in rows]
        log_e = [math.log(float(r[1])) for r in rows]
        assert rows[0][4] == "nan"
        for i in range(1, len(rows)):
            assert float(rows[i][4]) == pytest.approx(np.polyfit(log_n[: i + 1], log_e[: i + 1], 1)[0], rel=1e-12)
        assert fitted == float(rows[-1][4]) == report.fitted_rate == report.running_rates[-1]
    # rows with error 0 enter no fit: a constant input's rates are all nan
    report = convergence_report(constant(2, 1.5), ns=[2, 4, 8])
    assert [e.error for e in report.entries] == [0.0, 0.0, 0.0]
    assert all(math.isnan(r) for r in report.running_rates) and math.isnan(report.fitted_rate)
    ns, errors = [2, 4, 8, 16, 32], [0.5, 0.0, 0.2, 0.1, 0.0]
    rates = limits._running_rates(ns, errors)
    assert math.isnan(rates[0]) and math.isnan(rates[1])
    for i, kept in ((2, [0, 2]), (3, [0, 2, 3]), (4, [0, 2, 3])):
        fit = np.polyfit([math.log(ns[j]) for j in kept], [math.log(errors[j]) for j in kept], 1)[0]
        assert rates[i] == pytest.approx(fit, rel=1e-12)


# ---------------------------------------------------------------------------
# Limit distribution sampling
# ---------------------------------------------------------------------------


def test_limit_distribution_lognormal_family():
    rep = limit_distribution_test(univariate([1.0, 0.5]), 32, 20000, seed=2)
    assert rep.target_mu == -0.125
    assert rep.target_sigma_sq == 0.25
    assert rep.ks_lognormal is not None and rep.ks_lognormal < 0.05
    assert rep.ks_log_normal is not None and rep.ks_log_normal < 0.05
    assert 0.0 <= rep.frac_nonpositive < 0.05
    assert rep.concentration_at_one is None


def test_limit_distribution_ks_fields_are_the_separate_statistics():
    # 1 + 1.5 He1 at n = 2 leaves some samples non-positive, so the filter matters
    rep = limit_distribution_test(univariate([1.0, 1.5]), 2, 5000, seed=6)
    assert 0.0 < rep.frac_nonpositive < 1.0
    values = rep.batch.values
    pos = values[values > 0.0]
    sigma = math.sqrt(rep.target_sigma_sq)
    assert rep.ks_lognormal == ks_statistic(pos, "lognormal", rep.target_mu, sigma)
    assert rep.ks_log_normal == ks_statistic(np.log(pos), "normal", rep.target_mu, sigma)


def test_limit_distribution_degenerate_point_mass():
    rep = limit_distribution_test(constant(1, 1.0), 8, 2000, seed=3)
    assert rep.ks_lognormal is None and rep.ks_log_normal is None
    assert rep.concentration_at_one == 1.0
    rep = limit_distribution_test(univariate([1.0, 0.0, 0.5]), 16, 2000, seed=4)
    assert rep.ks_lognormal is None
    assert 0.0 <= rep.concentration_at_one <= 1.0


@pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
def test_limit_distribution_rejects_a_non_positive_concentration_eps(eps):
    # at h1 = 0 a negative eps would report a concentration of 0 whatever the samples
    with pytest.raises(ValueError, match="concentration_eps must be positive"):
        limit_distribution_test(univariate([1.0, 0.0, 0.5]), 16, 2000, seed=4, concentration_eps=eps)


def test_distribution_json_carries_the_input_hash(tmp_path):
    # input-hash is the hash of X, as in the converge CSV, not that of the sampled power
    x = univariate([2.0, 0.5])
    rep = limit_distribution_test(x, 8, 1000, seed=3)
    assert rep.input_hash == expansion_hash(x) != rep.batch.expansion_hash
    write_distribution_json(rep, tmp_path / "d.json")
    assert json.loads((tmp_path / "d.json").read_text())["input-hash"] == expansion_hash(x)


def test_limit_distribution_nonnegative_square_family():
    from wickchaos import pointwise_product

    g = univariate([1.0, 0.3])
    x = pointwise_product(g, g)
    rep = limit_distribution_test(x, 32, 20000, seed=5)
    assert rep.frac_nonpositive < 0.01
    assert rep.ks_log_normal < 0.05


def test_limit_distribution_warns_below_minimum():
    with pytest.warns(UserWarning, match="minimum"):
        limit_distribution_test(univariate([1.0, 0.5]), 4, 10, seed=1)


def test_limit_distribution_sample_determinism():
    a = limit_distribution_test(univariate([1.0, 0.5]), 16, 5000, seed=11)
    b = limit_distribution_test(univariate([1.0, 0.5]), 16, 5000, seed=11)
    assert np.array_equal(a.batch.values, b.batch.values)
    assert a.ks_lognormal == b.ks_lognormal


@pytest.mark.parametrize(
    "x, n, n_samples, seed, ks_hex",
    [
        # dist's defaults
        (univariate([1.0, 0.5]), 64, 100000, 42, "0x1.c752d290557e0p-9"),
        (make_expansion(1, {(0,): 1.0, (1,): 0.4, (2,): -0.2}), 32, 20000, 11, "0x1.b480533849b80p-7"),
        (make_expansion(2, {(0, 0): 1.0, (1, 0): 0.3, (0, 1): -0.2, (1, 1): 0.1}), 8, 20000, 12,
         "0x1.635e6d2013860p-6"),
    ],
)
def test_limit_distribution_ks_bits_are_pinned(x, n, n_samples, seed, ks_hex):
    # the KS statistic, normal CDF included, must keep the bits of scipy.special.ndtr's values
    rep = limit_distribution_test(x, n, n_samples, seed=seed)
    assert rep.ks_lognormal.hex() == ks_hex


def _unsliced_report_fields(x, n, n_samples, seed, eps):
    """limit_distribution_test's fields from one (N, dim) draw, a mask and a full-length KS pass."""
    h1, r = limits._normalized_power(x, n)
    hsq = float(h1 @ h1)
    pts = np.random.default_rng(seed).standard_normal((n_samples, x.dim))
    values = sampling._evaluate_points(r.exponents, r.coeffs, r.max_degree, pts)
    mu = -0.5 * hsq
    pos = values[values > 0.0]
    ks = None
    if hsq != 0.0 and pos.shape[0]:
        z = np.log(np.sort(pos))
        cdf = sampling._ndtr((z - mu) / math.sqrt(hsq))
        i = np.arange(1, pos.shape[0] + 1)
        ks = float(max(np.max(i / pos.shape[0] - cdf), np.max(cdf - (i - 1) / pos.shape[0])))
    return {
        "n": n, "n_samples": n_samples, "seed": seed, "target_mu": mu, "target_sigma_sq": hsq,
        "ks_lognormal": ks, "ks_log_normal": ks, "frac_nonpositive": float(np.mean(values <= 0.0)),
        "concentration_at_one": float(np.mean(np.abs(values - 1.0) <= eps)) if hsq == 0.0 else None,
        "concentration_eps": eps, "values": values,
    }


@pytest.mark.parametrize(
    "x, n",
    [
        (univariate([1.0, 1.5]), 2),  # about a third of the samples non-positive
        (univariate([1.0, 0.0, 0.5]), 16),  # h1 = 0: the concentration at 1
        (make_expansion(2, {(0, 0): 1.0, (1, 0): 0.3, (0, 1): -0.2, (1, 1): 0.1}), 8),
    ],
)
def test_limit_distribution_slices_are_the_single_pass(x, n, monkeypatch):
    expected = _unsliced_report_fields(x, n, 4321, 13, 0.05)
    monkeypatch.setattr(sampling, "_SLICE", 1000)
    rep = limit_distribution_test(x, n, 4321, seed=13, concentration_eps=0.05)
    for name, value in expected.items():
        if name == "values":
            assert np.array_equal(rep.batch.values, value)
        else:
            assert getattr(rep, name) == value, name


def test_limit_distribution_holds_the_values_and_one_sorted_copy(monkeypatch):
    # every other temporary is bounded by a slice: 16 bytes per sample plus slack
    monkeypatch.setattr(sampling, "_SLICE", 1 << 12)
    n_samples = 1 << 17
    x = univariate([1.0, 0.5])
    limit_distribution_test(x, 8, 1000, seed=1)  # warm the caches the first call fills
    tracemalloc.start()
    try:
        limit_distribution_test(x, 8, n_samples, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * n_samples
