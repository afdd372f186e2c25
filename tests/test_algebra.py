"""Wick and pointwise products, Wick powers, S-transform, norm inequality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wickchaos import (
    constant,
    exp_vector,
    gamma,
    l2_norm,
    make_expansion,
    max_coeff_deviation,
    multi_indexes_of_degree,
    pointwise_product,
    project_degree,
    s_transform_eval,
    sample_batch,
    univariate,
    wick_bound_check,
    wick_power,
    wick_product,
)

he1 = univariate([0.0, 1.0])
he2 = univariate([0.0, 0.0, 1.0])


def _random_expansion(rng, dim, max_degree=4, terms=5):
    pool = [a for k in range(max_degree + 1) for a in multi_indexes_of_degree(dim, k)]
    picks = rng.choice(len(pool), size=min(terms, len(pool)), replace=False)
    return make_expansion(dim, {pool[int(i)]: float(rng.uniform(-1, 1)) for i in picks})


# ---------------------------------------------------------------------------
# Wick product
# ---------------------------------------------------------------------------


def test_wick_square_of_first_chaos():
    assert wick_product(he1, he1) == he2


def test_wick_product_exponential_semigroup():
    h, g = np.array([0.4, -0.9]), np.array([0.3, 0.5])
    d = 6
    prod = wick_product(exp_vector(h, d).expansion, exp_vector(g, d).expansion)
    dev = max_coeff_deviation(project_degree(prod, d, "at_most"), exp_vector(h + g, d).expansion)
    assert dev <= 1e-12


def test_wick_product_hand_convolution():
    # degree 0: 1, degree 1: 1 - 1 = 0, degree 2: -1
    out = wick_product(univariate([1.0, 1.0]), univariate([1.0, -1.0]))
    assert out == univariate([1.0, 0.0, -1.0])


def test_wick_product_mean_multiplies():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = _random_expansion(rng, 2)
        y = _random_expansion(rng, 2)
        prod = wick_product(x, y)
        assert prod.mean() == pytest.approx(x.mean() * y.mean(), abs=1e-14)
        if x.n_terms and y.n_terms:
            assert prod.max_degree <= x.max_degree + y.max_degree


def test_wick_product_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        wick_product(constant(1), constant(2))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-1, 1, allow_nan=False, width=32), min_size=1, max_size=4),
    st.lists(st.floats(-1, 1, allow_nan=False, width=32), min_size=1, max_size=4),
    st.lists(st.floats(-1, 1, allow_nan=False, width=32), min_size=1, max_size=4),
)
def test_wick_ring_axioms_property(a, b, c):
    x, y, z = univariate(a), univariate(b), univariate(c)
    assert max_coeff_deviation(wick_product(x, y), wick_product(y, x)) <= 1e-12
    assert (
        max_coeff_deviation(
            wick_product(wick_product(x, y), z), wick_product(x, wick_product(y, z))
        )
        <= 1e-12
    )
    assert (
        max_coeff_deviation(wick_product(x, y + z), wick_product(x, y) + wick_product(x, z))
        <= 1e-12
    )
    assert wick_product(x, constant(1)) == x


# ---------------------------------------------------------------------------
# Wick powers
# ---------------------------------------------------------------------------


def test_wick_power_first_is_identity():
    x = univariate([1.0, 0.5, -0.25])
    assert wick_power(x, 1) == x


def test_wick_power_binomial_coefficients():
    c = 0.75
    for n in (2, 5, 9):
        w = wick_power(univariate([1.0, c]), n)
        for k in range(n + 1):
            assert w.coeff((k,)) == pytest.approx(math.comb(n, k) * c**k, rel=1e-13)


def test_wick_power_of_pure_first_chaos():
    for n in (1, 3, 8):
        assert wick_power(he1, n) == univariate([0.0] * n + [1.0])


def test_wick_power_matches_iterated_product():
    rng = np.random.default_rng(9)
    for dim in (1, 2):
        x = _random_expansion(rng, dim, max_degree=3)
        for n in (2, 5, 16):
            iterated = x
            for _ in range(n - 1):
                iterated = wick_product(iterated, x)
            sq = wick_power(x, n)
            scale = max(1.0, float(np.max(np.abs(iterated.coeffs))))
            assert max_coeff_deviation(sq, iterated) / scale <= 1e-12


def test_wick_power_rejects_zero():
    with pytest.raises(ValueError, match="n >= 1"):
        wick_power(he1, 0)
    with pytest.raises(ValueError, match="n >= 1"):
        wick_power(he1, -2)
    with pytest.raises(ValueError, match="n must be an integer"):
        wick_power(he1, True)


# ---------------------------------------------------------------------------
# Pointwise (Hu-Meyer) product
# ---------------------------------------------------------------------------


def test_pointwise_identity_element():
    x = univariate([1.0, -0.5, 2.0])
    assert pointwise_product(x, constant(1)) == x


def test_pointwise_hermite_closed_forms_exact():
    assert pointwise_product(he1, he1) == univariate([1.0, 0.0, 1.0])
    assert pointwise_product(he2, he1) == univariate([0.0, 2.0, 0.0, 1.0])


def test_pointwise_polynomial_oracle_multivariate():
    # (xi1^2 - 1) * xi1 * xi2 = He3(xi1) He1(xi2) + 2 He1(xi1) He1(xi2)
    a = make_expansion(2, [((2, 0), 1.0)])
    b = make_expansion(2, [((1, 1), 1.0)])
    out = pointwise_product(a, b)
    assert out == make_expansion(2, [((1, 1), 2.0), ((3, 1), 1.0)])


def test_pointwise_contraction_free_part_is_wick_exactly():
    rng = np.random.default_rng(21)
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        x = _random_expansion(rng, dim)
        y = _random_expansion(rng, dim)
        assert pointwise_product(x, y, max_contraction=0) == wick_product(x, y)


def test_pointwise_matches_sampled_product():
    rng = np.random.default_rng(31)
    n = 20000
    for _ in range(5):
        dim = int(rng.integers(1, 3))
        x = _random_expansion(rng, dim, max_degree=3)
        y = _random_expansion(rng, dim, max_degree=3)
        prod = pointwise_product(x, y)
        seed = int(rng.integers(1 << 30))
        bx = sample_batch(x, n, seed)
        by = sample_batch(y, n, seed)
        bp = sample_batch(prod, n, seed)
        resid = bx.values * by.values - bp.values
        scale = max(1.0, l2_norm(x) * l2_norm(y))
        mean_sq = float(np.mean(resid**2))
        se = float(np.std(resid**2, ddof=1) / math.sqrt(n))
        assert mean_sq <= 4.0 * se + (1e-10 * scale) ** 2


def test_pointwise_commutes():
    rng = np.random.default_rng(41)
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        x = _random_expansion(rng, dim)
        y = _random_expansion(rng, dim)
        assert max_coeff_deviation(pointwise_product(x, y), pointwise_product(y, x)) <= 1e-12


def test_pointwise_rejects_negative_cap():
    with pytest.raises(ValueError, match="max_contraction"):
        pointwise_product(he1, he1, max_contraction=-1)
    with pytest.raises(ValueError, match="max_contraction must be a non-negative integer"):
        pointwise_product(he1, he1, max_contraction=True)


# ---------------------------------------------------------------------------
# S-transform
# ---------------------------------------------------------------------------


def test_s_transform_constant():
    for h in ([0.0], [2.5], [-1.0]):
        assert s_transform_eval(constant(1), h) == 1.0


def test_s_transform_of_exponential_vector():
    res = exp_vector([1.0], 12).expansion
    assert s_transform_eval(res, [1.0]) == pytest.approx(math.e, abs=1e-9)


def test_s_transform_wick_homomorphism():
    rng = np.random.default_rng(17)
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        x = _random_expansion(rng, dim)
        y = _random_expansion(rng, dim)
        h = rng.uniform(-1, 1, size=dim)
        lhs = s_transform_eval(wick_product(x, y), h)
        rhs = s_transform_eval(x, h) * s_transform_eval(y, h)
        assert abs(lhs - rhs) <= 1e-10


def test_s_transform_is_linear():
    rng = np.random.default_rng(37)
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        x = _random_expansion(rng, dim)
        y = _random_expansion(rng, dim)
        a, b = rng.uniform(-2, 2, size=2)
        h = rng.uniform(-1, 1, size=dim)
        lhs = s_transform_eval(a * x + b * y, h)
        rhs = a * s_transform_eval(x, h) + b * s_transform_eval(y, h)
        assert abs(lhs - rhs) <= 1e-12


def test_s_transform_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        s_transform_eval(constant(2), [1.0])


def test_s_transform_rejects_non_finite_values():
    # (1e200)^2 overflows; at (1e200, 0) the He_(2,1) monomial is inf * 0
    for x, h in (
        (univariate([1.0, 0.5, 0.25]), [1e200]),
        (make_expansion(2, {(0, 0): 1.0, (2, 1): 1.0}), [1e200, 0.0]),
    ):
        with pytest.raises(ValueError, match="not finite in float64"):
            s_transform_eval(x, h)


# ---------------------------------------------------------------------------
# Norm inequality for Wick products
# ---------------------------------------------------------------------------


def test_wick_bound_single_factor_is_equality():
    x = univariate([0.3, 1.2, -0.5])
    lhs, rhs = wick_bound_check([x])
    assert lhs == pytest.approx(rhs, rel=1e-14)
    assert lhs == pytest.approx(l2_norm(x), rel=1e-14)


def test_wick_bound_hand_case():
    x = univariate([1.0, 1.0])
    lhs, rhs = wick_bound_check([x, x])
    assert lhs == pytest.approx(math.sqrt(7.0), rel=1e-14)
    assert rhs == pytest.approx(3.0, rel=1e-12)
    assert lhs <= rhs * (1 + 1e-10)


def test_wick_bound_randomized_triples():
    rng = np.random.default_rng(13)
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        xs = [_random_expansion(rng, dim) for _ in range(3)]
        lhs, rhs = wick_bound_check(xs)
        assert lhs <= rhs * (1 + 1e-10)


def test_wick_bound_rejects_empty_list():
    with pytest.raises(ValueError, match="empty"):
        wick_bound_check([])


# ---------------------------------------------------------------------------
# Second quantization interplay
# ---------------------------------------------------------------------------


def test_gamma_wick_homomorphism():
    rng = np.random.default_rng(23)
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        x = _random_expansion(rng, dim)
        y = _random_expansion(rng, dim)
        lam = float(rng.uniform(-1.5, 1.5))
        dev = max_coeff_deviation(
            gamma(lam, wick_product(x, y)), wick_product(gamma(lam, x), gamma(lam, y))
        )
        assert dev <= 1e-11


def test_gamma_on_exponential_vectors():
    h = np.array([0.8, -0.4])
    lam = -0.75
    dev = max_coeff_deviation(
        gamma(lam, exp_vector(h, 7).expansion), exp_vector(lam * h, 7).expansion
    )
    assert dev <= 1e-12


def test_telescoping_identity():
    rng = np.random.default_rng(29)
    for _ in range(30):
        dim = int(rng.integers(1, 3))
        y = _random_expansion(rng, dim, max_degree=3)
        z = _random_expansion(rng, dim, max_degree=3)
        n = int(rng.integers(2, 7))
        lhs = wick_power(y, n) - wick_power(z, n)
        total = None
        for j in range(n):
            yj = constant(dim) if j == 0 else wick_power(y, j)
            zj = constant(dim) if n - 1 - j == 0 else wick_power(z, n - 1 - j)
            term = wick_product(yj, zj)
            total = term if total is None else total + term
        rhs = wick_product(y - z, total)
        assert max_coeff_deviation(lhs, rhs) <= 1e-10
