"""Chaos expansion construction, norms, projections and exponential vectors."""

import json
import math
import warnings

import numpy as np
import pytest

from wickchaos import (
    constant,
    exp_vector,
    expansion_hash,
    first_order_kernel,
    from_json_dict,
    gamma,
    inner_product,
    l2_norm,
    l2_norm_sq,
    make_expansion,
    max_coeff_deviation,
    multi_index_factorial,
    multi_indexes_of_degree,
    pointwise_product,
    project_degree,
    rescaled_wick_power,
    sample_batch,
    to_json_dict,
    univariate,
    wick_product,
)
from wickchaos.core import (
    FACTORIALS,
    PRUNE_EPS,
    _exp_series,
    _factorial_weighted,
    _union,
    grade_lex_order,
)


def test_make_expansion_constant_one():
    x = make_expansion(1, [((0,), 1.0)])
    assert x.mean() == 1.0
    assert x.max_degree == 0
    assert x.n_terms == 1


def test_make_expansion_first_order():
    x = make_expansion(2, [((0, 0), 1.0), ((1, 0), 1.0)])
    assert x.max_degree == 1
    assert x.coeff((1, 0)) == 1.0
    assert x.coeff((0, 1)) == 0.0


def test_make_expansion_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        make_expansion(1, [((1,), 2.0), ((1,), 3.0)])


def test_make_expansion_rejects_bad_input():
    with pytest.raises(ValueError, match="length"):
        make_expansion(2, [((1,), 1.0)])
    with pytest.raises(ValueError, match="non-finite"):
        make_expansion(1, [((0,), float("nan"))])
    with pytest.raises(ValueError, match="exponent"):
        make_expansion(1, [((-1,), 1.0)])
    with pytest.raises(ValueError, match="exponent True"):
        make_expansion(1, [((True,), 2.0)])
    with pytest.raises(ValueError, match="positive integer"):
        make_expansion(0, [])


def test_multi_index_factorial():
    assert multi_index_factorial((0, 0)) == 1.0
    assert multi_index_factorial((3, 2)) == 12.0
    assert multi_index_factorial((200,)) == math.inf


def test_multi_index_factorial_is_the_product_loop_bit_for_bit():
    def loop(alpha):
        out = 1.0
        for e in alpha:
            out *= FACTORIALS[min(int(e), 171)]
        return out

    rng = np.random.default_rng(31)
    overflowed = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf is the documented overflow value, not a warning
        for dim in range(1, 7):
            for _ in range(300):
                alpha = tuple(rng.integers(0, rng.choice([8, 60, 200]), size=dim).tolist())
                with np.errstate(over="ignore"):  # the oracle's own overflow
                    expected = loop(alpha)
                overflowed += expected == math.inf
                assert multi_index_factorial(alpha) == expected
        assert multi_index_factorial((100, 100)) == math.inf
    assert overflowed > 100  # a single 171+ and products of finite factorials both reach inf


def test_factorial_table():
    assert FACTORIALS[0] == 1.0
    assert FACTORIALS[5] == 120.0
    assert FACTORIALS[170] < np.inf
    assert FACTORIALS[171] == np.inf


def test_grade_lex_order_sorts_canonically():
    exps = np.array([[2, 0], [0, 1], [0, 0], [1, 1], [0, 2]], dtype=np.int64)
    order = grade_lex_order(exps)
    sorted_rows = [tuple(r) for r in exps[order].tolist()]
    assert sorted_rows == [(0, 0), (0, 1), (0, 2), (1, 1), (2, 0)]


def test_multi_indexes_of_degree_lex_order():
    idx = list(multi_indexes_of_degree(3, 2))
    assert idx[0] == (0, 0, 2)
    assert idx[-1] == (2, 0, 0)
    assert len(idx) == 6
    assert idx == sorted(idx)


def test_factorial_weights_fall_back_to_log_space():
    # 200! overflows and 1e-170 * 1e-170 underflows; the log-space values
    # match math.lgamma
    exps = np.array([[200], [100], [3]])
    a = np.array([1e-150, 1e-170, 0.5])
    b = np.array([-2e-150, 1e-170, 0.0])
    expected = [
        -math.exp(math.lgamma(201.0) + math.log(2e-300)),
        math.exp(math.lgamma(101.0) + 2.0 * math.log(1e-170)),
        0.0,
    ]
    assert _factorial_weighted(exps, (a, b), 1) == pytest.approx(expected, rel=1e-12)
    scaled = [
        math.exp(0.5 * math.lgamma(201.0) + math.log(1e-150)),
        1e-170 * math.sqrt(math.factorial(100)),
        0.5 * math.sqrt(6.0),
    ]
    assert _factorial_weighted(exps, (a,), 0.5) == pytest.approx(scaled, rel=1e-12)


def test_l2_norm_constant():
    assert l2_norm(constant(1)) == 1.0


def test_l2_norm_hand_sum():
    # sum alpha! c^2 = 1 + 1 + 2 over degrees 0, 1, 2
    x = univariate([1.0, 1.0, 1.0])
    assert l2_norm(x) == pytest.approx(2.0, abs=1e-14)


def test_l2_norm_matches_monte_carlo_second_moment():
    rng = np.random.default_rng(11)
    for _ in range(3):
        entries = {}
        for k in range(1, 4):
            entries[(k,)] = float(rng.uniform(-1, 1))
        entries[(0,)] = float(rng.uniform(-1, 1))
        x = make_expansion(1, entries)
        n = 100000
        batch = sample_batch(x, n, seed=int(rng.integers(1 << 30)))
        sq = batch.values**2
        se = float(np.std(sq, ddof=1) / math.sqrt(n))
        assert abs(float(np.mean(sq)) - l2_norm_sq(x)) <= 4.0 * se


def test_inner_product_orthogonal_grades():
    he1 = univariate([0.0, 1.0])
    he2 = univariate([0.0, 0.0, 1.0])
    assert inner_product(he1, he2) == 0.0
    assert inner_product(he2, he2) == 2.0  # E[He2^2] = 2!


def test_inner_product_cancellation():
    x = univariate([1.0, 1.0])
    y = univariate([1.0, -1.0])
    assert inner_product(x, y) == 0.0


def test_inner_product_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        inner_product(constant(1), constant(2))


def test_cauchy_schwarz_randomized():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        pool = [a for k in range(4) for a in multi_indexes_of_degree(d, k)]
        picks = rng.choice(len(pool), size=min(5, len(pool)), replace=False)
        x = make_expansion(d, {pool[int(i)]: float(rng.uniform(-1, 1)) for i in picks})
        picks = rng.choice(len(pool), size=min(5, len(pool)), replace=False)
        y = make_expansion(d, {pool[int(i)]: float(rng.uniform(-1, 1)) for i in picks})
        assert inner_product(x, y) ** 2 <= l2_norm_sq(x) * l2_norm_sq(y) * (1 + 1e-12)


def test_gamma_identity_and_mean_projection():
    x = univariate([1.0, 2.0, 1.0])
    assert gamma(1.0, x) == x
    assert gamma(0.0, x) == project_degree(x, 0, "at_most")
    assert gamma(0.0, x).mean() == x.mean()


def test_gamma_scaling_entrywise():
    x = univariate([1.0, 2.0, 1.0])
    g = gamma(0.5, x)
    assert g.coeff((0,)) == 1.0
    assert g.coeff((1,)) == 1.0
    assert g.coeff((2,)) == 0.25


def test_gamma_composition_randomized():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = univariate(rng.uniform(-1, 1, size=5))
        lam, mu = rng.uniform(-1.5, 1.5, size=2)
        dev = max_coeff_deviation(gamma(mu, gamma(lam, x)), gamma(mu * lam, x))
        assert dev <= 1e-12


def test_gamma_linearity():
    x = univariate([1.0, 2.0])
    y = univariate([0.5, -1.0, 3.0])
    lam = 0.7
    assert max_coeff_deviation(gamma(lam, x + y), gamma(lam, x) + gamma(lam, y)) == 0.0


def test_gamma_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        gamma(float("inf"), constant(1))


def test_project_degree_modes():
    x = univariate([1.0, 1.0, 1.0])
    assert project_degree(x, x.max_degree, "at_most") == x
    assert project_degree(x, 0, "at_most") == constant(1)
    assert project_degree(x, 1, "exactly") == univariate([0.0, 1.0])
    with pytest.raises(ValueError, match="mode"):
        project_degree(x, 1, "between")


def test_exp_vector_zero_kernel():
    res = exp_vector([0.0, 0.0], 5)
    assert res.expansion == constant(2)
    assert res.tail_norm_sq == 0.0


def test_exp_vector_univariate_hand_values():
    res = exp_vector([1.0], 3)
    assert [c for _, c in res.expansion.terms()] == [1.0, 1.0, 0.5, 1.0 / 6.0]
    # tail of e past degree 3, summed independently
    tail = math.fsum(1.0 / math.factorial(k) for k in range(4, 60))
    assert res.tail_norm_sq == pytest.approx(tail, rel=1e-12)
    assert res.tail_norm_sq == pytest.approx(0.0516151618, abs=1e-9)


def test_exp_vector_product_of_series():
    a, b = 1.0, 2.0
    res = exp_vector([a, b], 4)
    for j in range(3):
        for k in range(3 - j):
            expect = a**j * b**k / (math.factorial(j) * math.factorial(k))
            assert res.expansion.coeff((j, k)) == pytest.approx(expect, rel=1e-15)
    assert res.expansion.coeff((1, 1)) == 2.0


def test_exp_vector_norm_identity():
    for h in ([0.5], [1.0], [2.0], [0.6, -0.8]):
        res = exp_vector(h, 40)
        hsq = sum(v * v for v in h)
        total = l2_norm_sq(res.expansion) + res.tail_norm_sq
        assert total == pytest.approx(math.exp(hsq), rel=1e-12)


def _walk_exp_vector(h, max_degree):
    """{alpha: h^alpha / alpha!} by walking every multi-index of degree <=
    max_degree over supp h, with tables u[e] = u[e-1] * h_i / e."""
    support = [int(i) for i in np.nonzero(h)[0]]
    tables = {}
    for i in support:
        u = [1.0]
        for e in range(1, max_degree + 1):
            u.append(u[-1] * h[i] / e)
        tables[i] = u
    out = {(0,) * len(h): 1.0}
    for k in range(1, max_degree + 1 if support else 1):
        for sub in multi_indexes_of_degree(len(support), k):
            alpha = [0] * len(h)
            c = 1.0
            for i, e in zip(support, sub):
                alpha[i] = e
                c *= tables[i][e]
            out[tuple(alpha)] = c
    return out


def test_exp_vector_matches_multi_index_walk():
    # The two table recurrences round differently (h_i / e first, or the
    # product first), each at most twice per factor, so they agree to
    # 2 |alpha| eps relative.
    eps = np.finfo(float).eps
    kernels = ([1.3], [0.0], [0.7, 0.0], [-1.9, 2.2], [0.4, 0.0, -1.1], [0.0, 2.4, 0.0], [1.5, -0.8, 2.0])
    rng = np.random.default_rng(12)
    for h in [np.array(h) for h in kernels] + [rng.uniform(-2.5, 2.5, dim) for dim in (1, 2, 3)]:
        for max_degree in (0, 1, 5, 17, 40):
            expected = _walk_exp_vector(h, max_degree)
            got = exp_vector(h, max_degree).expansion
            assert {alpha for alpha, _ in got.terms()} == set(expected)
            for alpha, c in got.terms():
                assert abs(c - expected[alpha]) <= 2 * sum(alpha) * eps * abs(expected[alpha])


def _forward_series(hsq, degree):
    """hsq^k / k! for k = 0..degree and the tail past degree, by the scalar
    forward recurrence."""
    terms = [1.0]
    for k in range(1, degree + 1):
        terms.append(terms[-1] * (hsq / k))
    term = terms[-1]
    tail = 0.0
    k = degree + 1
    while True:
        term *= hsq / k
        tail += term
        k += 1
        if term == 0.0 or term < tail * 1e-18:
            return terms, tail


def test_exp_series_is_the_forward_recurrence_bit_for_bit():
    for hsq in (0.0, 1e-3, 0.09, 1.0, 2.25, 7.3, 100.0, 625.0):
        for degree in (0, 1, 3, 40, 171, 1024):
            terms, tail = _exp_series(hsq, degree)
            expected_terms, expected_tail = _forward_series(hsq, degree)
            assert terms.tolist() == expected_terms
            assert tail == expected_tail
    for h, degree in ((0.3, 0), (1.0, 3), (1.5, 40), (-4.0, 7)):
        assert exp_vector([h], degree).tail_norm_sq == _forward_series(h * h, degree)[1]


def test_exp_series_tail_raises_instead_of_truncating():
    # exp(|h|^2) overflows float64: the tail never meets its stopping rule
    with pytest.raises(ValueError, match="does not converge"):
        _exp_series(1e6, 0)
    with pytest.raises(ValueError, match="does not converge"):
        exp_vector([1e3], 0)


def test_exp_series_raises_when_the_tail_overflows():
    # e^900 is out of float64 range: the running tail overflows to inf while
    # the terms are still finite, and an infinite tail must not pass the
    # stopping rule term < tail * 1e-18
    with pytest.raises(ValueError, match="does not converge"):
        _exp_series(900.0, 2)
    with pytest.raises(ValueError, match="does not converge"):
        exp_vector([30.0], 2)


def test_exp_vector_total_l2_norm_value():
    # |h| = 1: truncation plus tail carries the full mass e, norm sqrt(e)
    res = exp_vector([1.0], 40)
    total = math.sqrt(l2_norm_sq(res.expansion) + res.tail_norm_sq)
    assert total == pytest.approx(1.6487212707, abs=1e-9)


def test_first_order_kernel():
    assert np.array_equal(first_order_kernel(constant(2)), np.zeros(2))
    x = make_expansion(2, [((0, 0), 1.0), ((1, 0), 0.5)])
    assert np.array_equal(first_order_kernel(x), np.array([0.5, 0.0]))
    res = exp_vector([0.3, -0.7], 3)
    assert np.allclose(first_order_kernel(res.expansion), [0.3, -0.7], atol=0)


def _reference_sum(x, y, sign):
    """x + sign * y term by term, dropping sums below PRUNE_EPS."""
    out = dict(x.terms())
    for alpha, c in y.terms():
        out[alpha] = out.get(alpha, 0.0) + sign * c
    return {alpha: c for alpha, c in out.items() if abs(c) >= PRUNE_EPS}


def test_union_operations_match_term_by_term_reference():
    rng = np.random.default_rng(21)
    for dim in (1, 2, 3):
        pool = [a for k in range(5) for a in multi_indexes_of_degree(dim, k)]
        even = [a for a in pool if sum(a) % 2 == 0]
        odd = [a for a in pool if sum(a) % 2 == 1]

        def draw(support, share=None):
            picks = rng.choice(len(support), size=min(6, len(support)), replace=False)
            entries = {support[i]: float(rng.uniform(-1, 1)) for i in picks.tolist()}
            if share is not None:  # copy some terms, so that x - y cancels them exactly
                entries.update(dict(list(share.terms())[::2]))
            return make_expansion(dim, entries)

        empty = make_expansion(dim, [])
        x = draw(pool)
        pairs = [
            (x, draw(pool)),  # overlapping
            (x, draw(pool, share=x)),  # overlapping, with equal coefficients
            (draw(even), draw(odd)),  # disjoint
            (x, empty),
            (empty, x),
            (empty, empty),
        ]
        for x, y in pairs:
            for got, sign in ((x + y, 1.0), (x - y, -1.0)):
                expected = _reference_sum(x, y, sign)
                assert dict(got.terms()) == expected
                assert [a for a, _ in got.terms()] == sorted(expected, key=lambda a: (sum(a), a))
            cx, cy = dict(x.terms()), dict(y.terms())
            inner = sum(
                multi_index_factorial(a) * c * cy[a] for a, c in cx.items() if a in cy
            )
            assert inner_product(x, y) == pytest.approx(inner, rel=1e-14, abs=1e-300)
            deviations = [abs(cx.get(a, 0.0) - cy.get(a, 0.0)) for a in cx.keys() | cy.keys()]
            assert max_coeff_deviation(x, y) == max(
                [d for d in deviations if d >= PRUNE_EPS], default=0.0
            )
    # the difference 5e-301 falls below PRUNE_EPS, as it does in x - y
    assert max_coeff_deviation(univariate([1e-300]), univariate([1.5e-300])) == 0.0


def test_arithmetic_and_immutability():
    x = univariate([1.0, 2.0])
    y = univariate([0.0, 1.0, 3.0])
    s = x + y
    assert s.coeff((1,)) == 3.0 and s.coeff((2,)) == 3.0
    assert (x - x).n_terms == 0
    assert (2.0 * x).coeff((1,)) == 4.0
    with pytest.raises(TypeError, match="wick_product"):
        x * y
    with pytest.raises(ValueError):
        x.exponents[0, 0] = 5
    with pytest.raises(ValueError):
        x.coeffs[0] = 5.0


def test_zero_expansion_degenerates_gracefully():
    z = univariate([1.0]) - univariate([1.0])
    assert z.n_terms == 0
    assert z.mean() == 0.0
    assert l2_norm(z) == 0.0
    assert z.max_degree == 0


def test_json_round_trip_and_reader_validation():
    x = make_expansion(2, [((0, 0), 1.0), ((2, 1), -0.25)])
    assert from_json_dict(to_json_dict(x)) == x
    payload = to_json_dict(x)
    payload["coeffs"].append({"alpha": [0, 0], "c": 3.0})
    with pytest.raises(ValueError, match="duplicate"):
        from_json_dict(payload)
    with pytest.raises(ValueError, match="length"):
        from_json_dict({"dim": 2, "coeffs": [{"alpha": [1], "c": 1.0}]})
    with pytest.raises(ValueError, match="'dim'"):
        from_json_dict({"coeffs": []})
    # serialized form is valid JSON end to end
    assert from_json_dict(json.loads(json.dumps(to_json_dict(x)))) == x


def test_expansion_hash_is_order_insensitive():
    a = make_expansion(1, [((0,), 1.0), ((3,), 2.0)])
    b = make_expansion(1, [((3,), 2.0), ((0,), 1.0)])
    assert expansion_hash(a) == expansion_hash(b)
    assert expansion_hash(a) != expansion_hash(univariate([1.0]))


def _assert_canonical(r):
    assert np.array_equal(grade_lex_order(r.exponents), np.arange(r.n_terms))
    assert np.array_equal(r.degrees, r.exponents.sum(axis=1))


def test_every_producer_returns_canonical_rows():
    # _from_arrays sorts by degree only, so each producer must hand it rows
    # that are already lex-ordered within each degree
    rng = np.random.default_rng(8)
    for dim in (1, 2, 3):
        pool = [a for k in range(4) for a in multi_indexes_of_degree(dim, k)]
        picks = rng.permutation(len(pool))
        shuffled = make_expansion(dim, [(pool[i], float(rng.uniform(-1, 1))) for i in picks.tolist()])
        y = make_expansion(dim, {pool[i]: float(rng.uniform(-1, 1)) for i in picks[::2].tolist()})
        empty = make_expansion(dim, [])
        h = np.linspace(-0.5, 0.7, dim)
        h[0] = 0.0
        for x in (shuffled, y, empty):
            produced = [
                x,
                wick_product(x, y),
                pointwise_product(x, y),
                pointwise_product(x, y, max_contraction=0),
                pointwise_product(x, y, max_contraction=2),
                x + y,
                x - y,
                y - x,
                -x,
                2.5 * x,
                gamma(0.7, x),
                project_degree(x, 2),
                project_degree(x, 2, mode="exactly"),
            ]
            for r in produced:
                _assert_canonical(r)
        _assert_canonical(exp_vector(h, 5).expansion)
        _assert_canonical(exp_vector(np.zeros(dim), 5).expansion)
        _assert_canonical(rescaled_wick_power(constant(dim) + y, 6))
    sparse = make_expansion(3, {(50, 0, 0): 1.0, (0, 50, 0): 1.0, (0, 0, 50): 1.0})
    for r in (sparse, sparse + constant(3), wick_product(sparse, sparse), pointwise_product(sparse, sparse)):
        _assert_canonical(r)


def _union_by_unique(x, y):
    """The np.unique(axis=0) alignment _union replaced, kept as its oracle."""
    stacked = np.concatenate([x.exponents, y.exponents])
    exps, inverse = np.unique(stacked, axis=0, return_inverse=True)
    a = np.zeros(exps.shape[0])
    b = np.zeros(exps.shape[0])
    a[inverse[: x.n_terms]] = x.coeffs
    b[inverse[x.n_terms :]] = y.coeffs
    return exps, a, b


def test_union_matches_unique_oracle():
    rng = np.random.default_rng(13)

    def draw(dim, support):
        picks = rng.choice(len(support), size=min(7, len(support)), replace=False)
        return make_expansion(dim, {support[i]: float(rng.uniform(-1, 1)) for i in picks.tolist()})

    cases = []
    for dim in (1, 2, 3):
        pool = [a for k in range(6) for a in multi_indexes_of_degree(dim, k)]
        even = [a for a in pool if sum(a) % 2 == 0]
        odd = [a for a in pool if sum(a) % 2 == 1]
        x, empty = draw(dim, pool), make_expansion(dim, [])
        cases += [(x, draw(dim, pool)), (x, x), (draw(dim, even), draw(dim, odd))]
        cases += [(x, empty), (empty, x), (empty, empty)]
    # exponents up to 2**40 in dim 8: a mixed-radix code would overflow int64
    big = [tuple(int(e) for e in row) for row in rng.integers(0, 2**40, size=(6, 8))]
    big += [(2**40,) * 8, (0,) * 8]
    x = make_expansion(8, {a: float(rng.uniform(-1, 1)) for a in big[:5]})
    y = make_expansion(8, {a: float(rng.uniform(-1, 1)) for a in big[3:]})
    cases += [(x, y), (y, x)]
    for x, y in cases:
        got, want = _union(x, y), _union_by_unique(x, y)
        assert got[0].dtype == np.int64
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
