"""Randomized identity suites for the Wick/chaos algebra.

Each suite draws seeded random expansions (dim <= 3, degree <= 4, sparse
supports, coefficients U[-1, 1]) and reports the worst deviation observed
over its cases against a per-suite tolerance. The CLI `verify` command and
the acceptance tests both run through here, so pass/fail is a deterministic
function of (seed, case count, tolerances).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ChaosExpansion,
    constant,
    exp_vector,
    gamma,
    l2_norm_sq,
    make_expansion,
    max_coeff_deviation,
    multi_indexes_of_degree,
    project_degree,
)
from .algebra import pointwise_product, s_transform_eval, wick_bound_check, wick_power, wick_product

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suite", "run_suites", "random_expansion"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    max_deviation: float
    tolerance: float
    passed: bool


def random_expansion(
    rng,
    dim=None,
    max_degree: int = 4,
    max_terms: int = 6,
    min_degree: int = 0,
    with_mean: bool = False,
) -> ChaosExpansion:
    """Sparse random expansion with coefficients U[-1, 1]."""
    if dim is None:
        dim = int(rng.integers(1, 4))
    pool = [
        alpha
        for k in range(min_degree, max_degree + 1)
        for alpha in multi_indexes_of_degree(dim, k)
    ]
    count = int(rng.integers(1, max_terms + 1))
    picks = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
    entries = {pool[int(i)]: float(rng.uniform(-1.0, 1.0)) for i in picks}
    if with_mean:
        zero = (0,) * dim
        mean = float(rng.uniform(0.2, 1.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        entries[zero] = mean
    return make_expansion(dim, entries)


def _lam(rng) -> float:
    return float(rng.uniform(-1.5, 1.5))


def _suite_gamma_composition(rng, cases):
    worst = 0.0
    for _ in range(cases):
        x = random_expansion(rng)
        lam, mu = _lam(rng), _lam(rng)
        worst = max(worst, max_coeff_deviation(gamma(mu, gamma(lam, x)), gamma(mu * lam, x)))
    return worst


def _suite_gamma_wick_homomorphism(rng, cases):
    worst = 0.0
    for _ in range(cases):
        dim = int(rng.integers(1, 4))
        x = random_expansion(rng, dim=dim)
        y = random_expansion(rng, dim=dim)
        lam = _lam(rng)
        worst = max(
            worst,
            max_coeff_deviation(
                gamma(lam, wick_product(x, y)), wick_product(gamma(lam, x), gamma(lam, y))
            ),
        )
    return worst


def _suite_gamma_on_exponentials(rng, cases):
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(1, 4))
        h = rng.uniform(-1.2, 1.2, size=d)
        deg = int(rng.integers(2, 9))
        lam = _lam(rng)
        worst = max(
            worst,
            max_coeff_deviation(
                gamma(lam, exp_vector(h, deg).expansion), exp_vector(lam * h, deg).expansion
            ),
        )
    return worst


def _suite_exponential_semigroup(rng, cases):
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(1, 4))
        h = rng.uniform(-1.2, 1.2, size=d)
        g = rng.uniform(-1.2, 1.2, size=d)
        deg = int(rng.integers(2, 7))
        prod = wick_product(exp_vector(h, deg).expansion, exp_vector(g, deg).expansion)
        worst = max(
            worst,
            max_coeff_deviation(
                project_degree(prod, deg, "at_most"), exp_vector(h + g, deg).expansion
            ),
        )
    return worst


def _wick_power_or_unit(x, k):
    return constant(x.dim) if k == 0 else wick_power(x, k)


def _suite_telescoping(rng, cases):
    # Y^n - Z^n = (Y - Z) ⋄ sum_j Y^j ⋄ Z^(n-1-j), all powers Wick
    worst = 0.0
    for _ in range(cases):
        dim = int(rng.integers(1, 4))
        deg = 4 if dim == 1 else 2
        y = random_expansion(rng, dim=dim, max_degree=deg)
        z = random_expansion(rng, dim=dim, max_degree=deg)
        n = int(rng.integers(2, 7))
        lhs = wick_power(y, n) - wick_power(z, n)
        total = None
        for j in range(n):
            term = wick_product(_wick_power_or_unit(y, j), _wick_power_or_unit(z, n - 1 - j))
            total = term if total is None else total + term
        rhs = wick_product(y - z, total)
        worst = max(worst, max_coeff_deviation(lhs, rhs))
    return worst


def _suite_wick_commutativity(rng, cases):
    worst = 0.0
    for _ in range(cases):
        dim = int(rng.integers(1, 4))
        x = random_expansion(rng, dim=dim)
        y = random_expansion(rng, dim=dim)
        worst = max(worst, max_coeff_deviation(wick_product(x, y), wick_product(y, x)))
    return worst


def _suite_wick_associativity(rng, cases):
    worst = 0.0
    for _ in range(cases):
        dim = int(rng.integers(1, 4))
        x = random_expansion(rng, dim=dim)
        y = random_expansion(rng, dim=dim)
        z = random_expansion(rng, dim=dim)
        worst = max(
            worst,
            max_coeff_deviation(
                wick_product(wick_product(x, y), z), wick_product(x, wick_product(y, z))
            ),
        )
    return worst


def _suite_wick_distributivity_unit(rng, cases):
    worst = 0.0
    for _ in range(cases):
        dim = int(rng.integers(1, 4))
        x = random_expansion(rng, dim=dim)
        y = random_expansion(rng, dim=dim)
        z = random_expansion(rng, dim=dim)
        worst = max(
            worst,
            max_coeff_deviation(
                wick_product(x, y + z), wick_product(x, y) + wick_product(x, z)
            ),
        )
        worst = max(worst, max_coeff_deviation(wick_product(x, constant(dim)), x))
    return worst


def _suite_exponential_norm(rng, cases):
    # relative deviation of l2_norm^2 + tail against exp(|h|^2)
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(1, 4))
        h = rng.uniform(-1.5, 1.5, size=d)
        deg = int(rng.integers(5, 41))
        res = exp_vector(h, deg)
        total = l2_norm_sq(res.expansion) + res.tail_norm_sq
        target = math.exp(float(h @ h))
        worst = max(worst, abs(total - target) / target)
    return worst


def _suite_wick_norm_inequality(rng, cases):
    # signed worst margin (lhs - rhs)/rhs; anything <= tolerance passes
    worst = -math.inf
    for _ in range(cases):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        xs = [random_expansion(rng, dim=dim) for _ in range(n)]
        lhs, rhs = wick_bound_check(xs)
        if rhs > 0:
            worst = max(worst, (lhs - rhs) / rhs)
    return worst


def _suite_contraction_free_term_is_wick(rng, cases):
    worst = 0.0
    for _ in range(cases):
        dim = int(rng.integers(1, 4))
        x = random_expansion(rng, dim=dim)
        y = random_expansion(rng, dim=dim)
        r0 = pointwise_product(x, y, max_contraction=0)
        if r0 != wick_product(x, y):
            worst = max(worst, max_coeff_deviation(r0, wick_product(x, y)))
    return worst


def _suite_hermite_product_closed_forms(rng, cases):
    he1 = make_expansion(1, [((1,), 1.0)])
    he2 = make_expansion(1, [((2,), 1.0)])
    a = max_coeff_deviation(
        pointwise_product(he1, he1), make_expansion(1, [((0,), 1.0), ((2,), 1.0)])
    )
    b = max_coeff_deviation(
        pointwise_product(he2, he1), make_expansion(1, [((1,), 2.0), ((3,), 1.0)])
    )
    return max(a, b)


def _suite_s_transform_factorization(rng, cases):
    worst = 0.0
    for _ in range(cases):
        dim = int(rng.integers(1, 4))
        x = random_expansion(rng, dim=dim)
        y = random_expansion(rng, dim=dim)
        h = rng.uniform(-1.0, 1.0, size=dim)
        lhs = s_transform_eval(wick_product(x, y), h)
        rhs = s_transform_eval(x, h) * s_transform_eval(y, h)
        worst = max(worst, abs(lhs - rhs))
    return worst


_SUITES = {
    "gamma-composition": (_suite_gamma_composition, 1e-10),
    "gamma-wick-homomorphism": (_suite_gamma_wick_homomorphism, 1e-10),
    "gamma-on-exponentials": (_suite_gamma_on_exponentials, 1e-10),
    "exponential-semigroup": (_suite_exponential_semigroup, 1e-10),
    "telescoping-difference": (_suite_telescoping, 1e-10),
    "wick-commutativity": (_suite_wick_commutativity, 1e-10),
    "wick-associativity": (_suite_wick_associativity, 1e-10),
    "wick-distributivity-unit": (_suite_wick_distributivity_unit, 1e-10),
    "exponential-norm": (_suite_exponential_norm, 1e-12),
    "wick-norm-inequality": (_suite_wick_norm_inequality, 1e-10),
    "contraction-free-term-is-wick": (_suite_contraction_free_term_is_wick, 0.0),
    "hermite-product-closed-forms": (_suite_hermite_product_closed_forms, 0.0),
    "s-transform-factorization": (_suite_s_transform_factorization, 1e-10),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 2024, cases: int = 1000, tolerance=None) -> SuiteResult:
    """Run one named suite on a fresh seeded generator."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if int(cases) < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")
    fn, default_tol = _SUITES[name]
    tol = default_tol if tolerance is None else float(tolerance)
    rng = np.random.default_rng([seed, SUITE_NAMES.index(name)])
    worst = float(fn(rng, int(cases)))
    return SuiteResult(
        name=name, cases=int(cases), max_deviation=worst, tolerance=tol, passed=worst <= tol
    )


def run_suites(seed: int = 2024, cases: int = 1000, tolerance=None, names=None):
    """Run all (or the named) suites; returns a list of SuiteResult."""
    if names is None:
        names = SUITE_NAMES
    return [run_suite(name, seed=seed, cases=cases, tolerance=tolerance) for name in names]
