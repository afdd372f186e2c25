"""Randomized identity suites for the Wick/chaos algebra.

Each suite is a one-case check: it draws one seeded random case (dim <= 3,
degree <= 4, 1 to 6 terms, coefficients U[-1, 1]) and returns its deviation.
`run_suite` reports the worst deviation over the cases against a per-suite
tolerance. The CLI `verify` command and the acceptance tests both run through
here, so pass/fail is a deterministic function of (seed, case count,
tolerances).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ChaosExpansion,
    _check_int,
    constant,
    exp_vector,
    gamma,
    l2_norm_sq,
    make_expansion,
    max_coeff_deviation,
    project_degree,
)
from .algebra import _dyadic_powers, pointwise_product, s_transform_eval, wick_bound_check, wick_product

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suite", "run_suites", "random_expansion"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    max_deviation: float
    tolerance: float
    passed: bool


@functools.lru_cache(maxsize=64)
def _index_pool(dim, max_degree):
    """Every multi-index of degree 0..max_degree, in (degree, lex) order, as the support of E(1, ..., 1)."""
    return exp_vector(np.ones(dim), max_degree).expansion.exponents


def random_expansion(rng, dim=None, max_degree=4):
    """Sparse random expansion: 1 to 6 terms, coefficients U[-1, 1]."""
    dim = int(rng.integers(1, 4)) if dim is None else int(dim)
    if dim < 1:
        raise ValueError(f"need dim >= 1, got dim={dim}")
    pool = _index_pool(dim, int(max_degree))
    picks = rng.choice(len(pool), size=min(int(rng.integers(1, 7)), len(pool)), replace=False)
    vals = rng.uniform(-1.0, 1.0, size=picks.shape[0])
    # ascending picks of the canonical pool are canonical rows
    order = picks.argsort()
    return ChaosExpansion._from_arrays(dim, pool[picks[order]], vals[order])


def _same_dim(rng, count):
    """count random expansions over one random dim in 1..3."""
    dim = int(rng.integers(1, 4))
    return [random_expansion(rng, dim=dim) for _ in range(count)]


def _lam(rng) -> float:
    return float(rng.uniform(-1.5, 1.5))


def _gamma_composition(rng):
    x = random_expansion(rng)
    lam, mu = _lam(rng), _lam(rng)
    return max_coeff_deviation(gamma(mu, gamma(lam, x)), gamma(mu * lam, x))


def _gamma_wick_homomorphism(rng):
    x, y = _same_dim(rng, 2)
    lam = _lam(rng)
    return max_coeff_deviation(gamma(lam, wick_product(x, y)), wick_product(gamma(lam, x), gamma(lam, y)))


def _gamma_on_exponentials(rng):
    d = int(rng.integers(1, 4))
    h = rng.uniform(-1.2, 1.2, size=d)
    deg = int(rng.integers(2, 9))
    lam = _lam(rng)
    return max_coeff_deviation(gamma(lam, exp_vector(h, deg).expansion), exp_vector(lam * h, deg).expansion)


def _exponential_semigroup(rng):
    d = int(rng.integers(1, 4))
    h = rng.uniform(-1.2, 1.2, size=d)
    g = rng.uniform(-1.2, 1.2, size=d)
    deg = int(rng.integers(2, 7))
    prod = wick_product(exp_vector(h, deg).expansion, exp_vector(g, deg).expansion)
    return max_coeff_deviation(project_degree(prod, deg, "at_most"), exp_vector(h + g, deg).expansion)


def _telescoping(rng):
    # Y^n - Z^n = (Y - Z) ⋄ sum_j Y^j ⋄ Z^(n-1-j), all powers Wick
    dim = int(rng.integers(1, 4))
    deg = 4 if dim == 1 else 2
    y = random_expansion(rng, dim=dim, max_degree=deg)
    z = random_expansion(rng, dim=dim, max_degree=deg)
    n = int(rng.integers(2, 7))
    ys = [constant(dim)] + _dyadic_powers(y, range(1, n + 1))
    zs = [constant(dim)] + _dyadic_powers(z, range(1, n + 1))
    lhs = ys[n] - zs[n]
    terms = [wick_product(ys[j], zs[n - 1 - j]) for j in range(n)]
    return max_coeff_deviation(lhs, wick_product(y - z, sum(terms[1:], terms[0])))


def _wick_commutativity(rng):
    x, y = _same_dim(rng, 2)
    return max_coeff_deviation(wick_product(x, y), wick_product(y, x))


def _wick_associativity(rng):
    x, y, z = _same_dim(rng, 3)
    return max_coeff_deviation(wick_product(wick_product(x, y), z), wick_product(x, wick_product(y, z)))


def _wick_distributivity_unit(rng):
    x, y, z = _same_dim(rng, 3)
    return max(
        max_coeff_deviation(wick_product(x, y + z), wick_product(x, y) + wick_product(x, z)),
        max_coeff_deviation(wick_product(x, constant(x.dim)), x),
    )


def _exponential_norm(rng):
    # relative deviation of l2_norm^2 + tail against exp(|h|^2)
    d = int(rng.integers(1, 4))
    h = rng.uniform(-1.5, 1.5, size=d)
    res = exp_vector(h, int(rng.integers(5, 41)))
    target = math.exp(float(h @ h))
    return abs(l2_norm_sq(res.expansion) + res.tail_norm_sq - target) / target


def _wick_norm_inequality(rng):
    # signed margin (lhs - rhs)/rhs; anything <= tolerance passes
    dim = int(rng.integers(1, 4))
    n = int(rng.integers(1, 5))
    lhs, rhs = wick_bound_check([random_expansion(rng, dim=dim) for _ in range(n)])
    return (lhs - rhs) / rhs if rhs > 0 else -math.inf


def _contraction_free_term_is_wick(rng):
    x, y = _same_dim(rng, 2)
    r0, w = pointwise_product(x, y, max_contraction=0), wick_product(x, y)
    return 0.0 if r0 == w else max_coeff_deviation(r0, w)


def _hermite_product_closed_forms(rng):
    he1 = make_expansion(1, [((1,), 1.0)])
    he2 = make_expansion(1, [((2,), 1.0)])
    return max(
        max_coeff_deviation(pointwise_product(he1, he1), make_expansion(1, [((0,), 1.0), ((2,), 1.0)])),
        max_coeff_deviation(pointwise_product(he2, he1), make_expansion(1, [((1,), 2.0), ((3,), 1.0)])),
    )


def _s_transform_factorization(rng):
    x, y = _same_dim(rng, 2)
    h = rng.uniform(-1.0, 1.0, size=x.dim)
    return abs(s_transform_eval(wick_product(x, y), h) - s_transform_eval(x, h) * s_transform_eval(y, h))


_SUITES = {
    "gamma-composition": (_gamma_composition, 1e-10),
    "gamma-wick-homomorphism": (_gamma_wick_homomorphism, 1e-10),
    "gamma-on-exponentials": (_gamma_on_exponentials, 1e-10),
    "exponential-semigroup": (_exponential_semigroup, 1e-10),
    "telescoping-difference": (_telescoping, 1e-10),
    "wick-commutativity": (_wick_commutativity, 1e-10),
    "wick-associativity": (_wick_associativity, 1e-10),
    "wick-distributivity-unit": (_wick_distributivity_unit, 1e-10),
    "exponential-norm": (_exponential_norm, 1e-12),
    "wick-norm-inequality": (_wick_norm_inequality, 1e-10),
    "contraction-free-term-is-wick": (_contraction_free_term_is_wick, 0.0),
    "hermite-product-closed-forms": (_hermite_product_closed_forms, 0.0),
    "s-transform-factorization": (_s_transform_factorization, 1e-10),
}

SUITE_NAMES = tuple(_SUITES)

# checks that draw nothing: every case would be the same, so one is run
_FIXED_CASE = frozenset({"hermite-product-closed-forms"})


def run_suite(name: str, seed: int = 2024, cases: int = 1000, tolerance=None) -> SuiteResult:
    """Run one named suite on a fresh seeded generator; the worst case decides."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    cases = _check_int(cases, "cases")
    if cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")
    check, default_tol = _SUITES[name]
    tol = default_tol if tolerance is None else float(tolerance)
    if not math.isfinite(tol):
        raise ValueError(f"tolerance must be finite, got {tolerance}")
    rng = np.random.default_rng([_check_int(seed, "seed"), SUITE_NAMES.index(name)])
    worst = float(max(check(rng) for _ in range(1 if name in _FIXED_CASE else cases)))
    return SuiteResult(name=name, cases=cases, max_deviation=worst, tolerance=tol, passed=worst <= tol)


def run_suites(seed: int = 2024, cases: int = 1000, tolerance=None):
    """Run every suite; returns a list of SuiteResult."""
    return [run_suite(name, seed=seed, cases=cases, tolerance=tolerance) for name in SUITE_NAMES]
