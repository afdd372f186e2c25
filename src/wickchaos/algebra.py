"""The two multiplications on chaos expansions, and the S-transform.

Wick product: in the Hermite coefficient basis H_alpha ⋄ H_beta = H_{alpha+beta},
so X ⋄ Y is the graded convolution (X⋄Y)_alpha = sum_{beta+gamma=alpha}
x_beta y_gamma. Pointwise product: the Hu-Meyer/Hermite product formula

    He_a · He_b = sum_{r=0}^{a∧b} r! C(a,r) C(b,r) He_{a+b-2r}

applied per coordinate and summed over contraction multi-indexes r <= min(alpha, beta);
its contraction-free (r = 0) part is exactly the Wick product.

Products never truncate: results carry the full degree
x.max_degree + y.max_degree, so downstream L2 error computations stay exact.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from . import _kernels
from .core import ChaosExpansion, _check_degree, _check_int, _check_same_dim, gamma, l2_norm

__all__ = [
    "wick_product",
    "wick_power",
    "pointwise_product",
    "s_transform_eval",
    "wick_bound_check",
]


def wick_product(x: ChaosExpansion, y: ChaosExpansion) -> ChaosExpansion:
    """Wick (convolution) product X ⋄ Y."""
    _check_same_dim(x, y)
    exps, vals = _kernels.convolve_terms(x.exponents, x.coeffs, y.exponents, y.coeffs)
    return ChaosExpansion._from_arrays(x.dim, exps, vals)


def wick_power(x: ChaosExpansion, n: int) -> ChaosExpansion:
    """n-th Wick power X^{⋄n}, n >= 1, by repeated squaring (O(log n) products)."""
    return _dyadic_powers(x, [n])[0]


def _dyadic_powers(x: ChaosExpansion, ns, rescale: bool = False) -> list[ChaosExpansion]:
    """X^{⋄n}, or Gamma(1/n) X^{⋄n} when rescale, for each n in ns (all >= 1), in the order given.

    chain[k] = X^{⋄2^k} is the ⋄-square of chain[k-1], and each power is the ⋄-product of
    chain[k] over the set bits k of n, lowest first. Gamma is a ⋄-homomorphism, so with
    rescale chain[k] = (Gamma(2^-k) X)^{⋄2^k} squares Gamma(1/2) chain[k-1], and the
    factors are Gamma(2^k/n) chain[k]. Scaling before squaring keeps the central
    coefficients, which overflow float64 in the raw power past n ~ 1000, bounded by the L2 norm.
    """
    ns = [_check_int(n, "n") for n in ns]
    if min(ns) < 1:
        raise ValueError("Wick powers need n >= 1 (the zeroth Wick power is undefined)")
    chain = [x]
    while len(chain) < max(ns).bit_length():
        half = gamma(0.5, chain[-1]) if rescale else chain[-1]
        chain.append(wick_product(half, half))
    return [
        reduce(wick_product, [gamma((1 << k) / n, chain[k]) if rescale and n != 1 << k else chain[k]
                              for k in range(n.bit_length()) if n >> k & 1])
        for n in ns
    ]


def pointwise_product(
    x: ChaosExpansion, y: ChaosExpansion, max_contraction: int | None = None
) -> ChaosExpansion:
    """Ordinary product X · Y via the Hu-Meyer contraction formula.

    max_contraction caps the total contraction order |r| (None = no cap);
    max_contraction=0 keeps only the trace-free term and reproduces
    wick_product exactly, bit for bit.
    """
    _check_same_dim(x, y)
    cap = -1 if max_contraction is None else _check_degree(max_contraction, "max_contraction")
    exps, vals = _kernels.hu_meyer_terms(x.exponents, x.coeffs, y.exponents, y.coeffs, cap)
    return ChaosExpansion._from_arrays(x.dim, exps, vals)


def s_transform_eval(x: ChaosExpansion, h) -> float:
    """S-transform value SX(h) = E[X · E(h)] = sum_alpha c_alpha h^alpha.

    A polynomial evaluation of the coefficient table, mapping the Wick product to the
    pointwise product of transforms. Raises ValueError when it is not finite in float64.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1 or h.shape[0] != x.dim:
        raise ValueError(f"dimension mismatch: h has shape {h.shape}, expansion dim {x.dim}")
    if not np.all(np.isfinite(h)):
        raise ValueError("non-finite entry in h")
    if x.n_terms == 0:
        return 0.0
    kmax = int(x.exponents.max())
    powers = np.empty((x.dim, kmax + 1))
    powers[:, 0] = 1.0
    powers[:, 1:] = h[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is rejected below
        np.multiply.accumulate(powers, axis=1, out=powers)
        monomials = powers[np.arange(x.dim), x.exponents].prod(axis=1)
        value = float(np.sum(x.coeffs * monomials))
    if not math.isfinite(value):
        raise ValueError(f"S-transform value {value!r} is not finite in float64")
    return value


def wick_bound_check(xs) -> tuple[float, float]:
    """Norm inequality data for a Wick product of several factors.

    Returns (lhs, rhs) with lhs = ||X_1 ⋄ ... ⋄ X_n|| and
    rhs = prod_i ||Gamma(sqrt(n)) X_i||; the guarantee is
    lhs <= rhs * (1 + 1e-10).
    """
    xs = list(xs)
    if not xs:
        raise ValueError("empty factor list")
    for y in xs[1:]:
        _check_same_dim(xs[0], y)
    root = math.sqrt(len(xs))
    return l2_norm(reduce(wick_product, xs)), math.prod(l2_norm(gamma(root, y)) for y in xs)
