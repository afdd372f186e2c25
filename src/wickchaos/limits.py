"""Rescaled Wick powers and their limits, with exact L2 error accounting.

For X with E[X] != 0 the rescaled powers Gamma(1/n) X^{⋄n} / E[X]^n converge
in L2 to the stochastic exponential E(h1) of the first-order kernel h1 of
X/E[X]. Everything here is computed exactly in coefficient arithmetic:
inputs are finite expansions, so Wick powers are exact, and the only
infinite object, E(h1), enters through closed-form tail sums. The bound
chain (a norm inequality for Wick products plus the exponential semigroup)
yields a fully computable certificate dominating every error value.

Zero-mean inputs are rejected: no rescaling of their Wick powers admits a
nonzero limit, which is observable as the vanishing of every fixed-order
projection (see min_chaos_order).
"""

from __future__ import annotations

import json
import math
import operator
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.special import binom

from .core import (
    ChaosExpansion,
    _exp_series,
    _factorial_weighted,
    _power_tables,
    expansion_hash,
    first_order_kernel,
    gamma,
)
from .algebra import wick_power, wick_product
from .sampling import ks_critical_value, ks_statistic, sample_batch

__all__ = [
    "MEAN_EPS",
    "ZeroMeanError",
    "rescaled_wick_power",
    "convergence_error",
    "BoundFactors",
    "proof_bound",
    "proof_bound_factors",
    "min_chaos_order",
    "ConvergenceEntry",
    "ConvergenceReport",
    "convergence_report",
    "write_convergence_csv",
    "DistributionReport",
    "limit_distribution_test",
    "write_distribution_json",
]

# |mean| below this is treated as zero: dividing by E[X]^n would amplify
# numeric dust catastrophically, so fail loudly instead.
MEAN_EPS = 1e-12


class ZeroMeanError(ValueError):
    """Raised for zero-mean inputs, whose rescaled Wick powers have no nonzero limit."""


def _normalized(x: ChaosExpansion) -> ChaosExpansion:
    mean = x.mean()
    if abs(mean) < MEAN_EPS:
        raise ZeroMeanError(
            "expansion has (numerically) zero mean; rescaled Wick powers of "
            "zero-mean inputs converge to zero only - see min_chaos_order"
        )
    return x / mean


def _rescaled_powers(xn: ChaosExpansion, ns) -> list[ChaosExpansion]:
    """Gamma(1/n) Xn^{⋄n} for each n in ns (all >= 1), in the order given.

    Gamma is a ⋄-homomorphism: chain[k] = (Gamma(2^-k) Xn)^{⋄2^k} is the ⋄-square of
    Gamma(1/2) chain[k-1], and each power is the ⋄-product of Gamma(2^k/n) chain[k] over
    the set bits k of n. Scaling before squaring keeps the central coefficients, which
    overflow float64 in the raw power past n ~ 1000, bounded by the L2 norm.
    """
    chain = [xn]
    while len(chain) < max(ns).bit_length():
        half = gamma(0.5, chain[-1])
        chain.append(wick_product(half, half))
    return [
        reduce(wick_product, [chain[k] if n == 1 << k else gamma((1 << k) / n, chain[k])
                              for k in range(n.bit_length()) if n >> k & 1])
        for n in ns
    ]


def _normalized_power(x: ChaosExpansion, n) -> tuple[ChaosExpansion, ChaosExpansion]:
    """X/E[X] and Gamma(1/n) (X/E[X])^{⋄n}, for n >= 1."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    xn = _normalized(x)
    return xn, _rescaled_powers(xn, [n])[0]


def rescaled_wick_power(x: ChaosExpansion, n: int) -> ChaosExpansion:
    """Gamma(1/n) X^{⋄n} / E[X]^n, computed as (Gamma(1/n) (X/E[X]))^{⋄n}."""
    return _normalized_power(x, n)[1]


def _l2_distance_to_exponential(x: ChaosExpansion, h: np.ndarray, support_degree: int) -> float:
    """Exact ||X - E(h)||, with E(h) carrying h^alpha / alpha! at every alpha.

    With D = max(support_degree, x.max_degree) the squared distance is
      sum over stored alpha of alpha! (x_alpha - t_alpha)^2
        (t_alpha = h^alpha / alpha!, which is 0 off supp h),
      + per degree k <= D, the target mass at unstored alpha: by the
        multinomial identity sum_{|alpha| = k} alpha! t_alpha^2 = |h|^(2k) / k!,
        this is |h|^(2k) / k! minus the stored part, exactly 0 where every
        alpha of degree k over supp h is stored,
      + the closed-form tail sum_{k > D} |h|^(2k) / k!.
    """
    top = x.max_degree
    degree = max(int(support_degree), top)
    exps = x.exponents
    # t is 0 on rows using a coordinate outside supp h
    t = _power_tables(h, top)[np.arange(x.dim), exps].prod(axis=1)
    both = np.concatenate((x.coeffs - t, t))
    weighted = _factorial_weighted(np.concatenate((exps, exps)), (both, both), 1)
    diff_sq, target_sq = weighted[: x.n_terms], weighted[x.n_terms :]

    masses, tail = _exp_series(float(h @ h), degree)
    on_support = exps @ (h == 0.0) == 0
    stored = np.bincount(x.degrees, weights=target_sq, minlength=top + 1)
    counts = np.bincount(x.degrees[on_support], minlength=top + 1)
    k = np.arange(top + 1)
    # C(k + s - 1, k) multi-indexes of degree k over s = |supp h| coordinates
    # (exact in float64 wherever it is small enough to equal a term count);
    # h = 0 counts as s = 1, which is right at degree 0 and harmless above,
    # where its masses are 0
    s = max(np.count_nonzero(h), 1)
    complete = counts == np.rint(binom(k + s - 1, k))
    # masses becomes the unstored mass; nothing is stored above degree top
    masses[: top + 1] = np.where(complete, 0.0, np.maximum(masses[: top + 1] - stored, 0.0))
    return math.sqrt(float(diff_sq.sum()) + float(masses.sum()) + tail)


def convergence_error(x: ChaosExpansion, n: int) -> float:
    """Exact L2 distance || Gamma(1/n)(X/E[X])^{⋄n} - E(h1) ||.

    h1 is the first-order kernel of X/E[X]. Kept degrees run to
    n * x.max_degree; the exponential mass beyond that enters through the
    closed-form series tail, so there is no truncation error.
    """
    xn, r = _normalized_power(x, n)
    h1 = first_order_kernel(xn)
    return _l2_distance_to_exponential(r, h1, n * x.max_degree)


def _gamma_tail_norm_sq(x: ChaosExpansion, lam: float) -> float:
    """sum over |alpha| >= 1 of lam^(2|alpha|) alpha! c_alpha^2 (no cancellation)."""
    sel = x.degrees >= 1
    if not np.any(sel):
        return 0.0
    terms = _factorial_weighted(x.exponents[sel], (x.coeffs[sel], x.coeffs[sel]), 1)
    scale = np.power(lam * lam, x.degrees[sel].astype(np.float64))
    return float(np.sum(terms * scale))


@dataclass(frozen=True)
class BoundFactors:
    """Factorization of the convergence-error certificate at a given n.

    bound = prefactor * middle * geometric_sum with
    prefactor = exp(|h1|^2),
    middle = || Gamma(sqrt(2)/n) X - E(sqrt(2) h1 / n) ||  (O(1/n^2)),
    gamma_norm = A = || Gamma(sqrt(2(n-1))/n) X ||  (A^n -> exp(|h1|^2)),
    geometric_sum = (A^n - 1)/(A - 1), or its limit n when A = 1.
    """

    prefactor: float
    middle: float
    gamma_norm: float
    gamma_norm_pow: float
    geometric_sum: float
    bound: float


def proof_bound_factors(x: ChaosExpansion, n: int) -> BoundFactors:
    """All factors of the error certificate, each exact in coefficient arithmetic."""
    n = operator.index(n)
    if n < 2:
        raise ValueError("the certificate is defined for n >= 2")
    xn = _normalized(x)
    return _bound_factors(xn, first_order_kernel(xn), n)


def _bound_factors(xn: ChaosExpansion, h1: np.ndarray, n: int) -> BoundFactors:
    hsq = float(h1 @ h1)
    lam2 = math.sqrt(2.0) / n
    middle = _l2_distance_to_exponential(gamma(lam2, xn), lam2 * h1, xn.max_degree)
    lam1 = math.sqrt(2.0 * (n - 1)) / n
    b = _gamma_tail_norm_sq(xn, lam1)
    a = math.sqrt(1.0 + b)
    if b == 0.0:
        a_pow = 1.0
        geom = float(n)
    else:
        log_a_pow = 0.5 * n * math.log1p(b)
        a_pow = math.exp(log_a_pow)
        geom = math.expm1(log_a_pow) * (1.0 + a) / b
    prefactor = math.exp(hsq)
    return BoundFactors(
        prefactor=prefactor,
        middle=middle,
        gamma_norm=a,
        gamma_norm_pow=a_pow,
        geometric_sum=geom,
        bound=prefactor * middle * geom,
    )


def proof_bound(x: ChaosExpansion, n: int) -> float:
    """Computable certificate dominating convergence_error(x, n) for n >= 2."""
    return proof_bound_factors(x, n).bound


def min_chaos_order(x: ChaosExpansion, n: int):
    """Smallest |alpha| with nonzero coefficient in X^{⋄n}; None for the zero expansion.

    For zero-mean X this is at least n times the minimal order of X, so every
    projection of X^{⋄n} below order n vanishes identically.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if x.n_terms == 0:
        return None
    w = wick_power(x, n)
    if w.n_terms == 0:
        return None
    return int(w.degrees[0])


@dataclass(frozen=True)
class ConvergenceEntry:
    n: int
    error: float
    bound: float
    norm_gamma: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-n exact errors, their certificates, and the fitted decay rate."""

    entries: tuple[ConvergenceEntry, ...]
    fitted_rate: float
    input_hash: str


def _fit_rate(ns, errors) -> float:
    pts = [(math.log(n), math.log(e)) for n, e in zip(ns, errors) if e > 0.0]
    if len(pts) < 2:
        return float("nan")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    return float(np.polyfit(xs, ys, 1)[0])


def default_n_schedule(n_max: int = 512) -> list[int]:
    """Powers of two from 2 up to n_max."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    ns = []
    n = 2
    while n <= n_max:
        ns.append(n)
        n *= 2
    return ns


def convergence_report(x: ChaosExpansion, ns=None, n_max: int = 512) -> ConvergenceReport:
    """Errors and certificates over an n schedule (default: powers of two)."""
    if ns is None:
        ns = default_n_schedule(n_max)
    ns = [operator.index(n) for n in ns]
    if any(n < 2 for n in ns):
        raise ValueError("schedule entries must be >= 2")
    entries = []
    if ns:
        xn = _normalized(x)
        h1 = first_order_kernel(xn)
        for n, r in zip(ns, _rescaled_powers(xn, ns)):
            err = _l2_distance_to_exponential(r, h1, n * x.max_degree)
            factors = _bound_factors(xn, h1, n)
            entries.append(ConvergenceEntry(n, err, factors.bound, factors.gamma_norm))
    rate = _fit_rate([e.n for e in entries], [e.error for e in entries])
    return ConvergenceReport(entries=tuple(entries), fitted_rate=rate, input_hash=expansion_hash(x))


def write_convergence_csv(report: ConvergenceReport, path, tool_version: str = "") -> None:
    """CSV export: n,error,bound,norm_gamma,rate_running plus comment metadata."""
    with open(path, "w", newline="\n") as fh:
        if tool_version:
            fh.write(f"# tool: wickchaos {tool_version}\n")
        fh.write(f"# input-hash: {report.input_hash}\n")
        fh.write(f"# fitted-rate: {repr(float(report.fitted_rate))}\n")
        fh.write("n,error,bound,norm_gamma,rate_running\n")
        for i, entry in enumerate(report.entries):
            running = _fit_rate(
                [e.n for e in report.entries[: i + 1]], [e.error for e in report.entries[: i + 1]]
            )
            fh.write(
                f"{entry.n},{float(entry.error)!r},{float(entry.bound)!r},"
                f"{float(entry.norm_gamma)!r},{float(running)!r}\n"
            )


@dataclass(frozen=True)
class DistributionReport:
    """Empirical law of a rescaled Wick power against its limit targets.

    With h1 != 0 the limit is lognormal: ln of it is normal with mean
    -|h1|^2/2 and variance |h1|^2. With h1 = 0 the limit degenerates to the
    constant 1 and the report carries the concentration near 1 instead.
    """

    n: int
    n_samples: int
    seed: int
    target_mu: float
    target_sigma_sq: float
    ks_lognormal: float | None
    ks_log_normal: float | None
    frac_nonpositive: float
    concentration_at_one: float | None
    concentration_eps: float
    batch: object


def limit_distribution_test(
    x: ChaosExpansion,
    n: int,
    n_samples: int,
    seed: int,
    concentration_eps: float = 0.01,
) -> DistributionReport:
    """Sample Gamma(1/n)(X/E[X])^{⋄n} and compare its law with the limit law.

    Non-positive samples are excluded from the KS statistics (the lognormal
    CDF lives on the positive axis) and their fraction is reported, not
    asserted: finite-degree truncation can dip below zero even when the
    untruncated variable is almost surely positive.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if n_samples < 1000:
        warnings.warn("n_samples below the minimum meaningful size 1000", stacklevel=2)
    xn, r = _normalized_power(x, n)
    h1 = first_order_kernel(xn)
    hsq = float(h1 @ h1)
    batch = sample_batch(r, n_samples, seed)
    values = batch.values
    frac_nonpos = float(np.mean(values <= 0.0))
    mu = -0.5 * hsq
    if hsq == 0.0:
        concentration = float(np.mean(np.abs(values - 1.0) <= concentration_eps))
        ks_ln = None
        ks_log = None
    else:
        concentration = None
        pos = values[values > 0.0]
        if pos.shape[0]:
            sigma = math.sqrt(hsq)
            ks_ln = ks_statistic(pos, "lognormal", mu, sigma)
            ks_log = ks_statistic(np.log(pos), "normal", mu, sigma)
        else:
            ks_ln = None
            ks_log = None
    return DistributionReport(
        n=int(n),
        n_samples=n_samples,
        seed=int(seed),
        target_mu=mu,
        target_sigma_sq=hsq,
        ks_lognormal=ks_ln,
        ks_log_normal=ks_log,
        frac_nonpositive=frac_nonpos,
        concentration_at_one=concentration,
        concentration_eps=concentration_eps,
        batch=batch,
    )


def write_distribution_json(report: DistributionReport, path, tool_version: str = "", input_hash: str = "") -> None:
    """JSON export of a distribution report with metadata fields."""
    payload = {
        "n": report.n,
        "N": report.n_samples,
        "seed": report.seed,
        "ks_lognormal": report.ks_lognormal,
        "ks_log_normal": report.ks_log_normal,
        "frac_nonpositive": report.frac_nonpositive,
        "target_mu": report.target_mu,
        "target_sigma_sq": report.target_sigma_sq,
        "ks_critical_5pct": ks_critical_value(report.n_samples),
        "concentration_at_one": report.concentration_at_one,
        "concentration_eps": report.concentration_eps,
        "generator": report.batch.generator,
        "tool": f"wickchaos {tool_version}" if tool_version else "wickchaos",
        "input-hash": input_hash or report.batch.expansion_hash,
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
