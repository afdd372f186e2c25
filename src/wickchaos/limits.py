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
import warnings
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import ChaosExpansion, _check_int, _exp_series, _factorial_weighted, _power_tables, expansion_hash
from .core import _rewrite, first_order_kernel, gamma
from .algebra import _dyadic_powers
from .sampling import _ks_sorted, _slices, ks_critical_value, sample_batch

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
    "default_n_schedule",
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


def _normalized(x: ChaosExpansion) -> tuple[ChaosExpansion, np.ndarray]:
    """X/E[X] and its first-order kernel h1."""
    mean = x.mean()
    if abs(mean) < MEAN_EPS:
        raise ZeroMeanError(
            "expansion has (numerically) zero mean; rescaled Wick powers of "
            "zero-mean inputs converge to zero only - see min_chaos_order"
        )
    xn = x / mean
    return xn, first_order_kernel(xn)


def _normalized_power(x: ChaosExpansion, n) -> tuple[np.ndarray, ChaosExpansion]:
    """h1 of X/E[X] and Gamma(1/n) (X/E[X])^{⋄n}, for n >= 1."""
    xn, h1 = _normalized(x)
    return h1, _dyadic_powers(xn, [n], rescale=True)[0]


def rescaled_wick_power(x: ChaosExpansion, n: int) -> ChaosExpansion:
    """Gamma(1/n) X^{⋄n} / E[X]^n, computed as (Gamma(1/n) (X/E[X]))^{⋄n}."""
    return _normalized_power(x, n)[1]


def _multiset_counts(k, s_minus_1):
    """C(k + s - 1, k), the number of multi-indexes of degree k over s coordinates, per entry.

    The running product m * (k + i) / i over i = 1..s-1 is an integer at every
    step, so it is exact while C * (s - 1) < 2**53, far above any count of
    stored terms it is compared with.
    """
    m = np.ones(k.shape)
    with np.errstate(over="ignore"):  # an inf count equals no term count
        for i in range(1, int(s_minus_1.max(initial=0)) + 1):
            m = np.where(i <= s_minus_1, m * (k + i) / i, m)
    return m


def _l2_distance_to_exponential(parts) -> list[float]:
    """Exact ||X - E(h)|| for each (X, h) in parts, all X of one dim.

    E(h) carries h^alpha / alpha! at every alpha. With D = X.max_degree the
    squared distance is
      sum over stored alpha of alpha! (x_alpha - t_alpha)^2
        (t_alpha = h^alpha / alpha!, which is 0 off supp h),
      + per degree k <= D, the target mass at unstored alpha: by the
        multinomial identity sum_{|alpha| = k} alpha! t_alpha^2 = |h|^(2k) / k!,
        this is |h|^(2k) / k! minus the stored part, exactly 0 where every
        alpha of degree k over supp h is stored,
      + the closed-form tail sum_{k > D} |h|^(2k) / k!.
    The parts' rows are concatenated, so the number of numpy calls does not grow
    with len(parts) except for each part's two slice sums; every value is the
    one a single-part call gives, bit for bit.
    """
    xs = [x for x, _ in parts]
    dim = xs[0].dim
    h = np.array([hv for _, hv in parts], dtype=np.float64)
    part = np.arange(len(parts)).repeat([x.n_terms for x in xs])
    exps = np.concatenate([x.exponents for x in xs])
    # the table entries are NaN at h_i = 0 for e >= 1, which marks the rows
    # using a coordinate outside supp h, where t is 0
    marked = np.where(h == 0.0, np.nan, h).reshape(-1)
    tables = _power_tables(marked, max(x.max_degree for x in xs)).reshape(len(parts), dim, -1)
    t = tables[part[:, None], np.arange(dim), exps].prod(axis=1)
    on_support = ~np.isnan(t)
    t[~on_support] = 0.0
    both = np.concatenate((np.concatenate([x.coeffs for x in xs]) - t, t))
    diff_sq, target_sq = _factorial_weighted(np.concatenate((exps, exps)), (both, both), 1).reshape(2, -1)

    # every part's series terms, degree k of part p at masses[starts[p] + k]
    series = _exp_series([float(hv @ hv) for _, hv in parts], [x.max_degree for x in xs])
    masses = np.concatenate([terms for terms, _ in series])
    lengths = [terms.shape[0] for terms, _ in series]
    starts = np.array(list(accumulate(lengths[:-1], initial=0)))
    slots = starts[part] + np.concatenate([x.degrees for x in xs])
    stored = np.bincount(slots, weights=target_sq, minlength=masses.shape[0])
    counts = np.bincount(slots[on_support], minlength=masses.shape[0])
    # h = 0 counts as s = 1, which is right at degree 0 and harmless above,
    # where its masses are 0
    k = np.arange(masses.shape[0]) - starts.repeat(lengths)
    s_minus_1 = np.array([max(np.count_nonzero(hv), 1) - 1 for _, hv in parts]).repeat(lengths)
    complete = counts == _multiset_counts(k, s_minus_1)
    # masses becomes the unstored mass
    masses = np.where(complete, 0.0, np.maximum(masses - stored, 0.0))
    # one pairwise .sum() per slice, as for a single part (np.add.reduceat
    # sums sequentially and changes bits)
    out = []
    r0 = m0 = 0
    for x, (_, tail), length in zip(xs, series, lengths):
        r1, m1 = r0 + x.n_terms, m0 + length
        out.append(math.sqrt(float(diff_sq[r0:r1].sum()) + float(masses[m0:m1].sum()) + tail))
        r0, m0 = r1, m1
    return out


def convergence_error(x: ChaosExpansion, n: int) -> float:
    """Exact L2 distance || Gamma(1/n)(X/E[X])^{⋄n} - E(h1) ||.

    h1 is the first-order kernel of X/E[X]. The sum runs over the degrees the
    power stores; the exponential mass beyond them enters through the
    closed-form series tail, so there is no truncation error.
    """
    h1, r = _normalized_power(x, n)
    return _l2_distance_to_exponential([(r, h1)])[0]


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
    n = _check_int(n, "n")
    if n < 2:
        raise ValueError("the certificate is defined for n >= 2")
    xn, h1 = _normalized(x)
    return _bound_factors(xn, h1, [n], _l2_distance_to_exponential(_middle_parts(xn, h1, [n])))[0]


def _exp_or_inf(f, value: float) -> float:
    try:
        return f(value)
    except OverflowError:
        return math.inf


def _middle_parts(xn: ChaosExpansion, h1: np.ndarray, ns) -> list:
    """Distance parts of the certificate's middles: Gamma(lam) X against E(lam h1), lam = sqrt(2)/n, per n in ns."""
    lams = [math.sqrt(2.0) / n for n in ns]
    return [(gamma(lam, xn), lam * h1) for lam in lams]


def _bound_factors(xn: ChaosExpansion, h1: np.ndarray, ns, middles) -> list[BoundFactors]:
    """The certificate's factors at every n in ns (all >= 2), given the middle factors' distances.

    Raises ValueError naming the first factor that is not finite in float64.
    """
    hsq = float(h1 @ h1)
    prefactor = _exp_or_inf(math.exp, hsq)
    # b(lam) = sum over |alpha| >= 1 of lam^(2|alpha|) alpha! c_alpha^2 (no cancellation)
    sel = xn.degrees >= 1
    weights = _factorial_weighted(xn.exponents[sel], (xn.coeffs[sel], xn.coeffs[sel]), 1)
    degrees = xn.degrees[sel].astype(np.float64)
    lam1s = np.array([math.sqrt(2.0 * (n - 1)) / n for n in ns])
    # each row's pairwise sum is the one np.sum takes over that n alone, bit for bit
    bs = (weights * np.power((lam1s * lam1s)[:, None], degrees)).sum(axis=1).tolist()
    out = []
    for n, middle, b in zip(ns, middles, bs):
        a = math.sqrt(1.0 + b)
        if b == 0.0:
            a_pow = 1.0
            geom = float(n)
        else:
            log_a_pow = 0.5 * n * math.log1p(b)
            a_pow = _exp_or_inf(math.exp, log_a_pow)
            geom = _exp_or_inf(math.expm1, log_a_pow) * (1.0 + a) / b
        factors = BoundFactors(
            prefactor=prefactor,
            middle=middle,
            gamma_norm=a,
            gamma_norm_pow=a_pow,
            geometric_sum=geom,
            bound=prefactor * middle * geom,
        )
        for name, value in vars(factors).items():
            if not math.isfinite(value):
                raise ValueError(f"certificate {name} at n = {n} is not finite in float64")
        out.append(factors)
    return out


def proof_bound(x: ChaosExpansion, n: int) -> float:
    """Computable certificate dominating convergence_error(x, n) for n >= 2."""
    return proof_bound_factors(x, n).bound


def min_chaos_order(x: ChaosExpansion, n: int):
    """Smallest |alpha| with nonzero coefficient in X^{⋄n}; None for the zero expansion.

    Under the S-transform ⋄ multiplies polynomials, which have no zero divisors, so this is
    n times the minimal order of X: at least n for zero-mean X, whose low projections vanish.
    """
    n = _check_int(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * int(x.degrees[0]) if x.n_terms else None


@dataclass(frozen=True)
class ConvergenceEntry:
    n: int
    error: float
    bound: float
    norm_gamma: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-n exact errors and certificates; running_rates[i] is the decay rate fitted to entries[: i + 1]."""

    entries: tuple[ConvergenceEntry, ...]
    running_rates: tuple[float, ...]
    input_hash: str

    @property
    def fitted_rate(self) -> float:
        return self.running_rates[-1] if self.running_rates else math.nan


def _running_rates(ns, errors) -> tuple[float, ...]:
    """Least-squares slope of log error on log n over each row prefix, without error <= 0; nan below 2 rows."""
    kept = np.greater(errors, 0.0)
    mask = np.tril(np.ones((len(ns), len(ns)))) * kept  # row i: the kept rows of prefix i
    logs = np.log([ns, np.where(kept, errors, 1.0)])
    count = mask.sum(axis=1)
    # d[v, i, j]: row j's log v centred on prefix i's mean of v, 0 outside prefix i
    d = mask * (logs[:, None, :] - (logs @ mask.T / np.maximum(count, 1.0))[:, :, None])
    sxx, sxy = (d[0] * d).sum(axis=2)
    return tuple(np.divide(sxy, sxx, out=np.full(len(ns), np.nan), where=count >= 2).tolist())


def default_n_schedule(n_max: int = 512) -> list[int]:
    """Powers of two from 2 up to n_max."""
    n_max = _check_int(n_max, "n_max")
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    return [1 << k for k in range(1, n_max.bit_length())]


def convergence_report(x: ChaosExpansion, ns=None, n_max: int = 512) -> ConvergenceReport:
    """Errors and certificates over an n schedule (default: powers of two)."""
    if ns is None:
        ns = default_n_schedule(n_max)
    ns = [_check_int(n, "n") for n in ns]
    if any(n < 2 for n in ns):
        raise ValueError("schedule entries must be >= 2")
    if len(set(ns)) < len(ns):
        raise ValueError("schedule entries must be distinct")
    entries = []
    if ns:
        xn, h1 = _normalized(x)
        # the errors and the certificate's middles in one distance pass
        distances = _l2_distance_to_exponential(
            [(r, h1) for r in _dyadic_powers(xn, ns, rescale=True)]
            + _middle_parts(xn, h1, ns)
        )
        for n, err, factors in zip(ns, distances, _bound_factors(xn, h1, ns, distances[len(ns) :])):
            entries.append(ConvergenceEntry(n, err, factors.bound, factors.gamma_norm))
    return ConvergenceReport(tuple(entries), _running_rates(ns, [e.error for e in entries]), expansion_hash(x))


def write_convergence_csv(report: ConvergenceReport, path, tool_version: str = "") -> None:
    """CSV export: n,error,bound,norm_gamma,rate_running plus comment metadata."""
    with _rewrite(path) as fh:
        if tool_version:
            fh.write(f"# tool: wickchaos {tool_version}\n")
        fh.write(f"# input-hash: {report.input_hash}\n")
        fh.write(f"# fitted-rate: {repr(float(report.fitted_rate))}\n")
        fh.write("n,error,bound,norm_gamma,rate_running\n")
        for entry, running in zip(report.entries, report.running_rates):
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
    input_hash: str


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
    n_samples = _check_int(n_samples, "n_samples")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if not 0 < concentration_eps < math.inf:
        raise ValueError(f"concentration_eps must be positive and finite, got {concentration_eps!r}")
    if n_samples < 1000:
        warnings.warn("n_samples below the minimum meaningful size 1000", stacklevel=2)
    h1, r = _normalized_power(x, n)
    hsq = float(h1 @ h1)
    batch = sample_batch(r, n_samples, seed)
    # one sorted copy: the values are finite, so the first k are the
    # non-positive ones and the rest is the positive sample the KS needs
    srt = np.sort(batch.values)
    k = int(np.searchsorted(srt, 0.0, "right"))
    mu = -0.5 * hsq
    concentration = None
    if hsq == 0.0:
        hits = sum(np.count_nonzero(np.abs(s - 1.0) <= concentration_eps) for _, s in _slices(srt))
        concentration = hits / n_samples
    # log is monotone, so the lognormal statistic of the positive tail is the
    # normal one of its log bit for bit: one pass gives both fields
    ks_ln = _ks_sorted(srt[k:], "lognormal", mu, math.sqrt(hsq)) if hsq != 0.0 and k < n_samples else None
    return DistributionReport(
        n=int(n),
        n_samples=n_samples,
        seed=int(seed),
        target_mu=mu,
        target_sigma_sq=hsq,
        ks_lognormal=ks_ln,
        ks_log_normal=ks_ln,
        frac_nonpositive=k / n_samples,
        concentration_at_one=concentration,
        concentration_eps=concentration_eps,
        batch=batch,
        input_hash=expansion_hash(x),
    )


def write_distribution_json(report: DistributionReport, path, tool_version: str = "") -> None:
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
        "input-hash": report.input_hash,
    }
    with _rewrite(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
