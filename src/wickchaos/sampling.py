"""Monte Carlo bridge between coefficient algebra and distributions.

Hermite evaluation of expansions at Gaussian points, seeded sampling, the
Ornstein-Uhlenbeck/Mehler semigroup average, and one-sample
Kolmogorov-Smirnov statistics.

Randomness: numpy's PCG64 generator seeded explicitly, normal draws via
numpy's ziggurat transform. The draw set is a deterministic function of the
seed; the generator name is recorded in all sample metadata.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import ChaosExpansion, _factorial_weighted, expansion_hash

__all__ = [
    "HERMITE_DEGREE_CAP",
    "NORMALIZED_RECURRENCE_DEGREE",
    "GENERATOR_NAME",
    "SampleBatch",
    "OuEstimate",
    "hermite_eval",
    "evaluate",
    "sample_batch",
    "ou_apply_mc",
    "ks_statistic",
    "ks_critical_value",
    "write_samples_csv",
]

HERMITE_DEGREE_CAP = 4096

# Above this degree the plain recurrence He_{k+1} = x He_k - k He_{k-1} is
# swapped for the normalized one (He_k/sqrt(k!)) to dodge overflow near k~150.
NORMALIZED_RECURRENCE_DEGREE = 30

GENERATOR_NAME = "numpy-pcg64-ziggurat"

# Points per slice of the Gaussian draws and of the KS passes, so that no
# temporary grows with the sample size.
_SLICE = 1 << 16

# Asymptotic one-sample KS critical point at the 5% level: 1.358 / sqrt(N).
KS_COEFF_5PCT = 1.358

# Cephes ndtr/erf/erfc (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), the algorithm of scipy.special.ndtr. Coefficients in Horner
# order, as the shortest reprs of their float64 values (Q, S and U are monic).
_SQRT1_2 = 0.7071067811865476
_MAXLOG = 709.782712893384  # log(DBL_MAX): Cephes' erfc is 0 where z^2 exceeds it
_P = (2.461969814735305e-10, 0.5641895648310689, 7.463210564422699, 48.63719709856814, 196.5208329560771,
      526.4451949954773, 934.5285271719576, 1027.5518868951572, 557.5353353693994)
_Q = (1.0, 13.228195115474499, 86.70721408859897, 354.9377788878199, 975.7085017432055, 1823.9091668790973,
      2246.3376081871097, 1656.6630919416134, 557.5353408177277)
_R = (0.5641895835477551, 1.275366707599781, 5.019050422511805, 6.160210979930536, 7.4097426995044895,
      2.9788666537210022)
_S = (1.0, 2.2605286322011726, 9.396035249380015, 12.048953980809666, 17.08144507475659, 9.608968090632859,
      3.369076451000815)
_T = (9.604973739870516, 90.02601972038427, 2232.005345946843, 7003.325141128051, 55592.30130103949)
_U = (1.0, 33.56171416475031, 521.3579497801527, 4594.323829709801, 22629.000061389095, 49267.39426086359)


def hermite_eval(k: int, x: float) -> float:
    """Probabilists' Hermite polynomial He_k(x), as the one-term table He_k at one point."""
    k = int(k)
    if k < 0:
        raise ValueError("degree must be non-negative")
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("non-finite evaluation point")
    return float(_evaluate_points(np.array([[k]]), np.ones(1), k, np.array([[x]]))[0])


def _evaluate_points(exponents, coeffs, max_degree, pts):
    """The term table at each row of pts; raises ValueError when a value is not finite."""
    if max_degree > HERMITE_DEGREE_CAP:
        raise ValueError(f"expansion degree {max_degree} exceeds cap {HERMITE_DEGREE_CAP}")
    normalized = max_degree > NORMALIZED_RECURRENCE_DEGREE
    # the normalized recurrence takes coefficients against the orthonormal
    # basis, c_alpha * sqrt(alpha!)
    coefs = _factorial_weighted(exponents, (coeffs,), 0.5) if normalized else coeffs
    values = _kernels.eval_batch(exponents, coefs, pts, normalized)
    if not np.isfinite(values).all():
        raise ValueError(f"a value of a degree-{max_degree} expansion is not finite in float64")
    return values


def _check_point(x: ChaosExpansion, xi) -> np.ndarray:
    """xi as a finite float64 vector of length x.dim."""
    xi = np.asarray(xi, dtype=np.float64).reshape(-1)
    if xi.shape[0] != x.dim:
        raise ValueError(f"dimension mismatch: point has length {xi.shape[0]}, dim {x.dim}")
    if not np.all(np.isfinite(xi)):
        raise ValueError("non-finite evaluation point")
    return xi


def evaluate(x: ChaosExpansion, xi) -> float:
    """Realize X at a point: sum_alpha c_alpha prod_i He_{alpha_i}(xi_i).

    Terms are summed ascending in (degree, lex) order. Raises ValueError when
    the value is not finite in float64.
    """
    xi = _check_point(x, xi)
    return float(_evaluate_points(x.exponents, x.coeffs, x.max_degree, xi.reshape(1, -1))[0])


@dataclass(frozen=True)
class SampleBatch:
    """Evaluations of an expansion at seeded i.i.d. standard Gaussian points."""

    values: np.ndarray
    seed: int
    size: int
    expansion_hash: str
    generator: str = GENERATOR_NAME


def _slices(a):
    """(lo, a[lo : lo + _SLICE]) for each slice of the array a."""
    return ((lo, a[lo : lo + _SLICE]) for lo in range(0, len(a), _SLICE))


def _evaluate_draws(x: ChaosExpansion, seed, m: int, point=lambda z: z) -> np.ndarray:
    """X at point(z) for the rows z of rng.standard_normal((m, dim)), drawn _SLICE rows at a time.

    Consecutive draws continue one ziggurat stream, so the slices are the
    rows of the single (m, dim) draw bit for bit.
    """
    rng = np.random.default_rng(seed)
    values = np.empty(m)
    for lo in range(0, m, _SLICE):
        z = rng.standard_normal((min(_SLICE, m - lo), x.dim))
        values[lo : lo + len(z)] = _evaluate_points(x.exponents, x.coeffs, x.max_degree, point(z))
    return values


def sample_batch(x: ChaosExpansion, n_samples: int, seed: int) -> SampleBatch:
    """Draw n_samples Gaussian d-vectors from the seeded generator and evaluate X."""
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    values = _evaluate_draws(x, seed, n_samples)
    values.setflags(write=False)
    return SampleBatch(
        values=values, seed=int(seed), size=n_samples, expansion_hash=expansion_hash(x)
    )


@dataclass(frozen=True)
class OuEstimate:
    """Monte Carlo estimate of an Ornstein-Uhlenbeck semigroup value."""

    value: float
    std_error: float
    n_draws: int


def ou_apply_mc(x: ChaosExpansion, t: float, xi, n_draws: int, seed: int) -> OuEstimate:
    """Mehler average (P_t X)(xi) = E_zeta[ X(e^-t xi + sqrt(1-e^-2t) zeta) ].

    Converges to evaluate(gamma(e^-t, x), xi): second quantization at
    lambda in (0, 1] is the OU semigroup at time -log(lambda).

    At t = 0 the semigroup is the identity, so the result is exact: value is
    evaluate(x, xi), std_error is 0.0, and no Gaussian draws are made
    (n_draws is still validated and reported).
    """
    t = float(t)
    if not (t >= 0.0):
        raise ValueError("t must be non-negative")
    n_draws = int(n_draws)
    if n_draws < 1:
        raise ValueError("n_draws must be positive")
    xi = _check_point(x, xi)
    if t == 0.0:
        return OuEstimate(value=evaluate(x, xi), std_error=0.0, n_draws=n_draws)
    decay = math.exp(-t)
    spread = math.sqrt(-math.expm1(-2.0 * t))  # sqrt(1 - e^-2t)
    vals = _evaluate_draws(x, seed, n_draws, lambda zeta: decay * xi + spread * zeta)
    value = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(n_draws)) if n_draws > 1 else 0.0
    return OuEstimate(value=value, std_error=se, n_draws=n_draws)


def ks_statistic(samples, target: str, mu: float, sigma: float) -> float:
    """One-sample Kolmogorov-Smirnov sup-distance against a normal or lognormal CDF; a NaN sample raises."""
    values = samples.values if isinstance(samples, SampleBatch) else np.asarray(samples, dtype=np.float64)
    n = values.shape[0]
    if n == 0:
        raise ValueError("empty sample batch")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if target not in ("normal", "lognormal"):
        raise ValueError(f"target must be 'normal' or 'lognormal', got {target!r}")
    x = np.sort(values)
    if np.isnan(x[-1]):  # NaN sorts last
        raise ValueError("NaN sample")
    return _ks_sorted(x, target, mu, sigma)


def _ks_sorted(x, target, mu, sigma):
    """KS statistic of an ascending NaN-free sample, _SLICE points at a time (max is exact)."""
    n = x.shape[0]
    if target == "lognormal" and x[0] <= 0.0:
        raise ValueError("non-positive sample under lognormal target")
    d = 0.0  # D+ >= 1 - cdf(x[-1]) >= 0
    for lo, s in _slices(x):
        s = np.log(s) if target == "lognormal" else s
        with np.errstate(over="ignore"):  # a |z| past float64 is inf, where the CDF is exactly 0 or 1
            cdf = _ndtr((s - mu) / sigma)
        i = np.arange(lo + 1, lo + s.shape[0] + 1)
        d = max(d, np.max(i / n - cdf), np.max(cdf - (i - 1) / n))  # D+ and D-
    return float(d)


def _polevl(x, coefs):
    """Cephes polevl, Horner's rule from the highest power; a leading 1.0 gives p1evl, as 1.0 * x is x."""
    y = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        y *= x
        y += c
    return y


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF, bit for bit scipy.special.ndtr: Cephes' float operations in Cephes' order.

    With x = a/sqrt(2): 0.5 + 0.5 erf(x) for |x| < 1/sqrt(2), else 0.5 erfc(|x|), reflected for
    x > 0; erfc(z) is 1 - erf(z) below 1, e^(-z^2) P(z)/Q(z) below 8 and e^(-z^2) R(z)/S(z) above.
    """
    x = a * _SQRT1_2
    z = np.abs(x)
    y = np.empty_like(x)
    inner = z < 1.0
    t = x[inner]
    erf = t * _polevl(t * t, _T) / _polevl(t * t, _U)
    y[inner] = np.where(z[inner] < _SQRT1_2, 0.5 + 0.5 * erf, 0.5 * (1.0 - np.abs(erf)))
    t = np.minimum(z[~inner], 27.0)  # 27^2 > MAXLOG: past the cut, where erfc is 0, the polynomials stay finite
    # libm's exp, which Cephes calls: np.exp differs from it in the last bit on ~1% of points
    e = np.fromiter(map(math.exp, (-t * t).tolist()), np.float64, t.size)
    e[t * t > _MAXLOG] = 0.0
    near = t < 8.0
    p = np.where(near, _polevl(t, _P), _polevl(t, _R))
    y[~inner] = 0.5 * (e * p / np.where(near, _polevl(t, _Q), _polevl(t, _S)))
    return np.subtract(1.0, y, out=y, where=(z >= _SQRT1_2) & (x > 0.0))


def ks_critical_value(n_samples: int) -> float:
    """Asymptotic 5%-level KS critical value 1.358 / sqrt(N)."""
    return KS_COEFF_5PCT / math.sqrt(n_samples)


def write_samples_csv(batch: SampleBatch, path, tool_version: str = "") -> None:
    """Write samples as 'index,value' CSV plus a JSON metadata sidecar."""
    with open(path, "w", newline="\n") as fh:
        if tool_version:
            fh.write(f"# tool: wickchaos {tool_version}\n")
        fh.write(f"# seed: {batch.seed}\n")
        fh.write(f"# expansion-hash: {batch.expansion_hash}\n")
        fh.write("index,value\n")
        # in slices, so a large batch never exists as python floats all at once
        for lo in range(0, len(batch.values), 8192):
            fh.write("".join([f"{i},{v!r}\n" for i, v in enumerate(batch.values[lo : lo + 8192].tolist(), lo)]))
    meta = {
        "seed": batch.seed,
        "N": batch.size,
        "generator": batch.generator,
        "expansion-hash": batch.expansion_hash,
    }
    with open(f"{path}.meta.json", "w", newline="\n") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
