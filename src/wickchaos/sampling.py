"""Monte Carlo bridge between coefficient algebra and distributions.

Hermite evaluation of expansions at Gaussian points, seeded sampling, the
Ornstein-Uhlenbeck/Mehler semigroup average, and one-sample
Kolmogorov-Smirnov statistics.

Randomness: numpy's PCG64 generator seeded explicitly, normal draws via
numpy's ziggurat transform. The draw set is a deterministic function of the
seed; the generator name is recorded in all sample metadata.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import ChaosExpansion, _check_degree, _check_int, _factorial_weighted, _rewrite, expansion_hash

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
    k = _check_degree(k, "degree")
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
    n_samples = _check_int(n_samples, "n_samples")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    seed = _check_int(seed, "seed")
    values = _evaluate_draws(x, seed, n_samples)
    values.setflags(write=False)
    return SampleBatch(
        values=values, seed=seed, size=n_samples, expansion_hash=expansion_hash(x)
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
    n_draws = _check_int(n_draws, "n_draws")
    if n_draws < 1:
        raise ValueError("n_draws must be positive")
    seed = _check_int(seed, "seed")
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
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu!r}")
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma!r}")
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
        with np.errstate(over="ignore"):  # a |z| past float64 is inf, where the CDF is exactly 0 or 1
            z = np.log(s) if target == "lognormal" else s.copy()
            z -= mu
            z /= sigma
            cdf = _ndtr(z)
        i = np.arange(lo, lo + s.shape[0] + 1, dtype=np.float64)
        i /= n  # (i - 1)/n, then i/n for i = lo + 1, ...
        d = max(d, np.max(np.subtract(i[1:], cdf, out=z)), np.max(np.subtract(cdf, i[:-1], out=cdf)))  # D+ and D-
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
    Temporaries are overwritten in place where that keeps the bits (products and sums commute exactly).
    """
    x = a * _SQRT1_2
    y = np.abs(x)
    inner, reflect = y < 1.0, x >= _SQRT1_2  # reflect: |x| >= 1/sqrt(2) and x > 0
    # 27^2 > MAXLOG: past the cut, where erfc is 0, the polynomials stay finite
    t, tail = x[inner], np.minimum(y[~inner], 27.0)
    del x
    tt = t * t
    erf = _polevl(tt, _T)
    erf *= t
    erf /= _polevl(tt, _U)
    del tt
    w = np.abs(erf)  # 0.5 (1 - |erf|), or 0.5 + 0.5 erf below 1/sqrt(2)
    np.multiply(np.subtract(1.0, w, out=w), 0.5, out=w)
    np.copyto(w, np.add(np.multiply(erf, 0.5, out=erf), 0.5, out=erf), where=np.abs(t) < _SQRT1_2)
    y[inner] = w
    tt = tail * tail
    # libm's exp, which Cephes calls: np.exp differs from it in the last bit on ~1% of points
    e = np.fromiter(map(math.exp, memoryview(np.negative(tt, out=tt))), np.float64, tail.size)
    e[tt < -_MAXLOG] = 0.0
    near = tail < 8.0
    e *= np.where(near, _polevl(tail, _P), _polevl(tail, _R))
    e /= np.where(near, _polevl(tail, _Q), _polevl(tail, _S))
    y[~inner] = np.multiply(e, 0.5, out=e)
    return np.subtract(1.0, y, out=y, where=reflect)


def ks_critical_value(n_samples: int) -> float:
    """Asymptotic 5%-level KS critical value 1.358 / sqrt(N)."""
    if _check_int(n_samples, "n_samples") < 1:
        raise ValueError("n_samples must be positive")
    return KS_COEFF_5PCT / math.sqrt(n_samples)


# The samples CSV holds Python's repr of each value, formatted in numpy: the shortest decimal that
# rounds back to the value, the closest if several (J. Jeon, "Dragonbox: A New Floating-Point
# Binary-to-Decimal Conversion Algorithm", 2020). Lines per slice: more run faster, but the temporaries
# (at most about 86 B a line, in _shortest) would outgrow those of one repr per value; at most 10^4, for
# the table of the index's last four digits.
_CSV_LINES = 1 << 13
_POW10 = np.array([10**i for i in range(19)], dtype=np.uint64)
_U64 = np.uint64


@functools.cache  # built on first use, not at import
def _csv_tables():
    """Per decimal exponent k in [-292, 326]: the high and low 64 bits of 10^k 2^(127 - floor(log2 10^k)),
    rounded up. Per decimal point in [-330, 330): 'e', the sign and the three digits (the first NUL below 100)
    of the exponent repr writes, all NUL where it writes the point in fixed notation. Per i < 2 10^4: the four
    characters of i mod 10^4, down a column."""
    cache = []
    for k in range(-292, 327):
        p = 10 ** abs(k)
        n = p.bit_length()
        c = (p << 128 - n if n <= 128 else -(-p >> n - 128)) if k >= 0 else -((-1 << 127 + n) // p)
        cache.append((c >> 64, c & (2**64 - 1)))
    point = np.arange(-330, 330)
    e = np.abs(point - 1)
    exps = np.array([e * 0 + 101, np.where(point < 1, 45, 43), (e > 99) * (e // 100 + 48), e // 10 % 10 + 48,
                     e % 10 + 48])
    exps[:, (point > -4) & (point < 17)] = 0
    digits = np.arange(48, 58, dtype=np.uint8)
    quads = np.array([np.tile(np.repeat(digits, 10 ** (3 - j)), 2 * 10**j) for j in range(4)])
    return np.array(cache, np.uint64).T.copy(), exps.astype(np.uint8), quads


def _mulhi(a, b):
    """The high 64 bits of a b for uint64 arrays, from 32-bit halves (numpy has no uint128); b is overwritten."""
    a0, a1, b1 = a & _U64(2**32 - 1), a >> _U64(32), b >> _U64(32)
    b &= _U64(2**32 - 1)
    m = a0 * b
    m >>= _U64(32)
    b *= a1
    m += b
    np.multiply(a0, b1, out=b)
    b += m & _U64(2**32 - 1)
    b >>= _U64(32)
    m >>= _U64(32)
    b1 *= a1
    b1 += m
    b1 += b
    return b1


def _fields(bits):
    """(f, e, fl) for the float64s with these bits: the value is f 2^e with f < 2^53, and fl = floor(log10 2^e)."""
    e = ((bits >> _U64(52)) & _U64(2047)).astype(np.int32)
    f = (e > 0).astype(np.uint64)
    f <<= _U64(52)
    f |= bits & _U64(2**52 - 1)
    np.maximum(e, 1, out=e)
    e -= 1075
    fl = e * 315653
    fl >>= 20
    return f, e, fl


def _cached(fl, e):
    """The cached 10^k for k = -fl, as its high and low 64 bits, and beta = e + floor(log2 10^k) (uint64)."""
    hi, lo = np.take(_csv_tables()[0], 292 - fl, axis=1)
    return hi, lo, (e + ((-fl * 1741647) >> 19)).astype(np.uint64)


def _parity(two_f, hi, lo, b):
    """Whether the integer part of two_f 2^(e-1) 10^k is odd, and whether it has no fraction (to the 64 bits
    Dragonbox checks): the tests of an end of the rounding interval (two_f = 2 f - 1) and of the value (2 f)."""
    high = two_f * hi + _mulhi(two_f, np.broadcast_to(lo, two_f.shape).copy())
    return (high >> _U64(64) - b) & _U64(1) != 0, (high << b | two_f * lo >> _U64(64) - b) == 0


def _one_more(s, r, delta):
    """With one digit more: the value is r - delta / 2 units past 1000 s, so 10 s + round((r - delta / 2) / 100);
    also dist = r - delta / 2 + 50, and whether it is a whole number of hundreds (a tie the parity settles)."""
    dist = r - (delta >> _U64(1))
    dist += _U64(50)
    q = dist // _U64(100)
    d = s * _U64(10)
    d += q
    q *= _U64(100)
    return d, dist, q == dist


def _shortest(bits):
    """(d, k): d 10^k is the shortest decimal that rounds to the float64 with these bits, the closest if
    several (even on a tie); garbage for 0, inf and nan. By Dragonbox: with 2^e 10^k in [100, 1000), z is the
    upper end of the value's rounding interval times 10^k, from one 192-bit product, and delta the
    interval's width. z // 1000 is the answer if it is in the interval, else the nearest with one digit
    more is; the few on an end of the interval or on a tie take two more products."""
    f, e, fl = _fields(bits)
    shorter = (f == _U64(2**52)) & (e > -1074)  # a power of two past the subnormals: its lower gap is half
    fl -= 2  # k = -fl
    hi, lo, b = _cached(fl, e)
    del e
    f <<= _U64(1)
    f |= _U64(1)
    f <<= b  # z = floor(f hi:lo / 2^128) is the upper end (2 f + 1) 2^(e-1) times 10^k
    delta = hi >> _U64(63) - b  # 2^e 10^k
    del b
    z = _mulhi(f, hi.copy())
    hi *= f
    lo = _mulhi(f, lo)
    del f
    hi += lo
    z += hi < lo  # z, with its 64 fraction bits in hi
    del lo
    s = z // _U64(1000)
    r = z
    r -= s * _U64(1000)
    big = r < delta  # s 10^(k+3) is in the interval
    d, dist, tie = _one_more(s, r, delta)
    np.copyto(d, s, where=big)
    fix = (r == delta) | (r == 0) | (tie & ~big)
    if fix.any():  # both ends are in the interval if f is even, both out if it is odd
        i = np.flatnonzero(fix)
        si, ri, di, odd = s[i], r[i], delta[i], (bits[i] & _U64(1)) != 0
        fi, ei, _ = _fields(bits[i])
        (lpar, ypar), (lwhole, ywhole) = _parity(np.stack([fi + fi - _U64(1), fi + fi]), *_cached(fl[i], ei))
        out = (ri == 0) & (hi[i] == 0) & odd  # z is the right end, and it is out
        si -= out
        ri += out * _U64(1000)
        big[i] = np.where(ri == di, lpar | (lwhole & ~odd), ~out & (ri < di))
        di, dist, tie = _one_more(si, ri, di)
        di -= tie & ((ypar != ((dist ^ _U64(50)) & _U64(1) != 0)) | ((di & _U64(1) != 0) & ywhole))
        d[i] = np.where(big[i], si, di)
    fl += 2
    fl += big
    if shorter.any():
        i = np.flatnonzero(shorter)
        _, ei, _ = _fields(bits[i])
        fs = (ei * 631305 - 261663) >> 21  # floor(log10 (3/4) 2^e)
        c, _, b = _cached(fs, ei)
        left = (c - (c >> _U64(54))) >> _U64(11) - b
        left += (ei < 2) | (ei > 3)  # the left end is not an integer
        right = ((c + (c >> _U64(53))) >> _U64(11) - b) // _U64(10)
        near = ((c >> _U64(10) - b) + _U64(1)) >> _U64(1)
        tie = (near & _U64(1) != 0) & (ei == -77)
        near += (near < left) & ~tie
        near -= tie
        fits = right * _U64(10) >= left
        d[i] = np.where(fits, right, near)
        fl[i] = fs + fits
    return d, fl


def _digit_chars(f, out):
    """The 17 decimal digits of f < 10^17 (uint64) as characters into the rows of out, the first first: the
    first, then two halves of eight in the bytes of a uint64 (SWAR), split into two 4-digit lanes, then into
    2- and 1-digit lanes, each by a multiply-shift division exact in its range."""
    h = f // _U64(10**8)
    y = np.empty((2, len(f)), np.uint64)
    np.floor_divide(h, _U64(10**8), out=y[0])
    np.add(y[0], 48, out=out[0], casting="unsafe")
    y[0] *= _U64(10**8)
    np.subtract(h, y[0], out=y[0])
    h *= _U64(10**8)
    np.subtract(f, h, out=y[1])
    del h
    q = np.empty_like(y)
    # lane-wise q = y // div, then y = q + (y - q div) 2^width = y 2^width - q (div 2^width - 1)
    for mul, shift, mask, div, width in ((109951163, 40, 2**64 - 1, 10**4, 32), (5243, 19, 0x7F0000007F, 100, 16),
                                         (103, 10, 0x000F000F000F000F, 10, 8)):
        np.multiply(y, _U64(mul), out=q)
        q >>= _U64(shift)
        q &= _U64(mask)
        y <<= _U64(width)
        q *= _U64((div << width) - 1)
        y -= q
    y += _U64(0x3030303030303030)
    out[1:].reshape(2, 8, -1)[:] = y.view(np.uint8).reshape(2, -1, 8).transpose(0, 2, 1)


def _csv_image(v, lo):
    """The lines f"{i},{v[i - lo]!r}\\n" down the columns of a byte image: index, ',', '-', the "0.000" of a
    point at or below 0, the digits each followed by the row of a possible '.', the exponent and '\\n' each
    at a fixed row, NUL where a line has no character there."""
    n, bits = len(v), v.view(np.uint64)
    d, k = _shortest(bits)
    nonfinite = ~np.isfinite(v)
    odd = nonfinite | (v == 0.0)
    d[odd] = 0
    nlen = np.full(n, 14, np.int16)  # digits: 15 to 17 past the subnormals
    for p in _POW10[14:17]:
        nlen += d >= p
    few = d < _POW10[14]
    if few.any():
        nlen[few] = np.searchsorted(_POW10, d[few], "right")
    point = (k + nlen).astype(np.int16)  # repr's value is 0.d1d2... 10^point
    point[odd] = 1
    d *= _POW10[17 - nlen]
    chars = np.empty((17, n), np.uint8)
    _digit_chars(d, chars)
    del d
    fixed = (point > 0) & (point < 17)
    zeros = np.where((point > -4) & (point < 1), 2 - point, 0)  # the "0." and zeros before the digits
    keep = chars != 48
    for step in (1, 2, 4, 8, 16):  # a digit stays if one after it is nonzero, or if it is before the point
        keep[:-step] |= keep[step:]
    keep |= np.arange(17, dtype=np.int16)[:, None] <= point * fixed
    dot = np.where(fixed, point, ~fixed & (zeros == 0) & keep[1])  # a '.' after digit dot, in [1, 16]
    chars *= keep
    del keep
    if nonfinite.any():
        i = np.flatnonzero(nonfinite)
        chars[:, i], dot[i] = 0, 0
        nan, inf = np.frombuffer(b"nan", np.uint8)[:, None], np.frombuffer(b"inf", np.uint8)[:, None]
        chars[:3, i] = np.where(np.isnan(v[i]), nan, inf)
    sign = np.signbit(v) & ~np.isnan(v)
    wi, dots, zw = len(str(lo + n - 1)), int(dot.max()), int(zeros.max())
    rows = [wi, 1, int(sign.any()), zw, 17 + dots, 5 * int(not (fixed | (zeros > 0)).all()), 1]
    r = np.cumsum(rows).tolist()  # field j + 1 starts at row r[j]
    img = np.empty((r[-1], n), np.uint8)
    img[r[3] : r[3] + 2 * dots : 2] = chars[:dots]
    img[r[4] - 17 + dots : r[4]] = chars[dots:]
    del chars
    np.equal(np.arange(1, dots + 1, dtype=np.int16)[:, None], dot, out=img[r[3] + 1 : r[4] - 17 + dots : 2].view(bool))
    img[r[3] + 1 : r[4] - 17 + dots : 2] *= np.uint8(46)
    if rows[5]:
        np.take(_csv_tables()[1], point + 330, axis=1, out=img[r[4] : r[5]], mode="clip")
    img[r[0]] = 44
    np.multiply(sign, 45, out=img[r[1] : r[2]], casting="unsafe")
    np.less(np.arange(zw, dtype=np.int16)[:, None], zeros, out=img[r[2] : r[3]].view(bool))
    img[r[2] : r[3]] *= np.array([48, 46, 48, 48, 48], np.uint8)[:zw, None]
    img[-1] = 10
    high, low = divmod(lo, 10**4)  # the last four digits from the table, the others change once at most
    img[max(wi - 4, 0) : wi] = _csv_tables()[2][max(4 - wi, 0) :, low : low + n]
    for h, cols in ((high, slice(0, 10**4 - low)), (high + 1, slice(10**4 - low, n))) if wi > 4 else ():
        img[: wi - 4, cols] = np.frombuffer(b"%0*d" % (wi, h * 10**4), np.uint8)[-wi:-4, None]
    if lo < 10 ** (wi - 1):  # leading zeros are NUL
        img[: wi - 1] *= np.arange(lo, lo + n, dtype=np.uint64) >= _POW10[wi - 1 : 0 : -1, None]
    return img


def _csv_lines(v, lo):
    """The bytes of f"{i},{v[i - lo]!r}\\n" for i = lo, lo + 1, ...: the image's columns, NULs dropped, a quarter
    of the lines at a time so that the masks and the lines stay below the image in memory."""
    img = np.ascontiguousarray(_csv_image(v, lo).T)
    parts = [part[part != 0] for part in np.array_split(img, 4)]
    del img
    return np.concatenate(parts)


def write_samples_csv(batch: SampleBatch, path, tool_version: str = "") -> None:
    """Write samples as 'index,value' CSV plus a JSON metadata sidecar; each value is its Python repr."""
    values = np.ascontiguousarray(batch.values, dtype=np.float64)
    if values.shape != (batch.size,):
        raise ValueError(f"the batch holds values of shape {values.shape}, not ({batch.size},)")
    with _rewrite(path, "wb") as fh:
        tool = f"# tool: wickchaos {tool_version}\n" if tool_version else ""
        fh.write(f"{tool}# seed: {batch.seed}\n# expansion-hash: {batch.expansion_hash}\nindex,value\n".encode())
        for lo in range(0, len(values), _CSV_LINES):
            fh.write(_csv_lines(values[lo : lo + _CSV_LINES], lo))
    meta = {
        "seed": batch.seed,
        "N": batch.size,
        "generator": batch.generator,
        "expansion-hash": batch.expansion_hash,
    }
    with _rewrite(f"{path}.meta.json") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
