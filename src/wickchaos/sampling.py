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
from .core import ChaosExpansion, _check_degree, _check_int, _factorial_weighted, expansion_hash

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
    n_draws = _check_int(n_draws, "n_draws")
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
# rounds back to the value, the closest if several (R. Giulietti, "The Schubfach way to render doubles",
# 2020). Lines per slice: more run faster, but the temporaries (about 370 B a line) would outgrow
# those of one repr per value.
_CSV_LINES = 1 << 11
_POW10 = np.array([10**i for i in range(19)], dtype=np.uint64)


@functools.cache  # built on first use, not at import
def _csv_tables():
    """Per decimal exponent k in [-324, 292]: g0, g1 (g = g1 2^63 + g0) in 32-bit halves, g1 and r + 127
    (g ~ 10^-k 2^-r). Per layout key: the line's length after the comma, each character's offset from
    the value's first (the newline's drops it). Per decimal point: the exponent's sign and three digits."""
    g = []
    for k in range(-324, 293):  # g = floor(10^-k 2^-r) + 1 in [2^125, 2^126), in Python ints
        p = 10 ** abs(k)
        r = p.bit_length() - 126 if k <= 0 else -p.bit_length() - 125
        gk = ((p << -r if r < 0 else p >> r) if k <= 0 else (1 << -r) // p) + 1
        g1, g0 = gk >> 63, gk & (2**63 - 1)
        g.append((g0 >> 32, g1 >> 32, g0 & 0xFFFFFFFF, g1 & 0xFFFFFFFF, g1, (r + 127) % 2**64))
    tab = np.array(g, np.uint64).T.copy()
    offsets = []
    for key in range(374):  # 17 (point + 3) + digits - 1 in fixed notation, 340 + 2 (digits - 1) + (|exponent| > 99)
        sci, big = key >= 340, key >= 340 and key % 2
        point, nd = (1, (key - 340) // 2 + 1) if sci else (key // 17 - 3, key % 17 + 1)
        shift, e = max(0, 1 - point), nd + (nd > 1)  # the zeros of "0.00"; where 'e' goes
        end = e + 4 + big if sci else max(nd, point) + 1 + shift + (point >= nd)
        exponent = [e, e + 1, e + 2 if big else end, e + 2 + big, e + 3 + big] if sci else [end] * 5
        digits = [j + (j >= point) + shift if j < nd else end for j in range(16, -1, -1)]
        offsets.append([end + 1] + digits + [end if sci and nd == 1 else max(point, 1), -1] + exponent)
    point = np.arange(-330, 330)
    e = np.abs(point - 1)
    exps = np.array([np.where(point < 1, 45, 43), e // 100 + 48, e // 10 % 10 + 48, e % 10 + 48], np.uint8)
    return tab, np.array(offsets).T.copy(), exps


def _schubfach(bits):
    """(d, k): d 10^k is the shortest decimal that rounds to the float64 with these bits, the closest if
    several (even on a tie); garbage for 0, inf and nan. Unlike Java's, it forces no second digit (5e-324)."""
    frac, bq = bits & np.uint64(2**52 - 1), ((bits >> np.uint64(52)) & np.uint64(2047)).view(np.int64)
    irregular = (frac == 0) & (bq > 1)  # a power of two past the subnormals: its lower gap is half
    q = np.maximum(bq, 1) - 1075
    k = (q * 661971961083 - irregular * 274743187321) >> 41  # floor(log10(2^q)), or of (3/4) 2^q
    tab = np.take(_csv_tables()[0], k + 324, axis=1)
    h = (q + tab[5].view(np.int64)).view(np.uint64)
    c = (frac | (bq > 0) * np.uint64(2**52)) << (h + np.uint64(2))
    # 4 2^h times the lower end of the rounding interval, the value, the upper end
    cp = np.stack([c - ((np.uint64(2) - irregular) << h), c, c + (np.uint64(2) << h)])
    z, c1, c0 = tab[4] * cp, cp >> np.uint64(32), cp & np.uint64(2**32 - 1)
    del cp
    x = tab[2:4, None] * c0  # the high 64 bits of g0 cp and g1 cp from 32-bit halves (numpy has no uint128)
    x >>= np.uint64(32)
    x += tab[2:4, None] * c1
    x += tab[0:2, None] * c0
    x >>= np.uint64(32)
    x += tab[0:2, None] * c1
    z >>= np.uint64(1)
    z += x[0]
    y = x[1] + (z >> np.uint64(63))
    y |= (z << np.uint64(1)) != 0  # round to odd: vb is 4 v 10^-k, vbl and vbr its interval's ends
    vbl, vb, vbr = y
    odd = bits & np.uint64(1)  # an odd significand leaves the ends out
    vbl += odd
    vbr -= odd
    s, s4 = vb >> np.uint64(2), vb & np.uint64(2**64 - 4)
    # s or s + 1, whichever lies in the interval; if both, the closer, or the even one on a tie
    d = s + ((vbl > s4) | ((s4 + np.uint64(4) <= vbr) & ((vb & np.uint64(3)) + (s & np.uint64(1)) >= 3)))
    sp4 = s // np.uint64(10) * np.uint64(40)  # a digit fewer where one multiple of 10 around s is in it
    upin = vbl <= sp4
    d = np.where(upin != (sp4 + np.uint64(40) <= vbr), (sp4 >> np.uint64(2)) + np.uint64(10) * ~upin, d)
    return d, k


def _digit_chars(f, out):
    """The last len(out) <= 18 decimal digits of f < 10^18 (uint64) as characters into out, the last first."""
    q = np.empty((2, min(len(out), 9) + 1, len(f)), np.uint32)  # q[:, m] = (f mod 10^9, f // 10^9) // 10^m
    q[1, 0], q[0, 0] = np.divmod(f, np.uint64(10**9))
    for m in range(q.shape[1] - 1):
        np.floor_divide(q[:, m], np.uint32(10), out=q[:, m + 1])
    digits = q[:, :-1] - q[:, 1:] * np.uint32(10)
    np.add(digits.reshape(-1, len(f))[: len(out)], 48, out=out, casting="unsafe")


def _csv_lines(v, lo):
    """The bytes of f"{i},{v[i - lo]!r}\\n" for i = lo, lo + 1, ...: one buffer prefilled with '0', the
    characters scattered in (a dropped one onto its line's newline, written last)."""
    _, offsets, exps = _csv_tables()
    n, bits = len(v), v.view(np.uint64)
    chars = np.empty((24, n), np.uint8)  # 17 digits, '.', '-' or ',', 'e', the exponent's sign and digits
    d, k = _schubfach(bits)
    nlen = np.searchsorted(_POW10, d, "right")
    _digit_chars(d * _POW10[17 - nlen], chars[:17])  # repr's value is 0.d1d2... 10^point
    nd, point = 17 - np.argmax(chars[:17] != 48, axis=0), k + nlen
    del d, k, nlen
    sign, nonfinite = (bits >> np.uint64(63)).view(np.int64), ~np.isfinite(v)
    odd = nonfinite | (v == 0.0)
    if odd.any():  # +-0.0 is the digit 0 with the point after it; inf and nan are patched in below
        chars[:17, odd], nd[odd], point[odd], sign[np.isnan(v)] = 48, 1, 1, 0
    sci = (point <= -4) | (point > 16)  # Python's repr: 1e-05 and 1e+16, but 0.0001 and 1000000000000000.0
    rows = 24 if sci.any() else 19
    key = np.where(sci, 338 + 2 * nd + (np.abs(point - 1) > 99), 17 * point + 50 + nd)
    pos = np.take(offsets[: rows + 1], key, axis=1)
    idx = np.arange(lo, lo + n)
    ni = np.searchsorted(_POW10[1:].view(np.int64), idx, "right") + 1
    length = ni + 1 + sign + pos[0]
    end = np.cumsum(length)
    comma = end - length + ni
    buf = np.full(end[-1], 48, np.uint8)
    pos = pos[1:]
    pos += comma + 1 + sign
    chars[17] = 46
    np.add(sign, 44, out=chars[18], casting="unsafe")
    if rows > 19:
        chars[19] = 101
        np.take(exps, point + 330, axis=1, out=chars[20:])
    buf[pos.ravel()] = chars[:rows].ravel()
    del pos, chars
    chars = np.empty((len(str(lo + n - 1)), n), np.uint8)
    _digit_chars(idx.view(np.uint64), chars)
    m1 = np.arange(1, len(chars) + 1)[:, None]
    buf[(comma - m1 * (m1 <= ni)).ravel()] = chars.ravel()
    buf[end - 1] = 10
    buf[comma] = 44
    for i in np.flatnonzero(nonfinite).tolist():
        buf[comma[i] + 1 + sign[i] :][:3] = np.frombuffer(b"nan" if np.isnan(v[i]) else b"inf", np.uint8)
    return buf


def write_samples_csv(batch: SampleBatch, path, tool_version: str = "") -> None:
    """Write samples as 'index,value' CSV plus a JSON metadata sidecar; each value is its Python repr."""
    values = np.ascontiguousarray(batch.values, dtype=np.float64)
    with open(path, "wb") as fh:
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
    with open(f"{path}.meta.json", "w", newline="\n") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
