"""Chaos expansions over a finite orthonormal Gaussian basis.

A polynomial functional of d independent standard Gaussians xi_1..xi_d is
stored by its coefficients against the unnormalized Hermite basis

    H_alpha(xi) = prod_i He_{alpha_i}(xi_i),

with He_k the probabilists' Hermite polynomials and alpha a multi-index
(a length-d tuple of non-negative exponents; |alpha| is the chaos order).
The basis is orthogonal with E[H_alpha H_beta] = alpha! * delta_{alpha,beta}
where alpha! = prod_i alpha_i!, so squared L2 norms are weighted coefficient
sums and the Wick product is plain graded coefficient convolution (see
wickchaos.algebra).

Values are immutable: every operation returns a new expansion and never
mutates its arguments, so instances are freely shareable across threads.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import operator
import os
import stat
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "ChaosExpansion",
    "ExpVectorResult",
    "make_expansion",
    "univariate",
    "constant",
    "l2_norm",
    "l2_norm_sq",
    "inner_product",
    "gamma",
    "project_degree",
    "exp_vector",
    "first_order_kernel",
    "multi_index_factorial",
    "multi_indexes_of_degree",
    "max_coeff_deviation",
    "to_json_dict",
    "from_json_dict",
    "expansion_hash",
]

# Exact float64 factorials up to 170!; the 171 slot is +inf (171! overflows
# float64), so index with exponents clipped to MAX_EXACT_FACTORIAL + 1.
FACTORIALS = np.concatenate(([1.0], np.cumprod(np.arange(1.0, 171.0)), [np.inf]))
MAX_EXACT_FACTORIAL = 170

# Coefficients below this magnitude are numeric dust and are pruned.
PRUNE_EPS = 1e-300


@functools.cache
def _ones(dim: int) -> np.ndarray:
    return np.ones(dim, dtype=np.int64)


def _degrees(exponents):
    """Total degree |alpha| of each multi-index row: the row sums, 3-4x faster as a matmul."""
    return exponents @ _ones(exponents.shape[1])


def grade_lex_order(exponents):
    """Indices sorting multi-index rows by (total degree, lexicographic)."""
    degrees = _degrees(exponents)
    keys = tuple(exponents[:, i] for i in range(exponents.shape[1] - 1, -1, -1))
    return np.lexsort(keys + (degrees,))


def multi_index_factorial(alpha) -> float:
    """alpha! = prod_i alpha_i!; +inf once any exponent factorial or their product overflows."""
    with np.errstate(over="ignore"):  # inf is the documented overflow value
        return float(FACTORIALS[np.minimum(np.asarray(alpha, dtype=np.int64), MAX_EXACT_FACTORIAL + 1)].prod())


def multi_indexes_of_degree(dim: int, degree: int) -> Iterator[tuple[int, ...]]:
    """All multi-indexes of the given total degree, lexicographically ascending."""
    dim = _check_dim(dim)
    degree = _check_degree(degree, "degree")
    if dim == 1:
        yield (degree,)
        return
    for e0 in range(degree + 1):
        for rest in multi_indexes_of_degree(dim - 1, degree - e0):
            yield (e0,) + rest


_SQRT_FACTORIALS = np.sqrt(FACTORIALS)
_LOG_FACTORIALS = np.log(FACTORIALS[: MAX_EXACT_FACTORIAL + 1])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_factorial(k):
    """log(k!) per entry of an integer array, within 2 ulp of the exact value (checked to k = 1e8).

    The log of the exact table up to 170!, Stirling's series through the
    1/(1260 k^5) term above (the next term is below 1.4e-19 there).
    """
    out = _LOG_FACTORIALS[np.minimum(k, MAX_EXACT_FACTORIAL)]
    big = k > MAX_EXACT_FACTORIAL
    if big.any():
        b = k[big].astype(np.float64)
        inv = 1.0 / b
        inv2 = inv * inv
        log_b = np.log(b)
        out[big] = b * (log_b - 1.0) + (
            0.5 * log_b + _HALF_LOG_2PI + inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 / 1260.0))
        )
    return out


def _factorial_weighted(exponents, factors, power):
    """Per-term (alpha!)**power * prod(factors), power 1 or 0.5.

    The direct product is exact for desk-scale terms; entries where it
    overflows, or underflows to 0 from nonzero factors, are recomputed in log
    space (~1 ulp of the exponent).
    """
    table = FACTORIALS if power == 1 else _SQRT_FACTORIALS
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        w = table[np.minimum(exponents, MAX_EXACT_FACTORIAL + 1)].prod(axis=1)
        product = factors[0]
        nonzero = factors[0] != 0.0
        for f in factors[1:]:
            product = product * f
            nonzero &= f != 0.0
        direct = w * product
        bad = ~np.isfinite(direct) | ((direct == 0.0) & nonzero)
        if bad.any():
            log_abs = power * _log_factorial(exponents[bad]).sum(axis=1)
            sign = 1.0
            for f in factors:
                f = f[bad]
                log_abs = log_abs + np.log(np.abs(f))
                sign = sign * np.sign(f)
            direct[bad] = sign * np.exp(log_abs)
    return direct


# Terms of the exponential series summed past a truncation degree before it is
# declared divergent in float64 (|h|^2 too large for exp(|h|^2) to be finite).
_EXP_TAIL_MAX_TERMS = 100000


def _power_tables(h: np.ndarray, degree: int) -> np.ndarray:
    """tables[i, e] = h_i^e / e! for e = 0..degree, by the forward product of h_i / e
    (a longer table's prefix is the shorter table bit for bit)."""
    ratios = np.empty((h.shape[0], degree + 1))
    ratios[:, 0] = 1.0
    np.divide(h[:, None], np.arange(1.0, degree + 1.0), out=ratios[:, 1:])
    with np.errstate(over="ignore"):
        return np.multiply.accumulate(ratios, axis=1, out=ratios)


def _exp_series(hsqs, tops) -> list:
    """Per (hsq, top) pair, the terms hsq^k / k! for k = 0..top and the tail sum_{k > top} hsq^k / k!.

    The terms are a prefix of the pair's row of one power table; the tail adds
    term_k = term_{k-1} * (hsq / k) until one is 0 or below 1e-18 of the sum,
    and raises ValueError when it is not finite in float64.
    """
    series = []
    for hsq, top, row in zip(hsqs, tops, _power_tables(np.array(hsqs), max(tops))):
        terms, tail = row[: top + 1], 0.0
        term = float(terms[-1])
        for k in range(top + 1, top + 1 + _EXP_TAIL_MAX_TERMS):
            term *= hsq / k
            tail += term
            if not math.isfinite(tail) or term == 0.0 or term < tail * 1e-18:
                break
        else:
            tail = math.inf  # no term met the stopping rule
        if not math.isfinite(tail):
            raise ValueError(
                f"exponential-series tail past degree {top} does not converge in float64 for |h|^2 = {hsq!r}"
            )
        series.append((terms, tail))
    return series


class ChaosExpansion:
    """Finite coefficient table multi-index -> real over a fixed basis size.

    Construct through :func:`make_expansion` (validating) or arithmetic on
    existing expansions. Terms are kept sorted by (degree, lexicographic
    exponents) with coefficients below PRUNE_EPS pruned, by _from_arrays alone.
    """

    __slots__ = ("dim", "exponents", "coeffs", "degrees", "max_degree", "_lookup")

    def __init__(self, dim, exponents, coeffs, degrees, _trusted=False):
        if not _trusted:
            raise TypeError("use make_expansion() to build expansions")
        self.dim = dim
        self.exponents = exponents
        self.coeffs = coeffs
        self.degrees = degrees
        self.max_degree = int(degrees[-1]) if coeffs.shape[0] else 0
        self._lookup = None

    @classmethod
    def _from_arrays(cls, dim, exponents, coeffs):
        """Canonical expansion from a term table whose rows are lex-ordered within each degree.

        Kernel products (code order), _union and the scalar ops all give such
        rows, so one stable sort by degree (none when they ascend) yields the
        (degree, lex) order; make_expansion pre-sorts arbitrary input with
        grade_lex_order. The given arrays may be kept, made read-only: callers
        pass fresh ones or another expansion's.
        """
        exponents = np.ascontiguousarray(exponents, dtype=np.int64).reshape(-1, dim)
        coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
        if np.count_nonzero(np.isfinite(coeffs)) < coeffs.shape[0]:
            raise ValueError("non-finite coefficient")
        keep = np.abs(coeffs) >= PRUNE_EPS
        if np.count_nonzero(keep) < keep.shape[0]:
            exponents = exponents[keep]
            coeffs = coeffs[keep]
        degrees = _degrees(exponents)
        if np.count_nonzero(degrees[1:] < degrees[:-1]):
            order = degrees.argsort(kind="stable")
            exponents = exponents.take(order, axis=0)
            coeffs = coeffs.take(order)
            degrees = degrees.take(order)
        exponents.setflags(write=False)
        coeffs.setflags(write=False)
        return cls(dim, exponents, coeffs, degrees, _trusted=True)

    @property
    def n_terms(self) -> int:
        return self.coeffs.shape[0]

    def mean(self) -> float:
        """E[X]: the coefficient at the zero multi-index."""
        if self.n_terms and self.degrees[0] == 0:
            return float(self.coeffs[0])
        return 0.0

    def coeff(self, alpha) -> float:
        """Coefficient at a multi-index (0.0 when absent)."""
        alpha = tuple(int(e) for e in alpha)
        if len(alpha) != self.dim:
            raise ValueError(f"multi-index length {len(alpha)} != dim {self.dim}")
        if self._lookup is None:
            self._lookup = {
                tuple(row): float(c) for row, c in zip(self.exponents.tolist(), self.coeffs)
            }
        return self._lookup.get(alpha, 0.0)

    def terms(self) -> Iterator[tuple[tuple[int, ...], float]]:
        """Iterate (multi-index, coefficient) in (degree, lex) order."""
        for row, c in zip(self.exponents.tolist(), self.coeffs):
            yield tuple(row), float(c)

    def __eq__(self, other):
        if not isinstance(other, ChaosExpansion):
            return NotImplemented
        return (
            self.dim == other.dim
            and np.array_equal(self.exponents, other.exponents)
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.dim, self.exponents.tobytes(), self.coeffs.tobytes()))

    def __add__(self, other):
        if not isinstance(other, ChaosExpansion):
            return NotImplemented
        _check_same_dim(self, other)
        exps, a, b = _union(self, other)
        return ChaosExpansion._from_arrays(self.dim, exps, a + b)

    def __neg__(self):
        return ChaosExpansion._from_arrays(self.dim, self.exponents, -self.coeffs)

    def __sub__(self, other):
        if not isinstance(other, ChaosExpansion):
            return NotImplemented
        _check_same_dim(self, other)
        exps, a, b = _union(self, other)
        return ChaosExpansion._from_arrays(self.dim, exps, a - b)

    def __mul__(self, scalar):
        if isinstance(scalar, ChaosExpansion):
            raise TypeError(
                "ambiguous product of two expansions: use wick_product() or pointwise_product()"
            )
        scalar = float(scalar)
        if not math.isfinite(scalar):
            raise ValueError("non-finite scalar")
        with np.errstate(over="ignore") if abs(scalar) > 1.0 else contextlib.nullcontext():  # as in gamma
            coeffs = self.coeffs * scalar
        return ChaosExpansion._from_arrays(self.dim, self.exponents, coeffs)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / float(scalar))

    def __repr__(self):
        head = ", ".join(
            f"{tuple(row)}: {c:.6g}" for row, c in zip(self.exponents[:4].tolist(), self.coeffs[:4])
        )
        tail = ", ..." if self.n_terms > 4 else ""
        return f"ChaosExpansion(dim={self.dim}, degree={self.max_degree}, {{{head}{tail}}})"


def _check_same_dim(x: ChaosExpansion, y: ChaosExpansion):
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} != {y.dim}")


def _union(x: ChaosExpansion, y: ChaosExpansion):
    """(exponents, a, b): x's and y's coefficients on the lex-ordered union of supports, 0.0 if absent."""
    stacked = np.concatenate([x.exponents, y.exponents])
    order = np.lexsort(stacked.T[::-1])
    rows = stacked[order]
    first = np.ones(rows.shape[0], dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    inverse = np.empty_like(order)
    inverse[order] = first.cumsum() - 1
    exps = rows[first]
    a = np.zeros(exps.shape[0])
    b = np.zeros(exps.shape[0])
    a[inverse[: x.n_terms]] = x.coeffs
    b[inverse[x.n_terms :]] = y.coeffs
    return exps, a, b


def _check_dim(dim) -> int:
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    return int(dim)


def _check_int(value, name: str) -> int:
    """value as an int through operator.index (TypeError for a non-integer); a bool raises ValueError."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def _check_degree(degree, name: str) -> int:
    """degree as an int through operator.index (TypeError for a non-integer); a bool or a negative raises ValueError."""
    if isinstance(degree, bool) or operator.index(degree) < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {degree!r}")
    return operator.index(degree)


def make_expansion(dim: int, entries) -> ChaosExpansion:
    """Validated constructor from (multi-index, coefficient) pairs or a dict.

    Rejects length mismatches, negative/non-integer exponents, duplicate
    multi-indexes and non-finite coefficients.
    """
    dim = _check_dim(dim)
    if isinstance(entries, dict):
        entries = entries.items()
    seen = set()
    rows = []
    vals = []
    for alpha, c in entries:
        alpha = tuple(alpha)
        if len(alpha) != dim:
            raise ValueError(f"multi-index {alpha} has length {len(alpha)}, expected {dim}")
        for e in alpha:
            if isinstance(e, bool) or not isinstance(e, (int, np.integer)) or e < 0:
                raise ValueError(f"multi-index {alpha} has invalid exponent {e!r}")
        alpha = tuple(int(e) for e in alpha)
        if alpha in seen:
            raise ValueError(f"duplicate multi-index {alpha}")
        seen.add(alpha)
        c = float(c)
        if not math.isfinite(c):
            raise ValueError(f"non-finite coefficient at {alpha}")
        rows.append(alpha)
        vals.append(c)
    exps = np.array(rows, dtype=np.int64).reshape(len(rows), dim)
    order = grade_lex_order(exps)
    return ChaosExpansion._from_arrays(dim, exps[order], np.array(vals)[order])


def univariate(coeffs) -> ChaosExpansion:
    """Dim-1 expansion from dense per-degree coefficients [c_0, c_1, ...]."""
    return make_expansion(1, [((k,), c) for k, c in enumerate(coeffs)])


def constant(dim: int, value: float = 1.0) -> ChaosExpansion:
    """The constant random variable `value` in dimension dim."""
    dim = _check_dim(dim)
    return ChaosExpansion._from_arrays(dim, np.zeros((1, dim), dtype=np.int64), [float(value)])


def l2_norm_sq(x: ChaosExpansion) -> float:
    """Squared L2 norm: sum_alpha alpha! c_alpha^2."""
    return float(np.sum(_factorial_weighted(x.exponents, (x.coeffs, x.coeffs), 1)))


def l2_norm(x: ChaosExpansion) -> float:
    return math.sqrt(l2_norm_sq(x))


def inner_product(x: ChaosExpansion, y: ChaosExpansion) -> float:
    """L2 inner product sum_alpha alpha! x_alpha y_alpha (polarized norm)."""
    _check_same_dim(x, y)
    if x.n_terms == 0 or y.n_terms == 0:
        return 0.0
    exps, a, b = _union(x, y)
    return float(np.sum(_factorial_weighted(exps, (a, b), 1)))


def gamma(lam: float, x: ChaosExpansion) -> ChaosExpansion:
    """Second quantization: scale the order-n component by lam**n."""
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError("non-finite lambda")
    # an overflow is a non-finite coefficient, which _from_arrays rejects; none
    # is possible for |lam| <= 1, the hot path, which skips errstate's ~1 us
    with np.errstate(over="ignore") if abs(lam) > 1.0 else contextlib.nullcontext():
        coeffs = x.coeffs * np.power(lam, x.degrees.astype(np.float64))
    return ChaosExpansion._from_arrays(x.dim, x.exponents, coeffs)


def project_degree(x: ChaosExpansion, m: int, mode: str = "at_most") -> ChaosExpansion:
    """Keep coefficients with |alpha| <= m ('at_most') or |alpha| == m ('exactly')."""
    m = _check_degree(m, "degree")
    if mode == "at_most":
        keep = x.degrees <= m
    elif mode == "exactly":
        keep = x.degrees == m
    else:
        raise ValueError(f"mode must be 'at_most' or 'exactly', got {mode!r}")
    return ChaosExpansion._from_arrays(x.dim, x.exponents[keep], x.coeffs[keep])


def first_order_kernel(x: ChaosExpansion) -> np.ndarray:
    """The degree-1 coefficient vector (c_{e_1}, ..., c_{e_d})."""
    h = np.zeros(x.dim)
    sel = x.degrees == 1
    h[np.argmax(x.exponents[sel], axis=1)] = x.coeffs[sel]
    return h


@dataclass(frozen=True)
class ExpVectorResult:
    """Degree-truncated stochastic exponential plus its exact discarded L2 mass."""

    expansion: ChaosExpansion
    tail_norm_sq: float


def exp_vector(h, max_degree: int) -> ExpVectorResult:
    """Truncation of the stochastic exponential E(h) = exp(<h, xi> - |h|^2/2).

    The expansion carries coefficient h^alpha / alpha! for every |alpha| <=
    max_degree; tail_norm_sq is sum_{k > max_degree} |h|^(2k) / k!, summed
    forward in a stable cumulative form, so that
    l2_norm_sq(expansion) + tail_norm_sq = exp(|h|^2) up to rounding. Raises
    ValueError when the tail does not converge in float64 (exp(|h|^2) out of
    range).
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1 or h.shape[0] < 1:
        raise ValueError("h must be a non-empty 1-d vector")
    if not np.all(np.isfinite(h)):
        raise ValueError("non-finite entry in h")
    max_degree = _check_degree(max_degree, "max_degree")
    d = h.shape[0]
    tables = _power_tables(h, max_degree)
    # every multi-index over supp h of degree <= max_degree, built one
    # coordinate at a time from the zero row, so the rows come out in lex order
    exps = np.zeros((1, d), dtype=np.int64)
    vals = np.ones(1)
    for i in np.flatnonzero(h):
        room = max_degree - _degrees(exps)
        rows, e = np.nonzero(np.arange(max_degree + 1) <= room[:, None])
        exps = exps[rows]
        exps[:, i] = e
        vals = vals[rows] * tables[i, e]
    expansion = ChaosExpansion._from_arrays(d, exps, vals)
    ((_, tail),) = _exp_series([float(h @ h)], [max_degree])
    return ExpVectorResult(expansion=expansion, tail_norm_sq=tail)


def max_coeff_deviation(x: ChaosExpansion, y: ChaosExpansion) -> float:
    """Max absolute coefficient difference over the union of supports, as in x - y."""
    _check_same_dim(x, y)
    _, a, b = _union(x, y)
    dev = np.abs(a - b)
    return float(np.max(dev, where=dev >= PRUNE_EPS, initial=0.0))


# ---------------------------------------------------------------------------
# JSON serialization: {"dim": d, "coeffs": [{"alpha": [...], "c": float}]}, and output files
# ---------------------------------------------------------------------------


def to_json_dict(x: ChaosExpansion) -> dict:
    return {
        "dim": x.dim,
        "coeffs": [{"alpha": list(alpha), "c": c} for alpha, c in x.terms()],
    }


def from_json_dict(obj: dict) -> ChaosExpansion:
    if not isinstance(obj, dict) or "dim" not in obj or "coeffs" not in obj:
        raise ValueError("expansion JSON must carry 'dim' and 'coeffs'")
    entries = []
    for item in obj["coeffs"]:
        if not isinstance(item, dict) or "alpha" not in item or "c" not in item:
            raise ValueError("each coefficient entry must carry 'alpha' and 'c'")
        entries.append((tuple(item["alpha"]), item["c"]))
    return make_expansion(obj["dim"], entries)


def expansion_hash(x: ChaosExpansion) -> str:
    """Deterministic content hash of the canonical serialized form."""
    payload = json.dumps(to_json_dict(x), separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@contextlib.contextmanager
def _rewrite(path, mode: str = "w"):
    """open(path, mode) for an output, written over in place and cut to its new length on exit: truncating a file
    that holds data at open costs journal work. Only a regular file is cut, so pipes and /dev/null work as in open()."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, mode, newline=None if "b" in mode else "\n") as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
