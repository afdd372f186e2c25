"""Hot numeric kernels: graded convolution, contraction products, Hermite evaluation.

One numpy implementation per kernel, so every result is a deterministic
function of its inputs.

Term layout convention: an expansion with m terms over d coordinates is a
pair (exponents, coeffs) with exponents an (m, d) int64 array and coeffs an
(m,) float64 array, sorted by (total degree, lexicographic exponent tuple).
"""

from __future__ import annotations

import numpy as np

# Exact float64 factorials up to 170!; the 171 slot is +inf (171! overflows
# float64), so index with exponents clipped to MAX_EXACT_FACTORIAL + 1.
FACTORIALS = np.concatenate(([1.0], np.cumprod(np.arange(1.0, 171.0)), [np.inf]))
MAX_EXACT_FACTORIAL = 170

# Coefficients below this magnitude are numeric dust and may be pruned.
PRUNE_EPS = 1e-300

# Dense accumulator cap: 2**26 float64 cells = 512 MiB.
GRID_CELL_CAP = 1 << 26

# np.convolve over the dense code ranges 0..max code does span_x * span_y
# multiply-adds in C, against nx * ny in the per-term loop; it is used while
# the ranges are within this factor of dense. Sparse inputs such as 1 + He_500
# keep the loop.
_DENSE_FACTOR = 8


def grade_lex_order(exponents):
    """Indices sorting multi-index rows by (total degree, lexicographic)."""
    degrees = exponents.sum(axis=1)
    keys = tuple(exponents[:, i] for i in range(exponents.shape[1] - 1, -1, -1))
    return np.lexsort(keys + (degrees,))


def _grid(exp_x, exp_y):
    """Mixed-radix layout of the sumset grid for a pair of term tables."""
    radix = exp_x.max(axis=0) + exp_y.max(axis=0) + 1
    strides = np.empty(radix.shape[0], dtype=np.int64)
    cells = 1
    for i in range(radix.shape[0] - 1, -1, -1):
        strides[i] = cells
        cells *= int(radix[i])
    if cells > GRID_CELL_CAP:
        raise ValueError(
            f"product grid needs {cells} cells (> cap {GRID_CELL_CAP}); "
            "reduce the power, degree or dimension"
        )
    return radix, strides, cells


def _extract(acc, radix):
    """Nonzero cells of a dense accumulator as (degree, lex)-sorted terms."""
    codes = np.flatnonzero(np.abs(acc) >= PRUNE_EPS)
    vals = acc[codes]
    d = radix.shape[0]
    exps = np.empty((codes.shape[0], d), dtype=np.int64)
    rem = codes
    for i in range(d - 1, -1, -1):
        exps[:, i] = rem % radix[i]
        rem = rem // radix[i]
    if d == 1:
        # ascending codes are ascending degrees
        return exps, vals
    order = grade_lex_order(exps)
    return np.ascontiguousarray(exps[order]), np.ascontiguousarray(vals[order])


# ---------------------------------------------------------------------------
# Graded convolution: out[alpha] = sum_{beta+gamma=alpha} x[beta] * y[gamma].
# The grid radix on every axis exceeds max_x + max_y, so mixed-radix codes add
# without carries: code(beta) + code(gamma) = code(beta + gamma). A 1-D
# convolution of the two tables scattered densely by code therefore lands every
# product in its cell and nothing else there.
# ---------------------------------------------------------------------------


def _convolve_acc(exp_x, cx, exp_y, cy, strides, acc):
    code_x = exp_x @ strides
    code_y = exp_y @ strides
    span_x = int(code_x.max()) + 1
    span_y = int(code_y.max()) + 1
    if span_x * span_y <= _DENSE_FACTOR * code_x.shape[0] * code_y.shape[0]:
        dense_x = np.bincount(code_x, weights=cx, minlength=span_x)
        dense_y = np.bincount(code_y, weights=cy, minlength=span_y)
        acc[: span_x + span_y - 1] += np.convolve(dense_x, dense_y)
    else:
        for t in range(code_x.shape[0]):
            acc[code_x[t] + code_y] += cx[t] * cy


# ---------------------------------------------------------------------------
# Contractions of the Hu-Meyer product with |r| >= 1 (the r = 0 layer is the
# graded convolution above). For each pair of terms the contraction
# multi-index r runs over 0 < r <= min(alpha, beta) componentwise, in
# odometer order (last coordinate fastest); each state contributes
#   prod_i r_i! C(alpha_i, r_i) C(beta_i, r_i)
# at exponent alpha + beta - 2r. max_r >= 1 caps the total contraction
# order |r|; max_r < 0 means no cap.
# The per-coordinate factor is built by the integer-valued recurrence
# f(r+1) = f(r) * (a-r) * (b-r) / (r+1), exact in float64 for small degrees.
# ---------------------------------------------------------------------------


def _contraction_acc(exp_x, cx, exp_y, cy, strides, max_r, acc):
    nx = cx.shape[0]
    ny = cy.shape[0]
    d = strides.shape[0]
    r = np.zeros(d, dtype=np.int64)
    r_cap = np.zeros(d, dtype=np.int64)
    for t in range(nx):
        for j in range(ny):
            v = cx[t] * cy[j]
            for i in range(d):
                a = exp_x[t, i]
                b = exp_y[j, i]
                m = a if a < b else b
                if max_r >= 0 and m > max_r:
                    m = max_r
                r_cap[i] = m
                r[i] = 0
            r_total = 0
            while True:
                k = d - 1
                while k >= 0 and r[k] == r_cap[k]:
                    r_total -= r[k]
                    r[k] = 0
                    k -= 1
                if k < 0:
                    break
                r[k] += 1
                r_total += 1
                if max_r < 0 or r_total <= max_r:
                    f = 1.0
                    code = 0
                    for i in range(d):
                        a = exp_x[t, i]
                        b = exp_y[j, i]
                        ri = r[i]
                        fi = 1.0
                        for s in range(ri):
                            fi = fi * (a - s) * (b - s) / (s + 1.0)
                        f *= fi
                        code += (a + b - 2 * ri) * strides[i]
                    acc[code] += v * f


def _product_terms(exp_x, cx, exp_y, cy, max_r):
    """Graded convolution plus, unless max_r == 0, the |r| >= 1 contractions."""
    d = exp_x.shape[1]
    if cx.shape[0] == 0 or cy.shape[0] == 0:
        return np.empty((0, d), dtype=np.int64), np.empty(0)
    radix, strides, cells = _grid(exp_x, exp_y)
    acc = np.zeros(cells)
    _convolve_acc(exp_x, cx, exp_y, cy, strides, acc)
    if max_r != 0:
        _contraction_acc(exp_x, cx, exp_y, cy, strides, max_r, acc)
    return _extract(acc, radix)


def convolve_terms(exp_x, cx, exp_y, cy):
    """Graded coefficient convolution of two term tables."""
    return _product_terms(exp_x, cx, exp_y, cy, 0)


def hu_meyer_terms(exp_x, cx, exp_y, cy, max_contraction=-1):
    """Contraction-product term table; max_contraction < 0 means all orders.

    Its contraction-free part is accumulated exactly as in convolve_terms,
    so max_contraction=0 reproduces convolve_terms bit for bit.
    """
    return _product_terms(exp_x, cx, exp_y, cy, int(max_contraction))


# ---------------------------------------------------------------------------
# Batch Hermite-series evaluation. Probabilists' recurrence
#   He_{k+1} = x He_k - k He_{k-1},
# or the overflow-safe normalized variant hat_h_k = He_k / sqrt(k!) with
#   hat_h_{k+1} = (x hat_h_k - sqrt(k) hat_h_{k-1}) / sqrt(k+1),
# in which case `coefs` must already carry the sqrt(alpha!) rescaling.
# Terms are summed ascending in (degree, lex) order for every sample.
# ---------------------------------------------------------------------------


def eval_batch(exp_t, coefs, pts, normalized=False):
    """Evaluate a term table at an (n, d) array of points; returns (n,)."""
    n, d = pts.shape
    out = np.zeros(n)
    if coefs.shape[0] == 0 or n == 0:
        return out
    kmax = exp_t.max(axis=0)
    kcap = int(kmax.max())
    sqrts = np.sqrt(np.arange(kcap + 2, dtype=np.float64))
    chunk = max(1, (1 << 22) // max(1, (kcap + 1) * d))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        x = pts[lo:hi]
        table = np.empty((d, kcap + 1, hi - lo))
        for i in range(d):
            table[i, 0] = 1.0
            if kmax[i] >= 1:
                table[i, 1] = x[:, i]
            if normalized:
                for k in range(1, kmax[i]):
                    table[i, k + 1] = (x[:, i] * table[i, k] - sqrts[k] * table[i, k - 1]) / sqrts[k + 1]
            else:
                for k in range(1, kmax[i]):
                    table[i, k + 1] = x[:, i] * table[i, k] - k * table[i, k - 1]
        v = np.zeros(hi - lo)
        for t in range(coefs.shape[0]):
            p = np.full(hi - lo, coefs[t])
            for i in range(d):
                p = p * table[i, exp_t[t, i]]
            v += p
        out[lo:hi] = v
    return out
