"""Hot numeric kernels: graded convolution, contraction products, Hermite evaluation.

One numpy implementation per kernel, so every result is a deterministic
function of its inputs. The module holds only grids, convolutions and
recurrences; the canonical form of a term table (pruning and ordering) is
wickchaos.core's.

Term layout convention: an expansion with m terms over d coordinates is a
pair (exponents, coeffs) with exponents an (m, d) int64 array and coeffs an
(m,) float64 array. Term tables go in; the products return the nonzero cells
of their accumulator in code order, for the caller to canonicalize.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import numpy as np

# Dense accumulator cap: 2**26 float64 cells = 512 MiB.
GRID_CELL_CAP = 1 << 26

# np.convolve over the dense code ranges 0..max code does span_x * span_y
# multiply-adds in C, against nx * ny in the scatter-add; it is used while
# the ranges are within this factor of dense. Sparse inputs such as 1 + He_500
# keep the scatter-add.
_DENSE_FACTOR = 8

# Term pairs per np.add.at call of the sparse branch (about 1.5 MB of temporaries).
_SCATTER_PAIRS = 1 << 16

# Hermite table cells per eval_batch chunk, and at most this many points, so
# the vectors one recurrence step touches stay in a core's L2 cache.
EVAL_CHUNK_CELLS = 1 << 20
EVAL_CHUNK_POINTS = 1 << 15


def _grid(exp_x, exp_y):
    """Mixed-radix layout of the sumset grid for a pair of term tables."""
    top_x = exp_x.max(axis=0)
    radix = top_x + (top_x if exp_y is exp_x else exp_y.max(axis=0)) + 1
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
    """Nonzero cells of a dense accumulator as terms, in code order (lex: axis 0 most significant)."""
    codes = np.flatnonzero(acc)
    vals = acc[codes]
    exps = np.empty((codes.shape[0], radix.shape[0]), dtype=np.int64)
    rem = codes
    for i in range(radix.shape[0] - 1, 0, -1):
        rem, exps[:, i] = np.divmod(rem, radix[i])
    exps[:, 0] = rem  # codes < cells, so what remains is below radix[0]
    return exps, vals


# ---------------------------------------------------------------------------
# Graded convolution: out[alpha] = sum_{beta+gamma=alpha} x[beta] * y[gamma].
# The grid radix on every axis exceeds max_x + max_y, so mixed-radix codes add
# without carries: code(beta) + code(gamma) = code(beta + gamma). A 1-D
# convolution of the two tables scattered densely by code therefore lands every
# product in its cell and nothing else there. A square (the same arrays on both
# sides) builds its maximum, codes and dense vector once.
# ---------------------------------------------------------------------------


def _convolve_acc(code_x, cx, code_y, cy, acc):
    span_x = int(code_x.max()) + 1
    span_y = span_x if code_y is code_x else int(code_y.max()) + 1
    if span_x * span_y <= _DENSE_FACTOR * code_x.shape[0] * code_y.shape[0]:
        dense_x = np.bincount(code_x, weights=cx, minlength=span_x)
        dense_y = dense_x if code_y is code_x and cy is cx else np.bincount(code_y, weights=cy, minlength=span_y)
        acc[: span_x + span_y - 1] += np.convolve(dense_x, dense_y)
    else:
        # unbuffered, so every product lands in (x row, y row) order
        step = max(1, _SCATTER_PAIRS // code_y.shape[0])
        for lo in range(0, code_x.shape[0], step):
            pairs = code_x[lo : lo + step, None] + code_y
            np.add.at(acc, pairs.ravel(), np.multiply.outer(cx[lo : lo + step], cy).ravel())


# ---------------------------------------------------------------------------
# Hu-Meyer product in derivative form: X . Y = sum_r (1/r!) D^r X ⋄ D^r Y,
# with D^r H_alpha = alpha!/(alpha - r)! H_{alpha - r} for alpha >= r
# componentwise (and 0 otherwise). Per coordinate this is
#   He_a He_b = sum_r r! C(a, r) C(b, r) He_{a+b-2r},
# so each contraction layer r is one graded convolution of the two derivative
# tables. Their codes are code(alpha) - code(r) on the same carry-free grid.
# The r = 0 layer is the Wick product itself. Only the r that some term of
# each side dominates contribute: the intersection of the two supports'
# downsets.
# ---------------------------------------------------------------------------


def _downset(exps, top):
    """Boolean grid over 0..top marking every r <= some row of exps."""
    mark = np.zeros(top + 1, dtype=bool)
    for row in np.minimum(exps, top).tolist():
        mark[tuple(slice(e + 1) for e in row)] = True
    return mark


def _falling_factorials(a_max, r_max):
    """table[a, r] = a!/(a - r)! for r <= a, as a product of integers a - s.

    Exact while it stays below 2**53; +inf where it overflows.
    """
    steps = np.maximum(np.arange(a_max + 1.0)[:, None] - np.arange(r_max), 0.0)
    table = np.ones((a_max + 1, r_max + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumprod(steps, axis=1, out=table[:, 1:])
    return table


def _contraction_acc(exp_x, cx, exp_y, cy, strides, max_r, acc):
    """Add the layers 1 <= |r| (<= max_r unless max_r < 0) to acc."""
    top_x = exp_x.max(axis=0)
    top_y = exp_y.max(axis=0)
    top = np.minimum(top_x, top_y)
    if max_r > 0:
        top = np.minimum(top, max_r)
    rs = np.argwhere(_downset(exp_x, top) & _downset(exp_y, top))[1:]
    if max_r > 0:
        rs = rs[rs.sum(axis=1) <= max_r]
    falling = _falling_factorials(int(max(top_x.max(), top_y.max())), int(top.max()))
    code_x = exp_x @ strides
    code_y = exp_y @ strides
    r_facts = falling[rs, rs].prod(axis=1)  # falling[s, s] = s!
    for r, code_r, r_fact in zip(rs, rs @ strides, r_facts):
        kx = (exp_x >= r).all(axis=1)
        ky = (exp_y >= r).all(axis=1)
        wx = cx[kx] * (falling[exp_x[kx], r].prod(axis=1) / r_fact)
        wy = cy[ky] * falling[exp_y[ky], r].prod(axis=1)
        _convolve_acc(code_x[kx] - code_r, wx, code_y[ky] - code_r, wy, acc)


def _product_terms(exp_x, cx, exp_y, cy, max_r):
    """Graded convolution plus, unless max_r == 0, the |r| >= 1 contractions."""
    d = exp_x.shape[1]
    if cx.shape[0] == 0 or cy.shape[0] == 0:
        return np.empty((0, d), dtype=np.int64), np.empty(0)
    radix, strides, cells = _grid(exp_x, exp_y)
    acc = np.zeros(cells)
    code_x = exp_x @ strides
    _convolve_acc(code_x, cx, code_x if exp_y is exp_x else exp_y @ strides, cy, acc)
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
# Terms are summed in table order for every sample. Step k builds row k of
# every axis, then adds the prefix of the table whose rows now all exist.
# When every term uses only the row just built (dim 1 in degree order),
# three rows of the recurrence are kept instead of the whole table.
# A chunk stops once no remaining term can change a bit of its sums: run on
# X = max|x| with all signs positive, each step scaled by 1 + 2^-49 and raised
# by 2^-1022, the loop's operations bound every row and term at |x| <= X, their
# rounding included (Higham, Accuracy and Stability of Numerical Algorithms,
# 2002, 2.2). A term below spacing(min|v|)/4 rounds back to every v. A zero or
# NaN sum, or a non-finite bound, never passes the test.
# ---------------------------------------------------------------------------


def _tail_bounder(exp_t, coefs, kmax, sqrts, ends):
    """bounds(row 1 of a chunk): per step k, a bound on |each term added after it|, and a first threshold."""
    grow, tiny = 1.0 + 2.0**-49, 2.0**-1022
    # step k of a majorant is (X m[k-1] + w m[k-2]) * g + tiny: the loop's w, and g = grow / sqrt(k)
    steps = [(sqrts[k - 1], grow / sqrts[k]) if sqrts else (k - 1, grow) for k in range(2, max(kmax) + 1)]

    def bounds(xs):
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN bounds never pass the test
            b = np.abs(coefs)
            for x, col in zip(xs, exp_t.T):
                big = float(max(x.max(), -x.min()))
                m = [1.0, big]
                for w, g in steps:
                    m.append((big * m[-1] + w * m[-2]) * g + tiny)
                b = b * np.array(m)[col] * grow + tiny
            # inf: no check after the last step; as every |v| < 2 * sum(b), no exit threshold exceeds the first
            return np.append(np.maximum.accumulate(b[::-1])[::-1], np.inf)[ends].tolist(), np.spacing(2 * b.sum()) / 4

    return bounds


def eval_batch(exp_t, coefs, pts, normalized=False):
    """Evaluate a term table at an (n, d) array of points; returns (n,)."""
    n, d = pts.shape
    out = np.zeros(n)
    if coefs.shape[0] == 0 or n == 0:
        return out
    rows = exp_t.tolist()
    kmax = list(map(max, zip(*rows)))
    step = list(accumulate(map(max, rows), max))  # the step that adds each term
    kcap = step[-1]
    ends = [bisect_right(step, k) for k in range(kcap + 1)]
    # three rows when no term needs an older row; else kcap >= 1, so nrows >= 2
    nrows = 3 if list(map(min, rows)) == step else kcap + 1
    sqrts = np.sqrt(np.arange(kcap + 1, dtype=np.float64)).tolist() if normalized else None
    terms = list(zip(rows, coefs.tolist()))
    # a table whose every term is added at the last step has nothing to skip
    bounds = _tail_bounder(exp_t, coefs, kmax, sqrts, ends) if kcap > 0 and ends[-2] > 0 else None
    chunk = max(1, min(n, EVAL_CHUNK_POINTS, EVAL_CHUNK_CELLS // (nrows * d)))
    # one table and scratch row for every chunk; the last chunk takes views
    full_table, full_tmp = np.empty((d, nrows, chunk)), np.empty(chunk)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        table, tmp, v = full_table[:, :, : hi - lo], full_tmp[: hi - lo], out[lo:hi]
        table[:, 0] = 1.0
        table[:, 1] = pts[lo:hi].T
        tail, q = bounds(table[:, 1]) if bounds else (None, None)
        axes = [(table[i], pts[lo:hi, i], kmax[i]) for i in range(d)]
        for k, (j, end) in enumerate(zip([0] + ends, ends)):
            for he, x, top in axes:
                if 2 <= k <= top:
                    cur = he[k % nrows]
                    np.multiply(x, he[(k - 1) % nrows], out=cur)
                    np.multiply(sqrts[k - 1] if normalized else k - 1, he[(k - 2) % nrows], out=tmp)
                    np.subtract(cur, tmp, out=cur)
                    if normalized:
                        np.divide(cur, sqrts[k], out=cur)
            for row, c in terms[j:end]:
                np.multiply(table[0, row[0] % nrows], c, out=tmp)
                for i in range(1, d):
                    tmp *= table[i, row[i] % nrows]
                v += tmp
            if bounds and tail[k] < q:  # q: the last threshold found
                q = np.spacing(np.abs(v, out=tmp).min()) / 4
                if tail[k] < q:
                    break
    return out
