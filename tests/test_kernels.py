"""Kernels: graded convolution and Hu-Meyer products against their definitions, grids, pruning."""

import itertools
import math
import tracemalloc

import numpy as np
import numpy.polynomial.polynomial as P
import pytest

from wickchaos import _kernels
from wickchaos.core import make_expansion, multi_indexes_of_degree, univariate
from wickchaos.limits import rescaled_wick_power
from wickchaos.sampling import sample_batch
from wickchaos.algebra import wick_product


def _random_terms(rng, dim, max_degree=4, terms=6):
    pool = [a for k in range(max_degree + 1) for a in multi_indexes_of_degree(dim, k)]
    picks = sorted(rng.choice(len(pool), size=min(terms, len(pool)), replace=False).tolist())
    exps = np.array([pool[i] for i in picks], dtype=np.int64).reshape(-1, dim)
    return exps, rng.uniform(-1, 1, size=exps.shape[0])


def _reference_convolve(ex, cx, ey, cy):
    """Term-by-term graded convolution, the definition itself: per output
    multi-index, the sum of x_beta y_gamma and the sum of their magnitudes."""
    out = {}
    for a, u in zip(map(tuple, ex.tolist()), cx):
        for b, v in zip(map(tuple, ey.tolist()), cy):
            key = tuple(i + j for i, j in zip(a, b))
            total, scale = out.get(key, (0.0, 0.0))
            out[key] = (total + u * v, scale + abs(u * v))
    return out


def _box(rng, dim, side):
    exps = np.array(list(itertools.product(range(side + 1), repeat=dim)), dtype=np.int64)
    return exps, rng.uniform(-1, 1, size=exps.shape[0])


def test_convolve_dim1_matches_polymul():
    rng = np.random.default_rng(4)
    for nx, ny in ((1, 1), (1, 9), (7, 3), (40, 40), (65, 130)):
        cx = rng.uniform(-1, 1, nx)
        cy = rng.uniform(-1, 1, ny)
        exps, vals = _kernels.convolve_terms(
            np.arange(nx).reshape(-1, 1), cx, np.arange(ny).reshape(-1, 1), cy
        )
        expected = P.polymul(cx, cy)
        scale = P.polymul(np.abs(cx), np.abs(cy))
        assert exps[:, 0].tolist() == list(range(nx + ny - 1))
        assert np.all(np.abs(vals - expected) <= 1e-14 * scale)


def test_convolve_dense_and_sparse_paths_match_definition(monkeypatch):
    rng = np.random.default_rng(5)
    calls = []
    convolve = np.convolve
    monkeypatch.setattr(
        _kernels.np, "convolve", lambda a, b: calls.append(1) or convolve(a, b)
    )
    for dim in (2, 3):
        dense = (_box(rng, dim, 3), _box(rng, dim, 2))
        sparse_exps = np.zeros((3, dim), dtype=np.int64)
        sparse_exps[1, 0] = 40
        sparse_exps[2, -1] = 25
        sparse = ((sparse_exps, rng.uniform(-1, 1, 3)), _random_terms(rng, dim, max_degree=9))
        for (ex, cx), (ey, cy), uses_convolve in ((*dense, True), (*sparse, False)):
            calls.clear()
            exps, vals = _kernels.convolve_terms(ex, cx, ey, cy)
            assert bool(calls) == uses_convolve
            expected = _reference_convolve(ex, cx, ey, cy)
            got = dict(zip(map(tuple, exps.tolist()), vals))
            assert got.keys() == {k for k, (v, _) in expected.items() if v != 0.0}
            for key, value in got.items():
                total, scale = expected[key]
                assert abs(value - total) <= 1e-14 * scale


def _sparse_inputs(rng, nx, ny):
    """Distinct, widely spread codes on each side whose sums collide across x rows."""
    code_x = np.sort(rng.choice(400, size=nx, replace=False)) * 50
    code_y = np.sort(rng.choice(400, size=ny, replace=False)) * 50
    return code_x, rng.uniform(-1, 1, nx), code_y, rng.uniform(-1, 1, ny)


def _per_term_loop(code_x, cx, code_y, cy, acc):
    for t in range(code_x.shape[0]):
        acc[code_x[t] + code_y] += cx[t] * cy


def test_sparse_branch_is_the_per_term_loop_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(31)
    monkeypatch.setattr(_kernels.np, "convolve", None)  # the dense branch must not run
    default = _kernels._SCATTER_PAIRS
    for nx, ny in ((1, 1), (3, 40), (40, 40), (97, 13)):
        code_x, cx, code_y, cy = _sparse_inputs(rng, nx, ny)
        sums = (code_x[:, None] + code_y).ravel()
        assert np.unique(sums).shape[0] < sums.shape[0] or nx == 1
        start = rng.uniform(-1, 1, 40000)  # a nonzero accumulator, as in the contraction layers
        expected = start.copy()
        _per_term_loop(code_x, cx, code_y, cy, expected)
        # one chunk; chunks of two x rows, the last one partial; and one row
        # per chunk when a row alone exceeds the chunk: the same bits
        for pairs in (default, 2 * ny + 1, 1):
            monkeypatch.setattr(_kernels, "_SCATTER_PAIRS", pairs)
            acc = start.copy()
            _kernels._convolve_acc(code_x, cx, code_y, cy, acc)
            assert np.array_equal(acc, expected)


def test_square_takes_the_bits_of_two_separate_tables(monkeypatch):
    # the same array objects on both sides (the dyadic chain's squares) share
    # one grid maximum, one code vector and one dense vector: the bits of the
    # same tables passed as copies, on the dense and on the sparse branch
    rng = np.random.default_rng(41)
    dense_calls = []
    convolve = np.convolve
    monkeypatch.setattr(_kernels.np, "convolve", lambda a, b: dense_calls.append(a is b) or convolve(a, b))
    for dim in (1, 2, 3):
        sparse_exps = np.zeros((3, dim), dtype=np.int64)
        sparse_exps[1, 0] = 50
        sparse_exps[2, -1] = 37
        for (exps, coeffs), dense in ((_box(rng, dim, 3), True), ((sparse_exps, rng.uniform(-1, 1, 3)), False)):
            for product in (_kernels.convolve_terms, _kernels.hu_meyer_terms):
                dense_calls.clear()
                square = product(exps, coeffs, exps, coeffs)
                if product is _kernels.convolve_terms:
                    assert dense_calls == ([True] if dense else [])
                copies = product(exps, coeffs, exps.copy(), coeffs.copy())
                assert np.array_equal(square[0], copies[0])
                assert square[1].tobytes() == copies[1].tobytes()
                # shared exponents with other coefficients (x and 2x) share only the codes
                other = 2.0 * coeffs
                shared = product(exps, coeffs, exps, other)
                separate = product(exps, coeffs, exps.copy(), other)
                assert shared[1].tobytes() == separate[1].tobytes()


def _odometer_hu_meyer(ex, cx, ey, cy, max_r):
    """Hu-Meyer product by walking, for each pair of terms, every contraction
    multi-index 0 <= r <= min(alpha, beta) in odometer order (last coordinate
    fastest); each state adds prod_i r_i! C(a_i, r_i) C(b_i, r_i) x_alpha y_beta
    at alpha + beta - 2r, unless |r| > max_r >= 0. The per-coordinate factor is
    built by the recurrence f(r+1) = f(r) (a-r) (b-r) / (r+1). Returns, per
    output multi-index, the sum and the sum of magnitudes."""
    out = {}
    d = ex.shape[1]
    for alpha, u in zip(ex.tolist(), cx):
        for beta, v in zip(ey.tolist(), cy):
            r_cap = [min(a, b) for a, b in zip(alpha, beta)]
            if max_r >= 0:
                r_cap = [min(m, max_r) for m in r_cap]
            r = [0] * d
            while True:
                if max_r < 0 or sum(r) <= max_r:
                    f = 1.0
                    for a, b, ri in zip(alpha, beta, r):
                        for s in range(ri):
                            f = f * (a - s) * (b - s) / (s + 1.0)
                    key = tuple(a + b - 2 * ri for a, b, ri in zip(alpha, beta, r))
                    total, scale = out.get(key, (0.0, 0.0))
                    out[key] = (total + u * v * f, scale + abs(u * v * f))
                k = d - 1
                while k >= 0 and r[k] == r_cap[k]:
                    r[k] = 0
                    k -= 1
                if k < 0:
                    break
                r[k] += 1
    return out


def _assert_matches(exps, vals, expected):
    got = dict(zip(map(tuple, exps.tolist()), vals))
    assert got.keys() == {k for k, (v, _) in expected.items() if v != 0.0}
    for key, value in got.items():
        total, scale = expected[key]
        assert abs(value - total) <= 1e-14 * scale


def test_hu_meyer_matches_odometer():
    rng = np.random.default_rng(6)
    for dim, side in ((1, 7), (2, 3), (3, 2)):
        sparse_exps = np.zeros((3, dim), dtype=np.int64)
        sparse_exps[1, 0] = 30
        sparse_exps[2, -1] = 12
        inputs = (
            (_box(rng, dim, side), _box(rng, dim, side - 1)),
            ((sparse_exps, rng.uniform(-1, 1, 3)), _random_terms(rng, dim, max_degree=9)),
        )
        for (ex, cx), (ey, cy) in inputs:
            for cap in (None, 0, 1, 2, 3):
                max_r = -1 if cap is None else cap
                exps, vals = _kernels.hu_meyer_terms(ex, cx, ey, cy, max_r)
                _assert_matches(exps, vals, _odometer_hu_meyer(ex, cx, ey, cy, max_r))


def test_hu_meyer_sparse_and_high_degree_cases():
    one = np.ones(1)
    axes = np.array([[50, 0, 0], [0, 50, 0], [0, 0, 50]])
    cases = (
        (axes, np.ones(3), axes, np.ones(3)),  # (He_50(xi_1) + He_50(xi_2) + He_50(xi_3))^2
        (np.array([[200]]), one, np.array([[3]]), one),  # past 170!, r <= 3
        (np.array([[1]]), one, np.array([[1]]), one),  # He1 He1 = He2 + 1
    )
    for ex, cx, ey, cy in cases:
        exps, vals = _kernels.hu_meyer_terms(ex, cx, ey, cy)
        _assert_matches(exps, vals, _odometer_hu_meyer(ex, cx, ey, cy, -1))
    exps, vals = _kernels.hu_meyer_terms(np.array([[200]]), one, np.array([[3]]), one)
    assert exps[:, 0].tolist() == [197, 199, 201, 203]
    assert vals.tolist() == [7880400.0, 119400.0, 600.0, 1.0]


def test_grid_cap_guard():
    big = make_expansion(3, [((400, 400, 400), 1.0), ((0, 0, 0), 1.0)])
    with pytest.raises(ValueError, match="grid"):
        wick_product(big, big)


def test_exact_zero_coefficients_are_pruned():
    out = wick_product(univariate([1.0, 1.0]), univariate([1.0, -1.0]))
    assert out.n_terms == 2  # the degree-1 coefficient cancels exactly
    assert out.coeff((1,)) == 0.0
    # below PRUNE_EPS: the kernel returns the cell 1e-320, the expansion drops it
    zero = np.zeros((1, 1), dtype=np.int64)
    tiny = np.array([1e-160])
    exps, vals = _kernels.convolve_terms(zero, tiny, zero, tiny)
    assert exps.tolist() == [[0]] and vals.tolist() == [1e-160 * 1e-160]
    assert wick_product(univariate([1e-160]), univariate([1e-160])).n_terms == 0


def _reference_eval(exp_t, coefs, pts, normalized):
    """Per point, per term c * prod_i He_{e_i}(x_i) from the scalar recurrence,
    summed in table order: the float operations eval_batch promises."""
    out = []
    for x in pts.tolist():
        v = 0.0
        for row, c in zip(exp_t.tolist(), coefs.tolist()):
            p = c
            for xi, e in zip(x, row):
                prev, cur = 1.0, xi
                for k in range(1, e):
                    if normalized:
                        prev, cur = cur, (xi * cur - math.sqrt(k) * prev) / math.sqrt(k + 1)
                    else:
                        prev, cur = cur, xi * cur - k * prev
                p = p * (1.0 if e == 0 else cur)
            v += p
        out.append(v)
    return np.array(out)


def test_eval_batch_is_the_scalar_recurrence_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(23)
    for exp_t, normalized in (
        (np.array([[0, 0], [1, 0], [0, 2], [3, 1]]), False),
        (np.array([[0, 0, 0], [2, 0, 1], [0, 4, 0], [1, 1, 1]]), False),
        (np.array([[0], [1], [35], [40]]), True),
        # dim 1 normalized with pruned degrees, the three-row path across gaps
        (np.array([[0], [2], [3], [9], [31], [44]]), True),
        # dim 1 out of degree order: added once the largest row so far exists
        (np.array([[5], [2], [7]]), False),
        (np.array([[12]]), False),
        # the (1, 1) term's degree 2 exceeds every axis maximum 1
        (np.array([[0, 0], [1, 0], [0, 1], [1, 1]]), False),
        # sorted by largest exponent, yet (1, 4) needs row 1 after row 4 is built
        (np.array([[0, 1], [4, 0], [1, 4]]), False),
    ):
        coefs = rng.uniform(-1, 1, exp_t.shape[0])
        pts = rng.standard_normal((300, exp_t.shape[1]))
        expected = _reference_eval(exp_t, coefs, pts, normalized)
        assert np.array_equal(_kernels.eval_batch(exp_t, coefs, pts, normalized), expected)
        # many small chunks, the last one partial: same bits
        with monkeypatch.context() as m:
            m.setattr(_kernels, "EVAL_CHUNK_CELLS", 7 * 41 * exp_t.shape[1])
            assert np.array_equal(_kernels.eval_batch(exp_t, coefs, pts, normalized), expected)
        with monkeypatch.context() as m:
            m.setattr(_kernels, "EVAL_CHUNK_POINTS", 64)
            assert np.array_equal(_kernels.eval_batch(exp_t, coefs, pts, normalized), expected)


# dim 2 past the normalized switchover: every row of the recurrence is kept
_FULL_TABLE = np.array([[0, 0], [1, 0], [0, 1], [2, 3], [31, 2], [5, 34]])


def test_eval_batch_chunks_are_the_single_pass(monkeypatch):
    rng = np.random.default_rng(29)
    coefs = rng.uniform(-1, 1, _FULL_TABLE.shape[0])
    pts = rng.standard_normal((350, 2))
    expected = _kernels.eval_batch(_FULL_TABLE, coefs, pts, True)  # one chunk
    assert np.array_equal(expected, _reference_eval(_FULL_TABLE, coefs, pts, True))
    # 35 rows on 2 axes: chunks of 100 points, the fourth one partial
    monkeypatch.setattr(_kernels, "EVAL_CHUNK_CELLS", 35 * 2 * 100)
    assert np.array_equal(_kernels.eval_batch(_FULL_TABLE, coefs, pts, True), expected)


def test_eval_batch_holds_one_table(monkeypatch):
    chunk = 2000
    monkeypatch.setattr(_kernels, "EVAL_CHUNK_CELLS", 35 * 2 * chunk)
    rng = np.random.default_rng(30)
    coefs = rng.uniform(-1, 1, _FULL_TABLE.shape[0])
    pts = rng.standard_normal((2 * chunk + 1500, 2))  # three chunks, the last one partial
    tracemalloc.start()
    try:
        _kernels.eval_batch(_FULL_TABLE, coefs, pts, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * (35 * 2 * chunk + pts.shape[0])  # one table plus the output


# ---------------------------------------------------------------------------
# The certified exit: a chunk stops once every remaining term provably rounds
# away, so the sums keep the bits of the full loop.
# ---------------------------------------------------------------------------


class _RowCount:
    """Stands in for numpy in _kernels, counting np.subtract calls: one per recurrence row built."""

    def __init__(self):
        self.rows = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def subtract(self, *args, **kwargs):
        self.rows += 1
        return np.subtract(*args, **kwargs)


def _decaying_table(rng, dim, top, parity, normalized, size=None):
    """size random alpha with |alpha| <= top (all of them if size is None; only |alpha|
    of the given parity if one is set) in degree order, with coefficients h^|alpha| /
    alpha! (h^|alpha| / sqrt(alpha!) when normalized) of random signs, as in a rescaled
    Wick power. Without a parity the constant is small, so the sums cross zero."""
    exps = [a for a in itertools.product(range(top + 1), repeat=dim)
            if sum(a) <= top and parity in (None, sum(a) % 2)]
    exps.sort(key=lambda a: (sum(a), a))
    if size is not None:  # keep the terms of degree <= 1
        low = sum(sum(a) <= 1 for a in exps)
        exps = exps[:low] + sorted((exps[i] for i in rng.choice(range(low, len(exps)), size - low, replace=False)),
                                   key=lambda a: (sum(a), a))
    h = rng.uniform(0.1, 0.5)
    fact = [math.prod(math.factorial(e) for e in a) for a in exps]
    coefs = [h ** sum(a) / (math.sqrt(f) if normalized else f) for a, f in zip(exps, fact)]
    coefs = np.array(coefs) * rng.choice([-1.0, 1.0], len(exps))
    coefs[0] *= 0.05 if parity is None else 1.0
    return np.array(exps), coefs


def _near_zero(exp_t, coefs, normalized):
    """A point on the axis of the first-order term exp_t[1] where the sum is near 0 (secant steps)."""
    point = np.zeros((1, exp_t.shape[1]))
    axis = int(np.argmax(exp_t[1]))

    def f(t):
        point[0, axis] = t
        return _kernels.eval_batch(exp_t, coefs, point, normalized)[0]

    a, b = 0.0, -coefs[0] / coefs[1]
    for _ in range(10):
        fa, fb = f(a), f(b)
        if fa == fb:
            break
        a, b = b, b - fb * (b - a) / (fb - fa)
    f(b)
    return point[0]


def test_eval_batch_exit_keeps_the_bits_of_the_full_loop(monkeypatch):
    rng = np.random.default_rng(37)
    count = _RowCount()
    monkeypatch.setattr(_kernels, "np", count)
    fired = 0
    for dim, normalized, parity in itertools.product((1, 2, 3), (False, True), (None, 0, 1)):
        top, size = {1: (40 if normalized else 30, None), 2: (40, 100), 3: (30, 100)}[dim]
        exp_t, coefs = _decaying_table(rng, dim, top, parity, normalized, size)
        pts = 1.5 * rng.standard_normal((64, dim))
        pts[:6] = 0.0
        pts[6, 0] = 40.0 if not normalized else -12.0  # far out: its chunk cannot stop early
        if parity is None:
            pts[12] = _near_zero(exp_t, coefs, normalized)  # its chunk stops late, if at all
        expected = _reference_eval(exp_t, coefs, pts, normalized)
        assert np.array_equal(_kernels.eval_batch(exp_t, coefs, pts, normalized), expected)
        one = pts[7:8]
        assert np.array_equal(_kernels.eval_batch(exp_t, coefs, one, normalized),
                              _reference_eval(exp_t, coefs, one, normalized))
        # chunks of 8 points: the far point and the zeros keep only their own chunk from stopping
        with monkeypatch.context() as m:
            m.setattr(_kernels, "EVAL_CHUNK_POINTS", 8)
            count.rows = 0
            assert np.array_equal(_kernels.eval_batch(exp_t, coefs, pts, normalized), expected)
        fired += count.rows < 8 * sum(max(e - 1, 0) for e in exp_t.max(axis=0))
    assert fired >= 9  # the exit is exercised: in at least half the tables a chunk stops early


def test_eval_batch_exit_threshold_is_a_quarter_spacing():
    # One point at 40, where He_3's majorant is within 0.4 % of He_3(40). The tail
    # term t is below half a spacing of v = 1, yet above a quarter: 1 + t rounds to
    # 1 - 2^-53, the float below 1, whose gap is half as wide. So the exit must not
    # fire after the constant, although the bound on t is below one spacing of 1.
    exp_t = np.array([[0], [3]])
    coefs = np.array([1.0, -1.5 * 2.0**-54 / 63880.0])  # He_3(40) = 63880
    pts = np.array([[40.0]])
    expected = _reference_eval(exp_t, coefs, pts, False)
    assert expected.tolist() == [1.0 - 2.0**-53]
    assert np.array_equal(_kernels.eval_batch(exp_t, coefs, pts, False), expected)


def test_eval_batch_exit_fires_on_the_dist_default_and_not_at_a_zero_sum(monkeypatch):
    count = _RowCount()
    monkeypatch.setattr(_kernels, "np", count)
    # dist's default input 1 + 0.5 He1 at n = 64: degree 64, normalized recurrence
    r = rescaled_wick_power(univariate([1.0, 0.5]), 64)
    values = sample_batch(r, 3000, seed=42).values
    assert r.max_degree == 64 and 0 < count.rows < r.max_degree - 1
    with monkeypatch.context() as m:  # the full loop: no bound, no exit
        m.setattr(_kernels, "_tail_bounder", lambda *args: None)
        count.rows = 0
        assert np.array_equal(values, sample_batch(r, 3000, seed=42).values)
        assert count.rows == r.max_degree - 1
    # an odd table is 0 at x = 0, so that chunk builds every row
    exp_t = np.arange(1, 64, 2)[:, None]
    coefs = 0.1 ** np.arange(32)
    for pts, full in ((np.array([[0.0], [0.3]]), True), (np.array([[0.1], [0.3]]), False)):
        count.rows = 0
        out = _kernels.eval_batch(exp_t, coefs, pts, True)
        assert (count.rows == 62) == full
        assert np.array_equal(out, _reference_eval(exp_t, coefs, pts, True))
    # the bounds' sum overflows, the value does not: no warning, and no exit
    exp_t, coefs, pts = np.array([[0], [1]]), np.array([1e308, -1e308]), np.array([[1.0]])
    assert _kernels.eval_batch(exp_t, coefs, pts).tolist() == [0.0]
    assert _reference_eval(exp_t, coefs, pts, False).tolist() == [0.0]
