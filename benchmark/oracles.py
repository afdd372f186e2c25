"""Per-job correctness oracles, run after the timed loop has ended.

Each oracle checks one distinct job output on a path that does not share
the program's own enumerator or evaluator:

- converge, ``a + b*He1`` family: the mpmath closed form
  ``sum_k k! (C(n,k) (h/n)^k - h^k/k!)^2 + sum_{k>n} h^(2k)/k!``, and
  ``1 + He1`` at n = 512 pinned to the README value.
- converge, any other input: the rescaled power R is taken from the
  program, checked against the closed-form S-transform
  ``(1 + sum_j c_j n^-|b_j| t^b_j)^n`` at two points, and then
  ``||R - E(h)||^2 = sum a! r^2 - 2 sum r h^a + e^|h|^2`` is summed in
  mpmath at 50 digits.
- converge, every row: ``bound >= error``.
- dist: a prefix of the samples against ``hermeval``/``hermeval2d`` of an
  independently convolved R at the same seeded points; KS statistics
  recomputed with ``scipy.stats.kstest``; the reported fractions
  recomputed from the CSV.
- suite: the suite reports ``passed``.
- product: every coefficient against numpy's ``hermemul`` linearization
  applied axis by axis, and ``(X*Y)(xi) = X(xi) * Y(xi)`` at seeded
  points. Evaluating a degree-78 Hermite series at |xi| <= 2 cancels about
  eleven digits, so both checks are scaled by the same sums taken over
  |x| and |y|, which bound the rounding.

A check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import zlib

import mpmath
import numpy as np
import scipy.signal
import scipy.stats
from numpy.polynomial import hermite_e

import workloads

mp = mpmath.mp
mp.dps = 50

ERROR_RTOL = 1e-9        # reported error against its 50-digit value
S_TRANSFORM_RTOL = 1e-11  # of the absolute-value majorant of the S-transform
SAMPLE_RTOL = 1e-11      # of max(1, |value|)
KS_ATOL = 1e-12
PRODUCT_RTOL = 1e-12     # of the product of |x| and |y| (coefficients and values)
SAMPLE_PREFIX = 2000


def _normalized_terms(job):
    """(mean, [(alpha, c / mean), ...]) over the non-constant terms, in mpmath."""
    zero = (0,) * job.dim
    mean = mp.mpf(dict(job.terms)[zero])
    return mean, [(a, mp.mpf(c) / mean) for a, c in job.terms if tuple(a) != zero]


def _kernel(job):
    h = [mp.zero] * job.dim
    for a, c in _normalized_terms(job)[1]:
        if sum(a) == 1:
            h[list(a).index(1)] = c
    return h


def family_error(h, n: int):
    """Closed-form ||Gamma(1/n)(1 + h He1)^{<>n} - E(h)|| for scalar h."""
    h = mp.mpf(h)
    total = mp.zero
    binom_term = mp.one   # C(n,k) (h/n)^k
    exp_term = mp.one     # h^k / k!
    fact = mp.one         # k!
    for k in range(n + 1):
        total += fact * (binom_term - exp_term) ** 2
        binom_term *= mp.mpf(n - k) / (k + 1) * h / n
        exp_term *= h / (k + 1)
        fact *= k + 1
    # tail sum_{k>n} h^(2k)/k!, summed until terms are below 1e-60 of it
    term = mp.one
    for k in range(1, n + 1):
        term *= h * h / k
    tail = mp.zero
    k = n + 1
    while True:
        term *= h * h / k
        tail += term
        k += 1
        if term <= tail * mp.mpf("1e-60") or term == 0:
            break
    return mp.sqrt(total + tail)


def _s_transform_closed(terms, n, t, absolute=False):
    s = mp.one
    for a, c in terms:
        mono = mp.one
        for ti, e in zip(t, a):
            mono *= ti ** e
        s += (abs(c) * abs(mono) if absolute else c * mono) / mp.mpf(n) ** sum(a)
    return s ** n


def _general_expected(job, wc, n, t):
    """Returns (expected error, [problems]) from the program's R at power n."""
    problems = []
    _, terms = _normalized_terms(job)
    h = _kernel(job)
    r = wc.rescaled_wick_power(wc.make_expansion(job.dim, job.terms), n)
    exps = r.exponents.tolist()
    coeffs = r.coeffs.tolist()
    kmax = max((max(row) for row in exps), default=0)
    fac = [mp.factorial(k) for k in range(kmax + 1)]
    hp = [[hi ** k for k in range(kmax + 1)] for hi in h]
    tp = [[ti ** k for k in range(kmax + 1)] for ti in t]
    s_norm = s_h = s_t = mp.zero
    for row, c in zip(exps, coeffs):
        c = mp.mpf(c)
        w = ph = pt = mp.one
        for i, e in enumerate(row):
            w *= fac[e]
            ph *= hp[i][e]
            pt *= tp[i][e]
        s_norm += w * c * c
        s_h += c * ph
        s_t += c * pt
    for label, point, value in (("h1", h, s_h), ("t", t, s_t)):
        closed = _s_transform_closed(terms, n, point)
        scale = _s_transform_closed(terms, n, point, absolute=True)
        if abs(value - closed) > S_TRANSFORM_RTOL * scale:
            problems.append(f"n={n}: S-transform of R at {label} is {mp.nstr(value, 17)}, "
                            f"closed form {mp.nstr(closed, 17)}")
    dist_sq = s_norm - 2 * s_h + mp.exp(sum(hi * hi for hi in h))
    return mp.sqrt(max(dist_sq, mp.zero)), problems


def _read_converge_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    if header != ["n", "error", "bound", "norm_gamma", "rate_running"]:
        raise ValueError(f"unexpected header {header}")
    return [(int(r[0]), float(r[1]), float(r[2])) for r in body]


def check_converge(job, outdir, wc):
    rows = _read_converge_csv(os.path.join(outdir, "converge.csv"))
    problems = []
    ns = [2 ** k for k in range(1, job.params["n_max"].bit_length())]
    if [n for n, _, _ in rows] != ns:
        return [f"n schedule {[n for n, _, _ in rows]} != {ns}"]
    rng = np.random.default_rng(zlib.crc32(job.key.encode()))
    t = [mp.mpf(float(v)) for v in rng.uniform(-1.0, 1.0, job.dim)]
    for n, error, bound in rows:
        if not bound >= error:
            problems.append(f"n={n}: bound {bound!r} < error {error!r}")
        if job.params.get("family"):
            expected = family_error(_kernel(job)[0], n)
        else:
            expected, found = _general_expected(job, wc, n, t)
            problems.extend(found)
        if abs(mp.mpf(error) - expected) > ERROR_RTOL * expected:
            problems.append(f"n={n}: error {error!r}, 50-digit value {mp.nstr(expected, 17)}")
        if job.key == "c1d-ref" and n == 512:
            pinned = mp.mpf(workloads.REFERENCE_ERROR_512)
            if not 0 <= expected - pinned < mp.mpf("1e-16"):
                problems.append(f"closed form {mp.nstr(expected, 20)} != README {pinned}")
            if abs(error - float(pinned)) > 1e-12 * float(pinned):
                problems.append(f"n=512: error {error!r} != README {workloads.REFERENCE_ERROR_512}")
    return problems


def _dense_rescaled_power(job, n):
    """(Gamma(1/n) X/E[X])^{<>n} as a dense array, by direct convolution."""
    deg = max(sum(a) for a, _ in job.terms)
    base = np.zeros((deg + 1,) * job.dim)
    mean = dict(job.terms)[(0,) * job.dim]
    for a, c in job.terms:
        base[tuple(a)] = c / mean / float(n) ** sum(a)
    result = None
    k = n
    while True:
        if k & 1:
            result = base if result is None else scipy.signal.convolve(result, base, method="direct")
        k >>= 1
        if not k:
            return result
        base = scipy.signal.convolve(base, base, method="direct")


def _read_samples_csv(path):
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    if lines[0].strip() != "index,value":
        raise ValueError(f"unexpected header {lines[0].strip()!r}")
    pairs = [line.split(",") for line in lines[1:]]
    index = np.array([int(p[0]) for p in pairs])
    values = np.array([float(p[1]) for p in pairs])
    return index, values


def check_dist(job, outdir, wc):
    p = job.params
    with open(os.path.join(outdir, "dist.json")) as fh:
        report = json.load(fh)
    with open(os.path.join(outdir, "samples.csv.meta.json")) as fh:
        meta = json.load(fh)
    index, values = _read_samples_csv(os.path.join(outdir, "samples.csv"))
    problems = []
    N = p["samples"]
    if (report["n"], report["N"], report["seed"]) != (p["n"], N, p["seed"]):
        problems.append(f"report n/N/seed {report['n']}/{report['N']}/{report['seed']}")
    if (meta["N"], meta["seed"]) != (N, p["seed"]):
        problems.append(f"sidecar N/seed {meta['N']}/{meta['seed']}")
    if values.shape[0] != N or not np.array_equal(index, np.arange(N)):
        return problems + [f"samples CSV has {values.shape[0]} rows or a broken index column"]

    pts = np.random.default_rng(p["seed"]).standard_normal((N, job.dim))[:SAMPLE_PREFIX]
    dense = _dense_rescaled_power(job, p["n"])
    if job.dim == 1:
        ref = hermite_e.hermeval(pts[:, 0], dense)
    else:
        ref = hermite_e.hermeval2d(pts[:, 0], pts[:, 1], dense)
    dev = np.abs(values[:SAMPLE_PREFIX] - ref) / np.maximum(1.0, np.abs(ref))
    if dev.max() > SAMPLE_RTOL:
        i = int(dev.argmax())
        problems.append(f"sample {i}: {values[i]!r}, hermeval {ref[i]!r}")

    hsq = float(sum(hi * hi for hi in _kernel(job)))
    mu, sigma = -0.5 * hsq, math.sqrt(hsq)
    if abs(report["target_mu"] - mu) > 1e-12 * max(1.0, abs(mu)) or abs(
            report["target_sigma_sq"] - hsq) > 1e-12 * max(1.0, hsq):
        problems.append(f"targets mu={report['target_mu']!r} sigma^2={report['target_sigma_sq']!r}")
    if report["frac_nonpositive"] != float(np.mean(values <= 0.0)):
        problems.append(f"frac_nonpositive {report['frac_nonpositive']!r}")
    if hsq == 0.0:
        conc = float(np.mean(np.abs(values - 1.0) <= report["concentration_eps"]))
        if report["ks_lognormal"] is not None or report["concentration_at_one"] != conc:
            problems.append(f"degenerate branch: concentration {report['concentration_at_one']!r} "
                            f"!= {conc!r} or KS reported")
        return problems
    pos = values[values > 0.0]
    ks_ln = scipy.stats.kstest(pos, "lognorm", args=(sigma, 0.0, math.exp(mu))).statistic
    ks_log = scipy.stats.kstest(np.log(pos), "norm", args=(mu, sigma)).statistic
    for label, got, want in (("ks_lognormal", report["ks_lognormal"], ks_ln),
                             ("ks_log_normal", report["ks_log_normal"], ks_log)):
        if got is None or abs(got - want) > KS_ATOL:
            problems.append(f"{label} {got!r}, scipy kstest {want!r}")
    return problems


def check_suite(job, outdir, wc):
    with open(os.path.join(outdir, "suite.json")) as fh:
        res = json.load(fh)
    p = job.params
    if (res["name"], res["cases"]) != (p["suite"], p["cases"]):
        return [f"suite result for {res['name']}/{res['cases']} cases"]
    if not res["passed"]:
        return [f"suite failed: max deviation {res['max_deviation']!r} > {res['tolerance']!r}"]
    return []


def _vander(pts, deg):
    if pts.shape[1] == 1:
        return hermite_e.hermevander(pts[:, 0], deg)
    return hermite_e.hermevander3d(pts[:, 0], pts[:, 1], pts[:, 2], [deg] * 3)


def _dense(exps, coeffs, dim, deg):
    out = np.zeros((deg + 1,) * dim)
    for a, c in zip(exps, coeffs):
        out[tuple(a)] += c
    return out


@functools.lru_cache(maxsize=None)
def _linearization(deg):
    """lin[a, b] = HermiteE coefficients of He_a He_b, from numpy's hermemul."""
    lin = np.zeros((deg + 1, deg + 1, 2 * deg + 1))
    for a in range(deg + 1):
        for b in range(deg + 1):
            p = hermite_e.hermemul(np.eye(1, a + 1, a)[0], np.eye(1, b + 1, b)[0])
            lin[a, b, : p.shape[0]] = p
    return lin


def _hermite_product(x, y):
    """Dense product series of two dense HermiteE arrays (dim 1 or 3).

    The product of multi-index terms factorizes over the coordinates, so
    the per-axis linearization is contracted one axis at a time.
    """
    lin = _linearization(x.shape[0] - 1)
    if x.ndim == 1:
        return np.einsum("a,b,abk->k", x, y, lin)
    w = np.einsum("abc,def->adbecf", x, y)
    w = np.einsum("adbecf,adk->becfk", w, lin)
    w = np.einsum("becfk,bel->cfkl", w, lin)
    return np.einsum("cfkl,cfm->klm", w, lin)


def check_product(job, outdir, wc):
    data = np.load(os.path.join(outdir, "product.npz"))
    z_exps, z_coeffs = data["exponents"], data["coeffs"]
    x_terms, y_terms = job.terms, job.params["other"]
    dim = job.dim
    deg = max(sum(a) for a, _ in x_terms)
    if z_exps.shape[0] and (z_exps.min() < 0 or z_exps.max() > 2 * deg):
        return [f"product has exponents outside 0..{2 * deg}"]
    x = _dense([a for a, _ in x_terms], [c for _, c in x_terms], dim, deg)
    y = _dense([a for a, _ in y_terms], [c for _, c in y_terms], dim, deg)
    z = _dense(z_exps, z_coeffs, dim, 2 * deg)
    # rounding scale of every coefficient and value: the same sums over |x|, |y|
    ref = _hermite_product(x, y)
    majorant = _hermite_product(np.abs(x), np.abs(y))
    dev = np.abs(z - ref) / np.where(majorant > 0, majorant, 1.0)
    if dev.max() > PRODUCT_RTOL:
        a = np.unravel_index(int(dev.argmax()), dev.shape)
        return [f"coefficient {tuple(map(int, a))}: {z[a]!r}, hermemul {ref[a]!r}"]
    pts = np.random.default_rng(job.params["points_seed"]).uniform(-2.0, 2.0, (16, dim))
    v1 = _vander(pts, deg)
    v2 = _vander(pts, 2 * deg)
    lhs = v2 @ z.ravel()
    rhs = (v1 @ x.ravel()) * (v1 @ y.ravel())
    scale = np.abs(v2) @ majorant.ravel()
    dev = np.abs(lhs - rhs) / scale
    if dev.max() > PRODUCT_RTOL:
        i = int(dev.argmax())
        return [f"point {i}: (X*Y)(xi) = {lhs[i]!r}, X(xi) Y(xi) = {rhs[i]!r}"]
    return []


CHECKS = {"converge": check_converge, "dist": check_dist, "suite": check_suite,
          "product": check_product}


def check(job, outdir, wc):
    try:
        return CHECKS[job.kind](job, outdir, wc)
    except Exception as exc:  # a malformed output is a failed check, not a crash
        return [f"oracle could not read the output: {type(exc).__name__}: {exc}"]
