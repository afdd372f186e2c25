"""Seeded inputs and job cycles of the three benchmark workloads.

A workload is a fixed cycle of jobs. The structure of the converge, dist
and product jobs (dimensions, degrees, supports, powers) is the same for
every seed; the seed draws coefficients, signs and the suites' case seeds.
Runs measure whole cycles. In converge-1d and dist-cli every run therefore
sees the same mix of job sizes, and the odd number of jobs of distinct
sizes per cycle puts the median inside one job's band of latencies rather
than on the edge between two. The identity suites draw their own
dimensions (1 to 3) and degrees (up to 40) from ``seed + cycle``, so
algebra-mix job sizes vary from cycle to cycle and a run averages them.

Expansions are plain data here, ``(dim, [(alpha, c), ...])``; the program
sees them only as its documented JSON input or through ``make_expansion``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

SUITE_CASES = 50
DIST_SAMPLES = 100_000
CONVERGE_1D_N_MAX = 1024

# 1 + He1 at n = 512: the README's value (independent 60-digit summation).
REFERENCE_ERROR_512 = "0.0042434094159039"

SUITE_NAMES = (
    "gamma-composition",
    "gamma-wick-homomorphism",
    "gamma-on-exponentials",
    "exponential-semigroup",
    "telescoping-difference",
    "wick-commutativity",
    "wick-associativity",
    "wick-distributivity-unit",
    "exponential-norm",
    "wick-norm-inequality",
    "contraction-free-term-is-wick",
    "hermite-product-closed-forms",
    "s-transform-factorization",
)


@dataclass(frozen=True)
class Job:
    """One user-level operation. ``kind`` is converge, dist, suite or product."""

    key: str
    kind: str
    dim: int = 0
    terms: tuple = ()
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object
    # Rough seconds per cycle on a 2-core Xeon container; sets how many
    # cycles a traced run replays (a count fixed by --seconds alone, so the
    # traced job list, and with it every count metric, repeats exactly).
    nominal_cycle_s: float

    def jobs(self, seed: int) -> list[Job]:
        return self.build(np.random.default_rng([seed, _WORKLOAD_IDS[self.name]]))

    def trace_cycles(self, seconds: float) -> int:
        return max(1, round(seconds / (2.0 * self.nominal_cycle_s)))


def expansion_json(job: Job) -> dict:
    """The CLI's expansion format: {"dim": d, "coeffs": [{"alpha", "c"}]}."""
    return {"dim": job.dim, "coeffs": [{"alpha": list(a), "c": c} for a, c in job.terms]}


def _signed(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi)) * (1.0 if rng.uniform() < 0.5 else -1.0)


def _with_mean(rng, dim, supports, lo=0.1, hi=0.6):
    """Mean-term expansion over fixed supports; each |c / mean| in [lo, hi]."""
    mean = _signed(rng, 0.5, 2.0)
    terms = [((0,) * dim, mean)]
    for alpha in supports:
        terms.append((tuple(alpha), mean * _signed(rng, lo, hi)))
    return tuple(terms)


def _build_converge_1d(rng) -> list[Job]:
    jobs = [Job("c1d-ref", "converge", 1, (((0,), 1.0), ((1,), 1.0)),
                {"n_max": CONVERGE_1D_N_MAX, "family": True})]
    for i in range(3):
        a = _signed(rng, 0.5, 2.0)
        h = _signed(rng, 0.3, 1.5)
        jobs.append(Job(f"c1d-fam{i}", "converge", 1, (((0,), a), ((1,), a * h)),
                        {"n_max": CONVERGE_1D_N_MAX, "family": True}))
    for i, deg in enumerate((2, 2, 3, 3, 3, 4, 4)):
        terms = _with_mean(rng, 1, [(k,) for k in range(1, deg + 1)])
        jobs.append(Job(f"c1d-deg{deg}-{i}", "converge", 1, terms,
                        {"n_max": CONVERGE_1D_N_MAX}))
    return jobs


def _build_dist_cli(rng) -> list[Job]:
    specs = [
        # (dim, non-constant support, power n); the powers are fixed so
        # that seeds change coefficients, not job sizes
        (1, [(1,)], 64),
        (1, [(1,), (2,)], 96),
        (1, [(1,)], 112),
        (1, [(1,), (2,)], 128),
        (2, [(1, 0), (0, 1), (1, 1)], 16),
        (2, [(1, 0), (0, 1), (2, 0), (0, 2)], 24),
        # vanishing first-order kernel: the degenerate limit 1
        (1, [(2,)], 80),
    ]
    jobs = []
    for i, (dim, support, n) in enumerate(specs):
        jobs.append(Job(f"dist-{i}", "dist", dim, _with_mean(rng, dim, support, 0.1, 0.5), {
            "n": n, "samples": DIST_SAMPLES, "seed": int(rng.integers(1, 2**31))}))
    return jobs


def _dense(rng, dim, max_degree):
    alphas = [a for a in product(range(max_degree + 1), repeat=dim) if sum(a) <= max_degree]
    return tuple((a, float(rng.uniform(-1.0, 1.0))) for a in alphas)


def _build_algebra_mix(rng) -> list[Job]:
    suite_seed = int(rng.integers(1, 2**31))
    jobs = [Job(f"suite-{name}", "suite", params={
        "suite": name, "seed": suite_seed, "cases": SUITE_CASES}) for name in SUITE_NAMES]
    # 40 x 40 terms in dim 1 (degrees 0..39), 84 x 84 in dim 3 (|alpha| <= 6)
    for at, (dim, deg) in ((4, (1, 39)), (10, (3, 6))):
        jobs.insert(at, Job(f"prod-d{dim}", "product", dim, _dense(rng, dim, deg), {
            "other": _dense(rng, dim, deg), "points_seed": int(rng.integers(1, 2**31))}))
    return jobs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("converge-1d",
                 "paper headline: converge n=2..1024 on dim-1 inputs (1+He1, a+b*He1, degree 2-4); "
                 "long 1-D convolutions and the O(n*deg) distance walk",
                 _build_converge_1d, 0.28),
        Workload("dist-cli",
                 "dist with 1e5 samples on dim-1/2 inputs incl. a degenerate one; Hermite batch "
                 "evaluation and samples-CSV writing, convolution negligible",
                 _build_dist_cli, 2.8),
        Workload("algebra-mix",
                 "13 identity suites at 50 cases plus 40x40 (dim 1) and 84x84 (dim 3) pointwise "
                 "products; thousands of tiny calls where per-call overhead dominates",
                 _build_algebra_mix, 1.2),
    )
}
_WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}
