#!/usr/bin/env python3
"""Reproduce the two single-call baseline figures quoted in ROADMAP.md.

    python3 benchmark/crosscheck.py

- ``wick_power(1 + He1, 512)``: best of 50 calls; ROADMAP baseline 2.96 ms
  (numpy kernel path, 2-core Xeon container).
- ``pointwise_product`` of two dim-3 expansions with 85 terms each (every
  multi-index of degree <= 6 plus (7, 0, 0), coefficients U[-1, 1] from
  seed 0): best of 5 calls; ROADMAP baseline 314 ms.

Best-of-k single-call times are a sanity check of the machine against the
ROADMAP figures, not benchmark metrics: the benchmark's own metrics are
whole-job numbers from run.py. It measures the src/wickchaos of the
checkout that holds this script.
"""

from __future__ import annotations

import os
import sys
from itertools import product
from time import perf_counter

import numpy as np


def best_of(k, fn):
    best = float("inf")
    for _ in range(k):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def main():
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(repo, "src"))
    import wickchaos as wc

    x = wc.make_expansion(1, [((0,), 1.0), ((1,), 1.0)])
    t_power = best_of(50, lambda: wc.wick_power(x, 512))

    rng = np.random.default_rng(0)
    alphas = [a for a in product(range(7), repeat=3) if sum(a) <= 6] + [(7, 0, 0)]
    y = wc.make_expansion(3, [(a, rng.uniform(-1, 1)) for a in alphas])
    z = wc.make_expansion(3, [(a, rng.uniform(-1, 1)) for a in alphas])
    t_product = best_of(5, lambda: wc.pointwise_product(y, z))

    print(f"wick_power(1+He1, 512)           {t_power * 1e3:9.3f} ms   (ROADMAP: 2.96 ms)")
    print(f"pointwise_product(dim3, 85x85)   {t_product * 1e3:9.3f} ms   (ROADMAP: 314 ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
