"""Outside-in tracing of the wickchaos layers, installed from the benchmark.

``Tracer.install`` wraps every public function of the traced modules and
rebinds the wrapper in every namespace that holds the original, e.g.
``wick_power`` in ``algebra``, ``limits``, ``verify``, ``cli`` and the
package root, so calls between modules pass through the wrappers too.
Each call leaves a span ``[name, start, end, parent, job, counts]`` in
memory; ``write_spans`` dumps them as JSON lines when the run ends and
``layer_metrics`` derives self time and the count metrics from them.
Generator functions are left unwrapped: their calls only build the
generator, so a span would time nothing.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
from time import perf_counter

TRACED_MODULES = ("_kernels", "core", "algebra", "limits", "sampling", "verify", "cli")


def _layer(module_name: str) -> str:
    # metric names must start with a letter, so "_kernels" reports as "kernels"
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _grid_cells(args, kwargs, result):
    exp_x, cx, exp_y, cy = args[:4]
    if cx.shape[0] == 0 or cy.shape[0] == 0:
        return 0
    return math.prod(int(v) + 1 for v in exp_x.max(axis=0) + exp_y.max(axis=0))


def _walk_steps(args, kwargs, result):
    # multi-indexes of degree <= n * deg over supp h1: C(n*deg + s, s)
    x = _arg(args, kwargs, 0, "x")
    n = int(_arg(args, kwargs, 1, "n"))
    s = int((x.coeffs[x.degrees == 1] != 0).sum())
    return math.comb(n * x.max_degree + s, s)


def _csv_bytes(args, kwargs, result):
    path = os.fspath(_arg(args, kwargs, 1, "path"))
    return os.path.getsize(path) + os.path.getsize(f"{path}.meta.json")


# Count metrics, computed from arguments and results only, so they repeat
# exactly for a fixed job list.
COUNTERS = {
    "kernels.convolve_terms": {
        "terms_out": lambda a, k, r: int(r[1].shape[0]),
        "grid_cells": _grid_cells,
    },
    "kernels.hu_meyer_terms": {"term_pairs": lambda a, k, r: int(a[1].shape[0] * a[3].shape[0])},
    "kernels.eval_batch": {
        "point_terms": lambda a, k, r: int(
            _arg(a, k, 2, "pts").shape[0] * _arg(a, k, 1, "coefs").shape[0])
    },
    "core.exp_vector": {"terms_out": lambda a, k, r: int(r.expansion.n_terms)},
    "limits.convergence_error": {"walk_steps": _walk_steps},
    "sampling.write_samples_csv": {"bytes": _csv_bytes},
}

# Per-layer metrics the benchmark reports: (name, unit). ``X.self_s`` is
# the summed self time of function X, ``X.calls`` its call count, any other
# suffix a COUNTERS entry summed over calls.
LAYER_METRICS = (
    ("kernels.convolve_terms.self_s", "s"),
    ("kernels.convolve_terms.calls", "count"),
    ("kernels.convolve_terms.terms_out", "count"),
    ("kernels.convolve_terms.grid_cells", "count"),
    ("kernels.hu_meyer_terms.self_s", "s"),
    ("kernels.hu_meyer_terms.term_pairs", "count"),
    ("kernels.eval_batch.self_s", "s"),
    ("kernels.eval_batch.point_terms", "count"),
    ("algebra.wick_product.self_s", "s"),
    ("algebra.wick_product.calls", "count"),
    ("algebra.pointwise_product.self_s", "s"),
    ("algebra.wick_power.calls", "count"),
    ("core.exp_vector.self_s", "s"),
    ("core.exp_vector.terms_out", "count"),
    ("core.gamma.self_s", "s"),
    ("core.l2_norm_sq.self_s", "s"),
    ("core.make_expansion.self_s", "s"),
    ("limits.convergence_error.self_s", "s"),
    ("limits.convergence_error.walk_steps", "count"),
    ("limits.proof_bound_factors.self_s", "s"),
    ("limits.write_convergence_csv.self_s", "s"),
    ("sampling.sample_batch.self_s", "s"),
    ("sampling.ks_statistic.self_s", "s"),
    ("sampling.write_samples_csv.self_s", "s"),
    ("sampling.write_samples_csv.bytes", "bytes"),
    ("verify.run_suite.self_s", "s"),
    ("cli.main.self_s", "s"),
)


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        counters = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counters:
                span[5] = {k: count(args, kwargs, result) for k, count in counters.items()}
            return result

        return traced

    def install(self, package: str = "wickchaos") -> None:
        modules = [sys.modules[package]] + [
            sys.modules[f"{package}.{m}"] for m in TRACED_MODULES if f"{package}.{m}" in sys.modules]
        wrappers = {}
        for mod in modules[1:]:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and not inspect.isgeneratorfunction(obj)):
                    wrappers[id(obj)] = self._wrap(f"{_layer(mod.__name__)}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(mod, attr, wrappers[id(obj)])

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job, counts in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "job": job}
                if counts:
                    rec["counts"] = counts
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics from spans: self time = duration - direct children."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    totals = {}
    for i, s in enumerate(spans):
        name = s["name"]
        totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + (
            s["end"] - s["start"] - child_time[i])
        totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
        for key, value in (s.get("counts") or {}).items():
            totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
    return {name: totals.get(name, 0) for name, _ in LAYER_METRICS}
