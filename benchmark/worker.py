"""Closed-loop worker: one client, one job at a time, in a fresh interpreter.

Started by run.py as ``python3 worker.py SPEC_JSON``. It imports wickchaos
from ``<root>/src``, builds the workload's inputs from the seed, runs one
warm-up job and prints ``ready`` on stdout; run.py times set-up up to that
line. In mode ``setup`` it then exits. In mode ``measure`` it runs whole job
cycles until the timed job seconds reach the target. In mode ``trace`` it
runs a fixed number of cycles untraced, then the same cycles traced.

Only the job call itself is timed. Afterwards the worker digests the job's
outputs, and keeps one copy of each distinct (job, output) pair for run.py's
correctness oracles, which run after the worker has exited.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import traceback
from time import perf_counter

import numpy as np

import workloads
from tracing import Tracer


def import_program(root):
    """Import wickchaos from ``<root>/src`` and nowhere else."""
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import wickchaos
    import wickchaos.cli  # noqa: F401  (the traced modules must all be loaded)

    origin = os.path.realpath(wickchaos.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"wickchaos imported from {origin}, not from {src}")
    return wickchaos


class Runner:
    """Turns workload jobs into calls of the program's public entry points."""

    def __init__(self, wc, jobs, workdir):
        self.wc = wc
        self.workdir = workdir
        self.argv = {}
        self.operands = {}
        for job in jobs:
            d = os.path.join(workdir, job.key)
            os.makedirs(d, exist_ok=True)
            if job.kind in ("converge", "dist"):
                src = os.path.join(d, "input.json")
                with open(src, "w") as fh:
                    json.dump(workloads.expansion_json(job), fh)
                if job.kind == "converge":
                    self.argv[job.key] = ["converge", "--expansion", src, "--n-max",
                                          str(job.params["n_max"]), "--out", os.path.join(d, "converge.csv")]
                else:
                    p = job.params
                    self.argv[job.key] = ["dist", "--expansion", src, "--n", str(p["n"]),
                                          "--samples", str(p["samples"]), "--seed", str(p["seed"]),
                                          "--out", os.path.join(d, "dist.json"),
                                          "--samples-out", os.path.join(d, "samples.csv")]
            elif job.kind == "product":
                self.operands[job.key] = (wc.make_expansion(job.dim, job.terms),
                                          wc.make_expansion(job.dim, job.params["other"]))

    def call(self, job, cycle=0):
        """Run one job; returns the in-memory result (files stay on disk).

        Suites draw their cases from ``seed + cycle``: their cost depends on
        the random cases, so a run averages it over many suite seeds.
        """
        wc = self.wc
        # module attributes are looked up per call, so traced rebinding applies
        if job.kind in ("converge", "dist"):
            rc = wc.cli.main(self.argv[job.key])
            if rc != 0:
                raise RuntimeError(f"exit code {rc}")
            return None
        if job.kind == "suite":
            p = job.params
            return wc.verify.run_suite(p["suite"], seed=p["seed"] + cycle, cases=p["cases"])
        x, y = self.operands[job.key]
        return wc.algebra.pointwise_product(x, y)

    def output_files(self, job):
        d = os.path.join(self.workdir, job.key)
        if job.kind == "converge":
            return [os.path.join(d, "converge.csv")]
        if job.kind == "dist":
            return [os.path.join(d, n) for n in ("dist.json", "samples.csv", "samples.csv.meta.json")]
        return []

    def keep(self, job, result, keepdir):
        """Digest a job's outputs; store the first copy of each distinct one."""
        h = hashlib.sha256()
        for path in self.output_files(job):
            with open(path, "rb") as fh:
                h.update(fh.read())
        if job.kind == "suite":
            h.update(repr((result.name, result.cases, result.max_deviation, result.tolerance,
                           result.passed)).encode())
        elif job.kind == "product":
            h.update(result.exponents.tobytes())
            h.update(result.coeffs.tobytes())
        digest = h.hexdigest()[:16]
        out = os.path.join(keepdir, f"{job.key}-{digest}")
        if not os.path.exists(out):
            os.makedirs(out)
            for path in self.output_files(job):
                shutil.copy(path, out)
            if job.kind == "suite":
                with open(os.path.join(out, "suite.json"), "w") as fh:
                    json.dump({"name": result.name, "cases": result.cases,
                               "max_deviation": result.max_deviation,
                               "tolerance": result.tolerance, "passed": result.passed}, fh)
            elif job.kind == "product":
                np.savez(os.path.join(out, "product.npz"),
                         exponents=result.exponents, coeffs=result.coeffs)
        return digest


def _peak_rss_mb():
    """This process's own peak RSS.

    ``ru_maxrss`` would not do: a child started by vfork inherits the
    parent's high-water mark across exec, so it also counts run.py's memory.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cycles(runner, jobs, keepdir, records, phase, tracer=None, cycles=None, seconds=None):
    """Whole cycles: ``cycles`` of them, or until timed seconds reach ``seconds``."""
    timed = 0.0
    done = 0
    while (cycles is not None and done < cycles) or (seconds is not None and timed < seconds):
        for job in jobs:
            idx = len(records)
            if tracer is not None:
                tracer.job = idx
            error = None
            result = None
            t0 = perf_counter()
            try:
                result = runner.call(job, done)
            except Exception:  # a failing job is counted, never fatal
                error = traceback.format_exc(limit=3)
            t1 = perf_counter()
            timed += t1 - t0
            digest = None
            if error is None:
                try:
                    digest = runner.keep(job, result, keepdir)
                except OSError:
                    error = traceback.format_exc(limit=3)
            records.append({"idx": idx, "key": job.key, "phase": phase, "seconds": t1 - t0,
                            "digest": digest, "error": error})
        done += 1
    return timed


def main():
    spec = json.loads(sys.argv[1])
    proto = sys.stdout
    # the CLI reports on stdout; keep that off the protocol channel
    sys.stdout = open(os.devnull, "w")
    wc = import_program(spec["root"])
    workload = workloads.WORKLOADS[spec["workload"]]
    jobs = workload.jobs(spec["seed"])
    rundir = spec["rundir"]
    runner = Runner(wc, jobs, os.path.join(rundir, "work"))
    try:
        runner.call(jobs[0])  # warm-up: lazy imports, first file writes
    except Exception:  # the timed loop records the same failure against its jobs
        pass
    proto.write("ready\n")
    proto.flush()
    if spec["mode"] == "setup":
        return
    keepdir = os.path.join(rundir, "kept")
    os.makedirs(keepdir, exist_ok=True)
    records = []
    out = {"records": records}
    if spec["mode"] == "measure":
        out["timed_s"] = run_cycles(runner, jobs, keepdir, records, "untraced",
                                    seconds=spec["seconds"])
    else:
        cycles = workload.trace_cycles(spec["seconds"])
        out["untraced_s"] = run_cycles(runner, jobs, keepdir, records, "untraced", cycles=cycles)
        tracer = Tracer()
        tracer.install()
        out["traced_s"] = run_cycles(runner, jobs, keepdir, records, "traced",
                                     tracer=tracer, cycles=cycles)
        tracer.write_spans(os.path.join(rundir, "spans.jsonl"))
        out["trace_cycles"] = cycles
    out["peak_rss_mb"] = _peak_rss_mb()
    out["program"] = {
        "backend": getattr(getattr(wc, "_kernels", None), "DEFAULT_BACKEND", None),
        "version": getattr(wc, "__version__", None),
    }
    with open(os.path.join(rundir, "worker.json"), "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
