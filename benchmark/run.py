#!/usr/bin/env python3
"""wickchaos benchmark: three closed-loop job workloads.

Run from the root of a checkout (or pass --root):

    python3 benchmark/run.py --workload converge-1d --seed 1 --seconds 35 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 35

--trace 0 reports the end-to-end metrics of an untraced run; --trace 1
replays a fixed job list untraced and then traced, and reports per-layer
metrics. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. See benchmark/README.md.
"""

from __future__ import annotations

import os

# One client, one thread: pin BLAS/OpenMP pools before numpy is imported
# here, and pass the same pins to every worker.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import import_program  # noqa: E402

SETUP_SAMPLES = 7        # fresh interpreters timed per run; setup_s is their median
RUN_DEADLINE_S = 165.0   # a run (set-up, loop, oracles) must end well within 180 s
TAIL_SAMPLES = 10        # the tail percentile must have this many samples beyond it

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result (no program, crashed worker)."""


def _spawn_worker(root, spec, deadline):
    """Start a worker; returns (process, seconds until it printed 'ready')."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        cwd=root, stdout=subprocess.PIPE, text=True,
    )
    ready, _, _ = select.select([proc.stdout], [], [], max(1.0, deadline - t0))
    line = proc.stdout.readline() if ready else ""
    setup = time.monotonic() - t0
    if line.strip() != "ready":
        _stop(proc)
        raise BenchError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, setup


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _wait(proc, deadline):
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker ran past the run deadline") from None
    proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def _time_setup(root, spec, deadline):
    """Seconds until a set-up-only worker is ready; it then exits."""
    proc, setup = _spawn_worker(root, dict(spec, mode="setup"), deadline)
    _wait(proc, deadline)
    return setup


def _tail_percentile(n: int) -> float:
    """Highest percentile <= 90 with TAIL_SAMPLES samples beyond it."""
    return max(0.0, min(90.0, 100.0 * (1.0 - TAIL_SAMPLES / n))) if n else 0.0


def _git_commit(root):
    """HEAD of ``root``; unknown unless root is itself a git work tree's top.

    A checkout exported under another repository (compare.py's
    .bench_compare/) must not report that repository's HEAD.
    """
    proc = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                          capture_output=True, text=True)
    lines = proc.stdout.split()
    if proc.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], root):
        return lines[1]
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(root, seed, program):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": program.get("backend"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_env": THREAD_ENV,
        "seed": seed,
        "git_commit": _git_commit(root),
    }


def _verdicts(root, jobs, keepdir):
    """Oracle verdict per kept (job, output digest): list of problems."""
    import oracles

    try:
        wc = import_program(root)
    except ImportError as exc:
        raise BenchError(str(exc)) from None
    by_key = {job.key: job for job in jobs}
    verdicts = {}
    for name in sorted(os.listdir(keepdir)):
        key, digest = name.rsplit("-", 1)
        verdicts[(key, digest)] = oracles.check(by_key[key], os.path.join(keepdir, name), wc)
    return verdicts


def run_workload(root, name, seed, seconds, trace):
    """One run; returns the result dict (summary fields plus the JSON line)."""
    workload = workloads.WORKLOADS[name]
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    rundir = os.path.join(root, ".bench_runs", f"{name}-s{seed}-t{trace}-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    spec = {"root": root, "workload": name, "seed": seed, "seconds": seconds,
            "rundir": rundir, "mode": "trace" if trace else "measure"}
    proc = None
    try:
        # Set-up-only workers run half before and half after the measured
        # one, so that setup_s samples the host at both ends of the run.
        extra = 0 if trace else SETUP_SAMPLES - 1
        setups = [_time_setup(root, spec, deadline) for _ in range(extra // 2)]
        proc, setup = _spawn_worker(root, spec, deadline)
        setups.append(setup)
        _wait(proc, deadline)
        setups += [_time_setup(root, spec, deadline) for _ in range(extra - extra // 2)]
        with open(os.path.join(rundir, "worker.json")) as fh:
            out = json.load(fh)
        jobs = workload.jobs(seed)
        verdicts = _verdicts(root, jobs, os.path.join(rundir, "kept"))
        records = out["records"]
        failures = []
        for rec in records:
            problems = [rec["error"]] if rec["error"] else verdicts[(rec["key"], rec["digest"])]
            rec["ok"] = not problems
            if problems:
                failures.append({"job": rec["idx"], "key": rec["key"], "problems": problems})
        result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "attempted": len(records), "failed": len(failures), "failures": failures,
                  "record": run_record(root, seed, out["program"])}
        if trace:
            spans = tracing.read_spans(os.path.join(rundir, "spans.jsonl"))
            metrics = tracing.layer_metrics(spans)
            metrics["trace.overhead_frac"] = out["traced_s"] / out["untraced_s"] - 1.0
            units = dict(tracing.LAYER_METRICS, **{"trace.overhead_frac": "fraction"})
            result["samples"] = {"trace_cycles": out["trace_cycles"], "spans": len(spans),
                                 "jobs_per_phase": len(records) // 2}
            results_dir = os.path.join(root, ".bench_results")
            os.makedirs(results_dir, exist_ok=True)
            shutil.move(os.path.join(rundir, "spans.jsonl"),
                        os.path.join(results_dir, f"{name}-seed{seed}.spans.jsonl"))
        else:
            lat_ms = np.array([r["seconds"] for r in records]) * 1000.0
            passed = sum(r["ok"] for r in records)
            q = _tail_percentile(len(records))
            metrics = {
                "setup_s": statistics.median(setups),
                "jobs_per_s": passed / out["timed_s"],
                "job_p50_ms": float(np.percentile(lat_ms, 50)),
                "job_p90_ms": float(np.percentile(lat_ms, q)),
                "peak_rss_mb": out["peak_rss_mb"],
            }
            units = END_TO_END_UNITS
            result["samples"] = {"setup_s": len(setups), "jobs": len(records),
                                 "timed_s": out["timed_s"], "tail_percentile": q,
                                 "failed_frac": len(failures) / len(records)}
            result["setup_samples_s"] = setups
            result["latencies_ms"] = {k: [round(r["seconds"] * 1000, 4) for r in records
                                          if r["key"] == k] for k in dict.fromkeys(
                                              r["key"] for r in records)}
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        result["wall_s"] = time.monotonic() - start
        return result
    finally:
        if proc is not None and proc.poll() is None:
            _stop(proc)
        shutil.rmtree(rundir, ignore_errors=True)


def _save(root, result):
    results_dir = os.path.join(root, ".bench_results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)


def _print_summary(result):
    m, s = result["metrics"], result["samples"]
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"backend {result['record']['kernel_backend']}  wall {result['wall_s']:.1f} s")
    if result["trace"]:
        print(f"   {s['jobs_per_phase']} jobs per phase ({s['trace_cycles']} cycles), {s['spans']} spans")
        for k, v in m.items():
            print(f"   {k:<40} {v['value']:>16.6g} {v['unit']}")
    else:
        n = s["jobs"]
        print(f"   {'setup_s':<12} {m['setup_s']['value']:>10.4f} s     median of {s['setup_s']} set-ups")
        print(f"   {'jobs_per_s':<12} {m['jobs_per_s']['value']:>10.4f} 1/s   "
              f"{n} jobs over {s['timed_s']:.2f} timed s")
        print(f"   {'job_p50_ms':<12} {m['job_p50_ms']['value']:>10.4f} ms    n={n}")
        tail = "" if s["tail_percentile"] >= 90 else (
            f"  (too few jobs for p90: this is p{s['tail_percentile']:.1f})")
        print(f"   {'job_p90_ms':<12} {m['job_p90_ms']['value']:>10.4f} ms    n={n}{tail}")
        print(f"   {'failed_frac':<12} {s['failed_frac']:>10.4f}       {result['failed']}/{n}")
        print(f"   {'peak_rss_mb':<12} {m['peak_rss_mb']['value']:>10.2f} MB    worker max RSS")
    for f in result["failures"][:10]:
        print(f"   FAILED job {f['job']} ({f['key']}): {f['problems'][0].strip()}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", default=os.getcwd(),
                        help="checkout whose src/wickchaos is measured (default: cwd)")
    args = parser.parse_args(argv)
    # a terminated run still stops its worker and removes its run directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    root = os.path.abspath(args.root)
    if not os.path.isfile(os.path.join(root, "src", "wickchaos", "__init__.py")):
        print(f"error: no src/wickchaos under {root}; run from a wickchaos checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            result = run_workload(root, name, args.seed, args.seconds, args.trace)
            _save(root, result)
            _print_summary(result)
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
