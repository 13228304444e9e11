"""One benchmark interpreter: set up, then (in run mode) time whole passes.

    python3 perfbench/worker.py --workload W --seed S --seconds N --trace 0|1
        --workdir DIR --mode setup|run

Set-up is the import of heatconvex, building and preparing the job list,
and one warm-up call per job kind.  In setup mode the interpreter prints the
monotonic time at which set-up ended and exits; run.py starts several such
interpreters and takes the median.  In run mode it goes on to time whole
passes over the job list and writes DIR/result.json.

Inside a pass nothing but jobs runs.  Outputs are checked, and the fixed
calibration kernel runs, between passes, outside the timed region.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import sys
import time

import numpy as np

import workloads

# Pass time of each workload on the reference machine (see NOTES.md).  The
# number of passes depends only on --seconds, so every run of one command
# times exactly the same work, whatever the host's speed.
PASS_SECONDS = {"evolve-1d": 20.0, "verify-1d": 20.0, "flow-2d": 20.0}

# p90 must leave at least ten samples beyond it
MIN_SAMPLES = 100

_CAL_X = np.random.default_rng(0).standard_normal(150000)
_CAL_K = np.exp(-np.linspace(-3.0, 3.0, 1001) ** 2)


def calibrate():
    """Seconds for a fixed numpy convolution that runs no heatconvex code."""
    t = time.perf_counter()
    np.convolve(_CAL_X, _CAL_K, mode="valid")
    return time.perf_counter() - t


def n_passes(workload, seconds, min_samples, n_jobs):
    return max(1, math.ceil(min_samples / n_jobs),
               round(seconds / PASS_SECONDS[workload]))


@contextlib.contextmanager
def quiet():
    """Job output (the CLI prints progress) goes nowhere."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        yield


class Tally:
    """Checks of every timed job sample."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.value_error = {"ref": 0.0, "all": 0.0}
        self.oracle_err = {"ref": 0.0, "all": 0.0}

    def add(self, state, outcome):
        self.attempted += 1
        if isinstance(outcome, Exception):
            ok, why = False, f"raised {outcome!r}"
        else:
            check = workloads.check_job(state, outcome)
            ok, why = check.ok, check.why
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append({"job": state["job"], "why": why})
            return
        for scope in ("all", "ref") if state["job"]["ref"] else ("all",):
            self.value_error[scope] = max(self.value_error[scope],
                                          check.value_error)
            if check.oracle_err is not None:
                self.oracle_err[scope] = max(self.oracle_err[scope],
                                             check.oracle_err)


def timed_passes(prepared, hooks, passes, tally, calib):
    """Run whole passes; returns (per-job seconds, loop wall s, loop cpu s)."""
    job_s = []
    wall = cpu = 0.0
    for _ in range(passes):
        calib.extend(calibrate() for _ in range(3))
        outcomes = []
        w0, c0 = time.perf_counter(), time.process_time()
        with quiet():
            for state in prepared:
                t = time.perf_counter()
                try:
                    outcomes.append(workloads.run_job(state, hooks))
                except Exception as exc:  # a failed job is counted, not fatal
                    outcomes.append(exc)
                job_s.append(time.perf_counter() - t)
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
        for state, outcome in zip(prepared, outcomes):
            tally.add(state, outcome)
    calib.extend(calibrate() for _ in range(3))
    return job_s, wall, cpu


def per_layer(rec, n_jobs):
    """Per-job layer metrics from the traced run's spans and counters."""
    self_s = rec.self_times()
    calls = rec.span_counts()
    counts = rec.counts
    out = {}
    for name in ("heatflow.free_1d", "heatflow.dirichlet", "heatflow.free_2d",
                 "certify.check_F_convex", "transforms.classify",
                 "numerics.invert_monotone"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / n_jobs
        out[f"{name}.calls"] = calls[name] / n_jobs
    for name in ("certify.hunt", "certify.mixture_envelope",
                 "certify.envelope_comparison", "certify.quasi_convex",
                 "transforms.eval", "numerics.simpson", "cli.write",
                 "config.load_config", "cli.entry"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / n_jobs
    for name in ("heatflow.datum_calls", "heatflow.datum_points",
                 "certify.triples", "certify.hunt.levels",
                 "transforms.eval.points"):
        out[name] = counts[name] / n_jobs
    levels = counts["certify.hunt.levels"]
    out["certify.hunt.settled_ratio"] = (
        counts["certify.hunt.settled"] / levels if levels else 0.0)
    out["heatflow.lattice_factor_max"] = float(
        rec.maxima.get("heatflow.lattice_factor_max", 0))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    args = ap.parse_args(argv)

    jobs = workloads.make_jobs(args.workload, args.seed)
    prepared = workloads.prepare(jobs, args.workdir)
    hooks = workloads.Hooks()
    # warm up on reference jobs, which every seed shares, so set-up time
    # does not depend on the seed
    warm = {}
    for state in sorted(prepared, key=lambda s: (
            not s["job"]["ref"], json.dumps(s["job"], sort_keys=True))):
        warm.setdefault(state["job"]["kind"], state)
    with quiet():
        for state in warm.values():
            workloads.run_job(state, hooks)
    ready = time.monotonic()
    if args.mode == "setup":
        print(repr(ready))
        return 0

    tally = Tally()
    calib = []
    # the traced run splits its time between an untraced and a traced half;
    # it reports no percentiles, so it needs no minimum sample count
    if args.trace:
        passes = n_passes(args.workload, args.seconds / 2, 1, len(jobs))
    else:
        passes = n_passes(args.workload, args.seconds, MIN_SAMPLES, len(jobs))
    job_s, wall, cpu = timed_passes(prepared, hooks, passes, tally, calib)
    result = {
        "ready": ready, "passes": passes, "n_jobs": len(jobs),
        "job_s": job_s, "loop_wall_s": wall, "loop_cpu_s": cpu,
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.failures,
        "value_error_max": tally.value_error, "oracle_err_max": tally.oracle_err,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calib_s": calib,
    }
    if args.trace:
        import spans

        rec = spans.SpanRecorder()
        traced_hooks, restore = spans.install(rec)
        traced = Tally()
        try:
            t_job_s, t_wall, _ = timed_passes(prepared, traced_hooks, passes,
                                              traced, calib)
        finally:
            restore()
        layers = per_layer(rec, len(t_job_s))
        layers["trace.overhead"] = (len(t_job_s) / t_wall) / (len(job_s) / wall)
        result["layers"] = layers
        result["traced_attempted"] = traced.attempted
        result["traced_failed"] = traced.failed
        result["traced_failures"] = traced.failures
        if args.trace_out:
            rec.dump(args.trace_out)
    with open(os.path.join(args.workdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
