"""heatconvex benchmark: one seeded workload, timed end to end or traced.

    python3 perfbench/run.py --workload evolve-1d --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the library is imported from ./src, as the
tier-1 tests import it.  The load is a closed loop, one client in one worker
process running jobs back to back, with BLAS/OpenMP pools fixed at one
thread.  --trace 0 prints the end-to-end metrics; --trace 1 prints the
per-layer metrics of a separate traced run.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Workloads,
metrics and the layer map are described in perfbench/NOTES.md.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("evolve-1d", "verify-1d", "flow-2d")
BLAS_THREADS = 1
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 170.0

# metric -> unit, as declared in BENCHMARK.json
END_TO_END = {
    "job_s_p50": "s",
    "job_s_p90": "s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "value_error_max": "rel",
    "oracle_err_max": "rel",
}
PER_LAYER = {
    "heatflow.free_1d.self_s": "s/job",
    "heatflow.free_1d.calls": "count/job",
    "heatflow.dirichlet.self_s": "s/job",
    "heatflow.dirichlet.calls": "count/job",
    "heatflow.free_2d.self_s": "s/job",
    "heatflow.free_2d.calls": "count/job",
    "heatflow.datum_calls": "count/job",
    "heatflow.datum_points": "count/job",
    "heatflow.lattice_factor_max": "count",
    "certify.check_F_convex.self_s": "s/job",
    "certify.check_F_convex.calls": "count/job",
    "certify.triples": "count/job",
    "certify.hunt.self_s": "s/job",
    "certify.hunt.levels": "count/job",
    "certify.hunt.settled_ratio": "ratio",
    "certify.mixture_envelope.self_s": "s/job",
    "certify.envelope_comparison.self_s": "s/job",
    "certify.quasi_convex.self_s": "s/job",
    "transforms.classify.self_s": "s/job",
    "transforms.classify.calls": "count/job",
    "transforms.eval.self_s": "s/job",
    "transforms.eval.points": "count/job",
    "numerics.simpson.self_s": "s/job",
    "numerics.invert_monotone.self_s": "s/job",
    "numerics.invert_monotone.calls": "count/job",
    "cli.write.self_s": "s/job",
    "config.load_config.self_s": "s/job",
    "cli.entry.self_s": "s/job",
    "setup.import.transforms_s": "s",
    "setup.import.heatflow_s": "s",
    "setup.import.certify_s": "s",
    "setup.import.cli_s": "s",
    "worker.cpu_wall_ratio": "ratio",
    "machine.calib_s": "s",
    "trace.overhead": "ratio",
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # pin glibc's mmap threshold at its initial 128 KiB: large arrays then
    # always come from and go back to the OS, so peak RSS follows live data
    # instead of the heap fragmentation left by earlier jobs
    env["MALLOC_MMAP_THRESHOLD_"] = str(128 * 1024)
    return env


def quantile(sorted_vals, q):
    """Nearest-rank quantile: at least (1 - q) n samples lie at or above it."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def worker_cmd(args, workdir, mode, trace_out=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), "--mode", mode]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    return cmd


def run_child(cmd, env, deadline):
    """Run a child to completion within the deadline; its stdout or an error."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise RuntimeError("benchmark deadline passed")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=left)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return proc.stdout


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S+)")


def import_times(env, deadline):
    """Cumulative import seconds per heatconvex module (median of fresh runs)."""
    mods = ("transforms", "heatflow", "certify", "cli")
    samples = {m: [] for m in mods}
    for _ in range(IMPORTTIME_SAMPLES):
        left = deadline - time.monotonic()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import heatconvex.cli"], env=env,
                              capture_output=True, text=True, timeout=left)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed:\n{proc.stderr[-2000:]}")
        cumulative = {}
        for m in _IMPORT_LINE.finditer(proc.stderr):
            cumulative[m.group(3)] = int(m.group(2)) * 1e-6
        for mod in mods:
            samples[mod].append(cumulative.get(f"heatconvex.{mod}", 0.0))
    return {f"setup.import.{m}_s": statistics.median(v) for m, v in samples.items()}


def measure(args, root, workdir):
    env = child_env()
    deadline = time.monotonic() + DEADLINE_S
    setup_s = []
    if not args.trace:
        for k in range(SETUP_SAMPLES - 1):
            d = workdir / f"setup{k}"
            d.mkdir(parents=True)
            t0 = time.monotonic()
            ready = float(run_child(worker_cmd(args, d, "setup"), env,
                                    deadline).split()[-1])
            setup_s.append(ready - t0)
    d = workdir / "run"
    d.mkdir(parents=True)
    trace_out = None
    if args.trace:
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_out = out_dir / f"spans-{args.workload}-{args.seed}.json"
    t0 = time.monotonic()
    run_child(worker_cmd(args, d, "run", trace_out), env, deadline)
    res = json.loads((d / "result.json").read_text())
    setup_s.append(res["ready"] - t0)

    job_s = sorted(res["job_s"])
    n = len(job_s)
    cpu_wall = res["loop_cpu_s"] / res["loop_wall_s"]
    calib = statistics.median(res["calib_s"])
    if args.trace:
        metrics = dict(res["layers"], **import_times(env, deadline))
        metrics["worker.cpu_wall_ratio"] = cpu_wall
        metrics["machine.calib_s"] = calib
        attempted = res["attempted"] + res["traced_attempted"]
        failed = res["failed"] + res["traced_failed"]
        failures = res["failures"] + res["traced_failures"]
    else:
        metrics = {
            "job_s_p50": statistics.median(job_s),
            "job_s_p90": quantile(job_s, 0.9),
            "jobs_per_s": n / res["loop_wall_s"],
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": res["peak_rss_mb"],
            "value_error_max": res["value_error_max"]["ref"],
            "oracle_err_max": res["oracle_err_max"]["ref"],
        }
        attempted, failed, failures = res["attempted"], res["failed"], res["failures"]
    info = {"samples": n, "passes": res["passes"], "jobs_per_pass": res["n_jobs"],
            "fail_rate": failed / attempted, "blas_threads": BLAS_THREADS,
            "setup_samples_s": setup_s,
            "value_error_max_all_jobs": res["value_error_max"]["all"],
            "oracle_err_max_all_jobs": res["oracle_err_max"]["all"],
            "machine.calib_s": calib, "cpu_wall_ratio": cpu_wall}
    return metrics, attempted, failed, failures, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "heatconvex" / "__init__.py").is_file():
        print("run.py: no src/heatconvex here; run from a heatconvex checkout",
              file=sys.stderr)
        return 2
    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        metrics, attempted, failed, failures, info = measure(args, root, workdir)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError) as exc:
        print(f"run.py: benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()
    units = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(units):
        print(f"run.py: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "the declared set", file=sys.stderr)
        return 1

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{info['samples']} job samples ({info['passes']} passes of "
          f"{info['jobs_per_pass']} jobs), BLAS threads {info['blas_threads']}")
    print(f"# fail_rate {info['fail_rate']:.6g} ({failed} of {attempted}); "
          f"setup samples {[round(s, 4) for s in info['setup_samples_s']]}; "
          f"all-jobs value_error_max {info['value_error_max_all_jobs']:.6g}, "
          f"oracle_err_max {info['oracle_err_max_all_jobs']:.6g}; "
          f"machine.calib_s {info['machine.calib_s']:.6g}; "
          f"worker.cpu_wall_ratio {info['cpu_wall_ratio']:.4f}")
    for f in failures:
        print(f"# FAILED {json.dumps(f['job'])}: {f['why']}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
