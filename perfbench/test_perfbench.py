"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import heatconvex.cli as cli
import spans
import worker
import workloads


def _sizes(jobs):
    sizes = {}
    for j in jobs:
        size = next(j[k] for k in ("n", "n_base", "h") if k in j)
        sizes.setdefault(j["kind"], []).append(size)
    return sizes


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_job_list(workload):
    a = workloads.make_jobs(workload, 7)
    assert a == workloads.make_jobs(workload, 7)
    b = workloads.make_jobs(workload, 8)
    assert a != b
    assert Counter(j["kind"] for j in a) == Counter(j["kind"] for j in b)
    # grid sizes of each job kind stay within a factor of two across seeds
    sa, sb = _sizes(a), _sizes(b)
    for kind in sa:
        both = sa[kind] + sb[kind]
        assert max(both) <= 2 * min(both)
    # the reference block is the same for every seed
    ref = sorted(map(repr, (j for j in a if j["ref"])))
    assert ref == sorted(map(repr, (j for j in b if j["ref"])))


def _job(workload, kind, seed=0):
    return next(j for j in workloads.make_jobs(workload, seed)
                if j["kind"] == kind)


def test_scaled_library_output_fails_the_gate():
    state = {"job": _job("evolve-1d", "lib-halfline")}
    u = workloads.run_job(state, workloads.Hooks())
    tally = worker.Tally()
    tally.add(state, u)
    assert tally.failed == 0
    tally.add(state, replace(u, values=u.values * (1 + 1e-6)))
    assert tally.failed == 1
    assert "oracle error" in tally.failures[0]["why"]


def test_scaled_cli_output_fails_the_gate(tmp_path):
    job = next(j for j in workloads.make_jobs("evolve-1d", 0)
               if j["kind"] == "cli-evolve-free" and j["oracle"]
               and "gauss" in j["oracle"])
    (state,) = workloads.prepare([job], tmp_path)
    with worker.quiet():
        rc = workloads.run_job(state, workloads.Hooks())
    assert workloads.check_job(state, rc).ok
    csv = state["out"] / "evolve_00.csv"
    lines = csv.read_text().splitlines()
    scaled = [line if line.startswith(("#", "x")) else
              "{},{:.17g}".format(line.split(",")[0],
                                  float(line.split(",")[1]) * (1 + 1e-6))
              for line in lines]
    csv.write_text("\n".join(scaled) + "\n")
    check = workloads.check_job(state, rc)
    assert not check.ok and "oracle error" in check.why


def test_wrong_verdict_fails_the_gate(tmp_path):
    job = workloads._hunt_cli("power alpha=2", 257, [0.05])
    (state,) = workloads.prepare([job], tmp_path)
    with worker.quiet():
        rc = workloads.run_job(state, workloads.Hooks())
    assert workloads.check_job(state, rc).ok
    assert not workloads.check_job(state, 5).ok
    meta = state["out"] / "hunt_meta.json"
    meta.write_text(meta.read_text().replace("0.05", "null"))
    check = workloads.check_job(state, rc)
    assert not check.ok and "earliest_significant_t" in check.why


def test_self_time_three_levels():
    rec = spans.SpanRecorder()
    root = rec.add("root", 0.0, 10.0)
    a = rec.add("a", 1.0, 4.0, root)
    b = rec.add("b", 5.0, 9.0, root)
    rec.add("c", 6.0, 8.0, b)
    rec.add("c", 8.5, 9.5, b)  # reaches past its parent: only 0.5 s is covered
    assert a == 1
    got = rec.self_times()
    assert got["root"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert got["a"] == pytest.approx(3.0)
    assert got["b"] == pytest.approx(4.0 - 2.0 - 0.5)
    assert got["c"] == pytest.approx(2.0 + 1.0)


def test_nested_spans_from_a_clock():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 7.0, 8.0])
    rec = spans.SpanRecorder(clock=lambda: next(ticks))
    outer = rec.begin("outer")
    mid = rec.begin("mid")
    inner = rec.begin("inner")
    rec.end(inner)
    rec.end(mid)
    rec.end(outer)
    assert rec.parents == [-1, outer, mid]
    got = rec.self_times()
    assert got == pytest.approx({"outer": 2.0, "mid": 4.0, "inner": 2.0})


def test_install_counts_and_restores():
    original = cli.heat_evolve_free
    rec = spans.SpanRecorder()
    hooks, restore = spans.install(rec)
    try:
        assert cli.heat_evolve_free is not original
        state = {"job": _job("evolve-1d", "lib-halfline")}
        workloads.run_job(state, hooks)
    finally:
        restore()
    assert cli.heat_evolve_free is original
    assert rec.span_counts()["heatflow.dirichlet"] == 1
    assert rec.counts["heatflow.datum_points"] > 0
    assert np.isfinite(sum(rec.self_times().values()))


def test_declared_metrics_match_benchmark_json():
    import json
    from pathlib import Path

    import run

    declared = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
