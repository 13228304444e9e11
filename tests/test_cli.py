"""End-to-end checks of the command-line front end."""

import csv
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heatconvex import (GridFunction, config, counterexample_datum, heat_evolve_free,
                        make_power_alpha)
from heatconvex.cli import entry
from heatconvex.transforms import ClassReport


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "heatconvex", *args],
                          capture_output=True, text=True, cwd=cwd)


def write_config(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


CLASSIFY_CFG = """
transform = power alpha=0
transform = power alpha=1
transform = power alpha=2
"""

EVOLVE_CFG = """
datum = gaussian t0=0.5
grid.lo = -4
grid.hi = 4
grid.h  = 0.03125
flow.times = 0.25
"""

VERIFY_OK_CFG = """
transform = power alpha=0
datum = exp_abs
grid.lo = -4
grid.hi = 4
grid.h  = 0.03125
flow.times = 0.05,0.1
"""

VERIFY_BAD_CFG = """
transform = power alpha=2
datum = counterexample r0=1
grid.lo = -6
grid.hi = 6
grid.h  = 0.046875
flow.times = 0.05
"""

HUNT_CFG = """
transform = power alpha=1.5
datum = counterexample r0=1
grid.lo = -6
grid.hi = 6
grid.h  = 0.09375
flow.times = 0.05,0.1
certify.refine_levels = 2
"""


def test_classify_writes_table_and_metadata(tmp_path):
    cfg = write_config(tmp_path, CLASSIFY_CFG)
    out = tmp_path / "res"
    r = run_cli("classify", "--config", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert "power[0]: preserved" in r.stdout
    assert "power[2]: not_preserved" in r.stdout

    table = (out / "classify.csv").read_text().splitlines()
    assert table[0] == ",".join(ClassReport.FIELDS)
    assert len(table) == 4

    meta = json.loads((out / "classify_meta.json").read_text())
    assert meta["command"] == "classify"
    assert meta["verdicts"]["power[1]"] == "preserved"
    # defaults are recorded alongside explicit settings
    assert meta["config"]["grid.h"] == pytest.approx(1 / 64)
    assert meta["config"]["certify.significance_factor"] == 10.0
    assert meta["config"]["flow.times"] == [0.05, 0.1, 0.2]


def test_classify_from_g_that_never_vanishes(tmp_path):
    # base_value 2 exceeds the left mass sqrt(pi/2): f stays above 0.747
    cfg = write_config(tmp_path, "transform = from_g base_value=2\n")
    r = run_cli("classify", "--config", cfg, "--out", str(tmp_path / "res"))
    assert r.returncode == 0, r.stderr
    assert "from_g[points=(1,-1),slopes=(-1,1),base=(0,2,1)]: preserved" in r.stdout


def test_classify_from_g_with_its_kink_far_out(tmp_path):
    """The tent's kink at z = 12 lies past where a fitted order was read:
    that fit made the class inconclusive (exit 3); the stated order is 1/2."""
    cfg = write_config(tmp_path, "transform = from_g center=12\n")
    out = tmp_path / "res"
    r = run_cli("classify", "--config", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr
    label = "from_g[points=(12,-1),slopes=(-1,1),base=(0,1,1)]"
    assert f"{label}: preserved" in r.stdout
    row = (out / "classify.csv").read_text().splitlines()[1]
    assert row.startswith(f'"{label}",inf,false,0.5,true,preserved,')


TWO_FROM_G = """
transform = from_g center=1 drop=1
transform = from_g center=2 drop=3 base_value=2
"""


def test_distinct_from_g_transforms_keep_their_own_outputs(tmp_path):
    """Every from_g transform was labelled 'from_g', so the second's verdict
    and hunt file replaced the first's."""
    cfg = write_config(tmp_path, TWO_FROM_G + HUNT_CFG.replace("transform = power alpha=1.5\n", ""))
    out = tmp_path / "res"
    assert entry(["classify", "--config", cfg, "--out", str(out)]) == 0
    verdicts = json.loads((out / "classify_meta.json").read_text())["verdicts"]
    assert sorted(verdicts) == ["from_g[points=(1,-1),slopes=(-1,1),base=(0,1,1)]",
                                "from_g[points=(2,-3),slopes=(-1,1),base=(0,2,1)]"]
    assert entry(["hunt", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("hunt_*.csv")) == [
        "hunt_from_g_points_1_-1_slopes_-1_1_base_0_1_1.csv",
        "hunt_from_g_points_2_-3_slopes_-1_1_base_0_2_1.csv"]
    meta = json.loads((out / "hunt_meta.json").read_text())
    assert sorted(meta["scans"]) == sorted(verdicts)


def test_transforms_that_share_a_label_are_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "transform = power alpha=1\n" * 2 + EVOLVE_CFG)
    out = tmp_path / "res"
    assert entry(["classify", "--config", cfg, "--out", str(out)]) == 2
    assert "power[1]" in capsys.readouterr().err
    assert not out.exists()


def test_transforms_that_agree_to_six_digits_keep_their_own_labels(tmp_path, capsys):
    """Labels print a parameter with %g only where that reads back as it:
    alpha = 1.0000001 is power[1.0000001], apart from power[1], and past
    alpha = 1 its verdict differs."""
    cfg = write_config(tmp_path, "transform = power alpha=1\n"
                                 "transform = power alpha=1.0000001\n")
    out = tmp_path / "res"
    assert entry(["classify", "--config", cfg, "--out", str(out)]) == 0
    verdicts = json.loads((out / "classify_meta.json").read_text())["verdicts"]
    assert verdicts == {"power[1]": "preserved", "power[1.0000001]": "not_preserved"}
    assert "power[1.0000001]: not_preserved" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["evolve", "verify", "hunt"])
def test_output_grid_above_the_node_budget_exits_two(tmp_path, capsys, command):
    """grid.h = 1e-9 on the default window (-8, 8) asks for 1.6e10 nodes: it
    is refused by its count, before any array is built or file written."""
    import time
    import tracemalloc

    cfg = write_config(tmp_path, "transform = power alpha=1\n"
                                 "datum = counterexample r0=1\ngrid.h = 1e-9\n")
    out = tmp_path / "res"
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = entry([command, "--config", cfg, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and time.perf_counter() - start < 5.0
    assert "output grid of 1.6e+10 nodes is above the budget" in capsys.readouterr().err
    assert peak < 2 ** 24 and not out.exists()


def test_classify_neglog_down_to_minus_infinity(tmp_path):
    cfg = write_config(tmp_path, "transform = neglog a=-inf ell=1\n")
    out = tmp_path / "res"
    r = run_cli("classify", "--config", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr
    row = (out / "classify.csv").read_text().splitlines()[1]
    assert row.startswith('"neglog[-inf,1]",inf,false,nan,true,preserved,')


def test_evolve_output_round_trips_and_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, EVOLVE_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    ra = run_cli("evolve", "--config", cfg, "--out", str(out_a))
    rb = run_cli("evolve", "--config", cfg, "--out", str(out_b))
    assert ra.returncode == 0, ra.stderr
    assert rb.returncode == 0

    csv_a = (out_a / "evolve_00.csv").read_bytes()
    csv_b = (out_b / "evolve_00.csv").read_bytes()
    assert csv_a == csv_b

    text = csv_a.decode()
    assert text.startswith("# t=0.25")
    u = GridFunction.from_csv(text)
    assert u.values.size == 257
    assert u.value_error < 1e-6

    meta = json.loads((out_a / "evolve_meta.json").read_text())
    assert meta["results"][0]["t"] == 0.25
    # how the free-space evolution was computed: the Gaussian reaches R to
    # either side of the 257 outputs, at lattice factor m
    rec, m = meta["results"][0], meta["results"][0]["refine_history"][-1][0]
    R = rec["truncation_radius"]
    assert R >= 4.0 * 0.25 ** 0.5
    assert rec["kernel_len"] == [2 * math.ceil(R / 0.03125) * m + 1]


def test_rerun_replaces_each_file_by_an_identical_new_one(tmp_path):
    """A rerun into the same directory writes the same bytes to new files:
    the old ones are unlinked, not truncated, so a hard link keeps them."""
    cfg = write_config(tmp_path, EVOLVE_CFG)
    out = tmp_path / "res"
    assert entry(["evolve", "--config", cfg, "--out", str(out)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(first) == {"evolve_00.csv", "evolve_meta.json"}
    for name in first:
        os.link(out / name, tmp_path / f"old_{name}")
    assert entry(["evolve", "--config", cfg, "--out", str(out)]) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first
    for name in first:
        assert not os.path.samefile(out / name, tmp_path / f"old_{name}")
        assert (tmp_path / f"old_{name}").read_bytes() == first[name]


def test_each_scheduled_file_equals_a_single_time_run(tmp_path):
    """One evolve writes its three files on one 8193-node grid (three CSV
    blocks): the first printed directly, the second through the row
    templates it builds, the third from those templates; each equals, byte
    for byte, the file of a run of its time alone in a fresh process."""
    grid = "datum = gaussian t0=0.5\ngrid.lo = -4\ngrid.hi = 4\ngrid.h = 0.0009765625\n"
    times = ("0.05", "0.1", "0.2")
    cfg = write_config(tmp_path, grid + f"flow.times = {','.join(times)}\n")
    assert entry(["evolve", "--config", cfg, "--out", str(tmp_path / "all")]) == 0
    for i, t in enumerate(times):
        one = write_config(tmp_path, grid + f"flow.times = {t}\n", f"t{i}.cfg")
        r = run_cli("evolve", "--config", one, "--out", str(tmp_path / f"t{i}"))
        assert r.returncode == 0, r.stderr
        got = (tmp_path / "all" / f"evolve_{i:02d}.csv").read_bytes()
        assert got == (tmp_path / f"t{i}" / "evolve_00.csv").read_bytes()
        assert got.startswith(f"# t={t}\n".encode()) and got.count(b"\n") == 8193 + 5


INTERVAL_CFG = """
domain = interval lo=0 hi=2
grid.h = 0.015625
flow.times = 0.05
"""


@pytest.mark.parametrize("first", [
    "datum = abs center=0.5\ngrid.lo = -4\ngrid.hi = 4\ngrid.h = 0.0625\nflow.times = 0.05\n",
    "datum = gaussian t0=0.5\n" + INTERVAL_CFG,
], ids=["free_abs", "interval_gaussian"])
def test_evolved_csv_reads_back_as_a_datum(tmp_path, first):
    """Both runs report value_error as a numpy float; its header must still
    parse when the file comes back as datum = csv."""
    out = tmp_path / "first"
    assert entry(["evolve", "--config", write_config(tmp_path, first, "first.cfg"),
                  "--out", str(out)]) == 0
    assert "np.float64" not in (out / "evolve_00.csv").read_text()
    again = write_config(tmp_path, f"datum = csv path={out / 'evolve_00.csv'}\n"
                         + INTERVAL_CFG, "again.cfg")
    assert entry(["evolve", "--config", again, "--out", str(tmp_path / "again")]) == 0


def test_interval_evolve_meets_the_sine_mode(tmp_path):
    import numpy as np

    x = np.linspace(0.0, 2.0, 2049)
    datum = tmp_path / "sine.csv"
    datum.write_text(GridFunction(values=np.sin(np.pi * x / 2), extent=((0.0, 2.0),)).to_csv())
    cfg = write_config(tmp_path, f"datum = csv path={datum}\ngrid.lo = 0\ngrid.hi = 2\n"
                       + INTERVAL_CFG.replace("0.05", "0.05,0.2"))
    out = tmp_path / "res"
    assert entry(["evolve", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "evolve_meta.json").read_text())
    assert (meta["config"]["grid.lo"], meta["config"]["grid.hi"]) == (0.0, 2.0)
    for rec in meta["results"]:
        # a box needs no truncation; its circular period spans 2 x 128 cells
        m = rec["refine_history"][-1][0]
        assert rec["truncation_radius"] is None and rec["kernel_len"] == [2 * 128 * m]
    for i, t in enumerate((0.05, 0.2)):
        u = GridFunction.from_csv((out / f"evolve_{i:02d}.csv").read_text())
        assert u.extent == ((0.0, 2.0),) and u.values.size == 129
        xs = u.axes()[0]
        exact = np.exp(-np.pi ** 2 * t / 4) * np.sin(np.pi * xs / 2)
        # the datum's interpolation error dominates; value_error leaves it out
        assert np.max(np.abs(u.values - exact)) < 1e-11
        assert u.values[0] == 0.0 and u.values[-1] == 0.0


@pytest.mark.parametrize("transform, datum", [
    ("hot a=1", "hot_bowl"), ("neglog a=0 ell=1", "neglog_bowl")])
def test_verify_keeps_the_shipped_bowls_convex_on_the_interval(tmp_path, transform, datum):
    """Acceptance criterion 07 from the command line: the boundary-one
    interval flow keeps each bowl convex in its class at every time."""
    cfg = write_config(tmp_path, f"transform = {transform}\ndatum = {datum}\n"
                       "domain = interval lo=0 hi=1 ell=1\ngrid.h = 0.00390625\n"
                       "flow.times = 0.01,0.05,0.1\n")
    out = tmp_path / "res"
    assert entry(["verify", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "verify.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [float(row["t"]) for row in rows] == [0.01, 0.05, 0.1]
    for row in rows:
        assert row["significant"] == "false" and float(row["gap"]) <= 0.0
        assert 0.0 < float(row["noise_floor"]) < 1e-6


@pytest.mark.parametrize("datum", ["gauss_bump", "indicator"])
@pytest.mark.parametrize("domain", ["free", "interval lo=-1 hi=1 ell=0.5"])
def test_bump_and_indicator_evolve(tmp_path, datum, domain):
    cfg = write_config(tmp_path, f"datum = {datum}\ndomain = {domain}\n"
                       "grid.h = 0.03125\nflow.times = 0.05,0.2\n")
    out = tmp_path / "res"
    assert entry(["evolve", "--config", cfg, "--out", str(out)]) == 0
    for i in range(2):
        u = GridFunction.from_csv((out / f"evolve_{i:02d}.csv").read_text())
        assert np.all(np.isfinite(u.values)) and -1e-9 <= u.values.min() <= u.values.max() <= 1 + 1e-9
        if domain != "free":
            assert u.extent == ((-1.0, 1.0),) and u.values[0] == u.values[-1] == 0.5


def test_evolve_meta_holds_each_evolutions_whole_meta(tmp_path):
    """A wedge is a ridge: its record carries the ridge line with the rest."""
    cfg = write_config(tmp_path, VERIFY_BAD_CFG)
    out = tmp_path / "res"
    assert entry(["evolve", "--config", cfg, "--out", str(out)]) == 0
    (rec,) = json.loads((out / "evolve_meta.json").read_text())["results"]
    phi = counterexample_datum(make_power_alpha(2.0), 1.0, fit_window=(-6.0, 6.0))
    u = heat_evolve_free(phi, 0.05, (-6.0, 6.0, 0.046875))
    assert rec == {"file": "evolve_00.csv", "value_error": u.value_error,
                   "growth_a": u.growth_a, "growth_A": u.growth_A,
                   **json.loads(json.dumps(u.meta))}
    assert rec["ridge"] == {"direction": [1.0], "line": [-6.0, 6.0, 0.046875]}
    assert {"quad_error", "lattice_factors", "tail_bound", "inherited_error"} <= set(rec)


@pytest.mark.parametrize("window, flags", [
    ("grid.lo = -8\ngrid.hi = 8\n", []),
    ("grid.hi = 3\n", []),
    ("", ["--grid-extent=-8,8"]),
], ids=["both_keys", "upper_key", "extent_flag"])
def test_interval_window_off_its_walls_is_a_config_error(tmp_path, capsys, window, flags):
    cfg = write_config(tmp_path, "datum = gaussian t0=0.5\n" + window + INTERVAL_CFG)
    out = tmp_path / "res"
    assert entry(["evolve", "--config", cfg, "--out", str(out), *flags]) == 2
    assert "wall" in capsys.readouterr().err
    assert not out.exists()


def test_interval_window_resolves_to_its_walls(tmp_path):
    """An interval run used to record the default window, grid.lo = -8 and
    grid.hi = 8, in its metadata while it evolved from wall to wall."""
    cfg = write_config(tmp_path, "datum = gaussian t0=0.5\n" + INTERVAL_CFG)
    out = tmp_path / "res"
    assert entry(["evolve", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "evolve_meta.json").read_text())
    assert (meta["config"]["grid.lo"], meta["config"]["grid.hi"]) == (0.0, 2.0)
    u = GridFunction.from_csv((out / "evolve_00.csv").read_text())
    assert u.extent == ((0.0, 2.0),) and u.values.size == 129


def test_tail_tolerance_on_an_interval_is_a_config_error(tmp_path, capsys):
    """The interval truncates nothing: flow.eps_tail = 1e-3 used to exit 0,
    with "1e-3" recorded in evolve_meta.json and no effect on the run."""
    cfg = write_config(tmp_path, "datum = gaussian t0=0.5\nflow.eps_tail = 1e-3\n"
                       + INTERVAL_CFG)
    out = tmp_path / "res"
    assert entry(["evolve", "--config", cfg, "--out", str(out)]) == 2
    assert "flow.eps_tail does not apply to an interval" in capsys.readouterr().err
    assert not out.exists()


def test_meta_records_the_parsed_value_of_every_key(tmp_path):
    """Keys set in the file used to be recorded as the strings written there
    ("flow.eps_tail": "1e-3"), defaults as numbers."""
    set_keys = ("flow.eps_tail = 1e-3\ncertify.refine_levels = 2\n"
                "certify.significance_factor = 5\n")
    configs = []
    for name, extra in (("default", ""), ("set", set_keys)):
        cfg = write_config(tmp_path, EVOLVE_CFG + extra, name=f"{name}.cfg")
        assert entry(["evolve", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        configs.append(json.loads((tmp_path / name / "evolve_meta.json").read_text())["config"])
    default, given = configs
    assert {k: type(v) for k, v in default.items()} == {k: type(v) for k, v in given.items()}
    assert (given["flow.eps_tail"], given["certify.refine_levels"],
            given["certify.significance_factor"]) == (1e-3, 2, 5.0)
    assert (default["flow.eps_tail"], default["certify.refine_levels"]) == (1e-10, 3)


def test_grid_spacing_wider_than_the_interval_is_a_config_error(tmp_path, capsys):
    """grid.h = 2 on the unit interval used to become one cell: the run
    exited 0 and wrote two nodes."""
    cfg = write_config(tmp_path, "datum = gaussian t0=0.5\ndomain = interval lo=0 hi=1\n"
                       "grid.h = 2\nflow.times = 0.05\n")
    out = tmp_path / "res"
    assert entry(["evolve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "grid.h" in err and "h <= hi - lo" in err and "got (0.0, 1.0, 2.0)" in err
    assert not out.exists()


@pytest.mark.parametrize("domain", ["interval lo=1 hi=0", "interval lo=0 hi=0",
                                    "interval lo=0 hi=1 ell=nan", "interval lo=0 hi=1 ell=inf"])
def test_degenerate_interval_is_a_config_error(tmp_path, domain):
    """It used to end in a ValueError traceback, exit 1; a wall value that
    is not finite exited 2 as a datum that "must be bounded"."""
    cfg = write_config(tmp_path, f"datum = gaussian t0=0.5\ndomain = {domain}\n")
    r = run_cli("evolve", "--config", cfg, "--out", str(tmp_path / "res"))
    assert r.returncode == 2
    why = "ell needs to be finite" if "ell" in domain else "needs finite bounds lo < hi"
    assert "config error" in r.stderr and why in r.stderr
    assert "Traceback" not in r.stderr


def test_csv_datum_short_of_the_interval_exits_four(tmp_path, capsys):
    """Grid data covering half the interval used to be extended by their
    edge value: the run exited 0."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 65)
    datum = tmp_path / "half.csv"
    datum.write_text(GridFunction(values=np.sin(np.pi * x / 2), extent=((0.0, 1.0),)).to_csv())
    cfg = write_config(tmp_path, f"datum = csv path={datum}\n" + INTERVAL_CFG)
    out = tmp_path / "res"
    assert entry(["evolve", "--config", cfg, "--out", str(out)]) == 4
    assert "window error" in capsys.readouterr().err
    assert not out.exists()


_COMMA_LABELS_CFG = """
transform = affine A=3 B=2
transform = neglog a=-1 ell=1
datum = counterexample r0=0
grid.lo = -2
grid.hi = 2
grid.h = 0.0625
flow.times = 0.05
"""


def test_labels_with_commas_are_quoted_in_every_table(tmp_path):
    """verify.csv used to write affine[3,2] and neglog[-1,1] bare, so
    csv.reader read ten fields under its nine-column header."""
    cfg = write_config(tmp_path, _COMMA_LABELS_CFG)
    out = tmp_path / "res"
    for command, name in (("classify", "classify.csv"), ("verify", "verify.csv")):
        assert entry([command, "--config", cfg, "--out", str(out)]) == 0
        with open(out / name, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert [row[0] for row in rows] == ["affine[3,2]", "neglog[-1,1]"], name
        assert all(len(row) == len(header) for row in rows), (name, rows)


def test_one_formatter_writes_every_cell():
    from heatconvex.cli import _cell

    assert [_cell(v) for v in (0.1, 2, True, False, None, "plain")] == [
        "0.10000000000000001", "2", "true", "false", "", "plain"]
    assert _cell('a,"b"\nc') == '"a,""b""\nc"'


def _budget_at_the_first_lattice(monkeypatch):
    """Set the node budget of every evolution to its first lattice, so the
    first pass runs and no doubling fits."""
    from heatconvex import heatflow

    refine = heatflow._refine

    def capped(one_pass, ms, max_refine, cells):
        monkeypatch.setattr(heatflow, "_MAX_LATTICE_NODES",
                            math.prod(m * c + 1 for m, c in zip(ms, cells)))
        return refine(one_pass, ms, max_refine, cells)

    monkeypatch.setattr(heatflow, "_refine", capped)


def _strict_json(path):
    """The JSON file at path, read as jq and JSON.parse read it: Infinity,
    -Infinity and NaN are not JSON, and raise."""
    def refuse(name):
        raise AssertionError(f"{path.name} holds the non-JSON constant {name}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_unconverged_evolution_warns_and_is_recorded(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, EVOLVE_CFG)
    assert entry(["evolve", "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
    assert "did not converge" not in capsys.readouterr().err
    meta = json.loads((tmp_path / "ok" / "evolve_meta.json").read_text())
    assert meta["results"][0]["converged"] is True

    # no doubling fits: the first pass is kept with quad_error inf, which
    # the record writes as the string "inf", so the file stays strict JSON
    _budget_at_the_first_lattice(monkeypatch)
    assert entry(["evolve", "--config", cfg, "--out", str(tmp_path / "capped")]) == 0
    err = capsys.readouterr().err
    assert "warning: t=0.25: evolution did not converge" in err
    assert "quad_error inf" in err and "lattice_factor" in err
    (rec,) = _strict_json(tmp_path / "capped" / "evolve_meta.json")["results"]
    assert rec["converged"] is False
    assert rec["quad_error"] == rec["value_error"] == "inf"
    assert float(rec["value_error"]) == math.inf


def test_meta_records_write_non_finite_numbers_as_strings():
    """One rule for every metadata file, however deep the number sits."""
    from heatconvex.cli import _strict

    record = {"a": [np.float64(-np.inf), (np.nan, 2.5)], "b": {"c": math.inf, "d": 1}}
    assert _strict(record) == {"a": ["-inf", ["nan", 2.5]], "b": {"c": "inf", "d": 1}}
    assert json.loads(json.dumps(_strict(record), allow_nan=False))["b"]["c"] == "inf"


def test_verify_and_hunt_warn_on_unconverged_evolutions(tmp_path, monkeypatch, capsys):
    _budget_at_the_first_lattice(monkeypatch)
    cfg = write_config(tmp_path, VERIFY_OK_CFG)
    assert entry(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    err = capsys.readouterr().err
    assert "warning: power[0] t=0.05: evolution did not converge (quad_error inf" in err
    assert "warning: power[0] t=0.1: evolution did not converge" in err

    cfg = write_config(tmp_path, HUNT_CFG, name="hunt.cfg")
    assert entry(["hunt", "--config", cfg, "--out", str(tmp_path / "h")]) == 0
    err = capsys.readouterr().err
    assert "warning: power[1.5] t=0.05 level 0: evolution did not converge" in err
    assert "# no stable significant violation found" in (
        tmp_path / "h" / "hunt_power_1.5.csv").read_text()
    for path in (tmp_path / "v" / "verify_meta.json", tmp_path / "h" / "hunt_meta.json"):
        _strict_json(path)


def test_hunt_at_the_node_budget_keeps_its_finished_levels(tmp_path, monkeypatch):
    """Level 1's first lattice passes a budget of 3000 nodes: the hunt keeps
    level 0 and writes its history, where it used to exit 2 with none."""
    from heatconvex import heatflow

    monkeypatch.setattr(heatflow, "_MAX_LATTICE_NODES", 3000)
    cfg = write_config(tmp_path, "transform = power alpha=2\ndatum = counterexample r0=1\n"
                       "grid.lo = -1\ngrid.hi = 1\ngrid.h = 0.0033333333333333335\n"
                       "flow.times = 0.05\ncertify.refine_levels = 3\n")
    out = tmp_path / "res"
    assert entry(["hunt", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "hunt_power_2.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in lines[1:-1]] == [["0.050000000000000003", "0"]]
    assert lines[-1] == "# no stable significant violation found"


def test_verify_clean_run_exits_zero(tmp_path):
    cfg = write_config(tmp_path, VERIFY_OK_CFG)
    out = tmp_path / "res"
    r = run_cli("verify", "--config", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr
    rows = (out / "verify.csv").read_text().splitlines()
    assert rows[0].startswith("transform,t,status")
    assert len(rows) == 3
    assert all(",false," in row for row in rows[1:])
    assert "warning" not in r.stderr


def test_verify_flags_destruction_and_warns(tmp_path):
    cfg = write_config(tmp_path, VERIFY_BAD_CFG)
    out = tmp_path / "res"
    r = run_cli("verify", "--config", cfg, "--out", str(out))
    assert r.returncode == 5
    assert "verifying anyway" in r.stderr
    assert "SIGNIFICANT" in r.stdout
    meta = json.loads((out / "verify_meta.json").read_text())
    assert meta["significant_violation"] is True


def test_hunt_reports_earliest_stable_time(tmp_path):
    cfg = write_config(tmp_path, HUNT_CFG)
    out = tmp_path / "res"
    r = run_cli("hunt", "--config", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr
    text = (out / "hunt_power_1.5.csv").read_text()
    assert text.splitlines()[0] == "t,level,h,status,gap,noise_floor,significant"
    assert "# earliest_significant_t=0.05" in text
    assert "# worst lambda=" in text
    meta = json.loads((out / "hunt_meta.json").read_text())
    assert meta["earliest_significant_t"]["power[1.5]"] == 0.05


def test_hunt_honours_the_significance_factor(tmp_path):
    cfg = write_config(tmp_path, HUNT_CFG + "certify.significance_factor = 1e9\n")
    out = tmp_path / "res"
    r = run_cli("hunt", "--config", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr
    text = (out / "hunt_power_1.5.csv").read_text()
    assert "earliest_significant_t" not in text
    assert "# no stable significant violation found" in text
    meta = json.loads((out / "hunt_meta.json").read_text())
    assert meta["earliest_significant_t"]["power[1.5]"] is None


def test_hunt_honours_eps_tail(tmp_path):
    """hunt used to evolve at the default tail tolerance whatever the config
    said, so a loose flow.eps_tail left its history unchanged."""
    texts = []
    for name, extra in (("default", ""), ("loose", "flow.eps_tail = 1e-3\n")):
        cfg = write_config(tmp_path, HUNT_CFG + extra, name=f"{name}.cfg")
        assert entry(["hunt", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        texts.append((tmp_path / name / "hunt_power_1.5.csv").read_text())
    assert texts[0] != texts[1]


def _replace_keys(text, *lines):
    """text without the keys that `lines` set, followed by those lines."""
    keys = {line.split("=")[0].strip() for line in lines}
    kept = [ln for ln in text.splitlines() if ln.split("=")[0].strip() not in keys]
    return "\n".join(kept + list(lines)) + "\n"


def test_every_verify_row_matches_the_header(tmp_path):
    """A two-node grid holds no testable triple; its row used to carry one
    field more than the header."""
    for name, lines in (("fine", ()), ("bare", ("grid.lo = -1", "grid.hi = 1",
                                                "grid.h = 2"))):
        cfg = write_config(tmp_path, _replace_keys(VERIFY_OK_CFG, *lines),
                           name=f"{name}.cfg")
        out = tmp_path / name
        assert entry(["verify", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "verify.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows and all(len(row) == len(header) for row in rows), rows


def test_verify_meta_records_each_scan(tmp_path):
    """One record per (transform, t): the middle nodes judged (every node
    but the two ends of the 257-node line) and the deciding chord, which a
    grid without a triple does not have."""
    for name, lines, n_samples in (
            ("fine", (), 257 - 2),
            ("bare", ("grid.lo = -1", "grid.hi = 1", "grid.h = 2"), 0)):
        cfg = write_config(tmp_path, _replace_keys(VERIFY_OK_CFG, *lines),
                           name=f"{name}.cfg")
        out = tmp_path / name
        assert entry(["verify", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "verify.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        scans = json.loads((out / "verify_meta.json").read_text())["scans"]
        assert [(r["transform"], r["t"]) for r in scans] == [
            (row["transform"], float(row["t"])) for row in rows]
        assert len(scans) == 2
        for rec, row in zip(scans, rows):
            assert rec["n_samples"] == n_samples
            if n_samples:
                assert rec["chord"]["gap"] == float(row["gap"])
            else:
                assert rec["chord"] is None


def test_evolve_meta_records_the_refinement_history(tmp_path):
    cfg = write_config(tmp_path, EVOLVE_CFG.replace("flow.times = 0.25", "flow.times = 0.1,0.25"))
    assert entry(["evolve", "--config", cfg, "--out", str(tmp_path / "res")]) == 0
    results = json.loads((tmp_path / "res" / "evolve_meta.json").read_text())["results"]
    assert len(results) == 2
    for rec in results:
        (m0, first), *rest = rec["refine_history"]
        assert first is None and rest
        assert [m for m, _ in rest] == [m0 * 2 ** k for k in range(1, len(rest) + 1)]
        assert rec["converged"] == (rest[-1][1] <= 1e-9)


@pytest.mark.parametrize("h, method", [("0.03125", "direct"), ("0.0009765625", "fft")])
def test_evolve_meta_records_how_the_kernel_sums_were_taken(tmp_path, h, method):
    """257 nodes sum directly; 16385 nodes on (-8, 8) take the long FFT
    blocks, half the kernel, with a roundoff bound."""
    cfg = write_config(tmp_path, EVOLVE_CFG.replace("grid.lo = -4", "grid.lo = -8")
                       .replace("grid.hi = 4", "grid.hi = 8")
                       .replace("grid.h  = 0.03125", f"grid.h  = {h}"))
    assert entry(["evolve", "--config", cfg, "--out", str(tmp_path / "res")]) == 0
    (rec,) = json.loads((tmp_path / "res" / "evolve_meta.json").read_text())["results"]
    (K,) = rec["kernel_len"]
    assert rec["kernel_method"] == method
    assert rec["lattice_factor"] == rec["refine_history"][-1][0]
    if method == "fft":
        assert rec["fft_block"] == K // 2 and 0.0 < rec["roundoff_error"] < 1e-13
    else:
        assert rec["fft_block"] is None and rec["roundoff_error"] == 0.0


def test_hunt_meta_records_each_scan(tmp_path):
    """One record per transform and hunt level, in the order of its CSV rows."""
    cfg = write_config(tmp_path, HUNT_CFG + "transform = power alpha=1\n")
    out = tmp_path / "res"
    assert entry(["hunt", "--config", cfg, "--out", str(out)]) == 0
    scans = json.loads((out / "hunt_meta.json").read_text())["scans"]
    files = {"power[1.5]": "hunt_power_1.5.csv", "power[1]": "hunt_power_1.csv"}
    assert set(scans) == set(files)
    for label, recs in scans.items():
        with open(out / files[label], newline="") as fh:
            rows = list(csv.DictReader(r for r in fh if not r.startswith("#")))
        assert [(r["t"], r["level"]) for r in recs] == [
            (float(row["t"]), int(row["level"])) for row in rows]
        for rec, row in zip(recs, rows):
            assert set(rec) == {"t", "level", "n_samples", "chord"}
            assert rec["n_samples"] > 0 and rec["chord"]["gap"] == float(row["gap"])


@pytest.mark.parametrize("command,line", [
    ("hunt", "certify.refine_levels = -1"),
    ("verify", "flow.eps_tail = 0"),
    ("verify", "flow.eps_tail = -1"),
    ("evolve", "flow.times = nan"),
    ("verify", "flow.times = nan"),
    ("verify", "certify.significance_factor = nan"),
    ("verify", "certify.significance_factor = -1"),
    ("verify", "flow.eps_tail = 2"),
    ("verify", "flow.eps_tail = inf"),
    ("verify", "flow.eps_tail = nan"),
    ("hunt", "certify.refine_levels = 0.5"),
    ("evolve", "grid.lo = 7"),
    ("verify", "grid.h = abc"),
    ("evolve", "flow.times = 0.05,x"),
])
def test_invalid_config_values_are_config_errors(tmp_path, capsys, command, line):
    """Each value used to crash the command (exit 1, a traceback) or, for
    the NaN significance factor, let the power-2 wedge verify exit 0, not 5."""
    base = HUNT_CFG if command == "hunt" else VERIFY_BAD_CFG
    cfg = write_config(tmp_path, _replace_keys(base, line))
    out = tmp_path / "res"
    assert entry([command, "--config", cfg, "--out", str(out)]) == 2
    assert line.split("=")[0].strip() in capsys.readouterr().err
    assert not out.exists()


def test_hunt_refuses_a_dirichlet_domain(tmp_path, capsys):
    """hunt evolves in free space only; an interval config used to write the
    free-space history while its metadata recorded the interval."""
    cfg = write_config(tmp_path, HUNT_CFG + "domain = interval lo=-6 hi=6 ell=5\n")
    out = tmp_path / "res"
    assert entry(["hunt", "--config", cfg, "--out", str(out)]) == 2
    assert "free space" in capsys.readouterr().err
    assert not out.exists()


def test_first_lattice_above_the_node_budget_exits_two(tmp_path, capsys):
    """At t = 1e-12 the first lattice would need about 10^9 nodes."""
    cfg = write_config(tmp_path, EVOLVE_CFG.replace("flow.times = 0.25", "flow.times = 1e-12"))
    out = tmp_path / "res"
    assert entry(["evolve", "--config", cfg, "--out", str(out)]) == 2
    assert "budget of 8388608" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_key_is_a_config_error(tmp_path):
    cfg = write_config(tmp_path, "grid.spacing = 0.1\n")
    r = run_cli("classify", "--config", cfg)
    assert r.returncode == 2
    assert "config error" in r.stderr


def test_classify_without_transforms_is_a_config_error(tmp_path):
    cfg = write_config(tmp_path, "datum = gaussian t0=0.5\n")
    r = run_cli("classify", "--config", cfg)
    assert r.returncode == 2


@pytest.mark.parametrize("line", ["certify.plan = random", "certify.lambda_set = 1/3,1/2",
                                  "certify.n_random = 0", "seed = -1"])
def test_retired_keys_warn_and_change_nothing(tmp_path, capsys, line):
    """The keys of the midpoint plans, which the benchmark's configs still
    write, are accepted with a warning on stderr that names each, and leave
    verify.csv byte for byte as it is without them; the metadata's resolved
    config leaves them out."""
    outs = []
    for name, text in (("without", VERIFY_BAD_CFG), ("with", VERIFY_BAD_CFG + line + "\n")):
        cfg = write_config(tmp_path, text, name=f"{name}.cfg")
        outs.append(tmp_path / name)
        assert entry(["verify", "--config", cfg, "--out", str(outs[-1])]) == 5
        err = capsys.readouterr().err
    key = line.split("=")[0].strip()
    assert f"{key} = " in err and "retired: the certificate tests every chord" in err
    assert (outs[0] / "verify.csv").read_bytes() == (outs[1] / "verify.csv").read_bytes()
    assert key not in json.loads((outs[1] / "verify_meta.json").read_text())["config"]


def test_seed_flag_is_gone(tmp_path):
    r = run_cli("verify", "--config", write_config(tmp_path, VERIFY_OK_CFG), "--seed", "3")
    assert r.returncode == 2 and "--seed" in r.stderr


@pytest.mark.parametrize("command", ["verify", "hunt"])
def test_scan_records_carry_the_deciding_chord(tmp_path, command):
    """Each scan record's chord is the deciding triple of its CSV row:
    verify.csv's lambda, x0, x1 and gap, or the hunt level's gap."""
    cfg = write_config(tmp_path, VERIFY_BAD_CFG if command == "verify" else HUNT_CFG)
    out = tmp_path / "res"
    entry([command, "--config", cfg, "--out", str(out)])
    name = "verify.csv" if command == "verify" else "hunt_power_1.5.csv"
    with open(out / name, newline="") as fh:
        rows = list(csv.DictReader(r for r in fh if not r.startswith("#")))
    scans = json.loads((out / f"{command}_meta.json").read_text())["scans"]
    recs = scans if command == "verify" else scans["power[1.5]"]
    assert len(recs) == len(rows) > 0
    for rec, row in zip(recs, rows):
        chord = rec["chord"]
        assert set(chord) == {"x0", "x1", "lam", "gap"} and chord["gap"] == float(row["gap"])
        assert chord["x0"] < chord["x1"] and 0.0 < chord["lam"] < 1.0
        if command == "verify":
            assert (chord["lam"], chord["x0"], chord["x1"]) == (
                float(row["lambda"]), float(row["x0"]), float(row["x1"]))
    if command == "verify":  # a two-node grid scans no triple
        bare = write_config(tmp_path, _replace_keys(VERIFY_OK_CFG, "grid.lo = -1", "grid.hi = 1",
                                                    "grid.h = 2"), name="bare.cfg")
        assert entry(["verify", "--config", bare, "--out", str(tmp_path / "bare")]) == 0
        scans = json.loads((tmp_path / "bare" / "verify_meta.json").read_text())["scans"]
        assert [rec["chord"] for rec in scans] == [None, None]


def test_bad_grid_extent_flag(tmp_path):
    cfg = write_config(tmp_path, CLASSIFY_CFG)
    r = run_cli("classify", "--config", cfg, "--grid-extent", "wide")
    assert r.returncode == 2
    assert "config error" in r.stderr


def test_schedule_beyond_existence_window_exits_four(tmp_path):
    # growth_A = 1 admits times only up to just under 1/4
    import numpy as np

    x = np.linspace(-2.0, 2.0, 33)
    u0 = GridFunction(values=np.exp(0.5 * x * x), extent=((-2.0, 2.0),),
                      growth_a=1.0, growth_A=1.0)
    datum_file = tmp_path / "datum.csv"
    datum_file.write_text(u0.to_csv())
    cfg = write_config(
        tmp_path, f"datum = csv path={datum_file}\nflow.times = 0.24\n")
    r = run_cli("evolve", "--config", cfg, "--out", str(tmp_path / "res"))
    assert r.returncode == 4
    assert "window error" in r.stderr
    # (1 - EXISTENCE_MARGIN) / (4 A), as heat_evolve_free itself admits
    assert "0.2375" in r.stderr


_CSV_HEAD = "# dim=1\n# axis lo=-1.0 hi=1.0 n={n}\n# growth_a=1.0 growth_A=0.0 value_error=0.0\nx,value\n"


@pytest.mark.parametrize("text, why", [
    (_CSV_HEAD.format(n=1) + "0,1\n", "two nodes per axis"),
    (_CSV_HEAD.format(n=5) + "-1,1\n-0.5,1\n0,1\n", "3 value rows"),
    (_CSV_HEAD.format(n=2) + "-1,1\n1,one\n", "could not convert"),
    (_CSV_HEAD.format(n=3) + "5,1\n7,2\n9,3\n", "row 1 puts axis 0 at 5.0"),
    ("x,value\n5\n", "no '# axis"),
    ("# dim=1\n# axis lo=0 n=3\nx,value\n0,1\n0.5,2\n1,3\n", "has no hi="),
], ids=["one_node_axis", "short_file", "non_numeric_row", "coordinates_off_the_axis",
        "no_axis_header", "axis_header_without_hi"])
def test_malformed_csv_datum_is_a_config_error(tmp_path, capsys, text, why):
    """A one-node axis, too few rows, a non-number, coordinates that
    contradict the axis header and a file without one are each refused
    before anything is evolved or written."""
    datum = tmp_path / "datum.csv"
    datum.write_text(text)
    cfg = write_config(tmp_path, f"datum = csv path={datum}\n")
    out = tmp_path / "res"
    assert entry(["evolve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and why in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evolve", "verify"])
@pytest.mark.parametrize("certificate, code", [
    ("growth_a=nan", 2), ("growth_a=-1", 2), ("growth_A=nan", 2), ("growth_A=inf", 2),
    ("value_error=-1", 2), ("value_error=nan", 2), ("value_error=inf", 0)])
def test_a_csv_datum_certificate_that_bounds_nothing_is_a_config_error(
        tmp_path, capsys, command, certificate, code):
    """A grid file's growth certificate and value error come from outside
    the program: growth_A=nan ended both commands in a traceback (exit 1),
    value_error=-1 let evolve write a negative value_error and
    value_error=nan let verify pass at infinite noise.  An infinite
    value_error is what an evolution that never doubled records: legal."""
    x = np.linspace(-6.0, 6.0, 193)
    gf = GridFunction(values=np.exp(-x * x) + 1.0, extent=((-6.0, 6.0),))
    datum = tmp_path / "datum.csv"
    datum.write_text(re.sub(certificate.split("=")[0] + r"=\S+", certificate, gf.to_csv()))
    cfg = write_config(tmp_path, f"datum = csv path={datum}\ntransform = power alpha=1\n"
                       "grid.lo = -2\ngrid.hi = 2\ngrid.h = 0.0625\nflow.times = 0.1\n")
    out = tmp_path / "res"
    assert entry([command, "--config", cfg, "--out", str(out)]) == code
    if code:
        err = capsys.readouterr().err
        assert "config error" in err and "a certificate needs" in err
        assert not out.exists()


@pytest.mark.parametrize("datum", ["gaussian t0=0", "gaussian t0=-1", "abs scale=nan",
                                   "exp_abs scale=nan", "abs center=inf"])
def test_bad_datum_parameters_are_a_config_error(tmp_path, capsys, datum):
    """A Gaussian of t0 <= 0 and a non-finite parameter are refused when the
    datum is built; they once escaped as a ValueError traceback (exit 1)."""
    cfg = write_config(tmp_path, EVOLVE_CFG.replace("gaussian t0=0.5", datum))
    out = tmp_path / "res"
    assert entry(["evolve", "--config", cfg, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def _readme_kinds(label):
    """README's kind list that follows label: kind -> {parameter: default},
    None for a parameter with no default."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.split(r"[.;]\s", text.split(label, 1)[1], maxsplit=1)[0]
    kinds = {}
    for span in re.findall(r"`([^`]+)`", listed):
        name, *params = span.split()
        kinds[name] = {k: float(v) if v else None
                       for k, v in (param.split("=") for param in params)}
    return kinds


_KINDS = {key: _readme_kinds(label) for key, label in
          (("transform", "Transform kinds:"), ("datum", "Datum kinds:"), ("domain", "Domains:"))}


def _kind_line(tmp_path, key, kind):
    """A config line of the kind with its required parameters (alpha, path) given."""
    params = " ".join(f"{k}={_csv_datum(tmp_path) if k == 'path' else 2}"
                      for k, v in _KINDS[key][kind].items() if v is None)
    return f"{key} = {kind} {params}".rstrip()


def _csv_datum(tmp_path):
    x = np.linspace(-6.0, 6.0, 97)
    path = tmp_path / "datum.csv"
    path.write_text(GridFunction(values=np.exp(-x * x), extent=((-6.0, 6.0),)).to_csv())
    return str(path)


@pytest.mark.parametrize("key, kind", [(key, kind) for key, kinds in _KINDS.items()
                                       for kind in kinds])
def test_an_undeclared_inline_parameter_exits_two_naming_it(tmp_path, capsys, key, kind):
    """A misspelt parameter (domain = interval ... el=1, power alpha=1
    alpah=2, gaussian t0=0.5 t1=3) used to be dropped: the run took the
    default and exited 0."""
    base = {"transform": "transform = power alpha=2", "datum": "datum = gaussian t0=0.5",
            "domain": ""}
    base[key] = _kind_line(tmp_path, key, kind) + " typo=1"
    cfg = write_config(tmp_path, "\n".join(base.values()) + "\ngrid.lo = -2\ngrid.hi = 2\n"
                       "grid.h = 0.0625\nflow.times = 0.05\n")
    out = tmp_path / "res"
    assert entry(["evolve", "--config", cfg, "--out", str(out)]) == 2
    assert f"{kind!r} has no parameter 'typo'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", list(_KINDS))
def test_the_readme_kind_lists_name_every_parameter_with_its_default(tmp_path, monkeypatch, key):
    """Each kind README lists is one the config builds, and reads exactly the
    parameters listed, with the listed defaults; csv's path is its one
    parameter that is not a number."""
    build = {"transform": config.build_transform, "datum": config.build_datum,
             "domain": config._build_domain}[key]
    assert set(_KINDS[key]) == set(re.findall(r'name == "(\w+)"', inspect.getsource(build)))
    num = config._num
    for kind, listed in _KINDS[key].items():
        read = {"path": None} if kind == "csv" else {}

        def spy(params, name, default=None):
            read[name] = default
            return num(params, name, default)

        monkeypatch.setattr(config, "_num", spy)
        _, params = config._inline(_kind_line(tmp_path, key, kind).split("=", 1)[1])
        build(kind, params, **({"F": make_power_alpha(2.0)} if key == "datum" else {}))
        assert read == listed, kind


@pytest.mark.parametrize("command", ["classify", "verify", "hunt"])
@pytest.mark.parametrize("transform", ["affine A=nan", "affine B=inf", "neglog ell=inf",
                                       "from_g drop=nan", "from_g base_z=inf",
                                       "from_g base_slope=inf"])
def test_bad_transform_parameters_are_a_config_error(tmp_path, capsys, command, transform):
    """Each constructor refuses the parameters that would not build an
    admissible transform, before any command runs; verify and hunt once ran
    an affine A=nan to exit 0, and from_g base_z=inf ended in a NameError."""
    cfg = write_config(tmp_path, f"transform = {transform}\n" + EVOLVE_CFG)
    out = tmp_path / "res"
    assert entry([command, "--config", cfg, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_loads_no_scipy():
    """numpy is the only import-time dependency: scipy's subpackages would
    add most of a second to every CLI start."""
    r = subprocess.run(
        [sys.executable, "-c", "import heatconvex.cli, sys; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_grid_evolve_loads_neither_scipy_interpolate_nor_fft(tmp_path):
    """Grid data go through the monotone-cubic interpolant, and at this
    spacing the kernel through the blocked FFT; both are numpy alone."""
    import numpy as np

    x = np.linspace(-6.0, 6.0, 97)
    datum = tmp_path / "gauss.csv"
    datum.write_text(GridFunction(values=np.exp(-x * x), extent=((-6.0, 6.0),)).to_csv())
    cfg = write_config(tmp_path, f"datum = csv path={datum}\ngrid.lo = -2\n"
                       "grid.hi = 2\ngrid.h = 0.00390625\nflow.times = 0.1\n"
                       "transform = power alpha=1.5\n")
    r = subprocess.run(
        [sys.executable, "-c", "import sys; from heatconvex.cli import entry; "
         f"rc = entry(['evolve', '--config', {cfg!r}, '--out', {str(tmp_path / 'res')!r}]); "
         "print(sorted(m for m in sys.modules if m.startswith(('scipy.interpolate', "
         "'scipy.fft')))); sys.exit(rc)"],
        capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip().splitlines()[-1] == "[]"
    u = GridFunction.from_csv((tmp_path / "res" / "evolve_00.csv").read_text())
    assert u.values.size == 1025
    assert np.max(np.abs(u.values - np.exp(-u.axes()[0] ** 2 / 1.4) / np.sqrt(1.4))) < 1e-4


def test_repeated_entry_reuses_one_parser_and_leaves_no_argparse_cycles(tmp_path):
    """A process running many commands builds the parser once; a rebuild
    per call left ~250 argparse objects per command for the cyclic
    collector, whose full passes then paused later work.  Flags of one
    call do not leak into the next."""
    import gc

    import heatconvex.cli as cli_mod

    assert cli_mod.build_parser() is cli_mod.build_parser()
    cfg = write_config(tmp_path, CLASSIFY_CFG + f"out = {tmp_path / 'cfg_out'}\n")
    assert entry(["classify", "--config", cfg, "--out", str(tmp_path / "flag_out")]) == 0
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        assert entry(["classify", "--config", cfg]) == 0
        gc.collect()
        leaked = [o for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert leaked == []
    assert (tmp_path / "flag_out" / "classify.csv").is_file()
    assert (tmp_path / "cfg_out" / "classify.csv").is_file()
