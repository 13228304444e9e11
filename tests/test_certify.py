"""Midpoint certificates, envelopes, hunts, and the class hierarchy."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatconvex import (
    DomainError,
    DomainSpec,
    ExistenceWindowError,
    GridFunction,
    InitialDatum,
    check_F_convex,
    check_envelope_comparison,
    check_quasi_convex,
    counterexample_datum,
    heat_evolve_dirichlet,
    heat_evolve_free,
    hunt_violation,
    hot_h,
    make_hot,
    make_neglog,
    make_power_alpha,
    mixture_envelope,
    scale_shift,
)
from heatconvex import certify, heatflow
from heatconvex.certify import _DIRECTIONS, _as_fraction, _transform_values

P0 = make_power_alpha(0.0)
P05 = make_power_alpha(0.5)
P1 = make_power_alpha(1.0)
P2 = make_power_alpha(2.0)


def grid_1d(fn, lo=-3.0, hi=3.0, n=301, value_error=0.0, growth_a=None):
    x = np.linspace(lo, hi, n)
    vals = fn(x)
    a = float(np.max(np.abs(vals))) * (1 + 1e-12) if growth_a is None else growth_a
    return GridFunction(values=vals, extent=((lo, hi),), growth_a=a,
                        growth_A=0.0, value_error=value_error)


def raw_second_difference_gap(vals):
    # stride-1 midpoint gap computed the pedestrian way
    mid = vals[1:-1]
    chord = 0.5 * vals[:-2] + 0.5 * vals[2:]
    return float(np.max(mid - chord))


# -- agreement with the elementary convexity test -----------------------------


@pytest.mark.parametrize("fn,expect_violation", [
    (lambda x: x * x + 1.0, False),
    (lambda x: np.abs(x) + 0.5, False),
    (lambda x: np.sin(3 * x) + 2.0, True),
    (lambda x: np.exp(-x * x) + 0.1, True),
])
def test_identity_transform_matches_raw_second_differences(fn, expect_violation):
    """The full scan holds the stride-1 triples, so its largest gap (the
    deciding gap at significance factor 0) is at least the raw
    second-difference gap, and the verdicts agree."""
    u = grid_1d(fn)
    cert = check_F_convex(u, P1)
    raw = raw_second_difference_gap(u.values)
    assert check_F_convex(u, P1, significance_factor=0.0).worst.gap >= raw - 1e-15
    assert (cert.status == "violation") == expect_violation
    assert (raw > cert.noise_floor) == expect_violation


def test_full_stride_scan_agrees_on_clear_cases():
    # larger strides cannot flip the verdict of a clearly convex or clearly
    # wiggly sample
    convex = check_F_convex(grid_1d(lambda x: x * x + 1.0), P1)
    wiggly = check_F_convex(grid_1d(lambda x: np.sin(3 * x) + 2.0), P1)
    assert convex.status == "no_violation_found"
    assert not convex.significant
    assert wiggly.status == "violation"
    assert wiggly.significant


def test_the_triple_of_largest_margin_decides():
    """A large gap where F(u) is noisy must not hide a smaller gap that
    clears its own, much lower, noise floor: the scan used to keep the
    largest raw gap (2.88e-5 against noise 3.59e-6, not significant), which
    the enumeration of every triple finds elsewhere."""
    x = np.linspace(-8.0, 8.0, 1025)
    vals = np.exp(0.1 * (x + 8.0) ** 2 - 6.9 + 1.26e-3 * np.exp(-(x + 7.0) ** 2 / 0.01)
                  + 1.2e-3 * np.exp(-x * x / 0.01))
    u = GridFunction(values=vals, extent=((-8.0, 8.0),),
                     growth_a=float(np.max(vals)) * 1.01, value_error=1e-9)
    cert = check_F_convex(u, P0)
    assert cert.significant
    assert cert.worst.gap > 10.0 * cert.noise_floor
    assert cert.worst.x0 == -cert.worst.x1 == -0.046875
    g_max = brute_certificate(u, P0, 10.0)[2]
    assert g_max == pytest.approx(2.88e-5, rel=1e-3)
    assert g_max > cert.worst.gap


def test_exactly_hot_convex_grid_is_not_refuted():
    """u = h(x^2 - 14) is hot-convex exactly (F(u) = x^2 - 14).  With
    h = (1 + erf(z/2)) / 2 and H bisected against it, the lower tail of u
    lost its digits and F of it erred, which read a significant violation
    of gap 0.020 against a noise floor of 2.2e-14."""
    x = np.linspace(-5.0, 5.0, 201)
    u = GridFunction(values=hot_h(x * x - 14.0), extent=((-5.0, 5.0),))
    F = make_hot(1.0)
    low = x * x < 14.0  # u < 1/2, where a double of u keeps its relative digits
    np.testing.assert_allclose(F(u.values[low]), x[low] ** 2 - 14.0, rtol=1e-14)
    cert = check_F_convex(u, F)
    assert cert.status == "no_violation_found" and not cert.significant


# -- relabeling invariance -----------------------------------------------------


def test_affine_relabel_keeps_verdict_and_scales_gap():
    u = grid_1d(lambda x: np.exp(-x * x) + 0.1)
    F2 = scale_shift(P1, 2.5, -3.0)
    c1 = check_F_convex(u, P1)
    c2 = check_F_convex(u, F2)
    assert c1.status == c2.status == "violation"
    assert c1.significant and c2.significant
    assert c2.worst.gap / c1.worst.gap == pytest.approx(2.5, rel=1e-9)
    assert c2.worst.x0 == c1.worst.x0
    assert c2.worst.x1 == c1.worst.x1


def test_affine_relabel_on_convex_data():
    u = grid_1d(lambda x: np.cosh(x))
    c1 = check_F_convex(u, P1)
    c2 = check_F_convex(u, scale_shift(P1, 7.0, 11.0))
    assert c1.status == c2.status == "no_violation_found"


# -- hierarchy over a small corpus ---------------------------------------------


def corpus():
    evolved = heat_evolve_free(
        InitialDatum(fn=lambda x: np.exp(np.abs(x)), growth_a=float(np.e),
                     growth_A=0.25, breakpoints=(0.0,)),
        0.1, (-4.0, 4.0, 1 / 64))
    yield "evolved_exp_abs", evolved, (True, True, True)
    yield "cosh", grid_1d(np.cosh), (True, True, True)
    yield "abs_shift", grid_1d(lambda x: np.abs(x) + 0.5), (False, True, True)
    yield "sine", grid_1d(lambda x: np.sin(x) + 2.0), (False, False, False)
    yield "bump", grid_1d(lambda x: np.exp(-x * x)), (False, False, False)


@pytest.mark.parametrize("name,u,expected",
                         list(corpus()), ids=lambda v: v if isinstance(v, str) else "")
def test_class_hierarchy(name, u, expected):
    passes_log = check_F_convex(u, P0).status == "no_violation_found"
    passes_convex = check_F_convex(u, P1).status == "no_violation_found"
    quasi, _ = check_quasi_convex(u)
    assert (passes_log, passes_convex, quasi) == expected
    # the containment chain itself
    if passes_log:
        assert passes_convex
    if passes_convex:
        assert quasi


# -- wedge data ----------------------------------------------------------------


def test_wedge_closed_forms():
    x = np.linspace(-2.0, 2.0, 41)
    w1 = counterexample_datum(P1, 1.0)
    assert np.allclose(w1.fn(x), np.abs(x) + 1.0, atol=1e-12)
    w2 = counterexample_datum(P2, 1.0)
    assert np.allclose(w2.fn(x), np.sqrt(2 * np.abs(x) + 1.0), atol=1e-12)
    assert w1.breakpoints == (0.0,)


@pytest.mark.parametrize("F", [P05, P1, P2], ids=["pow0.5", "pow1", "pow2"])
def test_wedge_is_exactly_F_convex_at_time_zero(F):
    d = counterexample_datum(F, 1.0)
    x = np.linspace(-4.0, 4.0, 257)
    u0 = GridFunction(values=d.fn(x), extent=((-4.0, 4.0),),
                      growth_a=d.growth_a, growth_A=d.growth_A)
    cert = check_F_convex(u0, F)
    assert cert.status == "no_violation_found"
    assert not cert.significant


@pytest.mark.parametrize("direction, sign", [(None, 1.0), (2.0, 1.0), (-1.0, -1.0),
                                             ((-3.0,), -1.0)],
                         ids=["default", "scaled", "negative", "negative_tuple"])
def test_1d_wedge_is_a_ridge(direction, sign):
    """In 1D the wedge is a ridge along (+-1,) as in n dimensions: its fn is
    the profile, its kink z0 lies along xi, and free space evolves it on its
    line; along (1,) that is the flow of the plain datum bit for bit, along
    (-1,) on a symmetric window its mirror image."""
    w = counterexample_datum(P2, 1.5, direction=direction)
    z0 = float(P2(1.5))
    assert w.direction == (sign,) and w.breakpoints == (z0,)
    x = np.linspace(-3.0, 3.0, 61)
    assert np.array_equal(w(x), w.fn(sign * x))
    assert np.array_equal(w.fn(x), P2.inverse(z0 + np.abs(x - z0)))
    u = heat_evolve_free(w, 0.05, (-4.0, 4.0, 1.0 / 16))
    assert u.meta["ridge"] == {"direction": [sign], "line": [-4.0, 4.0, 1.0 / 16]}
    plain = InitialDatum(fn=w.fn, growth_a=w.growth_a, growth_A=w.growth_A,
                         breakpoints=w.breakpoints)
    ref = heat_evolve_free(plain, 0.05, (-4.0, 4.0, 1.0 / 16))
    assert np.array_equal(u.values, ref.values[::int(sign)])
    assert u.value_error == ref.value_error


def test_wedge_and_datum_labels_print_parameters_that_read_back():
    from heatconvex.config import build_datum
    assert counterexample_datum(P1, 1.0).label == "wedge[power[1],r0=1]"
    assert counterexample_datum(P1, 1.0000001).label == "wedge[power[1],r0=1.0000001]"
    assert build_datum("gaussian", {"t0": 0.5000001}).label == "gaussian[t0=0.5000001]"
    assert build_datum("const", {"c": 2}).label == "const[2]"
    assert build_datum("hot_bowl", {}).label == "hot_bowl[depth=6]"


def test_wedge_rejects_exterior_vertex_value():
    with pytest.raises(DomainError):
        counterexample_datum(P1, -0.5)


def test_wedge_2d_direction_and_breakpoints():
    d = counterexample_datum(P2, 1.0, direction=(0.0, 1.0), dim=2)
    assert d.direction == (0.0, 1.0) and d.breakpoints == (0.0,)
    x = np.linspace(-2.0, 2.0, 65)
    vals = d(*np.broadcast_arrays(x[:, None], x[None, :]))
    u0 = GridFunction(values=vals, extent=((-2.0, 2.0), (-2.0, 2.0)),
                      growth_a=d.growth_a, growth_A=d.growth_A)
    cert = check_F_convex(u0, P2)
    assert cert.status == "no_violation_found"


def test_ridge_values_broadcast_to_the_lattice():
    """On an open mesh the (0, 1) wedge returns one line; broadcast, it is the
    wedge on the full lattice, which certifies F-convex."""
    d = counterexample_datum(P2, 1.0, direction=(0.0, 1.0), dim=2)
    x = np.linspace(-2.0, 2.0, 65)
    mesh = (x[:, None], x[None, :])
    line, full = d(*mesh), d(*np.broadcast_arrays(*mesh))
    assert line.shape == (1, 65) and full.shape == (65, 65)
    assert np.array_equal(np.broadcast_to(line, full.shape), full)
    u0 = GridFunction(values=full, extent=((-2.0, 2.0), (-2.0, 2.0)),
                      growth_a=d.growth_a, growth_A=d.growth_A)
    cert = check_F_convex(u0, P2)
    assert cert.status == "no_violation_found" and cert.n_samples > 0


def _n_axis(ridge):
    """ridge as a datum of n axes (no direction), so free space takes the
    n-axis path: the ridge called on the lattice, its profile's kinks mapped
    onto the axis it crosses when it crosses one."""
    d = ridge.direction
    crossed = [k for k, dk in enumerate(d) if dk]
    brk = tuple(tuple(b / d[k] for b in ridge.breakpoints) if crossed == [k] else ()
                for k in range(len(d)))
    return InitialDatum(fn=ridge, growth_a=ridge.growth_a, growth_A=ridge.growth_A,
                        breakpoints=brk)


@pytest.mark.parametrize("F, direction", [
    (P2, (1.0, 0.0)), (make_hot(1.0), (0.0, 1.0)), (P0, (0.0, 0.0, 1.0)),
], ids=["pow2_x", "hot_y", "pow0_z"])
def test_axis_aligned_wedge_evolves_as_on_the_full_lattice(F, direction, monkeypatch):
    """The ridge path (the 1D flow of the profile along its line) and the
    n-axis path on the full lattice agree within both value_errors."""
    dim = len(direction)
    monkeypatch.setattr(heatflow, "_MAX_LATTICE_NODES", 2 ** 25)
    w = counterexample_datum(F, float(F.inverse(0.0)), direction=direction, dim=dim,
                             fit_window=(-2.0, 2.0))
    g = (-2.0, 2.0, 0.5) if dim == 2 else (-1.0 / 16, 1.0 / 16, 1.0 / 16)
    kw = {"max_refine": 2} if dim == 2 else {"max_refine": 1, "eps_tail": 1e-6}
    u = heat_evolve_free(w, 0.05, (g,) * dim, **kw)
    ref = heat_evolve_free(_n_axis(w), 0.05, (g,) * dim, **kw)
    assert u.meta["ridge"]["direction"] == list(direction) and "ridge" not in ref.meta
    diff = np.abs(u.values - ref.values) / (1.0 + np.abs(ref.values))
    assert float(np.max(diff)) <= u.value_error + ref.value_error


@pytest.mark.parametrize("F, direction", [
    (P2, (1.0, 1.0)), (make_power_alpha(1.5), (1.0, -1.0)), (P05, (-1.0, 1.0)),
], ids=["pow2_diag", "pow1.5_anti", "pow0.5_anti"])
def test_oblique_wedge_keeps_the_verdicts_of_the_n_axis_path(F, direction):
    """On a benchmark wedge (33 x 33 on (-2, 2), t = 0.05, max_refine 2) the
    ridge path converges where the n-axis path stops short, and both
    certificates read as they do on the n-axis path.  (The n-axis path errs
    there by more than its value_error, so the two need not agree within
    their errors; the closed-form test below checks the ridge path.)"""
    w = counterexample_datum(F, float(F.inverse(0.0)), direction=direction, dim=2,
                             fit_window=(-2.0, 2.0))
    g = (-2.0, 2.0, 4.0 / 32)
    u = heat_evolve_free(w, 0.05, (g, g), max_refine=2)
    ref = heat_evolve_free(_n_axis(w), 0.05, (g, g), max_refine=2)
    assert u.meta["converged"] and not ref.meta["converged"]
    assert check_F_convex(u, F).significant == check_F_convex(ref, F).significant
    assert check_quasi_convex(u)[0] == check_quasi_convex(ref)[0]


def _abs_flow(xi, t):
    """The heat flow of |xi| + 1 at time t, along xi:
    1 + xi erf(xi / 2 sqrt(t)) + 2 sqrt(t / pi) exp(-xi^2 / 4t)."""
    from scipy.special import erf

    s = 2.0 * np.sqrt(t)
    return 1.0 + xi * erf(xi / s) + s / np.sqrt(np.pi) * np.exp(-(xi / s) ** 2)


@pytest.mark.parametrize("direction", [(1.0, 1.0), (1.0, -1.0), (1.0, 1.0, 1.0),
                                       (1.0, 0.0, -1.0)])
def test_oblique_power_1_wedge_meets_the_closed_form(direction):
    """The power-1 wedge at r0 = 1 is |xi| + 1; its flow is the erf formula
    at xi = d . x.  The 3D ridges converge within the default node budget,
    which the n-axis path cannot reach in 3D."""
    dim = len(direction)
    w = counterexample_datum(P1, 1.0, direction=direction, dim=dim, fit_window=(-2.0, 2.0))
    g = (-2.0, 2.0, 1.0 / 8) if dim == 2 else (-1.0, 1.0, 1.0 / 8)
    u = heat_evolve_free(w, 0.1, (g,) * dim)
    assert u.meta["converged"] and u.meta["ridge"]["direction"] == list(w.direction)
    xi = sum(dk * c for dk, c in zip(w.direction, np.meshgrid(*u.axes(), indexing="ij")))
    err = np.abs(u.values - _abs_flow(xi, 0.1))
    assert np.all(err <= u.value_error * (1.0 + np.abs(u.values)))


def test_crossed_spacings_that_differ_take_the_n_axis_path():
    """A (1, 1) wedge on spacings 1/8 and 1/4 fills no uniform line: it
    takes the n-axis path, bit for bit as a datum that computes d . x
    itself, with no ridge record."""
    F = make_power_alpha(1.5)
    w = counterexample_datum(F, 1.0, direction=(1.0, 1.0), dim=2, fit_window=(-2.0, 2.0))
    z0, d = float(F(1.0)), w.direction

    def wedge(*xs):
        xi = np.asarray(sum(dk * np.asarray(x, dtype=float) for dk, x in zip(d, xs) if dk),
                        dtype=float)
        xi -= z0
        np.abs(xi, out=xi)
        xi += z0
        return F.inverse(xi)

    grids = ((-2.0, 2.0, 1.0 / 8), (-2.0, 2.0, 1.0 / 4))
    u = heat_evolve_free(w, 0.05, grids, max_refine=2)
    ref = heat_evolve_free(InitialDatum(fn=wedge, growth_a=w.growth_a,
                                        growth_A=w.growth_A, breakpoints=((), ())),
                           0.05, grids, max_refine=2)
    assert "ridge" not in u.meta
    assert np.array_equal(u.values, ref.values)
    assert u.value_error == ref.value_error and u.meta == ref.meta


@pytest.mark.parametrize("direction", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
def test_axis_aligned_wedge_inverts_one_lattice_line(direction):
    """A ridge evaluates its profile, and so F^-1, on the lattice of one line
    of xi only."""
    sizes, shapes = [], []

    def inverse(z):
        sizes.append(np.size(z))
        return P2._inverse(z)

    F = replace(P2, _inverse=inverse)
    w = counterexample_datum(F, 1.0, direction=direction, dim=2, fit_window=(-2.0, 2.0))

    def fn(*xs):
        shapes.append(np.broadcast(*xs).shape)
        return w.fn(*xs)

    del sizes[:]
    g = (-2.0, 2.0, 0.125)
    u = heat_evolve_free(replace(w, fn=fn), 0.1, (g, g))
    assert u.meta["lattice_factor"] >= 2 and "ridge" in u.meta
    assert all(len(s) <= 1 for s in shapes)
    line = max(shapes, key=np.prod)[0]
    # refined past the output nodes of the line: 32 cells per crossed axis
    assert line > 32 * sum(map(bool, direction)) + 1
    assert sizes and max(sizes) <= line
    assert len(sizes) == len(shapes)


@pytest.mark.parametrize("F", [P0, P2, make_hot(1.0)], ids=["pow0", "pow2", "hot"])
def test_wedge_growth_is_fitted_along_its_direction(F):
    """(a, A) does not depend on the direction, and it bounds the datum off
    the first axis too."""
    r0 = float(F.inverse(0.0))
    ref = counterexample_datum(F, r0, direction=(1.0, 0.0), dim=2)
    rng = np.random.default_rng(5)
    x, y = rng.uniform(-5.0, 5.0, (2, 400))
    for direction in ((0.0, 1.0), (1.0, 1.0), (1.0, -1.0), (0.0, 0.0, 1.0)):
        dim = len(direction)
        w = counterexample_datum(F, r0, direction=direction, dim=dim)
        assert w.growth_a == pytest.approx(ref.growth_a, rel=1e-12, abs=0.0)
        assert w.growth_A == pytest.approx(ref.growth_A, rel=1e-12, abs=1e-300)
        pts = (x, y) if dim == 2 else (x, np.zeros_like(x), y)
        r2 = sum(c * c for c in pts)
        assert np.all(np.abs(w(*pts)) <= w.growth_a * np.exp(w.growth_A * r2) * (1 + 1e-6))


def test_hunt_sizes_its_grid_before_any_evolution():
    """A base grid above the node budget is refused by its count, before the
    datum is evaluated."""
    calls = []
    phi = InitialDatum(fn=lambda x: calls.append(x) or np.abs(x), breakpoints=(0.0,))
    with pytest.raises(DomainError, match="output grid of 1.6e\\+10 nodes"):
        hunt_violation(P1, phi, (0.1,), (-8.0, 8.0, 1e-9))
    assert calls == []


def test_hunt_keeps_its_finished_levels_at_the_node_budget(monkeypatch):
    """Under a budget of 3000 nodes this hunt certifies level 0, and level
    1's first lattice has 4185 nodes: the hunt used to raise there and lose
    level 0.  Now that time ends unstable with level 0 kept, its record
    holding the evolution's whole meta.  At level 0 the refusal still
    raises."""
    monkeypatch.setattr(heatflow, "_MAX_LATTICE_NODES", 3000)
    phi = counterexample_datum(P2, 1.0, fit_window=(-1.0, 1.0))
    grid = (-1.0, 1.0, 2.0 / 600)
    history = []
    cert, t_first = hunt_violation(P2, phi, (0.05,), grid, refine=3, history=history)
    assert t_first is None and [rec["level"] for rec in history] == [0]
    assert cert is history[0]["certificate"] and cert.n_samples > 0
    assert history[0]["meta"] == heat_evolve_free(phi, 0.05, grid).meta
    with pytest.raises(DomainError, match="first lattice .* above the budget of 3000"):
        hunt_violation(P2, phi, (1e-6,), grid, refine=3)


# -- the hunt dichotomy --------------------------------------------------------


@pytest.mark.parametrize("alpha,destroyed", [
    (0.5, False),
    (1.0, False),
    (1.25, True),
    (1.5, True),
    (2.0, True),
])
def test_hunt_dichotomy(alpha, destroyed):
    F = make_power_alpha(alpha)
    phi = counterexample_datum(F, 1.0)
    cert, t_first = hunt_violation(F, phi, times=(0.05, 0.1),
                                   grid=(-6.0, 6.0, 12.0 / 128), refine=2)
    if destroyed:
        assert t_first is not None
        assert cert.significant
        assert cert.status == "violation"
    else:
        assert t_first is None
        assert not cert.significant
        assert cert.status == "no_violation_found"


def test_hunt_history_records_refinement_passes():
    F = make_power_alpha(2.0)
    phi = counterexample_datum(F, 1.0)
    history = []
    cert, t_first = hunt_violation(F, phi, times=(0.05,), grid=(-6.0, 6.0, 12.0 / 128),
                                   refine=2, history=history)
    assert t_first == 0.05
    assert len(history) >= 2
    levels = [rec["level"] for rec in history]
    assert levels == sorted(levels)
    for rec in history:
        assert rec["t"] == 0.05
        assert rec["certificate"].worst is not None
    # successive grids halve the spacing
    assert history[1]["h"] == pytest.approx(history[0]["h"] / 2)


# -- mixture envelope ----------------------------------------------------------


def test_envelope_reproduces_convex_values_exactly():
    x = np.linspace(-2.0, 2.0, 129)
    v = GridFunction(values=np.abs(x) - 1.0, extent=((-2.0, 2.0),),
                     growth_a=1.0, growth_A=0.0)
    env = mixture_envelope(v, 0.5)
    assert np.array_equal(env.values, v.values)
    assert not env.meta["flagged"][64]


def test_envelope_of_negative_abs():
    # inf over symmetric pairs pulls the center down to the chord value
    x = np.linspace(-1.0, 1.0, 101)
    v = GridFunction(values=-np.abs(x), extent=((-1.0, 1.0),),
                     growth_a=1.0, growth_A=0.0)
    env = mixture_envelope(v, 0.5)
    assert env.values[50] == -1.0
    assert np.all(env.values <= v.values)
    assert np.any(env.values < v.values)
    assert env.values[0] == v.values[0]
    assert env.values[-1] == v.values[-1]


def test_envelope_of_wedge_in_transform_coordinates():
    d = counterexample_datum(P1, 1.0)
    x = np.linspace(-4.0, 4.0, 129)
    v = GridFunction(values=P1(d.fn(x)), extent=((-4.0, 4.0),),
                     growth_a=5.0, growth_A=0.0)
    env = mixture_envelope(v, 0.5)
    assert np.array_equal(env.values, v.values)


def brute_envelope(w, p, q):
    n = w.size
    lam = p / q
    out = w.copy()
    for i in range(n):
        for s in range(1, n):
            for d0, d1 in ((-p * s, (q - p) * s), (p * s, -(q - p) * s)):
                i0, i1 = i + d0, i + d1
                if 0 <= i0 < n and 0 <= i1 < n:
                    cand = (1 - lam) * w[i0] + lam * w[i1]
                    if cand < out[i]:
                        out[i] = cand
    return out


@pytest.mark.parametrize("lam,p,q", [(0.5, 1, 2), (0.25, 1, 4)])
def test_envelope_matches_brute_force(lam, p, q):
    rng = np.random.default_rng(11)
    vals = np.cumsum(rng.standard_normal(97)) * 0.3
    v = GridFunction(values=vals, extent=((-3.0, 3.0),),
                     growth_a=float(np.max(np.abs(vals))) + 1.0, growth_A=0.0)
    env = mixture_envelope(v, lam)
    oracle = brute_envelope(vals, p, q)
    tol = 1e-12 * (1.0 + np.abs(oracle))
    assert np.all(env.values <= oracle + tol)
    assert np.all(oracle <= env.values + tol)
    assert np.all(env.values <= v.values)


def loop_envelope(v, lam):
    """The envelope and flags as once computed, stride by stride over full
    index arrays with masks: the reference for the sliced loop."""
    p, q, lam_f = _as_fraction(lam)
    w = v.values
    n = w.size
    env = w.copy()
    arg_edge = np.zeros(n, dtype=bool)
    idx = np.arange(n)
    for s in range(1, (n - 1) // min(p, q - p) + 1):
        any_ok = False
        for sign in (1, -1):
            d0, d1 = -sign * p * s, sign * (q - p) * s
            i0, i1 = idx + d0, idx + d1
            ok = (i0 >= 0) & (i0 < n) & (i1 >= 0) & (i1 < n)
            if not np.any(ok):
                continue
            any_ok = True
            cand = np.full(n, np.inf)
            cand[ok] = (1.0 - lam_f) * w[i0[ok]] + lam_f * w[i1[ok]]
            better = cand < env - 4 * np.finfo(float).eps * (1.0 + np.abs(cand))
            env = np.where(better, cand, env)
            at_edge = ok & ((i0 == 0) | (i0 == n - 1) | (i1 == 0) | (i1 == n - 1))
            arg_edge = np.where(better, at_edge, arg_edge)
        if not any_ok:
            break
    x_lo, h = v.axes()[0][0], v.spacing[0]
    tol = (v.value_error + 4 * np.finfo(float).eps) * (1.0 + np.max(np.abs(w)))

    def side(i):
        x = x_lo + i * h
        return np.where((i >= 0) & (i < n), w[np.clip(i, 0, n - 1)],
                        -v.growth_a * np.exp(v.growth_A * x * x))

    flagged = arg_edge.copy()
    for d0, d1 in ((-p, q - p), (p, -(q - p))):
        cap0 = idx // (-d0) if d0 < 0 else (n - 1 - idx) // d0
        cap1 = idx // (-d1) if d1 < 0 else (n - 1 - idx) // d1
        s_exit = np.minimum(cap0, cap1) + 1
        cand = (1.0 - lam_f) * side(idx + d0 * s_exit) + lam_f * side(idx + d1 * s_exit)
        flagged |= cand < env - tol
    return env, flagged


@pytest.mark.parametrize("lam", [0.5, 1 / 3, 3 / 8, 1 / 4])
@pytest.mark.parametrize("shape", ["walk", "rounded", "convex", "edge_kink", "constant"])
def test_sliced_envelope_matches_the_masked_loop(shape, lam):
    """Values and flags equal to the last bit, over grids of 2 to 300 nodes;
    rounded walks tie across strides, convex data reproduce themselves, and
    a kink next to the window edge makes minimizers touch it.  A loose
    growth certificate flags most nodes from past the window; data below -1
    with growth_a = 0 leave the flags of minimizers at the edge to show."""
    rng = np.random.default_rng(17)
    for n in (2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 64, 101, 150, 257, 300):
        x = np.linspace(-3.0, 3.0, n)
        walk = np.cumsum(rng.standard_normal(n)) * 0.3
        vals = {"walk": walk, "rounded": np.round(walk, 1), "convex": x * x - 2.0,
                "edge_kink": -np.abs(x - x[min(1, n - 1)]) + 0.1 * walk,
                "constant": np.full(n, 0.75)}[shape]
        for vals, a, A in ((vals, float(np.max(np.abs(vals))) + 0.5, 0.2),
                           (vals - np.max(vals) - 1.0, 0.0, 0.0)):
            v = GridFunction(values=vals, extent=((-3.0, 3.0),), growth_a=a,
                             growth_A=A, value_error=1e-12)
            env = mixture_envelope(v, lam)
            ref_values, ref_flagged = loop_envelope(v, lam)
            assert np.array_equal(env.values, ref_values), (n, a)
            assert np.array_equal(env.meta["flagged"], ref_flagged), (n, a)


def test_envelope_rejects_bad_weights_and_2d():
    x = np.linspace(-1.0, 1.0, 11)
    v = GridFunction(values=x * x, extent=((-1.0, 1.0),), growth_a=1.0)
    with pytest.raises(DomainError):
        mixture_envelope(v, 0.3)
    with pytest.raises(DomainError):
        mixture_envelope(v, 1.0)
    v2 = GridFunction(values=np.zeros((5, 5)),
                      extent=((-1.0, 1.0), (-1.0, 1.0)), growth_a=1.0)
    with pytest.raises(DomainError):
        mixture_envelope(v2, 0.5)


# -- evolved envelope comparison -----------------------------------------------


def test_envelope_comparison_holds_for_abs_under_identity():
    phi = InitialDatum(fn=np.abs, growth_a=4.0, growth_A=0.0,
                       breakpoints=(0.0,))
    rep = check_envelope_comparison(P1, phi, 0.5, 0.1, (-4.0, 4.0), 1 / 32)
    assert rep.status == "holds"
    assert rep.max_gap <= 3 * rep.noise_floor
    assert rep.n_samples > 0


def test_envelope_comparison_holds_for_exp_abs_under_log():
    phi = InitialDatum(fn=lambda x: np.exp(np.abs(x)), growth_a=float(np.e),
                       growth_A=0.25, breakpoints=(0.0,))
    rep = check_envelope_comparison(P0, phi, 0.5, 0.1, (-3.0, 3.0), 1 / 32)
    assert rep.status == "holds"


def test_envelope_comparison_affine_datum_gap_is_dust():
    phi = InitialDatum(fn=lambda x: 0.1 * x + 10.0, growth_a=12.0,
                       growth_A=0.0)
    rep = check_envelope_comparison(P1, phi, 0.5, 0.05, (-2.0, 2.0), 1 / 32)
    assert rep.status == "holds"
    assert rep.max_gap <= 1e-8


@pytest.mark.parametrize("four_A_t", [0.97, 1.2])
def test_envelope_comparison_checks_the_existence_window_first(four_A_t, monkeypatch):
    """4 A t = 0.97 lies past the margin that heat_evolve_free admits, 1.2
    past the window itself: both are an ExistenceWindowError before any
    envelope is built."""
    def no_envelope(*args):
        raise AssertionError("envelope built outside the existence window")

    monkeypatch.setattr(certify, "mixture_envelope", no_envelope)
    phi = InitialDatum(fn=lambda x: np.exp(np.abs(x)), growth_a=float(np.e),
                       growth_A=0.25, breakpoints=(0.0,))
    with pytest.raises(ExistenceWindowError):
        check_envelope_comparison(P0, phi, 0.5, four_A_t, (-3.0, 3.0), 1 / 32)


def test_envelope_comparison_needs_an_initial_datum():
    with pytest.raises(TypeError, match="InitialDatum"):
        check_envelope_comparison(P1, np.abs, 0.5, 0.1, (-4.0, 4.0), 1 / 32)


# -- quasi-convexity -----------------------------------------------------------


def test_quasi_convex_1d():
    ok, witness = check_quasi_convex(grid_1d(lambda x: x * x))
    assert ok and witness is None

    ok, witness = check_quasi_convex(grid_1d(lambda x: np.sin(x) + 2.0, n=241))
    assert not ok
    x0, xm, x1 = witness
    assert x0 < xm < x1
    assert np.sin(xm) + 2 > max(np.sin(x0) + 2, np.sin(x1) + 2)


def test_quasi_convexity_survives_evolution_of_abs():
    phi = InitialDatum(fn=np.abs, growth_a=5.0, growth_A=0.0,
                       breakpoints=(0.0,))
    u = heat_evolve_free(phi, 0.1, (-4.0, 4.0, 1 / 64))
    ok, _ = check_quasi_convex(u)
    assert ok


def grid_2d(fn, lo=-2.0, hi=2.0, n=61):
    x = np.linspace(lo, hi, n)
    return GridFunction(values=fn(x[:, None], x[None, :]),
                        extent=((lo, hi), (lo, hi)),
                        growth_a=50.0, growth_A=0.0)


def assert_line_witness(u, witness):
    """x0, x_mid, x1 are nodes on one grid line, the middle strictly between
    the ends and its value above both."""
    axes = u.axes()
    nodes = []
    for point in witness:
        idx = tuple(int(np.argmin(np.abs(ax - c)))
                    for ax, c in zip(axes, np.atleast_1d(point)))
        assert tuple(float(ax[i]) for ax, i in zip(axes, idx)) == \
            tuple(np.atleast_1d(point))
        nodes.append(idx)
    i0, im, i1 = (np.array(n) for n in nodes)
    a, b = im - i0, i1 - im
    assert np.any(a != 0) and np.any(b != 0)
    assert a[0] * b[-1] == a[-1] * b[0] and np.dot(a, b) > 0
    v = u.values
    assert v[tuple(im)] > max(v[tuple(i0)], v[tuple(i1)])


def test_quasi_convex_2d():
    ok, _ = check_quasi_convex(grid_2d(lambda x, y: x * x + y * y))
    assert ok
    ok, _ = check_quasi_convex(grid_2d(lambda x, y: x * x - y * y))
    assert not ok
    ok, _ = check_quasi_convex(grid_2d(lambda x, y: (x * x - 1) ** 2 + 0.5 * y * y))
    assert not ok
    # a shallow dip on a bowl: on the axis-0 line through (0.33, -0.13) the
    # middle node sits 4.3e-3 above the running minima on both sides
    u = grid_2d(lambda x, y: x * x + y * y
                - 0.8 * np.exp(-4 * ((x - 1) ** 2 + y * y)))
    ok, witness = check_quasi_convex(u)
    assert not ok
    assert_line_witness(u, witness)


def test_quasi_convex_skips_nan_nodes():
    """A paraboloid masked to the triangle y <= x (NaN outside) used to be
    refuted through the NaN nodes; a masked saddle is still refuted, with
    every witness node inside the triangle."""
    x = np.linspace(-1.0, 1.0, 17)
    X, Y = np.meshgrid(x, x, indexing="ij")

    def masked(vals):
        return GridFunction(values=np.where(Y > X, np.nan, vals),
                            extent=((-1.0, 1.0), (-1.0, 1.0)),
                            growth_a=2.0, growth_A=0.0)

    assert check_quasi_convex(masked(X * X + Y * Y)) == (True, None)
    saddle = masked(X * X - Y * Y)
    ok, witness = check_quasi_convex(saddle)
    assert not ok
    assert all(y <= x for x, y in witness)
    assert_line_witness(saddle, witness)


def _quadratic(X, Y, c, w):
    return (w[0] * (X - c[0]) ** 2 + 2 * w[1] * (X - c[0]) * (Y - c[1])
            + w[2] * (Y - c[1]) ** 2)


QUASI_BASES = {
    "quadratic": _quadratic,
    "abs_linear": lambda X, Y, c, w: np.abs(w[0] * X + w[1] * Y + c[0]),
    "l1": lambda X, Y, c, w: np.abs(X - c[0]) + np.abs(Y - c[1]),
    "linf": lambda X, Y, c, w: np.maximum(np.abs(X - c[0]), np.abs(Y - c[1])),
}
INCREASING = {"identity": lambda t: t, "tanh": np.tanh, "arctan": np.arctan,
              "log1p": np.log1p, "sqrt": np.sqrt}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(QUASI_BASES)), st.sampled_from(sorted(INCREASING)),
       st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
       st.tuples(st.floats(0.1, 3.0), st.floats(-1.0, 1.0), st.floats(0.1, 3.0)),
       st.integers(2, 23), st.integers(2, 23))
def test_increasing_functions_of_convex_bases_are_quasi_convex(
        base, phi, c, w, n0, n1):
    if base == "quadratic":
        # positive definite: w1^2 < w0 * w2
        w = (w[0], w[1] * 0.99 * np.sqrt(w[0] * w[2]), w[2])
    x, y = np.linspace(-2.0, 2.0, n0), np.linspace(-2.0, 3.0, n1)
    X, Y = np.meshgrid(x, y, indexing="ij")
    vals = INCREASING[phi](QUASI_BASES[base](X, Y, c, w))
    u = GridFunction(values=vals, extent=((-2.0, 2.0), (-2.0, 3.0)),
                     growth_a=float(np.max(np.abs(vals))) + 1.0, growth_A=0.0)
    ok, witness = check_quasi_convex(u)
    assert ok and witness is None


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 14), st.integers(0, 14),
       st.sampled_from([0.0, 1e-3, 0.5]))
def test_every_refutation_carries_a_line_witness(seed, n0, n1, step):
    # n1 == 0 draws a 1D field; step > 0 rounds values so ties are common;
    # an axis of one node is refused
    rng = np.random.default_rng(seed)
    shape = (n0,) if n1 == 0 else (n0, n1)
    vals = np.cumsum(rng.standard_normal(shape), axis=0)
    if step:
        vals = np.round(vals / step) * step
    extent = ((-1.0, 1.0),) if n1 == 0 else ((-1.0, 1.0), (0.0, 2.0))
    grid = dict(values=vals, extent=extent,
                growth_a=float(np.max(np.abs(vals))) + 1.0, growth_A=0.0)
    if min(shape) < 2:
        with pytest.raises(DomainError, match="two nodes per axis"):
            GridFunction(**grid)
        return
    u = GridFunction(**grid)
    ok, witness = check_quasi_convex(u)
    if ok:
        assert witness is None
    else:
        assert_line_witness(u, witness)


def brute_quasi(u):
    """check_quasi_convex by enumeration of every (start, middle, end) node
    triple on every lattice line, NaN nodes skipped: the first direction
    whose largest excess of a middle over its ends passes the tolerance
    decides, at the first middle node in C order of that excess, with the
    smallest values before and after it as ends (the first in travel order
    on ties)."""
    v = u.values
    finite = np.abs(v[np.isfinite(v)])
    tol = (4 * np.finfo(float).eps + u.value_error) * (finite.max(initial=0.0) + 1.0)

    def ray(j, d, sign):
        nodes, x = [], tuple(a + sign * c for a, c in zip(j, d))
        while all(0 <= a < n for a, n in zip(x, v.shape)):
            if not np.isnan(v[x]):
                nodes.append(x)
            x = tuple(a + sign * c for a, c in zip(x, d))
        return nodes

    for d in _DIRECTIONS[v.ndim]:
        top = None
        for j in np.ndindex(v.shape):
            before, after = ray(j, d, -1)[::-1], ray(j, d, 1)
            with np.errstate(invalid="ignore"):
                excess = [v[j] - max(v[a], v[b]) for a in before for b in after]
            excess = [e for e in excess if not np.isnan(e)]
            if excess and (top is None or max(excess) > top[0]):
                top = (max(excess), before, j, after)
        if top is not None and top[0] > tol:
            _, before, j, after = top
            nodes = (min(before, key=v.__getitem__), j, min(after, key=v.__getitem__))
            points = [tuple(float(ax[i]) for ax, i in zip(u.axes(), n)) for n in nodes]
            return False, tuple(p[0] if v.ndim == 1 else p for p in points)
    return True, None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.tuples(st.integers(2, 30)), st.tuples(st.integers(2, 9), st.integers(2, 9)),
                 st.tuples(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5))),
       st.integers(0, 2 ** 32 - 1), st.sampled_from(["walk", "bowl"]),
       st.sampled_from([0.0, 0.5]), st.sampled_from([0.0, 0.2]), st.sampled_from([0.0, 0.1]),
       st.sampled_from([0.0, 1e-3]))
def test_quasi_check_matches_an_enumeration_of_line_triples(shape, seed, kind, step, nan_share,
                                                            inf_share, value_error):
    """Random walks (mostly refuted) and bowls (quasi-convex), rounded so
    that ties are common, with NaN and infinite nodes: the verdict and the
    witness are those of brute_quasi."""
    rng = np.random.default_rng(seed)
    if kind == "walk":
        vals = np.cumsum(rng.standard_normal(shape), axis=0)
    else:
        centre = rng.random(len(shape)) * np.array(shape)
        vals = sum((x - c) ** 2 for x, c in zip(np.indices(shape), centre)).astype(float)
    if step:
        vals = np.round(vals / step) * step
    vals[rng.random(shape) < inf_share] = np.inf
    vals[rng.random(shape) < nan_share] = np.nan
    u = GridFunction(values=vals, extent=tuple((0.0, 1.0 + k) for k in range(len(shape))),
                     value_error=value_error)
    assert check_quasi_convex(u) == brute_quasi(u)


@pytest.mark.parametrize("vals", [[1.0, 5.0, 2.0, np.inf], [1.0, np.inf, 2.0],
                                  [[1.0, 5.0, 2.0], [0.0, 0.0, np.inf]]])
def test_an_infinite_node_does_not_pass_every_grid(vals):
    """The tolerance used to scale with max |u|, infinite here, so a grid
    with an infinite node passed whatever its other values were."""
    vals = np.array(vals)
    u = GridFunction(values=vals, extent=((0.0, 1.0),) * vals.ndim)
    ok, witness = check_quasi_convex(u)
    assert not ok
    assert_line_witness(u, witness)


@pytest.mark.parametrize("vals", [np.full((3, 4), np.nan), [2.0, np.nan, -0.1],
                                  [np.nan, np.nan, -0.75]])
def test_a_grid_without_a_line_triple_is_quasi_convex(vals):
    """No line holds three nodes that are not NaN.  The all-NaN grid used to
    warn 'All-NaN slice', the second grid was refuted with its NaN node as
    the middle, and the third raised ValueError."""
    vals = np.array(vals)
    u = GridFunction(values=vals, extent=((0.0, 1.0),) * vals.ndim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_quasi_convex(u) == (True, None)


# -- the chord scan against every triple ---------------------------------------


def line_ends(shape):
    """(k, im, before, after) in scan order, direction k then middle node
    im in C order: the nodes of im's line along direction k before im and
    after it, each in travel order."""
    def ray(j, d, sign):
        nodes, x = [], tuple(a + sign * c for a, c in zip(j, d))
        while all(0 <= a < n for a, n in zip(x, shape)):
            nodes.append(x)
            x = tuple(a + sign * c for a, c in zip(x, d))
        return nodes

    for k, d in enumerate(_DIRECTIONS[len(shape)]):
        for im in np.ndindex(shape):
            yield k, im, ray(im, d, -1)[::-1], ray(im, d, 1)


def brute_certificate(u, F, factor):
    """(best, first, max_gap, middles) over every triple of nodes in order
    on a lattice line, the pedestrian way, a middle's triples at once: best
    the (margin, triple) of largest finite margin gap - factor noise, the
    chord taken as w0 + lam (w1 - w0) of w = F(u) + factor spread (None
    when no margin is finite); first the first triple in scan order
    (direction, middle, then first end and last end in travel order);
    max_gap the largest gap; middles the count of (direction, middle) pairs
    of a triple.  A triple is (i0, im, i1, lam), lam the middle's weight
    between the ends.  A NaN gap (opposite infinite ends) is no triple."""
    v, spread = _transform_values(u, F)
    best = first = None
    g_max, middles = -np.inf, 0
    with np.errstate(invalid="ignore"):
        w = v + factor * spread
        for _, im, before, after in line_ends(v.shape):
            if not (before and after):
                continue
            i0, i1 = tuple(np.array(before).T), tuple(np.array(after).T)
            d0, d1 = np.arange(len(before), 0, -1)[:, None], np.arange(1, len(after) + 1)
            lam = d0 / (d0 + d1)
            gap = v[im] - ((1.0 - lam) * v[i0][:, None] + lam * v[i1])
            triple = ~np.isnan(gap)
            if not triple.any():
                continue
            middles += 1
            g_max = max(g_max, gap[triple].max())
            if first is None:
                s0, s1 = np.argwhere(triple)[0]
                first = (before[s0], im, after[s1], lam[s0, s1])
            w0, w1 = w[i0][:, None], w[i1]
            margin = v[im] - factor * spread[im] - (w0 + lam * (w1 - w0))
            margin = np.where(triple & np.isfinite(margin), margin, -np.inf)
            s0, s1 = np.unravel_index(np.argmax(margin), margin.shape)
            if np.isfinite(margin[s0, s1]) and (best is None or margin[s0, s1] > best[0]):
                best = (margin[s0, s1], (before[s0], im, after[s1], lam[s0, s1]))
    return best, first, g_max, middles


def _point(u, i):
    p = tuple(float(a[k]) for a, k in zip(u.axes(), i))
    return p[0] if u.dim == 1 else p


def assert_matches_every_triple(u, F, factor=10.0):
    """The chord scan decides as the enumeration of every triple does: the
    same count of middles, and a deciding margin equal to the largest finite
    margin within rounding; with no finite margin, the first triple in scan
    order, exactly.  On finite values the count and first triple that the
    chain alone gives (`_finite_scan`) are `_typed_scan`'s."""
    cert = check_F_convex(u, F, factor)
    best, first, _, middles = brute_certificate(u, F, factor)
    assert cert.n_samples == middles
    v, _ = _transform_values(u, F)
    if np.isfinite(v).all():
        chain = certify._chain(v.shape)
        assert certify._finite_scan(chain) == certify._typed_scan(v, chain)
    if first is None:
        assert cert.worst is None
        return
    if best is None:
        i0, im, i1, lam = first
        assert cert.noise_floor == np.inf
        assert (cert.worst.x0, cert.worst.x1, cert.worst.lam) == (_point(u, i0), _point(u, i1),
                                                                   lam)
        assert cert.worst.gap == v[im] - ((1.0 - lam) * v[i0] + lam * v[i1])
    else:
        margin = cert.worst.gap - factor * cert.noise_floor
        assert margin == pytest.approx(best[0], rel=1e-9, abs=1e-12)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(2, 40), st.integers(0, 2 ** 32 - 1), st.sampled_from(["walk", "bowl", "rounded"]),
       st.sampled_from([0.0, 0.1, 0.3]), st.sampled_from([0.0, 1e-9]),
       st.sampled_from([0.0, 10.0]))
def test_chord_scan_matches_every_triple_on_1d_grids(n, seed, kind, odd_share, value_error,
                                                     factor):
    """Positive walks, bowls and rounded walks (ties), with a share of odd
    nodes under power alpha = 0 (F = log): u = 0 and u = inf give F(u) =
    -inf and +inf, and u = 1e-12 with a value error of 1e-9 a finite F(u)
    of infinite spread."""
    rng = np.random.default_rng(seed)
    x = np.arange(n, dtype=float)
    vals = {"walk": np.exp(np.cumsum(rng.standard_normal(n)) * 0.5),
            "bowl": np.exp(0.05 * (x - rng.random() * n) ** 2),
            "rounded": np.round(np.exp(np.cumsum(rng.standard_normal(n)) * 0.5), 1) + 0.1}[kind]
    odd = rng.random(n) < odd_share
    vals[odd] = rng.choice([0.0, np.inf, 1e-12], size=int(odd.sum()))
    u = GridFunction(values=vals, extent=((-1.0, 1.0),), value_error=value_error)
    assert_matches_every_triple(u, P0, factor)


@pytest.mark.parametrize("values", ["random", "rounded", "constant", "inf", "infinite"])
@pytest.mark.parametrize("shape", [(7, 9), (5, 6, 4)], ids=["2d", "3d"])
def test_chord_scan_matches_every_triple_on_2d_and_3d_grids(shape, values):
    """Every direction of a small 2D and 3D grid: random values, rounded
    values (ties), a constant grid, a twelfth of the nodes at 0 or +inf
    (whose log is -inf or +inf), and grids of 0 and +inf only, where no
    margin is finite."""
    rng = np.random.default_rng(len(shape))
    vals = rng.random(shape) + 0.5
    if values == "rounded":
        vals = np.round(vals, 1)
    elif values == "constant":
        vals = np.full(shape, 1.25)
    elif values == "inf":
        flat = vals.reshape(-1)
        k = rng.choice(flat.size, size=flat.size // 12, replace=False)
        flat[k] = rng.choice([0.0, np.inf], size=k.size)
    elif values == "infinite":
        vals = rng.choice([0.0, np.inf], size=shape)
    u = GridFunction(values=vals, extent=tuple((-1.0, 1.0 + k) for k in range(len(shape))),
                     growth_a=10.0, value_error=1e-9)
    assert_matches_every_triple(u, P0)
    assert_matches_every_triple(u, P1, 0.0)


def _middle(u, worst):
    """(direction, middle node) of a reported triple."""
    i0, i1 = (np.array([int(np.argmin(np.abs(a - c))) for a, c in
                        zip(u.axes(), np.atleast_1d(x))]) for x in (worst.x0, worst.x1))
    steps = int(np.max(np.abs(i1 - i0)))
    d = (i1 - i0) // steps
    return tuple(int(c) for c in d), tuple(int(c) for c in i0 + round(worst.lam * steps) * d)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.integers(3, 7), min_size=1, max_size=3), st.integers(0, 2 ** 32 - 1))
def test_ties_go_to_the_earlier_direction_then_middle_node(shape, seed):
    """Values of three levels: the largest margin is that of a top node with
    a bottom node on either side of it along a line, the same float at
    every such node, since the lowest chord there is flat.  The first
    direction that has one decides, at its first such node in C order."""
    vals = np.random.default_rng(seed).choice([1.0, 2.0, 3.0], size=shape)
    u = GridFunction(values=vals, extent=tuple((0.0, 1.0) for _ in shape), growth_a=4.0)
    expected = None
    for d in _DIRECTIONS[len(shape)]:
        for im in np.ndindex(*shape):
            if vals[im] == 3.0 and all(
                    any(vals[tuple(a + sign * k * c for a, c in zip(im, d))] == 1.0
                        for k in range(1, max(shape))
                        if all(0 <= a + sign * k * c < n for a, c, n in zip(im, d, shape)))
                    for sign in (-1, 1)):
                expected = (d, im)
                break
        if expected:
            break
    cert = check_F_convex(u, P1)
    if expected is None:
        return
    assert _middle(u, cert.worst) == expected
    assert cert.worst.gap - 10.0 * cert.noise_floor == pytest.approx(2.0, abs=1e-12)


def monotone_chain(xs, ys):
    """Indices of the lower hull's vertices of the points (xs, ys), xs
    increasing: Andrew's monotone chain, one point at a time."""
    hull = []
    for i in range(len(xs)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (ys[b] - ys[a]) * (xs[i] - xs[a]) >= (ys[i] - ys[a]) * (xs[b] - xs[a]):
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def envelope_without_each(ys):
    """C(x) at every inner index x of one line: the lower envelope at x of
    the points other than x, from the monotone-chain hull, and at each of
    its vertices from the hull of the points between its two neighbours."""
    xs = np.arange(len(ys), dtype=float)

    def at(hull, i):
        j = next(k for k in range(1, len(hull)) if hull[k] > i)
        a, b = hull[j - 1], hull[j]
        return ys[a] + (xs[i] - xs[a]) / (xs[b] - xs[a]) * (ys[b] - ys[a])

    hull = monotone_chain(xs, ys)
    env = np.array([at(hull, i) for i in range(1, len(ys) - 1)])
    for r in range(1, len(hull) - 1):
        lo, i, hi = hull[r - 1], hull[r], hull[r + 1]
        rest = [k for k in range(lo, hi + 1) if k != i]
        local = monotone_chain(xs[rest], ys[rest])
        env[i - 1] = at([rest[k] for k in local], i)
    return env


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_hull_passes_meet_a_monotone_chain(alpha):
    """On a benchmark wedge (4097 nodes on (-6, 6), t = 0.05) the
    elimination passes give the monotone chain's envelope at every middle.
    Power 2's concave arc makes the passes erode its hull a point or two at
    a time, hundreds of passes."""
    F = make_power_alpha(alpha)
    u = heat_evolve_free(counterexample_datum(F, 1.0), 0.05, (-6.0, 6.0, 12.0 / 4096))
    v, spread = _transform_values(u, F)
    y = v + 10.0 * spread
    x = np.arange(y.size, dtype=float)
    mid, a, b, lam = certify._chords(x, y, np.zeros(y.size, np.intp), np.arange(y.size))
    assert np.array_equal(mid, np.arange(1, y.size - 1))
    assert np.all(a < mid) and np.all(mid < b)
    np.testing.assert_allclose(y[a] + lam * (y[b] - y[a]), envelope_without_each(y),
                               rtol=1e-13, atol=1e-13)


def aligned_margin(u, F, lam, factor=10.0):
    """The largest margin over the stride triples of one weight p/q, whose
    middle lies p of q strides from the first end, the pedestrian way."""
    p, q, lam = _as_fraction(lam)
    v, spread = _transform_values(u, F)
    w_mid, w_end, n = v - factor * spread, v + factor * spread, v.size
    return max(float(np.max(w_mid[p * s:n - (q - p) * s]
                            - ((1.0 - lam) * w_end[:n - q * s] + lam * w_end[q * s:])))
               for s in range(1, (n - 1) // q + 1))


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
def test_every_chord_margin_bounds_every_aligned_margin_on_the_benchmark_wedges(alpha):
    """The benchmark's verify wedges (4097 nodes on (-6, 6), t = 0.05): the
    margin of the deciding chord is at least the largest margin of the
    stride triples of each weight 1/2, 1/3, 1/4 and 3/8, and the verdict
    is the class's."""
    F = make_power_alpha(alpha)
    u = heat_evolve_free(counterexample_datum(F, 1.0), 0.05, (-6.0, 6.0, 12.0 / 4096))
    cert = check_F_convex(u, F)
    margin = cert.worst.gap - 10.0 * cert.noise_floor
    for lam in (0.5, 1 / 3, 0.25, 3 / 8):
        assert margin >= aligned_margin(u, F, lam) - 1e-15
    assert cert.significant == (alpha > 1.0)
    assert cert.n_samples == 4095


def test_directions_are_the_lattice_vectors_up_to_sign():
    assert _DIRECTIONS[1] == ((1,),)
    assert _DIRECTIONS[2] == ((0, 1), (1, 0), (1, 1), (1, -1))
    dirs = _DIRECTIONS[3]
    assert len(dirs) == len(set(dirs)) == 13
    assert {tuple(-c for c in d) for d in dirs}.isdisjoint(dirs)


def oblique_saddle():
    """v = x^2 + xy + 0.01 y^2 + 10 on 33^2 nodes over (-2, 2)^2: an
    indefinite form, convex along every direction in {-1, 0, 1}^2 but
    concave along (1, -2), where a midpoint gap is +0.015."""
    x = np.linspace(-2.0, 2.0, 33)
    X, Y = np.meshgrid(x, x, indexing="ij")
    return GridFunction(values=X * X + X * Y + 0.01 * Y * Y + 10.0,
                        extent=((-2.0, 2.0), (-2.0, 2.0)), growth_a=20.0, value_error=1e-12)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: only the lattice lines of "
                                        "{-1, 0, 1}^n directions are tested")
def test_an_oblique_saddle_is_refuted():
    assert check_F_convex(oblique_saddle(), P1).significant


@pytest.mark.xfail(strict=True, reason="ROADMAP items 6 and 5: only the lattice lines of "
                                        "{-1, 0, 1}^n directions are tested")
def test_an_oblique_saddle_is_not_quasi_convex():
    assert not check_quasi_convex(oblique_saddle())[0]


@pytest.mark.parametrize("value_error", [0.0, 1e-9])
def test_infinite_node_values_certify_without_warnings(value_error):
    """Under power alpha = 0 the nodes at +inf have an undefined noise spread
    (inf - inf, or 0 inf), read as infinite noise without a RuntimeWarning."""
    vals = np.array([0.0, 1.0, np.inf, 2.0, 0.5, 0.0, np.inf, 3.0, 1.0])
    u = GridFunction(values=vals, extent=((-1.0, 1.0),), value_error=value_error)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quiet = check_F_convex(u, P0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        strict = check_F_convex(u, P0)
    assert repr(strict) == repr(quiet)
    assert strict.n_samples > 0


# -- stride triples, larger grids and blocks of lines -------------------------


def scan_grid(shape, values, seed):
    """A grid function of the given shape: 'random' values, 'rounded'
    values (ties across lines and directions), a 'constant' grid (all
    ties), 'inf' values with nodes at 0 and +inf, whose log is -inf and +inf
    (NaN triples), or 'infinite' values, every node 0 or +inf (no margin
    is finite, so the first triple decides)."""
    rng = np.random.default_rng(seed)
    vals = rng.random(shape) + 0.5
    if values == "rounded":
        vals = np.round(vals, 1)
    elif values == "constant":
        vals = np.full(shape, 1.25)
    elif values == "inf":
        flat = vals.reshape(-1)
        k = rng.choice(flat.size, size=max(2, flat.size // 12), replace=False)
        flat[k] = rng.choice([0.0, np.inf], size=k.size)
    elif values == "infinite":
        vals = rng.choice([0.0, np.inf], size=shape)
    extent = tuple((-1.0, 1.0 + k) for k in range(len(shape)))
    return GridFunction(values=vals, extent=extent, growth_a=10.0, growth_A=0.0,
                        value_error=1e-9)


def aligned_triples(shape, lams):
    """Every stride triple of the weights p/q, the middle p of q strides
    from the first end: (i0, im, i1, lam) by weight, stride, direction,
    start node."""
    for lam in lams:
        p, q, lam = _as_fraction(lam)
        for s in range(1, (max(shape) - 1) // q + 1):
            for d in _DIRECTIONS[len(shape)]:
                for i0 in np.ndindex(shape):
                    i1 = tuple(a + q * s * c for a, c in zip(i0, d))
                    if all(0 <= a < n for a, n in zip(i1, shape)):
                        yield (i0, tuple(a + p * s * c for a, c in zip(i0, d)), i1, lam)


def fold_triples(u, F, triples, factor):
    """(best margin, largest gap, middles) of (i0, im, i1, lam) triples, the
    pedestrian way: margin gap - factor noise with a NaN margin counted as
    -inf, NaN gaps no triples, and middles the set of (direction, middle)
    pairs of a triple."""
    v, spread = _transform_values(u, F)
    best, g_max, middles = -np.inf, -np.inf, set()
    with np.errstate(invalid="ignore"):
        for i0, im, i1, lam in triples:
            gap = v[im] - ((1.0 - lam) * v[i0] + lam * v[i1])
            if np.isnan(gap):
                continue
            middles.add((tuple(int(np.sign(b - a)) for a, b in zip(i0, i1)), im))
            g_max = max(g_max, gap)
            margin = (v[im] - factor * spread[im]) - (
                (1.0 - lam) * (v[i0] + factor * spread[i0])
                + lam * (v[i1] + factor * spread[i1]))
            if not np.isnan(margin):
                best = max(best, margin)
    return best, g_max, middles


def inner_nodes(shape):
    """The count of (direction, node) pairs with a node on either side."""
    return sum(math.prod(n - 2 * abs(c) for n, c in zip(shape, d))
               for d in _DIRECTIONS[len(shape)])


def assert_covers(u, cert, expected, factor=10.0):
    """The certificate read every chord of the folded triples: its deciding
    margin is at least their largest finite one, and it judged each of their
    middles."""
    best, _, middles = expected
    if np.isfinite(best):
        assert cert.worst.gap - factor * cert.noise_floor >= best - 1e-12
    assert cert.n_samples >= len(middles)


@pytest.mark.parametrize("seed", [1 << 16, 300, 41])
@pytest.mark.parametrize("values", ["random", "rounded", "constant", "inf", "infinite"])
@pytest.mark.parametrize("shape", [(203,), (17, 23), (6, 7, 5)], ids=["1d", "2d", "3d"])
def test_aligned_scan_matches_enumeration_over_all_strides(shape, values, seed):
    """The stride triples of the weights 1/2, 1/3 and 3/8 over every
    stride, on 1D-3D grids of each kind, are chords of the certificate."""
    u = scan_grid(shape, values, seed)
    cert = check_F_convex(u, P0)
    assert_covers(u, cert, fold_triples(u, P0, aligned_triples(shape, (0.5, 1 / 3, 3 / 8)),
                                        10.0))
    if values in ("random", "rounded", "constant"):
        assert cert.n_samples == inner_nodes(shape)


@pytest.mark.parametrize("lam,p,q", [(0.5, 1, 2), (1 / 3, 1, 3)])
def test_aligned_2d_scan_matches_enumeration(lam, p, q):
    """Every stride triple of one weight on the four 2D families; with
    significance factor 0 the margin is the gap itself."""
    rng = np.random.default_rng(5)
    vals = rng.random((9, 17)) + 0.5
    u = GridFunction(values=vals, extent=((-1.0, 1.0), (-2.0, 2.0)),
                     growth_a=float(np.max(np.abs(vals))) + 1.0, growth_A=0.0)
    cert = check_F_convex(u, P1, significance_factor=0.0)
    expected = fold_triples(u, P1, aligned_triples(vals.shape, (lam,)), 0.0)
    assert_covers(u, cert, expected, factor=0.0)
    assert cert.worst.gap >= expected[1] - 1e-12
    assert cert.n_samples == inner_nodes(vals.shape) == 7 * 15 * 2 + 9 * 15 + 7 * 17


def test_aligned_3d_scan_matches_enumeration():
    """Every stride triple of weight 1/3 along the 13 directions; with
    significance factor 0 the deciding gap is the largest gap."""
    rng = np.random.default_rng(11)
    vals = rng.random((5, 6, 7)) + 0.5
    u = GridFunction(values=vals, extent=((-1.0, 1.0), (0.0, 2.0), (-3.0, 0.0)),
                     growth_a=2.0, growth_A=0.0)
    cert = check_F_convex(u, P1, significance_factor=0.0)
    expected = fold_triples(u, P1, aligned_triples(vals.shape, (1 / 3,)), 0.0)
    assert_covers(u, cert, expected, factor=0.0)
    assert cert.worst.gap >= expected[1] - 1e-12
    assert cert.n_samples == inner_nodes(vals.shape)


_SHAPES = pytest.mark.parametrize("shape", [(203,), (17, 23), (6, 7, 5)],
                                  ids=["1d", "2d", "3d"])


@pytest.mark.parametrize("values", ["random", "rounded", "constant", "inf", "infinite"])
@_SHAPES
def test_a_budget_that_covers_every_triple_is_the_aligned_scan(shape, values):
    """A triple's weight (x - a)/(b - a) is p/q in lowest terms and its
    stride the gcd, so the aligned scan of every weight and stride reads
    every triple; the certificate decides as that enumeration does on 1D-3D
    grids of each kind, a 1D line of 203 nodes among them.  The finite
    kinds also check the chain's count and first triple against
    `_typed_scan`."""
    assert_matches_every_triple(scan_grid(shape, values, seed=4), P0)


@pytest.mark.parametrize("shape", [(4097,), (61, 67), (13, 11, 17)],
                         ids=["1d", "2d", "3d"])
def test_random_certificate_does_not_depend_on_the_block_size(shape):
    """The hull passes take the lines of every direction at once, as the
    certificate's margin pass does; fed blocks of 97 lines or one line at a
    time, they read the same chords, and on the first 97 lines those of the
    monotone chain's envelope."""
    u = scan_grid(shape, "random", seed=5)
    v, spread = _transform_values(u, P0)
    node, x, ln, _ = certify._chain(v.shape)
    y = (v + 10.0 * spread).reshape(-1)[node]
    whole = certify._chords(x, y, ln, np.arange(x.size))
    assert whole[0].size == inner_nodes(shape)
    mid, a, b, lam = whole
    for k in range(min(97, int(ln[-1]) + 1)):
        pts = np.flatnonzero(ln == k)
        on = (pts[0] <= mid) & (mid <= pts[-1])
        np.testing.assert_allclose(y[a[on]] + lam[on] * (y[b[on]] - y[a[on]]),
                                   envelope_without_each(y[pts]), rtol=1e-13, atol=1e-13)
    for block in (97, 1):
        parts = [certify._chords(x, y, ln, np.flatnonzero(ln // block == b))
                 for b in range(int(ln[-1]) // block + 1)]
        for w, part in zip(whole, zip(*parts)):
            assert np.array_equal(w, np.concatenate(part))


# -- Dirichlet preservation ----------------------------------------------------


def test_dirichlet_hot_convexity_survives():
    dom = DomainSpec.interval(0.0, 1.0, ell=1.0)
    F = make_hot(1.0)

    def phi(x):
        with np.errstate(divide="ignore"):
            pot = -2.0 * (np.log(x) + np.log1p(-x)) - 6.0
        return hot_h(pot)

    datum = InitialDatum(fn=phi, growth_a=1.0, growth_A=0.0)
    u = heat_evolve_dirichlet(datum, dom, 0.05, (0.0, 1.0, 1 / 256))
    cert = check_F_convex(u, F)
    assert not cert.significant


def test_dirichlet_neglog_convexity_survives():
    dom = DomainSpec.interval(0.0, 1.0, ell=1.0)
    F = make_neglog(0.0, 1.0)
    datum = InitialDatum(fn=lambda x: 1.0 - x * (1.0 - x), growth_a=1.0,
                         growth_A=0.0)
    u = heat_evolve_dirichlet(datum, dom, 0.05, (0.0, 1.0, 1 / 256))
    cert = check_F_convex(u, F)
    assert not cert.significant
