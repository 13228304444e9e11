"""Acceptance gate: one check per shipped guarantee, one printed line each.

Runtime budgets are asserted with generous desk-scale limits; the numerical
tolerances are the contract, not aspirations.  Each test prints

    [criterion NN] PASS/FAIL - detail

so a plain pytest run doubles as the acceptance report.
"""

import time

import numpy as np
from scipy.special import erf

from heatconvex import (
    DomainSpec,
    GridFunction,
    InitialDatum,
    check_envelope_comparison,
    check_F_convex,
    classify,
    compare_strength,
    counterexample_datum,
    builtin_transforms,
    heat_evolve_dirichlet,
    heat_evolve_free,
    hot_h,
    hunt_violation,
    make_affine,
    make_exp,
    make_from_g,
    make_hot,
    make_neglog,
    make_power_alpha,
    abs_kink_generator,
)
from heatconvex.heatflow import gauss_kernel
from heatconvex.transforms import default_j_window


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _budget(num, started, limit):
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s (limit {limit}s)"
    return elapsed


def test_criterion_01_power_dichotomy():
    t0 = time.monotonic()
    verdicts = {a: classify(make_power_alpha(a)).verdict
                for a in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, -1.0)}
    ok = (all(verdicts[a] == "preserved" for a in (0.0, 0.25, 0.5, 1.0))
          and all(verdicts[a] == "not_preserved" for a in (1.5, 2.0))
          and verdicts[-1.0] == "only_trivially_preserved")
    el = _budget(1, t0, 10)
    _report(1, ok, f"power-transform verdict split at exponent 1 ({el:.1f}s)")


def test_criterion_02_preservation_suite():
    t0 = time.monotonic()
    P0 = make_power_alpha(0.0)
    P05 = make_power_alpha(0.5)
    P1 = make_power_alpha(1.0)
    exp_abs = InitialDatum(fn=lambda x: np.exp(np.abs(x)),
                           growth_a=float(np.e), growth_A=0.25,
                           breakpoints=(0.0,), label="exp_abs")
    vee = InitialDatum(fn=np.abs, growth_a=9.0, growth_A=0.0,
                       breakpoints=(0.0,), label="abs")
    cases = [
        (P0, exp_abs),
        (P1, vee),
        (P1, counterexample_datum(P1, 1.0)),
        (P05, counterexample_datum(P05, 1.0)),
    ]
    h = 1.0 / 256.0
    worst_ratio = 0.0
    for F, phi in cases:
        for t in (0.05, 0.1, 0.2):
            u = heat_evolve_free(phi, t, (-8.0, 8.0, h))
            cert = check_F_convex(u, F)
            if cert.worst is not None and cert.noise_floor > 0:
                worst_ratio = max(worst_ratio,
                                  cert.worst.gap / cert.noise_floor)
            if cert.significant:
                _report(2, False,
                        f"{F.label} with {phi.label} broke at t={t}")
    el = _budget(2, t0, 120)
    _report(2, True,
            f"12 preserved runs, worst gap/noise {worst_ratio:.2f} "
            f"(threshold 10) ({el:.1f}s)")


def test_criterion_03_destruction_suite():
    t0 = time.monotonic()
    details = []
    ok = True
    for alpha in (2.0, 1.5):
        F = make_power_alpha(alpha)
        phi = counterexample_datum(F, 1.0)
        cert, t_first = hunt_violation(F, phi, times=(0.05, 0.1, 0.2),
                                       grid=(-8.0, 8.0, 16.0 / 256))
        good = (t_first is not None and t_first <= 0.2 and cert.significant)
        ok &= good
        if good:
            details.append(f"alpha={alpha:g}: t={t_first:g} "
                           f"gap {cert.worst.gap:.2e} "
                           f"> 10x noise {cert.noise_floor:.2e}")
        else:
            details.append(f"alpha={alpha:g}: no stable violation")
    el = _budget(3, t0, 180)
    _report(3, ok, "; ".join(details) + f" ({el:.1f}s)")


def test_criterion_04_kink_generator_construction():
    t0 = time.monotonic()
    F = make_from_g(abs_kink_generator(center=1.0, drop=1.0), 0.0, 0.0, 1.0)
    report = classify(F)
    cmp_ = compare_strength(make_power_alpha(1.0), F)
    ok = (report.curvature_convex
          and 0.4 <= report.gaussian_order <= 0.6
          and cmp_.relation in ("F1_stronger", "neither")
          and 0.5 <= cmp_.worst_z <= 1.5)
    el = _budget(4, t0, 30)
    _report(4, ok,
            f"curvature convex, gaussian order {report.gaussian_order:.3f}, "
            f"plain convexity not weaker (relation {cmp_.relation}, "
            f"non-convexity near z={cmp_.worst_z:.2f}) ({el:.1f}s)")


def _convexity_defect(y, spacing, noise):
    """(defect, tol): the most negative central second difference of the
    samples y, divided by spacing^2, and 100 times the stencil noise that
    the absolute sample noise implies; y is convex on the grid within noise
    iff defect >= -tol."""
    d2 = (y[:-2] - 2.0 * y[1:-1] + y[2:]) / (spacing * spacing)
    return float(d2.min()), 100.0 * max(4.0 * noise / (spacing * spacing), np.finfo(float).eps)


def test_criterion_05_inverse_profile_shape():
    t0 = time.monotonic()
    eligible = []
    for name, F in builtin_transforms().items():
        rep = classify(F)
        if rep.verdict == "preserved" and rep.gaussian_order == 0.0:
            eligible.append((name, F))
    names = {n for n, _ in eligible}
    ok = {"power_0", "power_0.5", "power_1"} <= names
    detail = []
    for name, F in eligible:
        lo, hi = default_j_window(F)
        z = np.linspace(lo, hi, 801)
        hstep = z[1] - z[0]
        y = np.asarray(F.inverse(z), dtype=float)
        noise = np.finfo(float).eps * (1.0 + np.max(np.abs(y)))
        defect, tol = _convexity_defect(y, hstep, noise)
        convex_ok = defect >= -tol
        # the log shape claim only makes sense where the profile is positive;
        # the profile increases, so that region is a suffix of the window
        # (whole-line transforms dip below zero on part of their window)
        logy = np.log(y[y > 0.0])
        assert logy.size >= 3
        lnoise = np.finfo(float).eps * (1.0 + np.max(np.abs(logy)))
        ldefect, ltol = _convexity_defect(-logy, hstep, lnoise)
        concave_ok = ldefect >= -ltol
        ok &= convex_ok and concave_ok
        if not (convex_ok and concave_ok):
            detail.append(f"{name} failed (defects {defect:.2e}/{ldefect:.2e})")
    el = _budget(5, t0, 10)
    _report(5, ok,
            f"{len(eligible)} transforms with zero Gaussian order: inverse "
            f"profile convex, log of it concave ({el:.1f}s)"
            + ("; " + "; ".join(detail) if detail else ""))


def test_criterion_06_hot_profile_closed_form():
    t0 = time.monotonic()
    z = np.linspace(-10.0, 10.0, 4001)
    closed = 0.5 * (1.0 + erf(z / 2.0))
    err_formula = float(np.max(np.abs(hot_h(z) - closed)))

    step = InitialDatum(
        fn=lambda x: (np.asarray(x, float) >= 0.0).astype(float),
        growth_a=1.0, growth_A=0.0, breakpoints=(0.0,), label="indicator")
    u = heat_evolve_free(step, 1.0, (-10.0, 10.0, 0.01))
    err_evolved = float(np.max(np.abs(u.values - hot_h(u.axes()[0]))))

    ok = err_formula <= 1e-12 and err_evolved <= 1e-9
    el = _budget(6, t0, 30)
    _report(6, ok,
            f"closed-form err {err_formula:.1e} (tol 1e-12), unit-time step "
            f"evolution err {err_evolved:.1e} (tol 1e-9) ({el:.1f}s)")


def test_criterion_07_dirichlet_preservation():
    t0 = time.monotonic()
    dom = DomainSpec.interval(0.0, 1.0, ell=1.0)

    def bowl(x):
        x = np.asarray(x, float)
        with np.errstate(divide="ignore"):
            pot = -2.0 * (np.log(x) + np.log1p(-x)) - 6.0
        return hot_h(pot)

    cases = [
        (make_hot(1.0),
         InitialDatum(fn=bowl, growth_a=1.0, growth_A=0.0, label="hot_bowl")),
        (make_neglog(0.0, 1.0),
         InitialDatum(fn=lambda x: 1.0 - x * (1.0 - x), growth_a=1.0,
                      growth_A=0.0, label="neglog_bowl")),
    ]
    ok = True
    worst = 0.0
    for F, phi in cases:
        for t in (0.01, 0.05, 0.1):
            u = heat_evolve_dirichlet(phi, dom, t, (0.0, 1.0, 1 / 256))
            cert = check_F_convex(u, F)
            ok &= not cert.significant
            if cert.worst is not None and cert.noise_floor > 0:
                worst = max(worst, cert.worst.gap / cert.noise_floor)
    el = _budget(7, t0, 120)
    _report(7, ok,
            f"boundary-one interval flow keeps both convexity classes, worst "
            f"gap/noise {worst:.2f} ({el:.1f}s)")


def test_criterion_08_semigroup_oracles():
    t0 = time.monotonic()
    ridge = InitialDatum(fn=np.exp, growth_a=float(np.e), growth_A=0.25,
                         label="exp_x")
    u = heat_evolve_free(ridge, 0.25, (-3.0, 3.0, 1 / 64))
    x = u.axes()[0]
    ref = np.exp(0.25 + x)
    err_eig = float(np.max(np.abs(u.values - ref) / ref))

    g0 = InitialDatum(fn=lambda x: gauss_kernel(x, 0.25),
                      growth_a=float(gauss_kernel(0.0, 0.25)), growth_A=0.0)
    ug = heat_evolve_free(g0, 0.25, (-4.0, 4.0, 1 / 64))
    err_semi = float(np.max(np.abs(ug.values - gauss_kernel(ug.axes()[0], 0.5))))

    ok = err_eig <= 1e-8 and err_semi <= 1e-9
    el = _budget(8, t0, 30)
    _report(8, ok,
            f"exponential eigenrelation {err_eig:.1e} (tol 1e-8), kernel "
            f"semigroup {err_semi:.1e} (tol 1e-9) ({el:.1f}s)")


def test_criterion_09_envelope_comparison():
    t0 = time.monotonic()
    vee = InitialDatum(fn=np.abs, growth_a=5.0, growth_A=0.0,
                       breakpoints=(0.0,), label="abs")
    ridge = InitialDatum(fn=lambda x: np.exp(np.abs(x)), growth_a=float(np.e),
                         growth_A=0.25, breakpoints=(0.0,), label="exp_abs")
    r1 = check_envelope_comparison(make_power_alpha(1.0), vee, 0.5, 0.1,
                                   (-4.0, 4.0), 1 / 64)
    r2 = check_envelope_comparison(make_power_alpha(0.0), ridge, 0.5, 0.1,
                                   (-3.0, 3.0), 1 / 64)
    ok = r1.status == "holds" and r2.status == "holds"
    el = _budget(9, t0, 60)
    _report(9, ok,
            f"evolved envelope comparison holds: gaps {r1.max_gap:.1e} and "
            f"{r2.max_gap:.1e} within 3x noise "
            f"({r1.noise_floor:.1e}, {r2.noise_floor:.1e}) ({el:.1f}s)")


def test_criterion_10_whole_line_classifications():
    t0 = time.monotonic()
    rep_exp = classify(make_exp())
    rep_aff = classify(make_affine(3.0, 2.0))
    ok = (rep_exp.verdict == "not_preserved"
          and rep_aff.verdict == "preserved"
          and "affine" in rep_aff.basis)
    el = _budget(10, t0, 10)
    _report(10, ok,
            f"exponential relabeling {rep_exp.verdict}, affine relabeling "
            f"{rep_aff.verdict} via affine rule ({el:.1f}s)")
