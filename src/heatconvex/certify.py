"""Midpoint certificates: verify or refute transformed convexity on grids.

A grid function u is F-convex when F(u) satisfies the midpoint inequality
F(u((1-lam)x0 + lam x1)) <= (1-lam)F(u(x0)) + lam F(u(x1)).  The checks here
restrict lam to small-denominator rationals so every tested midpoint lands
exactly on a grid node; since evolved solutions are continuous, midpoint
convexity upgrades to full convexity.  Verdicts are guarded by noise floors
propagated from each grid function's recorded value error, and a violation
counts as significant only when its gap clears a significance factor
(default 10) times that floor.

Every check is a line scan along the lattice directions of one table (the
axis in 1D; rows, columns and both diagonals in 2D) asking whether a middle
value sits above its ends: above the weighted chord for F-convexity, above
the running minima on both sides for quasi-convexity.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .heatflow import (GridFunction, InitialDatum, _truncation_window,
                       fit_growth_envelope, heat_evolve_free)
from .numerics import DomainError

__all__ = [
    "MidpointSample",
    "SamplingPlan",
    "Certificate",
    "check_F_convex",
    "check_quasi_convex",
    "counterexample_datum",
    "hunt_violation",
    "mixture_envelope",
    "check_envelope_comparison",
    "EnvelopeComparison",
]

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class MidpointSample:
    """One tested triple: endpoints, weight, and the two sides of the inequality."""

    x0: object
    x1: object
    lam: float
    lhs: float
    rhs: float
    gap: float  # lhs - rhs exactly


@dataclass(frozen=True)
class SamplingPlan:
    """How triples are drawn.

    kind 'aligned' scans every grid-aligned triple (rows, columns, and both
    diagonals for dim 2) for each weight; 'random' draws n_random triples
    (a positive count, ValueError otherwise) with weights chosen from
    lambdas, snapped to the grid.  Weights must be rationals p/q with q <= 8
    so midpoints are grid-exact.
    """

    kind: str = "aligned"
    lambdas: tuple = (0.5,)
    n_random: int = 4000
    seed: int = 0
    max_stride: object = None

    def __post_init__(self):
        if self.n_random < 1:
            raise ValueError(
                f"n_random must be a positive count of triples, got {self.n_random}")


@dataclass(frozen=True)
class Certificate:
    """Outcome of a midpoint scan.

    noise_floor is the propagated value-error spread at the worst triple (the
    evolution routines estimate value errors by two-grid comparison, so this
    is a discretization noise estimate).  significant requires the worst gap
    to exceed the scan's significance factor times the floor.
    """

    status: str
    worst: object
    noise_floor: float
    significant: bool
    n_samples: int = 0
    note: str = ""


def _as_fraction(lam):
    fr = Fraction(lam).limit_denominator(8)
    if abs(float(fr) - float(lam)) > 1e-12:
        raise DomainError(
            f"lambda = {lam} is not a rational p/q with q <= 8; midpoints "
            "must land on grid nodes")
    if not 0 < fr < 1:
        raise DomainError("lambda must lie strictly between 0 and 1")
    return fr.numerator, fr.denominator


def _transform_values(u, F):
    """F applied to the grid values, plus the per-node F-value noise spread."""
    vals = u.values
    scale = 1.0 + np.abs(vals)
    tol = (1e-9 + u.value_error) * scale
    lo, hi = F.lower_a, F.upper_ell
    if np.any(vals < lo - tol) or np.any(vals > hi + tol):
        raise DomainError(
            f"grid values exit the domain of {F.label} beyond tolerance")
    clipped = np.clip(vals, lo, hi)
    v = np.asarray(F(clipped), dtype=float)
    delta = u.value_error * scale
    v_hi = np.asarray(F(np.clip(clipped + delta, lo, hi)), dtype=float)
    v_lo = np.asarray(F(np.clip(clipped - delta, lo, hi)), dtype=float)
    with np.errstate(invalid="ignore"):
        spread = v_hi - v_lo
    spread = np.where(np.isnan(spread), np.inf, spread)
    spread = spread + 4 * _EPS * (1.0 + np.abs(np.where(np.isfinite(v), v, 0.0)))
    return v, spread


# lattice directions of the triple families, in scan order (ties keep the
# first): 1D has one; 2D has rows, columns and the two diagonals
_DIRECTIONS = {1: ((1,),), 2: ((0, 1), (1, 0), (1, 1), (1, -1))}


def _starts(n, step, qs):
    """[lo, hi) of the start indices x on an axis of n nodes for which
    x + qs*step is a node too."""
    return (qs if step < 0 else 0), (n - qs if step > 0 else n)


def _line_slices(shape, d, ps, qs):
    """Slices (s0, sm, s1) of the nodes x, x + ps*d, x + qs*d over every x
    whose triple fits the grid, or None when stride qs leaves no triple."""
    axes = []
    for n, step in zip(shape, d):
        if step and n <= qs:
            return None
        lo, hi = _starts(n, step, qs)
        axes.append(tuple(slice(lo + o * step, hi + o * step) for o in (0, ps, qs)))
    return tuple(zip(*axes))


def _keep_worst(best, gap, rhs, nodes, v, spread, lam):
    """Fold a gap array into the worst-triple record and count its triples.

    The record (gap, noise, i0, im, i1, lhs, rhs, lam) changes only for a
    strictly larger gap; nodes(k) gives (i0, im, i1) of flat entry k.  NaN
    gaps (opposite infinite endpoints) are not triples.
    """
    valid = ~np.isnan(gap)
    count = int(np.count_nonzero(valid))
    if count == 0:
        return best, 0
    g = np.where(valid, gap, -np.inf)
    k = int(np.argmax(g))
    if best is not None and not (g.flat[k] > best[0]):
        return best, count
    i0, im, i1 = nodes(k)
    noise = (1.0 - lam) * spread[i0] + lam * spread[i1] + spread[im]
    return (float(g.flat[k]), float(noise), i0, im, i1, float(v[im]),
            float(rhs.flat[k]), lam), count


def _scan_aligned(best, v, spread, p, q, lam, max_stride):
    """Worst gap over all grid-aligned stride triples for one weight."""
    count = 0
    s_cap = (max(v.shape) - 1) // q
    if max_stride is not None:
        s_cap = min(s_cap, int(max_stride))
    for s in range(1, s_cap + 1):
        for d in _DIRECTIONS[v.ndim]:
            slices = _line_slices(v.shape, d, p * s, q * s)
            if slices is None:
                continue
            with np.errstate(invalid="ignore"):
                rhs = (1.0 - lam) * v[slices[0]] + lam * v[slices[2]]
                gap = v[slices[1]] - rhs

            def nodes(k):
                idx = np.unravel_index(k, gap.shape)
                return tuple(tuple(i + sl.start for i, sl in zip(idx, part))
                             for part in slices)

            best, cnt = _keep_worst(best, gap, rhs, nodes, v, spread, lam)
            count += cnt
    return best, count


def _scan_random(best, v, spread, triples_per_lam, rng, p, q, lam, max_stride):
    """Worst gap over triples_per_lam random grid-aligned triples, drawn
    direction per triple (2D only), then per direction strides, then starts."""
    count = 0
    dirs = _DIRECTIONS[v.ndim]
    pick = rng.integers(0, len(dirs), size=triples_per_lam) if v.ndim == 2 else None
    for j, d in enumerate(dirs):
        m = triples_per_lam if pick is None else int(np.count_nonzero(pick == j))
        if m == 0:
            continue
        s_hi = min((n - 1) // q for n, step in zip(v.shape, d) if step)
        if max_stride is not None:
            s_hi = min(s_hi, int(max_stride))
        if s_hi < 1:
            continue
        s = rng.integers(1, s_hi + 1, size=m)
        i0 = tuple(rng.integers(*_starts(n, step, q * s), size=m)
                   for n, step in zip(v.shape, d))
        im = tuple(i + p * s * step for i, step in zip(i0, d))
        i1 = tuple(i + q * s * step for i, step in zip(i0, d))
        with np.errstate(invalid="ignore"):
            rhs = (1.0 - lam) * v[i0] + lam * v[i1]
            gap = v[im] - rhs

        def nodes(k):
            return tuple(tuple(int(a[k]) for a in ix) for ix in (i0, im, i1))

        best, cnt = _keep_worst(best, gap, rhs, nodes, v, spread, lam)
        count += cnt
    return best, count


def _node_point(u, idx):
    ax = u.axes()
    if u.dim == 1:
        return float(ax[0][idx[0]])
    return (float(ax[0][idx[0]]), float(ax[1][idx[1]]))


def check_F_convex(u, F, plan=None, significance_factor=10.0):
    """Midpoint-inequality scan of F(u) over a sampling plan of grid triples.

    Endpoint pairs whose transformed values are opposite infinities carry no
    information and are excluded.  The returned certificate holds the worst
    (largest-gap) sample, the noise floor at that sample, and whether a
    positive gap clears significance_factor times the floor.
    """
    if plan is None:
        plan = SamplingPlan()
    v, spread = _transform_values(u, F)
    rng = np.random.default_rng(plan.seed)

    best = None
    total = 0
    for lam in plan.lambdas:
        p, q = _as_fraction(lam)
        lam_f = p / q
        if plan.kind == "aligned":
            best, cnt = _scan_aligned(best, v, spread, p, q, lam_f,
                                      plan.max_stride)
        elif plan.kind == "random":
            per = max(1, plan.n_random // len(plan.lambdas))
            best, cnt = _scan_random(best, v, spread, per, rng, p, q, lam_f,
                                     plan.max_stride)
        else:
            raise DomainError(f"unknown sampling plan kind {plan.kind!r}")
        total += cnt

    note = ("midpoints are grid-exact; continuity of the data upgrades "
            "midpoint convexity to convexity")
    if best is None:
        return Certificate(status="no_violation_found", worst=None,
                           noise_floor=0.0, significant=False,
                           n_samples=0, note=note + "; no testable triples")
    gap, noise, i0, im, i1, lhs, rhs, lam_f = best
    worst = MidpointSample(
        x0=_node_point(u, i0), x1=_node_point(u, i1), lam=lam_f,
        lhs=lhs, rhs=rhs, gap=gap)
    # positive gaps below the noise floor are discretization dust, not
    # violations; significance additionally demands a clearance by the factor
    status = "violation" if gap > noise else "no_violation_found"
    significant = bool(gap > significance_factor * noise)
    return Certificate(status=status, worst=worst, noise_floor=noise,
                       significant=significant, n_samples=total, note=note)


# -- quasi-convexity ----------------------------------------------------------


def _running_min(vals, d):
    """Minimum over each node and every node before it along d, by window
    doubling: the pass with stride k leaves the minimum over 2k nodes."""
    run = vals.astype(float)
    k = 1
    while (slices := _line_slices(vals.shape, d, 0, k)) is not None:
        s0, _, s1 = slices
        run[s1] = np.minimum(run[s1], run[s0])
        k *= 2
    return run


def _ray(node, d, shape):
    """Index arrays of the nodes node + k*d, k = 1, 2, ..., inside the grid."""
    k = min(n - 1 - i if step > 0 else i
            for i, step, n in zip(node, d, shape) if step)
    steps = np.arange(1, k + 1)
    return tuple(i + step * steps for i, step in zip(node, d))


def check_quasi_convex(u, n_levels=32):
    """Are all sublevel sets of the sampled values convex?

    They are when no point of a segment lies above both its ends.  Along
    every grid line of the scan directions, a node above the running minima
    strictly before and after it, by more than the value-error tolerance,
    refutes quasi-convexity.  Returns (verdict, witness): None when
    quasi-convex, else grid points (x0, x_mid, x1) on one line, x_mid at the
    largest excess of the first direction that has one and x0, x1 the
    smallest values before and after it (first in travel order on ties).

    n_levels has no effect: it counted the sublevel sets of an earlier
    convex-hull test, while the line scan covers every level at once.  It
    stays so that callers passing it keep working.
    """
    vals = u.values
    tol = (4 * _EPS + u.value_error) * float(np.max(np.abs(vals)) + 1.0)
    for d in _DIRECTIONS[u.dim]:
        slices = _line_slices(vals.shape, d, 1, 2)
        if slices is None:
            continue
        back = tuple(-step for step in d)
        s0, sm, s1 = slices
        excess = vals[sm] - np.maximum(_running_min(vals, d)[s0],
                                       _running_min(vals, back)[s1])
        k = int(np.argmax(excess))
        if excess.flat[k] <= tol:
            continue
        idx = np.unravel_index(k, excess.shape)
        j = tuple(i + sl.start for i, sl in zip(idx, sm))
        before = tuple(a[::-1] for a in _ray(j, back, vals.shape))
        after = _ray(j, d, vals.shape)
        i0 = tuple(a[int(np.argmin(vals[before]))] for a in before)
        i1 = tuple(a[int(np.argmin(vals[after]))] for a in after)
        return False, (_node_point(u, i0), _node_point(u, j), _node_point(u, i1))
    return True, None


# -- constructed destruction data ---------------------------------------------


def counterexample_datum(F, r0, direction=None, dim=1, fit_window=(-8.0, 8.0)):
    """Datum that is exactly F-convex with a V-shaped transform profile.

    phi(x) = f_F(z0 + |xi - z0|) with z0 = F(r0) and xi the coordinate along
    `direction`; in transform coordinates the profile is a symmetric wedge
    with vertex value r0, so the midpoint inequality holds with equality
    along the wedge.  Returns an InitialDatum carrying a fitted growth
    certificate and the kink location as a breakpoint.
    """
    r0 = float(r0)
    if not (F.lower_a < r0 < F.upper_ell):
        raise DomainError("r0 must be interior to the transform's domain")
    z0 = float(F(r0))
    if not np.isfinite(z0):
        raise DomainError("F(r0) must be finite")

    if dim == 1:
        sgn = 1.0 if direction is None else float(np.sign(direction) or 1.0)

        def fn(x):
            xi = sgn * np.asarray(x, dtype=float)
            return F.inverse(z0 + np.abs(xi - z0))

        breakpoints = (sgn * z0,)
    elif dim == 2:
        if direction is None:
            direction = (1.0, 0.0)
        d = np.asarray(direction, dtype=float)
        norm = float(np.hypot(d[0], d[1]))
        if norm == 0:
            raise DomainError("direction must be a nonzero vector")
        d = d / norm

        def fn(x, y):
            # updated in place: on a 2D lattice every temporary is a full lattice
            xi = np.asarray(d[0] * np.asarray(x, dtype=float)
                            + d[1] * np.asarray(y, dtype=float))
            xi -= z0
            np.abs(xi, out=xi)
            xi += z0
            return F.inverse(xi)

        if d[1] == 0.0:
            breakpoints = ((z0 / d[0],), ())
        elif d[0] == 0.0:
            breakpoints = ((), (z0 / d[1],))
        else:
            breakpoints = ((), ())
    else:
        raise DomainError("dim must be 1 or 2")

    probe = fn if dim == 1 else (lambda x: fn(x, np.zeros_like(x)))
    a, A = fit_growth_envelope(probe, fit_window)
    return InitialDatum(fn=fn, growth_a=a, growth_A=A, breakpoints=breakpoints,
                        label=f"wedge[{F.label},r0={r0:g}]")


def hunt_violation(F, phi, times, window, refine=3, plan=None, n_base=257,
                   history=None, significance_factor=10.0):
    """Search scheduled times for a grid-stable significant violation.

    For each time the datum is evolved on successively halved grids until the
    significance verdict repeats and the worst gap has converged (or `refine`
    doublings are exhausted); discrete artifacts vanish under refinement
    while genuine violations persist.  Returns (certificate, t_first) with
    t_first the earliest time whose violation is stable, else (worst
    certificate seen, None).  Pass a list as `history` to collect one record
    per (time, refinement level) actually run, with the evolution's
    converged, quad_error and lattice_factor.
    """
    if plan is None:
        plan = SamplingPlan()
    lo, hi = window
    overall = None
    for t in sorted(times):
        h = (hi - lo) / (n_base - 1)
        prev = None
        stable = None
        for level in range(refine + 1):
            u = heat_evolve_free(phi, t, (lo, hi, h))
            cert = check_F_convex(u, F, plan, significance_factor)
            if history is not None:
                history.append({"t": float(t), "level": level, "h": h,
                                "certificate": cert,
                                **{k: u.meta[k] for k in
                                   ("converged", "quad_error", "lattice_factor")}})
            if prev is not None:
                same_sig = prev.significant == cert.significant
                if same_sig and not cert.significant:
                    stable = cert
                    break
                if same_sig and cert.significant:
                    g0, g1 = prev.worst.gap, cert.worst.gap
                    if abs(g1 - g0) <= 0.5 * max(abs(g0), abs(g1)):
                        stable = cert
                        break
            prev = cert
            h /= 2.0
        result = stable if stable is not None else prev
        if overall is None or (result.worst is not None and
                               (overall.worst is None or
                                result.worst.gap > overall.worst.gap)):
            overall = result
        if result.significant and stable is not None:
            return result, float(t)
    return overall, None


# -- mixture envelope ---------------------------------------------------------


def mixture_envelope(v, lam):
    """Nodewise infimum of (1-lam) v(x0) + lam v(x1) over grid decompositions.

    Every tested decomposition keeps x0 and x1 inside the window, so the
    result can only overestimate the unconstrained envelope; a node is
    flagged (meta['flagged']) when its minimizer touches the window edge or
    when a first-step decomposition beyond the edge, bounded below by the
    growth certificate -a exp(A x^2), could undercut the computed value.
    Flags mark nodes whose envelope value is untrusted, values are never
    replaced by proxies.
    """
    if v.dim != 1:
        raise DomainError("mixture envelope implemented for dim 1 only")
    if not np.all(np.isfinite(v.values)):
        raise DomainError("envelope needs finite grid values")
    p, q = _as_fraction(lam)
    lam_f = p / q
    w = v.values
    n = w.size
    env = w.copy()
    arg_edge = np.zeros(n, dtype=bool)
    idx = np.arange(n)
    # s > 0 puts x0 on the left; negative strides are the mirrored pairs.
    # Improvements below the roundoff scale are ignored so that a convex v
    # reproduces itself exactly.
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
            better = cand < env - 4 * _EPS * (1.0 + np.abs(cand))
            env = np.where(better, cand, env)
            at_edge = ok & ((i0 == 0) | (i0 == n - 1) | (i1 == 0) | (i1 == n - 1))
            arg_edge = np.where(better, at_edge, arg_edge)
        if not any_ok:
            break

    # can the first decomposition past the window undercut the computed value?
    ax = v.axes()[0]
    h = v.spacing[0]
    tol = (v.value_error + 4 * _EPS) * (1.0 + np.max(np.abs(w)))

    def lower_bound(xx):
        return -v.growth_a * np.exp(v.growth_A * xx * xx)

    flagged = arg_edge.copy()
    for d0, d1 in ((-p, q - p), (p, -(q - p))):
        cap0 = idx // (-d0) if d0 < 0 else (n - 1 - idx) // d0
        cap1 = idx // (-d1) if d1 < 0 else (n - 1 - idx) // d1
        s_exit = np.minimum(cap0, cap1) + 1
        i0 = idx + d0 * s_exit
        i1 = idx + d1 * s_exit
        x0 = ax[0] + i0 * h
        x1 = ax[0] + i1 * h
        v0 = np.where((i0 >= 0) & (i0 < n), w[np.clip(i0, 0, n - 1)],
                      lower_bound(x0))
        v1 = np.where((i1 >= 0) & (i1 < n), w[np.clip(i1, 0, n - 1)],
                      lower_bound(x1))
        cand = (1.0 - lam_f) * v0 + lam_f * v1
        flagged |= cand < env - tol

    out = GridFunction(
        values=env, extent=v.extent,
        growth_a=max(v.growth_a, float(np.max(np.abs(env))) * (1 + 1e-9)),
        growth_A=v.growth_A,
        value_error=v.value_error,
        meta={"lam": lam_f, "flagged": flagged},
    )
    return out


@dataclass(frozen=True)
class EnvelopeComparison:
    """Gap statistics for the evolved-envelope comparison."""

    status: str            # holds / violated / inconclusive
    max_gap: float
    noise_floor: float
    n_flagged: int
    worst_x: float
    n_samples: int


def check_envelope_comparison(F, phi, lam, t, window, h, eps_tail=1e-10):
    """Evolved mixture envelope stays below the mixed evolved values.

    Builds W0 = F^{-1}(envelope of F(phi)) on the window, evolves both W0 and
    phi to time t, and checks evolve(W0) at each decomposition midpoint
    against F^{-1}((1-lam) F(u(x0)) + lam F(u(x1))), within three combined
    noise floors.  Nodes relying on flagged envelope values make a failed
    comparison inconclusive rather than a violation.
    """
    p, q = _as_fraction(lam)
    lam_f = p / q
    lo, hi = window
    n = int(round((hi - lo) / h)) + 1
    x = np.linspace(lo, hi, n)

    if isinstance(phi, InitialDatum):
        phi_d = phi
    else:
        a_fit, A_fit = fit_growth_envelope(phi, window)
        phi_d = InitialDatum(fn=phi, growth_a=a_fit, growth_A=A_fit)

    # W0 is defined by grid values, so its construction window must already
    # cover the quadrature reach of the evolution to time t: the evolver's
    # truncation radius, padded by whole cells.
    if 4.0 * phi_d.growth_A * t >= 1.0:
        raise DomainError("growth certificate leaves no existence window at t")
    *_, R = _truncation_window(phi_d.growth_a, phi_d.growth_A, t,
                               max(abs(lo), abs(hi)), 1, eps_tail)
    pad_cells = int(np.ceil(R / h)) + 2
    xp = np.linspace(lo - pad_cells * h, hi + pad_cells * h, n + 2 * pad_cells)
    inner = slice(pad_cells, pad_cells + n)

    u0 = np.asarray(phi_d(xp), dtype=float)
    scale = 1.0 + np.abs(u0)
    if np.any(u0 < F.lower_a - 1e-9 * scale) or np.any(u0 > F.upper_ell + 1e-9 * scale):
        raise DomainError("datum exits the transform's domain")
    v0 = np.asarray(F(np.clip(u0, F.lower_a, F.upper_ell)), dtype=float)
    if not np.all(np.isfinite(v0)):
        raise DomainError("transformed datum must be finite on the window")

    v0_gf = GridFunction(values=v0, extent=((xp[0], xp[-1]),),
                         growth_a=float(np.max(np.abs(v0))) * (1 + 1e-9) + 1e-300,
                         growth_A=0.0)
    env = mixture_envelope(v0_gf, lam)
    flagged = env.meta["flagged"][inner]

    w0 = np.empty_like(env.values)
    interior = env.values > F.j_lo
    w0[interior] = np.asarray(F.inverse(env.values[interior]), dtype=float)
    w0[~interior] = F.lower_a
    w0_gf = GridFunction(values=w0, extent=((xp[0], xp[-1]),),
                         growth_a=phi_d.growth_a, growth_A=phi_d.growth_A,
                         value_error=phi_d.value_error)

    uW = heat_evolve_free(w0_gf, t, (lo, hi, h), eps_tail=eps_tail)
    u = heat_evolve_free(phi_d, t, (lo, hi, h), eps_tail=eps_tail)

    vu, spread = _transform_values(u, F)
    uW_err = uW.value_error * (1.0 + np.abs(uW.values))

    idx = np.arange(n)
    max_gap = -np.inf
    worst_x = np.nan
    worst_noise = np.inf
    n_samples = 0
    for s in range(1, (n - 1) // q + 1):
        i0 = idx - p * s
        i1 = idx + (q - p) * s
        ok = (i0 >= 0) & (i1 < n)
        if not np.any(ok):
            break
        j = idx[ok]
        with np.errstate(invalid="ignore"):
            mix = (1.0 - lam_f) * vu[i0[ok]] + lam_f * vu[i1[ok]]
        fin = np.isfinite(mix) & (mix > F.j_lo) & (mix < F.j_hi)
        j, mix = j[fin], mix[fin]
        if j.size == 0:
            continue
        rhs = np.asarray(F.inverse(mix), dtype=float)
        gap = uW.values[j] - rhs
        n_samples += j.size
        k = int(np.argmax(gap))
        if gap[k] > max_gap:
            max_gap = float(gap[k])
            worst_x = float(x[j[k]])
            # invert the endpoint noise through the inverse slope at mix
            slope = np.asarray(F.inverse_deriv(mix[k]), dtype=float)
            end_noise = ((1.0 - lam_f) * spread[i0[ok][fin][k]]
                         + lam_f * spread[i1[ok][fin][k]])
            worst_noise = float(uW_err[j[k]] + abs(slope) * end_noise)

    noise = worst_noise if np.isfinite(worst_noise) else 0.0
    if max_gap <= 3.0 * noise:
        status = "holds"
    elif np.count_nonzero(flagged) > 0.05 * n:
        status = "inconclusive"
    else:
        status = "violated"
    return EnvelopeComparison(status=status, max_gap=float(max_gap),
                              noise_floor=noise,
                              n_flagged=int(np.count_nonzero(flagged)),
                              worst_x=worst_x, n_samples=n_samples)
