"""Midpoint certificates: verify or refute transformed convexity on grids.

A grid function u is F-convex when F(u) satisfies the midpoint inequality
F(u((1-lam)x0 + lam x1)) <= (1-lam)F(u(x0)) + lam F(u(x1)).  The checks here
restrict lam to small-denominator rationals so every tested midpoint lands
exactly on a grid node; since evolved solutions are continuous, midpoint
convexity upgrades to full convexity.  Verdicts are guarded by noise floors
propagated from each grid function's recorded value error, and a violation
counts as significant only when its gap clears a significance factor
(default 10) times that floor.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .heatflow import (GridFunction, InitialDatum, _truncation_radius,
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
    with weights chosen from lambdas, snapped to the grid.  Weights must be
    rationals p/q with q <= 8 so midpoints are grid-exact.
    """

    kind: str = "aligned"
    lambdas: tuple = (0.5,)
    n_random: int = 4000
    seed: int = 0
    max_stride: object = None


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


def _triple_slices_1d(n, ps, qs):
    yield (slice(None),), (slice(0, n - qs),), (slice(ps, n - qs + ps),), (slice(qs, n),)


def _triple_slices_2d(shape, ps, qs):
    n0, n1 = shape
    # rows, columns, and the two diagonal directions
    if n1 > qs:
        yield ("row",), (slice(None), slice(0, n1 - qs)), \
            (slice(None), slice(ps, n1 - qs + ps)), (slice(None), slice(qs, n1))
    if n0 > qs:
        yield ("col",), (slice(0, n0 - qs), slice(None)), \
            (slice(ps, n0 - qs + ps), slice(None)), (slice(qs, n0), slice(None))
    if n0 > qs and n1 > qs:
        yield ("diag+",), (slice(0, n0 - qs), slice(0, n1 - qs)), \
            (slice(ps, n0 - qs + ps), slice(ps, n1 - qs + ps)), \
            (slice(qs, n0), slice(qs, n1))
        yield ("diag-",), (slice(0, n0 - qs), slice(qs, n1)), \
            (slice(ps, n0 - qs + ps), slice(qs - ps, n1 - ps)), \
            (slice(qs, n0), slice(0, n1 - qs))


def _offset_of(sl):
    return sl.start or 0


def _scan_aligned(v, spread, p, q, lam, max_stride):
    """Worst gap over all grid-aligned stride triples for one weight."""
    best = None
    count = 0
    if v.ndim == 1:
        n = v.size
        s_cap = (n - 1) // q
    else:
        s_cap = (max(v.shape) - 1) // q
    if max_stride is not None:
        s_cap = min(s_cap, int(max_stride))
    for s in range(1, s_cap + 1):
        ps, qs = p * s, q * s
        if v.ndim == 1:
            if v.size <= qs:
                break
            groups = _triple_slices_1d(v.size, ps, qs)
        else:
            groups = _triple_slices_2d(v.shape, ps, qs)
        for tag_and_slices in groups:
            _, s0, sm, s1 = tag_and_slices
            v0, vm, v1 = v[tuple(s0)], v[tuple(sm)], v[tuple(s1)]
            with np.errstate(invalid="ignore"):
                rhs = (1.0 - lam) * v0 + lam * v1
                gap = vm - rhs
            valid = ~np.isnan(gap)
            count += int(np.count_nonzero(valid))
            if not np.any(valid):
                continue
            g = np.where(valid, gap, -np.inf)
            flat = int(np.argmax(g))
            if best is not None and not (g.flat[flat] > best[0]):
                continue
            idx = np.unravel_index(flat, g.shape)
            i0 = tuple(i + _offset_of(sl) for i, sl in zip(idx, tuple(s0)))
            im = tuple(i + _offset_of(sl) for i, sl in zip(idx, tuple(sm)))
            i1 = tuple(i + _offset_of(sl) for i, sl in zip(idx, tuple(s1)))
            noise = ((1.0 - lam) * spread[i0] + lam * spread[i1] + spread[im])
            best = (float(g.flat[flat]), float(noise), i0, im, i1,
                    float(vm[idx]), float(rhs[idx]))
    return best, count


def _scan_random(v, spread, triples_per_lam, rng, p, q, lam, max_stride):
    best = None
    count = 0
    if v.ndim == 1:
        n = v.size
        s_hi = (n - 1) // q
        if max_stride is not None:
            s_hi = min(s_hi, int(max_stride))
        if s_hi < 1:
            return None, 0
        s = rng.integers(1, s_hi + 1, size=triples_per_lam)
        i0 = rng.integers(0, n - q * s)
        im, i1 = i0 + p * s, i0 + q * s
        with np.errstate(invalid="ignore"):
            rhs = (1.0 - lam) * v[i0] + lam * v[i1]
            gap = v[im] - rhs
        valid = ~np.isnan(gap)
        count = int(np.count_nonzero(valid))
        if count == 0:
            return None, 0
        g = np.where(valid, gap, -np.inf)
        k = int(np.argmax(g))
        noise = ((1.0 - lam) * spread[i0[k]] + lam * spread[i1[k]]
                 + spread[im[k]])
        best = (float(g[k]), float(noise), (int(i0[k]),), (int(im[k]),),
                (int(i1[k]),), float(v[im[k]]), float(rhs[k]))
        return best, count
    # dim 2: random direction per draw among the four aligned families
    n0, n1 = v.shape
    dirs = ((0, 1), (1, 0), (1, 1), (1, -1))
    pick = rng.integers(0, 4, size=triples_per_lam)
    for d_i, (d0, d1) in enumerate(dirs):
        m = int(np.count_nonzero(pick == d_i))
        if m == 0:
            continue
        span0 = (n0 - 1) // q if d0 else 10 ** 9
        span1 = (n1 - 1) // q if d1 else 10 ** 9
        s_hi = min(span0, span1)
        if max_stride is not None:
            s_hi = min(s_hi, int(max_stride))
        if s_hi < 1:
            continue
        s = rng.integers(1, s_hi + 1, size=m)
        r0 = rng.integers(0, n0 - q * s * abs(d0)) if d0 else rng.integers(0, n0, size=m)
        if d1 == 1:
            c0 = rng.integers(0, n1 - q * s) if d1 else None
        elif d1 == -1:
            c0 = rng.integers(q * s, n1)
        else:
            c0 = rng.integers(0, n1, size=m)
        rm, r1 = r0 + p * s * d0, r0 + q * s * d0
        cm, c1 = c0 + p * s * d1, c0 + q * s * d1
        with np.errstate(invalid="ignore"):
            rhs = (1.0 - lam) * v[r0, c0] + lam * v[r1, c1]
            gap = v[rm, cm] - rhs
        valid = ~np.isnan(gap)
        count += int(np.count_nonzero(valid))
        if not np.any(valid):
            continue
        g = np.where(valid, gap, -np.inf)
        k = int(np.argmax(g))
        if best is None or g[k] > best[0]:
            noise = ((1.0 - lam) * spread[r0[k], c0[k]]
                     + lam * spread[r1[k], c1[k]] + spread[rm[k], cm[k]])
            best = (float(g[k]), float(noise),
                    (int(r0[k]), int(c0[k])), (int(rm[k]), int(cm[k])),
                    (int(r1[k]), int(c1[k])), float(v[rm[k], cm[k]]),
                    float(rhs[k]))
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
            cand, cnt = _scan_aligned(v, spread, p, q, lam_f, plan.max_stride)
        elif plan.kind == "random":
            per = max(1, plan.n_random // len(plan.lambdas))
            cand, cnt = _scan_random(v, spread, per, rng, p, q, lam_f,
                                     plan.max_stride)
        else:
            raise DomainError(f"unknown sampling plan kind {plan.kind!r}")
        total += cnt
        if cand is not None and (best is None or cand[0] > best[0]):
            best = cand + (lam_f,)

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


def _quasi_1d(vals, tol):
    """Violation = an interior point above the running minima on both sides."""
    n = vals.size
    left_min = np.minimum.accumulate(vals)
    right_min = np.minimum.accumulate(vals[::-1])[::-1]
    excess = np.full(n, -np.inf)
    excess[1:-1] = vals[1:-1] - np.maximum(left_min[:-2], right_min[2:])
    j = int(np.argmax(excess))
    if excess[j] <= tol:
        return True, None
    i = int(np.argmin(vals[:j]))
    k = j + 1 + int(np.argmin(vals[j + 1:]))
    return False, (i, j, k)


def check_quasi_convex(u, n_levels=32):
    """Are all sublevel sets of the sampled values convex?

    dim 1: every sublevel set must be a contiguous index interval.  dim 2:
    for each of n_levels level values, grid nodes in the convex hull of the
    sublevel set but above the level must sit within one cell of the hull
    boundary (discretization tolerance); violations at least one cell deep
    refute quasi-convexity.  Returns (verdict, worst_triple) where the triple
    holds grid points (x0, x_mid, x1) witnessing a mid-above-ends pattern, or
    None when quasi-convex (2D hull-only violations fall back to the deep
    node flanked by its nearest sublevel nodes).
    """
    vals = u.values
    tol = (4 * _EPS + u.value_error) * float(np.max(np.abs(vals)) + 1.0)
    if u.dim == 1:
        ok, triple = _quasi_1d(vals, tol)
        if ok:
            return True, None
        i, j, k = triple
        ax = u.axes()[0]
        return False, (float(ax[i]), float(ax[j]), float(ax[k]))

    from scipy.spatial import ConvexHull, Delaunay, QhullError

    ax0, ax1 = u.axes()
    X, Y = np.meshgrid(ax0, ax1, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    lo, hi = float(np.min(vals)), float(np.max(vals))
    if hi - lo <= tol:
        return True, None
    levels = np.linspace(lo, hi, n_levels + 2)[1:-1]
    for level in levels:
        inside = vals <= level
        if np.count_nonzero(inside) < 3:
            continue
        sub_pts = pts[inside.ravel()]
        try:
            tri = Delaunay(sub_pts)
        except QhullError:
            # collinear sublevel set: contiguity along the line is the test
            order = np.lexsort(sub_pts.T)
            seq = sub_pts[order]
            step = np.diff(seq, axis=0)
            norms = np.hypot(step[:, 0], step[:, 1])
            if norms.size >= 2:
                base = float(np.min(norms))
                k = int(np.argmax(norms))
                if norms[k] > 1.5 * base:
                    mid = 0.5 * (seq[k] + seq[k + 1])
                    return False, (tuple(seq[k]), tuple(mid), tuple(seq[k + 1]))
            continue
        in_hull = (tri.find_simplex(pts) >= 0).reshape(vals.shape)
        hole = in_hull & ~inside
        if not np.any(hole):
            continue
        # one-cell tolerance: only nodes whose full neighborhood is still in
        # the hull count as genuinely interior
        deep = hole.copy()
        deep[0, :] = deep[-1, :] = False
        deep[:, 0] = deep[:, -1] = False
        core = in_hull[1:-1, 1:-1]
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                core = core & in_hull[1 + di:vals.shape[0] - 1 + di,
                                      1 + dj:vals.shape[1] - 1 + dj]
        deep[1:-1, 1:-1] &= core
        deep &= vals > level + tol
        if not np.any(deep):
            continue
        ii, jj = np.nonzero(deep)
        worst = int(np.argmax(vals[ii, jj]))
        i, j = int(ii[worst]), int(jj[worst])
        mid = (float(ax0[i]), float(ax1[j]))
        witness = _straddle_witness(inside, i, j)
        if witness is None:
            near = sub_pts[np.argsort(np.hypot(sub_pts[:, 0] - mid[0],
                                               sub_pts[:, 1] - mid[1]))[:2]]
            return False, (tuple(near[0]), mid, tuple(near[-1]))
        (i0, j0), (i1, j1) = witness
        return False, ((float(ax0[i0]), float(ax1[j0])), mid,
                       (float(ax0[i1]), float(ax1[j1])))
    return True, None


def _straddle_witness(inside, i, j):
    """Sublevel nodes on opposite sides of (i, j) along a grid direction."""
    n0, n1 = inside.shape
    for d0, d1 in ((0, 1), (1, 0), (1, 1), (1, -1)):
        fwd = bwd = None
        for s in range(1, max(n0, n1)):
            a, b = i + d0 * s, j + d1 * s
            if not (0 <= a < n0 and 0 <= b < n1):
                break
            if inside[a, b]:
                fwd = (a, b)
                break
        for s in range(1, max(n0, n1)):
            a, b = i - d0 * s, j - d1 * s
            if not (0 <= a < n0 and 0 <= b < n1):
                break
            if inside[a, b]:
                bwd = (a, b)
                break
        if fwd is not None and bwd is not None:
            return bwd, fwd
    return None


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
            xi = d[0] * np.asarray(x, dtype=float) + d[1] * np.asarray(y, dtype=float)
            return F.inverse(z0 + np.abs(xi - z0))

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
    per (time, refinement level) actually run.
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
                                "certificate": cert})
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
    # cover the quadrature reach of the evolution to time t.  Replicate the
    # evolver's truncation radius and pad by whole cells.
    a_g, A_g = phi_d.growth_a, phi_d.growth_A
    shrink = 1.0 - 4.0 * A_g * t
    if shrink <= 0:
        raise DomainError("growth certificate leaves no existence window at t")
    x_max = max(abs(lo), abs(hi))
    u_scale = a_g * shrink ** -0.5 * np.exp(min(700.0, A_g * x_max * x_max / shrink))
    R = _truncation_radius(a_g, A_g, t, x_max, eps_tail * max(1.0, u_scale))
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
