"""Midpoint certificates: verify or refute transformed convexity on grids.

A grid function u is F-convex when F(u) is convex, that is when
F(u(x)) <= (1-lam)F(u(x0)) + lam F(u(x1)) at x = (1-lam)x0 + lam x1.  The
certificate tests every chord of grid nodes: every triple of nodes x0, x,
x1 in order on one lattice line, lam their own weight (x - x0)/(x1 - x0).
The test is exact for 1D data, whose one line holds every chord of nodes,
and for ridges (data of d . x alone), whose F(u) along each lattice line
not orthogonal to d is their profile's, reparametrized.  Other data of
n >= 2 axes are tested only along the directions in {-1, 0, 1}^n: a grid
can be convex along all of them and still not convex.  Verdicts are
guarded by noise floors propagated from each grid function's recorded
value error, and a violation counts as significant only when its gap
clears a significance factor (default 10) times that floor.

Every check scans the lattice lines along the directions of one table (the
vectors of {-1, 0, 1}^n up to sign: the axis in 1D; rows, columns and both
diagonals in 2D; 13 directions in 3D), asking whether a middle value sits
above its ends: above the chord for F-convexity, above the running minima
on both sides for quasi-convexity.  `_lines` lists a direction's lines as
rows of flat node indices padded with a sentinel index, which the
quasi-convexity check reads as line stacks; `_chain` lays the lines of
every direction end to end.  The worst chord through each middle node is
read from lower convex hulls of the line's points (`_chords`), so the
certificate takes a few elimination passes, not a pass per triple.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .heatflow import (GridFunction, InitialDatum, _BudgetError, _grid_size,
                       fit_growth_envelope, heat_evolve_free)
from .numerics import (DomainError, check_count, check_direction, check_factor, check_real,
                       check_schedule, check_tolerance, param_text)

__all__ = [
    "MidpointSample",
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
    """One tested triple: endpoints, the middle's weight between them, and
    the gap, F(u) at the middle less the chord there."""

    x0: object
    x1: object
    lam: float
    gap: float


@dataclass(frozen=True)
class Certificate:
    """Outcome of a chord scan.

    worst is the deciding triple, whose gap most exceeds the significance
    factor times its noise_floor, the propagated value-error spread there
    (value errors are two-grid estimates, so this is a discretization noise
    estimate); significant says that the gap clears factor times the floor.
    n_samples counts the middle nodes of a triple, once per scan direction.
    status is "violation" when the deciding gap exceeds the floor (positive
    gaps below it are discretization dust), else "no_violation_found".
    """

    worst: object
    noise_floor: float
    significant: bool
    n_samples: int = 0

    @property
    def status(self):
        return ("violation" if self.worst is not None and self.worst.gap > self.noise_floor
                else "no_violation_found")


def _as_fraction(lam):
    """(p, q, p / q) for a weight lam = p / q in (0, 1) with q <= 8."""
    fr = Fraction(check_tolerance(lam, "lambda")).limit_denominator(8)
    if abs(float(fr) - float(lam)) > 1e-12 or not 0 < fr < 1:
        raise DomainError(
            f"lambda = {lam} is not a rational p/q in (0, 1) with q <= 8; midpoints "
            "must land on grid nodes")
    return fr.numerator, fr.denominator, fr.numerator / fr.denominator


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
    # an infinite node value makes its spread NaN (inf - inf), read as
    # infinite noise
    with np.errstate(invalid="ignore"):
        delta = u.value_error * scale
        v_hi = np.asarray(F(np.clip(clipped + delta, lo, hi)), dtype=float)
        v_lo = np.asarray(F(np.clip(clipped - delta, lo, hi)), dtype=float)
        spread = v_hi - v_lo
    spread = np.where(np.isnan(spread), np.inf, spread)
    spread = spread + 4 * _EPS * (1.0 + np.abs(np.where(np.isfinite(v), v, 0.0)))
    return v, spread


class _Directions(dict):
    """n -> the scan directions in scan order (ties keep the first): the
    vectors of {0, 1, -1}^n whose first nonzero entry is 1."""

    def __missing__(self, n):
        self[n] = tuple(d for d in itertools.product((0, 1, -1), repeat=n)
                        if next((x for x in d if x), 0) == 1)
        return self[n]


_DIRECTIONS = _Directions()


@functools.lru_cache(maxsize=32)
def _lines(shape, d):
    """Flat node indices of the lattice lines along d, a row per line in
    travel order; each row is padded past its line's end with prod(shape),
    one past the last node, so that a field with one sentinel appended
    reads the sentinel there.  Read-only: kept for the 32 (shape,
    direction) pairs scanned last, since a certificate and a
    quasi-convexity check of one grid scan the same lines."""
    size = math.prod(shape)
    axes = [(x, n, step) for x, n, step in zip(np.indices(shape).reshape(len(shape), -1),
                                               shape, d) if step]
    ahead = np.min([n - 1 - x if step > 0 else x for x, n, step in axes], axis=0)
    behind = np.min([x if step > 0 else n - 1 - x for x, n, step in axes], axis=0)
    first = np.flatnonzero(behind == 0)
    length = ahead[first] + 1
    step = sum(step * math.prod(shape[k + 1:]) for k, step in enumerate(d))
    k = np.arange(length.max())
    lines = np.where(k < length[:, None], first[:, None] + step * k, size)
    lines.flags.writeable = False
    return lines


@functools.lru_cache(maxsize=16)
def _chain(shape):
    """The lines of every scan direction end to end, as read-only arrays
    over their entries (each node once per direction): node, the flat node
    index; pos, the position along the line; line, the line's number; and
    per line, the number of its direction."""
    size = math.prod(shape)
    parts, n_lines = [], 0
    for j, d in enumerate(_DIRECTIONS[len(shape)]):
        t = _lines(shape, d)
        row, pos = np.nonzero(t < size)
        parts.append((t[row, pos], pos.astype(float), row + n_lines, np.full(len(t), j)))
        n_lines += len(t)
    chain = tuple(np.concatenate(a) for a in zip(*parts))
    for a in chain:
        a.flags.writeable = False
    return chain


def _edges(joined):
    """(first, last): masks of the entries that begin and end their runs,
    joined[i] telling whether entry i + 1 continues the run of entry i."""
    first = np.ones(joined.size + 1, bool)
    last = first.copy()
    first[1:], last[:-1] = ~joined, ~joined
    return first, last


def _bounds(line):
    """(first, last): for each entry of line, sorted line numbers, the
    index of its line's first and last entry."""
    head, tail = _edges(line[1:] == line[:-1])
    s, e = np.flatnonzero(head), np.flatnonzero(tail)
    return np.repeat(s, e - s + 1), np.repeat(e, e - s + 1)


def _lower_hull(xs, ys, ln):
    """(vertex, end): masks of the points (xs, ys), each line's points in
    order along it (ln their sorted line numbers), that are vertices of
    their line's lower convex hull, and that are their line's first or last.

    A point on or above the chord of two other points of its line is no
    vertex, and dropping it leaves the hull as it was.  The first pass tests
    every point against the chord of its neighbours and that of its line's
    ends (which drops a bump's inner points at once); each later pass tests
    the points next to those just dropped against the chord of their
    remaining neighbours, until none drops.
    """
    k = np.arange(ln.size)
    f, g = _bounds(ln)
    ends = (f == k) | (g == k)
    yf, xf = ys[f], xs[f]
    drop = (ys - yf) * (xs[g] - xf) >= (ys[g] - yf) * (xs - xf)
    drop[1:-1] |= ((ys[1:-1] - ys[:-2]) * (xs[2:] - xs[:-2])
                   >= (ys[2:] - ys[:-2]) * (xs[1:-1] - xs[:-2]))
    drop &= ~ends
    prv, nxt, gone = k - 1, k + 1, np.flatnonzero(drop)
    while gone.size:
        # link the two points left on either side of each run of dropped
        # points; in order, they are the next pass's candidates
        a, b = prv[gone], nxt[gone]
        a, b = a[~drop[a]], b[~drop[b]]
        nxt[a], prv[b] = b, a
        c = np.empty(2 * a.size, np.intp)
        c[::2], c[1::2] = a, b
        c = c[_edges(c[1:] == c[:-1])[0] & ~ends[c]]
        a, b = prv[c], nxt[c]
        gone = c[(ys[c] - ys[a]) * (xs[b] - xs[a]) >= (ys[b] - ys[a]) * (xs[c] - xs[a])]
        drop[gone] = True
    return ~drop, ends


def _chords(x, y, line, pts):
    """(mid, a, b, lam) of pts, sorted indices of points (x, y) that lie in
    order along the lines numbered `line`: each mid of pts with points of
    its line before and after it, the chord between two other points of
    pts, a before mid and b after, that is lowest at mid, and lam =
    (x_mid - x_a) / (x_b - x_a).

    That chord is the lower envelope at mid of its line's other points: the
    edge over mid of the lower hull H where mid is no vertex of H, and the
    chord of its neighbours where they are its neighbours on H too.
    Dropping a vertex changes the hull only between its neighbours on H, so
    at the other inner vertices of odd rank along H it is the hull of the
    points between their neighbours without them, and at even rank the
    same without the even ones: one more hull pass.
    """
    if not pts.size:
        return pts, pts, pts, x[pts]
    xs, ys, ln = x[pts], y[pts], line[pts]
    n, n_lines = pts.size, int(ln[-1]) + 1
    vertex, ends = _lower_hull(xs, ys, ln)
    hull = np.flatnonzero(vertex)
    k, (first, last) = np.arange(hull.size), _bounds(ln[hull])
    lone = (first < k) & (k < last)  # inner vertices with a point between them and a neighbour on H
    lone[1:-1] &= (hull[:-2] + 1 < hull[1:-1]) | (hull[1:-1] + 1 < hull[2:])
    copy = np.zeros(n, np.intp)  # the hull each point reads: H, or copy 1 or 2
    copy[hull[lone]] = 2 - (k - first)[lone] % 2
    # the vertices next to each middle on H: r is the rank along H of the
    # last vertex at or before each point
    mid, r = np.flatnonzero(~ends), np.cumsum(vertex) - 1
    a, b = hull[r[mid] - vertex[mid]], hull[r[mid] + 1]
    if lone.any():
        sets = []
        for c in (1, 2):  # the points between the H neighbours of copy c's vertices
            read = np.zeros(hull.size + 1, bool)
            read[:-1] = copy[hull] == c
            window = read[r] | read[r + 1] | (vertex & read[r - 1])
            sets.append(np.flatnonzero(window & (copy != c)))
        more = np.concatenate((sets[0] + n, sets[1] + 2 * n))  # copy c of point i is c n + i
        verts = more[_lower_hull(xs[more % n], ys[more % n], np.concatenate(
            (ln[sets[0]], ln[sets[1]] + n_lines)))[0]]
        lone = hull[lone]
        shift = copy[lone] * n
        j, at = np.searchsorted(verts, lone + shift), np.searchsorted(mid, lone)
        a[at], b[at] = verts[j - 1] - shift, verts[j] - shift
    lam = (xs[mid] - xs[a]) / (xs[b] - xs[a])
    return pts[mid], pts[a], pts[b], lam


# node kinds: -inf, finite, +inf, NaN; [middle, end, end] -> do nodes of
# these kinds make a triple (a gap that is not NaN)?
_REP = np.array([-np.inf, 1.0, np.inf, np.nan])
with np.errstate(invalid="ignore"):
    _TRIPLE = ~np.isnan(_REP[:, None, None] - (_REP[:, None] + _REP))


def _typed_scan(v, chain):
    """(n_samples, first) of values v of any kinds: the count of middles of
    a triple, and the first triple in scan order (None for none): the first
    middle e, then the first entry of its line that makes a triple with e
    and an entry after it, then the first such entry after e.  The reference
    of `_finite_scan`; certificates call it only when some v is not finite."""
    node, _, line, direction = chain
    head, tail = _bounds(line)
    vals = v.reshape(-1)[node]
    t = (vals > -np.inf).astype(int) + (vals == np.inf) + 3 * np.isnan(vals)  # the kinds
    own = t == np.arange(4)[:, None]
    seen = np.cumsum(own, axis=1)
    # pairs[e, i, j]: a node of kind i before entry e on its line, and one of kind j after
    pairs = (seen - own > (seen - own)[:, head]).T[:, :, None] & (seen[:, tail] > seen).T[:, None, :]
    judged = np.flatnonzero((pairs & _TRIPLE[t]).any((1, 2)))
    if not judged.size:
        return 0, None
    e = judged[(direction[line[judged]] * v.size + node[judged]).argmin()]
    ok = _TRIPLE[t[e]][:, t[e + 1:tail[e] + 1]]
    a = head[e] + int(np.argmax(ok[t[head[e]:e]].any(1)))
    return judged.size, (a, e, e + 1 + int(np.argmax(ok[t[a]])))


def _finite_scan(chain):
    """`_typed_scan` of finite values, from the chain alone: every entry
    with entries of its line on both sides is a middle, and the first
    triple through the first middle e starts e's line."""
    node, pos, line, direction = chain
    mids = np.flatnonzero((pos[:-1] > 0) & (line[1:] == line[:-1]))
    if not mids.size:
        return 0, None
    e = int(mids[(direction[line[mids]] * node.size + node[mids]).argmin()])
    return mids.size, (e - int(pos[e]), e, e + 1)


def _bare(per_axis):
    """A per-axis tuple as reported: the entry itself for one axis."""
    return per_axis[0] if len(per_axis) == 1 else per_axis


def _node_point(axes, idx):
    """Coordinates of node idx on the grid axes: a float in 1D, else a tuple."""
    return _bare(tuple(float(ax[i]) for ax, i in zip(axes, idx)))


def check_F_convex(u, F, significance_factor=10.0):
    """Convexity test of F(u) along every chord of nodes of every lattice line.

    A triple is three nodes a, x, b in order on a line of a scan direction,
    lam = (x - a)/(b - a): its gap is F(u(x)) less the chord of F(u) from a
    to b at x, its noise (1 - lam) s_a + lam s_b + s_x, s the value-error
    spread of F(u).  Ends whose transformed values are opposite infinities
    carry no information and make no triple.  The certificate holds the
    deciding triple, of largest margin gap - significance_factor * noise
    (ties go to the earlier direction, then the earlier middle node in C
    order), its noise floor, whether its gap clears the factor times the
    floor, and the number of middle nodes of a triple, once per direction
    (n_samples).  Infinite noise counts as margin -inf: when no margin is
    finite, the first triple in scan order decides (first middle, then
    first ends, as `_typed_scan` reads them).

    With f the factor, the margin is w_mid(x) less the chord of w_end at x,
    w_mid = F(u) - f s and w_end = F(u) + f s, so the largest at x is
    w_mid(x) less the lower envelope at x of w_end's other nodes: one `_chords`
    pass over the nodes of finite w_end reads it.  check_factor checks f.
    """
    check_factor(significance_factor, "significance_factor")
    v, spread = _transform_values(u, F)
    chain = _chain(v.shape)
    node, pos, line, direction = chain
    flat, flat_s = v.reshape(-1), spread.reshape(-1)
    with np.errstate(invalid="ignore"):
        y = (flat + significance_factor * flat_s)[node]
        mid, a, b, lam = _chords(pos, y, line, np.flatnonzero(np.isfinite(y)))
        margin = (flat - significance_factor * flat_s)[node[mid]] - (y[a] + lam * (y[b] - y[a]))
    n_samples, first = _finite_scan(chain) if np.isfinite(flat).all() else _typed_scan(v, chain)
    if mid.size:
        tied = np.flatnonzero(margin == margin.max())
        k = tied[(direction[line[mid[tied]]] * flat.size + node[mid[tied]]).argmin()]
        nodes = a[k], mid[k], b[k]
    elif n_samples:
        nodes = first
    else:
        return Certificate(worst=None, noise_floor=0.0, significant=False)
    i0, im, i1 = (int(node[e]) for e in nodes)
    lam_f = float((pos[nodes[1]] - pos[nodes[0]]) / (pos[nodes[2]] - pos[nodes[0]]))
    gap = float(flat[im]) - float((1.0 - lam_f) * flat[i0] + lam_f * flat[i1])
    noise = float((1.0 - lam_f) * flat_s[i0] + lam_f * flat_s[i1] + flat_s[im])
    axes = u.axes()
    worst = MidpointSample(x0=_node_point(axes, np.unravel_index(i0, v.shape)),
                           x1=_node_point(axes, np.unravel_index(i1, v.shape)), lam=lam_f,
                           gap=gap)
    return Certificate(worst=worst, noise_floor=noise,
                       significant=bool(gap > significance_factor * noise),
                       n_samples=n_samples)


# -- quasi-convexity ----------------------------------------------------------


def check_quasi_convex(u, n_levels=32):
    """Are all sublevel sets of the sampled values convex?

    They are when no point of a segment lies above both its ends.  Along
    every lattice line of the scan directions, a node above the running
    minima strictly before and after it, by more than the value-error
    tolerance (scaled by the largest finite |value|), refutes
    quasi-convexity.  Returns (verdict, witness): None when quasi-convex,
    else grid points (x0, x_mid, x1) on one line, x_mid at the largest
    excess of the first direction that has one (the first node in C order
    on ties) and x0, x1 the smallest values before and after it (first in
    travel order on ties).  NaN nodes (outside the domain) are skipped: they
    are never a witness.  n_levels has no effect (the line scan covers every
    level at once); it stays only because perfbench/workloads.py passes it,
    and goes when the benchmark stops passing it.
    """
    vals = u.values
    finite = np.abs(vals[np.isfinite(vals)])
    tol = (4 * _EPS + u.value_error) * (float(finite.max(initial=0.0)) + 1.0)
    flat = np.append(vals.reshape(-1), np.nan)  # padding reads NaN, which fmin skips
    for d in _DIRECTIONS[u.dim]:
        lines = _lines(vals.shape, d)
        row = flat[lines]
        before = np.fmin.accumulate(row, axis=1)
        after = np.fmin.accumulate(row[:, ::-1], axis=1)[:, ::-1]
        with np.errstate(invalid="ignore"):  # inf - inf: no excess
            excess = row[:, 1:-1] - np.maximum(before[:, :-2], after[:, 2:])
        excess[np.isnan(excess)] = -np.inf
        top = excess.max(initial=-np.inf)
        if not top > tol:
            continue
        tied = np.flatnonzero(excess == top)
        k = int(tied[lines[:, 1:-1].flat[tied].argmin()])
        line, c = divmod(k, excess.shape[1])
        nodes = (lines[line, int(np.nanargmin(row[line, :c + 1]))], lines[line, c + 1],
                 lines[line, c + 2 + int(np.nanargmin(row[line, c + 2:]))])
        axes = u.axes()
        return False, tuple(_node_point(axes, np.unravel_index(i, vals.shape)) for i in nodes)
    return True, None


# -- constructed destruction data ---------------------------------------------


def counterexample_datum(F, r0, direction=None, dim=1, fit_window=(-8.0, 8.0)):
    """Datum that is exactly F-convex with a V-shaped transform profile.

    phi(x) = f_F(z0 + |xi - z0|) with z0 = F(r0) and xi = d . x, d the unit
    vector along `direction` (dim entries, in 1D also a signed number; the
    first axis by default); in transform coordinates the profile is a
    symmetric wedge with vertex value r0, so the midpoint inequality holds
    with equality along it.  Returns an InitialDatum with the kink as a
    breakpoint and a growth certificate fitted to the profile
    s -> f_F(z0 + |s - z0|); |d . x| <= |x|, so |phi(s d)| <= a exp(A s^2)
    gives |phi(x)| <= a exp(A |x|^2).  In every dimension, 1D included, the
    datum is a ridge (InitialDatum.direction = d): fn is the profile of xi
    and its breakpoint z0 lies along xi, so a free-space evolution takes the
    1D flow of the profile.  DomainError unless dim is a whole number >= 1,
    direction has dim finite entries, not all 0, and fit_window is a window.
    """
    dim = check_count(dim, "dim", 1)
    r0 = float(r0)
    if not (F.lower_a < r0 < F.upper_ell):
        raise DomainError("r0 must be interior to the transform's domain")
    z0 = check_real(float(F(r0)), "F(r0)")

    d = check_direction(np.eye(dim)[0] if direction is None else direction, dim, "direction")

    def profile(xi):
        return F.inverse(z0 + np.abs(np.asarray(xi, dtype=float) - z0))

    a, A = fit_growth_envelope(profile, fit_window)
    return InitialDatum(fn=profile, growth_a=a, growth_A=A, breakpoints=(z0,),
                        label=f"wedge[{F.label},r0={param_text(r0)}]",
                        direction=tuple(d))


def hunt_violation(F, phi, times, grid, refine=3, history=None,
                   significance_factor=10.0, eps_tail=1e-10):
    """Search scheduled times for a grid-stable significant violation.

    For each time the datum is evolved on grid = (lo, hi, h), h snapped as
    by every evolution (which refuses a grid above the node budget), then on
    halved spacings until the significance verdict repeats and the worst
    gap has converged (or `refine` doublings are exhausted, or a level would
    pass the node budget, which ends the halving unstable; level 0 raises):
    discrete artifacts vanish under refinement, genuine violations persist.
    Returns (certificate, t_first), t_first the earliest time whose
    violation is stable, else (worst certificate seen, None).  A list passed
    as `history` collects one record per (time, refinement level) run, with
    the evolution's meta.  times (a schedule) and refine (a count) are
    checked here, eps_tail and significance_factor where they are read.
    """
    times = check_schedule(times, "times")
    refine = check_count(refine, "refine")
    lo, hi, _ = grid
    _, (h0,) = _grid_size((grid,))
    overall = None
    for t in sorted(times):
        prev = stable = None
        for level in range(refine + 1):
            h = h0 / 2 ** level
            try:
                u = heat_evolve_free(phi, t, (lo, hi, h), eps_tail=eps_tail)
            except _BudgetError:
                if not level:
                    raise
                break  # a finer level would pass the node budget: keep the finished ones
            cert = check_F_convex(u, F, significance_factor)
            if history is not None:
                history.append({"t": float(t), "level": level, "h": h,
                                "certificate": cert, "meta": u.meta})
            # stable: the verdict repeats, and a significant gap converged
            if prev is not None and prev.significant == cert.significant and (
                    not cert.significant or abs(cert.worst.gap - prev.worst.gap)
                    <= 0.5 * max(abs(prev.worst.gap), abs(cert.worst.gap))):
                stable = cert
                break
            prev = cert
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
    p, q, lam_f = _as_fraction(lam)
    w = v.values
    n = w.size
    env = w.copy()
    arg_edge = np.zeros(n, dtype=bool)
    # Stride s pairs x0 = x - p s with x1 = x + (q - p) s, and mirrored, x0 =
    # x + p s with x1 = x - (q - p) s; both ends lie on the grid for the n -
    # q s middles x of one slice, and only its first and last pairs have an
    # end at the window edge.  At lam = 1/2 the mirrored pairs repeat the
    # same sums, so they cannot improve on them.  Improvements below the
    # roundoff scale are ignored so that a convex v reproduces itself exactly.
    orients = ((p, 0, q), (q - p, q, 0))[:1 if 2 * p == q else 2]
    for s in range(1, (n - 1) // q + 1):
        k = n - q * s
        for mid, end0, end1 in orients:
            lo, a0, a1 = mid * s, end0 * s, end1 * s
            cand = (1.0 - lam_f) * w[a0:a0 + k] + lam_f * w[a1:a1 + k]
            cur, edge = env[lo:lo + k], arg_edge[lo:lo + k]
            better = cand < cur - 4 * _EPS * (1.0 + np.abs(cand))
            np.copyto(cur, cand, where=better)
            np.copyto(edge, False, where=better)
            edge[0] |= better[0]
            edge[-1] |= better[-1]

    # can the first decomposition past the window undercut the computed value?
    x_lo, h = v.axes()[0][0], v.spacing[0]
    tol = (v.value_error + 4 * _EPS) * (1.0 + np.max(np.abs(w)))

    def side(i):
        """w at nodes i, and the growth certificate's lower bound past them."""
        x = x_lo + i * h
        return np.where((i >= 0) & (i < n), w[np.clip(i, 0, n - 1)],
                        -v.growth_a * np.exp(v.growth_A * x * x))

    flagged, idx = arg_edge.copy(), np.arange(n)
    for d0, d1 in ((-p, q - p), (p, -(q - p))):
        cap0 = idx // (-d0) if d0 < 0 else (n - 1 - idx) // d0
        cap1 = idx // (-d1) if d1 < 0 else (n - 1 - idx) // d1
        s_exit = np.minimum(cap0, cap1) + 1
        cand = (1.0 - lam_f) * side(idx + d0 * s_exit) + lam_f * side(idx + d1 * s_exit)
        flagged |= cand < env - tol

    return GridFunction(
        values=env, extent=v.extent,
        growth_a=max(v.growth_a, float(np.max(np.abs(env))) * (1 + 1e-9)),
        growth_A=v.growth_A, value_error=v.value_error,
        meta={"lam": lam_f, "flagged": flagged})


@dataclass(frozen=True)
class EnvelopeComparison:
    """Gap statistics for the evolved-envelope comparison."""

    status: str            # holds / violated / inconclusive
    max_gap: float
    noise_floor: float
    n_flagged: int
    n_samples: int


def check_envelope_comparison(F, phi, lam, t, window, h):
    """Evolved mixture envelope stays below the mixed evolved values.

    phi is an InitialDatum (else TypeError) and t lies in its existence
    window (else ExistenceWindowError, from heat_evolve_free).  Evolves phi
    to time t on (lo, hi, h), builds W0 = F^{-1}(envelope of F(phi)) on the
    window padded by that evolution's truncation radius, evolves W0 likewise,
    and checks evolve(W0) at each decomposition midpoint of u's nodes against
    F^{-1}((1-lam) F(u(x0)) + lam F(u(x1))), within three combined noise
    floors.  The sample of largest gap - 3 noise decides (its
    noise_floor); max_gap is the largest raw gap.  Nodes relying on flagged
    envelope values make a failed comparison inconclusive, not a violation.
    """
    if not isinstance(phi, InitialDatum):
        raise TypeError("phi must be an InitialDatum")
    p, q, lam_f = _as_fraction(lam)
    lo, hi = window
    u = heat_evolve_free(phi, t, (lo, hi, h))
    n, h = u.values.size, u.spacing[0]

    # W0 is defined by grid values, so its construction window must already
    # cover the quadrature reach of its evolution to time t.  W0 carries
    # phi's growth certificate, so that reach is the truncation radius of
    # phi's evolution, padded here by whole cells.
    pad_cells = int(np.ceil(u.meta["truncation_radius"] / h)) + 2
    xp = np.linspace(lo - pad_cells * h, hi + pad_cells * h, n + 2 * pad_cells)
    inner = slice(pad_cells, pad_cells + n)

    u0 = np.asarray(phi(xp), dtype=float)
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
                         growth_a=phi.growth_a, growth_A=phi.growth_A)
    uW = heat_evolve_free(w0_gf, t, (lo, hi, h))

    vu, spread = _transform_values(u, F)
    uW_err = uW.value_error * (1.0 + np.abs(uW.values))

    max_gap = worst_gap = worst_margin = -np.inf
    worst_noise, n_samples = 0.0, 0
    for s in range(1, (n - 1) // q + 1):
        # start nodes i0 = 0 .. n - 1 - q s, middles i0 + p s, ends i0 + q s
        with np.errstate(invalid="ignore"):
            mix = (1.0 - lam_f) * vu[:n - q * s] + lam_f * vu[q * s:]
        i0 = np.flatnonzero(np.isfinite(mix) & (mix > F.j_lo) & (mix < F.j_hi))
        if i0.size == 0:
            continue
        j, mix = i0 + p * s, mix[i0]
        gap = uW.values[j] - np.asarray(F.inverse(mix), dtype=float)
        n_samples += j.size
        max_gap = max(max_gap, float(np.max(gap)))
        # the endpoint noise only lowers a margin, so only samples whose gap
        # less the envelope's noise beats the best margin can win
        c = np.flatnonzero(gap - 3.0 * uW_err[j] > worst_margin)
        if c.size == 0:
            continue
        # invert the endpoint noise through the inverse slope at mix
        slope = np.abs(np.asarray(F.inverse_deriv(mix[c]), dtype=float))
        noise_c = uW_err[j[c]] + slope * ((1.0 - lam_f) * spread[i0[c]]
                                          + lam_f * spread[i0[c] + q * s])
        with np.errstate(invalid="ignore"):
            margin = gap[c] - 3.0 * noise_c
        k = int(np.argmax(np.where(np.isnan(margin), -np.inf, margin)))
        if margin[k] > worst_margin:
            worst_margin, worst_gap = float(margin[k]), float(gap[c[k]])
            worst_noise = float(noise_c[k])

    if worst_gap <= 3.0 * worst_noise:
        status = "holds"
    elif np.count_nonzero(flagged) > 0.05 * n:
        status = "inconclusive"
    else:
        status = "violated"
    return EnvelopeComparison(status=status, max_gap=float(max_gap),
                              noise_floor=worst_noise,
                              n_flagged=int(np.count_nonzero(flagged)),
                              n_samples=n_samples)
