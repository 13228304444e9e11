"""Midpoint certificates: verify or refute transformed convexity on grids.

A grid function u is F-convex when F(u) satisfies the midpoint inequality
F(u((1-lam)x0 + lam x1)) <= (1-lam)F(u(x0)) + lam F(u(x1)).  The checks here
restrict lam to small-denominator rationals so every tested midpoint lands
exactly on a grid node; since evolved solutions are continuous, midpoint
convexity upgrades to full convexity.  Verdicts are guarded by noise floors
propagated from each grid function's recorded value error, and a violation
counts as significant only when its gap clears a significance factor
(default 10) times that floor.

Every check scans the lattice lines along the directions of one table (the
vectors of {-1, 0, 1}^n up to sign: the axis in 1D; rows, columns and both
diagonals in 2D; 13 directions in 3D), asking whether a middle value sits
above its ends: above the weighted chord for F-convexity, above the running
minima on both sides for quasi-convexity.  `_lines` lists a direction's
lines as rows of flat node indices padded with a sentinel index, and the
aligned scan and the quasi-convexity check read the field values through
those rows as line stacks.
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
from .numerics import DomainError, param_text

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
_BLOCK = 1 << 16  # triples per numpy pass of a midpoint scan


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

    kind 'aligned' scans every grid-aligned triple (along every direction
    of the scan table) for each weight; 'random' draws n_random triples
    (a positive count) with weights chosen from lambdas, snapped to the
    grid.  Weights must be rationals p/q with q <= 8 so midpoints are
    grid-exact.  A plan that would scan nothing, or an unknown kind, is a
    DomainError (a ValueError).
    """

    kind: str = "aligned"
    lambdas: tuple = (0.5,)
    n_random: int = 4000
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("aligned", "random"):
            raise DomainError(f"unknown sampling plan kind {self.kind!r}")
        if len(self.lambdas) == 0:
            raise DomainError("lambdas must list at least one weight")
        if self.n_random < 1:
            raise DomainError(
                f"n_random must be a positive count of triples, got {self.n_random}")


@dataclass(frozen=True)
class Certificate:
    """Outcome of a midpoint scan.

    worst is the deciding triple, whose gap most exceeds the significance
    factor times its noise_floor, the propagated value-error spread there
    (value errors are two-grid estimates, so this is a discretization noise
    estimate); significant says that the gap clears factor times the floor.
    max_gap is the largest raw gap of the scan, for display.  Midpoints are
    grid-exact, and continuity of the data upgrades midpoint convexity to
    convexity.
    """

    status: str
    worst: object
    noise_floor: float
    significant: bool
    n_samples: int = 0
    max_gap: float = float("nan")


def _as_fraction(lam):
    """(p, q, p / q) for a weight lam = p / q with q <= 8."""
    fr = Fraction(lam).limit_denominator(8)
    if abs(float(fr) - float(lam)) > 1e-12:
        raise DomainError(
            f"lambda = {lam} is not a rational p/q with q <= 8; midpoints "
            "must land on grid nodes")
    if not 0 < fr < 1:
        raise DomainError("lambda must lie strictly between 0 and 1")
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
    """n -> the triple families' directions in scan order (ties keep the
    first): the vectors of {0, 1, -1}^n whose first nonzero entry is 1."""

    def __missing__(self, n):
        self[n] = tuple(d for d in itertools.product((0, 1, -1), repeat=n)
                        if next((x for x in d if x), 0) == 1)
        return self[n]


_DIRECTIONS = _Directions()


def _starts(n, step, qs):
    """[lo, hi) of the start indices x on an axis of n nodes for which
    x + qs*step is a node too."""
    return (qs if step < 0 else 0), (n - qs if step > 0 else n)


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


def _fields(v, spread, factor, lam):
    """v, spread, and the complex pairs (v, v - f spread) of middles and (v,
    v + f spread) of ends times 1 - lam and lam, f = factor: the middle less
    the chord gives gap and margin gap - f noise (noise: the value-error
    spread of both sides) in one gather and subtraction, componentwise."""
    def pair(re, im):
        return np.stack((re, im), axis=-1).view(complex)[..., 0]

    with np.errstate(invalid="ignore"):
        ends = v + factor * spread
        return (v, spread, pair(v, v - factor * spread),
                pair((1.0 - lam) * v, (1.0 - lam) * ends), pair(lam * v, lam * ends))


def _block_winner(gap, margin, count, inside=None, keys=None):
    """(k, margin[k], max gap, count) of a block of triples with gaps gap
    and margins margin, k the flat index of the largest margin (the first on
    ties), or None when the block holds no triple.  count is the block's
    triple count when no entry is NaN.  NaN gaps (opposite infinite
    endpoints) are not triples, and a NaN margin (infinite noise) counts as
    -inf.  inside(), when given, masks the entries that are triples: the
    others are padding, whose gaps and margins are -inf or NaN, so they
    matter only when no margin beats -inf.  keys, when given, holds the
    scan-order keys of the entries of one leading index (a stride): a tie
    within k's stride goes to the smallest key instead.
    """
    k = int(margin.argmax())
    m, g_max = margin.flat[k], gap.max()
    valid = None
    if not (m == m and g_max == g_max and (inside is None or m > -np.inf)):
        valid = ~np.isnan(gap)
        if inside is not None:
            valid &= inside()
        count = int(np.count_nonzero(valid))
        if count == 0:
            return None
        margin = np.where(valid & ~np.isnan(margin), margin, -np.inf)
        k = int(margin.argmax())
        if not valid.flat[k]:  # every margin is -inf: the first triple decides
            k = int(valid.argmax())
        m, g_max = margin.flat[k], np.nanmax(gap)
    if keys is not None:
        kb, n = divmod(k, keys.size)
        tied = margin[kb] == m
        if valid is not None:
            tied &= valid[kb]
        tied = np.flatnonzero(tied)
        k += int(tied[keys.flat[tied].argmin()]) - n
    return k, m, float(g_max), count


def _fold(best, fields, lam, margin, gap, g_max, nodes):
    """Fold a triple (margin, gap, nodes (i0, im, i1)) and a block's largest
    gap into the record (margin, gap, noise, i0, im, i1, lhs, rhs, lam,
    max_gap) of the largest margin: a strictly larger one replaces it."""
    if best is not None:
        g_max = max(g_max, best[-1])
        if not margin > best[0]:
            return best[:-1] + (g_max,)
    v, spread, _, end0, end1 = fields
    i0, im, i1 = nodes
    noise = (1.0 - lam) * spread[i0] + lam * spread[i1] + spread[im]
    return (float(margin), float(gap), float(noise), i0, im, i1,
            float(v[im]), float(end0[i0].real + end1[i1].real), lam, g_max)


def _scan_aligned(best, fields, p, q, lam):
    """Worst margin over all grid-aligned stride triples for one weight, in
    scan order: stride, direction, start node in C order.

    Directions go in groups: consecutive ones whose lines (`_lines`) hold at
    most _BLOCK nodes together, or one direction.  A group's lines make one
    table, a column per line, with q (B - 1) more rows (B the group's
    longest block), and each field plane is gathered through it once; the
    sentinel reads +inf for ends and -inf for middles, so a triple with a
    padded member is never counted and never decides.  Strides go in blocks
    of as many as fill _BLOCK / (number of directions) table entries at the
    block's first stride, which keeps an n-axis scan's buffers small.  One
    numpy pass per block reads the members k, k + p s and k + q s of every
    line through one strided view of each plane, into two buffers.  A tie in
    a pass goes to the earlier direction, then start node (key); a tie
    between groups to the earlier group.
    """
    v, _, mid, end0, end1 = fields
    shape, size, dirs = v.shape, v.size, _DIRECTIONS[v.ndim]
    ext = np.empty((6, size + 1))  # the planes of end0, mid and end1, then the sentinel
    ext[:, :size] = [part.reshape(-1) for a in (end0, mid, end1) for part in (a.real, a.imag)]
    ext[:, size] = np.inf, np.inf, -np.inf, -np.inf, np.inf, np.inf
    groups = [[]]
    for j, d in enumerate(dirs):
        lines = _lines(shape, d)
        if groups[-1] and sum(t.size for _, t in groups[-1]) + lines.size > _BLOCK:
            groups.append([])
        groups[-1].append((j, lines))
    cands, count, g_all = [], 0, -np.inf
    for group in groups:
        longest, n_lines = max(t.shape[1] for _, t in group), sum(len(t) for _, t in group)
        blocks, s, n_strides = [], 1, (longest - 1) // q
        while s <= n_strides:
            w = longest - q * s
            blocks.append((s, max(1, min(_BLOCK // len(dirs) // (w * n_lines),
                                         n_strides - s + 1)), w))
            s += blocks[-1][1]
        if not blocks:
            continue
        idx = np.full((longest + q * (max(b for _, b, _ in blocks) - 1), n_lines), size)
        first = 0
        for _, t in group:
            idx[:t.shape[1], first:first + len(t)] = t.T
            first += len(t)
        key = idx + np.repeat([j * size for j, _ in group], [len(t) for _, t in group])
        length = np.count_nonzero(idx < size, axis=0)
        # triples of the strides up to each (and of stride 0, which cancels)
        done = np.cumsum(np.maximum(length - q * np.arange(n_strides + 1)[:, None], 0).sum(1))
        stack = [plane.take(idx) for plane in ext]
        row, item = stack[0].strides
        n_buf = max(b * w for _, b, w in blocks) * n_lines
        gap_buf, margin_buf, found = np.empty(n_buf), np.empty(n_buf), None
        with np.errstate(invalid="ignore"):
            for s, b, w in blocks:
                gap = gap_buf[:b * w * n_lines].reshape(b, w, n_lines)
                margin = margin_buf[:gap.size].reshape(gap.shape)
                e0_re, e0_im, m_re, m_im, e1_re, e1_im = (
                    np.ndarray(gap.shape, float, plane, o * s * row, (o * row, row, item))
                    for plane, o in zip(stack, (0, 0, p, p, q, q)))
                np.subtract(m_re, np.add(e0_re, e1_re, out=gap), out=gap)
                np.subtract(m_im, np.add(e0_im, e1_im, out=margin), out=margin)

                def inside():
                    # the end, q (s + kb) steps past the start, lies on its line
                    return np.arange(w)[:, None] < length - q * np.arange(s, s + b)[:, None, None]

                won = _block_winner(gap, margin, int(done[s - 1 + b] - done[s - 1]), inside,
                                    key[:w] if n_lines > 1 else None)
                if won is not None:
                    k, m_k, g_max, cnt = won
                    count, g_all = count + cnt, max(g_all, g_max)
                    if found is None or m_k > found[0]:
                        found = (m_k, s + k // gap[0].size, *divmod(k % gap[0].size, n_lines),
                                 gap.flat[k])
        if found is not None:
            m_k, sk, c, line, g = found
            cands.append(((-m_k, sk), g, tuple(tuple(map(int, np.unravel_index(
                idx[c + o * sk, line], shape))) for o in (0, p, q))))
    if not cands:
        return best, count
    (neg_m, _), g, nodes = min(cands, key=lambda c: c[0])  # the first: scan order
    return _fold(best, fields, lam, -neg_m, g, g_all, nodes), count


def _scan_random(best, fields, triples_per_lam, rng, p, q, lam, bufs):
    """Worst margin over triples_per_lam random grid-aligned triples, drawn
    direction per triple (where there is more than one), then per direction
    strides, then starts axis by axis.  The last axis's starts are drawn
    _BLOCK triples at a time as the blocks are scanned, which leaves the
    generator's stream as one draw would.  A block reads its triples through
    flat node indices and gathers into bufs (three index and two complex
    buffers of at least _BLOCK entries, or of triples_per_lam if fewer),
    reused by every block."""
    v, _, mid, end0, end1 = fields
    shape, dirs, count = v.shape, _DIRECTIONS[v.ndim], 0
    flat = [math.prod(shape[k + 1:]) for k in range(v.ndim)]  # C-order strides
    mid, end0, end1 = (a.reshape(-1) for a in (mid, end0, end1))
    pick = rng.integers(0, len(dirs), size=triples_per_lam) if len(dirs) > 1 else None
    for j, d in enumerate(dirs):
        m = triples_per_lam if pick is None else int(np.count_nonzero(pick == j))
        if m == 0:
            continue
        s_hi = min((n - 1) // q for n, step in zip(shape, d) if step)
        if s_hi < 1:
            continue
        s = rng.integers(1, s_hi + 1, size=m)
        lead = [rng.integers(*_starts(n, step, q * s), size=m)
                for n, step in zip(shape[:-1], d[:-1])]
        step_flat = sum(step * f for step, f in zip(d, flat))
        for a in range(0, m, _BLOCK):
            sc = s[a:a + _BLOCK]
            xm, x1, tmp, c0, c1 = (buf[:sc.size] for buf in bufs)
            qs = np.multiply(sc, q, out=tmp)
            if d[-1] > 0:  # _starts's bound n - q s, in place: no fresh array
                x0 = rng.integers(0, np.subtract(shape[-1], qs, out=qs), size=sc.size)
            else:
                x0 = rng.integers(*_starts(shape[-1], d[-1], qs), size=sc.size)
            for i, f in zip(lead, flat):
                x0 += np.multiply(i[a:a + _BLOCK], f, out=tmp)
            np.add(x0, np.multiply(sc, p * step_flat, out=tmp), out=xm)
            np.add(x0, np.multiply(sc, q * step_flat, out=tmp), out=x1)
            # every index is a node, so no mode needs its bounds check (the
            # default, "raise", would gather into a temporary)
            np.take(end0, x0, out=c0, mode="wrap")
            np.take(end1, x1, out=c1, mode="wrap")
            with np.errstate(invalid="ignore"):
                np.add(c0, c1, out=c0)
                np.subtract(np.take(mid, xm, out=c1, mode="wrap"), c0, out=c0)
            won = _block_winner(c0.real, c0.imag, c0.size)
            if won is None:
                continue
            k, m_k, g_max, cnt = won
            count += cnt
            nodes = tuple(tuple(map(int, np.unravel_index(int(ix[k]), shape)))
                          for ix in (x0, xm, x1))
            best = _fold(best, fields, lam, m_k, c0.real[k], g_max, nodes)
    return best, count


def _bare(per_axis):
    """A per-axis tuple as reported: the entry itself for one axis."""
    return per_axis[0] if len(per_axis) == 1 else per_axis


def _node_point(u, idx):
    """Coordinates of node idx of u: a float in 1D, else a tuple."""
    return _bare(tuple(float(ax[i]) for ax, i in zip(u.axes(), idx)))


def check_F_convex(u, F, plan=None, significance_factor=10.0):
    """Midpoint-inequality scan of F(u) over a sampling plan of grid triples.

    Endpoint pairs whose transformed values are opposite infinities carry no
    information and are excluded.  The certificate holds the deciding sample,
    of largest gap - significance_factor * noise (noise: the value-error
    spread at its nodes), its noise floor, whether its gap clears the factor
    times the floor, and the largest raw gap of the scan (max_gap).
    """
    plan = plan or SamplingPlan()
    v, spread = _transform_values(u, F)
    rng = np.random.default_rng(plan.seed)
    per = max(1, plan.n_random // len(plan.lambdas))
    if plan.kind == "random":
        size = min(per, _BLOCK)
        bufs = (*(np.empty(size, np.intp) for _ in range(3)),
                *(np.empty(size, complex) for _ in range(2)))
    best, total = None, 0
    for lam in plan.lambdas:
        p, q, lam_f = _as_fraction(lam)
        fields = _fields(v, spread, significance_factor, lam_f)
        if plan.kind == "aligned":
            best, cnt = _scan_aligned(best, fields, p, q, lam_f)
        else:
            best, cnt = _scan_random(best, fields, per, rng, p, q, lam_f, bufs)
        total += cnt

    if best is None:
        return Certificate(status="no_violation_found", worst=None,
                           noise_floor=0.0, significant=False)
    _, gap, noise, i0, im, i1, lhs, rhs, lam_f, max_gap = best
    worst = MidpointSample(
        x0=_node_point(u, i0), x1=_node_point(u, i1), lam=lam_f,
        lhs=lhs, rhs=rhs, gap=gap)
    # positive gaps below the noise floor are discretization dust, not
    # violations; significance additionally demands a clearance by the factor
    status = "violation" if gap > noise else "no_violation_found"
    significant = bool(gap > significance_factor * noise)
    return Certificate(status=status, worst=worst, noise_floor=noise,
                       significant=significant, n_samples=total, max_gap=max_gap)


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
        return False, tuple(_node_point(u, np.unravel_index(i, vals.shape)) for i in nodes)
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
    1D flow of the profile.
    """
    r0 = float(r0)
    if not (F.lower_a < r0 < F.upper_ell):
        raise DomainError("r0 must be interior to the transform's domain")
    z0 = float(F(r0))
    if not np.isfinite(z0):
        raise DomainError("F(r0) must be finite")

    d = np.ravel(np.asarray(np.eye(dim)[0] if direction is None else direction,
                            dtype=float))
    if d.size != dim:
        raise DomainError(f"direction needs {dim} entries, got {d.size}")
    norm = float(np.hypot.reduce(np.abs(d)))
    if norm == 0:
        raise DomainError("direction must be a nonzero vector")
    d = d / norm

    def profile(xi):
        return F.inverse(z0 + np.abs(np.asarray(xi, dtype=float) - z0))

    a, A = fit_growth_envelope(profile, fit_window)
    return InitialDatum(fn=profile, growth_a=a, growth_A=A, breakpoints=(z0,),
                        label=f"wedge[{F.label},r0={param_text(r0)}]",
                        direction=tuple(d))


def hunt_violation(F, phi, times, grid, refine=3, plan=None, history=None,
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
    the evolution's meta.  eps_tail is passed on to heat_evolve_free.
    """
    plan = plan or SamplingPlan()
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
            cert = check_F_convex(u, F, plan, significance_factor)
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
    worst_x: float
    n_samples: int


def check_envelope_comparison(F, phi, lam, t, window, h):
    """Evolved mixture envelope stays below the mixed evolved values.

    phi is an InitialDatum (else TypeError) and t lies in its existence
    window (else ExistenceWindowError, from heat_evolve_free).  Evolves phi
    to time t on (lo, hi, h), builds W0 = F^{-1}(envelope of F(phi)) on the
    window padded by that evolution's truncation radius, evolves W0 likewise,
    and checks evolve(W0) at each decomposition midpoint of u's nodes against
    F^{-1}((1-lam) F(u(x0)) + lam F(u(x1))), within three combined noise
    floors.  The sample of largest gap - 3 noise decides (worst_x,
    noise_floor); max_gap is the largest raw gap.  Nodes relying on flagged
    envelope values make a failed comparison inconclusive, not a violation.
    """
    if not isinstance(phi, InitialDatum):
        raise TypeError("phi must be an InitialDatum")
    lo, hi = window
    u = heat_evolve_free(phi, t, (lo, hi, h))
    p, q, lam_f = _as_fraction(lam)
    x, = u.axes()
    n, h = x.size, u.spacing[0]

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
    worst_x, worst_noise, n_samples = np.nan, 0.0, 0
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
            worst_x, worst_noise = float(x[j[c[k]]]), float(noise_c[k])

    if worst_gap <= 3.0 * worst_noise:
        status = "holds"
    elif np.count_nonzero(flagged) > 0.05 * n:
        status = "inconclusive"
    else:
        status = "violated"
    return EnvelopeComparison(status=status, max_gap=float(max_gap),
                              noise_floor=worst_noise,
                              n_flagged=int(np.count_nonzero(flagged)),
                              worst_x=worst_x, n_samples=n_samples)
