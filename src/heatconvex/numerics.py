"""Shared numerical helpers: monotone inversion, quadrature weights, label text."""
from __future__ import annotations

import numpy as np

__all__ = [
    "DomainError",
    "invert_monotone",
    "simpson_weights",
    "piecewise_simpson_weights",
    "param_text",
]


class DomainError(ValueError):
    """Argument left the mathematical domain of an operation."""


def param_text(*xs):
    """A label's text for the numbers xs, comma-separated: each one's %g text
    where that reads back as it, else the shortest text that does (repr), so
    distinct parameters label apart and short ones keep their short text."""
    return ",".join(f"{x:g}" if float(f"{x:g}") == x else repr(x) for x in map(float, xs))


def invert_monotone(f, target, lo, hi, deriv=None):
    """Solve f(z) = target for strictly increasing f by bracketing bisection.

    Bisects to width 1e-12*(1+|z|), then polishes with 4 Newton iterations,
    kept inside the bracket, when `deriv` is given.  Vectorized over `target`.
    """
    t = np.asarray(target, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    a = np.full(t.shape, float(lo))
    b = np.full(t.shape, float(hi))
    fa = np.asarray(f(a), dtype=float)
    fb = np.asarray(f(b), dtype=float)
    if np.any(fa > t) or np.any(fb < t):
        bad = (fa > t) | (fb < t)
        raise DomainError(f"target not bracketed by [{lo}, {hi}] for {t[bad][:3]}")
    # bisection; iteration count set by the bracket width and tolerance,
    # in logs so that a bracket wider than 1e296 does not overflow
    width = float(hi) - float(lo)
    n_iter = int(np.ceil(np.log2(max(width, 2e-12)) - np.log2(1e-12))) + 2
    for _ in range(n_iter):
        m = 0.5 * (a + b)
        fm = np.asarray(f(m), dtype=float)
        take_left = fm >= t
        b = np.where(take_left, m, b)
        a = np.where(take_left, a, m)
        if np.all(b - a <= 1e-12 * (1.0 + np.abs(a))):
            break
    z = 0.5 * (a + b)
    if deriv is not None:
        for _ in range(4):
            with np.errstate(divide="ignore", invalid="ignore"):  # no step where f' is 0 or inf
                dz = (np.asarray(f(z), dtype=float) - t) / np.asarray(deriv(z), dtype=float)
            dz = np.where(np.isfinite(dz), dz, 0.0)
            z = np.clip(z - dz, a, b)
    return float(z[0]) if scalar else z


def simpson_weights(n_nodes, h):
    """Composite Simpson weights on n_nodes uniform nodes (spacing h).

    For an even interval count the classic 1,4,2,...,4,1 pattern; an odd count
    is handled by a 3/8 rule on the last three intervals (same order).
    """
    n = int(n_nodes)
    if n < 2:
        raise ValueError("need at least 2 nodes")
    w = np.zeros(n)
    if n == 2:  # trapezoid fallback, only hit for degenerate slivers
        w[:] = 0.5 * h
        return w
    intervals = n - 1
    if intervals % 2 == 0:
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-2:2] = 2.0
        w *= h / 3.0
        return w
    if n == 4:
        return np.array([3.0, 9.0, 9.0, 3.0]) * (h / 8.0)
    head = simpson_weights(n - 3, h)
    w[: n - 3] += head
    w[n - 4 :] += np.array([3.0, 9.0, 9.0, 3.0]) * (h / 8.0)
    return w


def piecewise_simpson_weights(nodes, piece_edges):
    """Simpson weights on uniform `nodes`, split at indices in `piece_edges`.

    piece_edges: sorted node indices (including 0 and n-1) delimiting smooth
    pieces; each piece is integrated by its own composite rule so kinks and
    jumps sitting on an edge node cost no accuracy.
    """
    nodes = np.asarray(nodes)
    h = nodes[1] - nodes[0]
    w = np.zeros(nodes.shape)
    for a, b in zip(piece_edges[:-1], piece_edges[1:]):
        if b > a:
            w[a : b + 1] += simpson_weights(b - a + 1, h)
    return w

