"""Shared numerical helpers: input rules, monotone inversion, quadrature, labels."""
from __future__ import annotations

import numpy as np

__all__ = [
    "DomainError",
    "check_time", "check_grid", "check_tolerance", "check_count", "check_factor",
    "check_real", "check_positive", "check_window", "check_direction", "check_schedule",
    "invert_monotone",
    "simpson_weights",
    "piecewise_simpson_weights",
    "param_text",
]


class DomainError(ValueError):
    """Argument left the mathematical domain of an operation."""


def _rule(what, ok):
    """The checker of one kind of number, for the library and the config:
    check(x, name) returns x where ok(x) holds, else raises DomainError."""
    def check(x, name):
        if not ok(x):
            raise DomainError(f"{name} needs {what}, got {x!r}")
        return x
    return check


check_real = _rule("to be finite", lambda x: -np.inf < x < np.inf)
check_positive = _rule("to be positive and finite", lambda x: 0 < x < np.inf)
check_time = check_positive  # a time is a positive finite real
check_tolerance = _rule("to lie in (0, 1)", lambda e: 0 < e < 1)
check_factor = _rule("to be finite and >= 0", lambda c: 0 <= c < np.inf)
check_grid = _rule("finite bounds and spacings h > 0 with h <= hi - lo, as (lo, hi, h)",
                   lambda g: np.isfinite(g).all() and 0 < g[2] <= g[1] - g[0])
check_window = _rule("finite bounds lo < hi, as (lo, hi)",
                     lambda w: np.shape(w) == (2,) and np.isfinite(w).all() and w[0] < w[1])


def check_count(n, name, least=0):
    """A count, as an int: a whole number >= least."""
    return int(_rule(f"to be a whole number >= {least}",
                     lambda n: least <= n < np.inf and n % 1 == 0)(n, name))


def check_direction(d, dim, name):
    """A direction, as the unit vector d / |d|: dim finite entries, not all 0."""
    v = np.ravel(np.asarray(d, dtype=float))
    _rule(f"{dim} finite entries, not all 0",
          lambda _: v.size == dim and np.isfinite(v).all() and v.any())(d, name)
    return v / float(np.hypot.reduce(np.abs(v)))


def check_schedule(times, name):
    """A schedule, as a tuple: a non-empty sequence of times (check_time)."""
    _rule("a non-empty sequence of times", lambda s: np.ndim(s) == 1 and len(s) > 0)(times, name)
    return tuple(check_time(t, name) for t in times)


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

