"""Heat-semigroup evolution on free space and on domains with Dirichlet data.

Data are represented on uniform grids with a certified Gaussian growth bound
|phi(x)| <= a * exp(A |x|^2); the bound controls both the existence window
(4 A t < 1) and the truncation radius of the free-space quadrature.  Every
output grid is sized by one rule (_grid_size), which refuses a grid above
the node budget before any array exists.

Every evolution is one operation: Simpson-weighted samples of the datum on a
lattice H_k/m_k along each axis k (H_k the output spacing, m_k its own
lattice factor) are convolved with a sampled kernel and read off at every
m_k-th node.  Free space uses the Gaussian heat kernel.  The half line is
free space on the odd extension sign(x) (ell - phi(|x|)) (the method of
images), truncated by the same rule.  A box (interval or rectangle)
reflects the samples oddly across each wall and convolves them with the
periodic image sum, whose spectrum has a closed form: the interval
multiplies by it in one FFT of the odd period, a box of more axes samples
the sum per axis by one inverse FFT.  Other long 1D convolutions run as
blocked FFTs (blocks of half the kernel where the roundoff bound is within
a hundredth of the tolerance, else of an eighth within it), short ones (and
data whose bound is too large) as direct sums, and every FFT carries a
roundoff bound.  Data of two or more axes apply the decimated operator
matrix of each axis (a band on free space, taken by blocks of output rows
over their own band) along that axis, without forming the lattice: it is
sampled in slabs of rows along the first axis, each slab contracted along
the other axes, and the first axis applied last to the contracted rows.
The heat kernel is rotation invariant, so a ridge, a datum that reads x
only through xi = d . x, evolves as the 1D flow of its profile: where the
output nodes fill one uniform line of xi, free space takes that flow once
on the line, with the profile's certificate, and gathers the grid from
it.  One refinement loop refuses any pass that is not finite and doubles
every m_k until a two-grid Richardson comparison meets one tolerance
(_QUAD_TOL), a cap on doublings or the lattice would pass a node budget;
the achieved estimate plus the roundoff bound is recorded on the result so
certificates can build honest noise floors.
"""
from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import (DomainError, check_count, check_grid, check_real, check_time,
                       check_tolerance, check_window, piecewise_simpson_weights)

__all__ = [
    "ExistenceWindowError",
    "EvaluationWindowError",
    "GridFunction",
    "DomainSpec",
    "InitialDatum",
    "grid_nodes",
    "gauss_kernel",
    "fit_growth_envelope",
    "check_existence",
    "heat_evolve_free",
    "heat_evolve_dirichlet",
    "hot_h",
]

EXISTENCE_MARGIN = 0.05

# rows per % operation of GridFunction.to_csv, so the strings built at once
# stay small on any grid
_CSV_ROWS = 4096
# spacings by which a coordinate read from CSV may miss its node: to_csv's
# %.17g reads back exactly, and a rounded hand-written coordinate passes
# while one a node (or any visible part of a cell) away does not
_CSV_COORD_TOL = 1e-3


@functools.lru_cache(maxsize=32)
def _row_template(bounds, shape, start):
    """Row template of the to_csv block of rows start, start+1, ... (at
    most _CSV_ROWS) of the grid of this shape: each row's coordinates
    printed with %.17g, then a %.17g slot for its value.  Only the block's
    own coordinates are computed, as GridFunction.axes() places them.

    bounds holds float.hex() of each axis's (lo, hi), since -0.0 and 0.0
    hash equal but print differently.  Built on a block's first write and
    kept for the 32 blocks written last, so a later file on the same grid
    formats only its values."""
    stop = min(start + _CSV_ROWS, math.prod(shape))
    index = np.unravel_index(np.arange(start, stop), shape)
    coords = np.stack([np.linspace(float.fromhex(lo), float.fromhex(hi), n)[i]
                       for (lo, hi), n, i in zip(bounds, shape, index)], axis=1)
    row = "%.17g," * len(shape) + "%%.17g\n"
    return row * len(coords) % tuple(coords.ravel().tolist())


class ExistenceWindowError(ValueError):
    """Requested time is outside the guaranteed existence window 4*A*t < 1."""


class EvaluationWindowError(ValueError):
    """Grid-backed data do not cover the integration window."""


class _BudgetError(DomainError):
    """An output grid or a first lattice above _MAX_LATTICE_NODES."""


def grid_nodes(lo, hi, h):
    """Uniform nodes on [lo, hi], as many as _grid_size says."""
    return np.linspace(lo, hi, _grid_size(((lo, hi, h),))[0][0])


def _grid_size(grids):
    """Lists of the node count n_k = round((hi - lo) / h) + 1 and the snapped
    spacing (hi - lo) / (n_k - 1) of each (lo, hi, h) axis of an output grid.
    Before any array exists: DomainError unless each axis passes check_grid,
    and _BudgetError above _MAX_LATTICE_NODES nodes, which no lattice fits."""
    for grid in grids:
        check_grid(grid, "grid")
    # cells past the budget, or an overflowed quotient, count as the budget
    ns = [round(min((hi - lo) / h, _MAX_LATTICE_NODES)) + 1 for lo, hi, h in grids]
    if math.prod(ns) > _MAX_LATTICE_NODES:
        raise _BudgetError("the output grid of " + " x ".join(
            f"{(hi - lo) / h + 1:.6g}" for lo, hi, h in grids)
            + f" nodes is above the budget of {_MAX_LATTICE_NODES}")
    return ns, [(hi - lo) / (n - 1) for (lo, hi, _), n in zip(grids, ns)]


def _axis_grids(out_grid):
    """out_grid as one (lo, hi, h) triple per axis; a bare triple is one axis."""
    return tuple(out_grid) if isinstance(out_grid[0], (tuple, list)) else (out_grid,)


def _open_mesh(axes):
    """The lattice axes[0] x axes[1] x ... as mutually broadcasting arrays."""
    n = len(axes)
    return [np.asarray(c)[(...,) + (None,) * (n - 1 - k)] for k, c in enumerate(axes)]


def _pchip(x, y):
    """Monotone cubic interpolant of y along axis 0, as a function of the
    points xq, NaN outside [x[0], x[-1]]; its cells are fitted once here.

    Fritsch-Carlson slopes: the weighted harmonic mean of the two chords
    inside (0 where they differ in sign or one is 0), Moler's shape-keeping
    one-sided estimate at the ends, the chord itself for two nodes.  Every
    operation is scipy's PchipInterpolator(x, y, extrapolate=False), down to
    its cell coefficients c0..c3 and its power sum, so the values are its
    values bit for bit.
    """
    h = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    m = np.diff(y, axis=0) / h
    if len(x) == 2:
        d = np.concatenate([m, m])
    else:
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        # both ends at once: row 0 looks right from x[0], row 1 left from x[-1]
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        e = np.where(np.sign(e) != np.sign(m0), 0.0, e)
        e = np.where((np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0)), 3.0 * m0, e)
        d = np.concatenate([e[:1], inner, e[1:]])
    t = (d[:-1] + d[1:] - 2 * m) / h
    c0, c1, c2, c3 = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]

    def at(xq):
        xq = np.atleast_1d(xq)  # a scalar (a one-sided edge sample) is one point
        i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, len(x) - 2)
        s = (xq - x[i]).reshape((-1,) + h.shape[1:])
        # the sum starts from 0.0 as scipy's does, so a -0.0 node value
        # reads 0.0; it runs in place, term by term in scipy's order, so a
        # slab of lattice rows holds two arrays of its size, not five
        out = np.add(0.0, c3[i])
        term = np.empty_like(out)
        for c, power in ((c2, s), (c1, s * s), (c0, s * s * s)):
            np.take(c, i, axis=0, out=term)
            term *= power
            out += term
        out[~((xq >= x[0]) & (xq <= x[-1]))] = np.nan
        return out
    return at


def _cubics(nodes, first, axes):
    """The lattice axes[0] x axes[1] x ... read by monotone cubics along each
    axis in turn: along axis 0 by first, a cubic already fitted through
    nodes[0], then along each axis k by one through nodes[k], fitted to
    what the axes before gave."""
    vals = first(axes[0])
    for k, (a, x) in enumerate(zip(nodes[1:], axes[1:]), 1):
        vals = np.moveaxis(_pchip(a, np.moveaxis(vals, k, 0))(x), 0, k)
    return vals


def _check_certificate(a, A, value_error=0.0):
    """DomainError unless the growth certificate (a, A) is finite with
    a >= 0 and the value_error is >= 0 (inf allowed): anything else bounds
    nothing."""
    if not (0 <= a < math.inf and math.isfinite(A) and value_error >= 0):
        raise DomainError(f"a certificate needs a finite growth_a >= 0, a finite growth_A "
                          f"and a value_error >= 0, got growth_a={a!r} growth_A={A!r} "
                          f"value_error={value_error!r}")


@dataclass
class GridFunction:
    """Sampled function on a uniform n-axis grid with growth metadata.

    values: shape (n1, ..., nd), each n_k >= 2 (else DomainError), C-order
    with axis 0 the first coordinate.  extent: (lo, hi) per axis.  The growth
    fields certify |phi| <= growth_a * exp(growth_A |x|^2) at every node.
    value_error is the recorded max relative uncertainty |du|/(1+|u|) of the
    values (quadrature + roundoff + truncation for evolved data, 0 for exact
    data; inf for an evolution that never doubled).  DomainError for a
    certificate that is no bound (_check_certificate) or an extent axis
    that check_grid refuses with its spacing (not finite, or hi <= lo).
    """

    values: np.ndarray
    extent: tuple
    growth_a: float = 1.0
    growth_A: float = 0.0
    value_error: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        # plain floats, so to_csv's headers read back through from_csv
        self.growth_a = float(self.growth_a)
        self.growth_A = float(self.growth_A)
        self.value_error = float(self.value_error)
        _check_certificate(self.growth_a, self.growth_A, self.value_error)
        self.extent = tuple((float(lo), float(hi)) for lo, hi in self.extent)
        if self.values.ndim != len(self.extent):
            raise ValueError("extent/values dimension mismatch")
        if min(self.values.shape, default=2) < 2:
            raise DomainError(f"grid data need two nodes per axis, got shape "
                              f"{self.values.shape}")
        for (lo, hi), h in zip(self.extent, self.spacing):
            check_grid((lo, hi, h), "extent")

    @property
    def dim(self):
        return self.values.ndim

    @property
    def spacing(self):
        return tuple(
            (hi - lo) / (n - 1)
            for (lo, hi), n in zip(self.extent, self.values.shape)
        )

    def axes(self):
        return tuple(
            np.linspace(lo, hi, n)
            for (lo, hi), n in zip(self.extent, self.values.shape)
        )

    # -- serialization ------------------------------------------------------

    def to_csv(self):
        """CSV rows coordinate(s), value; metadata in comment headers.

        Every float of a row is printed with %.17g, so the values read back
        exactly and equal data give equal bytes.  Rows run in C order (axis
        0 slowest); each block of _CSV_ROWS rows fills its values into the
        block's row template (_row_template), which a block's first write
        builds and later writes on the same grid reuse.
        """
        out = io.StringIO()
        out.write(f"# dim={self.dim}\n")
        for (lo, hi), n in zip(self.extent, self.values.shape):
            out.write(f"# axis lo={lo!r} hi={hi!r} n={n}\n")
        out.write(
            f"# growth_a={self.growth_a!r} growth_A={self.growth_A!r}"
            f" value_error={self.value_error!r}\n"
        )
        names = ["x", "y", "z"][:self.dim] + [f"x{k}" for k in range(4, self.dim + 1)]
        out.write(",".join(names) + ",value\n")
        values = self.values.ravel()
        bounds = tuple((lo.hex(), hi.hex()) for lo, hi in self.extent)
        for i in range(0, values.size, _CSV_ROWS):
            rows = _row_template(bounds, self.values.shape, i)
            out.write(rows % tuple(values[i:i + _CSV_ROWS].tolist()))
        return out.getvalue()

    @classmethod
    def from_csv(cls, text):
        """to_csv's grid function; DomainError unless rows fill the axes
        with one coordinate per axis and a value each, every coordinate
        within _CSV_COORD_TOL spacings of its node (to_csv's are exact),
        and naming the line of a header or row that does not parse."""
        axes = []
        growth = {"growth_a": 1.0, "growth_A": 0.0, "value_error": 0.0}
        rows = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("x,"):
                continue
            try:
                if line.startswith("#"):
                    body = line[1:].strip()
                    if body.startswith("axis"):
                        kv = dict(p.split("=") for p in body.split()[1:])
                        if missing := sorted({"lo", "hi", "n"} - kv.keys()):
                            raise DomainError(f"axis header has no {missing[0]}=")
                        axes.append((float(kv["lo"]), float(kv["hi"]), int(kv["n"])))
                    else:
                        # other comment lines (dim=..., a caller's t=... stamp)
                        # are ignored except for the known growth keys
                        for part in body.split():
                            k, _, v = part.partition("=")
                            if k in growth:
                                growth[k] = float(v)
                    continue
                row = [float(c) for c in line.split(",")]
                if len(row) != len(axes) + 1:
                    raise DomainError(f"row {len(rows) + 1} has {len(row)} columns, not "
                                      f"{len(axes)} coordinates and a value")
            except ValueError as exc:  # DomainError included
                raise DomainError(f"line {lineno} {line!r}: {exc}") from None
            rows.append(row)
        if not axes:
            raise DomainError("no '# axis lo= hi= n=' header line")
        shape = tuple(n for *_, n in axes)
        if len(rows) != math.prod(shape):
            raise DomainError(f"{len(rows)} value rows for axis headers of "
                              f"shape {shape}")
        table = np.asarray(rows)
        gf = cls(values=table[:, -1].reshape(shape),
                 extent=tuple((lo, hi) for lo, hi, _ in axes), **growth)
        for k, (nodes, h) in enumerate(zip(np.meshgrid(*gf.axes(), indexing="ij"),
                                           gf.spacing)):
            off = np.abs(table[:, k] - nodes.ravel()) > _CSV_COORD_TOL * abs(h)
            if np.any(off):
                r = int(np.argmax(off))
                raise DomainError(
                    f"row {r + 1} puts axis {k} at {float(table[r, k])!r}, off its "
                    f"node {float(nodes.flat[r])!r} of the axis headers")
        return gf


@dataclass(frozen=True)
class DomainSpec:
    """Spatial domain: free space, half line, interval, or rectangle (a box
    of any number of axes).

    bounds holds (lo, hi) per axis, none for free space, a window (finite,
    lo < hi) per box axis; the wall value ell is finite.  Else DomainError.
    """

    kind: str
    bounds: tuple = ()
    ell: float = 0.0

    def __post_init__(self):
        check_real(self.ell, "the wall value ell")

    @property
    def n(self):
        """The number of bounded axes: 0 for free space."""
        return len(self.bounds)

    @classmethod
    def free_space(cls):
        return cls(kind="free_space")

    @classmethod
    def half_line(cls, ell=0.0):
        return cls(kind="half_line", bounds=((0.0, np.inf),), ell=ell)

    @classmethod
    def interval(cls, a, b, ell=0.0):
        a, b = check_window((a, b), "an interval (a, b)")
        return cls(kind="interval", bounds=((float(a), float(b)),), ell=ell)

    @classmethod
    def rectangle(cls, bounds, ell=0.0):
        """A box: bounds holds (lo, hi) of every axis."""
        bounds = tuple(tuple(map(float, check_window(ab, "a rectangle axis"))) for ab in bounds)
        return cls(kind="rectangle", bounds=bounds, ell=ell)


@dataclass(frozen=True)
class InitialDatum:
    """Callable initial datum with growth certificate and known kink positions.

    fn(x_0, ..., x_{n-1}) receives the coordinates as mutually broadcasting
    arrays (on a lattice, the open mesh) and may return any array that
    broadcasts against them: a datum that ignores an axis may return a
    line, a constant a scalar; the evolution fills the lattice from it.
    breakpoints lists coordinates where the datum is not smooth, one tuple
    per axis or one flat tuple for every axis; the quadrature splits Simpson
    pieces there.  For data with
    jump discontinuities the integrand is sampled one-sidedly at piece edges,
    so indicators are integrated at full order.

    A ridge sets direction, a unit vector d (one entry per axis; DomainError
    unless finite with |d| = 1 within 1e-12): the datum depends on x only
    through xi = d . x, fn(xi) is its profile, breakpoints (one flat tuple)
    the profile's kinks along xi, and the growth certificate the profile's,
    which bounds the datum too because |d . x| <= |x|.  Calling the datum
    at x evaluates the profile at d . x, over the axes d crosses only.
    The growth certificate is checked as GridFunction's is.
    """

    fn: object
    growth_a: float = 1.0
    growth_A: float = 0.0
    breakpoints: tuple = ()
    label: str = ""
    direction: tuple = None

    def __post_init__(self):
        _check_certificate(self.growth_a, self.growth_A)
        if self.direction is not None:
            d = tuple(float(v) for v in np.ravel(self.direction))
            if not (d and all(map(math.isfinite, d))
                    and abs(math.hypot(*d) - 1.0) <= 1e-12):
                raise DomainError(f"a ridge direction must be a finite unit vector, "
                                  f"got {self.direction!r}")
            object.__setattr__(self, "direction", d)

    def __call__(self, *xs):
        if self.direction is None:
            return self.fn(*xs)
        # xi reads only the axes d crosses, so on an open mesh it spans those
        # alone (one line for an axis-aligned ridge) and the caller broadcasts
        return self.fn(np.asarray(sum(dk * np.asarray(x, dtype=float)
                                      for dk, x in zip(self.direction, xs) if dk),
                                  dtype=float))


def gauss_kernel(x, t):
    """1D heat kernel (4 pi t)^(-1/2) exp(-x^2 / (4t)); x is distance."""
    x = np.asarray(x, dtype=float)
    check_time(t, "t")
    return (4 * np.pi * t) ** -0.5 * np.exp(-(x * x) / (4 * t))


def fit_growth_envelope(fn, window):
    """Certified Gaussian envelope (a, A) for fn on a symmetric 1D window.

    A is the least-squares slope of log|fn| against x^2 over the outer half
    of 801 even samples of the window (clamped to >= 0); a is then the least
    constant making the bound hold at every sample.  The certificate is
    exact at the samples and assumed to extend beyond the window.
    DomainError for a window that check_window refuses, or no finite sample.
    """
    lo, hi = check_window(window, "window")
    x = np.linspace(lo, hi, 801)
    vals = np.abs(np.asarray(fn(x), dtype=float))
    outer = np.abs(x) >= 0.5 * max(abs(lo), abs(hi))
    pos = outer & (vals > 0)
    if np.count_nonzero(pos) >= 8:
        z2 = x[pos] ** 2
        slope = float(np.sum(z2 * np.log(vals[pos])) / np.sum(z2 * z2))
        A = max(0.0, slope)
    else:
        A = 0.0
    with np.errstate(over="ignore"):
        ratio = vals * np.exp(-A * x * x)
    finite = ratio[np.isfinite(ratio)]
    if not finite.size:
        raise DomainError(f"no finite sample of the datum on the window {window!r}")
    a = float(np.max(finite)) * (1 + 1e-9)
    return max(a, 1e-300), A


def check_existence(A, t):
    """ExistenceWindowError unless 4*A*t < 1 - EXISTENCE_MARGIN."""
    if 4.0 * A * t >= 1.0 - EXISTENCE_MARGIN:
        admitted = (1.0 - EXISTENCE_MARGIN) / (4.0 * A) if A > 0 else np.inf
        raise ExistenceWindowError(
            f"4*A*t = {4 * A * t:.4g} exceeds the margin; largest admitted "
            f"time for growth exponent {A:.6g} is {admitted:.6g}")


# -- evolution engine --------------------------------------------------------


def _resolve_datum(phi, dim):
    """Normalize a datum for a dim-`dim` evolution.

    Returns (sample, a, A, breakpoints, spacing, inherited_error).
    sample(*axes) evaluates on the lattice axes[0] x axes[1] x ... (one axis:
    at points, in any order) as floats.  Grid data raise
    EvaluationWindowError where a lattice axis leaves their extent by more
    than roundoff (1e-9 relative), and are read by monotone cubics clamped
    to it, axis by axis: the cubic along axis 0 is fitted once, the later
    ones to the rows each call reads, so slabs of lattice rows repeat no
    fit.  A callable's result is broadcast to the lattice, so a datum that
    reads some axes only is evaluated on those only.  breakpoints holds kink
    coordinates per axis (a datum's flat tuple serves every axis; a ridge's
    kink b lies on the axis d crosses, at b / d_k, when it crosses one, and
    on no lattice line otherwise).  spacing (grid data's spacing per axis)
    is None for callable data.  A ridge of another dimension raises
    ValueError.
    """
    if isinstance(phi, GridFunction):
        if phi.dim != dim:
            raise ValueError(f"dim-{phi.dim} grid data for a dim-{dim} evolution")
        nodes = phi.axes()
        first = _pchip(nodes[0], phi.values)

        def sample(*axes):
            for y, (lo, hi) in zip(axes, phi.extent):
                y_lo, y_hi = np.min(y), np.max(y)
                if y_lo < lo - 1e-9 * (1 + abs(lo)) or y_hi > hi + 1e-9 * (1 + abs(hi)):
                    raise EvaluationWindowError(
                        f"datum known on {(lo, hi)} but integration window is "
                        f"[{y_lo}, {y_hi}]")
            return _cubics(nodes, first,
                           [np.clip(c, lo, hi) for c, (lo, hi) in zip(axes, phi.extent)])
        return (sample, phi.growth_a, phi.growth_A, ((),) * dim, phi.spacing,
                phi.value_error)
    if isinstance(phi, InitialDatum):
        brk = tuple(phi.breakpoints)
        d = phi.direction
        if d is not None:
            if len(d) != dim:
                raise ValueError(f"a ridge along {len(d)} axes for a dim-{dim} evolution")
            crossed = [k for k, dk in enumerate(d) if dk]
            brk = tuple(tuple(b / d[k] for b in brk) if crossed == [k] else ()
                        for k in range(dim))
        elif not (brk and isinstance(brk[0], (tuple, list))):
            brk = (brk,) * dim

        def sample(*axes):
            mesh = _open_mesh(axes)
            vals = np.asarray(phi(*mesh), dtype=float)
            shape = np.broadcast_shapes(*(c.shape for c in mesh))
            return vals if vals.shape == shape else np.broadcast_to(vals, shape).copy()
        return sample, phi.growth_a, phi.growth_A, brk, None, 0.0
    raise TypeError("phi must be a GridFunction or an InitialDatum")


def _truncation_window(a, A, t, x_max, dim, eps_tail):
    """Growth and truncation of a free-space evolution to time t of data
    |phi| <= a exp(A |x|^2), read off within |x| <= x_max.

    Returns (shrink, gain, eps_abs, R): the evolved data are bounded by
    gain exp(A |x|^2 / shrink), shrink = 1 - 4 A t; eps_abs is eps_tail
    relative to that bound at x_max; and R is the radius where the
    closed-form Gaussian tail of each axis' convolution drops below
    eps_abs / dim, the tail budget split evenly between the axes.
    """
    shrink = 1.0 - 4.0 * A * t
    gain = a * shrink ** (-dim / 2)
    u_scale = gain * np.exp(min(700.0, dim * A * x_max * x_max / shrink))
    eps_abs = eps_tail * max(1.0, u_scale)
    eps_axis, beta = eps_abs / dim, 1.0 / (4.0 * t) - A
    pref = (a / np.sqrt(4 * np.pi * t) * np.sqrt(np.pi / beta)
            * np.exp(min(700.0, A * x_max * x_max * (1.0 + A / beta))))
    u = np.sqrt(np.log(pref / eps_axis)) if pref > eps_axis else 0.0
    R = A * x_max / beta + u / np.sqrt(beta)
    return shrink, gain, eps_abs, max(R, 4.0 * np.sqrt(4.0 * t))


_EDGE_NUDGE = 1e-9


def _piece_weighted_values(fn, y, piece_edges, h):
    """Simpson-weighted samples with one-sided evaluation at piece edges."""
    w = piecewise_simpson_weights(y, piece_edges)
    vals = np.asarray(fn(y), dtype=float)
    psi = w * vals
    # interior piece edges: re-sample one-sidedly so jump data integrate cleanly
    nudge = _EDGE_NUDGE * h
    for a_idx, b_idx in zip(piece_edges[:-1], piece_edges[1:]):
        if b_idx <= a_idx or (a_idx == 0 and b_idx == len(y) - 1):
            continue
        # the piece's own end weights of simpson_weights, in its closed form
        n, hp = b_idx - a_idx + 1, y[a_idx + 1] - y[a_idx]
        first = 0.5 * hp if n == 2 else 3.0 * (hp / 8.0) if n == 4 else hp / 3.0
        last = first if n % 2 or n < 6 else 3.0 * (hp / 8.0)
        if a_idx > 0:
            psi[a_idx] += first * (float(fn(y[a_idx] + nudge)) - vals[a_idx])
        if b_idx < len(y) - 1:
            psi[b_idx] += last * (float(fn(y[b_idx] - nudge)) - vals[b_idx])
    return psi


def _snap_edges(y0, h, n_nodes, points):
    """Lattice indices nearest to the given coordinates, deduplicated."""
    idx = {0, n_nodes - 1}
    for p in points:
        j = round((p - y0) / h)
        if 0 < j < n_nodes - 1:
            idx.add(int(j))
    return sorted(idx)


# kernel length from which _kernel_apply's long-block FFT beats np.convolve
# (measured crossover on the reference machine: K = 897 to 1025 at 1025
# outputs, 385 at 4097, 385 to 513 at 16385)
_FFT_MIN_LEN = 1024
# _valid's output blocks as fractions 1 / frac of the kernel length
_LONG_BLOCK, _SHORT_BLOCK = 2, 8
# entries per batch of FFT segments, so work arrays stay small
_BATCH = 2 ** 17

# lattice nodes a refinement may not pass: 2**23 doubles are 64 MiB per array
_MAX_LATTICE_NODES = 2 ** 23
# the Richardson estimate at which refinement stops, and the doublings it may
# take (heat_evolve_free's default; every Dirichlet flow's cap)
_QUAD_TOL = 1e-9
_MAX_REFINE = 6
# output rows per block of a banded free-space kernel matrix (_bands):
# flow-2d's 193^2 Gaussian (last lattice N = 1353, K = 585, m = 4, slabs of
# 12 rows, single-thread BLAS) evolves in 12.5-12.8 ms at 8 rows, 10.2-10.4
# at 16, 10.1-10.3 at 24, 9.7-9.8 at 32 and 11.3-11.9 at 64
_BAND_ROWS = 32
# lattice nodes per slab of _separable: 2**14 doubles are 128 KiB, glibc's
# initial mmap threshold, so slabs come from the heap, not fresh pages
_SLAB_NODES = 2 ** 14


def _fast_len(n):
    """The smallest 2^a 3^b 5^c >= n, a length the real FFT does fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p = p5
        while p < best:
            best = min(best, p << (-(-n // p) - 1).bit_length())
            p *= 3
        p5 *= 5
    return best


def _valid(f, g, B):
    """np.convolve(f, g, "valid") by overlap-save over output blocks of
    length B, with a roundoff bound; the data f are at least as long as the
    kernel g.

    Each block's segment of B + K - 1 data (K = g.size) goes through
    batched real FFTs of the smallest 5-smooth length that holds it
    (_fast_len).  numpy's FFT keeps no plans between calls, so a run's
    resident memory does not grow with it.  The second array bounds the
    error of each output by the normwise bound of its block,
    eps log2(nfft) |segment|_2 |g|_2: FFT roundoff is spread over the whole
    segment, so short blocks keep it nearer the local data and long ones
    transform less overlap.
    """
    K = g.size
    n_out = f.size - K + 1
    nb = -(-n_out // B)
    nfft = _fast_len(B + K - 1)
    fp = np.zeros(nb * B + K - 1)
    fp[:f.size] = f
    seg = sliding_window_view(fp, B + K - 1)[::B]
    g_hat = np.fft.rfft(g, nfft)
    out, bound = np.empty((nb, B)), np.empty(nb)
    rows = max(1, _BATCH // nfft)
    for i in range(0, nb, rows):
        spec = np.fft.rfft(seg[i:i + rows], nfft, axis=1)
        spec *= g_hat
        out[i:i + rows] = np.fft.irfft(spec, nfft, axis=1)[:, K - 1:K - 1 + B]
        bound[i:i + rows] = np.linalg.norm(seg[i:i + rows], axis=1)
    bound *= np.finfo(float).eps * np.log2(nfft) * np.linalg.norm(g)
    return out.ravel()[:n_out], np.repeat(bound, B)[:n_out]


def _kernel_apply(psi, m, kern, tol=np.inf, long_blocks=True):
    """The valid sums sum_j kern[q - j] psi[j] at every m-th output q, psi
    at least as long as kern.

    Free space and the half line both come here: the half line is the free
    flow of its odd extension, so its images need no kernel of their own.
    Returns (u, roundoff, method, block).  Long kernels go through _valid,
    whose roundoff is max(bound / (1 + |u|)) over the outputs: first over
    blocks of K // _LONG_BLOCK (K = kern.size; unless not long_blocks),
    kept within tol / 100, then of K // _SHORT_BLOCK, kept within tol.  A
    long block's segment makes a third of each transform output, a short
    one's a ninth, but spreads roundoff over more data, so fast-growing
    data keep the short blocks.  Where neither holds, and for short
    kernels, the sums are taken directly (roundoff 0: the pointwise
    rounding of direct sums is the reference; block None).
    """
    K = kern.size
    if K >= _FFT_MIN_LEN:
        tries = ((_LONG_BLOCK, tol / 100.0), (_SHORT_BLOCK, tol))
        for frac, tol_b in tries[not long_blocks:]:
            u, bound = _valid(psi, kern, K // frac)
            u = u[::m]
            roundoff = float(np.max(bound[::m] / (1.0 + np.abs(u))))
            if roundoff <= tol_b:
                return u, roundoff, "fft", K // frac
    return np.convolve(psi, kern, mode="valid")[::m], 0.0, "direct", None


def _kernel_matrix(N, m, n, kern):
    """The n x N matrix of _kernel_apply on length-N data, already decimated:
    rows kern[q + s - j] (s = min(N, K) - 1, K = kern.size) for q = 0, m,
    ..., (n - 1) m, as a strided view of one reversed kernel: row i is its
    window placed at z0 = s + (n - 1) m, starting (n - 1 - i) m nodes in.
    """
    z0 = min(N, kern.size) - 1 + (n - 1) * m
    lo = max(0, z0 - kern.size + 1)
    rev = np.zeros((n - 1) * m + N)
    rev[lo:z0 + 1] = kern[z0 - lo::-1]
    return sliding_window_view(rev, N)[(n - 1) * m::-m]


def _leading_block(mat, step, order):
    """What _bands repeats of mat, laid out in order: the first _BAND_ROWS
    rows over their band, or where step is 0 (a box) mat as it is."""
    if not step:
        return mat
    height = min(_BAND_ROWS, len(mat))
    return np.asarray(mat[:height, :mat.shape[1] - (len(mat) - height) * step], order=order)


def _bands(block, step, n):
    """The n-row matrix whose leading rows are block, as (rows, cols, b)
    triples: b is the matrix over the rows and their band cols, a view of
    block.

    step 0: block is the whole matrix (a box's), one triple.  Else it is a
    free-space kernel matrix of step the lattice factor, whose row i is row
    0 moved i step columns on (_kernel_matrix): block holds its first
    _BAND_ROWS rows over their band, and every later block of as many rows
    is block again, read from its own first column."""
    height, width = block.shape
    bands = []
    for i0 in range(0, n, height):
        r = min(height, n - i0)
        b = block[:r, :width - (height - r) * step]
        bands.append((slice(i0, i0 + r), slice(i0 * step, i0 * step + b.shape[1]), b))
    return bands


def _contract(x, bands, k, out):
    """The matrix of bands applied along axis k of x, block by block over
    each block's band, into out."""
    pre, post = math.prod(x.shape[:k]), math.prod(x.shape[k + 1:])
    x3, out3 = x.reshape(pre, x.shape[k], post), out.reshape(pre, -1, post)
    for rows, cols, b in bands:
        if post == 1:
            np.matmul(x3[:, cols, 0], b.T, out=out3[:, rows, 0])
        else:
            np.matmul(b, x3[:, cols], out=out3[:, rows])
    return out


def _separable(sample, axes, weights, mats, kern_errs, steps):
    """Tensor quadrature of the datum on the lattice axes[0] x axes[1] x
    ..., A_k = mats[k] weights[k] applied along each axis k, with its
    roundoff relative to direct sums.  sample(*axes) evaluates the datum on
    a lattice; steps[k] is the lattice factor of axis k's free-space
    kernel matrix, 0 for a dense box matrix (_bands).

    The lattice is never formed.  Axis 0 is walked in slabs of consecutive
    lattice rows, at most _SLAB_NODES nodes and at least one row each; each
    slab is sampled once, and A_n-1, ..., A_1 are applied to it (weights
    to the data, the matrix by its bands), leaving its contracted rows and
    the 2-norm c_r of each of its lattice rows.  A_0 is applied last, in
    the same way, to the contracted rows of the whole lattice.

    Each product rounds within gamma_N of its magnitudes.  A contracted row
    is bounded by Cauchy-Schwarz over the trailing axes: |(A_1 x ... x
    A_n-1) V_r|_j <= P_j c_r, P_j = prod_k |A_k,j_k|_2 (the 2-norm of a
    Kronecker product of rows is the product of their 2-norms).  So output
    (i, j) errs by at most gamma C_i P_j, C = |A_0| c, gamma = 2 eps sum_k
    N_k (the 2 covers the direct sums this replaces and the weighting; a
    band's sums are shorter still).  kern_errs bounds the error delta_k of
    a kernel sample; a row of a folded Dirichlet matrix is the difference
    of two kernel windows, so a row of A_k errs by at most d_k = 2 delta_k
    max|w_k| in 2-norm.  For k >= 1 that adds d_k C_i times P_j with its
    factor |A_k,j_k|_2 left out; for axis 0, d_0 |c|_2 P_j.  Two axes A, B
    give gamma (|A| c)_i |B_j|_2 + d_1 (|A| c)_i + d_0 |c|_2 |B_j|_2, the
    mirror image of the bound of the order that applies A first.
    """
    n = len(axes)
    ns = [len(mat) for mat in mats]
    # BLAS reads the transpose of the last axis' block row by row
    blocks = [_leading_block(mat, step, "F" if k == n - 1 else "C")
              for k, (mat, step) in enumerate(zip(mats, steps))]
    bands = [_bands(b, step, nk) for b, step, nk in zip(blocks, steps, ns)]
    # each axis' weights, along that axis of a slab
    ws = [w[(...,) + (None,) * (n - 1 - k)] for k, w in enumerate(weights)]
    N0 = axes[0].size
    height = max(1, _SLAB_NODES // math.prod(y.size for y in axes[1:]))
    rows, c = np.empty((N0, *ns[1:])), np.empty(N0)
    for r0 in range(0, N0, height):
        x = sample(axes[0][r0:r0 + height], *axes[1:])
        flat = x.reshape(len(x), -1)
        c[r0:r0 + height] = np.sqrt(np.einsum("ij,ij->i", flat, flat))
        for k in range(n - 1, 1, -1):
            x = _contract(x * ws[k], bands[k], k,
                          np.empty(x.shape[:k] + (ns[k],) + x.shape[k + 1:]))
        _contract(x * ws[1], bands[1], 1, rows[r0:r0 + height])
    rows *= ws[0]
    u = _contract(rows, bands[0], 0, np.empty(ns))
    del rows  # before the bound's arrays of the output's size

    gamma = 2.0 * np.finfo(float).eps * sum(y.size for y in axes)
    d = [2.0 * dk * float(np.max(np.abs(w))) for dk, w in zip(kern_errs, weights)]
    norms = [np.sqrt(_contract(w * w, _bands(b * b, step, nk), 0, np.empty(nk)))
             for w, b, step, nk in zip(weights[1:], blocks[1:], steps[1:], ns[1:])]
    C = _contract(np.abs(weights[0]) * c, _bands(np.abs(blocks[0]), steps[0], ns[0]), 0,
                  np.empty(ns[0]))
    P = functools.reduce(np.multiply.outer, norms)
    Q = sum(dk * functools.reduce(np.multiply.outer, norms[:k] + [np.ones(ns[k + 1])]
                                  + norms[k + 1:])
            for k, dk in enumerate(d[1:]))
    # in place: each array of the output's size is a fresh mapping
    bound = np.multiply.outer(C, gamma * P + Q)
    bound += d[0] * float(np.linalg.norm(c)) * P
    scale = np.abs(u)
    scale += 1.0
    bound /= scale
    return u, float(np.max(bound)), "matrix"


def _start_factor(spacings, t, datum_hs):
    """First lattice factor m_k of each axis k: H_k / m_k resolves H_k,
    sqrt(t)/8 and the spacing of grid data along axis k (datum_hs, None for
    callable data), so every lattice spacing h_k stays <= sqrt(t)/8."""
    h_t = np.sqrt(t) / 8.0
    return tuple(max(1, int(np.ceil(H / min(H, h_t, dh or np.inf) - 1e-12)))
                 for H, dh in zip(spacings, datum_hs or (None,) * len(spacings)))


def _refine(one_pass, ms, max_refine, cells):
    """Double every lattice factor until two passes agree to _QUAD_TOL;
    returns (values, record).

    one_pass(ms) returns (values, roundoff, kernel_method, fft_block,
    kernel_len) for the lattice factors ms, one per axis.  A lattice has
    m_k c_k + 1 nodes along an axis of c_k cells at factor 1 (cells lists
    c_k per axis).  _BudgetError for a first lattice above
    _MAX_LATTICE_NODES, before one_pass samples anything, DomainError for a
    pass that is not finite (data unbounded on its lattice); doubling stops
    short of the budget, keeping the last finished pass.  Every factor
    doubles at once, so each doubling halves every spacing and the record
    holds quad_error, the Richardson estimate |u_2m - u_m| / (15 (1 +
    |u_2m|)) of the last doubling (inf when none ran), the roundoff_error,
    kernel_method, fft_block (the block length of an FFT pass, else None)
    and kernel_len of the last pass, its lattice_factors (m_k per axis) and
    lattice_factor (the largest), converged (quad_error <= _QUAD_TOL) and
    refine_history, one [lattice_factor, estimate] per pass (estimate None
    for the first).
    """
    def nodes(ms):
        return math.prod(m * c + 1 for m, c in zip(ms, cells))

    if nodes(ms) > _MAX_LATTICE_NODES:
        raise _BudgetError(f"the first lattice (factor {'x'.join(map(str, ms))}) has "
                          f"{nodes(ms)} nodes, above the budget of {_MAX_LATTICE_NODES}")
    u, est, history = None, np.inf, []
    while True:
        u_next, roundoff, method, block, taps = one_pass(ms)
        if not np.all(np.isfinite(u_next)):
            which = "first pass" if u is None else "pass"
            raise DomainError(f"datum must be bounded: the {which} at lattice factor "
                              f"{'x'.join(map(str, ms))} is not finite")
        if u is not None:
            est = float(np.max(np.abs(u_next - u) / (1.0 + np.abs(u_next)))) / 15.0
        history.append([max(ms), None if u is None else est])
        u, doubled = u_next, tuple(2 * m for m in ms)
        if (est <= _QUAD_TOL or len(history) > max_refine
                or nodes(doubled) > _MAX_LATTICE_NODES):
            break
        ms = doubled
    return u, {"quad_error": est, "roundoff_error": roundoff,
               "kernel_method": method, "fft_block": block, "kernel_len": taps,
               "lattice_factor": max(ms), "lattice_factors": list(ms),
               "converged": est <= _QUAD_TOL, "refine_history": history}


# -- free-space evolution ----------------------------------------------------


def heat_evolve_free(phi, t, out_grid, *, eps_tail=1e-10, max_refine=_MAX_REFINE):
    """Evolve phi by the free-space heat semigroup to time t on out_grid.

    phi: GridFunction or InitialDatum (callable + growth certificate).
    out_grid: (lo, hi, h) for one axis or one such triple per axis; a t,
    grid axis, eps_tail or max_refine that numerics refuses raises
    DomainError, grid data of another dimension ValueError, grid data short
    of the quadrature window EvaluationWindowError, and 4*growth_A*t >= 1 -
    margin ExistenceWindowError.  One axis applies the kernel as one
    convolution (_kernel_apply), more axes its decimated matrix along each
    axis (_separable).  The window is truncated where the closed-form Gaussian
    tail bound of the growth certificate drops below eps_tail relative to
    the result's growth scale (_truncation_window); _refine doubles the
    Simpson lattice until _QUAD_TOL, max_refine doublings or its node
    budget, and _record builds value_error and meta from its record
    (truncation_radius R).

    The heat kernel is rotation invariant, so a ridge (an InitialDatum with
    a direction d) evolves as the 1D flow of its profile, read at xi = d . x.
    Where the output nodes fill one uniform line of xi (_ridge_line), that
    flow is taken once on the line, with the datum's own certificate, and
    gathered onto the grid; its value_error and growth certificate hold
    there, and meta adds ridge = {direction, line}, the line as (lo, hi, h).
    """
    check_time(t, "t")
    check_tolerance(eps_tail, "eps_tail")
    check_count(max_refine, "max_refine")
    grids = _axis_grids(out_grid)
    datum = _resolve_datum(phi, len(grids))  # a ridge of another dimension raises
    line = _ridge_line(phi, grids)
    if line is None:
        return _free_flow(datum, t, grids, eps_tail, max_refine)
    xi_grid, idx = line
    w = _free_flow(_resolve_datum(replace(phi, direction=None), 1), t, (xi_grid,),
                   eps_tail, max_refine)
    return replace(w, values=w.values[idx],
                   extent=tuple((lo, hi) for lo, hi, _ in grids),
                   meta={**w.meta, "ridge": {"direction": list(phi.direction),
                                             "line": list(xi_grid)}})


def _ridge_line(phi, grids):
    """The line that xi = d . x fills over the output nodes of a ridge, as
    (lo, hi, h), and an index that reads the output nodes from the line's
    values (in 1D a slice, the identity or its reverse, so the read is a
    view), or None (no ridge, or no uniform line).

    Where |d_k| H_k is one spacing c on every axis d crosses (within 1e-12
    relative; H_k the snapped output spacing), xi at node (i_0, i_1, ...)
    is lo + c j, j = offset + sum_k sign(d_k) i_k: a node of one line of
    sum (n_k - 1) cells over the crossed axes, from lo = sum_k d_k (lo_k if
    d_k > 0 else hi_k) to its mirror hi; offset = sum (n_k - 1) over d_k < 0.
    """
    d = phi.direction if isinstance(phi, InitialDatum) else None
    if d is None:
        return None
    ns, Hs = _grid_size(grids)
    cs = [abs(dk) * H for dk, H in zip(d, Hs) if dk]
    if max(cs) - min(cs) > 1e-12 * max(cs):
        return None
    lo = sum(dk * (g_lo if dk > 0 else g_hi) for dk, (g_lo, g_hi, _) in zip(d, grids) if dk)
    hi = sum(dk * (g_hi if dk > 0 else g_lo) for dk, (g_lo, g_hi, _) in zip(d, grids) if dk)
    steps = [int(np.sign(dk)) for dk in d]
    cells = sum(n - 1 for s, n in zip(steps, ns) if s)
    if len(ns) == 1:
        return (lo, hi, (hi - lo) / cells), slice(None, None, steps[0])
    idx = (sum(n - 1 for s, n in zip(steps, ns) if s < 0)
           + sum(_open_mesh([s * np.arange(n) for s, n in zip(steps, ns)])))
    return (lo, hi, (hi - lo) / cells), idx


def _free_flow(datum, t, grids, eps_tail, max_refine):
    """heat_evolve_free of a datum as _resolve_datum returns it, on the
    per-axis grids."""
    dim = len(grids)
    sample, a, A, brk, phi_h, inherited = datum
    check_existence(A, t)

    ns, Hs = _grid_size(grids)
    x_max = max(max(abs(lo), abs(hi)) for lo, hi, _ in grids)
    shrink, gain, eps_abs, R = _truncation_window(a, A, t, x_max, dim, eps_tail)
    margins = [int(np.ceil(R / H)) for H in Hs]
    long_blocks = True  # False once a pass refused long FFT blocks

    def one_pass(ms):
        nonlocal long_blocks
        axes, kerns, edges = [], [], []
        for (lo, _, _), H, n, b, c, m in zip(grids, Hs, ns, brk, margins, ms):
            h = H / m
            p = c * m
            y = lo - p * h + h * np.arange(2 * p + (n - 1) * m + 1)
            axes.append(y)
            edges.append(_snap_edges(y[0], h, y.size, b))
            kerns.append(gauss_kernel(h * np.arange(-p, p + 1), t))
        taps = [k.size for k in kerns]
        if dim == 1:
            m, = ms
            psi = _piece_weighted_values(sample, axes[0], edges[0], Hs[0] / m)
            u, roundoff, method, block = _kernel_apply(psi, m, kerns[0], _QUAD_TOL / 100.0,
                                                       long_blocks)
            long_blocks = taps[0] < _FFT_MIN_LEN or block == taps[0] // _LONG_BLOCK
            return u, roundoff, method, block, taps
        return (*_separable(
            sample, axes,
            [piecewise_simpson_weights(y, e) for y, e in zip(axes, edges)],
            [_kernel_matrix(y.size, m, n, k) for y, m, n, k in zip(axes, ms, ns, kerns)],
            (0.0,) * dim, ms), None, taps)

    u, rec = _refine(one_pass, _start_factor(Hs, t, phi_h), max_refine,
                     [2 * c + n - 1 for c, n in zip(margins, ns)])
    return GridFunction(values=u, extent=tuple((lo, hi) for lo, hi, _ in grids),
                        growth_a=gain, growth_A=A / shrink,
                        **_record(u, t, rec, eps_abs, float(R), inherited))


def _record(u, t, rec, tail_bound, radius, inherited):
    """value_error and meta of an evolution that reached u at time t with
    _refine's record rec: value_error is quad_error + roundoff_error +
    tail_bound / (1 + max|u|) + 1.5 inherited, meta holds t, rec,
    tail_bound, the truncation_radius (None on a box) and inherited_error."""
    umax = float(np.max(np.abs(u)))
    return {"value_error": (rec["quad_error"] + rec["roundoff_error"]
                            + tail_bound / (1.0 + umax) + 1.5 * inherited),
            "meta": {"t": t, **rec, "tail_bound": tail_bound,
                     "truncation_radius": radius, "inherited_error": inherited}}


# -- Dirichlet evolution -----------------------------------------------------


def _box_spectrum(L, t, M):
    """lambda_k = exp(-t (pi k / L)^2) / h, k = 0..M and h = L / M, the
    spectrum of the samples Theta(s h) of the 2L-periodic image sum
    Theta(x) = sum_k Gauss(x - 2kL, t), and a bound d_k on its rounding.

    By Poisson summation Theta(x) = sum_n exp(-t (pi n / L)^2)
    cos(pi n x / L) / (2L), so the DFT of 2M samples (one period) is lambda
    plus the aliased terms |n| >= M, each below exp(-t pi^2 / h^2) / h, so
    below exp(-64 pi^2) / h, because _start_factor keeps the spacing h_k
    of every axis k <= sqrt(t) / 8.
    The exponent is computed within 4 eps relative, exp and the division
    by h add one eps each, so |d lambda_k| <= d_k = eps (2 + 4 t (pi k /
    L)^2) lambda_k to first order.
    """
    k = np.arange(M + 1)
    expo = t * (np.pi * k / L) ** 2
    lam = np.exp(-expo) / (L / M)
    return lam, np.finfo(float).eps * (2.0 + 4.0 * expo) * lam


def _dirichlet_kernels(L, t, M):
    """Samples Theta(s h), s = -M..2M and h = L / M, of the image sum of
    _box_spectrum, from one inverse real FFT of its spectrum (one period),
    and a bound delta on their error: delta = eps log2(2M) |theta|_2, the
    normwise rounding bound of the FFT over one period.  The rectangle's
    matrices are built from these; the interval applies the spectrum
    itself (_box_apply).
    """
    theta = np.fft.irfft(_box_spectrum(L, t, M)[0], 2 * M)
    delta = np.finfo(float).eps * np.log2(2 * M) * float(np.linalg.norm(theta))
    return np.concatenate((theta[M:], theta, theta[:1])), delta


def _box_apply(psi, m, L, t):
    """The method of images on an interval of length L as one circular
    convolution; returns (u, roundoff, "spectral"), u at every m-th node.

    psi holds the weighted samples on the p + 1 lattice nodes from wall to
    wall, psi[0] = 0.  Their odd reflection and the image sum Theta both
    have period 2L = 2p h, so the Toeplitz sum of Theta over the reflected
    samples is a circular convolution of period N = 2p: with x the odd
    extension and lambda the spectrum (_box_spectrum), u = irfft(rfft(x)
    lambda, N).  The upper-wall sample, like the lower, cancels against its
    own image (x[p] and x[-p] are one node of the period), so x[p] = 0.

    Roundoff.  An FFT of length N is taken, as in _valid, to err by at
    most eps log2(N) times the 2-norm of its exact result, and each of its
    outputs, a tree of log2(N) rounded sums, by at most eps log2(N) times
    the sum of the magnitudes of its terms.  Norms are 2-norms over all N
    frequencies or nodes; theta = irfft(lambda, N), so |lambda| = sqrt(N)
    |theta| (Parseval), and X = rfft(x) has |X| = sqrt(N) |x|.  Every
    output is the sum (1 / N) sum_k lambda_k X_k w^qk, |w| = 1, and
    - the forward FFT errs by e, |e| <= eps log2(N) sqrt(N) |x|, which moves
      an output by |sum_k lambda_k e_k w^qk| / N <= |lambda| |e| / N
      = eps log2(N) |theta| |x| (Cauchy-Schwarz);
    - the products and the inverse FFT round within eps (1 + log2 N) of
      sum_k |lambda_k X_k| / N <= |theta| |x| (Cauchy-Schwarz);
    - lambda's own rounding d moves an output by at most
      sum_k d_k |X_k| / N <= |d| |x| / sqrt(N).
    So each output errs by at most
    eps (2 log2(N) + 1) |theta| |x| + |d| |x| / sqrt(N) to first order, one
    bound for all outputs, returned relative to 1 + min |u|.
    """
    p = psi.size - 1
    N = 2 * p
    x = np.concatenate((psi[:p], [0.0], -psi[p - 1:0:-1]))
    lam, d = _box_spectrum(L, t, p)
    u = np.fft.irfft(np.fft.rfft(x) * lam, N)[:p + 1:m]
    # 2-norms over all N frequencies: k and N - k coincide but for 0 and p
    c = np.full(p + 1, 2.0)
    c[0] = c[-1] = 1.0
    theta_2, d_2 = (float(np.sqrt(np.dot(c, v * v) / N)) for v in (lam, d))
    eps = np.finfo(float).eps
    bound = ((eps * (2.0 * np.log2(N) + 1.0) * theta_2 + d_2)
             * float(np.linalg.norm(x)))
    return u, float(bound / (1.0 + np.min(np.abs(u)))), "spectral"


# the half line's tail tolerance, tighter than free space's default eps_tail
_HALF_LINE_EPS_TAIL = 1e-12


def heat_evolve_dirichlet(phi, domain, t, out_grid):
    """Evolve phi holding the boundary at domain.ell, by the method of images.

    phi: GridFunction on the domain, or InitialDatum; out_grid: (lo, hi, h)
    per axis, from the lower wall (to the upper wall on a box).  Every
    domain evolves v0 = ell - phi and returns ell - v, its wall nodes ell
    exactly; an error relative to 1 + |v| is at most 1 + |ell| times as
    large relative to 1 + |ell - v|, so the inherited error (meta's
    inherited_error) and value_error are scaled by that.  The half line is
    the free flow (tail tolerance _HALF_LINE_EPS_TAIL) of sign(y) v0(|y|),
    of certificate (|ell| + a, A) and breakpoints 0 and +-b; a box is
    _box_flow's.  A t or grid axis numerics refuses, or a grid off the walls,
    raises DomainError, data of the wrong dimension ValueError, grid data
    short of the lattice EvaluationWindowError.  Refinement (at most
    _MAX_REFINE doublings) and meta are as in heat_evolve_free.
    """
    check_time(t, "t")
    if domain.kind not in ("half_line", "interval", "rectangle"):
        raise ValueError(f"unsupported domain kind {domain.kind!r} for Dirichlet flow")
    ell, scale = domain.ell, 1.0 + abs(domain.ell)
    sample, a, A, brk, phi_h, inherited = _resolve_datum(phi, domain.n)
    inherited *= scale  # v0's

    def v0(*axes):
        return ell - sample(*axes)

    grids = _axis_grids(out_grid)
    if len(grids) != domain.n or any(
            not abs(g - wall) <= 1e-12 for grid, walls in zip(grids, domain.bounds)
            for g, wall in zip(grid, walls) if wall < np.inf):
        raise DomainError(f"out_grid must span the {domain.kind} from its walls, "
                          f"one (lo, hi, h) per axis")
    if domain.kind == "half_line":
        def odd(y):
            return np.sign(y) * v0(np.abs(y)).reshape(np.shape(y))
        w = _free_flow((odd, abs(ell) + a, A, ((0.0, *brk[0], *(-b for b in brk[0])),),
                        phi_h, inherited), t, grids, _HALF_LINE_EPS_TAIL, _MAX_REFINE)
    else:
        w = _box_flow(v0, domain.bounds, brk, phi_h, inherited, t,
                      [h for *_, h in grids])
    vals = ell - w.values
    for k, (_, hi) in enumerate(domain.bounds):
        vals[(slice(None),) * k + ([0] if hi == np.inf else [0, -1],)] = ell
    # the half line's flow is certified, a box's result bounded by its values
    growth_a = (abs(ell) + w.growth_a if domain.kind == "half_line"
                else max(float(np.max(np.abs(vals))), 1e-300))
    return replace(w, values=vals, growth_a=growth_a, value_error=scale * w.value_error)


def _box_flow(v0, bounds, brk, phi_h, inherited, t, hs):
    """The flow of v0, zero on the walls, on the box `bounds` to time t at
    output spacings hs (its growth certificate left to the caller).  The
    weighted samples psi of v0 on a lattice from wall to wall are reflected
    oddly across the lower wall along each axis (the wall sample cancels
    against its own image: 0) and convolved with the periodic image sum,
    whose rounding joins roundoff_error (tail_bound 0, truncation_radius
    None): on the interval in one circular convolution with its closed-form
    spectrum (_box_apply, kernel_method "spectral", kernel_len the period),
    on more axes by the matrix of its samples (_dirichlet_kernels)."""
    ns, Hs = _grid_size([(lo, hi, h) for (lo, hi), h in zip(bounds, hs)])

    def one_pass(ms):
        # lattice nodes from wall to wall, and snapped piece edges
        axes = [lo + H / m * np.arange((n - 1) * m + 1)
                for (lo, _), H, n, m in zip(bounds, Hs, ns, ms)]
        edges = [_snap_edges(lo, H / m, y.size, b)
                 for (lo, _), H, m, y, b in zip(bounds, Hs, ms, axes, brk)]
        if len(bounds) == 1:
            psi = _piece_weighted_values(v0, axes[0], edges[0], Hs[0] / ms[0])
            psi[0] = 0.0
            (lo, hi), = bounds
            # one circular convolution of period 2 (psi.size - 1)
            return (*_box_apply(psi, ms[0], hi - lo, t), None, [2 * (psi.size - 1)])
        # per axis, the matrix of the image sum on odd data, reflected
        # across the whole box and folded onto the samples from the wall
        kerns, deltas = zip(*(_dirichlet_kernels(hi - lo, t, y.size - 1)
                              for y, (lo, hi) in zip(axes, bounds)))
        full = [_kernel_matrix(2 * y.size - 1, m, n, k)
                for y, m, n, k in zip(axes, ms, ns, kerns)]
        return (*_separable(
            v0, axes,
            [piecewise_simpson_weights(y, e) for y, e in zip(axes, edges)],
            [f[:, y.size - 1:] - f[:, y.size - 1::-1] for f, y in zip(full, axes)],
            deltas, (0,) * len(axes)), None, [k.size for k in kerns])

    u, rec = _refine(one_pass, _start_factor(Hs, t, phi_h), _MAX_REFINE, [n - 1 for n in ns])
    return GridFunction(values=u, extent=bounds, **_record(u, t, rec, 0.0, None, inherited))


# -- heat-evolved step function ----------------------------------------------


def hot_h(z):
    """Unit-time heat evolution of the unit step, (1 + erf(z/2)) / 2, as
    erfc(-z/2) / 2, which keeps its relative digits in the lower tail, where
    1 + erf(z/2) cancels.  There (z < -1) it is erfcx(x) exp(-x^2) / 2 at
    x = -z/2 with x^2 = s + e split exactly (Dekker), since erfc rounds x^2
    before its exponential and so loses about x^2 ulps."""
    from scipy.special import erfc, erfcx  # loaded at first use: a CLI start skips them

    x = np.multiply(np.asarray(z, dtype=float), -0.5)
    out = erfc(x, out=np.empty_like(x))
    tail = (x > 0.5) & (x < 27.0)  # beyond 27, erfc(x) < 1e-318
    if np.any(tail):
        x = x[tail]
        c = 134217729.0 * x  # 2^27 + 1: x = hi + lo, 26 bits each
        hi = c - (c - x)
        lo = x - hi
        s = x * x
        e = ((hi * hi - s) + 2.0 * hi * lo) + lo * lo
        out[tail] = erfcx(x) * np.exp(-s) * (1.0 - e)
    out *= 0.5
    return float(out) if out.ndim == 0 else out
