"""Heat-semigroup evolution on free space and on domains with Dirichlet data.

Data are represented on uniform grids with a certified Gaussian growth bound
|phi(x)| <= a * exp(A |x|^2); the bound controls both the existence window
(4 A t < 1) and the truncation radius of the free-space quadrature.

Every evolution is one operation: Simpson-weighted samples of the datum on a
lattice H/m (H the output spacing) are convolved with a sampled kernel and
read off at every m-th node.  Free space uses the Gaussian heat kernel.  The
Dirichlet domains reflect the samples instead of the kernel (the method of
images): along each axis the samples from the wall are extended oddly across
it and convolved with one kernel, the Gaussian on the half line and, on a box
(interval or rectangle), the periodic image sum, whose spectrum has a closed
form.  The interval multiplies by that spectrum in one FFT of the odd
period; the rectangle samples the sum per axis by one inverse FFT.  Other
long 1D convolutions run as blocked FFTs, short ones (and data whose bound
is too large) as direct sums, and every FFT carries a roundoff bound; 2D
data apply the decimated operator matrix of each axis, as two matrix
products.  One refinement loop doubles m until a
two-grid Richardson comparison meets the requested tolerance or the lattice
would pass a node budget, and the achieved estimate plus the roundoff bound
is recorded on the result so downstream certification can build honest
noise floors.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import next_fast_len
from scipy.interpolate import PchipInterpolator
from scipy.special import erf

from .numerics import DomainError, invert_monotone, piecewise_simpson_weights

__all__ = [
    "ExistenceWindowError",
    "EvaluationWindowError",
    "GridFunction",
    "DomainSpec",
    "InitialDatum",
    "grid_nodes",
    "gauss_kernel",
    "fit_growth_envelope",
    "maximal_time_hint",
    "heat_evolve_free",
    "heat_evolve_dirichlet",
    "hot_h",
    "hot_h_deriv",
    "hot_H",
    "epsilon_quadratic_lift",
    "lifted_evolution_identity",
]

EXISTENCE_MARGIN = 0.05

# rows per % operation of GridFunction.to_csv, so the strings built at once
# stay small on any grid
_CSV_ROWS = 4096


class ExistenceWindowError(ValueError):
    """Requested time is outside the guaranteed existence window 4*A*t < 1."""


class EvaluationWindowError(ValueError):
    """Grid-backed data do not cover the integration window."""


def grid_nodes(lo, hi, h):
    """Uniform nodes on [lo, hi] with spacing adjusted to fit exactly."""
    if not hi > lo:
        raise ValueError("empty grid extent")
    n = max(1, round((hi - lo) / h))
    return np.linspace(lo, hi, n + 1)


@dataclass
class GridFunction:
    """Sampled function on a uniform 1D or 2D grid with growth metadata.

    values: shape (n,) for dim 1 or (n1, n2) for dim 2, C-order with axis 0
    the first coordinate.  extent: ((lo, hi),) per axis.  The growth fields
    certify |phi| <= growth_a * exp(growth_A |x|^2) at every sampled node.
    value_error is the recorded max relative uncertainty |du|/(1+|u|) of the
    values (quadrature + roundoff + truncation for evolved data, 0 for exact
    data).
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
        self.extent = tuple((float(lo), float(hi)) for lo, hi in self.extent)
        if self.values.ndim != len(self.extent):
            raise ValueError("extent/values dimension mismatch")
        if self.values.ndim not in (1, 2):
            raise ValueError("only dim 1 or 2 supported")

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

    def growth_certified(self):
        """Check the declared growth bound at all sampled nodes."""
        bound = self.growth_a * np.exp(self.growth_A * self._radius_sq())
        return bool(np.all(np.abs(self.values) <= bound * (1 + 1e-12) + 1e-300))

    def _radius_sq(self):
        ax = self.axes()
        if self.dim == 1:
            return ax[0] ** 2
        return ax[0][:, None] ** 2 + ax[1][None, :] ** 2

    def interpolator(self):
        """Monotone-cubic interpolant (per axis for dim 2)."""
        ax = self.axes()
        if self.dim == 1:
            return PchipInterpolator(ax[0], self.values, extrapolate=False)
        raise ValueError("use interp_to_lattice for dim 2")

    def interp_to_lattice(self, ax0, ax1=None):
        """Values on a new lattice via successive monotone-cubic passes."""
        if self.dim == 1:
            return PchipInterpolator(self.axes()[0], self.values, extrapolate=False)(ax0)
        a0, a1 = self.axes()
        part = PchipInterpolator(a0, self.values, axis=0, extrapolate=False)(ax0)
        return PchipInterpolator(a1, part, axis=1, extrapolate=False)(ax1)

    # -- serialization ------------------------------------------------------

    def to_csv(self):
        """CSV rows coordinate(s), value; metadata in comment headers.

        Every float of a row is printed with %.17g, so the values read back
        exactly and equal data give equal bytes.  Rows run in C order (axis
        0 slowest); one % operation formats each block of _CSV_ROWS rows.
        """
        out = io.StringIO()
        out.write(f"# dim={self.dim}\n")
        for (lo, hi), n in zip(self.extent, self.values.shape):
            out.write(f"# axis lo={lo!r} hi={hi!r} n={n}\n")
        out.write(
            f"# growth_a={self.growth_a!r} growth_A={self.growth_A!r}"
            f" value_error={self.value_error!r}\n"
        )
        out.write("x,value\n" if self.dim == 1 else "x,y,value\n")
        cols = (*np.meshgrid(*self.axes(), indexing="ij"), self.values)
        table = np.stack([c.ravel() for c in cols], axis=1)
        row = ",".join(["%.17g"] * len(cols)) + "\n"
        for i in range(0, len(table), _CSV_ROWS):
            block = table[i:i + _CSV_ROWS]
            out.write(row * len(block) % tuple(block.ravel().tolist()))
        return out.getvalue()

    @classmethod
    def from_csv(cls, text):
        dim = None
        axes = []
        growth = {"growth_a": 1.0, "growth_A": 0.0, "value_error": 0.0}
        vals = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("x,"):
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("dim="):
                    dim = int(body[4:])
                elif body.startswith("axis"):
                    kv = dict(p.split("=") for p in body.split()[1:])
                    axes.append((float(kv["lo"]), float(kv["hi"]), int(kv["n"])))
                else:
                    # other comment lines (e.g. a caller's t=... stamp) are
                    # ignored except for the known growth keys
                    for part in body.split():
                        k, _, v = part.partition("=")
                        if k in growth:
                            growth[k] = float(v)
                continue
            vals.append(float(line.split(",")[-1]))
        shape = tuple(n for _, _, n in axes)
        values = np.asarray(vals).reshape(shape)
        return cls(
            values=values,
            extent=tuple((lo, hi) for lo, hi, _ in axes),
            **growth,
        )


@dataclass(frozen=True)
class DomainSpec:
    """Spatial domain: free space, half line, interval, or rectangle.

    ell is the boundary value held fixed by the Dirichlet evolution.
    """

    kind: str
    n: int = 1
    bounds: tuple = ()
    ell: float = 0.0

    @classmethod
    def free_space(cls, n=1):
        return cls(kind="free_space", n=n)

    @classmethod
    def half_line(cls, ell=0.0):
        return cls(kind="half_line", n=1, bounds=((0.0, np.inf),), ell=ell)

    @classmethod
    def interval(cls, a, b, ell=0.0):
        if not b > a:
            raise ValueError("need b > a")
        return cls(kind="interval", n=1, bounds=((float(a), float(b)),), ell=ell)

    @classmethod
    def rectangle(cls, bounds, ell=0.0):
        (a1, b1), (a2, b2) = bounds
        if not (b1 > a1 and b2 > a2):
            raise ValueError("degenerate rectangle")
        return cls(kind="rectangle", n=2,
                   bounds=((float(a1), float(b1)), (float(a2), float(b2))),
                   ell=ell)


@dataclass(frozen=True)
class InitialDatum:
    """Callable initial datum with growth certificate and known kink positions.

    breakpoints lists coordinates (along each axis for dim 2) where the datum
    is not smooth; the quadrature splits Simpson pieces there.  For data with
    jump discontinuities the integrand is sampled one-sidedly at piece edges,
    so indicators are integrated at full order.
    """

    fn: object
    growth_a: float = 1.0
    growth_A: float = 0.0
    breakpoints: tuple = ()
    label: str = ""
    value_error: float = 0.0

    def __call__(self, *xs):
        return self.fn(*xs)


def gauss_kernel(x, t, n=1):
    """Heat kernel (4 pi t)^(-n/2) exp(-|x|^2 / (4t)); x is distance."""
    x = np.asarray(x, dtype=float)
    if t <= 0:
        raise ValueError("t must be positive")
    return (4 * np.pi * t) ** (-n / 2) * np.exp(-(x * x) / (4 * t))


def fit_growth_envelope(fn, window, n_samples=801):
    """Certified Gaussian envelope (a, A) for fn on a symmetric 1D window.

    A is the least-squares slope of log|fn| against x^2 over the outer half of
    the window (clamped to >= 0); a is then the smallest constant making the
    bound hold at every sample.  The certificate is exact at the samples and
    assumed to extend beyond the window.
    """
    lo, hi = window
    x = np.linspace(lo, hi, n_samples)
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
    a = float(np.max(ratio[np.isfinite(ratio)])) * (1 + 1e-9)
    return max(a, 1e-300), A


def maximal_time_hint(growth_A):
    """Sufficient existence window 1/(4A) for growth exponent A (inf for A<=0).

    This quantifies when the convolution integral is guaranteed to converge;
    it is a sufficient bound, not the exact maximal existence time.  The
    evolution routines additionally refuse the last 5% of the window, where
    the integrand's Gaussian decay degenerates.
    """
    if growth_A <= 0:
        return np.inf
    return 1.0 / (4.0 * growth_A)


# -- evolution engine --------------------------------------------------------


def _resolve_datum(phi, dim):
    """Normalize a datum for a dim-`dim` evolution.

    Returns (sample, a, A, breakpoints, extent, spacing, inherited_error).
    sample(y) evaluates at points for dim 1, sample(ax0, ax1) on the lattice
    ax0 x ax1 for dim 2, as float arrays; grid data are interpolated by
    monotone cubics clamped to their extent.  breakpoints holds one tuple of
    kink coordinates per axis.  extent and spacing (the finest grid spacing)
    are None for callable data.
    """
    if isinstance(phi, GridFunction):
        if phi.dim != dim:
            raise ValueError(f"dim-{phi.dim} grid data for a dim-{dim} evolution")
        if dim == 1:
            interp = phi.interpolator()
            (lo, hi), = phi.extent

            def sample(y):
                return interp(np.clip(y, lo, hi))
        else:
            def sample(*ax):
                return phi.interp_to_lattice(
                    *(np.clip(c, lo, hi) for c, (lo, hi) in zip(ax, phi.extent)))
        return (sample, phi.growth_a, phi.growth_A, ((),) * dim, phi.extent,
                min(phi.spacing), phi.value_error)
    if isinstance(phi, InitialDatum):
        brk = tuple(phi.breakpoints)
        if dim == 1:
            brk = (brk,)

            def sample(y):
                return np.asarray(phi.fn(y), dtype=float)
        else:
            if not (brk and isinstance(brk[0], (tuple, list))):
                brk = (brk, brk)

            def sample(ax0, ax1):
                return np.asarray(phi.fn(ax0[:, None], ax1[None, :]), dtype=float)
        return (sample, phi.growth_a, phi.growth_A, brk, None, None,
                phi.value_error)
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
    gain = a * shrink ** -0.5 if dim == 1 else a / shrink  # a shrink^(-dim/2)
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
        if b_idx <= a_idx:
            continue
        if a_idx == 0 and b_idx == len(y) - 1:
            continue
        wp = np.zeros_like(w)
        wp[a_idx : b_idx + 1] = piecewise_simpson_weights(
            y[a_idx : b_idx + 1], [0, b_idx - a_idx]
        )
        if a_idx > 0:
            psi[a_idx] += wp[a_idx] * (float(fn(y[a_idx] + nudge)) - vals[a_idx])
        if b_idx < len(y) - 1:
            psi[b_idx] += wp[b_idx] * (float(fn(y[b_idx] - nudge)) - vals[b_idx])
    return psi


def _snap_edges(y0, h, n_nodes, points):
    """Lattice indices nearest to the given coordinates, deduplicated."""
    idx = {0, n_nodes - 1}
    for p in points:
        j = round((p - y0) / h)
        if 0 < j < n_nodes - 1:
            idx.add(int(j))
    return sorted(idx)


# shorter operand length from which the blocked FFT beats np.convolve
# (measured crossover on the reference machine: 2048 to 2560)
_FFT_MIN_LEN = 2304
# entries per batch of FFT segments, so work arrays stay small
_BATCH = 2 ** 17

# lattice nodes a refinement may not pass: 2**23 doubles are 64 MiB per array
_MAX_LATTICE_NODES = 2 ** 23


def _valid(f, g):
    """np.convolve(f, g, "valid") by overlap-save, with a roundoff bound.

    The outputs are cut into blocks of K // 8 (K the shorter length), whose
    segments go through batched real FFTs of length next_fast_len.  numpy's
    FFT keeps no plans between calls (scipy.fft caches 16, about 1 MB at
    these lengths), so a run's resident memory does not grow with it.  The
    second array bounds the error of each output by the normwise bound of
    its block, eps log2(nfft) |segment|_2 |g|_2: FFT roundoff is spread over
    the whole block, so short blocks keep it near the local data.
    """
    if f.size < g.size:
        f, g = g, f
    K = g.size
    n_out = f.size - K + 1
    B = max(1, K // 8)
    nb = -(-n_out // B)
    nfft = next_fast_len(B + K - 1, real=True)
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


def _kernel_apply(psi, m, kern, tol=np.inf):
    """The valid sums sum_j kern[q - j] psi[j] at every m-th output q.

    Free space and the half line both come here: the half line passes its
    samples already reflected (odd), so its images need no kernel of their
    own.  Returns (u, roundoff, method).  Long operands go
    through the blocked FFT, whose roundoff is max(bound / (1 + |u|)) over
    the outputs; where that exceeds tol, and for short operands, the sums
    are taken directly (roundoff 0: the pointwise rounding of direct sums is
    the reference).
    """
    if min(psi.size, kern.size) >= _FFT_MIN_LEN:
        u, bound = _valid(psi, kern)
        u = u[::m]
        roundoff = float(np.max(bound[::m] / (1.0 + np.abs(u))))
        if roundoff <= tol:
            return u, roundoff, "fft"
    return np.convolve(psi, kern, mode="valid")[::m], 0.0, "direct"


def _kernel_matrix(N, m, n, kern):
    """The n x N matrix of _kernel_apply on length-N data, already decimated:
    rows kern[q + s - j] (s = min(N, K) - 1, K = kern.size) for
    q = 0, m, ..., (n - 1) m, as a strided view of one reversed kernel.

    Row i is a window of the reversed kernel placed at z0 = s + (n - 1) m,
    starting (n - 1 - i) m nodes in.
    """
    z0 = min(N, kern.size) - 1 + (n - 1) * m
    lo = max(0, z0 - kern.size + 1)
    rev = np.zeros((n - 1) * m + N)
    rev[lo:z0 + 1] = kern[z0 - lo::-1]
    return sliding_window_view(rev, N)[(n - 1) * m::-m]


def _separable(vals, w0, w1, mat0, mat1, kern_err=(0.0, 0.0)):
    """Tensor quadrature (mat0 w0) vals (mat1 w1)^T of lattice values, with
    its roundoff relative to direct sums.

    Each product rounds within gamma_N |A| |B|; with Cauchy-Schwarz the
    error of output (i, j) stays below gamma |A_i|_2 (|B| c)_j, A and B the
    weighted matrices and c the column norms of vals.  The factor 2 in gamma
    covers the direct sums this replaces.  kern_err bounds, per axis, the
    error delta of each kernel sample; a row of a folded Dirichlet matrix
    is the difference of two kernel windows, so a row of A errs by at most
    d_0 = 2 delta_0 max|w0| in 2-norm, one of B by d_1, which adds
    d_0 (|B| c)_j + d_1 |A_i|_2 |c|_2 to first order.
    """
    a0, a1 = mat0 * w0, mat1 * w1
    u = (a0 @ vals) @ a1.T
    gamma = 2.0 * np.finfo(float).eps * sum(vals.shape)
    d0, d1 = (2.0 * d * float(np.max(np.abs(w))) for d, w in zip(kern_err, (w0, w1)))
    c = np.sqrt(np.einsum("ij,ij->j", vals, vals))
    cols, rows = np.abs(a1) @ c, np.linalg.norm(a0, axis=1)
    bound = (gamma * np.outer(rows, cols) + d0 * cols
             + (d1 * float(np.linalg.norm(c))) * rows[:, None])
    return u, float(np.max(bound / (1.0 + np.abs(u)))), "matrix"


def _start_factor(spacings, t, datum_h):
    """First lattice factor m: H/m resolves the output grid, sqrt(t)/8 and
    the spacing of grid data."""
    h_target = min(*spacings, np.sqrt(t) / 8.0, *([datum_h] if datum_h else []))
    return max(1, int(np.ceil(max(spacings) / h_target - 1e-12)))


def _refine(one_pass, m, quad_tol, max_refine, cells):
    """Double m until two passes agree to quad_tol; returns (values, record).

    one_pass(m) returns (values, roundoff, kernel_method).  A lattice has
    c m + 1 nodes along an axis of c cells at m = 1 (cells lists c per
    axis); doubling stops before the lattice would pass _MAX_LATTICE_NODES,
    keeping the last finished pass.  The record holds quad_error, the
    Richardson estimate |u_2m - u_m| / (15 (1 + |u_2m|)) of the last doubling
    (inf when none ran), the roundoff_error and kernel_method of the last
    pass, lattice_factor and converged (quad_error <= quad_tol).
    """
    u, roundoff, method = one_pass(m)
    est = np.inf
    for _ in range(max_refine):
        if np.prod([2 * m * c + 1 for c in cells]) > _MAX_LATTICE_NODES:
            break
        m *= 2
        u_next, roundoff, method = one_pass(m)
        est = float(np.max(np.abs(u_next - u) / (1.0 + np.abs(u_next)))) / 15.0
        u = u_next
        if est <= quad_tol:
            break
    return u, {"quad_error": est, "roundoff_error": roundoff,
               "kernel_method": method, "lattice_factor": m,
               "converged": est <= quad_tol}


def _check_window(axes, extent):
    """EvaluationWindowError unless grid data cover every lattice axis."""
    for y, (lo, hi) in zip(axes, extent):
        if y[0] < lo - 1e-9 * (1 + abs(lo)) or y[-1] > hi + 1e-9 * (1 + abs(hi)):
            raise EvaluationWindowError(
                f"datum known on {(lo, hi)} but integration window is "
                f"[{y[0]}, {y[-1]}]")


# -- free-space evolution ----------------------------------------------------


def heat_evolve_free(phi, t, out_grid, *, eps_tail=1e-10, quad_tol=1e-9,
                     max_refine=6):
    """Evolve phi by the free-space heat semigroup to time t on out_grid.

    phi: GridFunction or InitialDatum (callable + growth certificate).
    out_grid: (lo, hi, h) for dim 1 or a pair of such triples for dim 2;
    grid data of the other dimension raise ValueError.
    Raises ExistenceWindowError unless 4*growth_A*t < 1 - margin.  The
    quadrature window is truncated where the closed-form Gaussian tail bound
    (from the growth certificate) drops below eps_tail relative to the growth
    scale of the result; composite Simpson quadrature is refined by doubling
    until two-grid Richardson agreement reaches quad_tol (relative), or until
    the next lattice would pass _MAX_LATTICE_NODES nodes.  The achieved
    estimate plus the kernel operator's roundoff bound is recorded in
    value_error; meta says how it was reached (quad_error, roundoff_error,
    kernel_method, lattice_factor, converged, tail_bound, inherited_error).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    dim = 2 if isinstance(out_grid[0], (tuple, list)) else 1
    sample, a, A, brk, extent, phi_h, inherited = _resolve_datum(phi, dim)
    if 4.0 * A * t >= 1.0 - EXISTENCE_MARGIN:
        admitted = (1.0 - EXISTENCE_MARGIN) / (4.0 * A) if A > 0 else np.inf
        raise ExistenceWindowError(
            f"4*A*t = {4 * A * t:.4g} exceeds the margin; largest admitted "
            f"time for growth exponent {A:.6g} is {admitted:.6g}")

    grids = (out_grid,) if dim == 1 else tuple(out_grid)
    ns = [grid_nodes(lo, hi, h).size for lo, hi, h in grids]
    Hs = [(hi - lo) / (n - 1) for (lo, hi, _), n in zip(grids, ns)]
    x_max = max(max(abs(lo), abs(hi)) for lo, hi, _ in grids)
    shrink, gain, eps_abs, R = _truncation_window(a, A, t, x_max, dim, eps_tail)
    margins = [int(np.ceil(R / H)) for H in Hs]

    def one_pass(m):
        axes, kerns, edges = [], [], []
        for (lo, _, _), H, n, b, c in zip(grids, Hs, ns, brk, margins):
            h = H / m
            p = c * m
            y = lo - p * h + h * np.arange(2 * p + (n - 1) * m + 1)
            axes.append(y)
            edges.append(_snap_edges(y[0], h, y.size, b))
            kerns.append(gauss_kernel(h * np.arange(-p, p + 1), t))
        if extent is not None:
            _check_window(axes, extent)
        if dim == 1:
            psi = _piece_weighted_values(sample, axes[0], edges[0], Hs[0] / m)
            return _kernel_apply(psi, m, kerns[0], tol=quad_tol / 100.0)
        w0, w1 = (piecewise_simpson_weights(y, e) for y, e in zip(axes, edges))
        return _separable(sample(*axes), w0, w1, *(
            _kernel_matrix(y.size, m, n, k) for y, n, k in zip(axes, ns, kerns)))

    u, rec = _refine(one_pass, _start_factor(Hs, t, phi_h), quad_tol,
                     max_refine, [2 * c + n - 1 for c, n in zip(margins, ns)])
    umax = float(np.max(np.abs(u)))
    return GridFunction(
        values=u,
        extent=tuple((lo, hi) for lo, hi, _ in grids),
        growth_a=gain,
        growth_A=A / shrink,
        value_error=(rec["quad_error"] + rec["roundoff_error"]
                     + eps_abs / (1.0 + umax) + 1.5 * inherited),
        meta={"t": t, **rec, "tail_bound": eps_abs,
              "inherited_error": inherited},
    )


# -- Dirichlet evolution -----------------------------------------------------


def _box_spectrum(L, t, M):
    """lambda_k = exp(-t (pi k / L)^2) / h, k = 0..M and h = L / M, the
    spectrum of the samples Theta(s h) of the 2L-periodic image sum
    Theta(x) = sum_k Gauss(x - 2kL, t), and a bound d_k on its rounding.

    By Poisson summation Theta(x) = sum_n exp(-t (pi n / L)^2)
    cos(pi n x / L) / (2L), so the DFT of 2M samples (one period) is lambda
    plus the aliased terms |n| >= M, each below exp(-t pi^2 / h^2) / h, so
    below exp(-64 pi^2) / h, because _start_factor keeps h <= sqrt(t) / 8.
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


def heat_evolve_dirichlet(phi, domain, t, out_grid=None, *, quad_tol=1e-9,
                          eps_tail=1e-12, max_refine=6):
    """Evolve phi holding the boundary at domain.ell, by the method of images.

    phi: GridFunction on the domain, or InitialDatum.  The complement
    v0 = ell - phi has zero boundary data.  Along each axis its weighted
    samples psi, taken on a lattice from the lower wall, are reflected
    oddly across that wall (psi[-j] = -psi[j]; the wall sample, which
    cancels against its own image, is 0) and convolved with one kernel: on
    the half line the Gaussian, cut where its tail drops below eps_tail
    (tail_bound); on a box the periodic image sum, whose rounding joins
    roundoff_error (tail_bound 0).  The interval applies that sum as one
    circular convolution with its closed-form spectrum (_box_apply,
    kernel_method "spectral"), the rectangle as two matrix products of
    its samples (_dirichlet_kernels).  out_grid is (lo, hi, h) per axis,
    from the lower wall to the upper wall where that is finite; grid data
    on a box may leave it None.  Data of the wrong dimension raise
    ValueError, data unbounded on the domain DomainError.  Boundary nodes
    of the result are exact.  Refinement, the node budget and meta are as
    in heat_evolve_free.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if domain.kind not in ("half_line", "interval", "rectangle"):
        raise ValueError(f"unsupported domain kind {domain.kind!r} for Dirichlet flow")
    dim = domain.n
    sample, _, _, brk, _, phi_h, inherited = _resolve_datum(phi, dim)
    ell = domain.ell

    def u0(*ax):
        return ell - sample(*ax)

    if out_grid is None:
        if domain.kind == "half_line" or not isinstance(phi, GridFunction):
            raise ValueError("out_grid required on the half line and for callable data")
        ns, extent = phi.values.shape, domain.bounds
    else:
        grids = (out_grid,) if dim == 1 else tuple(out_grid)
        for (lo, hi, _), (a, b) in zip(grids, domain.bounds):
            if abs(lo - a) > 1e-12 or (np.isfinite(b) and abs(hi - b) > 1e-12):
                raise ValueError(f"out_grid must span the {domain.kind}, from "
                                 "its lower wall to its upper wall if finite")
        ns = tuple(grid_nodes(*g).size for g in grids)
        extent = tuple((a, b if np.isfinite(b) else g[1])
                       for g, (a, b) in zip(grids, domain.bounds))
    Hs = tuple((hi - lo) / (n - 1) for (lo, hi), n in zip(extent, ns))
    walls = tuple(b for _, b in domain.bounds)
    # a monotone-cubic interpolant stays within its data, so grid data are
    # probed at their nodes, callables on 257 nodes per axis (on the half
    # line out to 8 sqrt(t) beyond the last output)
    probe = np.abs(ell - phi.values if isinstance(phi, GridFunction) else u0(*(
        np.linspace(lo, hi if np.isfinite(b) else hi + 8 * np.sqrt(t), 257)
        for (lo, hi), b in zip(extent, walls))))
    if not np.all(np.isfinite(probe)):
        raise DomainError("datum must be bounded on the domain")
    if domain.kind == "half_line":
        R = (2.0 * np.sqrt(t * np.log(max(float(np.max(probe)), 1.0) / eps_tail))
             + 4 * np.sqrt(t))
        # the lattice runs ceil(R / H) cells beyond the last output
        margin, tail = int(np.ceil(R / Hs[0])), eps_tail
    else:
        margin, tail = 0, 0.0

    def lattice(m, lo, H, n, b):
        """Lattice nodes from the lower wall and snapped piece edges."""
        h = H / m
        y = lo + h * np.arange((n - 1 + margin) * m + 1)
        return y, _snap_edges(lo, h, y.size, b)

    def one_pass(m):
        axes, edges = zip(*(lattice(m, lo, H, n, b)
                            for (lo, _), H, n, b in zip(extent, Hs, ns, brk)))
        if dim == 2:
            # the matrix of the image sum on odd data, reflected across the
            # whole box and folded onto the samples from the wall
            kerns, deltas = zip(*(_dirichlet_kernels(hi - lo, t, y.size - 1)
                                  for y, (lo, hi) in zip(axes, extent)))
            w0, w1 = (piecewise_simpson_weights(y, e) for y, e in zip(axes, edges))
            full = [_kernel_matrix(2 * y.size - 1, m, n, k)
                    for y, n, k in zip(axes, ns, kerns)]
            return _separable(u0(*axes), w0, w1, *(
                f[:, y.size - 1:] - f[:, y.size - 1::-1]
                for f, y in zip(full, axes)), deltas)
        psi = _piece_weighted_values(u0, axes[0], edges[0], Hs[0] / m)
        psi[0] = 0.0
        if domain.kind == "interval":
            (lo, hi), = extent
            return _box_apply(psi, m, hi - lo, t)
        # the Gaussian, reflected as far as it reaches
        p = margin * m
        kern = gauss_kernel(Hs[0] / m * np.arange(-p, p + 1), t)
        return _kernel_apply(np.concatenate((-psi[p:0:-1], psi)), m, kern,
                             tol=quad_tol / 100.0)

    u, rec = _refine(one_pass, _start_factor(Hs, t, phi_h), quad_tol,
                     max_refine, [n - 1 + margin for n in ns])
    vals = ell - u
    for k, b in enumerate(walls):
        for e in ((0,) if np.isinf(b) else (0, -1)):
            vals[(slice(None),) * k + (e,)] = ell
    bound = float(np.max(np.abs(vals)))
    return GridFunction(values=vals, extent=extent,
                        growth_a=max(bound, 1e-300), growth_A=0.0,
                        value_error=(rec["quad_error"] + rec["roundoff_error"]
                                     + tail + 1.5 * inherited),
                        meta={"t": t, **rec, "tail_bound": tail,
                              "inherited_error": inherited})


# -- heat-evolved step function and its inverse ------------------------------


def hot_h(z):
    """Unit-time heat evolution of the unit step: (1 + erf(z/2)) / 2."""
    z = np.asarray(z, dtype=float)
    out = 0.5 * (1.0 + erf(0.5 * z))
    return float(out) if out.ndim == 0 else out


def hot_h_deriv(z):
    """Derivative of hot_h, the time-1 heat kernel."""
    return gauss_kernel(np.asarray(z, dtype=float), 1.0)


def hot_H(r):
    """Monotone inverse of hot_h on (0, 1), by bracketing bisection + Newton."""
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0) or np.any(r_arr >= 1.0):
        raise DomainError("hot_H needs arguments strictly inside (0, 1)")
    return invert_monotone(hot_h, r, -75.0, 75.0, deriv=hot_h_deriv)


# -- quadratic lift ----------------------------------------------------------


def epsilon_quadratic_lift(phi, eps, *, min_growth_A=1e-3):
    """Datum phi + eps |x|^2 with an updated growth certificate."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if isinstance(phi, GridFunction):
        r2 = phi._radius_sq()
        A = max(phi.growth_A, min_growth_A if eps > 0 else phi.growth_A)
        a = phi.growth_a + (eps / (np.e * A) if eps > 0 else 0.0)
        return replace(phi, values=phi.values + eps * r2, growth_a=a, growth_A=A)
    if isinstance(phi, InitialDatum):
        A = max(phi.growth_A, min_growth_A if eps > 0 else phi.growth_A)
        a = phi.growth_a + (eps / (np.e * A) if eps > 0 else 0.0)
        base = phi.fn

        def lifted(*xs):
            r2 = sum(np.asarray(c, dtype=float) ** 2 for c in xs)
            return base(*xs) + eps * r2

        return InitialDatum(fn=lifted, growth_a=a, growth_A=A,
                            breakpoints=phi.breakpoints,
                            label=(phi.label + "+lift") if phi.label else "lifted",
                            value_error=phi.value_error)
    raise TypeError("phi must be GridFunction or InitialDatum")


def lifted_evolution_identity(u, eps, t):
    """Exact evolution of the lift: u + eps (|x|^2 + 2 n t) on u's grid."""
    n = u.dim
    r2 = u._radius_sq()
    A = max(u.growth_A, 1e-3 if eps > 0 else u.growth_A)
    a = u.growth_a + (eps / (np.e * A) if eps > 0 else 0.0) + 2 * n * t * eps
    return replace(u, values=u.values + eps * (r2 + 2.0 * n * t),
                   growth_a=a, growth_A=A)
