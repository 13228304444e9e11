"""Admissible convexity transforms and their heat-flow classification.

A transform F is a strictly increasing map of function values; a nonnegative
function f is F-convex when F o f is convex.  Whether the heat semigroup
preserves F-convexity is decided by properties of the inverse transform
f_F = F^{-1} on the image interval J_F: a bounded image makes the class
trivial, super-Gaussian growth of f_F kills all nontrivial evolving data, and
otherwise preservation is equivalent to convexity of the curvature profile
g = (log f_F')'.  This module builds the standard families, each admissible by
construction (its constructor refuses parameters that would not give a
strictly increasing, continuous F), each with its Gaussian order, f_F' and g
in closed form, and each stating the shape of g; classify reads only the
order, the shape and the image interval, and compare_strength the closed
forms.  Labels, which key every output, print each parameter by
numerics.param_text.

Extended-real conventions: endpoint values map to -inf/+inf (e.g. log 0 =
-inf, and a transform that blows up at a finite right endpoint evaluates to
+inf there).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .heatflow import gauss_kernel, hot_h
from .numerics import (DomainError, check_factor, check_positive, check_real, invert_monotone,
                       param_text)

__all__ = [
    "FTransform",
    "GSpec",
    "ClassReport",
    "StrengthComparison",
    "make_power_alpha",
    "make_affine",
    "make_exp",
    "make_hot",
    "make_neglog",
    "make_from_g",
    "scale_shift",
    "abs_kink_generator",
    "builtin_transforms",
    "default_j_window",
    "classify",
    "compare_strength",
]

_EPS = np.finfo(float).eps
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _as_float_array(x):
    return np.asarray(x, dtype=float)


def _scalar_like(out, template):
    out = np.asarray(out)
    if np.ndim(template) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class FTransform:
    """Immutable admissible transform with inverse and curvature access.

    Admissible by construction: each constructor validates its parameters
    (DomainError otherwise), so F is strictly increasing and continuous on
    its domain, with f_F' > 0 on J.

    The domain [lower_a, upper_ell] sets domain_kind: 'bounded_above' for a
    finite upper_ell (F(upper_ell) = inf), else 'whole_line' for lower_a =
    -inf, else 'half_line_nonneg' (values r >= lower_a >= 0).
    (j_lo, j_hi) bound the open image interval J of the domain interior;
    inverse/log_inverse/g are defined there.  All callables are vectorized,
    and f_F, f_F', log |f_F| and the curvature profile g = (log f_F')' are
    closed forms.  Each constructor states two facts about them:
    gaussian_order, the least A >= 0 making e^{-A z^2} |f_F| integrable over
    J (inf when none does), and g_shape, the shape of g on J: 'zero' (f_F
    affine), 'convex' (g convex and not 0) or 'not_convex'.
    """

    lower_a: float
    upper_ell: float
    j_lo: float
    j_hi: float
    label: str
    _eval: object
    _inverse: object
    _inverse_deriv: object
    _log_inverse: object
    gaussian_order: float
    g_shape: str
    _g_closed: object

    @property
    def domain_kind(self):
        return ("bounded_above" if math.isfinite(self.upper_ell)
                else "whole_line" if self.lower_a == -math.inf else "half_line_nonneg")

    # -- evaluation ---------------------------------------------------------

    def __call__(self, r):
        arr = _as_float_array(r)
        lo, hi = self.lower_a, self.upper_ell
        tol = 1e-12 * (1.0 + np.abs(arr))
        if np.any(arr < lo - tol) or np.any(arr > hi + tol):
            raise DomainError(
                f"{self.label}: value outside domain [{lo}, {hi}]")
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = self._eval(np.clip(arr, lo, hi))
        return _scalar_like(out, r)

    def inverse(self, z):
        arr = self._check_j(z)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = self._inverse(arr)
        return _scalar_like(out, z)

    def inverse_deriv(self, z):
        arr = self._check_j(z)
        with np.errstate(divide="ignore", over="ignore"):
            return _scalar_like(self._inverse_deriv(arr), z)

    def log_inverse(self, z):
        """log |f_F(z)|, stable where f_F itself would overflow."""
        arr = self._check_j(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            return _scalar_like(self._log_inverse(arr), z)

    def g(self, z):
        """Curvature profile (log f_F')' at z in J."""
        return _scalar_like(self._g_closed(self._check_j(z)), z)

    def _check_j(self, z):
        """z as floats; DomainError unless every entry that is not NaN lies
        in J.  fmin and fmax find the extremes and skip NaN, so a large array
        needs no boolean temporaries."""
        arr = _as_float_array(z)
        lo = hi = np.nan
        if arr.size:
            lo, hi = np.fmin.reduce(arr, axis=None), np.fmax.reduce(arr, axis=None)
        if lo <= self.j_lo or hi >= self.j_hi:
            raise DomainError(
                f"{self.label}: argument outside the image interval "
                f"({self.j_lo}, {self.j_hi})")
        return arr


@dataclass(frozen=True)
class GSpec:
    """Piecewise-linear convex curvature generator.

    points: ((z, g(z)), ...) sorted by z; the graph is linear between points
    and extends with left_slope/right_slope beyond the first/last point.
    Every point and both slopes must be finite, and the slopes
    non-decreasing left to right (convexity); DomainError otherwise.
    """

    points: tuple
    left_slope: float
    right_slope: float

    def __post_init__(self):
        for value in [v for p in self.points for v in p] + [self.left_slope, self.right_slope]:
            check_real(value, "a GSpec point or slope")
        zs = [p[0] for p in self.points]
        if not zs or sorted(zs) != zs or len(set(zs)) != len(zs):
            raise DomainError("GSpec needs distinct sorted breakpoints")
        slopes = self.slopes()
        if any(s2 < s1 - 1e-12 for s1, s2 in zip(slopes, slopes[1:])):
            raise DomainError("GSpec slopes must be non-decreasing (convexity)")

    def slopes(self):
        mids = [(g2 - g1) / (z2 - z1)
                for (z1, g1), (z2, g2) in zip(self.points, self.points[1:])]
        return [self.left_slope] + mids + [self.right_slope]

    def __call__(self, z):
        z_arr = _as_float_array(z)
        zs = np.array([p[0] for p in self.points])
        gs = np.array([p[1] for p in self.points])
        out = np.interp(z_arr, zs, gs)
        out = np.where(z_arr < zs[0], gs[0] + self.left_slope * (z_arr - zs[0]), out)
        out = np.where(z_arr > zs[-1], gs[-1] + self.right_slope * (z_arr - zs[-1]), out)
        return _scalar_like(out, z)

    def _pieces(self, base_z):
        """Knots (breakpoints, base_z and the zeros of g), G and g there, and the
        slope of g on each gap; gap i ends at knots[i], gaps 0 and -1 are tails.
        G(base_z) = 0 (trapezoid sums, exact on linear g); g keeps its sign per gap.
        DomainError for a zero of g at |z| >= 2^48 (a slope below about
        1e-300 puts one near 1e308, or past the doubles), where G overflows
        and the doubles are too coarse for any window, as for a zero of f."""
        zs, gs = (np.array(c, dtype=float) for c in zip(*self.points))
        slopes = np.array(self.slopes(), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            roots = np.r_[zs[:1], zs] - np.r_[gs[:1], gs] / slopes
        left, right = np.r_[-np.inf, zs], np.r_[zs, np.inf]
        far = (slopes != 0) & (np.abs(roots) >= 2.0 ** 48) & (roots >= left) & (roots <= right)
        if np.any(far):
            raise DomainError(f"GSpec: g vanishes at z = {roots[far][0]:.6g}, beyond "
                              "2^48: too far out to sample")
        inside = (roots > left) & (roots < right)
        knots = np.unique(np.r_[zs, float(base_z), roots[inside]])
        gap_slope = slopes[np.searchsorted(zs, np.r_[-np.inf, knots], side="right")]
        gk = self(knots)
        Gk = np.r_[0.0, np.cumsum(0.5 * (gk[1:] + gk[:-1]) * np.diff(knots))]
        return knots, Gk - Gk[np.searchsorted(knots, base_z)], gk, gap_slope

    def antiderivative_from(self, base_z):
        """Closed-form G with G(base_z) = 0, G' = g (piecewise quadratic)."""
        knots, Gk, gk, gap_slope = self._pieces(base_z)

        def G(z):
            z_arr = _as_float_array(z)
            i = np.searchsorted(knots, z_arr, side="right")
            k = np.maximum(i - 1, 0)
            d = z_arr - knots[k]
            return _scalar_like(Gk[k] + gk[k] * d + 0.5 * gap_slope[i] * d * d, z)
        return G


def abs_kink_generator(center=1.0, drop=1.0):
    """The tent generator g(z) = |z - center| - drop (a single convex kink)."""
    return GSpec(points=((float(center), -float(drop)),),
                 left_slope=-1.0, right_slope=1.0)


# -- constructors ------------------------------------------------------------


def make_power_alpha(alpha):
    """Power-family transform: (r^alpha - 1)/alpha on [0, inf); log r at 0.

    Gaussian order 0, except for -1 <= alpha < 0, where f_F blows up like
    (1 + alpha z)^(1/alpha) at the top of J, unintegrably: inf.
    """
    alpha = check_real(float(alpha), "alpha")
    if alpha == 0.0:
        return FTransform(
            lower_a=0.0, upper_ell=np.inf, j_lo=-np.inf, j_hi=np.inf,
            label="power[0]",
            _eval=lambda r: np.log(r),
            _inverse=np.exp,
            _inverse_deriv=np.exp,
            _log_inverse=lambda z: _as_float_array(z) + 0.0,
            gaussian_order=0.0,
            g_shape="convex",
            _g_closed=lambda z: np.ones_like(_as_float_array(z)),
        )
    j_lo = -1.0 / alpha if alpha > 0 else -np.inf
    j_hi = np.inf if alpha > 0 else -1.0 / alpha

    def ev(r):
        r = _as_float_array(r)
        with np.errstate(divide="ignore"):
            out = (np.power(r, alpha) - 1.0) / alpha
        if alpha < 0:
            out = np.where(r == 0.0, -np.inf, out)
        return out

    def inv(z):
        # (max(alpha z + 1, 0))^(1/alpha) in one buffer, the same operations
        z = _as_float_array(z)
        out = np.multiply(z, alpha, out=np.empty_like(z))
        out += 1.0
        np.maximum(out, 0.0, out=out)
        np.power(out, 1.0 / alpha, out=out)
        return out if out.ndim else out[()]

    return FTransform(
        lower_a=0.0, upper_ell=np.inf, j_lo=j_lo, j_hi=j_hi,
        label=f"power[{param_text(alpha)}]",
        _eval=ev,
        _inverse=inv,
        _inverse_deriv=lambda z: np.power(alpha * _as_float_array(z) + 1.0,
                                          1.0 / alpha - 1.0),
        _log_inverse=lambda z: np.log(alpha * _as_float_array(z) + 1.0) / alpha,
        gaussian_order=np.inf if -1.0 <= alpha < 0.0 else 0.0,
        # g'' = 2 alpha^2 (1 - alpha) / (alpha z + 1)^3, and alpha z + 1 > 0 on J
        g_shape="zero" if alpha == 1.0 else "convex" if alpha < 1.0 else "not_convex",
        _g_closed=lambda z: (1.0 - alpha) / (alpha * _as_float_array(z) + 1.0),
    )


def make_affine(A, B):
    """Whole-line affine transform A*r + B; DomainError unless A > 0 and B are finite."""
    A, B = check_positive(float(A), "A"), check_real(float(B), "B")
    return FTransform(
        lower_a=-np.inf, upper_ell=np.inf, j_lo=-np.inf, j_hi=np.inf,
        label=f"affine[{param_text(A, B)}]",
        _eval=lambda r: A * _as_float_array(r) + B,
        _inverse=lambda z: (_as_float_array(z) - B) / A,
        _inverse_deriv=lambda z: np.full_like(_as_float_array(z), 1.0 / A),
        _log_inverse=lambda z: np.log(np.abs(_as_float_array(z) - B)) - np.log(A),
        gaussian_order=0.0,
        g_shape="zero",
        _g_closed=lambda z: np.zeros_like(_as_float_array(z)),
    )


def make_exp():
    """Whole-line transform F(r) = e^r (inverse log; the standard non-affine probe)."""
    return FTransform(
        lower_a=-np.inf, upper_ell=np.inf, j_lo=0.0, j_hi=np.inf,
        label="exp",
        _eval=lambda r: np.exp(_as_float_array(r)),
        _inverse=lambda z: np.log(_as_float_array(z)),
        _inverse_deriv=lambda z: 1.0 / _as_float_array(z),
        _log_inverse=lambda z: np.log(np.abs(np.log(_as_float_array(z)))),
        gaussian_order=0.0,  # log z is integrable at the finite end 0 of J
        g_shape="not_convex",  # g'' = -2 / z^3 < 0 on J
        _g_closed=lambda z: -1.0 / _as_float_array(z),
    )


def make_hot(a):
    """Heat-step transform H_a(r) = H(r/a) on [0, a] (log r when a = inf).

    H is the inverse of the unit-time heat evolution of the unit step; its
    image is all of R, with H_a(0) = -inf and H_a(a) = +inf.  DomainError
    unless a > 0.
    """
    if not a > 0:
        raise DomainError("make_hot needs a > 0")
    if np.isinf(a):
        return make_power_alpha(0.0)
    a = float(a)

    def ev(r):
        from scipy.special import ndtri  # loaded at first use: a CLI start skips it

        return math.sqrt(2.0) * ndtri(_as_float_array(r) / a)

    def log_inv(z):
        from scipy.special import log_ndtr

        return np.log(a) + log_ndtr(_as_float_array(z) / np.sqrt(2.0))

    return FTransform(
        lower_a=0.0, upper_ell=a, j_lo=-np.inf, j_hi=np.inf,
        label=f"hot[{param_text(a)}]",
        _eval=ev,
        _inverse=lambda z: a * hot_h(_as_float_array(z)),
        _inverse_deriv=lambda z: a * gauss_kernel(_as_float_array(z), 1.0),
        _log_inverse=log_inv,
        gaussian_order=0.0,
        g_shape="convex",
        _g_closed=lambda z: -0.5 * _as_float_array(z),
    )


def make_neglog(a, ell):
    """Transform -log(ell - r) on [a, ell], +inf at ell (inverse ell - e^{-z}).

    DomainError unless ell is finite and a < ell; a may be -inf.
    """
    ell = check_real(float(ell), "ell")
    if not a < ell:
        raise DomainError(f"make_neglog needs a < ell, got a={a!r} ell={ell!r}")
    j_lo = -np.inf if np.isneginf(a) else -np.log(ell - a)

    def ev(r):
        r = _as_float_array(r)
        with np.errstate(divide="ignore"):
            return -np.log(ell - r)

    return FTransform(
        lower_a=float(a), upper_ell=ell, j_lo=j_lo, j_hi=np.inf,
        label=f"neglog[{param_text(a, ell)}]",
        _eval=ev,
        _inverse=lambda z: ell - np.exp(-_as_float_array(z)),
        _inverse_deriv=lambda z: np.exp(-_as_float_array(z)),
        _log_inverse=lambda z: np.log(np.abs(
            ell - np.exp(-_as_float_array(z)))),
        gaussian_order=0.0,
        g_shape="convex",
        _g_closed=lambda z: -np.ones_like(_as_float_array(z)),
    )


def scale_shift(F, A, B):
    """The transform A*F + B, which defines the same convexity class.

    Its inverse at z is f_F((z - B)/A), so its Gaussian order is that of F
    over A^2, its f_F' and g are F's over A, and g has F's shape.
    DomainError unless A > 0 and B are finite.
    """
    A, B = check_positive(float(A), "A"), check_real(float(B), "B")

    def pull(fn, post=lambda v: v):
        """z -> post(fn((z - B)/A))."""
        return lambda z: post(fn((_as_float_array(z) - B) / A))

    return FTransform(
        lower_a=F.lower_a, upper_ell=F.upper_ell,
        j_lo=A * F.j_lo + B if np.isfinite(F.j_lo) else F.j_lo,
        j_hi=A * F.j_hi + B if np.isfinite(F.j_hi) else F.j_hi,
        label=f"{param_text(A)}*{F.label}+{param_text(B)}",
        _eval=lambda r: A * np.asarray(F(r), dtype=float) + B,
        _inverse=pull(F._inverse),
        _inverse_deriv=pull(F._inverse_deriv, lambda v: v / A),
        _log_inverse=pull(F._log_inverse),
        gaussian_order=F.gaussian_order / (A * A),
        g_shape=F.g_shape,
        _g_closed=pull(F._g_closed, lambda v: v / A),
    )


def _log_piece(z, za, Ga, ga, s):
    """log |int_za^z exp(G)| where G'' = s and G' keeps one sign; Ga, ga at za.

    exp(G) Psi(G') is a primitive of +-exp(G): Psi(g) = 1/|g| for s = 0, else
    sqrt(2/|s|) psi(|g|/sqrt(2|s|)), psi Dawson's integral (s > 0) or sqrt(pi)/2
    erfcx (s < 0).  Where the exponent moves by less than 1 the primitives
    would cancel; a Gauss-Legendre rule is exact to roundoff there instead."""
    from scipy.special import dawsn, erfcx, logsumexp

    d = z - za
    u = np.multiply.outer(d, 0.5 * (1.0 + _GL_NODES))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # s d is 0 on a flat piece (G' constant) even at d = +-inf, not nan
        flat = s == 0
        rise = d * (ga + np.where(flat, 0.0, s * (0.5 * d)))  # G(z) - G(za), signed
        g_ends = np.abs(np.broadcast_arrays(ga, ga + np.where(flat, 0.0, s * d)))
        root = np.sqrt(2.0 * np.abs(s))
        psi = np.where(s > 0, dawsn(g_ends / root),
                       0.5 * math.sqrt(math.pi) * erfcx(g_ends / root))
        lp0, lp1 = np.where(s == 0, -np.log(g_ends), np.log(2.0 * psi / root))
        far = np.maximum(rise + lp1, lp0) + np.log(
            -np.expm1(-np.abs(rise + (lp1 - lp0))))
        q = np.asarray(ga)[..., None] * u + 0.5 * np.asarray(s)[..., None] * u * u
        near = np.log(0.5 * np.abs(d)) + logsumexp(q, axis=-1, b=_GL_WEIGHTS)
        return Ga + np.where(np.abs(ga * d) + np.abs(s) * d * d <= 1.0, near, far)


def _log_mass(g, base, side=0):
    """z -> log |int_a^z exp(G)| for G' = g, G(base) = 0, from the anchor a =
    base (side 0) or a = side * inf, where that tail's mass is finite.
    Anchored at base, z = +-inf gives the mass of a whole tail: nan or inf
    where that diverges.  The gap masses between knots accumulate outward
    from the anchor; z's own piece is added on top, and in the tail on the
    anchor's side it is integrated from z outward."""
    knots, Gk, gk, sg = g._pieces(base)
    ends = np.r_[-np.inf, knots, np.inf]
    # knot data indexed like ends, each outer knot repeated for the +-inf next to it
    kx, Gx, gx = (np.r_[a[:1], a, a[-1:]] for a in (knots, Gk, gk))
    # masses of the gaps between consecutive ends, the tails included
    gaps = _log_piece(np.r_[-np.inf, ends[2:]], kx[:-1], Gx[:-1], gx[:-1], sg)
    anchor = side * np.inf if side else base
    ia = int(np.searchsorted(ends, anchor))
    G = g.antiderivative_from(base)
    # log mass between the anchor and each end; past a divergent tail it is
    # nan or inf, an entry that no z reads
    with np.errstate(invalid="ignore"):
        cum = np.r_[np.logaddexp.accumulate(gaps[:ia][::-1])[::-1], -np.inf,
                    np.logaddexp.accumulate(gaps[ia:])]

    def log_int(z):
        z = _as_float_array(z)
        i = np.searchsorted(knots, z, side="right")
        e = np.where(z >= anchor, i, i + 1)  # the end of z's gap nearer the anchor
        piece = _log_piece(z, kx[e], Gx[e], gx[e], sg[i])
        if side:  # in the anchor's tail, z's piece runs from z out to the anchor
            piece = np.where(e == ia, _log_piece(anchor, z, G(z), g(z), sg[i]), piece)
        return np.logaddexp(cum[e], piece)

    return log_int


def _doubling_reach(h, z0, step):
    """z0 + step * 2**k for the least k >= 0 with h(z) <= 0; DomainError
    when that lies beyond the doubles."""
    while h(z0 + step) > 0:
        step *= 2.0
        if not math.isfinite(z0 + step):
            raise DomainError("make_from_g: f reaches a value too far out for the doubles")
    return z0 + step


def make_from_g(g, base_z, base_value, base_slope):
    """Reconstruct a transform whose curvature profile equals a given g.

    F = f^{-1} for f(z) = base_value + base_slope * int_{base_z}^{z} exp(G) with
    G' = g, in closed form to roundoff however far f grows (_log_mass).  J starts
    at the zero of f, or at -inf when the left mass of exp(G) cannot reach
    base_value/base_slope; there f tends to lower_a, which is 0 when the left
    mass reaches it to within rounding.  An unbounded f gives a half-line
    transform, of Gaussian order right_slope/2 (log f grows like
    right_slope z^2 / 2); a bounded one a bounded-above transform with
    upper_ell = sup f, which F maps to +inf, and order 0.  Above sup f / 2, F
    inverts log(sup f - f), the right tail's own mass, which keeps the
    digits that 1 - f / sup f would cancel.  The curvature profile is g
    itself: convex, as GSpec requires, and zero for the zero generator.
    The label names g's points and slopes and the base (base_z, base_value,
    base_slope), so distinct transforms read apart in every output.
    DomainError unless base_z, base_value >= 0 and base_slope > 0 are finite
    (g, a GSpec, checks its own numbers), and where f cannot be sampled in
    doubles: a sup f that overflows, or a zero of f at |z| >= 2^48.
    """
    check_real(base_z, "base_z")
    check_factor(base_value, "base_value")
    check_positive(base_slope, "base_slope")
    label = (f"from_g[points={''.join(f'({param_text(z, v)})' for z, v in g.points)},"
             f"slopes=({param_text(g.left_slope, g.right_slope)}),"
             f"base=({param_text(base_z, base_value, base_slope)})]")
    G = g.antiderivative_from(base_z)
    log_fprime = lambda z: math.log(base_slope) + G(z)
    log_int = _log_mass(g, float(base_z))
    with np.errstate(over="ignore", invalid="ignore"):
        log_tails = log_int([-np.inf, np.inf])
        left_mass, right_mass = np.nan_to_num(
            base_slope * np.exp(log_tails), nan=np.inf, posinf=np.inf)
    upper_ell = base_value + right_mass
    if np.isfinite(log_tails[1]) and np.isinf(upper_ell):
        raise DomainError("make_from_g: f is bounded, but sup f overflows a double")
    lower_a, j_lo, log_scale = base_value - left_mass, -np.inf, math.log(base_slope)
    if abs(lower_a) <= 4 * _EPS * base_value:
        lower_a = 0.0  # f tends to 0 with no zero: rounding must not place one
    if lower_a >= 0 and base_value > 0:
        log_value, log_left = math.log(base_value), _log_mass(g, float(base_z), -1)
        log_lower = math.log(lower_a) if lower_a > 0 else -np.inf
    else:  # f has a zero: measure from it, so f is a sum of positive masses
        f_below = lambda z: base_value - base_slope * np.exp(log_int(z))
        with np.errstate(over="ignore"):  # a mass that overflows lies past the zero
            j_lo = float(base_z) if base_value == 0 else invert_monotone(
                f_below, 0.0, _doubling_reach(f_below, base_z, -1.0), base_z,
                deriv=lambda z: np.exp(log_fprime(z)))
        if abs(j_lo) >= 2.0 ** 48:  # the doubles there are too coarse for any window
            raise DomainError(f"make_from_g: f vanishes at z = {j_lo:.6g}, too far out "
                              "to sample J")
        lower_a, log_value, base_z = 0.0, -np.inf, j_lo
        log_scale += float(G(j_lo))
        log_int = _log_mass(g, j_lo)
    bounded = np.isfinite(upper_ell)
    log_right = _log_mass(g, float(base_z), 1) if bounded else None

    def log_inv(z):
        mass = np.logaddexp(log_value, log_scale + log_int(z))
        if np.isfinite(j_lo):  # J starts at base_z
            return mass
        # below base_z, f is lower_a plus the left tail's mass up to z
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            below = np.logaddexp(log_lower, log_scale + log_left(z))
        return np.where(z >= base_z, mass, below)

    def neg_log_gap(z):  # -log(sup f - f(z)), increasing
        return -(log_scale + log_right(z))

    def solve(fn, t, deriv):
        """z with fn(z) = t, for fn increasing on J, bracketed from base_z."""
        lo = j_lo if np.isfinite(j_lo) else _doubling_reach(
            lambda z: fn(z) - t.min(), base_z, -1.0)
        hi = _doubling_reach(lambda z: t.max() - fn(z), base_z, 1.0)
        return invert_monotone(fn, t, lo, hi, deriv=deriv)

    def ev(r):
        r = _as_float_array(r)
        # NaN is neither above nor at lower_a, and stays NaN
        out = np.where(r > lower_a, np.inf, np.where(r <= lower_a, j_lo, np.nan))
        pos = (r > lower_a) & (r < upper_ell)
        top = pos & (r > 0.5 * upper_ell)  # where upper_ell - r is exact
        low = pos & ~top
        if np.any(low):
            out[low] = solve(log_inv, np.log(r[low]),
                             lambda z: np.exp(log_fprime(z) - log_inv(z)))
        if np.any(top):
            out[top] = solve(neg_log_gap, -np.log(upper_ell - r[top]),
                             lambda z: np.exp(log_fprime(z) + neg_log_gap(z)))
        return out

    return FTransform(
        lower_a=float(lower_a), upper_ell=float(upper_ell), j_lo=float(j_lo), j_hi=np.inf,
        label=label, _eval=ev, _log_inverse=log_inv,
        _inverse=lambda z: np.exp(log_inv(z)),
        _inverse_deriv=lambda z: np.exp(log_fprime(z)),
        gaussian_order=0.0 if bounded else 0.5 * float(g.right_slope),
        g_shape="zero" if g.left_slope == g.right_slope == 0 and not any(
            v for _, v in g.points) else "convex",
        _g_closed=g)


def builtin_transforms():
    """The named transforms exercised by the verification suites."""
    out = {}
    for alpha in (-1.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0):
        key = f"power_{alpha:g}"
        out[key] = make_power_alpha(alpha)
    out["hot_1"] = make_hot(1.0)
    out["neglog_0_1"] = make_neglog(0.0, 1.0)
    out["affine_3_2"] = make_affine(3.0, 2.0)
    out["exp"] = make_exp()
    out["from_g_kink"] = make_from_g(abs_kink_generator(), 0.0, 0.0, 1.0)
    return out


# -- classification -----------------------------------------------------------


@dataclass(frozen=True)
class ClassReport:
    """Preservation classification of one transform under the heat flow.

    verdict is preserved, not_preserved or only_trivially_preserved;
    limit_at_sup is the top of J; gaussian_order is nan where no rule read
    it (bounded values, bounded image), and gaussian_divergent says that it
    is inf; curvature_convex is None where no rule reached the curvature
    criterion.
    """

    label: str
    limit_at_sup: float
    gaussian_order: float          # least sufficient Gaussian weight order
    curvature_convex: object       # bool, or None when not evaluated
    verdict: str
    basis: str

    # the columns of the command line's classify.csv, in order
    FIELDS = ("label", "limit_at_sup", "gaussian_divergent", "gaussian_order",
              "curvature_convex", "verdict", "basis")

    @property
    def gaussian_divergent(self):
        return bool(self.gaussian_order == np.inf)


def _report(F, verdict, basis, **fields):
    """ClassReport of F; fields override the defaults."""
    row = dict(limit_at_sup=F.j_hi, gaussian_order=np.nan, curvature_convex=None)
    row.update(fields)
    return ClassReport(label=F.label, verdict=verdict, basis=basis, **row)


# domain kind -> (name in the rule bases, why a bounded image is trivial,
# basis of a passed curvature rule; the whole line uses the affine rule)
_RULES = {
    "half_line_nonneg": (
        "half line", "evolving data in the class are constant in shape",
        "curvature rule (half line): positive slope and convex curvature "
        "profile of the inverse"),
    "whole_line": (
        "whole line", "evolving data in the class are constant in shape", None),
    "bounded_above": (
        "bounded values", "transform must blow up at the right endpoint",
        "curvature rule (bounded values, constant-boundary flow): blow-up at "
        "the endpoint plus convex curvature"),
}
_G_SHAPES = ("zero", "convex", "not_convex")


def classify(F):
    """Route a transform through the preservation rules for its domain kind.

    F is admissible by construction, so the rules read only F.j_hi,
    F.gaussian_order and F.g_shape, which its constructor states; nothing
    is evaluated or sampled.  Half-line values: a bounded image is only
    trivially preserved; otherwise an infinite F.gaussian_order rules out
    nontrivial evolving data; otherwise preservation is equivalent to the
    curvature criterion, g convex.  Whole line: same gates, then (under
    integrability of the inverse) preserved exactly for affine transforms,
    which are those with g = 0.  Bounded-above values (Dirichlet setting):
    preserved iff the transform blows up at the right endpoint and g is
    convex.
    """
    if F.g_shape not in _G_SHAPES:
        raise DomainError(f"unknown curvature shape {F.g_shape!r}")
    where, trivial, curvature_basis = _RULES[F.domain_kind]

    if np.isfinite(F.j_hi):
        return _report(F, "only_trivially_preserved",
                       f"bounded-image rule ({where}): {trivial}")
    order = {}
    if F.domain_kind != "bounded_above":
        if np.isinf(F.gaussian_order):
            return _report(F, "only_trivially_preserved",
                           f"gaussian-divergence rule ({where}): no Gaussian weight "
                           "makes the inverse integrable over J, so no nontrivial "
                           "datum can evolve", gaussian_order=np.inf)
        order = {"gaussian_order": F.gaussian_order}
    found = dict(order, curvature_convex=F.g_shape != "not_convex")
    if F.domain_kind == "whole_line":
        if F.g_shape == "zero":
            return _report(F, "preserved", "affine rule (whole line): transform "
                           "is affine, the class is plain convexity", **found)
        return _report(F, "not_preserved", "affine-only rule (whole line): under "
                       "integrability of the inverse, only affine transforms "
                       "preserve", **found)
    if found["curvature_convex"]:
        return _report(F, "preserved", curvature_basis, **found)
    return _report(F, "not_preserved", f"curvature rule ({where}): criterion fails",
                   **found)


# -- strength comparison ------------------------------------------------------


@dataclass(frozen=True)
class StrengthComparison:
    relation: str                 # F1_weaker / F1_stronger / equivalent / neither
    worst_z: float                # where F1 o f_{F2} curves least, in F2's window


# relative roundoff of one closed-form value: four ulps, four times over for
# what a composition of closed forms compounds
_ROUNDOFF = 16 * _EPS


def default_j_window(F):
    """The working window inside the image interval J: 16 long, from 0.1
    inside a finite end of J, else centred on 0; squeezed between both ends
    when both are finite."""
    lo = F.j_lo + 0.1 if np.isfinite(F.j_lo) else -8.0
    hi = lo + 16.0
    if np.isfinite(F.j_hi):
        hi = F.j_hi - 0.1
        if not np.isfinite(F.j_lo):
            lo = hi - 16.0
    if not hi > lo:
        raise DomainError("image interval too narrow for the default window")
    return lo, hi


def _sign_test(F1, F2):
    """(convex, worst z) of h = F1 o f_{F2} at 257 points z of
    default_j_window(F2), read from the closed forms f_F' and g alone.

    h' = f_{F2}'(z) / f_{F1}'(h) > 0 and h'' = h' (g_{F2}(z) - g_{F1}(h) h'),
    so h is convex where the margin g_{F2}(z) - g_{F1}(h) h' is not
    negative.  A margin counts as negative only beyond its roundoff bound:
    _ROUNDOFF of both terms, plus the change of g_{F1}(h) h' when h moves by
    its own roundoff, dh = _ROUNDOFF (|h| + f_{F2}(z) / f_{F1}'(h)), whose
    second part is the roundoff of f_{F2}(z) carried through F1's slope.
    The worst z is that of the smallest margin.

    A point is judged where h lies inside J_{F1} (f_{F2} meeting an end of
    F1's values puts h at an end of J_{F1}) and its margin and bound are
    finite.  The composition is not convex where f_{F2} leaves F1's values
    (beyond 1e-9 relative), or where no point is judged.
    """
    z = np.linspace(*default_j_window(F2), 257)
    r = np.asarray(F2.inverse(z), dtype=float)
    lo, hi = F1.lower_a, F1.upper_ell
    slack = 1e-9 * (1.0 + np.abs(r))
    if np.any(r < lo - slack) or np.any(r > hi + slack):
        return False, np.nan
    inner = np.nextafter(F1.j_lo, np.inf), np.nextafter(F1.j_hi, -np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = np.asarray(F1(np.clip(r, lo, hi)), dtype=float)
        inside = (h > F1.j_lo) & (h < F1.j_hi)
        z, r, h = z[inside], r[inside], h[inside]
        dh = _ROUNDOFF * (np.abs(h) + np.abs(r) / F1.inverse_deriv(h))
        # g_{F1}(w) h' at w = h, h - dh and h + dh, h' = f_{F2}'(z) / f_{F1}'(w)
        w = np.clip(h + np.multiply.outer((0.0, -1.0, 1.0), dh), *inner)
        t, t_lo, t_hi = F1.g(w) * (F2.inverse_deriv(z) / F1.inverse_deriv(w))
        g2 = F2.g(z)
        margin = g2 - t
        bound = _ROUNDOFF * (np.abs(g2) + np.abs(t)) + np.maximum(
            np.abs(t_lo - t), np.abs(t_hi - t))
    judged = np.isfinite(margin) & np.isfinite(bound)
    if not judged.any():
        return False, np.nan
    margin, bound = margin[judged], bound[judged]
    return bool(np.all(margin >= -bound)), float(z[judged][np.argmin(margin)])


def compare_strength(F1, F2):
    """Order two transforms by containment of their convexity classes.

    F1_weaker means every F2-convex function is F1-convex: F1 o f_{F2} is
    convex (_sign_test); F1_stronger is the reverse; equivalent when both
    hold, so that F1 o f_{F2} is affine and F1 an affine positive
    rescaling of F2; neither when both fail.
    """
    c12, worst_z = _sign_test(F1, F2)
    c21, _ = _sign_test(F2, F1)
    relation = ("equivalent" if c12 and c21 else "F1_weaker" if c12
                else "F1_stronger" if c21 else "neither")
    return StrengthComparison(relation=relation, worst_z=worst_z)
