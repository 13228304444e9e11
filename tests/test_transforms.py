"""Transform layer: construction, round trips, curvature, classification."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import erf

from heatconvex import (DomainError, FTransform, GSpec, GridFunction, abs_kink_generator,
                        builtin_transforms, check_F_convex, classify, compare_strength,
                        make_affine, make_exp, make_from_g, make_hot, make_neglog,
                        make_power_alpha, scale_shift)
from heatconvex.heatflow import gauss_kernel, hot_h
from heatconvex.transforms import default_j_window

BUILTINS = builtin_transforms()


def _closed_form(label, domain_kind, j_lo, ev, inv, dinv, log_inv, g, shape, order=0.0):
    """A test-local transform on values (-inf or 0, inf) from closed forms of
    F, f_F, f_F', log |f_F| and g, the shape of g and its Gaussian order."""
    lower = 0.0 if domain_kind == "half_line_nonneg" else -np.inf
    return FTransform(domain_kind=domain_kind, lower_a=lower, upper_ell=np.inf,
                      j_lo=j_lo, j_hi=np.inf, label=label, _eval=ev, _inverse=inv,
                      _inverse_deriv=dinv, _log_inverse=log_inv, gaussian_order=order,
                      g_shape=shape, _g_closed=g)


def _assert_preserved(F):
    """classify(F) reads preserved on a convex curvature profile, with no
    warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = classify(F)
    assert (rep.verdict, rep.curvature_convex) == ("preserved", True), rep.basis


# -- power family ------------------------------------------------------------


def test_power_zero_is_log():
    F = make_power_alpha(0.0)
    r = np.array([0.5, 1.0, np.e, 10.0])
    np.testing.assert_allclose(F(r), np.log(r), rtol=1e-14)
    np.testing.assert_allclose(F.inverse(np.log(r)), r, rtol=1e-13)


@pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.5, 1.0, 1.5, 2.0, 3.0])
def test_power_inverse_in_place_meets_the_closed_form(alpha):
    """One buffer, the same operations: equal to the closed form on arrays,
    0-d arrays and scalars, the clamp region alpha z + 1 <= 0 included,
    and the input is left as it was."""
    F = make_power_alpha(alpha)
    rng = np.random.default_rng(11)
    z = np.concatenate([rng.uniform(-4.0, 4.0, 200), [-1.0 / alpha, 0.0, -0.0, np.nan]])
    for arg in (z, z.reshape(17, 12), np.array(0.3), 0.3, -2.0 / alpha):
        before = np.array(arg, copy=True)
        with np.errstate(divide="ignore"):
            got = F._inverse(arg)
            want = np.power(np.maximum(alpha * np.asarray(arg, float) + 1.0, 0.0),
                            1.0 / alpha)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.asarray(arg), before, equal_nan=True)
        assert np.ndim(got) == np.ndim(arg)
    assert isinstance(F._inverse(0.3), float) and isinstance(F.inverse(0.3), float)


def _relative_ulps(got, exact, mp):
    """Largest |got - exact| / |exact| over the points, in units of 2^-52."""
    return max(float(abs((mp.mpf(float(g)) - e) / e)) for g, e in zip(got, exact)) / 2.0 ** -52


def test_hot_h_in_place_meets_the_closed_form():
    """hot_h is (1 + erf(z/2)) / 2 to a few ulps relative on [-40, 40] (40
    digits of mpmath); 1 + erf(z/2) read 0.0 at z = -12 for 1.08e-17 and
    erred by 1.5e-5 relative at z = -10.  z is left as it was."""
    mp = pytest.importorskip("mpmath")
    z = np.random.default_rng(12).uniform(-30.0, 30.0, (9, 11))
    before = z.copy()
    got = hot_h(z)
    assert np.array_equal(z, before)
    zs = np.r_[z.ravel(), np.linspace(-40.0, 40.0, 161), -12.0, -10.0]
    with mp.workdps(40):
        exact = [mp.erfc(-mp.mpf(float(v)) / 2) / 2 for v in zs]
        assert _relative_ulps(np.r_[got.ravel(), hot_h(zs[z.size:])], exact, mp) <= 4.0
    assert isinstance(hot_h(0.7), float) and hot_h(0.7) == float(hot_h(np.array([0.7]))[0])
    assert isinstance(hot_h(np.array(0.7)), float)


def test_hot_H_meets_the_inverse_normal_cdf():
    """H, the F of make_hot(1), is sqrt(2) Phi^-1(r) to a few ulps relative
    for r from 1e-300 to 1 - 2^-53 (Phi solved at 40 digits); bisecting
    against an erf-based hot_h gave -11.84 at r = 1e-20 for -13.10."""
    H = make_hot(1.0)
    mp = pytest.importorskip("mpmath")
    r = np.r_[np.geomspace(1e-300, 0.4, 61), 0.45, 0.5 - 2.0 ** -54, 0.5 + 2.0 ** -53, 0.55,
              1.0 - np.geomspace(0.4, 2.0 ** -53, 31)]

    def oracle(v):
        tail = min(v, 1.0 - v)  # exact in doubles
        x0 = float(H(tail)) / math.sqrt(2.0)
        x = mp.findroot(lambda x: mp.log(mp.ncdf(x)) - mp.log(tail), x0)
        return mp.sqrt(2) * (x if v < 0.5 else -x)

    with mp.workdps(40):
        exact = [oracle(float(v)) for v in r]
        assert _relative_ulps(H(r), exact, mp) <= 4.0
    assert H(0.5) == 0.0 and isinstance(H(0.5), float)


def test_hot_transform_keeps_both_tails():
    """F of hot_1 is sqrt(2) Phi^-1 itself: it once returned 0.0 for
    F.inverse(-13.1) and so -inf after the round trip, and erred by 1.1e-6
    at r = 1e-12 and 1.8e-7 at r = 1 - 1e-10."""
    from scipy.special import ndtri
    F = make_hot(1.0)
    assert F(F.inverse(-13.1)) == pytest.approx(-13.1, rel=1e-14)
    r = np.array([1e-300, 1e-12, 0.3, 1.0 - 1e-10])
    np.testing.assert_array_equal(F(r), math.sqrt(2.0) * ndtri(r))
    assert (F(0.0), F(1.0)) == (-np.inf, np.inf)
    assert F(np.array(0.25)) == make_hot(2.0)(0.5)


def test_image_interval_check_keeps_its_nan_rules():
    """NaN entries pass; one value outside J fails the array whatever NaN it
    holds; an endpoint at infinity is open, so +-inf there fails too."""
    F = make_power_alpha(2.0)  # J = (-1/2, inf)
    for bad in ([np.nan, -0.7, 0.1], [[0.1, np.nan], [np.nan, -0.5]], [np.nan, np.inf],
                np.inf, -np.inf):
        with pytest.raises(DomainError):
            F.inverse(np.array(bad))
    assert np.all(np.isnan(F.inverse(np.full((2, 3), np.nan))))
    assert F.inverse(np.array([])).shape == (0,)
    assert F.inverse(np.empty((0, 4))).shape == (0, 4)
    P0 = make_power_alpha(0.0)  # J = (-inf, inf)
    for end in (np.inf, -np.inf):
        with pytest.raises(DomainError):
            P0.inverse(np.array([0.0, end]))


def test_power_alpha_closed_form():
    F = make_power_alpha(2.0)
    r = np.linspace(0.1, 4.0, 17)
    np.testing.assert_allclose(F(r), (r ** 2 - 1) / 2, rtol=1e-14)


def test_power_image_interval_endpoints():
    assert make_power_alpha(1.0).j_lo == -1.0
    assert make_power_alpha(0.0).j_lo == -np.inf
    F = make_power_alpha(-1.0)
    # negative alpha: image bounded above by -1/alpha
    assert F.j_hi == pytest.approx(1.0)
    assert F.j_lo == -np.inf


def test_power_domain_rejected_outside():
    F = make_power_alpha(0.5)
    with pytest.raises(DomainError):
        F(-0.5)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(min_value=-2.0, max_value=3.0).filter(lambda a: abs(a) > 1e-3),
       st.floats(min_value=0.05, max_value=20.0))
def test_power_round_trip_property(alpha, r):
    F = make_power_alpha(alpha)
    z = F(r)
    if np.isfinite(z):
        assert abs(F.inverse(z) - r) <= 1e-9 * (1.0 + r)


def test_round_trip_error_all_builtins():
    rng = np.random.default_rng(11)
    for name, F in BUILTINS.items():
        lo, hi = default_j_window(F)
        z = rng.uniform(lo, hi, 100)
        err = float(np.max(np.abs(F(F.inverse(z)) - z)))
        assert err <= 1e-9, f"{name}: round trip error {err}"


# -- named transforms ----------------------------------------------------------


def test_hot_transform_matches_half_line_values():
    """H inverts h, and h is the step's unit-time evolution profile, whose
    derivative is the unit-time heat kernel."""
    z = np.linspace(-6.0, 6.0, 25)
    np.testing.assert_allclose(hot_h(z), 0.5 * (1.0 + erf(z / 2.0)),
                               atol=1e-15)
    r = hot_h(z)
    F = make_hot(1.0)
    np.testing.assert_allclose(F(r), z, atol=1e-9)
    np.testing.assert_allclose(F.inverse(z), r, atol=1e-13)
    np.testing.assert_array_equal(F.inverse_deriv(z), gauss_kernel(z, 1.0))


def test_labels_print_each_parameter_so_that_it_reads_back():
    """Every builtin label keeps its %g text; a parameter that %g would round
    prints as repr, so transforms that differ in the 7th digit label apart."""
    assert [F.label for F in BUILTINS.values()] == [
        "power[-1]", "power[0]", "power[0.25]", "power[0.5]", "power[1]", "power[1.5]",
        "power[2]", "hot[1]", "neglog[0,1]", "affine[3,2]", "exp",
        "from_g[points=(1,-1),slopes=(-1,1),base=(0,0,1)]"]
    fine = 1.0000001
    assert make_power_alpha(fine).label == "power[1.0000001]"
    assert make_affine(fine, 1.0 / 3.0).label == "affine[1.0000001,0.3333333333333333]"
    assert make_hot(fine).label == "hot[1.0000001]"
    assert make_neglog(-np.inf, fine).label == "neglog[-inf,1.0000001]"
    assert scale_shift(make_exp(), fine, -0.5).label == "1.0000001*exp+-0.5"
    assert make_from_g(abs_kink_generator(fine, 1.0), 0.0, 1.0, fine).label == (
        "from_g[points=(1.0000001,-1),slopes=(-1,1),base=(0,1,1.0000001)]")


def test_hot_infinite_a_degenerates_to_log():
    F = make_hot(np.inf)
    r = np.array([0.2, 1.0, 3.0])
    np.testing.assert_allclose(F(r), np.log(r), rtol=1e-13)


def test_neglog_blows_up_at_ell():
    F = make_neglog(0.0, 1.0)
    assert F.domain_kind == "bounded_above"
    vals = F(np.array([0.1, 0.5, 0.9, 0.99]))
    assert np.all(np.diff(vals) > 0)
    assert F(1.0 - 1e-12) > 20.0


def test_neglog_with_values_down_to_minus_infinity_classifies():
    """a = -inf: J is all of R below +inf.  A sampled admissibility probe
    once read linspace(nan, ...) here as 'not strictly increasing'."""
    F = make_neglog(-np.inf, 1.0)
    assert F.j_lo == -np.inf
    _assert_preserved(F)


def test_affine_and_scale_shift_roundtrip():
    F = make_affine(3.0, 2.0)
    r = np.linspace(-5, 5, 11)
    np.testing.assert_allclose(F(r), 3 * r + 2, rtol=1e-15)
    G = scale_shift(make_power_alpha(1.0), 2.0, -7.0)
    np.testing.assert_allclose(G(r[r >= 0]), 2 * (r[r >= 0] - 1) - 7,
                               rtol=1e-14)
    np.testing.assert_allclose(G.inverse(G(np.array([0.3, 2.0]))),
                               [0.3, 2.0], rtol=1e-12)


# -- curvature profiles --------------------------------------------------------


def _central_difference_g(F, z):
    """g as the central difference of log f_F' at steps h and 2h, with its
    error estimate: the h-versus-2h difference over 3, plus the rounding of
    log f_F' over h.  h is the power of two at or below 1e-5 max(1, |z|), so
    the points z +- h and z +- 2h are exact."""
    h = 2.0 ** np.floor(np.log2(1e-5 * np.maximum(1.0, np.abs(z))))
    log_fprime = lambda x: np.log(F.inverse_deriv(x))
    d1 = (log_fprime(z + h) - log_fprime(z - h)) / (2 * h)
    d2 = (log_fprime(z + 2 * h) - log_fprime(z - 2 * h)) / (4 * h)
    eps = np.finfo(float).eps
    return d1, np.abs(d1 - d2) / 3.0 + 4 * eps * (np.abs(log_fprime(z)) + 1.0) / h


_REBUILDS = {  # make_from_g arguments of transforms with a closed form
    "from_g_neglog": (GSpec(((0.0, -1.0),), 0.0, 0.0), 0.0, 0.0, 1.0),
    "from_g_hot": (GSpec(((0.0, 0.0),), -0.5, -0.5), 0.0, 0.5, float(gauss_kernel(0.0, 1.0))),
    "from_g_exp": (GSpec(((0.0, 1.0),), 0.0, 0.0), 0.0, 1.0, 1.0),
}


@pytest.mark.parametrize("name", [*BUILTINS, *_REBUILDS])
def test_stated_g_matches_a_central_difference(name):
    """Every constructor states g by hand; on the classifier's sample of
    default_j_window it must agree with an independent derivative of log f_F'
    to within that derivative's own error estimate."""
    F = BUILTINS[name] if name in BUILTINS else make_from_g(*_REBUILDS[name])
    z = np.linspace(*default_j_window(F), 257)
    g_fd, err = _central_difference_g(F, z)
    assert np.all(np.abs(F.g(z) - g_fd) <= err), name


def test_g_closed_forms():
    z = np.linspace(0.5, 6.0, 23)
    np.testing.assert_allclose(make_power_alpha(0.0).g(z),
                               np.ones_like(z), atol=1e-12)
    np.testing.assert_allclose(make_power_alpha(1.0).g(z),
                               np.zeros_like(z), atol=1e-12)
    np.testing.assert_allclose(make_exp().g(z), -1.0 / z, rtol=1e-10)
    np.testing.assert_allclose(make_hot(1.0).g(z), -z / 2.0, rtol=1e-10)
    np.testing.assert_allclose(make_neglog(0.0, 1.0).g(z),
                               -np.ones_like(z), atol=1e-10)


def test_g_of_power_general():
    alpha = 0.5
    F = make_power_alpha(alpha)
    z = np.linspace(-1.5, 8.0, 40)
    np.testing.assert_allclose(F.g(z), (1 - alpha) / (alpha * z + 1),
                               rtol=1e-11)


def _sampled_g_shape(F):
    """The shape of the closed-form g read from 257 samples of
    default_j_window(F): 'zero' where max |g| is within its roundoff,
    noise = 4 eps (1 + max |g|); else 'convex' where no central second
    difference, divided by the squared spacing, falls below 100 times the
    stencil noise 4 noise / spacing^2; else 'not_convex'."""
    z = np.linspace(*default_j_window(F), 257)
    g = F.g(z)
    noise = 4 * np.finfo(float).eps * (1.0 + np.max(np.abs(g)))
    if np.max(np.abs(g)) <= noise:
        return "zero"
    step2 = (z[1] - z[0]) ** 2
    d2 = (g[:-2] - 2.0 * g[1:-1] + g[2:]) / step2
    return "convex" if d2.min() >= -100.0 * 4.0 * noise / step2 else "not_convex"


_DEMO_TENTS = [  # the tent rows of demos/classify_sweep.py: (drop, base_z, base_value, center)
    (drop, base_z, base_value, c) for drop, base_z, base_value, centers in (
        (1.0, 0.0, 0.0, (1.0, 12.0, 40.0)), (20.0, 0.0, 1.0, (0.0, 1.0, 12.0)),
        (1.0, 50.0, 1.0, (-50.0, 0.0, 12.0))) for c in centers]
_SHAPED = {**{name: (lambda F=F: F) for name, F in BUILTINS.items()},
           **{f"power_{a:g}": (lambda a=a: make_power_alpha(a))
              for a in (-1.0, 0.0, 0.25, 0.5, 1.0, 1.25, 1.5, 2.0, 3.0)},
           **{f"tent_{d:g}_{bz:g}_{bv:g}_{c:g}": (
               lambda d=d, bz=bz, bv=bv, c=c: make_from_g(abs_kink_generator(c, d), bz, bv, 1.0))
              for d, bz, bv, c in _DEMO_TENTS},
           **{name: (lambda args=args: make_from_g(*args)) for name, args in _REBUILDS.items()},
           "from_g_zero": lambda: make_from_g(GSpec(((0.0, 0.0),), 0.0, 0.0), 0.0, 0.0, 1.0)}


@pytest.mark.parametrize("name", _SHAPED)
def test_stated_g_shape_matches_a_sampled_second_difference(name):
    """Each constructor states the shape of g; the sampled second
    differences of the closed-form g on default_j_window agree, for the
    transform and for its A*F + B, whose g is F's, moved and scaled."""
    F = _SHAPED[name]()
    for G in (F, scale_shift(F, 2.5, -1.0)):
        assert G.g_shape == _sampled_g_shape(G), G.label


def test_curvature_criterion_dichotomy():
    """g is convex exactly for alpha <= 1 in the power family: the stated
    shape says so, the sampled second differences agree, and the classifier
    reads it wherever a rule reaches the curvature criterion (power -1 has
    a bounded image, which decides first)."""
    for alpha in (-1.0, 0.0, 0.25, 0.5, 1.0, 1.25, 1.5, 2.0, 3.0):
        F = make_power_alpha(alpha)
        convex = alpha <= 1.0
        assert (F.g_shape != "not_convex") == (_sampled_g_shape(F) != "not_convex") == convex
        assert classify(F).curvature_convex is (None if alpha == -1.0 else convex), alpha


def test_classify_refuses_an_unknown_curvature_shape():
    import dataclasses

    with pytest.raises(DomainError, match="curvature shape"):
        classify(dataclasses.replace(make_power_alpha(0.5), g_shape="concave"))


# -- the generator-built transform ----------------------------------------------


def test_from_g_matches_quadrature_oracle():
    """f(1) for the kink generator has the closed form sqrt(pi/2) erf(1/sqrt 2).

    On (-inf, 1] the generator is g(s) = -s, so f'(s) = exp(-s^2/2) there and
    f(1) = integral_0^1 exp(-s^2/2) ds given f(0) = 0.
    """
    F = BUILTINS["from_g_kink"]
    oracle = float(np.sqrt(np.pi / 2.0) * erf(np.sqrt(0.5)))
    assert oracle == pytest.approx(0.8556243918921488, abs=1e-14)
    assert float(F.inverse(1.0)) == pytest.approx(oracle, abs=5e-12)


def test_from_g_recovers_generator():
    """The central difference of log f_F' is the tent generator, so the
    construction is checked rather than its g echoed."""
    F = BUILTINS["from_g_kink"]
    z = np.linspace(0.1, 3.0, 59)
    g_fd, _ = _central_difference_g(F, z)
    np.testing.assert_allclose(g_fd, np.abs(z - 1.0) - 1.0, atol=1e-5)


def test_from_g_round_trip_and_domain():
    F = BUILTINS["from_g_kink"]
    assert F.domain_kind == "half_line_nonneg"
    assert F.j_lo == pytest.approx(0.0, abs=1e-9)
    r = np.array([0.05, 0.3, 1.0, 4.0, 20.0])
    np.testing.assert_allclose(F.inverse(F(r)), r, rtol=1e-9)


def test_from_g_with_positive_base_value():
    g = abs_kink_generator()
    F = make_from_g(g, 0.0, 1.0, 1.0)
    assert float(F.inverse(0.0)) == pytest.approx(1.0, rel=1e-6)
    oracle = 1.0 + float(np.sqrt(np.pi / 2.0) * erf(np.sqrt(0.5)))
    assert float(F.inverse(1.0)) == pytest.approx(oracle, rel=1e-6)


def test_from_g_matches_mpmath_oracle():
    """f of the kink generator at 40 digits: f(z) = sqrt(pi/2) erf(z/sqrt 2)
    for z <= 1; beyond, g(s) = s - 2 and G(s) = (s - 2)^2/2 - 1 add
    e^-1 sqrt(pi/2) (erfi((z - 2)/sqrt 2) - erfi(-1/sqrt 2))."""
    mp = pytest.importorskip("mpmath")

    def kink_f(z):
        z, c, s2 = mp.mpf(float(z)), mp.sqrt(mp.pi / 2), mp.sqrt(2)
        if z <= 1:
            return c * mp.erf(z / s2)
        return c * (mp.erf(1 / s2) + mp.exp(-1) * (mp.erfi((z - 2) / s2)
                                                   - mp.erfi(-1 / s2)))

    F = BUILTINS["from_g_kink"]
    with mp.workdps(40):
        z = np.r_[np.geomspace(1e-6, 1.0, 25), np.linspace(1.0, 37.0, 145)[1:]]
        ref = np.array([float(kink_f(v)) for v in z])
        np.testing.assert_allclose(F.inverse(z), ref, rtol=1e-12, atol=0)
        z = np.r_[np.geomspace(1e-6, 1.0, 13), np.linspace(1.0, 79.0, 157)[1:]]
        ref = np.array([float(mp.log(kink_f(v))) for v in z])
        np.testing.assert_allclose(F.log_inverse(z), ref, rtol=1e-13, atol=0)
        oracle = 1.0 + float(kink_f(1.0))
    F1 = make_from_g(abs_kink_generator(), 0.0, 1.0, 1.0)
    assert abs(float(F1.inverse(1.0)) - oracle) <= 1e-13


@pytest.mark.parametrize("base_value", [0.0, 2.0])
def test_from_g_passes_nan_through(base_value):
    """NaN in, NaN out, as for every transform: the inverse once indexed
    past its table of masses, and F read NaN as the bottom of J, which made
    a NaN node of grid data a spurious violation."""
    F = make_from_g(abs_kink_generator(), 0.0, base_value, 1.0)
    z, r = np.array([np.nan, 1.0]), np.array([np.nan, base_value + 0.5])
    for out in (F.inverse(z), F.log_inverse(z), F(r)):
        assert np.isnan(out[0]) and np.isfinite(out[1])
    x = np.linspace(-1.0, 1.0, 41)
    v = F.inverse(1.0 + x * x)  # F-convex
    v[20] = np.nan
    cert = check_F_convex(GridFunction(values=v, extent=((-1.0, 1.0),)), F)
    assert cert.status == "no_violation_found" and cert.n_samples > 0


def test_from_g_round_trips_far_out():
    """Values far beyond any fixed table: f grows like exp(z^2/2)."""
    F = BUILTINS["from_g_kink"]
    r = np.array([1e-8, 0.3, 20.0, 1e6, 1e50, 1e300])
    np.testing.assert_allclose(F.inverse(F(r)), r, rtol=1e-12)


def test_from_g_left_end_at_minus_infinity():
    """With base_value 2 the left mass sqrt(pi/2) of exp(-s^2/2) falls short,
    so f never vanishes: J starts at -inf and f(-inf) = 2 - sqrt(pi/2)."""
    F = make_from_g(abs_kink_generator(), 0.0, 2.0, 1.0)
    c = np.sqrt(np.pi / 2.0)
    assert F.j_lo == -np.inf
    assert F.lower_a == pytest.approx(2.0 - c, rel=1e-14)
    z = np.array([-6.0, -3.0, -0.5])
    f = 2.0 - c * erf(-z / np.sqrt(2.0))
    np.testing.assert_allclose(F.inverse(z), f, rtol=1e-14)
    np.testing.assert_allclose(F(f), z, rtol=1e-9)


@pytest.mark.parametrize("base_value", [2.0, 5.0])
def test_from_g_that_never_vanishes_classifies(base_value):
    """f stays above lower_a = base_value - sqrt(pi/2) > 0, and the far
    tail stays quiet."""
    F = make_from_g(abs_kink_generator(), 0.0, base_value, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = classify(F)
    assert rep.verdict == "preserved", rep.basis
    assert 0.4 <= rep.gaussian_order <= 0.6


def test_scale_shift_keeps_the_exact_log_slope_of_from_g():
    """g of A*F + B is g_F((z - B)/A)/A, far out where exp(G) overflows too."""
    F = BUILTINS["from_g_kink"]
    G = scale_shift(F, 2.5, -1.0)
    z = np.array([5.0, 30.0, 40.0, 60.0])
    np.testing.assert_allclose(2.5 * G.g(2.5 * z - 1.0), F.g(z), rtol=1e-6)


def test_from_g_builds_a_bounded_f_as_bounded_values():
    """exp(G) decays on both sides here: f rises from its zero to
    sup f = 0.5 + sqrt(pi/2), which F maps to +inf."""
    g = GSpec(((0.0, 0.0),), left_slope=-2.0, right_slope=-1.0)
    F = make_from_g(g, 0.0, 0.5, 1.0)
    assert F.domain_kind == "bounded_above" and F.lower_a == 0.0
    assert F.upper_ell == pytest.approx(0.5 + np.sqrt(np.pi / 2.0), rel=1e-15)
    assert F.upper_ell == pytest.approx(1.7533, abs=5e-5)
    assert F(F.upper_ell) == np.inf
    r = np.array([0.1, 1.0, 1.7])
    np.testing.assert_allclose(F.inverse(F(r)), r, rtol=1e-12)
    _assert_preserved(F)


def test_from_g_with_flat_tails_rebuilds_neglog():
    """g = -1 with flat tails: f = 1 - exp(-z) from its zero at 0, so
    sup f = 1 and the transform is neglog(0, 1).  The tail's mass was once
    nan (0 * inf in a flat piece), read as unbounded."""
    g = GSpec(((0.0, -1.0),), left_slope=0.0, right_slope=0.0)
    F, N = make_from_g(g, 0.0, 0.0, 1.0), make_neglog(0.0, 1.0)
    assert (F.domain_kind, F.lower_a, F.upper_ell, F.j_lo) == ("bounded_above", 0.0, 1.0, 0.0)
    z = np.linspace(0.05, 40.0, 800)
    assert np.max(np.abs(F.inverse(z) - N.inverse(z))) <= 1e-12
    assert np.max(np.abs(F.g(z) - N.g(z))) <= 1e-9
    r = np.array([0.0, 0.1, 0.5, 0.99, 1.0])
    np.testing.assert_allclose(F(r), N(r), rtol=1e-10)
    _assert_preserved(F)


def test_from_g_rebuild_of_neglog_keeps_its_digits_near_the_supremum():
    """Above sup f / 2, F inverts log(sup f - f), the right tail's own mass;
    inverting log f lost 1 - f / sup f there, to 1.1e-2 relative at the
    largest double below 1."""
    g = GSpec(((0.0, -1.0),), left_slope=0.0, right_slope=0.0)
    F, N = make_from_g(g, 0.0, 0.0, 1.0), make_neglog(0.0, 1.0)
    top = np.array([1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12, np.nextafter(1.0, 0.0)])
    np.testing.assert_allclose(F(top), N(top), rtol=1e-12)
    r = np.linspace(0.01, 0.5, 50)
    np.testing.assert_allclose(F(r), N(r), rtol=1e-14)


def test_from_g_rebuilds_hot():
    """g = -z/2 with f(0) = 1/2 and f'(0) = hot_h'(0) is hot(1): the left
    mass is exactly 1/2, so f tends to 0 with no zero and J is all of R."""
    g = GSpec(((0.0, 0.0),), left_slope=-0.5, right_slope=-0.5)
    F, H = make_from_g(g, 0.0, 0.5, float(gauss_kernel(0.0, 1.0))), make_hot(1.0)
    assert (F.domain_kind, F.lower_a, F.j_lo) == ("bounded_above", 0.0, -np.inf)
    assert F.upper_ell == pytest.approx(1.0, rel=1e-15)
    z = np.linspace(-30.0, 30.0, 601)
    assert np.max(np.abs(F.log_inverse(z) - H.log_inverse(z))) <= 1e-12
    assert np.max(np.abs(F.inverse(z) - H.inverse(z))) <= 1e-12
    assert np.max(np.abs(F.g(z) - H.g(z))) <= 1e-9
    _assert_preserved(F)


def test_from_g_keeps_a_left_tail_that_tends_to_zero():
    """g = 1 with flat tails and f(0) = f'(0) = 1 is f = e^z: the left mass
    cancels base_value to within rounding, and f is measured from -inf
    rather than as 1 minus that mass."""
    g = GSpec(((0.0, 1.0),), left_slope=0.0, right_slope=0.0)
    F = make_from_g(g, 0.0, 1.0, 1.0)
    assert (F.domain_kind, F.lower_a, F.j_lo) == ("half_line_nonneg", 0.0, -np.inf)
    z = np.linspace(-40.0, 10.0, 501)
    np.testing.assert_allclose(F.inverse(z), np.exp(z), rtol=1e-12, atol=0)


@pytest.mark.parametrize("g_value", [1.0, 0.0])
def test_from_g_with_flat_tails_and_unbounded_f_classifies(g_value):
    """g = +1 (f = e^z - 1 from its zero) and g = 0 (f linear) grow without
    bound: both build and classify, without a warning."""
    g = GSpec(((0.0, g_value),), left_slope=0.0, right_slope=0.0)
    F = make_from_g(g, 0.0, 0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = classify(F)
    assert rep.verdict == "preserved", rep.basis
    assert F.j_lo == 0.0 and F.lower_a == 0.0
    z = np.array([0.5, 2.0, 6.0])
    np.testing.assert_allclose(F.inverse(z), np.expm1(z) if g_value else z, rtol=1e-12)


def test_gspec_antiderivative_is_exact():
    g = abs_kink_generator()
    base = -2.0
    G = g.antiderivative_from(base)
    from scipy.integrate import quad
    for z in (-1.0, 0.0, 0.7, 1.0, 2.5):
        val, _ = quad(g, base, z, points=[1.0])
        assert float(G(z)) == pytest.approx(val, abs=1e-13)


# -- admissibility by construction and integrability ------------------------------


def test_builtins_round_trip_and_increase():
    """Each builtin is admissible as built: on default_j_window, f_F and F
    strictly increase, f_F' is positive, and F takes each value back to
    its z."""
    for name, F in BUILTINS.items():
        z = np.linspace(*default_j_window(F), 2049)
        r = F.inverse(z)
        assert np.all(np.diff(r) > 0) and np.all(F.inverse_deriv(z) > 0), name
        back = F(r)
        assert np.all(np.diff(back) > 0), name
        np.testing.assert_allclose(back, z, rtol=1e-9, atol=1e-9, err_msg=name)


_BAD_PARAMETERS = {
    "affine A=nan": lambda: make_affine(np.nan, 0.0),
    "affine A=0": lambda: make_affine(0.0, 0.0),
    "affine A=inf": lambda: make_affine(np.inf, 0.0),
    "affine B=inf": lambda: make_affine(1.0, np.inf),
    "neglog ell=inf": lambda: make_neglog(0.0, np.inf),
    "neglog a=nan": lambda: make_neglog(np.nan, 1.0),
    "hot a=nan": lambda: make_hot(np.nan),
    "power alpha=inf": lambda: make_power_alpha(np.inf),
    "GSpec point nan": lambda: GSpec(((0.0, np.nan),), -1.0, 1.0),
    "GSpec slope inf": lambda: GSpec(((0.0, 0.0),), -1.0, np.inf),
    "tent drop=nan": lambda: abs_kink_generator(drop=np.nan),
    "tent center=inf": lambda: abs_kink_generator(center=np.inf),
    "from_g base_z=inf": lambda: make_from_g(abs_kink_generator(), np.inf, 1.0, 1.0),
    "from_g base_value=inf": lambda: make_from_g(abs_kink_generator(), 0.0, np.inf, 1.0),
    "from_g base_slope=inf": lambda: make_from_g(abs_kink_generator(), 0.0, 1.0, np.inf),
    "from_g base_slope=nan": lambda: make_from_g(abs_kink_generator(), 0.0, 1.0, np.nan),
    "scale_shift A=nan": lambda: scale_shift(BUILTINS["exp"], np.nan, 0.0),
    "scale_shift A=-1": lambda: scale_shift(BUILTINS["exp"], -1.0, 0.0),
    "scale_shift B=inf": lambda: scale_shift(BUILTINS["exp"], 1.0, np.inf),
}


@pytest.mark.parametrize("build", _BAD_PARAMETERS.values(), ids=list(_BAD_PARAMETERS))
def test_constructors_refuse_parameters_that_break_admissibility(build):
    with pytest.raises(DomainError):
        build()


def _raise(*args):
    raise AssertionError("classify evaluated F, f_F, f_F' or log |f_F|")


@pytest.mark.parametrize("name", BUILTINS)
def test_classify_never_evaluates_the_transform(name):
    """The verdict reads only J, the stated Gaussian order and g: with F,
    f_F, f_F' and log |f_F| replaced by callables that raise, the builtin
    and its A*F + B give the same reports."""
    import dataclasses

    for F in (BUILTINS[name], scale_shift(BUILTINS[name], 2.5, -1.0)):
        blind = dataclasses.replace(F, _eval=_raise, _inverse=_raise,
                                    _inverse_deriv=_raise, _log_inverse=_raise)
        assert repr(classify(blind)) == repr(classify(F)), name


def test_whole_line_inverse_divergent_at_the_lower_end_of_J():
    """f = z - 1/z on J = (0, inf) is not integrable at 0, so no Gaussian
    weight helps: the stated order inf decides before the curvature."""
    def ev(r):
        r = np.asarray(r, dtype=float)
        return 0.5 * (r + np.sqrt(r * r + 4.0))

    def inv(z):
        z = np.asarray(z, dtype=float)
        return z - 1.0 / z

    F = _closed_form("recip", "whole_line", 0.0, ev, inv,
                     lambda z: 1.0 + 1.0 / np.asarray(z, dtype=float) ** 2,
                     lambda z: np.log(np.abs(inv(z))),
                     lambda z: -2.0 / (np.asarray(z, dtype=float) ** 3 + z),
                     "not_convex", order=np.inf)
    rep = classify(F)
    assert rep.verdict == "only_trivially_preserved" and rep.gaussian_divergent
    assert rep.gaussian_order == np.inf and rep.curvature_convex is None
    assert rep.basis.startswith("gaussian-divergence rule (whole line)")


# -- classification -------------------------------------------------------------


EXPECTED_VERDICTS = {
    "power_-1": "only_trivially_preserved",
    "power_0": "preserved",
    "power_0.25": "preserved",
    "power_0.5": "preserved",
    "power_1": "preserved",
    "power_1.5": "not_preserved",
    "power_2": "not_preserved",
    "hot_1": "preserved",
    "neglog_0_1": "preserved",
    "affine_3_2": "preserved",
    "exp": "not_preserved",
    "from_g_kink": "preserved",
}


EXPECTED_ORDERS = dict.fromkeys(EXPECTED_VERDICTS, 0.0) | {
    "power_-1": np.inf, "from_g_kink": 0.5}


def test_stated_gaussian_orders():
    """Each constructor states its order in closed form, and A*F + B, whose
    inverse is f_F((z - B)/A), has F's order over A^2."""
    for name, F in BUILTINS.items():
        assert F.gaussian_order == EXPECTED_ORDERS[name], name
        assert scale_shift(F, 2.0, -1.0).gaussian_order == EXPECTED_ORDERS[name] / 4.0
    for alpha, order in ((-2.0, 0.0), (-1.0, np.inf), (-0.5, np.inf), (3.0, 0.0)):
        assert make_power_alpha(alpha).gaussian_order == order, alpha
    bounded = make_from_g(GSpec(((0.0, 0.0),), -2.0, -1.0), 0.0, 0.5, 1.0)
    assert bounded.domain_kind == "bounded_above" and bounded.gaussian_order == 0.0


_SWEEP = [pytest.param(abs_kink_generator(center=c), v, id=f"tent-center{c}-base{v}")
          for c in (1.0, 8.0, 10.0, 12.0, 40.0) for v in (0.0, 1.0)] + [
    pytest.param(GSpec(((0.0, 0.0), (30.0, 3.0)), 0.1, 0.5), 0.0, id="two-knots")]


@pytest.mark.parametrize("g, base_value", _SWEEP)
def test_from_g_sweep_classifies_with_its_stated_order(g, base_value):
    """log f grows like right_slope z^2 / 2 wherever the kinks lie.  A fit
    of log f on z in [8, 16] and [32, 64] read centre 10 and the two knots
    as divergent, and centres 12 and 40 as inconclusive.  The oracle for
    the order is log f itself, far out."""
    F = make_from_g(g, 0.0, base_value, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = classify(F)
    assert rep.verdict == "preserved", rep.basis
    assert rep.gaussian_order == F.gaussian_order == 0.5 * g.right_slope
    assert abs(F.log_inverse(1e5) / 1e10 - rep.gaussian_order) <= 1e-3


_BOX = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(center=st.floats(-60.0, 60.0, **_BOX), value=st.floats(-25.0, 5.0, **_BOX),
       slopes=st.lists(st.floats(-2.0, 2.0, **_BOX), min_size=2, max_size=2).map(sorted),
       base_z=st.floats(-60.0, 60.0, **_BOX), base_value=st.floats(0.0, 5.0, **_BOX),
       base_slope=st.floats(1e-3, 1e3, **_BOX))
@example(center=-50.0, value=-1.0, slopes=[-1.0, 1.0], base_z=50.0, base_value=1.0,
         base_slope=1.0)  # f_F' = e^G underflows to 0 on the window
@example(center=0.0, value=-20.0, slopes=[-1.0, 1.0], base_z=0.0, base_value=1.0,
         base_slope=1.0)  # F steep but continuous: read as a jump
@example(center=1.0, value=1.0, slopes=[2.0 ** -8, 1.0], base_z=0.0, base_value=2.0,
         base_slope=0.5)  # the search for the zero of f overflows exp on its way
@example(center=0.0, value=1.0, slopes=[2.0 ** -52, 1.0], base_z=0.0, base_value=2.0,
         base_slope=1.0)  # f' underflows to 0 where Newton polishes the zero of f
@example(center=-37.0, value=0.0, slopes=[0.0, 1.0], base_z=0.0, base_value=1.0,
         base_slope=1.0)  # f vanishes near z = -1e297: refused
@example(center=-38.0, value=0.0, slopes=[0.0, 1.0], base_z=0.0, base_value=1.0,
         base_slope=1.0)  # f vanishes beyond the doubles: refused
@example(center=33.0, value=5.0, slopes=[-1.0, -1.0], base_z=0.0, base_value=0.0,
         base_slope=1.0)  # sup f = e^722 overflows: refused
@example(center=0.0, value=-3.0, slopes=[0.0, 2.2250738585072014e-308], base_z=0.0,
         base_value=0.0, base_slope=1.0)  # g vanishes near z = 1.3e308: refused
@example(center=0.0, value=-3.0, slopes=[0.0, 5e-324], base_z=0.0, base_value=0.0,
         base_slope=1.0)  # g vanishes past the doubles: refused
@example(center=0.0, value=0.0, slopes=[-1.0, -5e-324], base_z=0.0, base_value=0.0,
         base_slope=1.0)  # s / 2 underflowed to -0.0 in the right tail: read unbounded
def test_from_g_of_a_convex_kink_is_preserved(center, value, slopes, base_z, base_value,
                                              base_slope):
    """Every convex single-kink generator builds a preserved class, whose
    order is right_slope / 2 when f is unbounded and 0 when it is bounded.
    f is bounded exactly when the right tail of e^G has finite mass: g
    tends to -inf there, or stays at a negative constant.  The refusals are
    an f that the doubles cannot sample: its supremum overflows, or its
    zero, or a zero of g, lies beyond 2^48."""
    g = GSpec(((center, value),), *slopes)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            F = make_from_g(g, base_z, base_value, base_slope)
        except DomainError as exc:
            assert "sup f overflows" in str(exc) or "too far out" in str(exc)
            return
        rep = classify(F)
    assert rep.verdict == "preserved", (rep.basis, rep.notes)
    bounded = slopes[1] < 0 or (slopes[1] == 0 and value < 0)
    assert F.domain_kind == ("bounded_above" if bounded else "half_line_nonneg")
    assert F.gaussian_order == (0.0 if bounded else 0.5 * slopes[1])
    if not bounded:
        assert rep.gaussian_order == F.gaussian_order


def test_classify_builtin_verdicts():
    for name, F in BUILTINS.items():
        rep = classify(F)
        assert rep.verdict == EXPECTED_VERDICTS[name], (name, rep.basis)


def test_classify_affine_detector():
    rep = classify(make_affine(3.0, 2.0))
    assert rep.verdict == "preserved"
    assert "affine" in rep.basis


def test_classify_is_relabeling_invariant():
    # A*F + B defines the same convexity class
    for name in ("power_0.5", "power_2", "hot_1"):
        F = BUILTINS[name]
        rep = classify(F)
        rep2 = classify(scale_shift(F, 2.5, -1.0))
        assert rep2.verdict == rep.verdict, name


def test_classify_report_serialization():
    """FIELDS, the columns the command line writes, each name a field of
    the report; the cells themselves are the command line's to format."""
    import dataclasses

    from heatconvex.transforms import ClassReport
    rep = classify(make_power_alpha(1.0))
    names = [f.name for f in dataclasses.fields(ClassReport)]
    assert set(ClassReport.FIELDS) <= set(names) and ClassReport.FIELDS[0] == "label"
    assert [getattr(rep, k) for k in ("label", "verdict")] == ["power[1]", "preserved"]


# -- strength comparison ---------------------------------------------------------


def test_compare_strength_power_hierarchy():
    # the alpha-convexity classes grow with alpha, so smaller alpha is the
    # stronger requirement
    P0, P1, P2 = (make_power_alpha(a) for a in (0.0, 1.0, 2.0))
    assert compare_strength(P0, P1).relation == "F1_stronger"
    assert compare_strength(P1, P0).relation == "F1_weaker"
    assert compare_strength(P1, P2).relation == "F1_stronger"
    assert compare_strength(P2, P0).relation == "F1_weaker"


def test_compare_strength_equivalence_under_relabeling():
    """A*F + B defines F's class: for every builtin, at scales from 1/100 to
    100, the sign test reads F o f_{A F + B}, which is affine, as convex
    both ways round."""
    for name, F in BUILTINS.items():
        for A, B in ((2.5, -1.0), (4.0, 3.0), (0.01, 5.0), (100.0, -7.0)):
            G = scale_shift(F, A, B)
            assert compare_strength(F, G).relation == compare_strength(G, F).relation == (
                "equivalent"), (name, A, B)


@pytest.mark.parametrize("name, target", [
    ("from_g_exp", make_power_alpha(0.0)), ("from_g_neglog", make_neglog(0.0, 1.0)),
    ("from_g_hot", make_hot(1.0)),
    ("from_g_zero", make_power_alpha(1.0))])
def test_generator_rebuilds_are_equivalent_to_their_closed_forms(name, target):
    """A linear generator rebuilds its closed form up to A*F + B: g = 1 from
    f(0) = f'(0) = 1 is e^z, log's inverse; g = -1 from f(0) = 0 is
    1 - e^-z, neglog's; g = -z/2 is the heat step's; and g = 0 from
    f(0) = 0 is z, plain convexity of nonnegative values."""
    F = _SHAPED[name]()
    assert compare_strength(F, target).relation == "equivalent"


def _sampled_composition_convex(F_outer, F_inner):
    """The sampled oracle: F_outer o f_{F_inner} on 257 points of
    default_j_window(F_inner), convex where each second difference of its
    longest finite run is at least -1e-9 times the local scale
    |y_-| + 2|y_0| + |y_+| + 1; not convex where f_{F_inner} leaves
    F_outer's values (beyond 1e-9 relative) or fewer than 5 samples are
    finite."""
    z = np.linspace(*default_j_window(F_inner), 257)
    vals = np.asarray(F_inner.inverse(z), dtype=float)
    lo, hi = F_outer.lower_a, F_outer.upper_ell
    slack = 1e-9 * (1.0 + np.abs(vals))
    if np.any(vals < lo - slack) or np.any(vals > hi + slack):
        return False
    with np.errstate(divide="ignore", over="ignore"):
        y = np.asarray(F_outer(np.clip(vals, lo, hi)), dtype=float)
    idx = np.flatnonzero(np.isfinite(y))
    run = max(np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1), key=len)
    if run.size < 5:
        return False
    y = y[run]
    d2 = y[2:] - 2.0 * y[1:-1] + y[:-2]
    local = np.abs(y[2:]) + 2.0 * np.abs(y[1:-1]) + np.abs(y[:-2]) + 1.0
    return bool(np.all(d2 >= -1e-9 * local))


_ALPHAS = (-1.0, 0.0, 0.25, 0.5, 0.5001, 0.75, 0.999, 1.0, 1.5, 2.0)
_PARITY_PAIRS = [pytest.param(make_power_alpha(a), make_power_alpha(b), id=f"power{a:g}-power{b:g}")
                 for a in _ALPHAS for b in _ALPHAS if a != b] + [
    pytest.param(*pair, id=f"{pair[0].label}-{pair[1].label}")
    for ell in (0.5, 1.0, 2.0)
    for pair in ((make_hot(ell), make_neglog(0.0, ell)), (make_neglog(0.0, ell), make_hot(ell)))]


@pytest.mark.parametrize("F1, F2", _PARITY_PAIRS)
def test_compare_strength_meets_the_sampled_second_differences(F1, F2):
    """The sign test of the closed forms gives the relation that second
    differences of sampled compositions give, on every ordered pair of ten
    powers (0.5 against 0.5001 and 0.999 against 1 included) and on the heat
    step against -log(ell - r), which it reads stronger."""
    c12, c21 = _sampled_composition_convex(F1, F2), _sampled_composition_convex(F2, F1)
    res = compare_strength(F1, F2)
    assert (res.comp12_convex, res.comp21_convex) == (c12, c21)
    if F1.label.startswith("hot"):
        assert res.relation == "F1_stronger"


def test_affine_on_the_whole_line_is_weaker_than_power_1_both_ways_round():
    """Convex functions of any sign hold the nonnegative ones: affine[3,2]
    is weaker than power[1] in either argument order.  Its first order read
    equivalent when an affine fit of F1 against F2 decided equivalence: the
    fit read both transforms at f_{power[1]}'s values only, r > 0, where
    affine[3,2] is 3 power[1] + 5, and never saw the negative values that
    affine[3,2] takes and power[1] refuses.  The reverse order clipped those
    to 0, the fit failed, and it read F1_stronger."""
    A, P1 = BUILTINS["affine_3_2"], BUILTINS["power_1"]
    assert compare_strength(A, P1).relation == "F1_weaker"
    assert compare_strength(P1, A).relation == "F1_stronger"


def test_compare_strength_kink_incomparable_with_identity():
    """The kink transform is neither weaker nor stronger than plain convexity,
    and the failing direction localizes near the curvature kink."""
    res = compare_strength(make_power_alpha(1.0), BUILTINS["from_g_kink"])
    assert res.relation == "neither"
    assert 0.7 <= res.worst_z <= 1.4
