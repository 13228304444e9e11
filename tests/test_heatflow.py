"""Evolution oracles: closed forms the quadrature must reproduce."""

import io
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erf

from heatconvex import (DomainSpec, EvaluationWindowError,
                        ExistenceWindowError, GridFunction, InitialDatum, grid_nodes,
                        heat_evolve_dirichlet, heat_evolve_free, heatflow, hot_h,
                        hunt_violation, make_power_alpha)
from heatconvex.heatflow import (_BAND_ROWS, _CSV_ROWS, _box_apply, _cubics,
                                 _dirichlet_kernels, _fast_len, _kernel_apply, _kernel_matrix,
                                 _pchip, _resolve_datum, _row_template, _separable, _start_factor,
                                 _valid, check_existence, fit_growth_envelope, gauss_kernel)
from heatconvex.numerics import DomainError, piecewise_simpson_weights


def rel_err(got, want):
    return float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))


# -- free space ---------------------------------------------------------------


def test_exponential_eigenrelation():
    """e^{t Lap} e^{cx} = e^{c^2 t + cx}."""
    c, t = 1.0, 0.25
    phi = InitialDatum(fn=lambda x: np.exp(c * x), growth_a=np.e, growth_A=0.05)
    u = heat_evolve_free(phi, t, (-4.0, 4.0, 1.0 / 32))
    x = u.axes()[0]
    assert rel_err(u.values, np.exp(c * c * t + c * x)) < 1e-8


def test_gauss_kernel_semigroup():
    s, t = 0.5, 0.7
    phi = InitialDatum(fn=lambda x: gauss_kernel(x, s),
                       growth_a=float(gauss_kernel(0.0, s)), growth_A=0.0)
    u = heat_evolve_free(phi, t, (-6.0, 6.0, 1.0 / 64))
    x = u.axes()[0]
    assert np.max(np.abs(u.values - gauss_kernel(x, s + t))) < 1e-9


def test_step_data_evolve_to_erf_profile():
    phi = InitialDatum(fn=lambda x: (np.asarray(x) >= 0).astype(float),
                       growth_a=1.0, growth_A=0.0, breakpoints=(0.0,))
    for t in (0.25, 1.0):
        u = heat_evolve_free(phi, t, (-5.0, 5.0, 1.0 / 32))
        x = u.axes()[0]
        exact = 0.5 * (1.0 + erf(x / (2.0 * np.sqrt(t))))
        assert np.max(np.abs(u.values - exact)) < 1e-9


def test_hot_profile_is_unit_time_step_evolution():
    phi = InitialDatum(fn=lambda x: (np.asarray(x) >= 0).astype(float),
                       growth_a=1.0, growth_A=0.0, breakpoints=(0.0,))
    u = heat_evolve_free(phi, 1.0, (-8.0, 8.0, 1.0 / 16))
    assert np.max(np.abs(u.values - hot_h(u.axes()[0]))) < 1e-9


def test_gaussian_growth_closed_form():
    """Quadratic-exponential data evolve with the shrink factor 1 - 4At."""
    A, t = 0.2, 0.5
    phi = InitialDatum(fn=lambda x: np.exp(A * x * x), growth_a=1.0, growth_A=A)
    u = heat_evolve_free(phi, t, (-2.0, 2.0, 1.0 / 32))
    shrink = 1.0 - 4.0 * A * t
    x = u.axes()[0]
    exact = shrink ** -0.5 * np.exp(A * x * x / shrink)
    assert rel_err(u.values, exact) < 1e-8
    # the evolved growth certificate bounds every node
    assert np.all(np.abs(u.values) <= u.growth_a * np.exp(u.growth_A * x * x) * (1 + 1e-12))


def test_reported_value_error_is_honest():
    s, t = 0.5, 0.5
    phi = InitialDatum(fn=lambda x: gauss_kernel(x, s),
                       growth_a=float(gauss_kernel(0.0, s)), growth_A=0.0)
    u = heat_evolve_free(phi, t, (-6.0, 6.0, 1.0 / 32))
    x = u.axes()[0]
    actual = np.abs(u.values - gauss_kernel(x, s + t))
    assert np.all(actual <= u.value_error * (1.0 + np.abs(u.values)) + 1e-15)


def test_existence_window_refused():
    phi = InitialDatum(fn=lambda x: np.exp(x * x), growth_a=1.0, growth_A=1.0)
    with pytest.raises(ExistenceWindowError):
        heat_evolve_free(phi, 0.3, (-1.0, 1.0, 0.125))
    # at A = 1 the admitted times end just below 0.95 / 4 = 0.2375
    check_existence(1.0, 0.237)
    for t in (0.2375, 0.24):
        with pytest.raises(ExistenceWindowError):
            check_existence(1.0, t)
    check_existence(0.0, 1e12)


@pytest.mark.parametrize("n", [2, 3, 4, 9, 40])
@pytest.mark.parametrize("cols", [(), (1,), (3,)])
def test_monotone_cubic_equals_scipy_pchip(n, cols):
    from scipy.interpolate import PchipInterpolator

    rng = np.random.default_rng(10 * n + len(cols))
    x = np.cumsum(rng.uniform(0.05, 1.5, n))
    y = rng.normal(size=(n,) + cols)
    # whole numbers give flat runs, zero slopes and sign changes
    y = np.where(rng.random(y.shape) < 0.6, np.round(y), y)
    xq = np.concatenate([x, rng.uniform(x[0] - 0.5, x[-1] + 0.5, 200),
                         [np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf)]])
    got = _pchip(x, y)(xq)
    want = PchipInterpolator(x, y, axis=0, extrapolate=False)(xq)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(got[(xq < x[0]) | (xq > x[-1])]).all()
    assert not np.isnan(got[(xq >= x[0]) & (xq <= x[-1])]).any()


@pytest.mark.parametrize("shape", [(2, 2), (9, 2), (2, 12), (13, 17)])
def test_grid_interpolation_equals_scipy_pchip_axis_by_axis(shape):
    from scipy.interpolate import PchipInterpolator

    rng = np.random.default_rng(sum(shape))
    values = rng.normal(size=shape)
    values = np.where(rng.random(shape) < 0.5, np.round(values), values)
    gf = GridFunction(values=values, extent=((-1.0, 2.0), (0.5, 1.5)))
    knots = gf.axes()
    # knots and ends on both axes; points outside on the last axis only,
    # since scipy refuses the NaN rows they would leave for a later axis
    queries = (np.sort(np.concatenate([knots[0], rng.uniform(-1.0, 2.0, 7)])),
               np.sort(np.concatenate([knots[1], rng.uniform(0.3, 1.7, 9)])))
    want = values
    for k, (a, q) in enumerate(zip(knots, queries)):
        want = PchipInterpolator(a, want, axis=k, extrapolate=False)(q)
    got = _cubics(knots, _pchip(knots[0], values), queries)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(got).any() and not np.isnan(got).all()


def test_grid_data_that_are_not_finite_are_refused():
    x = grid_nodes(-6.0, 6.0, 0.125)
    values = np.exp(-x * x)
    values[40] = np.nan
    gf = GridFunction(values=values, extent=((-6.0, 6.0),))
    with pytest.raises(DomainError, match="finite"):
        heat_evolve_free(gf, 0.1, (-2.0, 2.0, 0.0625))


def test_fast_length_equals_scipys_next_fast_len():
    from scipy.fft import next_fast_len

    ns = [*range(1, 2 ** 16 + 1), *(2 ** 23 + d for d in (-1, 0, 1, 7)),
          *(3 * 2 ** 20 + d for d in (-1, 0, 1, 7))]
    assert [_fast_len(n) for n in ns] == [next_fast_len(n, real=True) for n in ns]


def test_grid_datum_needs_wide_enough_extent():
    x = grid_nodes(-1.0, 1.0, 0.0625)
    gf = GridFunction(values=np.exp(-x * x), extent=((-1.0, 1.0),))
    with pytest.raises(EvaluationWindowError):
        heat_evolve_free(gf, 1.0, (-1.0, 1.0, 0.0625))


def test_grid_datum_with_margin_matches_callable():
    t = 0.05
    phi = InitialDatum(fn=lambda x: np.cosh(x), growth_a=2e3, growth_A=0.02)
    wide = grid_nodes(-8.0, 8.0, 1.0 / 64)
    gf = GridFunction(values=np.cosh(wide), extent=((-8.0, 8.0),),
                      growth_a=2e3, growth_A=0.02)
    u_grid = heat_evolve_free(gf, t, (-1.0, 1.0, 1.0 / 64))
    u_call = heat_evolve_free(phi, t, (-1.0, 1.0, 1.0 / 64))
    assert rel_err(u_grid.values, u_call.values) < 1e-7


def test_2d_product_data_factorize():
    s = 0.5
    phi = InitialDatum(
        fn=lambda x, y: gauss_kernel(x, s) * np.exp(y),
        growth_a=float(gauss_kernel(0.0, s)) * np.exp(3.2), growth_A=0.05)
    t = 0.25
    grid = ((-2.0, 2.0, 0.125), (-2.0, 2.0, 0.125))
    u = heat_evolve_free(phi, t, grid)
    x, y = u.axes()
    exact = gauss_kernel(x, s + t)[:, None] * np.exp(t + y)[None, :]
    assert rel_err(u.values, exact) < 1e-8


def test_2d_grid_data_evolve_to_the_gaussian_product():
    s, t = 0.5, 0.1
    x = grid_nodes(-6.0, 6.0, 1.0 / 16)
    gf = GridFunction(values=np.outer(gauss_kernel(x, s), gauss_kernel(x, s)),
                      extent=((-6.0, 6.0), (-6.0, 6.0)),
                      growth_a=float(gauss_kernel(0.0, s)) ** 2)
    u = heat_evolve_free(gf, t, ((-2.0, 2.0, 1.0 / 16), (-2.0, 2.0, 1.0 / 16)))
    a, b = u.axes()
    # the datum's interpolation error dominates; value_error leaves it out
    assert rel_err(u.values, np.outer(gauss_kernel(a, s + t), gauss_kernel(b, s + t))) < 1e-6


# -- Dirichlet ----------------------------------------------------------------


def test_dirichlet_interval_eigenfunction():
    dom = DomainSpec.interval(0.0, np.pi, ell=0.0)
    phi = InitialDatum(fn=np.sin, growth_a=1.0, growth_A=0.0)
    for t in (0.02, 0.5):
        u = heat_evolve_dirichlet(phi, dom, t, (0.0, np.pi, np.pi / 128))
        x = u.axes()[0]
        assert np.max(np.abs(u.values - np.exp(-t) * np.sin(x))) < 1e-8, t


def test_dirichlet_constant_stays_constant():
    dom = DomainSpec.interval(0.0, 1.0, ell=2.0)
    phi = InitialDatum(fn=lambda x: np.full_like(np.asarray(x, float), 2.0),
                       growth_a=2.0, growth_A=0.0)
    u = heat_evolve_dirichlet(phi, dom, 0.07, (0.0, 1.0, 1.0 / 64))
    assert np.max(np.abs(u.values - 2.0)) < 1e-10


def test_dirichlet_boundary_nodes_exact():
    dom = DomainSpec.interval(0.0, 1.0, ell=1.0)
    phi = InitialDatum(fn=lambda x: 1.0 - np.sin(np.pi * np.asarray(x, float)),
                       growth_a=2.0, growth_A=0.0)
    u = heat_evolve_dirichlet(phi, dom, 0.03, (0.0, 1.0, 1.0 / 32))
    assert u.values[0] == 1.0
    assert u.values[-1] == 1.0


def test_dirichlet_half_line_odd_extension():
    """x has odd symmetry, so the zero-boundary flow leaves it unchanged."""
    dom = DomainSpec.half_line(ell=0.0)
    phi = InitialDatum(fn=lambda x: np.asarray(x, float), growth_a=10.0,
                       growth_A=0.0)
    u = heat_evolve_dirichlet(phi, dom, 0.2, (0.0, 4.0, 1.0 / 32))
    x = u.axes()[0]
    assert np.max(np.abs(u.values - x)) < 1e-9


def test_dirichlet_half_line_step_with_a_boundary_jump():
    """ell - phi(0) = 1: the odd reflection of v0 = 1{x < 1} jumps at the wall."""
    t = 0.05
    phi = InitialDatum(fn=lambda x: (np.asarray(x, float) > 1.0).astype(float),
                       breakpoints=(1.0,))
    u = heat_evolve_dirichlet(phi, DomainSpec.half_line(ell=1.0), t, (0.0, 3.0, 1.0 / 64))
    x, s = u.axes()[0], 2.0 * np.sqrt(t)
    exact = (1.0 - 0.5 * (erf(x / s) - erf((x - 1.0) / s))
             + 0.5 * (erf((x + 1.0) / s) - erf(x / s)))
    assert u.values[0] == 1.0
    assert rel_err(u.values, exact) < 1e-9


def test_dirichlet_half_line_grid_data():
    """x exp(-x^2 / 2) is odd, so the half line evolves it as free space does."""
    t, t0 = 0.1, 0.5
    xs = np.linspace(0.0, 10.0, 1281)
    gf = GridFunction(values=xs * np.exp(-xs ** 2 / (4 * t0)), extent=((0.0, 10.0),))
    u = heat_evolve_dirichlet(gf, DomainSpec.half_line(), t, (0.0, 4.0, 1.0 / 32))
    x = u.axes()[0]
    exact = x * (t0 / (t0 + t)) ** 1.5 * np.exp(-x ** 2 / (4 * (t0 + t)))
    assert rel_err(u.values, exact) < 1e-8


def test_half_line_is_the_free_flow_of_the_odd_extension():
    """sin(pi x) is its own odd extension: the half line's record is the free
    path's at the half line's tail tolerance, with 0 as a breakpoint."""
    free = heat_evolve_free(InitialDatum(fn=_SIN.fn, breakpoints=(0.0,)), 0.05,
                            (0.0, 2.0, 1.0 / 8), eps_tail=heatflow._HALF_LINE_EPS_TAIL)
    u = heat_evolve_dirichlet(_SIN, DomainSpec.half_line(), 0.05, (0.0, 2.0, 1.0 / 8))
    assert u.values[0] == 0.0 and abs(free.values[0]) <= free.value_error
    assert np.max(np.abs(u.values[1:] - free.values[1:])) <= 1e-15
    assert u.value_error == free.value_error
    assert (u.growth_a, u.growth_A) == (free.growth_a, free.growth_A)
    for key in ("truncation_radius", "tail_bound", "kernel_len", "lattice_factor"):
        assert u.meta[key] == free.meta[key], key


def test_half_line_sizes_its_window_by_the_growth_certificate():
    """exp(3 x^2), certificate (1, 3): the half line used to size its window
    by probing the datum near the outputs, and erred by 4.6e-4 with a
    value_error of 1.3e-8.  With beta = 1/(4t) - 3 the image integral
    int_0^inf (G(x - y) - G(x + y)) exp(3 y^2) dy is
    exp(3 x^2 / (4 t beta)) erf(x / (4 t sqrt(beta))) / sqrt(4 t beta);
    mpmath evaluates it at 40 digits, checked against its quadrature."""
    mp = pytest.importorskip("mpmath")
    t, A = 0.05, 3.0
    phi = InitialDatum(fn=lambda x: np.exp(A * np.asarray(x, float) ** 2),
                       growth_a=1.0, growth_A=A)
    u = heat_evolve_dirichlet(phi, DomainSpec.half_line(), t, (0.0, 2.0, 1.0 / 32))
    x, vals = u.axes()[0][::2], u.values[::2]
    with mp.workdps(40):
        T = mp.mpf(t)
        beta = 1 / (4 * T) - A
        g = lambda z: mp.exp(-z ** 2 / (4 * T)) / mp.sqrt(4 * mp.pi * T)

        def closed(v):
            v = mp.mpf(float(v))
            return (mp.exp(A * v ** 2 / (4 * T * beta)) * mp.erf(v / (4 * T * mp.sqrt(beta)))
                    / mp.sqrt(4 * T * beta))

        def images(v):
            v, c = mp.mpf(float(v)), mp.mpf(float(v)) / (4 * T * beta)
            return mp.quad(lambda y: (g(v - y) - g(v + y)) * mp.exp(A * y ** 2),
                           [0, c, c + 2, mp.inf])

        for v in (0.25, 1.0, 2.0):
            assert abs(closed(v) - images(v)) <= mp.mpf(10) ** -30 * abs(closed(v))
        oracle = np.array([float(closed(v)) for v in x])
    assert x.size == 33 and u.meta["converged"]
    assert np.all(np.abs(vals - oracle) <= u.value_error * (1.0 + np.abs(vals)))
    assert u.value_error < 1e-9


def test_dirichlet_rectangle_product_eigenfunction():
    dom = DomainSpec.rectangle(((0.0, np.pi), (0.0, np.pi)), ell=0.0)
    phi = InitialDatum(fn=lambda x, y: np.sin(x) * np.sin(y),
                       growth_a=1.0, growth_A=0.0)
    t = 0.1
    u = heat_evolve_dirichlet(phi, dom, t,
                              ((0.0, np.pi, np.pi / 48), (0.0, np.pi, np.pi / 48)))
    x, y = u.axes()
    exact = np.exp(-2 * t) * np.sin(x)[:, None] * np.sin(y)[None, :]
    assert np.max(np.abs(u.values - exact)) < 1e-8


def test_dirichlet_interval_long_time_relaxes_to_the_boundary_value():
    """t = 400 L^2: a few lattice cells span the whole period of the kernel."""
    dom = DomainSpec.interval(0.0, 0.1, ell=1.0)
    phi = InitialDatum(fn=lambda x: np.abs(x), growth_a=1.0, growth_A=0.0)
    u = heat_evolve_dirichlet(phi, dom, 4.0, (0.0, 0.1, 0.1 / 128))
    assert u.values.size == 129
    assert u.values[0] == 1.0 and u.values[-1] == 1.0
    assert np.max(np.abs(u.values - 1.0)) <= u.value_error


@pytest.mark.parametrize("ell, A", [(0.0, 10.0), (10.0, 10.0), (100.0, 100.0)])
def test_box_value_error_carries_the_wall_value(ell, A):
    """ell minus a tent of height A on (0, 1): the box evolves the tent and
    returns ell minus it, so an error relative to 1 + |tent| can be 1 + |ell|
    times as large relative to 1 + |u|.  Without that factor ell = A = 10
    erred by 1.6e-9 against a value_error of 2.6e-10.  The oracle is the
    tent's sine series."""
    t = 1e-3
    phi = InitialDatum(fn=lambda x: ell - A * (1.0 - 2.0 * np.abs(np.asarray(x, float) - 0.5)),
                       growth_a=ell + A, growth_A=0.0, breakpoints=(0.5,))
    u = heat_evolve_dirichlet(phi, DomainSpec.interval(0.0, 1.0, ell), t, (0.0, 1.0, 1.0 / 64))
    k = np.arange(1, 2001)
    coef = 8.0 / (k * np.pi) ** 2 * np.sin(k * np.pi / 2) * np.exp(-(k * np.pi) ** 2 * t)
    exact = ell - A * np.sin(np.pi * np.outer(u.axes()[0], k)) @ coef
    assert rel_err(u.values, exact) <= u.value_error


@pytest.mark.parametrize("L", [0.1, 1.0, 8.0])
@pytest.mark.parametrize("t", [1e-4, 0.05, 4.0])
def test_dirichlet_kernels_match_the_image_sum(L, t):
    """The kernel on s = -M..2M agrees with sum_{|k| <= K} Gauss(s h - 2kL, t)
    within its rounding bound, on the coarsest lattice the evolution admits
    (h <= sqrt(t) / 8) and on one four times finer.  The image sum is taken
    in extended precision, at the exact lattice points s L / M."""
    ld = np.longdouble
    M0 = int(np.ceil(8.0 * L / np.sqrt(t)))
    for M in (M0, 4 * M0):
        kern, delta = _dirichlet_kernels(L, t, M)
        # images up to far beyond exp(-60) of the peak, for x in [-L, 2L]
        K = int(np.ceil(np.sqrt(240.0 * t) / (2.0 * L))) + 2
        shifts = 2 * ld(L) * np.arange(-K, K + 1, dtype=ld)
        x = np.arange(-M, 2 * M + 1).astype(ld) * ld(L) / M
        want = (np.exp(-(x[:, None] - shifts) ** 2 / (4 * ld(t))).sum(axis=1)
                / np.sqrt(4 * np.pi * ld(t)))
        assert kern.shape == (3 * M + 1,)
        assert float(np.max(np.abs(kern - want))) <= delta, M


@pytest.mark.parametrize("nodes, m", [(129, 1), (129, 16), (8193, 1), (8193, 16), (None, 1)],
                         ids=["box_129_m1", "box_129_m16", "box_8193_m1", "box_8193_m16",
                              "half_line"])
def test_reflected_sums_equal_toeplitz_minus_hankel(nodes, m):
    """One kernel on the oddly reflected samples gives the method of images
    as a Toeplitz sum minus a Hankel sum over the samples from the wall,
    sum_j psi_j (K(q - j) - K(q + j)), within the reported roundoff plus the
    kernel's rounding term delta |psi_odd|_2."""
    if nodes is None:  # half line: the Gaussian underflows to 0 within p nodes
        h, t, p, n = 1.0 / 128, 0.05, 1600, 257
        N = (n - 1) * m + p + 1
        kern, delta = gauss_kernel(h * np.arange(-p, p + 1), t), 0.0
        toeplitz = gauss_kernel(h * np.arange(-(N - 1), N), t)
        hankel = gauss_kernel(h * np.arange((n - 1) * m + N), t)
    else:  # box: the periodic image sum, reflected across the whole box
        N = nodes
        p, n = N - 1, (N - 1) // m + 1
        kern, delta = _dirichlet_kernels(1.0, 0.05, p)
        toeplitz, hankel = kern[:2 * p + 1], kern[p:]
    psi = np.random.default_rng(5).standard_normal(N)
    odd = np.concatenate((-psi[p:0:-1], [0.0], psi[1:]))
    # the valid sums are symmetric in their operands: the longer one is data
    data, short = sorted((odd, kern), key=np.size, reverse=True)
    u, roundoff, method, _ = _kernel_apply(data, m, short)
    outs = (n - 1) * m + 1
    ref = (np.convolve(psi, toeplitz, mode="valid")[:outs]
           - np.correlate(hankel, psi, mode="valid"))[::m]
    assert method == ("fft" if min(odd.size, kern.size) >= heatflow._FFT_MIN_LEN else "direct")
    assert u.shape == ref.shape == (n,)
    bound = roundoff * (1.0 + np.abs(u)) + delta * np.linalg.norm(odd)
    assert np.all(np.abs(u - ref) <= bound)


@pytest.mark.parametrize("nodes, m", [(129, 1), (129, 16), (8193, 1), (8193, 16)])
def test_spectral_box_equals_the_reflected_toeplitz_sum(nodes, m):
    """The interval's circular convolution with the spectrum of Theta gives
    the Toeplitz sum of Theta over the oddly reflected samples, within both
    roundoffs (the Toeplitz side's plus its kernel term delta |psi_odd|_2).
    The samples do not vanish at the upper wall, whose image cancels them
    in the Toeplitz sum and which the spectral side leaves out."""
    L, t = 2.0, 0.05
    p, n = (nodes - 1) * m, nodes
    # weighted samples: lattice spacing times data of order one
    psi = L / p * (1.0 + np.random.default_rng(7).random(p + 1))
    psi[0] = 0.0
    u, roundoff, method = _box_apply(psi, m, L, t)
    kern, delta = _dirichlet_kernels(L, t, p)
    odd = np.concatenate((-psi[p:0:-1], psi))
    # the kernel is the longer operand of the symmetric valid sums
    ref, ref_roundoff, *_ = _kernel_apply(kern, m, odd)
    assert method == "spectral"
    assert u.shape == ref.shape == (n,)
    assert 0.0 < roundoff < 1e-9
    bound = (roundoff * (1.0 + float(np.min(np.abs(u))))
             + ref_roundoff * (1.0 + np.abs(ref)) + delta * np.linalg.norm(odd))
    assert np.all(np.abs(u - ref) <= bound)


def test_rectangle_grid_data_evolve_to_the_sine_product():
    t = 0.05
    x, y = np.linspace(0.0, 2.0, 129), np.linspace(0.0, 1.0, 129)
    gf = GridFunction(values=np.outer(np.sin(np.pi * x / 2), np.sin(np.pi * y)),
                      extent=((0.0, 2.0), (0.0, 1.0)))
    u = heat_evolve_dirichlet(gf, DomainSpec.rectangle(((0.0, 2.0), (0.0, 1.0))), t,
                              ((0.0, 2.0, 2.0 / 128), (0.0, 1.0, 1.0 / 128)))
    a, b = u.axes()
    exact = np.exp(-1.25 * np.pi ** 2 * t) * np.outer(np.sin(np.pi * a / 2), np.sin(np.pi * b))
    assert u.values.shape == (129, 129)
    assert rel_err(u.values, exact) < 1e-7


_UNIT_SQUARE = DomainSpec.rectangle(((0.0, 1.0), (0.0, 1.0)))


@pytest.mark.parametrize("domain, out_grid", [
    (DomainSpec.interval(0.0, 1.0), (0.0, 0.5, 1.0 / 8)),
    (_UNIT_SQUARE, ((0.0, 0.5, 1.0 / 8), (0.0, 1.0, 1.0 / 8))),
    (_UNIT_SQUARE, ((0.0, 1.0, 1.0 / 8), (0.25, 3.0, 1.0 / 8))),
    (DomainSpec.half_line(), (0.25, 1.0, 1.0 / 8)),
    (DomainSpec.half_line(), ((0.0, 1.0, 1.0 / 8),) * 2),
], ids=["interval", "rectangle_axis_0", "rectangle_axis_1", "half_line_off_its_wall",
        "half_line_two_axes"])
def test_box_out_grid_must_span_the_domain(domain, out_grid):
    phi = _SIN if domain.n == 1 else _SIN2
    with pytest.raises(ValueError, match="out_grid must span"):
        heat_evolve_dirichlet(phi, domain, 0.05, out_grid)


@pytest.mark.parametrize("domain, phi, out_grid", [
    (DomainSpec.interval(0.0, 1.0),
     InitialDatum(fn=lambda x: 1.0 / (x - 0.5)), (0.0, 1.0, 1.0 / 8)),
    (_UNIT_SQUARE, InitialDatum(fn=lambda x, y: 1.0 / (x - 0.5) + 0.0 * y),
     ((0.0, 1.0, 1.0 / 8), (0.0, 1.0, 1.0 / 8))),
], ids=["interval", "rectangle"])
def test_box_refuses_unbounded_data(domain, phi, out_grid):
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(
            DomainError, match="bounded"):
        heat_evolve_dirichlet(phi, domain, 0.05, out_grid)


@pytest.mark.parametrize("evolve", [
    lambda phi: heat_evolve_free(phi, 0.05, (-1.0, 1.0, 1.0 / 16)),
    lambda phi: heat_evolve_dirichlet(phi, DomainSpec.half_line(), 0.05, (0.0, 1.0, 1.0 / 16)),
], ids=["free_space", "half_line"])
def test_a_pole_is_refused_after_the_first_pass(evolve):
    """1/|x - 0.5| is infinite at a lattice node: its values came back inf,
    with quad_error NaN, after six doublings to lattice factor 192."""
    phi, calls = _counting(InitialDatum(fn=lambda x: 1.0 / np.abs(x - 0.5)))
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(
            DomainError, match="bounded: the first pass"):
        evolve(phi)
    # one lattice, then the one-sided samples at the half line's wall
    assert sum(np.size(xs[0]) > 1 for xs in calls) == 1


def test_every_refinement_pass_must_be_finite():
    """1/|x - 3/32| is finite on the first lattice (spacing 1/16) and
    infinite at a node of the second: refinement went on to lattice factor
    128 and returned NaN values with value_error NaN."""
    phi = InitialDatum(fn=lambda x: 1.0 / np.abs(x - 3.0 / 32), growth_a=1e3)
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(
            DomainError, match="bounded: the pass at lattice factor 4 is not finite"):
        heat_evolve_free(phi, 0.5, (-1.0, 1.0, 1.0 / 8))


def _sine_grid(*his):
    """sin(pi x) sin(pi y) ... on [0, hi] per axis, 33 nodes each."""
    axes = [np.linspace(0.0, hi, 33) for hi in his]
    vals = np.prod(np.meshgrid(*(np.sin(np.pi * a) for a in axes), indexing="ij"), axis=0)
    return GridFunction(values=vals, extent=tuple((0.0, hi) for hi in his))


@pytest.mark.parametrize("phi, domain, out_grid", [
    # the lattice runs R beyond the last output, past the datum's 4
    (_sine_grid(4.0), DomainSpec.half_line(), (0.0, 3.5, 1.0 / 8)),
    (_sine_grid(0.5), DomainSpec.interval(0.0, 1.0), (0.0, 1.0, 1.0 / 8)),
    (_sine_grid(1.0, 0.5), _UNIT_SQUARE, ((0.0, 1.0, 1.0 / 8),) * 2),
], ids=["half_line", "interval", "rectangle"])
def test_dirichlet_refuses_grid_data_short_of_the_lattice(phi, domain, out_grid):
    """Grid data used to be extended past their extent by the edge value:
    33 nodes on (0, 0.5) evolved on the unit interval returned values with
    a value_error of 7e-10."""
    with pytest.raises(EvaluationWindowError, match="integration window"):
        heat_evolve_dirichlet(phi, domain, 0.05, out_grid)


@pytest.mark.parametrize("domain, extent, out_grid", [
    (DomainSpec.half_line(2.0), (0.0, 6.0), (0.0, 2.0, 1.0 / 32)),
    (DomainSpec.interval(0.0, 1.0, 2.0), (0.0, 1.0), (0.0, 1.0, 1.0 / 32)),
], ids=["half_line", "interval"])
def test_dirichlet_errors_scale_by_one_plus_ell(domain, extent, out_grid):
    """Every domain evolves v0 = ell - phi and returns ell - v: the wall
    nodes hold ell exactly, and the datum's error is scaled by 1 + |ell|
    as v0's inherited error and again with the flow's value_error, so
    value_error includes (1 + |ell|)^2 1.5 inherited."""
    inherited = 1e-6
    x = np.linspace(*extent, 193)
    phi = GridFunction(values=np.sin(np.pi * x) + 0.5 * x, extent=(extent,),
                       value_error=inherited)
    u = heat_evolve_dirichlet(phi, domain, 0.05, out_grid)
    walls = [0] if domain.kind == "half_line" else [0, -1]
    assert np.all(u.values[walls] == 2.0) and np.all(u.values[1:-1] != 2.0)
    meta = u.meta
    assert meta["inherited_error"] == 3.0 * inherited
    flow = meta["quad_error"] + meta["roundoff_error"] + 1.5 * meta["inherited_error"]
    # the tail's share, tail_bound / (1 + max|v|), is 0 on the interval
    assert 3.0 * flow <= u.value_error <= 3.0 * (flow + meta["tail_bound"])
    assert u.value_error >= 3.0 ** 2 * 1.5 * inherited
    assert (u.value_error == 3.0 * flow) == (domain.kind == "interval")


def test_grid_data_within_roundoff_of_the_walls_still_evolve():
    """The window admits a lattice that misses the extent by 1e-9 relative."""
    gf = _sine_grid(1.0 - 1e-10)
    u = heat_evolve_dirichlet(gf, DomainSpec.interval(0.0, 1.0), 0.05, (0.0, 1.0, 1.0 / 8))
    assert np.all(np.isfinite(u.values)) and u.values.size == 9


@pytest.mark.parametrize("make", [
    lambda: DomainSpec.interval(1.0, 0.0),
    lambda: DomainSpec.interval(0.0, 0.0),
    lambda: DomainSpec.interval(0.0, np.nan),
    lambda: DomainSpec.rectangle(((0.0, 1.0), (2.0, 2.0))),
    lambda: DomainSpec.interval(0.0, 1.0, ell=np.nan),
    lambda: DomainSpec.interval(0.0, 1.0, ell=np.inf),
    lambda: DomainSpec.half_line(-np.inf),
    lambda: DomainSpec.rectangle(((0.0, 1.0), (0.0, 1.0)), ell=np.nan),
    lambda: heat_evolve_free(_SIN, np.inf, (-2.0, 2.0, 1.0 / 8)),
    lambda: heat_evolve_free(_SIN, np.nan, (-2.0, 2.0, 1.0 / 8)),
    lambda: heat_evolve_free(_SIN, 0.0, (-2.0, 2.0, 1.0 / 8)),
    lambda: heat_evolve_dirichlet(_SIN, DomainSpec.interval(-2.0, 2.0), np.inf,
                                  (-2.0, 2.0, 1.0 / 8)),
    lambda: heat_evolve_dirichlet(_SIN, DomainSpec.interval(-2.0, 2.0), np.nan,
                                  (-2.0, 2.0, 1.0 / 8)),
    lambda: heat_evolve_dirichlet(_SIN, DomainSpec.half_line(), -1.0, (0.0, 2.0, 1.0 / 8)),
], ids=["interval_reversed", "interval_empty", "interval_nan", "rectangle_flat_axis",
        "interval_ell_nan", "interval_ell_inf", "half_line_ell_-inf", "rectangle_ell_nan",
        "free_t_inf", "free_t_nan", "free_t_0", "interval_t_inf", "interval_t_nan",
        "half_line_t_-1"])
def test_degenerate_domains_raise_a_typed_error(make):
    """A DomainError, which is still a ValueError for library callers: for
    a degenerate box, a wall value that is not finite, and a time outside
    (0, inf).  An infinite time divided by zero in free space, a NaN time
    failed in int(), and on the interval both passed numpy warnings and
    then a misleading "datum must be bounded"."""
    with pytest.raises(DomainError) as info:
        make()
    assert isinstance(info.value, ValueError)


# -- every path ---------------------------------------------------------------


_SIN = InitialDatum(fn=lambda x: np.sin(np.pi * np.asarray(x, float)),
                    growth_a=1.0, growth_A=0.0)
_SIN2 = InitialDatum(fn=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
                     growth_a=1.0, growth_A=0.0)
_G8 = (0.0, 1.0, 1.0 / 8)


_META_KEYS = {"t", "quad_error", "roundoff_error", "kernel_method", "fft_block",
              "kernel_len", "lattice_factor", "lattice_factors", "converged",
              "refine_history", "tail_bound", "truncation_radius", "inherited_error"}
_BOX = DomainSpec.interval(0.0, 1.0)


def _gauss_taps(H, dim=1):
    """Free space and the half line: the Gaussian reaches R (rounded up to
    whole output cells H) to either side, m lattice nodes a cell."""
    return lambda m, R: [2 * int(np.ceil(R / H)) * m + 1] * dim


# kernel_rounds: the kernel samples carry a rounding bound (box domains);
# taps(m, R): the expected kernel_len at lattice factor m, radius R
@pytest.mark.parametrize("evolve, method, kernel_rounds, taps", [
    (lambda: heat_evolve_free(_SIN, 0.05, (-1.0, 1.0, 1.0 / 16)), "direct", False,
     _gauss_taps(1.0 / 16)),
    (lambda: heat_evolve_free(_SIN, 0.05, (-1.0, 1.0, 1.0 / 2048)), "fft", False,
     _gauss_taps(1.0 / 2048)),
    (lambda: heat_evolve_free(_SIN2, 0.05, (_G8, _G8)), "matrix", False,
     _gauss_taps(1.0 / 8, dim=2)),
    # the interval's circular period, twice its lattice cells
    (lambda: heat_evolve_dirichlet(_SIN, _BOX, 0.05, _G8), "spectral", True,
     lambda m, R: [2 * 8 * m]),
    (lambda: heat_evolve_dirichlet(_SIN, _BOX, 0.05, (0.0, 1.0, 1.0 / 2048)), "spectral", True,
     lambda m, R: [2 * 2048 * m]),
    (lambda: heat_evolve_dirichlet(_SIN, DomainSpec.interval(0.0, 0.1), 4.0,
                                   (0.0, 0.1, 0.1 / 16)), "spectral", True,
     lambda m, R: [2 * 16 * m]),
    # the free path's record: the half line is the free flow of its odd
    # extension, with a tail bound and a truncation radius of its own
    (lambda: heat_evolve_dirichlet(_SIN, DomainSpec.half_line(), 0.05,
                                   (0.0, 2.0, 1.0 / 8)), "direct", False,
     _gauss_taps(1.0 / 8)),
    # the image sum's samples over one and a half periods
    (lambda: heat_evolve_dirichlet(_SIN2, DomainSpec.rectangle(((0.0, 1.0), (0.0, 1.0))),
                                   0.05, (_G8, _G8)), "matrix", True,
     lambda m, R: [3 * 8 * m + 1] * 2),
], ids=["free_1d", "free_1d_fft", "free_2d", "interval", "interval_fft",
        "interval_sine", "half_line", "rectangle"])
def test_every_path_records_the_same_meta(evolve, method, kernel_rounds, taps):
    u = evolve()
    assert set(u.meta) == _META_KEYS
    R = u.meta["truncation_radius"]
    # boxes need no truncation; free space and the half line reach past
    # 4 sqrt(4 t)
    assert (R is None) == kernel_rounds
    assert R is None or R >= 4.0 * np.sqrt(4.0 * u.meta["t"])
    assert u.meta["kernel_len"] == taps(u.meta["lattice_factor"], R)
    assert u.meta["t"] in (0.05, 4.0)
    assert u.meta["kernel_method"] == method
    K = u.meta["kernel_len"][0]
    assert u.meta["fft_block"] == (K // heatflow._LONG_BLOCK if method == "fft" else None)
    assert u.meta["converged"]
    assert (method in ("fft", "matrix", "spectral") or kernel_rounds) == (
        u.meta["roundoff_error"] > 0)
    assert (u.meta["tail_bound"] == 0.0) == kernel_rounds
    assert u.meta["quad_error"] + u.meta["roundoff_error"] <= u.value_error
    assert u.meta["lattice_factor"] >= 2
    # one factor per axis; these grids space every axis alike
    assert u.meta["lattice_factors"] == [u.meta["lattice_factor"]] * len(u.meta["kernel_len"])


# -- kernel operator -----------------------------------------------------------


def _operator_case(N, K, m, n, box, seed=3):
    """Random data psi of length N and a kernel of length K, laid out for n
    outputs at stride m."""
    assert (K - N if box else N - K) == (n - 1) * m
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(N)
    kern = np.exp(-np.linspace(-3.0, 3.0, K) ** 2) + 0.1 * rng.random(K)
    return psi, kern


# (N, K, m, n, box): free space has N = K + (n - 1) m; a Dirichlet box
# matrix applies a kernel longer than its (reflected) data, K = N + (n - 1) m,
# which _kernel_apply, whose data are at least as long as the kernel, never sees
_OPERATOR_CASES = [
    (2305 + 4096, 2305, 1, 4097, False),
    (4609 + 1024 * 4, 4609, 4, 1025, False),
    (6145 + 512 * 16, 6145, 16, 513, False),
    (4097, 8193, 1, 4097, True),
    (8193, 16385, 16, 513, True),
    (129, 257, 16, 9, True),
    (97 + 32 * 8, 97, 8, 33, False),
]


@pytest.mark.parametrize("N, K, m, n, box", [c for c in _OPERATOR_CASES if not c[-1]])
def test_fft_operator_stays_within_its_roundoff_bound(N, K, m, n, box):
    """Overlap-save over long and over short blocks each meets the direct
    sums within its own bound at every output; _kernel_apply, with no
    tolerance, keeps the long blocks of long kernels."""
    psi, kern = _operator_case(N, K, m, n, box)
    ref = np.convolve(psi, kern, mode="valid")
    for B in (K // heatflow._LONG_BLOCK, K // heatflow._SHORT_BLOCK):
        u, bound = _valid(psi, kern, B)
        assert u.shape == bound.shape == ref.shape
        assert np.all(np.abs(u - ref) <= bound)
    u, roundoff, method, block = _kernel_apply(psi, m, kern)
    fft = min(N, K) >= heatflow._FFT_MIN_LEN
    assert (method, block) == (("fft", K // heatflow._LONG_BLOCK) if fft else ("direct", None))
    assert u.shape == (n,)
    assert np.all(np.abs(u - ref[::m]) <= roundoff * (1.0 + np.abs(u)))
    if method == "fft":
        assert 0.0 < roundoff < 1e-9


@pytest.mark.parametrize("N, K, m, n, box", _OPERATOR_CASES)
def test_kernel_matrix_applies_the_operator(N, K, m, n, box):
    psi, kern = _operator_case(N, K, m, n, box)
    u = np.convolve(psi, kern, mode="valid")[::m]
    mat = _kernel_matrix(N, m, n, kern)
    assert mat.shape == (n, N)
    assert np.max(np.abs(mat @ psi - u) / (1.0 + np.abs(u))) < 1e-12


def _along(arr, mat, k):
    """mat applied along axis k of arr, sum_l mat[i, l] arr[..., l, ...], as
    one matrix product: arr @ mat.T along the last axis, else mat times the
    columns of axis k of each index before it."""
    if k == arr.ndim - 1:
        return arr @ mat.T
    pre, rest = arr.shape[:k], arr.shape[k + 1:]
    return (mat @ arr.reshape(int(np.prod(pre)), arr.shape[k], -1)).reshape(
        pre + (len(mat),) + rest)


def _dense_separable(vals, weights, mats):
    """The n-axis operator as one dense product per axis, in the streamed
    order: axes n-1, ..., 1, then 0, each weighting the data along it and
    applying its whole matrix.  Arrays of np.longdouble give the reference
    in extended precision."""
    n, u = len(mats), vals
    for k in [*range(n - 1, 0, -1), 0]:
        u = _along(u * weights[k][(...,) + (None,) * (n - 1 - k)], mats[k], k)
    return u


def _lattice(vals):
    """A sampler and lattice axes that read the array vals: the coordinates
    of axis k are its indices, so a slab of lattice rows reads vals[rows].
    Every call's rows are recorded on sample.rows."""
    def sample(rows, *_):
        sample.rows.append(rows.astype(int))
        return vals[rows.astype(int)]

    sample.rows = []
    return sample, [np.arange(n, dtype=float) for n in vals.shape]


def _free_case(axes, seed=5):
    """Random lattice values, Simpson weights and free-space kernel matrices
    of (K, m, n) per axis, N = K + (n - 1) m nodes."""
    rng = np.random.default_rng(seed)
    mats, weights = [], []
    for K, m, n in axes:
        kern = gauss_kernel(np.linspace(-4.0, 4.0, K), 1.0) * (1.0 + 0.1 * rng.random(K))
        N = K + (n - 1) * m
        mats.append(_kernel_matrix(N, m, n, kern))
        weights.append(piecewise_simpson_weights(np.linspace(0.0, 1.0, N), [0, N - 1]))
    vals = rng.standard_normal([K + (n - 1) * m for K, m, n in axes])
    return vals, weights, mats, (0.0,) * len(axes), [m for _, m, _ in axes]


def _box_case(Ls, ms, ns, t=0.05, seed=7):
    """Random lattice values, Simpson weights, folded Dirichlet matrices
    and their kernel rounding bounds of a box with sides Ls."""
    axes = [np.linspace(0.0, L, (n - 1) * m + 1) for L, m, n in zip(Ls, ms, ns)]
    kerns, deltas = zip(*(_dirichlet_kernels(L, t, y.size - 1) for L, y in zip(Ls, axes)))
    full = [_kernel_matrix(2 * y.size - 1, m, n, k)
            for y, m, n, k in zip(axes, ms, ns, kerns)]
    mats = [f[:, y.size - 1:] - f[:, y.size - 1::-1] for f, y in zip(full, axes)]
    weights = [piecewise_simpson_weights(y, [0, y.size - 1]) for y in axes]
    vals = np.random.default_rng(seed).standard_normal([y.size for y in axes])
    return vals, weights, mats, deltas, (0,) * len(axes)


# (K, m, n) per axis of a free lattice, N = K + (n - 1) m nodes: flow-2d's
# 193^2 Gaussian; n = 33 one row past a block at m = 1; one block; and a 3D
# lattice whose n = 70 is no multiple of the block height
@pytest.mark.parametrize("axes", [
    ((585, 4, 193), (585, 4, 193)),
    ((65, 1, 33), (33, 2, 17)),
    ((49, 3, 9), (17, 1, 5)),
    ((33, 2, 70), (9, 1, 3), (17, 2, 4)),
], ids=["flow_2d_gaussian", "m1_one_row_past_a_block", "one_block", "3d"])
def test_banded_contraction_meets_the_dense_product(axes):
    """Each axis applied by blocks of _BAND_ROWS rows over their bands
    meets the dense product of the whole kernel matrices within
    _separable's own roundoff bound."""
    vals, weights, mats, errs, steps = _free_case(axes)
    u, roundoff, method = _separable(*_lattice(vals), weights, mats, errs, steps)
    ref = _dense_separable(vals, weights, mats)
    assert method == "matrix" and u.shape == ref.shape == tuple(n for *_, n in axes)
    assert 0.0 < roundoff < 1e-11
    assert np.all(np.abs(u - ref) <= roundoff * (1.0 + np.abs(u)))


def test_box_matrices_take_one_block_bit_for_bit():
    """A folded box matrix is dense: its band is every column, so each axis
    is one block, and the streamed contraction is the dense product in the
    same order bit for bit, even past _BAND_ROWS rows."""
    ns = (2 * _BAND_ROWS + 9, 9)
    vals, weights, mats, deltas, steps = _box_case((2.0, 1.0), (2, 3), ns)
    u, roundoff, _ = _separable(*_lattice(vals), weights, mats, deltas, steps)
    assert u.shape == ns and roundoff > 0.0
    assert np.array_equal(u, _dense_separable(vals, weights, mats))


def _slabs(vals):
    """The row ranges _separable walks a lattice of vals' shape in."""
    height = max(1, heatflow._SLAB_NODES // int(np.prod(vals.shape[1:])))
    return [np.arange(r0, min(r0 + height, len(vals))) for r0 in range(0, len(vals), height)]


@pytest.mark.parametrize("case", [
    lambda: _free_case(((585, 4, 193), (585, 4, 193))),
    lambda: _box_case((2.0, 1.0), (2, 2), (97, 97)),
    lambda: _free_case(((33, 2, 12), (17, 2, 9), (9, 1, 20))),
    lambda: _box_case((1.0, 0.75, 0.5), (2, 2, 2), (9, 7, 5)),
    # a row of 1000 nodes: slabs of 16 rows, the last of 129 holds one
    lambda: _free_case(((65, 2, 33), (801, 1, 200))),
    # a row of 131^2 = 17161 nodes, above _SLAB_NODES: slabs of one row
    lambda: _free_case(((9, 1, 4), (129, 1, 3), (129, 1, 3))),
], ids=["flow_2d_free", "2d_box", "3d_free", "3d_box", "ragged_last_slab", "row_above_a_slab"])
def test_roundoff_bound_holds_against_an_extended_precision_product(case):
    """The streamed contraction meets the same weighted products taken in
    np.longdouble within its roundoff bound at every output, and reads
    each lattice row once, in slabs of at most _SLAB_NODES nodes (or one
    row)."""
    vals, weights, mats, errs, steps = case()
    sample, axes = _lattice(vals)
    u, roundoff, _ = _separable(sample, axes, weights, mats, errs, steps)
    ref = _dense_separable(vals.astype(np.longdouble),
                           [w.astype(np.longdouble) for w in weights],
                           [np.asarray(m, dtype=np.longdouble) for m in mats])
    assert 0.0 < roundoff < 1e-11
    err = np.abs(u - ref).astype(float)
    assert np.all(err <= roundoff * (1.0 + np.abs(u)))
    assert [list(r) for r in sample.rows] == [list(r) for r in _slabs(vals)]
    assert all(r.size * vals[0].size <= heatflow._SLAB_NODES or r.size == 1
               for r in sample.rows)


def test_fast_growing_data_fall_back_to_direct_sums():
    """|psi| spans hundreds of decades inside one block, so the FFT bound
    exceeds the tolerance and the sums are taken directly, bit for bit."""
    h, p, n = 1.0 / 256, 5000, 1025
    y = h * np.arange(-p, p + n)
    psi = h * np.exp(0.2 * y * y)
    kern = gauss_kernel(h * np.arange(-p, p + 1), 0.5)
    u, roundoff, method, block = _kernel_apply(psi, 1, kern, tol=1e-11)
    assert (method, roundoff, block) == ("direct", 0.0, None)
    assert np.array_equal(u, np.convolve(psi, kern, mode="valid"))
    A, t = 0.2, 0.5
    phi = InitialDatum(fn=lambda x: np.exp(A * x * x), growth_a=1.0, growth_A=A)
    u = heat_evolve_free(phi, t, (-2.0, 2.0, 1.0 / 256))
    assert u.meta["kernel_method"] == "direct"
    shrink = 1.0 - 4.0 * A * t
    x = u.axes()[0]
    assert rel_err(u.values, shrink ** -0.5 * np.exp(A * x * x / shrink)) < 1e-8


def test_fft_evolution_of_exp_abs_meets_the_closed_form():
    from scipy.special import ndtr
    t = 0.1
    phi = InitialDatum(fn=lambda x: np.exp(np.abs(x)), growth_a=np.e,
                       growth_A=0.25, breakpoints=(0.0,))
    u = heat_evolve_free(phi, t, (-8.0, 8.0, 1.0 / 1024))
    x = u.axes()[0]
    s = np.sqrt(2.0 * t)
    exact = (np.exp(x + t) * ndtr((x + 2.0 * t) / s)
             + np.exp(-x + t) * ndtr((-x + 2.0 * t) / s))
    assert u.meta["kernel_method"] == "fft"
    assert rel_err(u.values, exact) <= min(u.value_error, 1e-13)


def _spy_valid(monkeypatch):
    """Every _valid call of the evolutions that follow, as (f, g, B)."""
    calls = []
    valid = heatflow._valid

    def spy(f, g, B):
        calls.append((f, g, B))
        return valid(f, g, B)

    monkeypatch.setattr(heatflow, "_valid", spy)
    return calls


def test_fft_evolution_of_a_gaussian_keeps_the_long_blocks(monkeypatch):
    """The Gaussian's long-block bound stays within tol / 100 on every pass,
    and the result meets the heat kernel at t0 + t within value_error."""
    calls = _spy_valid(monkeypatch)
    t0, t = 0.5, 0.1
    phi = InitialDatum(fn=lambda x: gauss_kernel(x, t0), growth_a=1.0)
    u = heat_evolve_free(phi, t, (-8.0, 8.0, 1.0 / 1024))
    (K,) = u.meta["kernel_len"]
    assert u.values.shape == (16385,)
    assert (u.meta["kernel_method"], u.meta["fft_block"]) == ("fft", K // 2)
    assert [B for _, g, B in calls] == [g.size // 2 for _, g, _ in calls]
    assert rel_err(u.values, gauss_kernel(u.axes()[0], t0 + t)) <= u.value_error


def test_fft_evolution_of_exp_abs_keeps_the_short_blocks(monkeypatch):
    """exp |x| spans too many decades for long blocks: the first pass tries
    them and falls back to blocks of K // 8, the doubling starts there, and
    the values are the decimated K // 8 overlap-save sums bit for bit."""
    calls = _spy_valid(monkeypatch)
    phi = InitialDatum(fn=lambda x: np.exp(np.abs(x)), growth_a=np.e,
                       growth_A=0.25, breakpoints=(0.0,))
    u = heat_evolve_free(phi, 0.1, (-8.0, 8.0, 1.0 / 1024))
    (K,) = u.meta["kernel_len"]
    m = u.meta["lattice_factor"]
    assert (u.meta["kernel_method"], u.meta["fft_block"]) == ("fft", K // 8)
    assert [g.size // B for _, g, B in calls] == [2, 8] + [8] * (len(calls) - 2)
    (f, g, _), (f_first, g_first, B_long) = calls[-1], calls[0]
    long, bound = _valid(f_first, g_first, B_long)
    assert np.max(bound / (1.0 + np.abs(long))) > 1e-13
    assert np.array_equal(u.values, _valid(f, g, K // 8)[0][::m])


def _spy_lattices(monkeypatch):
    """The lattice shape of every n-axis pass of the evolutions that follow."""
    shapes = []
    separable = heatflow._separable

    def spy(sample, axes, *args):
        shapes.append(tuple(y.size for y in axes))
        return separable(sample, axes, *args)

    monkeypatch.setattr(heatflow, "_separable", spy)
    return shapes


@pytest.mark.parametrize("evolve", [
    lambda: heat_evolve_free(_SIN2, 0.05, (_G8, _G8), max_refine=heatflow._MAX_REFINE),
    lambda: heat_evolve_dirichlet(
        _SIN2, DomainSpec.rectangle(((0.0, 1.0), (0.0, 1.0))), 0.05, (_G8, _G8)),
], ids=["free_2d", "rectangle"])
def test_node_budget_keeps_the_last_finished_pass(evolve, monkeypatch):
    """Each evolution refines up to heatflow._MAX_REFINE doublings here."""
    def capped_at(max_refine):
        monkeypatch.setattr(heatflow, "_MAX_REFINE", max_refine)
        return evolve()

    lattices = _spy_lattices(monkeypatch)
    monkeypatch.setattr(heatflow, "_QUAD_TOL", 1e-30)
    full = capped_at(3)
    assert len(lattices) == 4 and not full.meta["converged"]
    one = capped_at(1)
    # room for the lattice of the first doubling, not for the second
    monkeypatch.setattr(heatflow, "_MAX_LATTICE_NODES", int(np.prod(lattices[1])))
    del lattices[:]
    capped = capped_at(3)
    assert len(lattices) == 2
    assert capped.meta["lattice_factor"] == one.meta["lattice_factor"]
    assert capped.meta["lattice_factor"] * 4 == full.meta["lattice_factor"]
    assert capped.meta["lattice_factors"] == one.meta["lattice_factors"]
    assert [4 * m for m in capped.meta["lattice_factors"]] == full.meta["lattice_factors"]
    assert not capped.meta["converged"]
    assert np.array_equal(capped.values, one.values)
    assert capped.value_error == one.value_error
    assert (capped.meta["quad_error"] + capped.meta["roundoff_error"]
            <= capped.value_error < 1e-3)


# -- per-axis lattice factors -----------------------------------------------


@pytest.mark.parametrize("spacings, t, datum_hs", [
    ((1.0 / 16,), 0.05, None),
    ((1.0 / 1024,), 0.1, None),
    ((0.5,), 1e-4, (0.01,)),
    ((1.0 / 8, 1.0 / 8), 0.05, None),
    ((8.0 / 192, 8.0 / 192), 0.1, None),
    ((0.125,) * 3, 0.25, (0.01,) * 3),
])
def test_one_axis_and_equal_spacings_keep_one_lattice_factor(spacings, t, datum_hs):
    """Where every axis, and every axis of grid data, is spaced alike, each
    axis gets the one factor of the finest spacing: max H over min(H,
    sqrt(t)/8, datum spacing), rounded up."""
    h = min(*spacings, np.sqrt(t) / 8.0, *(datum_hs or ()))
    m = max(1, int(np.ceil(max(spacings) / h - 1e-12)))
    assert _start_factor(spacings, t, datum_hs) == (m,) * len(spacings)


def test_rectangle_of_unequal_spacings_refines_each_axis_on_its_own(monkeypatch):
    """On (0, 2) x (0, 1), 193^2, both spacings resolve sqrt(t)/8 = 0.028:
    the lattices are 193^2 and 385^2, not the 385^2 and 769^2 of refining
    both axes to the finer spacing.  The node budget counts that lattice."""
    t = 0.05
    phi = InitialDatum(fn=lambda x, y: np.sin(np.pi * x / 2) * np.sin(np.pi * y))
    rect = DomainSpec.rectangle(((0.0, 2.0), (0.0, 1.0)))
    grids = ((0.0, 2.0, 2.0 / 192), (0.0, 1.0, 1.0 / 192))
    shapes = _spy_lattices(monkeypatch)
    u = heat_evolve_dirichlet(phi, rect, t, grids)
    assert shapes == [(193, 193), (385, 385)]
    assert u.meta["lattice_factors"] == [2, 2] and u.meta["lattice_factor"] == 2
    assert [m for m, _ in u.meta["refine_history"]] == [1, 2]
    a, b = u.axes()
    exact = np.exp(-1.25 * np.pi ** 2 * t) * np.outer(np.sin(np.pi * a / 2), np.sin(np.pi * b))
    assert u.meta["converged"]
    assert rel_err(u.values, exact) <= u.value_error < 1e-12
    monkeypatch.setattr(heatflow, "_MAX_LATTICE_NODES", 385 ** 2)
    fits = heat_evolve_dirichlet(phi, rect, t, grids)
    assert np.array_equal(fits.values, u.values) and fits.meta == u.meta
    monkeypatch.setattr(heatflow, "_MAX_LATTICE_NODES", 385 ** 2 - 1)
    first = heat_evolve_dirichlet(phi, rect, t, grids)
    assert first.meta["lattice_factors"] == [1, 1] and not first.meta["converged"]


def test_free_gaussian_product_on_unequal_axes(monkeypatch):
    """H = 1/8 along x needs factor 4 to reach sqrt(t)/8 = 0.0395, H = 1/32
    along y none; every doubling doubles both."""
    s, t = 0.25, 0.1
    phi = InitialDatum(fn=lambda x, y: gauss_kernel(x, s) * gauss_kernel(y, s),
                       growth_a=float(gauss_kernel(0.0, s)) ** 2)
    shapes = _spy_lattices(monkeypatch)
    u = heat_evolve_free(phi, t, ((-4.0, 4.0, 1.0 / 8), (-2.0, 2.0, 1.0 / 32)))
    m0, m1 = u.meta["lattice_factors"]
    assert m0 == 4 * m1 and u.meta["lattice_factor"] == m0
    assert u.meta["refine_history"][0][0] == 4 and len(shapes) == len(u.meta["refine_history"])
    # each axis: 2 margins of ceil(R / H) cells and n - 1 output cells, m_k nodes a cell
    R = u.meta["truncation_radius"]
    assert shapes[-1] == tuple((2 * int(np.ceil(R / H)) + n - 1) * m + 1
                               for H, n, m in ((1.0 / 8, 65, m0), (1.0 / 32, 129, m1)))
    x, y = u.axes()
    exact = np.outer(gauss_kernel(x, s + t), gauss_kernel(y, s + t))
    assert u.meta["converged"]
    assert rel_err(u.values, exact) <= u.value_error < 1e-9


def test_grid_data_of_unequal_spacings_set_each_axis_factor(monkeypatch):
    """Grid data spaced 0.1 along x and 0.025 along y, on outputs spaced
    1/8: x needs factor 2 (sqrt(t)/8 = 0.0625), y factor 5 (its datum's
    spacing).  xy is linear along each axis, so the monotone cubics read it
    exactly, and its heat flow is xy itself."""
    x, y = np.linspace(-6.0, 6.0, 121), np.linspace(-6.0, 6.0, 481)
    gf = GridFunction(values=np.outer(x, y), extent=((-6.0, 6.0), (-6.0, 6.0)),
                      growth_a=36.0)
    assert _resolve_datum(gf, 2)[4] == gf.spacing
    shapes = _spy_lattices(monkeypatch)
    g = (-1.0, 1.0, 1.0 / 8)
    u = heat_evolve_free(gf, 0.25, (g, g))
    m0, m1 = u.meta["lattice_factors"]
    assert 5 * m0 == 2 * m1 and u.meta["refine_history"][0][0] == 5
    # both axes: 2 margins of ceil(R / H) cells and 16 output cells
    cells = 2 * int(np.ceil(u.meta["truncation_radius"] * 8)) + 16
    assert shapes[0] == (2 * cells + 1, 5 * cells + 1)
    a, b = u.axes()
    assert u.meta["converged"]
    # growth_a = 36 sets the tail bound, 3.6e-9
    assert rel_err(u.values, np.outer(a, b)) <= u.value_error < 1e-8


def _counting(datum):
    """datum with a list that records every point set it is sampled on."""
    calls = []

    def fn(*xs):
        calls.append(xs)
        return datum.fn(*xs)

    return InitialDatum(fn=fn, growth_a=datum.growth_a, growth_A=datum.growth_A), calls


def test_first_lattice_above_the_budget_is_refused_before_sampling(monkeypatch):
    gauss2 = InitialDatum(fn=lambda x, y: gauss_kernel(x, 0.5) * gauss_kernel(y, 0.5),
                          growth_a=float(gauss_kernel(0.0, 0.5)) ** 2)
    g = (-2.0, 2.0, 0.125)
    # 33 x 33 outputs at t = 1e-4 start at m = 100: 3401^2 nodes, above 2^23
    phi, calls = _counting(gauss2)
    with pytest.raises(DomainError, match="11566801 nodes, above the budget of 8388608"):
        heat_evolve_free(phi, 1e-4, (g, g))
    assert calls == []
    monkeypatch.setattr(heatflow, "_MAX_LATTICE_NODES", 1000)
    for evolve in (lambda d: heat_evolve_free(d, 0.05, (_G8, _G8)),
                   lambda d: heat_evolve_dirichlet(d, _UNIT_SQUARE, 0.05, (_G8, _G8))):
        phi, calls = _counting(_SIN2)
        with pytest.raises(DomainError, match="budget of 1000"):
            evolve(phi)
        assert calls == []


_G33 = (-2.0, 2.0, 0.125)  # 33 nodes
_SIN3 = InitialDatum(fn=lambda x, y, z: np.sin(np.pi * x) * np.sin(np.pi * y / 0.75)
                     * np.sin(np.pi * z / 0.5))


@pytest.mark.parametrize("evolve, datum", [
    (lambda d: heat_evolve_free(d, 0.05, (_G33, _G33)),
     InitialDatum(fn=lambda x, y: np.exp(-x * x - y * y))),
    (lambda d: heat_evolve_dirichlet(d, _UNIT_SQUARE, 0.05, (_G8, _G8)), _SIN2),
    (lambda d: heat_evolve_dirichlet(
        d, DomainSpec.rectangle(((0.0, 1.0), (0.0, 0.75), (0.0, 0.5))), 0.05,
        [(0.0, hi, 1.0 / 8) for hi in (1.0, 0.75, 0.5)]), _SIN3),
], ids=["free_2d", "box_2d", "box_3d"])
def test_each_pass_samples_every_lattice_node_once(evolve, datum, monkeypatch):
    """The datum is called once per slab of lattice rows, on at most
    _SLAB_NODES nodes (or one row), and its calls cover each pass' lattice
    once: their broadcast sizes sum to the passes' node counts."""
    lattices = _spy_lattices(monkeypatch)
    phi, calls = _counting(datum)
    u = evolve(phi)
    assert len(lattices) == len(u.meta["refine_history"]) >= 2
    sizes = [np.broadcast(*xs).size for xs in calls]
    assert sum(sizes) == sum(int(np.prod(shape)) for shape in lattices)
    assert all(size <= heatflow._SLAB_NODES or xs[0].size == 1
               for size, xs in zip(sizes, calls))


def test_the_flow_2d_gaussian_allocates_no_lattice(monkeypatch):
    """flow-2d's 193^2 Gaussian product samples a last lattice of 1353^2
    doubles, 14.6 MB; streamed in slabs, its evolution allocates at most a
    quarter of that at any time, and meets the closed form."""
    lattices = _spy_lattices(monkeypatch)
    t0, t = 0.25, 0.1
    phi = InitialDatum(fn=lambda x, y: gauss_kernel(x, t0) * gauss_kernel(y, t0),
                       growth_a=float(gauss_kernel(0.0, t0)) ** 2)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        u = heat_evolve_free(phi, t, ((-4.0, 4.0, 8.0 / 192),) * 2)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert lattices[-1] == (1353, 1353)
    assert peak < 8 * 1353 ** 2 / 4
    x, y = u.axes()
    exact = np.outer(gauss_kernel(x, t0 + t), gauss_kernel(y, t0 + t))
    assert rel_err(u.values, exact) <= u.value_error < 1e-9


@pytest.mark.parametrize("evolve, datum", [
    (lambda d: heat_evolve_free(d, 0.05, (_G33, _G33)),
     InitialDatum(fn=lambda x, y: np.exp(-x * x - y * y))),
    (lambda d: heat_evolve_free(d, 0.05, (_G33, _G33)),
     InitialDatum(fn=lambda xi: np.exp(-xi * xi), direction=(1.0, 0.0))),
    (lambda d: heat_evolve_free(d, 0.05, (_G33, _G33)),
     InitialDatum(fn=lambda xi: np.exp(-xi * xi), direction=(0.6, 0.8))),
    (lambda d: heat_evolve_dirichlet(d, DomainSpec.rectangle(((-2.0, 2.0),) * 2), 0.05,
                                     (_G33, _G33)),
     InitialDatum(fn=lambda x, y: np.cos(np.pi * x / 4) * np.cos(np.pi * y / 4))),
], ids=["plain", "axis_ridge", "oblique_ridge", "rectangle"])
def test_output_grid_above_the_budget_is_refused_before_the_datum_is_called(
        evolve, datum, monkeypatch):
    """33 x 33 outputs against a budget of 1000 nodes: every path sizes the
    grid first, the ridge that gathers its line onto the grid included."""
    monkeypatch.setattr(heatflow, "_MAX_LATTICE_NODES", 1000)
    calls = []

    def fn(*xs):
        calls.append(xs)
        return datum.fn(*xs)

    with pytest.raises(DomainError, match="output grid of 33 x 33 nodes is above the "
                                          "budget of 1000"):
        evolve(replace(datum, fn=fn))
    assert calls == []


def test_grid_sizes_are_counted_not_built(monkeypatch):
    """A spacing of 1e-9 on (-8, 8), or one whose cell count overflows, is
    refused by its count; a grid at the budget is built."""
    for grid in ((-8.0, 8.0, 1e-9), (0.0, 1.0, 5e-324), (-1e308, 1e308, 1.0)):
        with pytest.raises(DomainError, match="above the budget of 8388608"):
            grid_nodes(*grid)
        with pytest.raises(DomainError, match="above the budget of 8388608"):
            heat_evolve_free(InitialDatum(fn=np.cos), 0.1, grid)
    with pytest.raises(DomainError, match="output grid of 1.6e\\+10 nodes"):
        grid_nodes(-8.0, 8.0, 1e-9)
    monkeypatch.setattr(heatflow, "_MAX_LATTICE_NODES", 1000)
    assert grid_nodes(0.0, 1.0, 1.0 / 999).size == 1000
    with pytest.raises(DomainError, match="output grid of 1001 nodes"):
        grid_nodes(0.0, 1.0, 1.0 / 1000)
    with pytest.raises(ValueError, match="empty grid extent"):
        grid_nodes(1.0, 1.0, 0.1)
    assert grid_nodes(0.0, 1.0, 0.3).tolist() == [0.0, 1.0 / 3, 2.0 / 3, 1.0]
    assert grid_nodes(0.0, 1.0, 5.0).tolist() == [0.0, 1.0]


@pytest.mark.parametrize("h", [0.0, -0.1, np.inf, np.nan], ids=["zero", "negative", "inf", "nan"])
@pytest.mark.parametrize("call", [
    lambda phi, h: heat_evolve_free(phi, 0.1, (-1.0, 1.0, h)),
    lambda phi, h: heat_evolve_dirichlet(phi, DomainSpec.interval(0.0, 1.0), 0.1, (0.0, 1.0, h)),
    lambda phi, h: heat_evolve_dirichlet(phi, DomainSpec.half_line(), 0.1, (0.0, 1.0, h)),
    lambda phi, h: grid_nodes(-1.0, 1.0, h),
    lambda phi, h: hunt_violation(make_power_alpha(2.0), phi, (0.1,), (-1.0, 1.0, h)),
], ids=["free", "interval", "half_line", "grid_nodes", "hunt"])
def test_a_spacing_that_is_not_finite_and_positive_is_refused(call, h):
    """h = 0 divided by zero, h = -0.1 and h = inf returned a 2-node grid,
    and h = nan failed in round: each is a DomainError before any sample."""
    phi, calls = _counting(_SIN)
    with pytest.raises(DomainError, match="needs finite bounds and spacings h > 0"):
        call(phi, h)
    assert calls == []


@pytest.mark.parametrize("lo, hi", [(-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0)])
def test_a_bound_that_is_not_finite_is_refused(lo, hi):
    with pytest.raises(DomainError, match="needs finite bounds"):
        grid_nodes(lo, hi, 0.1)
    with pytest.raises(DomainError, match="needs finite bounds"):
        heat_evolve_free(_SIN, 0.1, (lo, hi, 0.1))


def test_3d_gaussian_product_meets_the_closed_form(monkeypatch):
    """The same lines evolve three axes.  In free space the first lattice
    spans 8 sqrt(t) beyond the outputs on each side at spacing sqrt(t) / 8,
    so its first doubling has at least 257^3 nodes, above 2^23: a budget of
    2^25 lets this smallest case converge."""
    monkeypatch.setattr(heatflow, "_MAX_LATTICE_NODES", 2 ** 25)
    s, t = 0.25, 0.25
    phi = InitialDatum(fn=lambda x, y, z: gauss_kernel(x, s) * gauss_kernel(y, s)
                       * gauss_kernel(z, s), growth_a=float(gauss_kernel(0.0, s)) ** 3)
    g = (-1.0 / 16, 1.0 / 16, 1.0 / 16)
    monkeypatch.setattr(heatflow, "_QUAD_TOL", 1e-6)
    u = heat_evolve_free(phi, t, (g, g, g), eps_tail=1e-6)
    x, y, z = u.axes()
    exact = (gauss_kernel(x, s + t)[:, None, None] * gauss_kernel(y, s + t)[:, None]
             * gauss_kernel(z, s + t))
    assert u.meta["converged"] and u.values.shape == (3, 3, 3)
    assert rel_err(u.values, exact) <= u.value_error < 1e-5


def test_3d_box_meets_the_sine_product():
    L, t = (1.0, 0.75, 0.5), 0.05
    phi = InitialDatum(fn=lambda x, y, z: np.sin(np.pi * x / L[0]) * np.sin(np.pi * y / L[1])
                       * np.sin(np.pi * z / L[2]), growth_a=1.0)
    u = heat_evolve_dirichlet(phi, DomainSpec.rectangle([(0.0, l) for l in L]), t,
                              [(0.0, l, 1.0 / 8) for l in L])
    x, y, z = u.axes()
    exact = (np.exp(-np.pi ** 2 * t * sum(1.0 / l ** 2 for l in L))
             * np.sin(np.pi * x / L[0])[:, None, None] * np.sin(np.pi * y / L[1])[:, None]
             * np.sin(np.pi * z / L[2]))
    assert u.meta["converged"] and u.values.shape == (9, 7, 5)
    assert rel_err(u.values, exact) <= u.value_error < 1e-12


# -- data that read some axes only ---------------------------------------------


def test_free_datum_that_ignores_an_axis_matches_the_1d_flow():
    """A datum may return a line of the open mesh: every row of the 2D flow
    of exp(-x^2) is its 1D flow."""
    g = (-1.0, 1.0, 1.0 / 8)
    u2 = heat_evolve_free(InitialDatum(fn=lambda x, y: np.exp(-x ** 2)), 0.05, (g, g))
    u1 = heat_evolve_free(InitialDatum(fn=lambda x: np.exp(-x ** 2)), 0.05, g)
    assert u2.values.shape == (17, 17)
    assert rel_err(u2.values, u1.values[:, None]) <= u2.value_error + u1.value_error
    x = u1.axes()[0]
    exact = np.exp(-x ** 2 / 1.2) / np.sqrt(1.2)
    assert rel_err(u2.values, exact[:, None]) <= u2.value_error < 1e-8


def test_rectangle_datum_that_ignores_an_axis():
    """sin(pi x) on the unit square is the product of the 1D interval flows
    of sin(pi x) and of 1; the constant ell is held exactly."""
    phi = InitialDatum(fn=lambda x, y: np.sin(np.pi * x))
    u = heat_evolve_dirichlet(phi, _UNIT_SQUARE, 0.05, (_G8, _G8))
    ux = heat_evolve_dirichlet(_SIN, _BOX, 0.05, _G8)
    uy = heat_evolve_dirichlet(InitialDatum(fn=lambda y: np.ones_like(y)), _BOX, 0.05, _G8)
    assert rel_err(u.values, ux.values[:, None] * uy.values) <= (
        u.value_error + ux.value_error + uy.value_error)
    one = heat_evolve_dirichlet(InitialDatum(fn=lambda x, y: 1.0),
                                DomainSpec.rectangle(((0.0, 1.0), (0.0, 2.0)), ell=1.0),
                                0.05, (_G8, (0.0, 2.0, 1.0 / 8)))
    assert one.values.shape == (9, 17) and np.all(one.values == 1.0)


def test_3d_datum_that_reads_y_only(monkeypatch):
    monkeypatch.setattr(heatflow, "_MAX_LATTICE_NODES", 2 ** 25)
    s, t = 0.25, 0.25
    phi = InitialDatum(fn=lambda x, y, z: gauss_kernel(y, s),
                       growth_a=float(gauss_kernel(0.0, s)))
    g = (-1.0 / 16, 1.0 / 16, 1.0 / 16)
    monkeypatch.setattr(heatflow, "_QUAD_TOL", 1e-6)
    u = heat_evolve_free(phi, t, (g, g, g), eps_tail=1e-6)
    y = u.axes()[1]
    assert u.meta["converged"] and u.values.shape == (3, 3, 3)
    assert rel_err(u.values, gauss_kernel(y, s + t)[:, None]) <= u.value_error < 1e-5


@pytest.mark.parametrize("direction", [(1.0, 1.0), (0.0, 0.0), (np.nan, 1.0), ()])
def test_a_ridge_direction_must_be_a_finite_unit_vector(direction):
    with pytest.raises(DomainError):
        InitialDatum(fn=np.abs, direction=direction)


def test_a_ridge_of_another_dimension_is_refused():
    phi = InitialDatum(fn=np.abs, direction=(0.6, 0.8))
    with pytest.raises(ValueError):
        heat_evolve_free(phi, 0.1, (-1.0, 1.0, 0.25))
    with pytest.raises(ValueError):
        heat_evolve_dirichlet(phi, _BOX, 0.05, _G8)


def test_a_ridge_on_a_box_reads_its_profile_at_d_dot_x():
    """A box takes no ridge path: it samples the profile at d . x, bit for
    bit as a datum that computes d . x itself."""
    ridge = InitialDatum(fn=lambda xi: np.sin(np.pi * xi), direction=(0.6, 0.8))
    plain = InitialDatum(fn=lambda x, y: np.sin(np.pi * (0.6 * x + 0.8 * y)))
    u, ref = (heat_evolve_dirichlet(phi, _UNIT_SQUARE, 0.05, (_G8, _G8))
              for phi in (ridge, plain))
    assert np.array_equal(u.values, ref.values) and u.meta == ref.meta


def test_a_ridge_in_1d_evolves_on_its_mirrored_line():
    """direction (-1,) reads the profile at -x: the ridge path runs the line
    from -hi to -lo and gathers it backwards."""
    ridge = InitialDatum(fn=lambda xi: np.exp(-(xi - 0.5) ** 2), direction=(-1.0,))
    u = heat_evolve_free(ridge, 0.05, (-1.0, 2.0, 1.0 / 16))
    assert u.meta["ridge"] == {"direction": [-1.0], "line": [-2.0, 1.0, 1.0 / 16]}
    x = u.axes()[0]
    exact = np.exp(-(x + 0.5) ** 2 / 1.2) / np.sqrt(1.2)
    assert rel_err(u.values, exact) <= u.value_error < 1e-8


def test_a_1d_ridge_reads_its_line_as_it_lies():
    """Along (1,) a ridge's values are its profile's flow on the grid bit for
    bit; along (-1,) the flow on the mirrored line, reversed."""
    def fn(xi):
        return np.exp(-(xi - 0.5) ** 2)

    def flow(direction, grid):
        return heat_evolve_free(InitialDatum(fn=fn, direction=direction), 0.05, grid).values

    assert np.array_equal(flow((1.0,), (-1.0, 2.0, 1.0 / 16)),
                          flow(None, (-1.0, 2.0, 1.0 / 16)))
    assert np.array_equal(flow((-1.0,), (-1.0, 2.0, 1.0 / 16)),
                          flow(None, (-2.0, 1.0, 1.0 / 16))[::-1])


def test_refine_history_records_every_pass(monkeypatch):
    monkeypatch.setattr(heatflow, "_QUAD_TOL", 1e-30)
    u = heat_evolve_free(_SIN2, 0.05, (_G8, _G8), max_refine=3)
    hist = u.meta["refine_history"]
    m0 = hist[0][0]
    assert hist[0][1] is None and len(hist) == 4
    assert [m for m, _ in hist] == [m0, 2 * m0, 4 * m0, 8 * m0]
    assert hist[-1] == [u.meta["lattice_factor"], u.meta["quad_error"]]
    one = heat_evolve_free(_SIN2, 0.05, (_G8, _G8), max_refine=0)
    assert one.meta["refine_history"] == [[one.meta["lattice_factor"], None]]
    assert one.meta["quad_error"] == np.inf


_GRID_1D = GridFunction(values=np.zeros(9), extent=((0.0, 1.0),))
_GRID_2D = GridFunction(values=np.zeros((9, 9)), extent=((0.0, 1.0), (0.0, 1.0)))


@pytest.mark.parametrize("evolve, data_dim, flow_dim", [
    (lambda: heat_evolve_dirichlet(
        _GRID_2D, DomainSpec.interval(0.0, 1.0), 0.05, _G8), 2, 1),
    (lambda: heat_evolve_free(_GRID_1D, 0.05, (_G8, _G8)), 1, 2),
    (lambda: heat_evolve_dirichlet(
        _GRID_1D, DomainSpec.rectangle(((0.0, 1.0), (0.0, 1.0))), 0.05, (_G8, _G8)), 1, 2),
], ids=["2d_data_on_interval", "1d_data_2d_grid", "1d_data_on_rectangle"])
def test_grid_data_of_the_wrong_dimension_are_refused(evolve, data_dim, flow_dim):
    with pytest.raises(ValueError,
                       match=f"dim-{data_dim} grid data for a dim-{flow_dim} evolution"):
        evolve()


# -- growth fitting and serialization ------------------------------------------



@pytest.mark.parametrize("shape", [(1,), (0,), (1, 65), (65, 1)])
def test_grid_data_need_two_nodes_per_axis(shape):
    """An axis of one node (or none) has no spacing."""
    extent = ((-2.0, 2.0),) * len(shape)
    with pytest.raises(DomainError, match="two nodes per axis"):
        GridFunction(values=np.ones(shape), extent=extent)


def test_csv_rows_must_fill_the_axis_headers():
    text = GridFunction(values=np.arange(5.0), extent=((0.0, 1.0),)).to_csv()
    assert GridFunction.from_csv(text).values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    short = "".join(text.splitlines(keepends=True)[:-2])
    with pytest.raises(DomainError, match="3 value rows for axis headers of shape"):
        GridFunction.from_csv(short)


def test_csv_coordinates_must_sit_on_the_axis_nodes():
    """Rows whose coordinates contradict the axis headers are refused, not
    read onto the headers' grid; coordinates within a small fraction of a
    spacing, and every file to_csv writes, read back."""
    head = "# dim=1\n# axis lo=-1.0 hi=1.0 n=3\nx,value\n"
    with pytest.raises(DomainError, match="row 1 puts axis 0 at 5.0"):
        GridFunction.from_csv(head + "5,1\n7,2\n9,3\n")
    with pytest.raises(DomainError, match="row 3 puts axis 0 at 1.01"):
        GridFunction.from_csv(head + "-1,1\n0,2\n1.01,3\n")
    with pytest.raises(DomainError, match="row 2 has 1 columns"):
        GridFunction.from_csv(head + "-1,1\n2\n1,3\n")
    near = GridFunction.from_csv(head + "-1,1\n1e-7,2\n0.9999999,3\n")
    assert near.values.tolist() == [1.0, 2.0, 3.0] and near.extent == ((-1.0, 1.0),)
    x, y = np.linspace(-1.0, 2.0, 7), np.linspace(0.1, 0.7, 5)
    gf = GridFunction(values=np.add.outer(np.sin(x), y * y),
                      extent=((-1.0, 2.0), (0.1, 0.7)))
    text = gf.to_csv()
    assert np.array_equal(GridFunction.from_csv(text).values, gf.values)
    # the y column of one row moved by a node
    lines = text.splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if line.startswith("x,")) + 8
    xs, _, v = lines[k].split(",")
    lines[k] = ",".join((xs, repr(float(y[4])), v))
    with pytest.raises(DomainError, match="row 8 puts axis 1 at 0.7"):
        GridFunction.from_csv("".join(lines))


@pytest.mark.parametrize("key", ["lo", "hi", "n"])
def test_axis_header_without_a_key_names_it(key):
    """An axis header lacking lo=, hi= or n= is a DomainError naming the key,
    not a KeyError."""
    header = " ".join(f"{k}={v}" for k, v in (("lo", 0), ("hi", 1), ("n", 3)) if k != key)
    with pytest.raises(DomainError, match=f"has no {key}="):
        GridFunction.from_csv(f"# dim=1\n# axis {header}\nx,value\n0,1\n0.5,2\n1,3\n")


def test_fit_growth_envelope_certifies_samples():
    # the certificate is exact at the fitting samples; off-sample points may
    # exceed it only by the local interpolation slack
    a, A = fit_growth_envelope(lambda x: np.exp(np.abs(x)), (-8.0, 8.0))
    x = np.linspace(-8, 8, 801)
    assert np.all(np.exp(np.abs(x)) <= a * np.exp(A * x * x) * (1 + 1e-12))
    assert A > 0
    # the classical bound e^{|x|} <= e^{1/(4A)} e^{A x^2} backs the fit
    assert a <= np.exp(1.0 / (4.0 * A)) * (1 + 1e-9)


def test_fit_growth_envelope_without_a_finite_sample_is_a_domain_error():
    """It once took the max of an empty array (a bare ValueError)."""
    with pytest.raises(DomainError, match="no finite sample"):
        fit_growth_envelope(lambda x: np.full_like(x, np.nan), (-2.0, 2.0))


def test_csv_round_trip_exact():
    x = grid_nodes(-2.0, 2.0, 0.25)
    gf = GridFunction(values=np.sin(x), extent=((-2.0, 2.0),),
                      growth_a=1.0, growth_A=0.0, value_error=1e-12)
    back = GridFunction.from_csv(gf.to_csv())
    assert np.array_equal(back.values, gf.values)
    assert back.extent == gf.extent
    assert back.value_error == gf.value_error


def _per_row_csv(gf):
    """GridFunction.to_csv as one f-string per row, the reference for the
    blocked writer."""
    out = io.StringIO()
    out.write(f"# dim={gf.dim}\n")
    for (lo, hi), n in zip(gf.extent, gf.values.shape):
        out.write(f"# axis lo={lo!r} hi={hi!r} n={n}\n")
    out.write(f"# growth_a={gf.growth_a!r} growth_A={gf.growth_A!r}"
              f" value_error={gf.value_error!r}\n")
    ax = gf.axes()
    out.write(",".join(["x", "y", "z", "x4"][:gf.dim]) + ",value\n")
    for idx in np.ndindex(gf.values.shape):
        coords = "".join(f"{ax[k][i]:.17g}," for k, i in enumerate(idx))
        out.write(f"{coords}{gf.values[idx]:.17g}\n")
    return out.getvalue()


# nan, +-inf, -0.0, the smallest subnormal, huge and tiny exponents, and
# numbers whose shortest round-trip form needs all 17 digits
_ODD_VALUES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, -1e-300,
               0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0, np.pi, 2.0 ** -1074 * 3, 1e300]


@pytest.mark.parametrize("values, extent", [
    (np.sin(np.linspace(-8.0, 8.0, 16385)) * np.exp(np.linspace(-30.0, 30.0, 16385)),
     ((-8.0, 8.0),)),
    (np.random.default_rng(2).standard_normal((33, 17)) * 1e-7,
     ((-1.0, 1.0 / 3.0), (0.1, 2.7))),
    (np.array(_ODD_VALUES), ((-0.0, 1.3),)),
    (np.resize(_ODD_VALUES, (4, 7)), ((1e-300, 1.0), (-1e300, 1e300))),
], ids=["1d_16385", "2d_33x17", "1d_odd_values", "2d_odd_values"])
def test_to_csv_matches_the_per_row_writer(values, extent):
    gf = GridFunction(values=values, extent=extent, growth_a=np.float64(2.5),
                      growth_A=np.float64(0.1), value_error=np.float64(9.54e-10))
    text = gf.to_csv()
    assert text == _per_row_csv(gf)
    assert "np.float64" not in text
    back = GridFunction.from_csv(text)
    assert (back.growth_a, back.growth_A, back.value_error) == (2.5, 0.1, 9.54e-10)
    assert np.array_equal(back.values, gf.values, equal_nan=True)


def _grid(shape, extent, seed=0):
    values = np.random.default_rng(seed).standard_normal(shape) * 10.0 ** (seed % 7 - 3)
    return GridFunction(values=values, extent=extent)


# blocks whose row templates _row_template keeps
_KEPT = _row_template.cache_info().maxsize
_ABOVE_THE_CACHE = [_grid((3 + k,), ((-1.0, 1.0 + k),), k) for k in range(_KEPT + 1)]
_LARGER_THAN_THE_CACHE = (_CSV_ROWS * _KEPT + 1,)


@pytest.mark.parametrize("grids, entries, misses", [
    ([_grid((4097,), ((-8.0, 8.0),), seed) for seed in (1, 2, 3)], 2, 2),
    ([_grid((3,), ((-1.0, 0.0),)), _grid((3,), ((-1.0, -0.0),)), _grid((3,), ((-1.0, 0.0),), 1)], 2, 2),
    ([_grid((3,), ((-1.0, -0.0),)), _grid((3,), ((-1.0, 0.0),)), _grid((3,), ((-1.0, -0.0),), 1)], 2, 2),
    ([_grid((5, 3), ((-2.0, -0.0), (-0.0, 1.0))), _grid((5, 3), ((-2.0, 0.0), (0.0, 1.0))),
      _grid((5, 3), ((-2.0, -0.0), (-0.0, 1.0)), 1)], 2, 2),
    ([_grid((7, 5, 3), ((-1.0, 1.0), (0.0, 2.5), (-3.0, 1e-300)), 3),
      _grid((7, 5, 3), ((-1.0, 1.0), (0.0, 2.5), (-3.0, 1e-300)), 4)], 1, 1),
    ([_grid((3, 4, 2, 5), ((0.1, 0.7), (-1.0, 2.0), (-0.0, 3.0), (1e300, 1e301)), 5)] * 2, 1, 1),
    ([_grid((n,), ((-8.0, 8.0),), n) for n in (4095, 4096, 4097, 8193, 4097, 4096, 4095)], 7, 7),
    ([_grid((5,), ((-1.0, 1.0),), 9), *_ABOVE_THE_CACHE, _grid((5,), ((-1.0, 1.0),), 10)],
     _KEPT, _KEPT + 3),
    ([_grid((5,), ((-1.0, 1.0),), 9), *_ABOVE_THE_CACHE[:-2], _grid((5,), ((-1.0, 1.0),), 10),
      _ABOVE_THE_CACHE[-2], _grid((5,), ((-1.0, 1.0),), 11)], _KEPT, _KEPT + 1),
    ([_grid((5,), ((-1.0, 1.0),), 11), _grid(_LARGER_THAN_THE_CACHE, ((-8.0, 8.0),), 12),
      _grid(_LARGER_THAN_THE_CACHE, ((-8.0, 8.0),), 13), _grid((5,), ((-1.0, 1.0),), 14)],
     _KEPT, 2 * _KEPT + 4),
], ids=["same_grid_three_times", "zero_then_negative_zero", "negative_zero_then_zero",
        "2d_signed_zeros", "3d_twice", "4d_twice", "rows_around_the_block",
        "more_blocks_than_the_cache", "written_again_stays", "grid_larger_than_the_cache"])
def test_to_csv_in_sequence_matches_the_per_row_writer(grids, entries, misses):
    """Writes in sequence share the row templates of _row_template: a block
    gets its template on its first write and reuses it for the same bounds
    (-0.0 is not 0.0), shape and first row only; the cache keeps the _KEPT
    blocks written last, so a block written again stays while a block
    written before it is dropped, a grid of more blocks than that misses on
    every block of every write, and every file equals the per-row writer's."""
    _row_template.cache_clear()
    for gf in grids:
        assert gf.to_csv() == _per_row_csv(gf)
    info = _row_template.cache_info()
    assert (info.currsize, info.misses) == (entries, misses)


def test_each_block_is_formatted_once_per_cache_miss(monkeypatch):
    """The first write of a 16385-node grid formats the coordinates of its 5
    blocks, each block's own rows only; later writes format none."""
    gf = _grid((16385,), ((-8.0, 8.0),), 15)
    want_text = _per_row_csv(gf)
    rows, unravel = [], np.unravel_index
    monkeypatch.setattr(np, "unravel_index", lambda i, shape: rows.append(len(i)) or unravel(i, shape))
    _row_template.cache_clear()
    for want in ([_CSV_ROWS] * 4 + [1], [], []):
        del rows[:]
        assert gf.to_csv() == want_text
        assert rows == want
        assert _row_template.cache_info().misses == 5


def test_gauss_kernel_unit_mass():
    from scipy.integrate import quad
    mass, _ = quad(lambda x: gauss_kernel(x, 0.3), -np.inf, np.inf)
    assert mass == pytest.approx(1.0, abs=1e-12)
