"""Evolution oracles: closed forms the quadrature must reproduce."""

import numpy as np
import pytest
from scipy.special import erf

from heatconvex import (DomainSpec, EvaluationWindowError,
                        ExistenceWindowError, GridFunction, InitialDatum,
                        epsilon_quadratic_lift, fit_growth_envelope,
                        gauss_kernel, grid_nodes, heat_evolve_dirichlet,
                        heat_evolve_free, hot_h, lifted_evolution_identity,
                        maximal_time_hint)


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
    assert u.growth_certified()


def test_reported_value_error_is_honest():
    s, t = 0.5, 0.5
    phi = InitialDatum(fn=lambda x: gauss_kernel(x, s),
                       growth_a=float(gauss_kernel(0.0, s)), growth_A=0.0)
    u = heat_evolve_free(phi, t, (-6.0, 6.0, 1.0 / 32))
    x = u.axes()[0]
    actual = np.abs(u.values - gauss_kernel(x, s + t))
    assert np.all(actual <= u.value_error * (1.0 + np.abs(u.values)) + 1e-15)


def test_quadratic_lift_identity():
    """Evolving phi + eps|x|^2 equals the lifted evolution of phi."""
    eps, t = 0.05, 0.25
    phi = InitialDatum(fn=lambda x: np.abs(x), growth_a=1.5, growth_A=0.05,
                       breakpoints=(0.0,))
    lifted = epsilon_quadratic_lift(phi, eps)
    direct = heat_evolve_free(lifted, t, (-3.0, 3.0, 1.0 / 32))
    base = heat_evolve_free(phi, t, (-3.0, 3.0, 1.0 / 32))
    via_identity = lifted_evolution_identity(base, eps, t)
    assert rel_err(direct.values, via_identity.values) < 1e-8


def test_existence_window_refused():
    phi = InitialDatum(fn=lambda x: np.exp(x * x), growth_a=1.0, growth_A=1.0)
    with pytest.raises(ExistenceWindowError):
        heat_evolve_free(phi, 0.3, (-1.0, 1.0, 0.125))
    assert maximal_time_hint(1.0) == pytest.approx(0.25)
    assert maximal_time_hint(0.0) == np.inf


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


def test_dirichlet_interval_long_time_uses_sine_series():
    """t >~ 300 L^2 needs over 200 images, so the interval switches to sines."""
    dom = DomainSpec.interval(0.0, 0.1, ell=1.0)
    phi = InitialDatum(fn=lambda x: np.abs(x), growth_a=1.0, growth_A=0.0)
    u = heat_evolve_dirichlet(phi, dom, 4.0, (0.0, 0.1, 0.1 / 128))
    assert u.values.size == 129
    assert u.meta["representation"] == "sine"
    assert u.values[0] == 1.0 and u.values[-1] == 1.0
    assert np.max(np.abs(u.values - 1.0)) <= u.value_error


# -- every path ---------------------------------------------------------------


_SIN = InitialDatum(fn=lambda x: np.sin(np.pi * np.asarray(x, float)),
                    growth_a=1.0, growth_A=0.0)
_SIN2 = InitialDatum(fn=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
                     growth_a=1.0, growth_A=0.0)
_G8 = (0.0, 1.0, 1.0 / 8)


@pytest.mark.parametrize("evolve", [
    lambda: heat_evolve_free(_SIN, 0.05, (-1.0, 1.0, 1.0 / 16)),
    lambda: heat_evolve_free(_SIN2, 0.05, (_G8, _G8)),
    lambda: heat_evolve_dirichlet(_SIN, DomainSpec.interval(0.0, 1.0), 0.05, _G8),
    lambda: heat_evolve_dirichlet(_SIN, DomainSpec.half_line(), 0.05, (0.0, 2.0, 1.0 / 8)),
    lambda: heat_evolve_dirichlet(_SIN2, DomainSpec.rectangle(((0.0, 1.0), (0.0, 1.0))),
                                  0.05, (_G8, _G8)),
], ids=["free_1d", "free_2d", "interval", "half_line", "rectangle"])
def test_every_path_records_the_same_meta(evolve):
    u = evolve()
    assert {"t", "quad_error", "lattice_factor"} <= set(u.meta)
    assert u.meta["t"] == 0.05
    assert u.meta["quad_error"] <= u.value_error
    assert u.meta["lattice_factor"] >= 2


_GRID_1D = GridFunction(values=np.zeros(9), extent=((0.0, 1.0),))
_GRID_2D = GridFunction(values=np.zeros((9, 9)), extent=((0.0, 1.0), (0.0, 1.0)))


@pytest.mark.parametrize("evolve, data_dim, flow_dim", [
    (lambda: heat_evolve_dirichlet(_GRID_2D, DomainSpec.interval(0.0, 1.0), 0.05), 2, 1),
    (lambda: heat_evolve_free(_GRID_1D, 0.05, (_G8, _G8)), 1, 2),
    (lambda: heat_evolve_dirichlet(
        _GRID_1D, DomainSpec.rectangle(((0.0, 1.0), (0.0, 1.0))), 0.05), 1, 2),
], ids=["2d_data_on_interval", "1d_data_2d_grid", "1d_data_on_rectangle"])
def test_grid_data_of_the_wrong_dimension_are_refused(evolve, data_dim, flow_dim):
    with pytest.raises(ValueError,
                       match=f"dim-{data_dim} grid data for a dim-{flow_dim} evolution"):
        evolve()


# -- growth fitting and serialization ------------------------------------------



def test_fit_growth_envelope_certifies_samples():
    # the certificate is exact at the fitting samples; off-sample points may
    # exceed it only by the local interpolation slack
    a, A = fit_growth_envelope(lambda x: np.exp(np.abs(x)), (-8.0, 8.0),
                               n_samples=801)
    x = np.linspace(-8, 8, 801)
    assert np.all(np.exp(np.abs(x)) <= a * np.exp(A * x * x) * (1 + 1e-12))
    assert A > 0
    # the classical bound e^{|x|} <= e^{1/(4A)} e^{A x^2} backs the fit
    assert a <= np.exp(1.0 / (4.0 * A)) * (1 + 1e-9)


def test_csv_round_trip_exact():
    x = grid_nodes(-2.0, 2.0, 0.25)
    gf = GridFunction(values=np.sin(x), extent=((-2.0, 2.0),),
                      growth_a=1.0, growth_A=0.0, value_error=1e-12)
    back = GridFunction.from_csv(gf.to_csv())
    assert np.array_equal(back.values, gf.values)
    assert back.extent == gf.extent
    assert back.value_error == gf.value_error


def test_gauss_kernel_unit_mass():
    from scipy.integrate import quad
    mass, _ = quad(lambda x: gauss_kernel(x, 0.3), -np.inf, np.inf)
    assert mass == pytest.approx(1.0, abs=1e-12)
