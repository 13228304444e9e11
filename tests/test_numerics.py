import numpy as np
import pytest

from heatconvex.numerics import (DomainError, affine_fit,
                                 discrete_convexity_defect,
                                 invert_monotone, param_text,
                                 piecewise_simpson_weights, simpson_weights)


def test_invert_monotone_erf():
    from scipy.special import erf
    x = invert_monotone(erf, 0.5, -6.0, 6.0)
    assert abs(erf(x) - 0.5) < 1e-12


def test_invert_monotone_with_derivative():
    f = np.exp
    x = invert_monotone(f, 7.0, -5.0, 5.0, deriv=np.exp)
    assert abs(x - np.log(7.0)) < 1e-12


def test_invert_monotone_rejects_bad_bracket():
    with pytest.raises((DomainError, ValueError)):
        invert_monotone(np.exp, 100.0, 0.0, 1.0)


def test_invert_monotone_over_a_bracket_near_the_top_of_the_doubles():
    """Its iteration count, log2(width / 1e-12), once overflowed for a
    bracket wider than 1e296."""
    z = invert_monotone(lambda z: z, 1e297, -1e300, 1e300)
    assert abs(z - 1e297) <= 1e-12 * 1e297


def test_simpson_exact_on_cubics():
    # composite Simpson integrates cubics exactly
    n, h = 9, 0.25
    x = np.arange(n) * h
    w = simpson_weights(n, h)
    integral = float(w @ (x ** 3 - 2 * x ** 2 + x))
    a, b = 0.0, (n - 1) * h
    exact = (b ** 4 / 4 - 2 * b ** 3 / 3 + b ** 2 / 2) - (
        a ** 4 / 4 - 2 * a ** 3 / 3 + a ** 2 / 2)
    assert abs(integral - exact) < 1e-14


def test_piecewise_simpson_splits_at_edges():
    """A kink at a piece edge must not degrade the order."""
    nodes = np.linspace(-1.0, 1.0, 41)
    w = piecewise_simpson_weights(nodes, [0, 20, 40])
    integral = float(w @ np.abs(nodes))
    assert abs(integral - 1.0) < 1e-14


def test_affine_fit_recovers_line():
    x = np.linspace(-3, 5, 50)
    A, B, resid = affine_fit(x, 2.5 * x - 1.0)
    assert abs(A - 2.5) < 1e-12
    assert abs(B + 1.0) < 1e-12
    assert resid < 1e-12


def test_convexity_defect_sign():
    x = np.linspace(-1, 1, 101)
    d_convex, tol, _ = discrete_convexity_defect(x ** 2, x[1] - x[0], 0.0)
    assert d_convex >= -tol
    d_concave, tol2, _ = discrete_convexity_defect(-(x ** 2), x[1] - x[0], 0.0)
    assert d_concave < -tol2


def test_convexity_defect_noise_floor():
    # noise below the stencil tolerance must not flip the verdict
    rng = np.random.default_rng(3)
    x = np.linspace(-1, 1, 201)
    h = x[1] - x[0]
    noise = 1e-12
    y = x ** 2 + noise * rng.uniform(-1, 1, x.size)
    defect, tol, _ = discrete_convexity_defect(y, h, noise)
    assert defect >= -tol


def test_param_text_is_g_where_that_reads_back():
    """%g where it reads back as the same float, else repr, which always does."""
    for x in (0.0, -0.0, 1.0, 1.5, -2.0, 0.25, 1e-300, 5e-324, 1e16, np.inf, -np.inf):
        assert param_text(x) == f"{x:g}"
    for x in (1.0000001, 1.0 / 3.0, 0.1 + 0.2, 123456.7, 1.0 + 2.0 ** -52):
        assert param_text(x) == repr(x) != f"{x:g}"
    for x in np.random.default_rng(3).standard_normal(200) * 10.0 ** np.arange(-100, 100):
        assert float(param_text(x)) == x
    assert param_text(np.float64(1.0000001)) == "1.0000001" and param_text(3) == "3"
    assert param_text(np.nan) == "nan"
