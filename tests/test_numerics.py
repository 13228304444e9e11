import numpy as np
import pytest

from heatconvex.numerics import (DomainError, invert_monotone, param_text,
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


def _cubic(x):
    return x ** 3 - 2 * x ** 2 + x - 1


def _cubic_integral(a, b):
    def F(x):
        return x ** 4 / 4 - 2 * x ** 3 / 3 + x ** 2 / 2 - x
    return F(b) - F(a)


def test_simpson_on_two_nodes_is_the_trapezoid_rule_exact_on_linears():
    w = simpson_weights(2, 0.5)
    assert w.tolist() == [0.25, 0.25]
    # 3x - 2 on [1, 1.5]
    assert float(w @ np.array([1.0, 2.5])) == 0.875


@pytest.mark.parametrize("n", range(3, 9))
def test_simpson_short_pieces_are_exact_on_cubics(n):
    """n = 4 takes the 3/8 rule alone, n = 6 and 8 Simpson with a 3/8 tail."""
    h, a = 0.3, 0.5
    x = a + h * np.arange(n)
    integral = float(simpson_weights(n, h) @ _cubic(x))
    assert abs(integral - _cubic_integral(a, x[-1])) < 1e-13


def test_simpson_needs_two_nodes():
    with pytest.raises(ValueError, match="at least 2 nodes"):
        simpson_weights(1, 0.1)


def test_piecewise_simpson_with_pieces_of_one_and_three_cells():
    """Edges one cell apart take the trapezoid rule, three apart the 3/8
    rule alone: f is linear on the one-cell piece and cubic elsewhere, so
    the sum is exact.  On nodes 0, 0.1, ..., 2 with edges 10, 11, 14:
    f = x + (x - 1)^3 on [0, 1], x on [1, 1.1], x + (x - 1.1)^3 on [1.1,
    1.4], x + 0.027 + 2 (x - 1.4)^3 on [1.4, 2], continuous at each edge."""
    nodes = np.linspace(0.0, 2.0, 21)
    f = nodes + np.where(nodes <= 1.0, (nodes - 1.0) ** 3, 0.0)
    f += np.where((nodes >= 1.1) & (nodes <= 1.4), (nodes - 1.1) ** 3, 0.0)
    f += np.where(nodes > 1.4, 0.027 + 2.0 * (nodes - 1.4) ** 3, 0.0)
    w = piecewise_simpson_weights(nodes, [0, 10, 11, 14, 20])
    exact = 2.0 - 0.25 + 0.3 ** 4 / 4 + (0.027 * 0.6 + 2.0 * 0.6 ** 4 / 4)
    assert abs(float(w @ f) - exact) < 1e-14


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
