"""The shared number rules of heatconvex.numerics, as the library applies them.

Every public entry that reads a time, a grid axis, a tolerance, a count or
a factor either returns or raises DomainError when one of those numbers is
replaced by NaN, an infinity, 0, -1, 0.5 or reversed grid bounds: never
another exception type, and never a RuntimeWarning.  The values each rule
refuses are cases of test_heatflow's test_degenerate_domains_raise_a_typed_error.
"""

import inspect
import math
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from heatconvex import (DomainError, DomainSpec, GridFunction, InitialDatum, check_F_convex,
                        counterexample_datum, grid_nodes, heat_evolve_dirichlet,
                        heat_evolve_free, hunt_violation, make_power_alpha)

P1 = make_power_alpha(1.0)
# bounded (growth_A = 0), so no time leaves its existence window
BUMP = InitialDatum(fn=lambda x: np.exp(-np.asarray(x, float) ** 2), growth_a=1.0)
U = heat_evolve_free(BUMP, 0.1, (-1.0, 1.0, 0.25))


def free(t=0.1, lo=-1.0, hi=1.0, h=0.25, eps_tail=1e-10, max_refine=2):
    return heat_evolve_free(BUMP, t, (lo, hi, h), eps_tail=eps_tail, max_refine=max_refine)


def interval(t=0.1, lo=0.0, hi=1.0, h=0.25):
    return heat_evolve_dirichlet(BUMP, DomainSpec.interval(0.0, 1.0), t, (lo, hi, h))


def half_line(t=0.1, lo=0.0, hi=1.0, h=0.25):
    return heat_evolve_dirichlet(BUMP, DomainSpec.half_line(), t, (lo, hi, h))


def hunt(t=0.1, lo=-1.0, hi=1.0, h=0.25, refine=1, significance_factor=10.0,
         eps_tail=1e-10):
    return hunt_violation(P1, BUMP, (t,), (lo, hi, h), refine=refine,
                          significance_factor=significance_factor, eps_tail=eps_tail)


def certificate(significance_factor=10.0):
    return check_F_convex(U, P1, significance_factor)


def wedge(dim=1):
    return counterexample_datum(P1, 1.0, dim=dim, fit_window=(-2.0, 2.0))


def nodes(lo=-1.0, hi=1.0, h=0.25):
    return grid_nodes(lo, hi, h)


def grid_data(lo=-1.0, hi=1.0):
    return GridFunction(values=np.zeros(5), extent=((lo, hi),))


CALLS = (free, interval, half_line, hunt, certificate, wedge, nodes, grid_data)
VALUES = (math.nan, math.inf, -math.inf, 0.0, -1.0, 0.5)


def _cases():
    """Each call with one governed number replaced, or its bounds reversed."""
    for call in CALLS:
        defaults = {k: p.default for k, p in inspect.signature(call).parameters.items()}
        for key in defaults:
            yield from ((call, {key: v}) for v in VALUES)
        if "lo" in defaults:
            yield call, {"lo": defaults["hi"], "hi": defaults["lo"]}


CASES = list(_cases())


def test_the_unchanged_calls_return():
    for call in CALLS:
        call()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(CASES))
def test_a_replaced_number_returns_or_raises_a_domain_error(case):
    call, kwargs = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            call(**kwargs)
        except DomainError:
            pass
