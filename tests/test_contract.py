"""The shared input rules of heatconvex.numerics, as the library applies them.

Every public callable of heatconvex.__all__ that reads a number has a call
below, the case of the names it covers.  Each call either returns or
raises DomainError when one of its numbers (a time, a grid axis, a
tolerance, a count, a factor, a finite or positive real, a weight, a
window bound or a direction entry) is replaced by NaN, an infinity, 0, -1
or 0.5, or its bounds are reversed: never another exception type, and
never a RuntimeWarning.  The values each rule refuses are cases of
test_heatflow's test_degenerate_domains_raise_a_typed_error.
"""

import inspect
import math
import warnings

import numpy as np
import pytest

import heatconvex
from heatconvex import (DomainError, DomainSpec, GSpec, GridFunction, InitialDatum,
                        abs_kink_generator, check_envelope_comparison, check_F_convex,
                        check_quasi_convex, counterexample_datum, grid_nodes,
                        heat_evolve_dirichlet, heat_evolve_free, hot_h, hunt_violation,
                        make_affine, make_from_g, make_hot, make_neglog, make_power_alpha,
                        mixture_envelope, scale_shift)

P1 = make_power_alpha(1.0)
# bounded (growth_A = 0), so no time leaves its existence window
BUMP = InitialDatum(fn=lambda x: np.exp(-np.asarray(x, float) ** 2), growth_a=1.0)
U = heat_evolve_free(BUMP, 0.1, (-1.0, 1.0, 0.25))
X = np.linspace(-1.0, 1.0, 9)
V = GridFunction(values=np.abs(X), extent=((-1.0, 1.0),), growth_a=2.0)
BOWL = GridFunction(values=np.add.outer(X * X, X * X), extent=((-1.0, 1.0),) * 2, growth_a=3.0)

CALLS = []


def case(*names):
    """Register a call as the case of the public callables it names."""
    def register(call):
        call.covers = names
        CALLS.append(call)
        return call
    return register


@case("heat_evolve_free")
def free(t=0.1, lo=-1.0, hi=1.0, h=0.25, eps_tail=1e-10, max_refine=2):
    return heat_evolve_free(BUMP, t, (lo, hi, h), eps_tail=eps_tail, max_refine=max_refine)


@case("heat_evolve_dirichlet")
def interval(t=0.1, lo=0.0, hi=1.0, h=0.25):
    return heat_evolve_dirichlet(BUMP, DomainSpec.interval(0.0, 1.0), t, (lo, hi, h))


@case("heat_evolve_dirichlet")
def half_line(t=0.1, lo=0.0, hi=1.0, h=0.25):
    return heat_evolve_dirichlet(BUMP, DomainSpec.half_line(), t, (lo, hi, h))


@case("hunt_violation")
def hunt(t=0.1, lo=-1.0, hi=1.0, h=0.25, refine=1, significance_factor=10.0,
         eps_tail=1e-10):
    return hunt_violation(P1, BUMP, (t,), (lo, hi, h), refine=refine,
                          significance_factor=significance_factor, eps_tail=eps_tail)


@case("check_F_convex")
def certificate(significance_factor=10.0):
    return check_F_convex(U, P1, significance_factor)


@case("counterexample_datum")
def wedge(dim=1):
    return counterexample_datum(P1, 1.0, dim=dim, fit_window=(-2.0, 2.0))


@case("counterexample_datum")
def ridge(r0=1.0, d0=1.0, d1=1.0, lo=-2.0, hi=2.0):
    return counterexample_datum(P1, r0, direction=(d0, d1), dim=2, fit_window=(lo, hi))


@case("grid_nodes")
def nodes(lo=-1.0, hi=1.0, h=0.25):
    return grid_nodes(lo, hi, h)


@case("GridFunction")
def grid_data(lo=-1.0, hi=1.0):
    return GridFunction(values=np.zeros(5), extent=((lo, hi),))


@case("DomainSpec")
def domains(lo=0.0, hi=1.0, ell=0.0):
    return (DomainSpec.interval(lo, hi, ell), DomainSpec.rectangle(((lo, hi), (0.0, 1.0)), ell),
            DomainSpec.half_line(ell))


@case("InitialDatum")
def datum(growth_a=1.0, growth_A=0.0, d0=0.6, d1=0.8):
    return InitialDatum(fn=np.cos, growth_a=growth_a, growth_A=growth_A, direction=(d0, d1))


@case("mixture_envelope")
def envelope(lam=0.5):
    return mixture_envelope(V, lam)


@case("check_envelope_comparison")
def comparison(lam=0.5, t=0.1, lo=-1.0, hi=1.0, h=0.25):
    return check_envelope_comparison(P1, BUMP, lam, t, (lo, hi), h)


@case("check_quasi_convex")
def quasi(n_levels=32):
    return check_quasi_convex(BOWL, n_levels)


@case("hot_h")
def hot_profile(z=0.0):
    return hot_h(z)


@case("make_power_alpha")
def power(alpha=2.0):
    return make_power_alpha(alpha)


@case("make_affine")
def affine(A=1.0, B=0.0):
    return make_affine(A, B)


@case("make_hot")
def hot(a=1.0):
    return make_hot(a)


@case("make_neglog")
def neglog(a=0.0, ell=1.0):
    return make_neglog(a, ell)


@case("make_from_g", "abs_kink_generator", "GSpec")
def from_g(center=1.0, drop=1.0, base_z=0.0, base_value=1.0, base_slope=1.0):
    return make_from_g(abs_kink_generator(center, drop), base_z, base_value, base_slope)


@case("GSpec")
def generator(z=1.0, g=-1.0, left_slope=-1.0, right_slope=1.0):
    return GSpec(points=((z, g),), left_slope=left_slope, right_slope=right_slope)


@case("scale_shift")
def shifted(A=1.0, B=0.0):
    return scale_shift(P1, A, B)


# public callables that check no number of their own: the functions of
# transforms, FTransform (the make_* constructors check its numbers), the
# records the library returns, and the exception types
READ_NO_NUMBER = {
    "builtin_transforms", "make_exp", "classify", "compare_strength", "FTransform",
    "Certificate", "ClassReport", "EnvelopeComparison", "MidpointSample",
    "StrengthComparison", "DomainError", "EvaluationWindowError", "ExistenceWindowError",
}
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


def test_every_public_callable_that_reads_a_number_has_a_case():
    """A public callable that reads a number and has no call here fails."""
    public = {name for name in heatconvex.__all__ if callable(getattr(heatconvex, name))}
    covered = {name for call in CALLS for name in call.covers}
    assert public - READ_NO_NUMBER == covered
    assert not READ_NO_NUMBER - public


def test_the_unchanged_calls_return():
    for call in CALLS:
        call()


def test_a_replaced_number_returns_or_raises_a_domain_error():
    for call, kwargs in CASES:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                call(**kwargs)
            except DomainError:
                pass
            except Exception as exc:  # a RuntimeWarning included
                pytest.fail(f"{call.__name__}(**{kwargs}) raised {exc!r}")
