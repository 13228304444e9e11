"""Dirichlet flow on the unit interval with boundary value one.

Two convexity notions survive this flow: the strongest one, defined through
the inverse of the evolved step profile, and the weakest, defined through
-log(1 - r).  The demo evolves one datum shaped for each class and prints
midpoint certificates plus a coarse profile sketch.
"""

import numpy as np

from heatconvex import (
    DomainSpec,
    GridFunction,
    InitialDatum,
    check_F_convex,
    grid_nodes,
    heat_evolve_dirichlet,
    hot_h,
    make_hot,
    make_neglog,
)


GRID = (0.0, 1.0, 1 / 256)


def sketch(u, width=64):
    vals = u.values[:: max(1, u.values.size // width)]
    lo, hi = float(np.min(vals)), float(np.max(vals))
    span = hi - lo or 1.0
    chars = " .:-=+*#%@"
    return "".join(chars[int((v - lo) / span * (len(chars) - 1))] for v in vals)


def bowl(x):
    x = np.asarray(x, float)
    with np.errstate(divide="ignore"):
        pot = -2.0 * (np.log(x) + np.log1p(-x)) - 6.0
    return hot_h(pot)


def main():
    dom = DomainSpec.interval(0.0, 1.0, ell=1.0)
    cases = [
        ("step-profile convexity", make_hot(1.0),
         InitialDatum(fn=bowl, growth_a=1.0, growth_A=0.0, label="deep bowl")),
        ("-log(1-r) convexity", make_neglog(0.0, 1.0),
         InitialDatum(fn=lambda x: 1.0 - x * (1.0 - x), growth_a=1.0,
                      growth_A=0.0, label="shallow bowl")),
    ]
    for title, F, phi in cases:
        print(f"{title}: datum '{phi.label}'")
        for t in (0.0, 0.01, 0.05, 0.1):
            if t == 0.0:  # the datum on the nodes of the flow's grid
                u = GridFunction(values=phi.fn(grid_nodes(*GRID)), extent=((0.0, 1.0),),
                                 growth_a=1.0, growth_A=0.0)
            else:
                u = heat_evolve_dirichlet(phi, dom, t, GRID)
            cert = check_F_convex(u, F)
            print(f"  t = {t:4.2f}  |{sketch(u)}|  {cert.status}")
        print()


if __name__ == "__main__":
    main()
