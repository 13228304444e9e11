"""Sweep the power-transform family and print the classification table.

The family (r^alpha - 1)/alpha interpolates between log (alpha = 0) and
stronger-than-convex requirements as alpha drops; the heat flow keeps the
associated convexity exactly up to alpha = 1 and destroys it beyond.  The
tent generators g = |z - c| - 1 give preserved classes of Gaussian order 1/2
wherever their kink c lies; so do two tent families that a sampled
admissibility and slope probe once misread: a deep drop, where F is steep
but continuous, and a base far right of the kink, where f_F' underflows to 0
on the classifier's window.  A last table orders classes by strength
(compare_strength, which reads h = F1 o f_F2 as convex where
g_F2(z) >= g_F1(h) h'): the preserved powers, strongest first; the heat
step against -log(ell - r); and a relabeling A*F + B, which defines F's
own class.  Run:

    python3 demos/classify_sweep.py
"""

from functools import cmp_to_key

import numpy as np

from heatconvex import (abs_kink_generator, builtin_transforms, classify, compare_strength,
                        make_from_g, make_hot, make_neglog, make_power_alpha, scale_shift)


def main():
    print("exponent sweep")
    print("-" * 72)
    for alpha in (-1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0):
        rep = classify(make_power_alpha(alpha))
        print(f"  alpha = {alpha:5.2f}  ->  {rep.verdict:26s}  [{rep.basis}]")

    print()
    print("other built-in transforms")
    print("-" * 72)
    for name, F in builtin_transforms().items():
        if name.startswith("power"):
            continue
        rep = classify(F)
        order = "n/a" if np.isnan(rep.gaussian_order) else f"{rep.gaussian_order:.3f}"
        print(f"  {name:12s} ->  {rep.verdict:26s}  gaussian order {order}")

    print()
    print("tent generators g = |z - c| - 1, f(0) = 0, f'(0) = 1")
    print("-" * 72)
    tent_rows(1.0, 0.0, 0.0, (1.0, 12.0, 40.0))

    print()
    print("deep tents g = |z - c| - 20, f(0) = 1, f'(0) = 1 (once read inconclusive)")
    print("-" * 72)
    tent_rows(20.0, 0.0, 1.0, (0.0, 1.0, 12.0))

    print()
    print("tents g = |z - c| - 1 based at f(50) = 1, f'(50) = 1 (once read not_preserved)")
    print("-" * 72)
    tent_rows(1.0, 50.0, 1.0, (-50.0, 0.0, 12.0))

    print()
    print("strength order: a stronger class lies inside a weaker one")
    print("-" * 72)
    strength_rows()


def tent_rows(drop, base_z, base_value, centers):
    for center in centers:
        g = abs_kink_generator(center=center, drop=drop)
        rep = classify(make_from_g(g, base_z, base_value, 1.0))
        print(f"  c = {center:4g}     ->  {rep.verdict:26s}  "
              f"gaussian order {rep.gaussian_order:.3f}")


def strength_rows():
    rank = {"F1_stronger": -1, "equivalent": 0, "F1_weaker": 1}
    powers = sorted((make_power_alpha(a) for a in (1.0, 0.0, 0.5)),
                    key=cmp_to_key(lambda F1, F2: rank[compare_strength(F1, F2).relation]))
    print(f"  preserved powers, strongest first: {' > '.join(F.label for F in powers)}")
    for ell in (0.5, 1.0, 2.0):
        F1, F2 = make_hot(ell), make_neglog(0.0, ell)
        print(f"  {F1.label:12s} vs {F2.label:18s} ->  {compare_strength(F1, F2).relation}")
    F = make_power_alpha(0.5)
    G = scale_shift(F, 2.5, -1.0)
    print(f"  {F.label:12s} vs {G.label:18s} ->  {compare_strength(F, G).relation}")


if __name__ == "__main__":
    main()
