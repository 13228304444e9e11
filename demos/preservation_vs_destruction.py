"""Watch one wedge datum survive a mild transform and break a strong one.

The wedge datum is built to be exactly convex in transform coordinates, so
at time zero every midpoint certificate is clean.  Under the flow the
square-root-strength transform (alpha = 0.5) keeps it that way; alpha = 2
bends the profile the wrong way within a short time, and the hunt confirms
the violation is stable under grid refinement rather than a grid artifact.
"""

from heatconvex import (
    check_F_convex,
    counterexample_datum,
    heat_evolve_free,
    hunt_violation,
    make_power_alpha,
)

WINDOW = (-6.0, 6.0)
H = 12.0 / 256.0


def certificate_row(F, phi, t):
    u = heat_evolve_free(phi, t, (WINDOW[0], WINDOW[1], H))
    cert = check_F_convex(u, F)
    gap = cert.worst.gap if cert.worst is not None else float("nan")
    flag = "  <- significant" if cert.significant else ""
    print(f"    t = {t:4.2f}   {cert.status:20s} worst gap {gap: .3e}   "
          f"noise {cert.noise_floor:.3e}{flag}")


def main():
    for alpha in (0.5, 2.0):
        F = make_power_alpha(alpha)
        phi = counterexample_datum(F, 1.0)
        print(f"alpha = {alpha:g}: wedge datum {phi.label}")
        for t in (0.02, 0.05, 0.1, 0.2):
            certificate_row(F, phi, t)
        print()

    print("refinement-stable search, alpha = 2:")
    F = make_power_alpha(2.0)
    history = []
    cert, t_first = hunt_violation(F, counterexample_datum(F, 1.0),
                                   times=(0.05, 0.1, 0.2),
                                   grid=(*WINDOW, 2 * H), history=history)
    for rec in history:
        c = rec["certificate"]
        print(f"    t = {rec['t']:4.2f}  level {rec['level']}  "
              f"h = {rec['h']:.4f}  gap {c.worst.gap: .3e}  "
              f"significant = {c.significant}")
    print(f"  earliest stable violation at t = {t_first}")
    print(f"  worst triple: x0 = {cert.worst.x0:+.3f}, "
          f"x1 = {cert.worst.x1:+.3f}, weight {cert.worst.lam}")


if __name__ == "__main__":
    main()
