#!/usr/bin/env python3
"""Convergence study: volume-expansion fit vs the eps-grid resolution.

For the hyperbolic ball the four expansion coefficients have closed forms
(C0 = 2 pi^2 / 3, C2 = -3 pi^2 / 2, L = 0, V = 4 pi^2 / 3), so the error of
the fitted coefficients directly measures the quality of the regularized
quadrature + fit pipeline as the number of eps samples grows.
"""

import math


from ahrenvol import renorm
from ahrenvol.collar import RadialGeometry, hyperbolic_profile

ORACLE = {
    "C0": 2.0 * math.pi**2 / 3.0,
    "C2": -1.5 * math.pi**2,
    "L": 0.0,
    "V": 4.0 * math.pi**2 / 3.0,
}


def main() -> None:
    geom = RadialGeometry(hyperbolic_profile())
    print(f"{'n_eps':>6} {'|dC0|':>10} {'|dC2|':>10} {'|dL|':>10} {'|dV|':>10} {'residual':>10}")
    for n_eps in (12, 16, 20, 24):
        eps = renorm.default_eps_grid(n_eps)
        volumes, _ = renorm.volume_family(geom, eps_grid=eps)
        fit = renorm.finite_part((eps, volumes))
        got = dict(zip(("C0", "C2", "L", "V"), fit.as_tuple()))
        errs = [abs(got[k] - ORACLE[k]) for k in ("C0", "C2", "L", "V")]
        print(f"{n_eps:>6} " + " ".join(f"{e:>10.2e}" for e in errs)
              + f" {fit.fit_residual:>10.2e}")


if __name__ == "__main__":
    main()
