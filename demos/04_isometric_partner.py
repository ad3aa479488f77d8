#!/usr/bin/env python3
"""Building the rotational partner of a helicoidal surface.

Any feasible gauge pair (a(u), b(u)) satisfying the kind's compatibility
constraint yields a rotational surface that the map (u, v) -> (u, vbar)
carries isometrically onto the helicoid.  Helices (u = const curves) land
on parallel circles of radius sqrt(x^2 - lambda^2).
"""
from bour4 import (bour_partner, gauge_complete, grid_for, helicoid_jet,
                   isometry_residual, make_helicoid, pair_report,
                   parallel_curve_residual, scale_gauge)

h = make_helicoid("I", 1.0, {"x": "u", "z": "0", "w": "u/2"}, (1.5, 3.0))

# choose a = 0 and let the constraint determine b(u) >= 0
gauge = gauge_complete(h, "a", "0")
print("constraint residual of the completed gauge:", gauge.residual(h))
print("b(2)^2 =", gauge.b(2.0).v ** 2, " (the constraint gives 1/4 + 1/u^2)")

partner = bour_partner(h, gauge)
grid = grid_for(h, nu=17, nv=17)
print("isometry residual:", isometry_residual(h, partner, grid))

# the correspondence shifts the angle by a quadrature in u
print("vbar(2.0, 0.3) =", h.vbar(2.0, 0.3))

# a detuned gauge breaks the isometry by a visible amount
bad = bour_partner(h, scale_gauge(gauge, b_factor=1.1))
print("residual with b scaled by 1.1:", isometry_residual(h, bad, grid))

# helices -> circles: the u = 2 curve of the partner is a circle of
# radius sqrt(2^2 - 1) with the last two coordinates frozen
vs = [k * 0.06 for k in range(100)]
print("circle residual at u0 = 2:", parallel_curve_residual(h, partner, 2.0, vs))
p = helicoid_jet(partner, 2.0, 0.7).X
print("sample partner point:", tuple(round(c, 6) for c in p))

rep = pair_report(h, partner, grid)
print("verdicts:", rep.verdicts)
