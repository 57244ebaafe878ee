"""
Directional derivative bounds on the standard triangle
======================================================

Walks the two bound families at a handful of interior points: the inscribed
ellipse constant E(x, y), the pluripotential bound D_y^+ V(x), and the
classical charts alpha / tau / gamma that feed the chord-based comparison.
"""

import math

import numpy as np

from bernstein_bounds import geometry as geo
from bernstein_bounds import simplex as sx

tri = geo.unit_triangle()

points = np.array([
    [1 / 3, 1 / 3],   # centroid
    [0.25, 0.25],
    [0.5, 0.1],
    [0.1, 0.1],
])

print("point            alpha     tau(0)    gamma     E(x,e1)   D+V(x,e1)   product")
for x in points:
    a = sx.alpha_simplex(x)
    t = sx.tau_simplex(0.0)
    g = geo.gamma(tri, x)
    e = sx.ellipse_constant_dir(x, [1.0, 0.0])
    d = sx.baran_derivative(x, [1.0, 0.0])
    print(f"({x[0]:.3f},{x[1]:.3f})   {a:.5f}   {t:.5f}   {g:.5f}   {e:.6f}  {d:.6f}    {e * d:.12f}")

# The product column is identically 1: the sharpest inscribed ellipse and the
# directional derivative of the extremal function are exact reciprocals.

print()
print("tau has three branches over a half-turn:")
for phi in (0.0, math.pi / 3, math.pi / 2, 2 * math.pi / 3, 3 * math.pi / 4, 0.9 * math.pi):
    print(f"  tau({phi:.4f}) = {sx.tau_simplex(phi):.6f}")

# Extremal function values off the simplex (zero on it, positive outside).
print()
print("Siciak extremal function:")
print("  V(1/3, 1/3)  =", sx.siciak_extremal(np.array([1 / 3, 1 / 3])))
print("  V(0.5, 1.5)  =", sx.siciak_extremal(np.array([0.5, 1.5])))
print("  V(i, 0)      =", sx.siciak_extremal(np.array([1j, 0.0])))
