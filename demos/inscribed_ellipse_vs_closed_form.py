"""
Inscribed-ellipse solver against the closed form
================================================

The semi-minor axis b of the largest inscribed ellipse r(t) = cos(t) a
+ b sin(t) y + (x - a) through x with conjugate direction y has a closed
form on the standard triangle.  The solver knows nothing about that
formula: it solves a linear program in (a, b^2) built from the polygon's
edges alone, so agreement to rounding is a real check.
"""

import math

import numpy as np

from bernstein_bounds import ellipse as el
from bernstein_bounds import geometry as geo
from bernstein_bounds import simplex as sx

tri = geo.unit_triangle()
rng = np.random.default_rng(7)

print("      x1       x2      phi     solver        closed form   rel err")
worst = 0.0
for _ in range(8):
    # interior barycentric sample, then a random direction
    u, v = rng.dirichlet([1, 1, 1])[:2]
    phi = rng.uniform(0, math.pi)
    y = np.array([math.cos(phi), math.sin(phi)])
    rep = el.best_ellipse(tri, np.array([u, v]), y)
    ref = float(sx.ellipse_constant_dir(np.array([u, v]), y))
    err = abs(rep.best_b - ref) / ref
    worst = max(worst, err)
    print(f"  {u:.4f}   {v:.4f}   {phi:.4f}   {rep.best_b:.10f}  {ref:.10f}  {err:.2e}")

print()
print(f"worst relative error: {worst:.3e}")

# The direction-free constant E(x), the minimum over directions, comes from
# the dual of the same LP: a closed form per triple of edges, no search over
# directions.  At the centroid it equals 1/3 exactly.
e_min = el.best_ellipse_all_dirs(tri, np.array([1 / 3, 1 / 3]))
print(f"min over directions at the centroid: {e_min:.10f}  (exact value 1/3)")
