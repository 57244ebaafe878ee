"""Second routes the tests check the package against.

Nothing in the package calls these: each computes a quantity the package
already has, or one it does not need, the plain way, so that a test can pin
the package's closed forms and dual readings by an independent computation.
"""

import math

import numpy as np

from bernstein_bounds import ellipse as el
from bernstein_bounds import geometry as geo
from bernstein_bounds import kernels as kn
from bernstein_bounds import simplex as sx

_BOUNDARY_TOL = 1e-12  # the origin's slack, in units of diam K, as in geo.require_interior


def centroid(K: geo.ConvexPolygon) -> np.ndarray:
    """Area centroid of K by the shoelace moments."""
    v = K.vertices
    w = np.roll(v, -1, axis=0)
    cr = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
    return (v + w).T @ cr / (6.0 * K.area)


def support(K: geo.ConvexPolygon, u) -> float:
    """Support function h(K, u) = max over vertices of <v, u>, for u scaled to unit length."""
    return float(np.max(K.vertices @ geo.unit_direction(u)))


def width(K: geo.ConvexPolygon, u) -> float:
    """Width h(K, u) + h(K, -u) of K across the unit direction u."""
    h = K.vertices @ geo.unit_direction(u)
    return float(np.max(h) - np.min(h))


def difference_body(K: geo.ConvexPolygon) -> geo.ConvexPolygon:
    """Central symmetrization K + (-K), built by merging edge vectors by angle.

    The chord queries read its polar from K's edge lines instead, so this
    explicit body is a second route to them.
    """
    v = K.vertices
    e = np.roll(v, -1, axis=0) - v
    edges = np.vstack([e, -e])  # CCW edges of -K are the negated edges of K
    ang = np.mod(np.arctan2(edges[:, 1], edges[:, 0]), 2.0 * math.pi)
    order = np.argsort(ang, kind="stable")
    start = _lowest_vertex(v) + _lowest_vertex(-v)
    chain = start + np.cumsum(edges[order], axis=0)
    return geo.ConvexPolygon(np.vstack([start, chain[:-1]]))


def _lowest_vertex(v) -> np.ndarray:
    i = np.lexsort((v[:, 0], v[:, 1]))[0]
    return v[i]


def minkowski_gauge(K: geo.ConvexPolygon, x) -> float:
    """Gauge inf{t > 0 : x in t*K} = max_e <n_e, x> / c_e.

    The origin's slack min_e c_e must exceed 1e-12 diam K, and x must be finite.
    """
    n, c = K.edge_normals()
    if np.min(c) <= _BOUNDARY_TOL * K.diameter:
        raise ValueError("gauge needs the origin strictly interior to K")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("point must be finite")
    return float(np.max(n @ x / c))


def gamma_angle(K: geo.ConvexPolygon, x) -> float:
    """Angle mod pi of the vertex chord through x with the least chord balance."""
    d = K.vertices - np.asarray(x, dtype=float)
    angles = np.arctan2(d[:, 1], d[:, 0]) % math.pi
    return float(angles[np.argmin(geo.chord_balance(K, x, angles))])


def ellipse_point(e: el.InscribedEllipse, t):
    """Point cos t * a + b sin t * y + (x - a) of the ellipse at parameter t."""
    t = np.asarray(t, dtype=float)
    return np.cos(t)[..., None] * e.a + (e.b * np.sin(t))[..., None] * e.y + e.center


def ellipse_in_polygon(e: el.InscribedEllipse, K: geo.ConvexPolygon) -> bool:
    return el.containment_violation(e, K) <= 1e-9  # rounding forgiven past an edge


def quadratic_form(e: kn.KernelEllipse, v):
    """u' Q u for a KernelEllipse e at points v (..., 2)."""
    v = np.asarray(v, dtype=float)
    u1, u2 = v[..., 0], v[..., 1]
    return e.A * u1 * u1 + e.B * u2 * u2 - e.C * u1 * u2


def kernel_max_norm(x) -> float:
    """Largest |v| over the kernel ellipse, i.e. the major half-axis nu."""
    return kn.kernel_ellipse_closed_form(x).nu


def equilibrium_density(x):
    """Density 2*pi / sqrt(x1 x2 x3) of the simplex equilibrium measure."""
    x = sx.check_interior(x)
    if x.shape[-1] != 2:
        raise ValueError("closed form is for the planar simplex")
    x1, x2 = x[..., 0], x[..., 1]
    return 2.0 * math.pi / np.sqrt(x1 * x2 * (1.0 - x1 - x2))
