"""Numeric maximal inscribed ellipses of the family r(t) = cos t * a + b sin t * y.

The ellipse passes through x at t = 0 (center x - a), has conjugate half-axes
a and b*y, and must stay inside a convex polygon.  Per edge, the containment
certificate <n_e, x - a> + sqrt(<n_e, a>^2 + b^2 <n_e, y>^2) <= c_e is, after
isolating the square root and squaring, the condition

    -2 s_e <n_e, a> + <n_e, y>^2 t <= s_e^2,    t = b^2,

linear in (a, t), with s_e the slack of x against edge e.  So the best b is
sqrt(t*) for the exact LP "maximize t", solved by vertex enumeration over a
working set of edges: the edge the current optimum violates most joins the
set, and the new optimum is the best vertex on its plane.  A box keeps each
relaxation bounded: x - 2a lies in K, so |a| <= diam(K), and t <= diam(K)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# clip_halfplane is unused here; perfbench/tracing.py rebinds ellipse.clip_halfplane
from .geometry import ConvexPolygon, clip_halfplane, require_interior  # noqa: F401

# box rows over (a1, a2, t) and their bounds, a in units of diam(K), t of diam(K)^2
_BOX_G = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]])
_BOX_H = np.array([1.0, 1, 1, 1, 1, 0])
_ROW_TOL = 1e-12  # rounding allowed on a row in those units
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class InscribedEllipse:
    """Ellipse t -> cos t * a + b sin t * y + (x - a), passing through x."""

    x: np.ndarray
    y: np.ndarray
    a: np.ndarray
    b: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        a = np.asarray(self.a, dtype=float)
        if not math.isclose(float(np.linalg.norm(y)), 1.0, abs_tol=1e-9):
            raise ValueError("axis direction y must be a unit vector")
        if self.b < 0.0:
            raise ValueError("half-axis b must be nonnegative")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "a", a)

    @property
    def center(self) -> np.ndarray:
        return self.x - self.a

    def point(self, t):
        t = np.asarray(t, dtype=float)
        return (
            np.cos(t)[..., None] * self.a
            + (self.b * np.sin(t))[..., None] * self.y
            + self.center
        )


@dataclass(frozen=True)
class EllipseSolveReport:
    best_b: float
    witness: InscribedEllipse
    iterations: int  # working-set rounds; each adds one edge
    feasibility_residual: float
    active_edges: tuple[int, ...]  # edges the witness touches, as K.edge_normals() rows


def containment_violation(e: InscribedEllipse, K: ConvexPolygon) -> float:
    """Max over edges of how far the ellipse pokes out of K (<= 0 means inside)."""
    n, c = K.edge_normals()
    na = n @ e.a
    ny = n @ e.y
    reach = n @ e.center + np.sqrt(na * na + e.b * e.b * ny * ny)
    return float(np.max(reach - c))


def ellipse_in_polygon(e: InscribedEllipse, K: ConvexPolygon, tol: float = 1e-9) -> bool:
    return containment_violation(e, K) <= tol


def _cross(u, v):
    return u.take(_NEXT, -1) * v.take(_PREV, -1) - u.take(_PREV, -1) * v.take(_NEXT, -1)


def best_ellipse(K: ConvexPolygon, x, y) -> EllipseSolveReport:
    """Largest b for which some inscribed ellipse through x with axis y fits in K.

    Exact LP of the module docstring in units of diam(K), started from the
    box's optimum a = 0, t = 1 and stopped when no edge is violated.
    """
    x = require_interior(K, x)
    y = np.asarray(y, dtype=float)
    ny = np.linalg.norm(y)
    if ny == 0.0 or not math.isfinite(ny):
        raise ValueError("direction must be finite and nonzero")
    y = y / ny
    n, c = K.edge_normals()
    diam = K.diameter
    s = (c - n @ x) / diam
    G_edges = np.column_stack([-2.0 * s[:, None] * n, (n @ y) ** 2])
    G, h, z = _BOX_G, _BOX_H, np.array([0.0, 0.0, 1.0])
    while True:
        violation = G_edges @ z - s * s
        e = int(np.argmax(violation))
        if violation[e] <= _ROW_TOL:
            break
        # the new optimum lies on edge e's plane: Cramer's rule with each pair of
        # working rows; a singular triple gives inf or nan and fails feasibility
        g, he = G_edges[e], s[e] * s[e]
        i, j = np.nonzero(np.arange(len(h))[:, None] < np.arange(len(h)))
        C, cij = _cross(G, g), _cross(G[i], G[j])
        G, h = np.vstack([G, g]), np.append(h, he)
        with np.errstate(divide="ignore", invalid="ignore"):
            Z = (he * cij + h[i, None] * C[j] - h[j, None] * C[i]) / (cij @ g)[:, None]
            Z = Z[np.all(Z @ G.T - h <= _ROW_TOL, axis=1)]
        z = Z[np.argmax(Z[:, 2])]
    w = InscribedEllipse(x=x, y=y, a=diam * z[:2], b=diam * math.sqrt(z[2]))
    active = tuple(int(i) for i in np.flatnonzero(violation >= -_ROW_TOL))
    residual = max(containment_violation(w, K), 0.0)
    return EllipseSolveReport(w.b, w, len(h) - len(_BOX_H), residual, active)


def _golden_min(f, a, b, tol=1e-12):
    """Golden-section minimum value of f on [a, b]."""
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
    return min(f1, f2)


def best_ellipse_all_dirs(K: ConvexPolygon, x, n_dirs: int = 256) -> float:
    """Directional minimum of best_ellipse over axis angles in [0, pi).

    Uniform angular sweep plus golden-section refinement around the best cell;
    ties go to the smaller angle.
    """
    x = require_interior(K, x)
    thetas = np.arange(n_dirs) * (math.pi / n_dirs)
    f = lambda t: best_ellipse(K, x, (math.cos(t), math.sin(t))).best_b
    vals = np.array([f(t) for t in thetas])
    k = int(np.argmin(vals))
    h = math.pi / n_dirs
    refined = _golden_min(f, thetas[k] - h, thetas[k] + h, tol=1e-10)
    return min(float(vals[k]), refined)
