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

The direction-free constant E(K, x) = min over y of b(y) has an exact finite
form by LP duality: t*(y) = min of sum mu_e s_e^2 / y^T (sum mu_e n_e n_e^T) y
over the extreme rays mu >= 0 of sum mu_e s_e n_e = 0, which are edge triples.
Feasibility does not depend on y, so E^2 is the minimum over feasible triples
of sum mu_e s_e^2 / lambda_max(sum mu_e n_e n_e^T), with no search over y.
best_ellipse_all_dirs keeps an n_dirs parameter that it does not use.
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
        # working rows; a singular or nearly singular triple gives inf or nan and
        # fails feasibility
        g, he = G_edges[e], s[e] * s[e]
        i, j = np.nonzero(np.arange(len(h))[:, None] < np.arange(len(h)))
        C, cij = _cross(G, g), _cross(G[i], G[j])
        G, h = np.vstack([G, g]), np.append(h, he)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            Z = (he * cij + h[i, None] * C[j] - h[j, None] * C[i]) / (cij @ g)[:, None]
            Z = Z[np.all(Z @ G.T - h <= _ROW_TOL, axis=1)]
        z = Z[np.argmax(Z[:, 2])]
    w = InscribedEllipse(x=x, y=y, a=diam * z[:2], b=diam * math.sqrt(z[2]))
    active = tuple(int(i) for i in np.flatnonzero(violation >= -_ROW_TOL))
    residual = max(containment_violation(w, K), 0.0)
    return EllipseSolveReport(w.b, w, len(h) - len(_BOX_H), residual, active)


def best_ellipse_all_dirs(K: ConvexPolygon, x, n_dirs: int = 256) -> float:
    """Direction-free constant E(K, x): the minimum of best_ellipse over unit y.

    By LP duality t*(y) is the minimum of sum mu_e s_e^2 / y^T (sum mu_e n_e n_e^T) y
    over mu >= 0 with sum mu_e s_e n_e = 0.  That cone's extreme rays are edge
    triples i < j < k with mu the cross products (r_j x r_k, r_k x r_i, r_i x r_j)
    of their rows r_e = s_e n_e.  The edges run counter-clockwise, so a triple
    whose normals positively span the plane has mu >= 0 in this order, and a
    triple with mixed signs is infeasible.  Feasibility does not depend on y, so
    E^2 is the minimum over feasible triples of sum mu_e s_e^2 / lambda_max(M),
    M = sum mu_e n_e n_e^T, in closed form.  Triples are taken one first edge at
    a time, so memory stays O(m^2).

    n_dirs is unused; it is kept so that callers passing it keep working.
    """
    x = require_interior(K, x)
    n, c = K.edge_normals()
    s = c - n @ x
    r = s[:, None] * n
    X = np.outer(r[:, 0], r[:, 1])
    X = X - X.T  # X[j, k] = r_j x r_k
    # per edge: the entries n1^2, n1 n2, n2^2 of n n^T, and s^2
    q = np.column_stack([n[:, 0] ** 2, n[:, 0] * n[:, 1], n[:, 1] ** 2, s * s])
    idx = np.arange(len(s))
    J, L = np.nonzero(idx[:, None] < idx)  # every pair j < k, in order of j
    best = math.inf
    for i in idx[:-2]:
        first = np.searchsorted(J, i, side="right")
        j, k = J[first:], L[first:]
        mu = np.column_stack([X[j, k], X[k, i], X[i, j]])
        top = mu.max(axis=1)
        # antiparallel edges give exact zeros that rounding can push below 0, and
        # three edges on one line (collinear vertices) give mu = 0
        ok = (mu.min(axis=1) >= -1e-12 * top) & (top > 0.0)
        mu = np.maximum(mu[ok], 0.0)
        A, B, C, S = (mu[:, :1] * q[i] + mu[:, 1:2] * q[j[ok]] + mu[:, 2:] * q[k[ok]]).T
        lam_max = 0.5 * (A + C) + np.hypot(0.5 * (A - C), B)
        best = min(best, float(np.min(S / lam_max, initial=math.inf)))
    return math.sqrt(best)
