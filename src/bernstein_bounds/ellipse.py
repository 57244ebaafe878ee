"""Maximal inscribed ellipses of the family r(t) = cos t * a + b sin t * y + (x - a).

The ellipse passes through x at t = 0 (center x - a), has conjugate half-axes
a and b*y, and must stay inside a convex polygon.  Per edge, the containment
certificate <n_e, x - a> + sqrt(<n_e, a>^2 + b^2 <n_e, y>^2) <= c_e is, after
isolating the square root and squaring, the condition

    -2 s_e <n_e, a> + <n_e, y>^2 t <= s_e^2,    t = b^2,

linear in (a, t), with s_e the slack of x against edge e.  The best b is
sqrt(t*) for the exact LP "maximize t".  By duality t* is the least of
sum mu_e s_e^2 / sum mu_e <n_e, y>^2 over the extreme rays mu >= 0 of
sum mu_e s_e n_e = 0, which are edge triples whose feasibility does not depend
on y; so E(K, x)^2, the minimum over y, is the least of sum mu_e s_e^2 /
lambda_max(sum mu_e n_e n_e^T), with no search over y.  Walking every triple
is O(m^3) in the edge count m: about 0.4 s at m = 210, where a working-set
primal LP takes a few ms, but no workload or demo has more than 12 edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# clip_halfplane is unused here; perfbench/tracing.py rebinds ellipse.clip_halfplane
from .geometry import ConvexPolygon, clip_halfplane, require_interior, unit_direction  # noqa: F401

_ROW_TOL = 1e-12  # rounding allowed on an LP row, in units of diam(K)^2
_TIE = 1e-12  # triples whose t is within this share of the least one tie
_CHUNK = 1 << 18  # index triples (i, j, k) screened at once, feasible or not


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
    iterations: int  # feasible edge triples compared
    feasibility_residual: float
    active_edges: tuple[int, ...]  # edges the witness touches, as K.edge_normals() rows


def containment_violation(e: InscribedEllipse, K: ConvexPolygon) -> float:
    """Max over edges of how far the ellipse pokes out of K (<= 0 means inside)."""
    n, c = K.edge_normals()
    na = n @ e.a
    ny = n @ e.y
    reach = n @ e.center + np.sqrt(na * na + e.b * e.b * ny * ny)
    return float(np.max(reach - c))


def ellipse_in_polygon(e: InscribedEllipse, K: ConvexPolygon) -> bool:
    return containment_violation(e, K) <= 1e-9  # rounding forgiven past an edge


def _triple_sums(n, s, q):
    """Feasible edge triples i < j < k and sum_e mu_e q_e over each, in chunks.

    A triple's dual ray is mu = (r_j x r_k, r_k x r_i, r_i x r_j), the cross
    products of its rows r_e = s_e n_e.  The edges run counter-clockwise, so a
    triple whose normals positively span the plane has mu >= 0 in this order,
    and a triple with mixed signs is infeasible.  Yields (i, j, k, sums) over
    the feasible triples of a run of first edges i; a run holds at most
    _CHUNK // m^2 of them (one if m is large), so memory stays O(m^2).
    """
    r = s[:, None] * n
    X = np.outer(r[:, 0], r[:, 1])
    X = X - X.T  # X[j, k] = r_j x r_k
    m = len(s)
    step = max(1, _CHUNK // (m * m))
    for first in range(0, m - 2, step):
        idx = np.arange(m - first)
        i, j, k = np.nonzero((idx[:step, None, None] < idx[:, None]) & (idx[:, None] < idx))
        i, j, k = i + first, j + first, k + first
        mu = np.column_stack([X[j, k], X[k, i], X[i, j]])
        top = mu.max(axis=1)
        # antiparallel edges give exact zeros that rounding can push below 0, and
        # three edges on one line (collinear vertices) give mu = 0
        ok = (mu.min(axis=1) >= -1e-12 * top) & (top > 0.0)
        i, j, k, mu = i[ok], j[ok], k[ok], np.maximum(mu[ok], 0.0)
        yield i, j, k, mu[:, :1] * q[i] + mu[:, 1:2] * q[j] + mu[:, 2:] * q[k]


def best_ellipse(K: ConvexPolygon, x, y) -> EllipseSolveReport:
    """Largest b for which some inscribed ellipse through x with axis y fits in K.

    b^2 is the least t over the feasible edge triples (module docstring), in
    units of diam(K).  By complementary slackness the witness (a, t) makes the
    minimizing triple's three rows tight.  Of triples tied for the least t, the
    one whose vertex violates the rows least wins: with an antiparallel pair the
    third edge has mu_e = 0, its row need not be tight, and the vertex can lie
    outside K.
    """
    x = require_interior(K, x)
    y = unit_direction(y)
    n, c = K.edge_normals()
    diam = K.diameter
    s = (c - n @ x) / diam
    G, h = np.column_stack([-2.0 * s[:, None] * n, (n @ y) ** 2]), s * s
    ties, compared = [], 0
    for i, j, k, sums in _triple_sums(n, s, np.column_stack([G[:, 2], h])):
        den, num = sums.T
        # an antiparallel pair with <n, y> = 0 gives den = 0: it bounds no t
        t = np.divide(num, den, out=np.full(len(den), math.inf), where=den > 0.0)
        compared += len(t)
        near = t <= np.min(t, initial=math.inf) * (1.0 + _TIE)
        ties.append((np.column_stack([i[near], j[near], k[near]]), t[near]))
    best = min(float(np.min(t, initial=math.inf)) for _, t in ties)
    T = np.concatenate([tri[t <= best * (1.0 + _TIE)] for tri, t in ties])
    Z = np.linalg.solve(G[T], h[T][..., None])[..., 0]
    V = Z @ G.T - h  # each tied vertex's row violations
    win = int(np.argmin(V.max(axis=1)))
    w = InscribedEllipse(x=x, y=y, a=diam * Z[win, :2], b=diam * math.sqrt(best))
    active = tuple(int(e) for e in np.flatnonzero(V[win] >= -_ROW_TOL))
    residual = max(containment_violation(w, K), 0.0)
    return EllipseSolveReport(w.b, w, compared, residual, active)


def best_ellipse_all_dirs(K: ConvexPolygon, x, n_dirs: int = 256) -> float:
    """Direction-free constant E(K, x): the minimum of best_ellipse over unit y.

    E^2 is the least sum mu_e s_e^2 / lambda_max(M), M = sum mu_e n_e n_e^T,
    over the feasible edge triples, with lambda_max of the 2x2 M in closed form.
    n_dirs is unused; it is kept so that callers passing it keep working.
    """
    x = require_interior(K, x)
    n, c = K.edge_normals()
    s = c - n @ x
    # per edge: the entries n1^2, n1 n2, n2^2 of n n^T, and s^2
    q = np.column_stack([n[:, 0] ** 2, n[:, 0] * n[:, 1], n[:, 1] ** 2, s * s])
    best = math.inf
    for _, _, _, sums in _triple_sums(n, s, q):
        A, B, C, S = sums.T
        lam_max = 0.5 * (A + C) + np.hypot(0.5 * (A - C), B)
        best = min(best, float(np.min(S / lam_max, initial=math.inf)))
    return math.sqrt(best)
