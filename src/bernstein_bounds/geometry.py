"""Planar convex-body primitives: polygons, support data, chords, and the
generalized Minkowski functional alpha(K, x).

Polygons are stored as CCW vertex arrays.  All directional quantities accept
plain unit vectors; ``UnitDirection`` is a thin validated wrapper for callers
that want the angle carried along.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

_BOUNDARY_TOL = 1e-12


class PolygonFormatError(ValueError):
    """Raised when a polygon text file cannot be parsed; names the bad line."""


@dataclass(frozen=True)
class UnitDirection:
    """Unit vector in the plane, stored by angle."""

    theta: float

    @property
    def vec(self) -> np.ndarray:
        return np.array([math.cos(self.theta), math.sin(self.theta)])

    @classmethod
    def from_vector(cls, v) -> "UnitDirection":
        v = np.asarray(v, dtype=float)
        n = np.linalg.norm(v)
        if n == 0.0:
            raise ValueError("zero vector has no direction")
        return cls(math.atan2(v[1], v[0]))


@dataclass(frozen=True)
class ConvexPolygon:
    """Convex polygon given by CCW vertices (m, 2), m >= 3.

    Consecutive duplicate vertices are rejected; collinear triples are allowed
    (cross products of consecutive edges must be >= 0 up to rounding).  The
    vertices are a read-only copy, so the cached edge lines and diameter
    cannot go stale.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float, ndmin=2)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError("vertices must be an (m, 2) array")
        if v.shape[0] < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite")
        scale = float(np.max(np.abs(v))) + 1.0
        e = np.roll(v, -1, axis=0) - v
        if np.any(np.hypot(e[:, 0], e[:, 1]) <= 1e-14 * scale):
            raise ValueError("two consecutive vertices coincide")
        cross = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
        if np.any(cross < -1e-9 * scale * scale):
            raise ValueError("vertices are not in convex CCW order")
        if _shoelace(v) <= 0.0:
            raise ValueError("polygon has nonpositive area; is it CW?")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def area(self) -> float:
        return _shoelace(self.vertices)

    @property
    def centroid(self) -> np.ndarray:
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        cr = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
        return (v + w).T @ cr / (6.0 * self.area)

    @cached_property
    def diameter(self) -> float:
        v = self.vertices
        d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=-1)
        return math.sqrt(float(np.max(d2)))

    def edge_normals(self):
        """Outward unit normals and offsets: K = {p : n_i . p <= c_i} (read-only)."""
        return self._edge_lines

    @cached_property
    def _edge_lines(self):
        v = self.vertices
        e = np.roll(v, -1, axis=0) - v
        n = np.stack([e[:, 1], -e[:, 0]], axis=1)
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        c = np.sum(n * v, axis=1)
        n.setflags(write=False)
        c.setflags(write=False)
        return n, c


def _shoelace(v) -> float:
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def interior_slack(K: ConvexPolygon, x) -> float:
    """Distance from x to the nearest edge line, negative outside."""
    n, c = K.edge_normals()
    x = np.asarray(x, dtype=float)
    return float(np.min(c - n @ x))


def require_interior(K: ConvexPolygon, x, tol: float = _BOUNDARY_TOL) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("point must be finite")
    if interior_slack(K, x) <= tol:
        raise ValueError("point is not strictly interior to the polygon")
    return x


@dataclass(frozen=True)
class InteriorPoint:
    """A point validated to lie strictly inside a polygon (slack > 1e-12)."""

    coords: np.ndarray
    body: ConvexPolygon = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coords", require_interior(self.body, self.coords))


def support(K: ConvexPolygon, u) -> float:
    """Support function h(K, u) = max over vertices of <v, u>."""
    return float(np.max(K.vertices @ np.asarray(u, dtype=float)))


def width(K: ConvexPolygon, u) -> float:
    u = np.asarray(u, dtype=float)
    return support(K, u) + support(K, -u)


def min_width(K: ConvexPolygon) -> float:
    """Minimal width; for a polygon the minimizing direction is an edge normal."""
    n, _ = K.edge_normals()
    return min(width(K, ni) for ni in n)


def diameter(K: ConvexPolygon) -> float:
    return K.diameter


def difference_body(K: ConvexPolygon) -> ConvexPolygon:
    """Central symmetrization K + (-K), built by merging edge vectors by angle."""
    v = K.vertices
    e = np.roll(v, -1, axis=0) - v
    edges = np.vstack([e, -e])  # CCW edges of -K are the negated edges of K
    ang = np.mod(np.arctan2(edges[:, 1], edges[:, 0]), 2.0 * math.pi)
    order = np.argsort(ang, kind="stable")
    start = _lowest_vertex(v) + _lowest_vertex(-v)
    chain = start + np.cumsum(edges[order], axis=0)
    return ConvexPolygon(np.vstack([start, chain[:-1]]))


def _lowest_vertex(v) -> np.ndarray:
    i = np.lexsort((v[:, 0], v[:, 1]))[0]
    return v[i]


def _ray_hits(K: ConvexPolygon, origin, dirs) -> np.ndarray:
    """Distance from a strictly interior origin to the boundary along each direction."""
    n, c = K.edge_normals()
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    num = c - n @ np.asarray(origin, dtype=float)  # (E,) all > 0 inside
    den = n @ dirs.T  # (E, N)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(den > 1e-300, num[:, None] / den, np.inf)
    return np.min(t, axis=0)


def maximal_chord(K: ConvexPolygon, v) -> float:
    """Length of the longest chord of K parallel to v.

    Equals the radius of the difference body K + (-K) in direction v.
    """
    v = np.asarray(v, dtype=float)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise ValueError("direction must be nonzero")
    D = difference_body(K)
    return float(_ray_hits(D, np.zeros(2), v / nv)[0])


def minkowski_gauge(K: ConvexPolygon, x) -> float:
    """Gauge inf{t > 0 : x in t*K}; requires the origin strictly inside K."""
    if interior_slack(K, np.zeros(2)) <= _BOUNDARY_TOL:
        raise ValueError("gauge needs the origin strictly interior to K")
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x)
    if r == 0.0:
        return 0.0
    return r / float(_ray_hits(K, np.zeros(2), x / r)[0])


def chord_balance(K: ConvexPolygon, x, thetas) -> np.ndarray:
    """2 sqrt(|x-a||x-b|) / |a-b| for the chord through x at each angle."""
    x = require_interior(K, x)
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    d = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    tp = _ray_hits(K, x, d)
    tm = _ray_hits(K, x, -d)
    return 2.0 * np.sqrt(tp * tm) / (tp + tm)


def gamma(K: ConvexPolygon, x, n_grid: int = 2048, return_angle: bool = False):
    """Infimum of the chord balance over all chord angles.

    Angular sweep on a uniform grid followed by golden-section refinement
    around the three best grid cells; refinement never increases the value.
    """
    x = require_interior(K, x)
    thetas = np.arange(n_grid) * (math.pi / n_grid)
    vals = chord_balance(K, x, thetas)
    best_val = float(np.min(vals))
    best_theta = float(thetas[int(np.argmin(vals))])
    h = math.pi / n_grid
    f = lambda t: float(chord_balance(K, x, t)[0])
    for i in np.argsort(vals)[:3]:
        t0 = thetas[i]
        v, t = _golden_min(f, t0 - h, t0 + h)
        if v < best_val:
            best_val, best_theta = v, t
    if return_angle:
        return best_val, best_theta % math.pi
    return best_val


def alpha(K: ConvexPolygon, x) -> float:
    """Generalized Minkowski functional sqrt(1 - gamma^2)."""
    g = gamma(K, x)
    return math.sqrt(max(1.0 - g * g, 0.0))


def _golden_min(f, a, b, tol=1e-12):
    """Golden-section minimum of f on [a, b]; returns (value, argmin)."""
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
    return (f1, x1) if f1 <= f2 else (f2, x2)


def clip_halfplane(vertices: np.ndarray, n, c: float) -> np.ndarray:
    """Clip a convex CCW vertex loop against {p : <n, p> <= c}.

    Returns the (possibly empty) clipped loop.  Standard Sutherland-Hodgman
    step; vertices exactly on the line are kept.
    """
    if len(vertices) == 0:
        return vertices
    n = np.asarray(n, dtype=float)
    d = vertices @ n - c
    inside = d <= 0.0
    if inside.all():
        return vertices
    if not inside.any():
        return vertices[:0]
    nxt = np.roll(np.arange(len(vertices)), -1)
    out = []
    for i, j in zip(range(len(vertices)), nxt):
        if inside[i]:
            out.append(vertices[i])
        if inside[i] != inside[j]:
            t = d[i] / (d[i] - d[j])
            out.append(vertices[i] + t * (vertices[j] - vertices[i]))
    return np.array(out)


def unit_triangle() -> ConvexPolygon:
    """The standard simplex conv{(0,0), (1,0), (0,1)}."""
    return ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


def parse_polygon_text(text: str) -> ConvexPolygon:
    """Parse the polygon file format: one 'x y' pair per line, CCW order.

    Blank lines and '#' comments are skipped.  Parse errors report the
    offending line number.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise PolygonFormatError(
                f"line {lineno}: expected two numbers, got {len(parts)} fields"
            )
        try:
            rows.append([float(parts[0]), float(parts[1])])
        except ValueError:
            raise PolygonFormatError(f"line {lineno}: could not parse {line!r}") from None
    if len(rows) < 3:
        raise PolygonFormatError(f"only {len(rows)} vertices; need at least 3")
    if not np.all(np.isfinite(rows)):
        raise ValueError("polygon vertices must be finite")  # a domain error, not a parse error
    try:
        return ConvexPolygon(np.array(rows))
    except ValueError as exc:
        raise PolygonFormatError(str(exc)) from None


def load_polygon(path) -> ConvexPolygon:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_polygon_text(fh.read())
