"""Planar convex-body primitives: polygons, their edge lines, chords, and the
generalized Minkowski functional alpha(K, x).

Polygons are stored as CCW vertex arrays; every chord query reads the edge
lines n_e . p = c_e.  All directional quantities accept plain unit vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_BOUNDARY_TOL = 1e-12


class PolygonFormatError(ValueError):
    """Raised when a polygon text file cannot be parsed; names the bad line."""


@dataclass(frozen=True)
class ConvexPolygon:
    """Convex polygon given by CCW vertices (m, 2), m >= 3.

    Consecutive vertices within 1e-14 max|v| (the coordinates' rounding) are
    rejected as coincident; collinear triples are allowed (the turn
    e_i x e_(i+1) at each vertex must be >= -1e-9 |e_i| |e_(i+1)|, so the test
    does not depend on the polygon's size or position).  The vertices are a
    read-only copy, so the cached edge lines and diameter cannot go stale.

    unit_exp is the k with max|v| in [2^(k-1), 2^k).  The validation, the edge
    normals, the diameter and the ellipse layer's squares are taken in units of
    2^k, scaled by np.ldexp, which is exact: coordinates of any finite size
    give the same digits, and no square of a length of K over- or underflows.
    unit_diameter is the diameter in those units; it stays finite where the
    diameter itself, at max|v| above about 6e307, overflows.
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
        top, k = math.frexp(float(np.max(np.abs(v))))  # max|v| = top * 2^k
        u = np.ldexp(v, -k)
        e = np.roll(u, -1, axis=0) - u
        length = np.hypot(e[:, 0], e[:, 1])
        if np.any(length <= 1e-14 * top):
            raise ValueError("two consecutive vertices coincide")
        cross = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
        if np.any(cross < -1e-9 * length * np.roll(length, -1)):
            raise ValueError("vertices are not in convex CCW order")
        if _shoelace(u) <= 0.0:
            raise ValueError("polygon has nonpositive area; is it CW?")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "unit_exp", k)

    @property
    def area(self) -> float:
        return _shoelace(self.vertices)

    @cached_property
    def unit_diameter(self) -> float:
        u = np.ldexp(self.vertices, -self.unit_exp)
        d2 = np.sum((u[:, None, :] - u[None, :, :]) ** 2, axis=-1)
        return math.sqrt(float(np.max(d2)))

    @property
    def diameter(self) -> float:
        return float(np.ldexp(self.unit_diameter, self.unit_exp))

    def edge_normals(self):
        """Outward unit normals and offsets: K = {p : n_i . p <= c_i} (read-only)."""
        return self._edge_lines

    @cached_property
    def _edge_lines(self):
        v = self.vertices
        e = np.ldexp(np.roll(v, -1, axis=0) - v, -self.unit_exp)
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


def require_interior(K: ConvexPolygon, x) -> np.ndarray:
    """x as a float array, if its slack exceeds 1e-12 times the diameter of K
    (compared in K's units of 2^k)."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("point must be finite")
    if math.ldexp(interior_slack(K, x), -K.unit_exp) <= _BOUNDARY_TOL * K.unit_diameter:
        raise ValueError("point is not strictly interior to the polygon")
    return x


def unit_direction(y) -> np.ndarray:
    """y scaled to unit length along its last axis; each direction must be finite and nonzero."""
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("direction must be finite")
    length = np.hypot.reduce(y, axis=-1, keepdims=True)
    if (length == 0.0).any():
        raise ValueError("direction must be nonzero")
    return y / length


def _edge_widths(K: ConvexPolygon) -> np.ndarray:
    """Width w_e = c_e - min_k <n_e, v_k> of K across each edge line n_e . p = c_e."""
    n, c = K.edge_normals()
    return c - np.min(K.vertices @ n.T, axis=0)


def min_width(K: ConvexPolygon) -> float:
    """Minimal width min_e w_e: for a polygon the minimizing direction is an edge normal."""
    return float(np.min(_edge_widths(K)))


def _ray_hits(K: ConvexPolygon, origin, dirs) -> np.ndarray:
    """Distance from a strictly interior origin to the boundary along each direction.

    1 / max_e <n_e, d> / s_e with the slacks s_e = c_e - <n_e, origin> > 0: K is
    bounded, so some edge faces every nonzero d and the maximum is positive.
    """
    n, c = K.edge_normals()
    return 1.0 / np.max(dirs @ n.T / (c - n @ origin), axis=-1)


def maximal_chord(K: ConvexPolygon, v):
    """Length tau(K, v) of the longest chord of K parallel to v, over directions (..., 2).

    tau is the radial function of the difference body K + (-K) = intersection
    of the slabs |<n_e, p>| <= w_e, so 1/tau is the support function of its
    polar conv{+-n_e / w_e}: tau = 1 / max_e |<n_e, v>| / w_e for unit v.
    A float for one direction.
    """
    n, _ = K.edge_normals()
    out = 1.0 / np.max(np.abs(unit_direction(v) @ n.T) / _edge_widths(K), axis=-1)
    return out if out.ndim else float(out)


def chord_balance(K: ConvexPolygon, x, thetas) -> np.ndarray:
    """2 sqrt(|x-a||x-b|) / |a-b| for the chord through x at each angle."""
    x = require_interior(K, x)
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if not np.all(np.isfinite(thetas)):
        raise ValueError("angle must be finite")
    d = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    tp = _ray_hits(K, x, d)
    tm = _ray_hits(K, x, -d)
    return 2.0 * np.sqrt(tp * tm) / (tp + tm)


def gamma(K: ConvexPolygon, x) -> float:
    """Infimum of the chord balance over all chord angles.

    Between consecutive vertex directions arg(v_k - x) mod pi the chord through
    x ends on two fixed edges i and j, and the ratio of its halves, rho = s_i
    (-n_j . d) / (s_j (n_i . d)) with s the slacks of x, is monotone (the sign
    of its derivative is that of n_i x n_j).  The balance 2 sqrt(rho)/(1 + rho)
    is quasi-concave in rho, so on each arc it is least at a vertex chord.
    """
    x = require_interior(K, x)
    rho = _ray_hits(K, x, x - K.vertices)  # in units of |v_k - x| the front half is 1
    vals = 2.0 * np.sqrt(rho) / (1.0 + rho)
    return float(np.min(vals))


def alpha(K: ConvexPolygon, x) -> float:
    """Generalized Minkowski functional sqrt(1 - gamma^2), gamma exact."""
    g = gamma(K, x)
    return math.sqrt(max(1.0 - g * g, 0.0))


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
        try:
            text = fh.read()
        except UnicodeDecodeError:  # a ValueError, but a parse failure, not a domain error
            raise PolygonFormatError(f"{path}: not UTF-8 text") from None
    return parse_polygon_text(text)
