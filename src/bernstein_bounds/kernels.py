"""Kernel sets of directional bound families.

A family of bounds r(theta) > 0 over directions y(theta) has two associated
sets: the fleecy cloud {t * y : |t| <= r(y)} (generally nonconvex) and the
kernel, the intersection of the slabs |<v, y(theta)>| <= r(theta).  For the
bound family coming from the pluripotential derivative the kernel is an exact
ellipse with closed-form axes; for the chord-and-alpha family it is a polygon,
and on the simplex that family's cloud has a closed-form area.

A sampled table of N bounds gives 2N half-planes whose normals are already
sorted by angle.  ``kernel_intersect`` finds the binding ones as the convex
hull of their polar points (polar duality; the origin is strictly inside every
half-plane) by one vectorized turn test, then an O(N) stack pass over the
survivors if the test dropped any, and intersects consecutive binding lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# clip_halfplane is unused here; perfbench/tracing.py rebinds kernels.clip_halfplane
from .geometry import ConvexPolygon, clip_halfplane  # noqa: F401
from .simplex import alpha_simplex, check_interior
# kr_bound_dir is unused here; perfbench/tracing.py rebinds kernels.kr_bound_dir
from .simplex import kr_bound_dir  # noqa: F401

_SVG_PAD = 0.05  # margin around the drawing, as a share of its span


@dataclass(frozen=True)
class DirectionalBoundTable:
    """Finite bounds r(theta_k) > 0 at finite angles strictly increasing in [0, pi).

    ``from_function`` samples the uniform grid k * pi / n.
    """

    thetas: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=float)
        r = np.asarray(self.r, dtype=float)
        if thetas.ndim != 1 or thetas.shape != r.shape:
            raise ValueError("thetas and r must be matching 1-d arrays")
        if len(thetas) < 16:
            raise ValueError("need at least 16 directions")
        if not (np.all(np.isfinite(thetas)) and np.all(np.isfinite(r))):
            raise ValueError("thetas and r must be finite")
        if np.any(r <= 0.0):
            raise ValueError("all bounds must be positive")
        if thetas[0] < 0.0 or thetas[-1] >= math.pi or np.any(np.diff(thetas) <= 0.0):
            raise ValueError("thetas must increase strictly within [0, pi)")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "r", r)

    @classmethod
    def from_function(cls, fn, n: int) -> "DirectionalBoundTable":
        thetas = np.arange(n) * (math.pi / n)
        return cls(thetas=thetas, r=np.asarray(fn(thetas), dtype=float))


@dataclass(frozen=True)
class KernelRegion:
    """Convex, origin-symmetric polygon cut out by the slab constraints."""

    polygon: ConvexPolygon

    def __post_init__(self):
        v = self.polygon.vertices
        m = len(v)
        scale = float(np.max(np.abs(v)))
        if m % 2 != 0 or np.any(np.abs(v + np.roll(v, m // 2, axis=0)) > 1e-9 * scale):
            raise ValueError("kernel region is not centrally symmetric")

    @property
    def area(self) -> float:
        return self.polygon.area


def kernel_intersect(table: DirectionalBoundTable) -> KernelRegion:
    """Intersect the slabs |<v, y(theta_k)>| <= r_k exactly.

    The 2N half-planes <n_k, v> <= c_k take the normals [dirs; -dirs], which
    are sorted by angle because the table's thetas increase within [0, pi).
    Every c_k = r_k > 0, so the origin is strictly inside each half-plane and,
    by polar duality, a line bounds the intersection exactly when its polar
    point n_k / c_k is a vertex of the convex hull of all polar points.  Those
    are found in the angle-sorted polar points (``_binding_lines``); the
    vertices are the intersections of consecutive binding lines, and the
    clusters left by (nearly) concurrent lines are merged.
    """
    dirs = np.stack([np.cos(table.thetas), np.sin(table.thetas)], axis=1)
    normals = np.vstack([dirs, -dirs])
    offsets = np.concatenate([table.r, table.r])
    lines = _binding_lines(normals / offsets[:, None])
    n1, c1 = normals[lines], offsets[lines]
    n2, c2 = np.roll(n1, -1, axis=0), np.roll(c1, -1)
    det = n1[:, 0] * n2[:, 1] - n1[:, 1] * n2[:, 0]
    vx = (c1 * n2[:, 1] - c2 * n1[:, 1]) / det
    vy = (n1[:, 0] * c2 - n2[:, 0] * c1) / det
    verts = _dedupe_loop(np.stack([vx, vy], axis=1))
    return KernelRegion(polygon=ConvexPolygon(verts))


def _binding_lines(p: np.ndarray) -> np.ndarray:
    """Ascending indices of the hull vertices of points p sorted by angle about 0.

    The origin is interior to the hull, so consecutive points are less than pi
    apart, and a point where the loop does not turn strictly left lies in the
    triangle of the origin and its two neighbours: it is no hull vertex.  One
    vectorized turn test drops all such points; if it drops none they are the
    hull, else one stack pass over the survivors from a known hull vertex (the
    farthest point) keeps exactly the strict left turns, by the same cross product.
    The test is not iterated: a round only peels the two ends of each locally
    convex arc, so two tight antipodal lines would take O(N) rounds.
    """
    left = _turns_left(p)
    if left.all():
        return np.arange(len(p))
    keep = np.flatnonzero(left)
    q = p[keep]
    m = len(q)
    s = int(np.argmax(np.sum(q * q, axis=1)))
    xs, ys = np.roll(q, -s, axis=0).T.tolist()
    hull = [0]
    for k in range(1, m + 1):
        x, y = xs[k % m], ys[k % m]
        while len(hull) > 1:
            a, b = hull[-2], hull[-1]
            if (xs[b] - xs[a]) * (y - ys[b]) - (ys[b] - ys[a]) * (x - xs[b]) > 0.0:
                break
            hull.pop()
        hull.append(k)
    return keep[np.sort((np.array(hull[:-1]) + s) % m)]


def _turns_left(p: np.ndarray) -> np.ndarray:
    """Whether the closed loop p turns strictly left at each of its points."""
    d = np.diff(np.concatenate([p[-1:], p, p[:1]]), axis=0)
    return d[:-1, 0] * d[1:, 1] - d[:-1, 1] * d[1:, 0] > 0.0


def _dedupe_loop(v: np.ndarray) -> np.ndarray:
    """Drop vertices within 1e-9 (relative) of their predecessor in a closed loop."""
    scale = float(np.max(np.abs(v)))
    keep = np.linalg.norm(v - np.roll(v, 1, axis=0), axis=1) > 1e-9 * scale
    return v[keep]


def cloud_area(x):
    """Area of the fleecy cloud swept by the chord-and-alpha bound family at x.

    The cloud's area is the polar integral of r(theta)^2 = 4 / (tau(theta)^2
    (1 - alpha)) over [0, pi).  On the simplex 1/tau is cos + sin on [0, pi/2],
    sin on [pi/2, 3 pi/4] and -cos on [3 pi/4, pi), whose squares integrate to
    pi/2 + 1, pi/8 + 1/4 and pi/8 + 1/4: so the area is 4 (3 pi/4 + 3/2) /
    (1 - alpha) = (6 + 3 pi) / (1 - alpha), and 9 + 9 pi/2 at the centroid.
    """
    out = (6.0 + 3.0 * math.pi) / (1.0 - alpha_simplex(x))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class KernelEllipse:
    """Kernel of the pluripotential bound family: u' Q u <= 1 in closed form.

    Q has entries [[A, -C/2], [-C/2, B]] with A = x1(1-x1), B = x2(1-x2),
    C = 2 x1 x2; mu and nu are the minor and major half-axes, and angle is
    the direction of the major (nu) axis, in [0, pi).
    """

    A: float
    B: float
    C: float
    angle: float
    mu: float
    nu: float

    def __post_init__(self):
        if self.A <= 0.0 or self.B <= 0.0 or self.A * self.B - 0.25 * self.C**2 <= 0.0:
            raise ValueError("quadratic form is not positive definite")

    @property
    def area(self) -> float:
        return math.pi * self.mu * self.nu

    def boundary(self, n: int = 256) -> np.ndarray:
        t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        u = self.nu * np.cos(t)
        w = self.mu * np.sin(t)
        return np.stack([ca * u - sa * w, sa * u + ca * w], axis=1)


def kernel_ellipse_closed_form(x) -> KernelEllipse:
    """Closed-form kernel ellipse of the pluripotential family at x."""
    x = check_interior(x)
    if x.shape[-1] != 2 or x.ndim != 1:
        raise ValueError("closed form is for a single planar simplex point")
    x1, x2 = float(x[0]), float(x[1])
    A = x1 * (1.0 - x1)
    B = x2 * (1.0 - x2)
    C = 2.0 * x1 * x2
    D = math.sqrt((A - B) ** 2 + C * C)
    mu = math.sqrt(2.0 / (A + B + D))
    nu = math.sqrt(2.0 / (A + B - D))
    angle = (0.5 * math.atan2(-C, A - B) + math.pi / 2.0) % math.pi
    return KernelEllipse(A=A, B=B, C=C, angle=angle, mu=mu, nu=nu)


def kernel_area_closed(x):
    """pi / sqrt(x1 x2 x3), the exact area of the closed-form kernel ellipse."""
    x = check_interior(x)
    if x.shape[-1] != 2:
        raise ValueError("closed form is for the planar simplex")
    x1, x2 = x[..., 0], x[..., 1]
    return math.pi / np.sqrt(x1 * x2 * (1.0 - x1 - x2))


def region_to_csv(vertices: np.ndarray) -> str:
    lines = ["x,y"]
    for vx, vy in vertices:
        lines.append(f"{vx:.12g},{vy:.12g}")
    return "\n".join(lines) + "\n"


def regions_to_svg(regions) -> str:
    """Minimal SVG document with one path per closed vertex loop, 5% margin."""
    allv = np.vstack([np.asarray(r, dtype=float) for r in regions])
    lo = allv.min(axis=0)
    hi = allv.max(axis=0)
    span = float(np.max(hi - lo))
    margin = _SVG_PAD * span
    x0, y0 = lo - margin
    w, h = hi - lo + 2.0 * margin
    paths = []
    for r in regions:
        pts = " L ".join(f"{px:.6g},{py:.6g}" for px, py in np.asarray(r, dtype=float))
        paths.append(
            f'<path d="M {pts} Z" fill="none" stroke="black" '
            f'stroke-width="{span / 400.0:.6g}"/>'
        )
    body = "\n".join(paths)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0:.6g} {y0:.6g} {w:.6g} {h:.6g}">\n'
        f'<g transform="translate(0,{(2.0 * y0 + h):.6g}) scale(1,-1)">\n'
        f"{body}\n</g>\n</svg>\n"
    )
