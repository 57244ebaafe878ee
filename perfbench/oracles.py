"""Independent answers for every benchmark op.

Each check takes the op's input and the program's answer and returns
``(ok, rel_err)``.  ``rel_err`` is the relative distance from an exact value
the op approximates, or ``None`` when the oracle is only an inequality.  The
closed forms are written out here in barycentric coordinates rather than
imported from the package, so a defect in the package cannot hide in its own
reference.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

VERIFY_SLACK = 1e-3  # the randomized harness's stated slack
BISECTION_TOL = 1e-8  # best_ellipse resolves b to this share of diam(K)
CONTAINMENT_TOL = 1e-9
CLOUD_TOL = (1.0 + 1e-3) ** 2
SUP_NORM_TOL = 1e-9
ALPHA_TOL = 1e-9
# one bisection tolerance below; above, bisection noise can also steer the
# golden-section search off the minimizing angle
ALL_DIRS_TOL = 3.0 * BISECTION_TOL
BARAN_AREA_TOL = 1e-3
KR_AREA_TOL = 1e-9
CLOUD_AREA_TOL = 1e-10
COMPARE_QUOTIENT_FLOOR = 1.0 - 1e-9
COMPARE_NEAR = 1e-6
COMPARE_ANGLE_TOL = 1e-3
SZEGO_EXCESS = 1e-9
SZEGO_GENERIC_GAP = 1e-12
SZEGO_DEGENERATE_GAP = 1e-3
ROUNDING = 1e-12


def rel(got, want):
    return abs(got - want) / abs(want)


def barycentric(x):
    """Barycentric coordinates (x1, x2, 1 - x1 - x2) of a point of the standard triangle."""
    x = np.asarray(x, dtype=float)
    return np.array([x[0], x[1], 1.0 - x[0] - x[1]])


def ellipse_constant(x, y):
    """E(x, y) on the standard triangle: (sum_i dl_i^2 / l_i)^(-1/2), y a unit vector.

    dl = (y1, y2, -y1 - y2) is the change of the barycentric coordinates l
    along y; the expression is homogeneous of degree -1 in y.
    """
    lam = barycentric(x)
    dl = np.array([y[0], y[1], -y[0] - y[1]])
    return 1.0 / math.sqrt(float(np.sum(dl * dl / lam)))


def alpha_simplex(x):
    return 1.0 - 2.0 * float(np.min(barycentric(x)))


def kernel_form(x):
    """diag(x) - x x^T: the kernel ellipse of the pluripotential bound is v' F v <= 1."""
    x = np.asarray(x, dtype=float)
    return np.diag(x) - np.outer(x, x)


def edge_lines(vertices):
    """Outward unit normals n and offsets c of a CCW polygon: K = {p : n.p <= c}."""
    v = np.asarray(vertices, dtype=float)
    e = np.roll(v, -1, axis=0) - v
    n = np.stack([e[:, 1], -e[:, 0]], axis=1)
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    return n, np.sum(n * v, axis=1)


def diameter(vertices):
    v = np.asarray(vertices, dtype=float)
    return float(np.sqrt(np.max(np.sum((v[:, None] - v[None]) ** 2, axis=-1))))


def ellipse_overshoot(vertices, center, a, b, y):
    """How far the ellipse center + cos t a + b sin t y reaches past the edges."""
    n, c = edge_lines(vertices)
    reach = n @ center + np.sqrt((n @ a) ** 2 + (b * (n @ y)) ** 2)
    return float(np.max(reach - c))


def triangle_bounds(vertices, x, y):
    """E(T, x, y) on every triangle T cut out by three edge lines of the polygon.

    Three half-planes bound a triangle exactly when their outward normals
    positively span the plane; that triangle then contains the polygon, so
    the best inscribed ellipse of the polygon is no larger than its own.
    """
    n, c = edge_lines(vertices)
    out = []
    for i, j, k in itertools.combinations(range(len(n)), 3):
        N = n[[i, j, k]]
        C = c[[i, j, k]]
        # weights w > 0 with w N = 0 exist iff the normals positively span
        w = np.array([
            N[1, 0] * N[2, 1] - N[1, 1] * N[2, 0],
            N[2, 0] * N[0, 1] - N[2, 1] * N[0, 0],
            N[0, 0] * N[1, 1] - N[0, 1] * N[1, 0],
        ])
        if not (np.all(w > 1e-12) or np.all(w < -1e-12)):
            continue
        corners = [np.linalg.solve(N[[p, q]], C[[p, q]]) for p, q in ((1, 2), (2, 0), (0, 1))]
        A = np.column_stack([corners[1] - corners[0], corners[2] - corners[0]])
        x0 = np.linalg.solve(A, x - corners[0])
        w0 = np.linalg.solve(A, y)
        # E is homogeneous of degree -1, so E(T, x, y) = E(x0, w0/|w0|) / |w0|
        out.append(ellipse_constant(x0, w0 / np.linalg.norm(w0)) / np.linalg.norm(w0))
    return out


# ---- verify -----------------------------------------------------------------


def check_verify(inp, report):
    ok = not report["violations"] and report["max_quotient"] <= 1.0 + VERIFY_SLACK
    return ok, None


def check_cloud(inp, samples):
    F = kernel_form(inp["x"])
    v = np.array([s.vector for s in samples])
    ok = len(v) > 0 and float(np.max(np.einsum("ij,jk,ik->i", v, F, v))) <= CLOUD_TOL
    return ok, None


def check_transplant_norm(inp, cert):
    err = abs(cert.value - 1.0)
    return err <= SUP_NORM_TOL, err


# ---- ellipse ----------------------------------------------------------------


def _affine_best_b(inp):
    """Affine covariance: E(T K, T x, A y/|A y|) = |A y| E(K, x, y) for unit y."""
    return float(np.linalg.norm(inp["A"] @ inp["y0"])) * ellipse_constant(inp["x0"], inp["y0"])


def _witness_fits(inp, report):
    w = report.witness
    return ellipse_overshoot(inp["K"].vertices, w.x - w.a, w.a, w.b, w.y) <= CONTAINMENT_TOL


def check_best_ellipse_triangle(inp, report):
    want = _affine_best_b(inp)
    got = report.best_b
    diam = diameter(inp["K"].vertices)
    # bisection keeps a feasible lower end, so the answer may only fall short
    ok = (
        got <= want * (1.0 + ROUNDING)
        and want - got <= BISECTION_TOL * diam + ROUNDING * want
        and _witness_fits(inp, report)
    )
    return ok, rel(got, want)


def check_best_ellipse_polygon(inp, report):
    y = inp["y"] / np.linalg.norm(inp["y"])
    ceiling = min(triangle_bounds(inp["K"].vertices, inp["x"], y))
    ok = report.best_b <= ceiling * (1.0 + ROUNDING) and _witness_fits(inp, report)
    return ok, None


def check_alpha_triangle(inp, value):
    want = alpha_simplex(inp["x0"])
    return abs(value - want) <= ALPHA_TOL, rel(value, want)


def all_dirs_exact(inp):
    """min over directions of |A y| E(x0, y) = sqrt(lambda_min(A^T A, Q))."""
    lam = barycentric(inp["x0"])
    Q = np.diag(1.0 / lam[:2]) + 1.0 / lam[2]
    A = inp["A"]
    return math.sqrt(float(np.min(np.linalg.eigvals(np.linalg.solve(Q, A.T @ A)).real)))


def check_all_dirs(inp, value):
    want = all_dirs_exact(inp)
    diam = diameter(inp["K"].vertices)
    return abs(value - want) <= ALL_DIRS_TOL * diam, rel(value, want)


# ---- kernel -----------------------------------------------------------------


def circumscribed_area(r):
    """Area of the polygon whose 2N edge lines all touch it, at offsets r, r.

    Line k, at normal angle k pi / N, meets its neighbours at tangential
    coordinates that give its edge length (r[k-1] + r[k+1] - 2 r[k] cos d) / sin d,
    and the area is half the sum of offset times edge length.
    """
    # the edge lengths cancel O(1) terms down to O(d): extended precision
    # keeps this reference well below the program's own rounding
    h = np.concatenate([r, r]).astype(np.longdouble)
    d = np.longdouble(math.pi) / len(r)
    edges = (np.roll(h, 1) + np.roll(h, -1) - 2 * h * np.cos(d)) / np.sin(d)
    return float(np.sum(h * edges) / 2)


def check_kernel_baran(inp, region):
    """Every tangent line binds: 2N vertices, the area of the circumscribed
    polygon, and within 1e-3 of the ellipse's pi / sqrt(x1 x2 x3)."""
    lam = barycentric(inp["x"])
    ellipse_area = math.pi / math.sqrt(float(np.prod(lam)))
    err = rel(region.area, circumscribed_area(inp["table"].r))
    ok = (
        len(region.polygon.vertices) == 2 * inp["dirs"]
        and err <= KR_AREA_TOL
        and rel(region.area, ellipse_area) <= BARAN_AREA_TOL
    )
    return ok, err


def kr_area(x):
    """Area of the chord-and-alpha hexagon, 12 / (1 - alpha(x)), when dirs % 4 == 0."""
    return 12.0 / (1.0 - alpha_simplex(x))


def check_kernel_kr(inp, region):
    err = rel(region.area, kr_area(inp["x"]))
    return len(region.polygon.vertices) == 6 and err <= KR_AREA_TOL, err


def check_kernel_perturbed(inp, region):
    """Raising bounds by at most a factor 1 + eps grows the kernel into (1 + eps) K0."""
    a0 = kr_area(inp["x"])
    lo = a0 * (1.0 - KR_AREA_TOL)
    hi = a0 * (1.0 + inp["eps"]) ** 2 * (1.0 + KR_AREA_TOL)
    return lo <= region.area <= hi, None


def check_cloud_area(inp, value):
    want = (6.0 + 3.0 * math.pi) / (1.0 - alpha_simplex(inp["x"]))
    err = rel(value, want)
    return err <= CLOUD_AREA_TOL, err


def compare_row_count(grid, dirs, margin=1e-3):
    t = np.arange(1, grid + 1) / (grid + 1)
    x1, x2 = np.meshgrid(t, t, indexing="ij")
    slack = np.minimum(np.minimum(x1, x2), 1.0 - x1 - x2)
    return int(np.count_nonzero(slack > margin)) * dirs


def check_compare(inp, code):
    """Re-read the CSV the command wrote and check it against the paper's claims."""
    if code != 0:
        return False, None
    data = np.loadtxt(inp["out"], delimiter=",", skiprows=1, ndmin=2)
    phi, quotient = data[:, 2], data[:, 6]
    near = phi[quotient < 1.0 + COMPARE_NEAR]
    special = np.array([0.0, math.pi / 2.0, 3.0 * math.pi / 4.0])
    dev = np.abs((near[:, None] - special + math.pi / 2.0) % math.pi - math.pi / 2.0)
    ok = (
        len(data) == compare_row_count(inp["grid"], inp["dirs"])
        and float(np.min(quotient)) >= COMPARE_QUOTIENT_FLOOR
        and len(near) > 0
        and float(np.max(np.min(dev, axis=1))) <= COMPARE_ANGLE_TOL
    )
    return ok, None


# ---- interval ---------------------------------------------------------------


def szego_bound(inp):
    return inp["n"] / math.sqrt((inp["b"] - inp["x"]) * (inp["x"] - inp["a"]))


def check_szego_generic(inp, answer):
    ratio, bound = answer
    want = szego_bound(inp)
    ok = (
        rel(bound, want) <= ROUNDING
        and ratio <= bound + SZEGO_EXCESS
        and abs(bound - ratio) <= SZEGO_GENERIC_GAP * bound
    )
    return ok, abs(bound - ratio) / bound


def check_szego_degenerate(inp, answer):
    ratio, bound = answer
    ok = (
        rel(bound, szego_bound(inp)) <= ROUNDING
        and ratio <= bound + SZEGO_EXCESS
        and bound - ratio < SZEGO_DEGENERATE_GAP
    )
    return ok, abs(bound - ratio) / bound
