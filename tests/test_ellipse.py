import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernstein_bounds import ellipse as el
from bernstein_bounds import geometry as geo
from bernstein_bounds import simplex as sx

import routes

TRI = geo.unit_triangle()
M = np.array([1 / 3, 1 / 3])
CSQUARE = geo.ConvexPolygon(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]))
PARALLELOGRAM = geo.ConvexPolygon(np.array([[0.0, 0.0], [2.0, 0.3], [2.7, 1.5], [0.7, 1.2]]))


def _regular(m):
    angles = np.arange(m) * (2.0 * math.pi / m)
    return geo.ConvexPolygon(np.column_stack([np.cos(angles), np.sin(angles)]))


def _random_polygon(rng, m):
    """Hull of m points on an ellipse at random angles, under a random shear."""
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, m))
    A = np.array([[1.0, rng.uniform(-1.0, 1.0)], [0.0, rng.uniform(0.3, 2.0)]])
    return geo.ConvexPolygon(np.column_stack([np.cos(angles), np.sin(angles)]) @ A.T)


def test_inscribed_ellipse_validation():
    with pytest.raises(ValueError):
        el.InscribedEllipse(x=M, y=np.array([1.0, 1.0]), a=np.zeros(2), b=0.1)
    with pytest.raises(ValueError):
        el.InscribedEllipse(x=M, y=np.array([1.0, 0.0]), a=np.zeros(2), b=-0.1)


def test_ellipse_passes_through_x():
    e = el.InscribedEllipse(x=M, y=np.array([0.0, 1.0]), a=np.array([0.05, 0.0]), b=0.2)
    assert np.allclose(routes.ellipse_point(e, 0.0), M, atol=1e-15)
    assert np.allclose(e.center, M - e.a)


def test_containment_violation_signs():
    small = el.InscribedEllipse(x=M, y=np.array([1.0, 0.0]), a=np.array([0.0, 0.05]), b=0.05)
    assert el.containment_violation(small, TRI) < 0.0
    big = el.InscribedEllipse(x=M, y=np.array([1.0, 0.0]), a=np.array([0.0, 0.05]), b=5.0)
    assert el.containment_violation(big, TRI) > 1.0
    assert routes.ellipse_in_polygon(small, TRI)
    assert not routes.ellipse_in_polygon(big, TRI)


@pytest.mark.parametrize(
    "x,y,expected",
    [
        ((1 / 3, 1 / 3), (1.0, 0.0), 1.0 / math.sqrt(6.0)),
        ((1 / 3, 1 / 3), (1.0, 1.0), 1 / 3),
        ((0.5, 0.1), (1.0, 0.0), 1.0 / math.sqrt(4.5)),
    ],
)
def test_best_ellipse_matches_closed_form(x, y, expected):
    rep = el.best_ellipse(TRI, np.array(x), np.array(y))
    assert rep.best_b == pytest.approx(expected, rel=1e-12)
    # the optimal ellipse touches the triangle, and on all three sides
    assert abs(el.containment_violation(rep.witness, TRI)) <= 1e-12 * TRI.diameter
    assert rep.feasibility_residual <= 1e-12 * TRI.diameter
    assert rep.active_edges == (0, 1, 2)


def test_best_ellipse_centered_square():
    rep = el.best_ellipse(CSQUARE, np.zeros(2), np.array([1.0, 0.0]))
    assert rep.best_b == pytest.approx(1.0, rel=1e-12)


def _feasible_a(K, x, y, b):
    """{a : every edge condition holds at half-axis b}, by clipping a box; maybe empty."""
    n, c = K.edge_normals()
    s = c - n @ x
    R = K.diameter
    region = np.array([[-R, -R], [R, -R], [R, R], [-R, R]])
    for ni, hi in zip(n, (b * b * (n @ y) ** 2 - s * s) / (2.0 * s)):
        region = geo.clip_halfplane(region, -ni, -hi)
    return region


def _bracket_cases():
    yield "triangle", TRI, np.array([0.2, 0.3]), 0.7
    for m in range(4, 13):
        rng = np.random.default_rng(300 + m)
        K = _random_polygon(rng, m)
        yield f"random {m}-gon", K, rng.dirichlet(np.ones(m)) @ K.vertices, rng.uniform(0.0, math.pi)
    named = [("square", CSQUARE), ("parallelogram", PARALLELOGRAM)]
    named += [(f"regular {m}-gon", _regular(m)) for m in (6, 8, 12)]
    for name, K in named:
        rng = np.random.default_rng(len(K.vertices))
        x = rng.dirichlet(np.ones(len(K.vertices))) @ K.vertices
        for phi in (0.0, rng.uniform(0.0, math.pi)):  # phi = 0 runs along two square edges
            yield f"{name} at {phi:.3f}", K, x, phi


def test_lp_optimum_brackets_the_clipped_region():
    """Just below the reported b some a fits, just above none does (clipping, not the LP)."""
    for name, K, x, phi in _bracket_cases():
        y = np.array([math.cos(phi), math.sin(phi)])
        b = el.best_ellipse(K, x, y).best_b
        assert len(_feasible_a(K, x, y, (1.0 - 1e-9) * b)) > 0, name
        assert len(_feasible_a(K, x, y, (1.0 + 1e-9) * b)) == 0, name


@pytest.mark.parametrize("m", (6, 8, 12))
def test_witness_fits_on_regular_polygons(m):
    """Antiparallel edges make triples tie for the least t; the witness must still fit."""
    K = _regular(m)
    rng = np.random.default_rng(500 + m)
    worst = 0.0
    for x in rng.dirichlet(np.ones(m), size=50) @ K.vertices:
        for phi in np.arange(7) * (math.pi / 7):
            rep = el.best_ellipse(K, x, (math.cos(phi), math.sin(phi)))
            worst = max(worst, rep.feasibility_residual)
    assert worst <= 1e-12 * K.diameter


def test_best_b_shrinks_when_the_body_shrinks():
    y = np.array([1.0, 0.0])
    full = el.best_ellipse(TRI, M, y).best_b
    cut = geo.ConvexPolygon(geo.clip_halfplane(TRI.vertices, np.array([1.0, 1.0]) / math.sqrt(2), 0.8 / math.sqrt(2)))
    shrunk = el.best_ellipse(cut, M, y).best_b
    assert shrunk <= full + 1e-12
    assert shrunk < full  # the cut actually binds at the centroid


def test_reflection_equivariance():
    """Swapping the two coordinates maps the triangle to itself."""
    x = np.array([0.15, 0.55])
    y = np.array([math.cos(0.4), math.sin(0.4)])
    b1 = el.best_ellipse(TRI, x, y).best_b
    b2 = el.best_ellipse(TRI, x[::-1].copy(), y[::-1].copy()).best_b
    assert b1 == pytest.approx(b2, rel=1e-12)


def test_all_dirs_centroid_and_offcenter():
    got = el.best_ellipse_all_dirs(TRI, M)
    assert isinstance(got, float)
    assert got == pytest.approx(1 / 3, rel=1e-12)
    # collinear vertices split an edge into parallel rows that make no triple
    split = geo.ConvexPolygon(np.array([[0.0, 0.0], [0.25, 0.0], [0.5, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    for x in ([0.1, 0.1], [0.2, 0.5]):
        want = float(sx.ellipse_constant(np.array(x)))
        assert el.best_ellipse_all_dirs(TRI, np.array(x)) == pytest.approx(want, rel=1e-12)
        assert el.best_ellipse_all_dirs(split, np.array(x)) == pytest.approx(want, rel=1e-12)


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _primal(K, x, theta):
    return el.best_ellipse(K, x, (math.cos(theta), math.sin(theta))).best_b


def _sweep_and_golden(K, x, n_dirs=256, tol=1e-10):
    """Primal reference for the all-directions minimum: best_ellipse on a uniform
    angular sweep, then a golden-section search on the two cells around its best angle."""
    thetas = np.arange(n_dirs) * (math.pi / n_dirs)
    vals = [_primal(K, x, t) for t in thetas]
    k = int(np.argmin(vals))
    a, b = thetas[k] - math.pi / n_dirs, thetas[k] + math.pi / n_dirs
    x1, x2 = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    f1, f2 = _primal(K, x, x1), _primal(K, x, x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = _primal(K, x, x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = _primal(K, x, x2)
    return min(vals[k], f1, f2)


@pytest.mark.parametrize("m", range(3, 13))
def test_all_dirs_equals_the_primal_sweep_minimum(m):
    rng = np.random.default_rng(100 + m)
    K = _random_polygon(rng, m)
    x = rng.dirichlet(np.ones(len(K.vertices))) @ K.vertices
    got = el.best_ellipse_all_dirs(K, x)
    assert got == pytest.approx(_sweep_and_golden(K, x), rel=1e-12)
    if m in (3, 5, 8, 12):  # no direction of a dense sweep does better
        dense = min(_primal(K, x, t) for t in np.arange(2001) * (math.pi / 2001))
        assert got <= dense * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "K,x",
    [
        (CSQUARE, [0.3, -0.55]),
        (PARALLELOGRAM, [1.9, 0.6]),
    ],
    ids=["off-centre square", "parallelogram"],
)
def test_all_dirs_with_antiparallel_edges(K, x):
    x = np.array(x)
    assert el.best_ellipse_all_dirs(K, x) == pytest.approx(_sweep_and_golden(K, x), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=0.9),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
    st.floats(min_value=0.5, max_value=2.0),
    st.floats(min_value=0.5, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
def test_all_dirs_on_affine_triangles_property(u, v, rot1, rot2, s1, s2, c1, c2):
    """min over y of |A y| E(x, y) = sqrt(lambda_min(A^T A, Q)), where the triangle's
    E(x, y)^2 = 1 / y^T Q y with Q = diag(1/l1, 1/l2) + 11^T/l3 in barycentrics l of x."""

    def rotation(t):
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])

    A = rotation(rot1) @ np.diag([s1, s2]) @ rotation(rot2)
    x = np.array([u, v * (1.0 - u - 0.04) + 0.02])
    if np.linalg.det(A) < 0.0:  # keep the image counter-clockwise
        A, x = A[:, ::-1], x[::-1].copy()
    c = np.array([c1, c2])
    lam = np.array([x[0], x[1], 1.0 - x[0] - x[1]])
    Q = np.diag(1.0 / lam[:2]) + 1.0 / lam[2]
    want = math.sqrt(float(np.min(np.linalg.eigvals(np.linalg.solve(Q, A.T @ A)).real)))
    got = el.best_ellipse_all_dirs(geo.ConvexPolygon(TRI.vertices @ A.T + c), A @ x + c)
    assert got == pytest.approx(want, rel=1e-12)


def test_best_ellipse_input_guards():
    with pytest.raises(ValueError):
        el.best_ellipse(TRI, np.array([0.7, 0.7]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        el.best_ellipse(TRI, M, np.zeros(2))
    with pytest.raises(ValueError):
        el.best_ellipse(TRI, M, np.array([math.nan, 1.0]))
    with pytest.raises(ValueError):
        el.best_ellipse(TRI, M, np.array([math.inf, 0.0]))
    with pytest.raises(ValueError):
        el.best_ellipse(TRI, np.array([math.nan, 0.25]), np.array([1.0, 0.0]))


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=0.9),
    st.floats(min_value=0.05, max_value=0.9),
    st.floats(min_value=0.0, max_value=math.pi),
)
@example(u=0.5, v=0.5, phi=1.4038041234422553e-161)  # a Cramer step overflowed to inf
def test_solver_agrees_with_closed_form_property(u, v, phi):
    x1 = u
    x2 = v * (1.0 - x1 - 0.02) + 0.01
    x = np.array([x1, x2])
    y = np.array([math.cos(phi), math.sin(phi)])
    rep = el.best_ellipse(TRI, x, y)
    want = float(sx.ellipse_constant_dir(x, y))
    assert rep.best_b == pytest.approx(want, rel=1e-12)
    # and no ellipse can be longer than half the maximal chord in that direction
    assert 2.0 * rep.best_b <= float(sx.tau_simplex(phi)) + 1e-6


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=0.9),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
    st.floats(min_value=0.5, max_value=2.0),
    st.floats(min_value=0.5, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
def test_affine_covariance_property(u, v, phi, rot1, rot2, s1, s2, c1, c2):
    """E(TK, Tx, Ay/|Ay|) = |Ay| E(K, x, y) for T(p) = A p + c, on the standard triangle."""

    def rotation(t):
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])

    A = rotation(rot1) @ np.diag([s1, s2]) @ rotation(rot2)
    c = np.array([c1, c2])
    x = np.array([u, v * (1.0 - u - 0.04) + 0.02])
    y = np.array([math.cos(phi), math.sin(phi)])
    if np.linalg.det(A) < 0.0:  # keep the image counter-clockwise
        A = A[:, ::-1]
        x, y = x[::-1].copy(), y[::-1].copy()
    K = geo.ConvexPolygon(TRI.vertices @ A.T + c)
    Ay = A @ y
    rep = el.best_ellipse(K, A @ x + c, Ay)
    want = float(np.linalg.norm(Ay)) * float(sx.ellipse_constant_dir(x, y))
    assert rep.best_b == pytest.approx(want, rel=1e-12)


def _filleted_triangle(r, per_corner):
    """The standard triangle with each corner replaced by a polygonal arc of radius r."""
    V = TRI.vertices
    pts = []
    for k in range(3):
        p, q, w = V[k - 1], V[k], V[(k + 1) % 3]
        d_in, d_out = (q - p) / np.linalg.norm(q - p), (w - q) / np.linalg.norm(w - q)
        turn = math.acos(float(np.clip(d_in @ d_out, -1.0, 1.0)))
        inward = np.array([-d_in[1], d_in[0]])
        center = q - r / math.tan((math.pi - turn) / 2.0) * d_in + r * inward
        a0 = math.atan2(-d_in[0], d_in[1])
        for t in a0 + np.linspace(0.0, turn, per_corner):
            pts.append(center + r * np.array([math.cos(t), math.sin(t)]))
    return geo.ConvexPolygon(np.array(pts))


def test_many_edges_with_a_known_answer():
    """Shaving the corners with lines that miss the triangle's optimal ellipse keeps
    the closed form and its three touching edges among the 200+ edges."""
    x, y = np.array([0.3, 0.25]), np.array([math.cos(0.2), math.sin(0.2)])
    K = _filleted_triangle(0.03, 70)
    assert len(K.vertices) >= 200
    # K lies in the triangle and still holds the triangle's optimal ellipse
    n, c = TRI.edge_normals()
    assert np.all(K.vertices @ n.T <= c + 1e-15)
    assert el.containment_violation(el.best_ellipse(TRI, x, y).witness, K) <= 1e-12
    start = time.perf_counter()
    rep = el.best_ellipse(K, x, y)
    assert time.perf_counter() - start < 5.0
    assert rep.best_b == pytest.approx(float(sx.ellipse_constant_dir(x, y)), rel=1e-12)
    assert len(rep.active_edges) == 3


def test_all_dirs_on_many_edges_is_fast():
    """1.5M edge triples of the filleted triangle, taken one first edge at a time."""
    x = np.array([0.3, 0.25])
    K = _filleted_triangle(0.03, 70)
    start = time.perf_counter()
    got = el.best_ellipse_all_dirs(K, x)
    assert time.perf_counter() - start < 5.0
    # K lies in the triangle, so no direction does better there than on the triangle
    assert 0.0 < got <= float(sx.ellipse_constant(x)) * (1.0 + 1e-12)
    assert got <= el.best_ellipse(K, x, np.array([math.cos(0.2), math.sin(0.2)])).best_b
