import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bernstein_bounds import ellipse as el
from bernstein_bounds import geometry as geo
from bernstein_bounds import kernels as ker
from bernstein_bounds import polynomials as pl
from bernstein_bounds import simplex as sx

import routes

TRI = geo.unit_triangle()
SQUARE = geo.ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


def test_triangle_basic_quantities():
    assert TRI.area == pytest.approx(0.5, abs=1e-15)
    assert TRI.diameter == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert np.allclose(routes.centroid(TRI), [1 / 3, 1 / 3])


def test_polygon_rejects_clockwise():
    with pytest.raises(ValueError):
        geo.ConvexPolygon(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))


def test_polygon_rejects_duplicate_and_short():
    with pytest.raises(ValueError):
        geo.ConvexPolygon(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        geo.ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_polygon_rejects_reflex_vertex():
    # a dent at (0.5, 0.1) makes the loop non-convex
    bad = np.array([[0.0, 0.0], [0.5, 0.1], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        geo.ConvexPolygon(bad)


def test_polygon_rejects_reflex_vertex_of_a_sliver():
    # a 20 % dent in a 1e-8-wide sliver: the cross product at (0.5, 8e-9) is
    # -2e-9, which is -8e-9 times the product of its two edge lengths, so the
    # vertex is reflex well beyond rounding, though tiny next to the polygon's size
    sliver = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-8], [0.5, 8e-9], [0.0, 1e-8]])
    with pytest.raises(ValueError, match="not in convex CCW order"):
        geo.ConvexPolygon(sliver)
    sliver[3, 1] = 1e-8  # collinear instead of reflex
    assert geo.ConvexPolygon(sliver).area == pytest.approx(1e-8, rel=1e-12)


@pytest.mark.parametrize(
    "u,expected",
    [
        ((1.0, 0.0), 1.0),
        ((-1.0, 0.0), 0.0),
        ((0.0, 1.0), 1.0),
        ((1.0, 1.0), math.sqrt(2.0) / 2.0),
    ],
)
def test_triangle_support(u, expected):
    u = np.asarray(u) / np.linalg.norm(u)
    assert routes.support(TRI, u) == pytest.approx(expected, abs=1e-12)


def test_triangle_widths():
    assert routes.width(TRI, np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)
    w = geo.min_width(TRI)
    assert w == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)


def test_difference_body_is_symmetric_hexagon():
    D = routes.difference_body(TRI)
    v = D.vertices
    assert len(v) == 6
    assert D.area == pytest.approx(3.0, abs=1e-12)  # 6x the triangle area
    m = len(v)
    assert np.allclose(v, -np.roll(v, m // 2, axis=0), atol=1e-12)


def test_difference_body_of_symmetric_body_doubles_it():
    D = routes.difference_body(SQUARE)
    # square is symmetric about its center, so K + (-K) = 2K - 2c
    assert D.area == pytest.approx(4.0 * SQUARE.area, abs=1e-12)
    for phi in (0.0, 0.3, 1.1, 2.9):
        u = np.array([math.cos(phi), math.sin(phi)])
        want = 1.0 / max(abs(u[0]), abs(u[1]))  # longest chord of the unit square
        assert geo.maximal_chord(SQUARE, u) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("phi", [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2, 2.0, 2.5, 3.0])
def test_maximal_chord_matches_branch_formulas(phi):
    u = np.array([math.cos(phi), math.sin(phi)])
    assert geo.maximal_chord(TRI, u) == pytest.approx(float(sx.tau_simplex(phi)), abs=1e-12)


def test_maximal_chord_rejects_zero_direction():
    with pytest.raises(ValueError):
        geo.maximal_chord(TRI, np.zeros(2))


_LINEAR = pl.TotalDegreePolynomial(1, np.array([0.5, -1.0, 2.0]))
_CENTROID = np.array([1 / 3, 1 / 3])


@pytest.mark.parametrize("y", [[math.nan, 1.0], [math.inf, 0.0], [0.0, 0.0]], ids=["nan", "inf", "zero"])
@pytest.mark.parametrize(
    "call",
    [
        lambda y: geo.unit_direction(y),
        lambda y: geo.maximal_chord(TRI, y),
        lambda y: el.best_ellipse(TRI, _CENTROID, y),
        lambda y: sx.baran_derivative(_CENTROID, y),
        lambda y: sx.ellipse_constant_dir(_CENTROID, y),
        lambda y: pl.bernstein_ratio(_LINEAR, _CENTROID, y, 1.0),
        lambda y: routes.support(TRI, y),
        lambda y: routes.width(TRI, y),
    ],
    ids=["unit_direction", "maximal_chord", "best_ellipse", "baran_derivative",
         "ellipse_constant_dir", "bernstein_ratio", "support", "width"],
)
def test_every_direction_is_checked_once(call, y):
    """One shared check: a nan direction used to give nan (inf from maximal_chord),
    and an infinite or zero one a RuntimeWarning, depending on the function."""
    with pytest.raises(ValueError, match="direction must be"):
        call(np.array(y))


def test_angle_and_point_checks():
    with pytest.raises(ValueError, match="angle must be finite"):
        sx.tau_simplex(math.nan)
    with pytest.raises(ValueError, match="angle must be finite"):
        sx.tau_simplex(np.array([0.5, math.inf]))
    with pytest.raises(ValueError, match="not strictly interior"):
        pl.bernstein_ratio(_LINEAR, np.array([0.9, 0.9]), np.array([1.0, 0.0]), 1.0)
    # the gauge gave nan for a nan point and a RuntimeWarning for an infinite one,
    # and the chord balance a RuntimeWarning for either angle
    C = geo.ConvexPolygon(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="point must be finite"):
            routes.minkowski_gauge(C, np.array([bad, 0.0]))
        with pytest.raises(ValueError, match="angle must be finite"):
            geo.chord_balance(TRI, _CENTROID, [bad])


def test_gauge_on_centered_square():
    C = geo.ConvexPolygon(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]))
    assert routes.minkowski_gauge(C, np.array([0.5, 0.0])) == pytest.approx(0.5, abs=1e-12)
    assert routes.minkowski_gauge(C, np.array([0.7, 0.7])) == pytest.approx(0.7, abs=1e-12)
    assert routes.minkowski_gauge(C, np.zeros(2)) == 0.0


def test_gauge_requires_origin_inside():
    shifted = geo.ConvexPolygon(np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(ValueError):
        routes.minkowski_gauge(shifted, np.array([1.5, 1.2]))


def test_chord_balance_is_one_at_symmetric_center():
    C = geo.ConvexPolygon(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]))
    vals = geo.chord_balance(C, np.zeros(2), np.linspace(0.0, math.pi, 17))
    assert np.allclose(vals, 1.0, atol=1e-12)


def test_gamma_quarter_point():
    # sqrt(3)/2 is what the chord-balance infimum actually evaluates to here;
    # a dense direct sweep over angles confirms it against hand values
    g = geo.gamma(TRI, np.array([0.25, 0.25]))
    assert g == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
    assert geo.alpha(TRI, np.array([0.25, 0.25])) == pytest.approx(0.5, abs=1e-12)


def test_gamma_centroid_matches_simplex_alpha():
    a = geo.alpha(TRI, np.array([1 / 3, 1 / 3]))
    assert a == pytest.approx(1 / 3, abs=1e-12)
    g = geo.gamma(TRI, np.array([1 / 3, 1 / 3]))
    assert g == pytest.approx(math.sqrt(8.0) / 3.0, abs=1e-12)
    ang = routes.gamma_angle(TRI, np.array([1 / 3, 1 / 3]))
    assert 0.0 <= ang < math.pi
    # the minimizing chord runs through a vertex, and its balance is g
    assert geo.chord_balance(TRI, np.array([1 / 3, 1 / 3]), ang)[0] == pytest.approx(g, abs=1e-12)


def test_alpha_matches_closed_form_on_interior_grid():
    pts = [(0.2, 0.3), (0.1, 0.1), (0.4, 0.25), (0.15, 0.6)]
    for p in pts:
        want = float(sx.alpha_simplex(np.array(p)))
        assert geo.alpha(TRI, np.array(p)) == pytest.approx(want, abs=1e-12)


def test_require_interior_rejects_boundary_and_outside():
    with pytest.raises(ValueError):
        geo.require_interior(TRI, np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        geo.require_interior(TRI, np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        geo.require_interior(TRI, np.array([math.nan, 0.2]))


@pytest.mark.parametrize("s", [1e-300, 1e-6, 1.0, 1e6, 1e300, 1.5e308])
def test_require_interior_verdict_is_scale_invariant(s):
    K = geo.ConvexPolygon(s * TRI.vertices)
    with pytest.raises(ValueError):
        geo.require_interior(K, s * np.array([0.25, 3e-13]))  # slack 3e-13 s
    inside = s * np.array([0.25, 1e-10])
    assert np.array_equal(geo.require_interior(K, inside), inside)


def _polygon_answers(K, x, u):
    """alpha, b, E, min width, tau and the witness residual at x."""
    report = el.best_ellipse(K, x, u)
    return np.array([
        geo.alpha(K, x), report.best_b, el.best_ellipse_all_dirs(K, x), geo.min_width(K),
        geo.maximal_chord(K, u),
    ]), report.feasibility_residual


@pytest.mark.parametrize("s", [1e-300, 1e-120, 1e-80, 1e80, 1e120, 1e300, 1.5e308])
def test_polygon_answers_are_scale_invariant(s):
    """The polygon works in units of 2^k, so no square or s^6 sum of its edges
    and slacks over- or underflows, and every answer scales with s.  The
    diameter too, unless, as at s = 1.5e308, it is beyond the float range."""
    x, u = np.array([0.2, 0.2]), np.array([0.6, 0.8])
    want, _ = _polygon_answers(TRI, x, u)
    K = geo.ConvexPolygon(s * TRI.vertices)
    got, residual = _polygon_answers(K, s * x, u)
    scale = np.array([1.0, s, s, s, s])
    np.testing.assert_allclose(got / scale, want, rtol=1e-14)
    assert residual / s <= 1e-12
    if math.isfinite(s * TRI.diameter):
        np.testing.assert_allclose(K.diameter / s, TRI.diameter, rtol=1e-14)


@pytest.mark.parametrize("s", [1e-15, 1.0, 1e15])
def test_polygon_and_gauge_verdicts_are_scale_invariant(s):
    assert geo.ConvexPolygon(s * TRI.vertices).area == pytest.approx(0.5 * s * s, rel=1e-15)
    short = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-15], [0.0, 1.0]])  # edge 1e-15 s
    with pytest.raises(ValueError, match="coincide"):
        geo.ConvexPolygon(s * short)
    C = geo.ConvexPolygon(s * np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]))
    assert routes.minkowski_gauge(C, s * np.array([0.5, 0.25])) == pytest.approx(0.5, rel=1e-15)
    edge = geo.ConvexPolygon(s * np.array([[-1.0, -1e-13], [1.0, -1e-13], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="origin strictly interior"):
        routes.minkowski_gauge(edge, s * np.array([0.0, 0.5]))  # slack 1e-13 s


def test_gauge_on_a_polygon_beyond_the_float_range_matches_alpha():
    """The square (+-7.5e307, +-7.5e307) has a diameter beyond the float range; the
    gauge route compares the origin's slack in K's units and agrees with alpha."""
    K = geo.ConvexPolygon(7.5e307 * np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]))
    x = np.array([1e307, 0.0])
    assert geo.alpha(K, x) == pytest.approx(2.0 / 15.0, abs=1e-12)
    assert routes.minkowski_gauge(K, x) == pytest.approx(geo.alpha(K, x), abs=1e-12)


def test_polygon_below_coordinate_rounding_is_rejected():
    # a 1e-15 triangle at 1e3: its edges are below the coordinates' rounding
    tiny = 1e3 + 1e-15 * TRI.vertices
    with pytest.raises(ValueError, match="coincide"):
        geo.ConvexPolygon(tiny)


def test_clip_halfplane_square():
    out = geo.clip_halfplane(SQUARE.vertices, np.array([1.0, 0.0]), 0.5)
    clipped = geo.ConvexPolygon(out)
    assert clipped.area == pytest.approx(0.5, abs=1e-12)
    assert float(np.max(out[:, 0])) == pytest.approx(0.5, abs=1e-12)


def test_clip_halfplane_empty():
    out = geo.clip_halfplane(SQUARE.vertices, np.array([1.0, 0.0]), -1.0)
    assert len(out) == 0


def test_parse_polygon_roundtrip_with_comments():
    text = "# a triangle\n0 0\n\n1 0   # apex right\n0 1\n"
    K = geo.parse_polygon_text(text)
    assert np.allclose(K.vertices, TRI.vertices)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("0 0\nnope\n0 1\n", "line 2"),
        ("0 0\n1\n0 1\n", "line 2"),
        ("0 0\n1 0\n", "at least 3"),
    ],
)
def test_parse_polygon_reports_bad_line(text, needle):
    with pytest.raises(geo.PolygonFormatError) as exc:
        geo.parse_polygon_text(text)
    assert needle in str(exc.value)


def test_load_polygon(tmp_path):
    f = tmp_path / "tri.txt"
    f.write_text("0 0\n1 0\n0 1\n")
    K = geo.load_polygon(f)
    assert K.area == pytest.approx(0.5)


def _random_hull(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(12, 2))
    from scipy.spatial import ConvexHull

    h = ConvexHull(pts)
    return geo.ConvexPolygon(pts[h.vertices])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.0, max_value=math.pi))
def test_chord_order_on_random_hulls(seed, phi):
    """min width <= maximal chord <= diameter, and the difference body is symmetric."""
    K = _random_hull(seed)
    u = np.array([math.cos(phi), math.sin(phi)])
    tau = geo.maximal_chord(K, u)
    assert geo.min_width(K) <= tau + 1e-9
    assert tau <= K.diameter + 1e-9
    D = routes.difference_body(K)
    v = D.vertices
    assert len(v) % 2 == 0
    assert np.allclose(v, -np.roll(v, len(v) // 2, axis=0), atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_gamma_bounds_on_random_hulls(seed):
    K = _random_hull(seed)
    x = routes.centroid(K)
    g = geo.gamma(K, x)
    assert 0.0 < g <= 1.0 + 1e-12
    a = geo.alpha(K, x)
    assert 0.0 <= a < 1.0
    # the vertex chords are exact: no chord angle balances worse
    sweep = geo.chord_balance(K, x, np.linspace(0.0, math.pi, 20_001))
    assert g <= float(np.min(sweep)) * (1.0 + 1e-15)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=0.97),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.5, max_value=2.0),
    st.floats(min_value=0.5, max_value=2.0),
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
def test_alpha_on_affine_triangle_images(u, v, rot1, rot2, s1, s2, c1, c2):
    """alpha is affine invariant, so on any triangle it is 1 - 2 min barycentric."""

    def rotation(t):
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])

    A = rotation(rot1) @ np.diag([s1, s2]) @ rotation(rot2)
    x = np.array([u, v * (1.0 - u - 0.02) + 0.01])
    if np.linalg.det(A) < 0.0:  # keep the image counter-clockwise
        A = A[:, ::-1]
        x = x[::-1].copy()
    K = geo.ConvexPolygon(TRI.vertices @ A.T + np.array([c1, c2]))
    want = 1.0 - 2.0 * min(x[0], x[1], 1.0 - x[0] - x[1])
    assert abs(geo.alpha(K, A @ x + np.array([c1, c2])) - want) <= 1e-12


def _edge_widths_by_support(K):
    """w(K, n_e) for each edge normal, from the support function over the vertices."""
    n, _ = K.edge_normals()
    return np.array([routes.width(K, ni) for ni in n])


def _well_conditioned(K):
    """diam/min width <= 100: there both chord routes keep 1e-12 relative."""
    return K.diameter <= 100.0 * float(np.min(_edge_widths_by_support(K)))


def _radial(P, u):
    """Where the ray from the origin along each unit u (N, 2) leaves the polygon P:
    on the edge segment whose end vertices bracket u's angle."""
    v = P.vertices
    ang = np.arctan2(v[:, 1], v[:, 0])
    k = np.searchsorted(np.sort(ang), np.arctan2(u[:, 1], u[:, 0]), side="right") - 1
    i = np.argsort(ang)[k % len(v)]
    a, e = v[i], v[(i + 1) % len(v)] - v[i]
    return (a[:, 0] * e[:, 1] - a[:, 1] * e[:, 0]) / (u[:, 0] * e[:, 1] - u[:, 1] * e[:, 0])


def _unit(phi):
    return np.stack([np.cos(phi), np.sin(phi)], axis=-1)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_maximal_chord_is_the_radius_of_the_difference_body(seed):
    K = _random_hull(seed)
    assume(_well_conditioned(K))
    u = _unit(np.random.default_rng(seed).uniform(-math.pi, math.pi, 500))
    tau = geo.maximal_chord(K, u)
    assert tau.shape == (500,)
    np.testing.assert_allclose(tau, _radial(routes.difference_body(K), u), rtol=1e-12)
    assert isinstance(geo.maximal_chord(K, u[0]), float)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_min_width_is_the_least_edge_width(seed):
    K = _random_hull(seed)
    assume(_well_conditioned(K))
    want = float(np.min(_edge_widths_by_support(K)))
    assert geo.min_width(K) == pytest.approx(want, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_gauge_scales_points_onto_the_boundary(seed, phi, t):
    hull = _random_hull(seed)
    K = geo.ConvexPolygon(hull.vertices - routes.centroid(hull))  # the origin is inside
    assume(_well_conditioned(K))
    x = 0.7 * _unit(phi)
    g = routes.minkowski_gauge(K, x)
    assert abs(geo.interior_slack(K, x / g)) <= 1e-14 * K.diameter
    assert routes.minkowski_gauge(K, t * x) == pytest.approx(t * g, rel=1e-14)
    assert routes.minkowski_gauge(K, np.zeros(2)) == 0.0


def test_tau_simplex_is_the_triangle_chord():
    branch = np.array([0.0, math.pi / 2, 3 * math.pi / 4, math.pi - 1e-15, math.pi, -math.pi / 4])
    phi = np.concatenate([branch, np.linspace(-20.0, 20.0, 4096 - len(branch))])
    tau = sx.tau_simplex(phi)
    np.testing.assert_allclose(tau, geo.maximal_chord(TRI, _unit(phi)), rtol=1e-14)


@pytest.mark.parametrize("seed", range(6))
def test_chord_family_kernel_falls_to_the_polar_area(seed):
    """The kr table 2/(tau sqrt(1 - alpha)) cuts out (2/sqrt(1 - alpha)) D°, D° =
    conv{+-n_e/w_e} the polar of the difference body: sampled at N directions its
    area falls toward the exact one as N doubles and never drops below it."""
    rng = np.random.default_rng(seed)
    c, s = _unit(rng.uniform(0.0, math.pi))
    A = np.array([[c, -s], [s, c]]) @ np.diag(rng.uniform(0.5, 2.0, 2))
    K = geo.ConvexPolygon(_unit(np.sort(rng.uniform(0.0, 2 * math.pi, rng.integers(5, 9)))) @ A.T)
    assert 5 <= len(K.vertices) <= 8 and _well_conditioned(K)
    a = geo.alpha(K, routes.centroid(K))
    n, _ = K.edge_normals()
    polar = n / _edge_widths_by_support(K)[:, None]
    from scipy.spatial import ConvexHull

    exact = 4.0 / (1.0 - a) * ConvexHull(np.vstack([polar, -polar])).volume
    areas = np.array([
        ker.kernel_intersect(ker.DirectionalBoundTable.from_function(
            lambda t: 2.0 / (geo.maximal_chord(K, _unit(t)) * math.sqrt(1.0 - a)), N)).area
        for N in (256, 512, 1024, 2048, 4096)
    ])
    excess = areas / exact - 1.0
    assert np.all(excess >= -1e-12), excess
    assert np.all(np.diff(excess) <= 1e-12), excess
    assert excess[-1] < excess[0] / 4, excess
