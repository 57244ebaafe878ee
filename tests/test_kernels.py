import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bernstein_bounds import cli
from bernstein_bounds import geometry as geo
from bernstein_bounds import kernels as kn
from bernstein_bounds import simplex as sx

import routes

M = np.array([1 / 3, 1 / 3])
S6 = math.sqrt(6.0)
HEX_VERTS = np.array([[S6, S6], [0.0, S6], [-S6, 0.0], [-S6, -S6], [0.0, -S6], [S6, 0.0]])


def kr_table(x, n):
    return kn.DirectionalBoundTable.from_function(lambda t: sx.kr_bound_dir(x, t), n)


def baran_table(x, n):
    def fn(t):
        y = np.stack([np.cos(t), np.sin(t)], axis=-1)
        return sx.baran_derivative(x, y)

    return kn.DirectionalBoundTable.from_function(fn, n)


def raised_baran_table(seed, n):
    """baran at (0.3, 0.25) with one bound in eight raised by up to 1 %: redundant lines."""
    rng = np.random.default_rng(seed)
    tab = baran_table(np.array([0.3, 0.25]), n)
    r = tab.r.copy()
    pick = rng.choice(n, size=n // 8, replace=False)
    r[pick] *= 1.0 + 0.01 * rng.uniform(size=len(pick))
    return kn.DirectionalBoundTable(tab.thetas, r)


def clip_reference_area(tab):
    """Area of the slab intersection by clipping a bounding box with every half-plane."""
    R = 2.0 * float(np.max(tab.r))
    region = np.array([[-R, -R], [R, -R], [R, R], [-R, R]])
    for t, rk in zip(tab.thetas, tab.r):
        d = np.array([math.cos(t), math.sin(t)])
        region = geo.clip_halfplane(geo.clip_halfplane(region, d, rk), -d, rk)
    keep = np.linalg.norm(region - np.roll(region, 1, axis=0), axis=1) > 1e-12 * R
    return geo.ConvexPolygon(region[keep]).area


def reference_binding_lines(p):
    """The stack-only hull pass: from the farthest point, keep the strict left turns."""
    m = len(p)
    s = int(np.argmax(np.sum(p * p, axis=1)))
    xs, ys = np.roll(p, -s, axis=0).T.tolist()
    hull = [0]
    for k in range(1, m + 1):
        x, y = xs[k % m], ys[k % m]
        while len(hull) > 1:
            a, b = hull[-2], hull[-1]
            if (xs[b] - xs[a]) * (y - ys[b]) - (ys[b] - ys[a]) * (x - xs[b]) > 0.0:
                break
            hull.pop()
        hull.append(k)
    return np.sort((np.array(hull[:-1]) + s) % m)


def reference_region(tab):
    """kernel_intersect's construction with the stack-only pass choosing the lines."""
    dirs = np.stack([np.cos(tab.thetas), np.sin(tab.thetas)], axis=1)
    normals = np.vstack([dirs, -dirs])
    offsets = np.concatenate([tab.r, tab.r])
    lines = reference_binding_lines(normals / offsets[:, None])
    n1, c1 = normals[lines], offsets[lines]
    n2, c2 = np.roll(n1, -1, axis=0), np.roll(c1, -1)
    det = n1[:, 0] * n2[:, 1] - n1[:, 1] * n2[:, 0]
    vx = (c1 * n2[:, 1] - c2 * n1[:, 1]) / det
    vy = (n1[:, 0] * c2 - n2[:, 0] * c1) / det
    verts = kn._dedupe_loop(np.stack([vx, vy], axis=1))
    return kn.KernelRegion(polygon=geo.ConvexPolygon(verts))


def grid_table(r):
    return kn.DirectionalBoundTable(thetas=np.arange(len(r)) * (math.pi / len(r)), r=r)


def test_table_validation():
    with pytest.raises(ValueError):
        kn.DirectionalBoundTable.from_function(lambda t: np.ones_like(t), 8)
    with pytest.raises(ValueError):
        kn.DirectionalBoundTable.from_function(lambda t: np.zeros_like(t), 32)
    with pytest.raises(ValueError):
        kn.DirectionalBoundTable(thetas=np.linspace(0, 3, 20), r=np.ones(19))


GRID32 = np.arange(32) * (math.pi / 32)


@pytest.mark.parametrize(
    "thetas, r",
    [
        (GRID32, np.where(np.arange(32) == 5, np.nan, 1.0)),
        (GRID32, np.where(np.arange(32) == 5, np.inf, 1.0)),
        (np.where(np.arange(32) == 5, np.nan, GRID32), np.ones(32)),
        (GRID32[::-1], np.ones(32)),
        (np.roll(GRID32, 1), np.ones(32)),
        (GRID32 * 2.0, np.ones(32)),
        (GRID32 + math.pi / 32, np.ones(32)),
    ],
    ids=["nan r", "inf r", "nan theta", "decreasing", "unsorted", "past 2pi", "last at pi"],
)
def test_table_rejects_non_finite_and_unordered_input(thetas, r):
    with pytest.raises(ValueError):
        kn.DirectionalBoundTable(thetas=thetas, r=r)


def test_table_from_function_grid():
    tab = kr_table(M, 64)
    assert tab.thetas.shape == (64,)
    assert tab.thetas[0] == 0.0
    assert tab.thetas[-1] == pytest.approx(math.pi * 63 / 64)
    assert np.all(tab.r > 0)


def test_hexagon_exact_when_critical_angles_sampled():
    """When N is a multiple of 4 the three edge-normal angles land on the grid."""
    reg = kn.kernel_intersect(kr_table(M, 256))
    assert reg.area == pytest.approx(18.0, abs=1e-10)
    v = reg.polygon.vertices
    assert len(v) == 6
    for h in HEX_VERTS:
        assert float(np.min(np.linalg.norm(v - h, axis=1))) < 1e-9


def test_hexagon_excess_decays_like_one_over_n():
    """For generic N the excess is positive and scales ~ 1/N: facet normals fall
    between sample angles, producing a linear overshoot along each edge."""
    excess = {n: kn.kernel_intersect(kr_table(M, n)).area - 18.0 for n in (101, 303, 909)}
    assert excess[101] > excess[303] > excess[909] > 0.0
    r1 = excess[101] / excess[303]
    r2 = excess[303] / excess[909]
    assert 2.5 < r1 < 3.5
    assert 2.5 < r2 < 3.5


def test_kernel_matches_the_clip_reference():
    for tab in (kr_table(M, 97), baran_table(M, 97), baran_table(np.array([0.2, 0.5]), 61)):
        assert kn.kernel_intersect(tab).area == pytest.approx(clip_reference_area(tab), abs=1e-10)


def test_redundant_line_is_dropped():
    # one almost-useless huge bound: its line never touches the kernel
    thetas = np.arange(32) * (math.pi / 32)
    r = np.ones(32)
    r[7] = 50.0
    tab = kn.DirectionalBoundTable(thetas=thetas, r=r)
    reg = kn.kernel_intersect(tab)
    assert reg.area == pytest.approx(clip_reference_area(tab), abs=1e-10)
    reach = np.abs(reg.polygon.vertices @ np.array([math.cos(thetas[7]), math.sin(thetas[7])]))
    assert np.max(reach) < 50.0 - 1.0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=16, max_value=300),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_every_vertex_satisfies_every_slab_property(n, seed, spread):
    """Random positive tables, log-uniform over e^(+-spread): feasible and equal to clipping."""
    r = np.exp(np.random.default_rng(seed).uniform(-spread, spread, n))
    tab = kn.DirectionalBoundTable(thetas=np.arange(n) * (math.pi / n), r=r)
    reg = kn.kernel_intersect(tab)
    v = reg.polygon.vertices
    dirs = np.stack([np.cos(tab.thetas), np.sin(tab.thetas)], axis=1)
    scale = max(1.0, float(np.max(np.abs(v))))
    assert np.max(np.abs(v @ dirs.T) - r[None, :]) <= 1e-9 * scale
    assert reg.area == pytest.approx(clip_reference_area(tab), rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["kr", "baran", "raised", "lowered", "random"]),
    st.integers(min_value=16, max_value=4096),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kernel_matches_the_stack_only_reference_bitwise_property(kind, n, seed):
    """Smooth tables (all polar points on the hull, or long collinear runs),
    raised entries (redundant lines), lowered entries (tight lines that hide
    many others) and random tables give the reference's vertex arrays exactly."""
    rng = np.random.default_rng(seed)
    x = seeded_interior_points(1, seed)[0]
    if kind in ("kr", "lowered"):
        tab = kr_table(x, n)
    else:
        tab = baran_table(x, n)
    r = tab.r.copy()
    pick = rng.choice(n, size=max(1, n // 8), replace=False)
    if kind == "raised":
        r[pick] *= 1.0 + 0.01 * rng.uniform(size=len(pick))
    elif kind == "lowered":
        r[pick] *= 1.0 - 0.5 * rng.uniform(size=len(pick))
    elif kind == "random":
        r = np.exp(rng.uniform(-2.0, 2.0, n))
    tab = grid_table(r)
    got = kn.kernel_intersect(tab).polygon.vertices
    want = reference_region(tab).polygon.vertices
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def two_tight_antipodal_lines():
    r = np.ones(2048)
    r[0] = 0.1
    return grid_table(r)


def every_256th_line_tight():
    r = np.ones(2048)
    r[::256] = 0.99
    return grid_table(r)


@pytest.mark.parametrize(
    "make", [two_tight_antipodal_lines, every_256th_line_tight], ids=["tight pair", "every 256th"]
)
def test_kernel_on_adversarial_tables_matches_both_references(make):
    """Tables on which an iterated turn filter would need many rounds."""
    tab = make()
    v = kn.kernel_intersect(tab).polygon.vertices
    assert np.array_equal(v, reference_region(tab).polygon.vertices)
    dirs = np.stack([np.cos(tab.thetas), np.sin(tab.thetas)], axis=1)
    assert np.max(np.abs(v @ dirs.T) - tab.r[None, :]) <= 1e-12


def test_kernel_with_two_tight_lines_matches_the_clip_reference():
    tab = two_tight_antipodal_lines()
    assert kn.kernel_intersect(tab).area == pytest.approx(clip_reference_area(tab), rel=1e-10)


@pytest.mark.parametrize(
    "name, opts",
    [("k.csv", []), ("k.svg", ["--source", "baran", "--format", "svg"])],
    ids=["kr csv", "baran svg"],
)
def test_kernel_output_is_byte_identical_to_the_stack_only_reference(
    tmp_path, capsys, monkeypatch, name, opts
):
    argv = ["kernel", "0.25", "0.25", "--out"]
    assert cli.main(argv + [str(tmp_path / name)] + opts) == 0
    got = capsys.readouterr().out, (tmp_path / name).read_bytes()
    monkeypatch.setattr(kn, "kernel_intersect", reference_region)
    assert cli.main(argv + [str(tmp_path / ("ref-" + name))] + opts) == 0
    want = capsys.readouterr().out, (tmp_path / ("ref-" + name)).read_bytes()
    assert got == want


@pytest.mark.parametrize(
    "make, area",
    [
        (lambda: kr_table(M, 101), 18.11665128615453),
        (lambda: kr_table(M, 909), 18.01296037669844),
        (lambda: baran_table(M, 512), 16.32427110308765),
        (lambda: raised_baran_table(4, 256), 17.10120429287121),
    ],
    ids=["kr 101", "kr 909", "baran 512", "raised baran 256"],
)
def test_kernel_area_matches_frozen_values(make, area):
    """Areas from the earlier consecutive-line and clipping construction."""
    assert kn.kernel_intersect(make()).area == pytest.approx(area, rel=1e-12)


def test_kernel_region_rejects_asymmetric_polygon():
    with pytest.raises(ValueError):
        kn.KernelRegion(polygon=geo.unit_triangle())


def test_kernel_region_symmetry_tolerance_is_absolute():
    """1e-9 times the scale, with no relative slack: a 1e-5 move on radius 10 fails."""
    t = np.arange(6) * (math.pi / 3.0)
    hexagon = 10.0 * np.stack([np.cos(t), np.sin(t)], axis=1)
    assert kn.KernelRegion(polygon=geo.ConvexPolygon(hexagon)).area > 0.0
    hexagon[1, 0] += 1e-5
    with pytest.raises(ValueError, match="centrally symmetric"):
        kn.KernelRegion(polygon=geo.ConvexPolygon(hexagon))


def test_kernel_area_scales_with_the_bounds():
    """A constant table r gives the regular 128-gon of inradius r at every scale:
    the old max(1, max|v|) scale merged every vertex when r <= 1e-9."""
    thetas = np.arange(64) * (math.pi / 64)
    want = 128.0 * math.tan(math.pi / 128.0)
    for r in (1e-12, 1e-9, 1.0, 1e6):
        region = kn.kernel_intersect(kn.DirectionalBoundTable(thetas, np.full(64, r)))
        assert region.area / r**2 == pytest.approx(want, rel=1e-12)


def test_kernel_is_inside_the_cloud_bounds():
    """Every kernel point projects under r(theta) along every table direction."""
    tab = kr_table(np.array([0.25, 0.4]), 128)
    reg = kn.kernel_intersect(tab)
    dirs = np.stack([np.cos(tab.thetas), np.sin(tab.thetas)], axis=1)
    proj = np.abs(reg.polygon.vertices @ dirs.T)
    assert np.max(proj - tab.r[None, :]) <= 1e-9


def quad_cloud_area(x):
    """Adaptive polar quadrature of kr_bound_dir(x, theta)^2, split where tau changes branch."""
    val, _ = quad(
        lambda t: float(sx.kr_bound_dir(x, t)) ** 2,
        0.0,
        math.pi,
        points=[math.pi / 2.0, 3.0 * math.pi / 4.0],
        limit=200,
        epsabs=1e-10,
        epsrel=1e-10,
    )
    return val


def seeded_interior_points(n, seed=0, margin=1e-3):
    lam = np.random.default_rng(seed).dirichlet(np.ones(3), size=4 * n)
    return lam[np.min(lam, axis=1) > margin][:n, :2]


def test_cloud_area_centroid_closed_form():
    # three arcs of circles through the origin; the polar integral evaluates
    # to 9 + 9 pi / 2
    assert kn.cloud_area(M) == pytest.approx(9.0 + 4.5 * math.pi, rel=1e-12)


def test_cloud_area_matches_polar_quadrature():
    pts = seeded_interior_points(60)
    assert len(pts) == 60
    for x in pts:
        assert kn.cloud_area(x) == pytest.approx(quad_cloud_area(x), rel=1e-12)


def test_cloud_area_of_a_point_array():
    pts = seeded_interior_points(12, seed=1).reshape(3, 4, 2)
    areas = kn.cloud_area(pts)
    assert areas.shape == (3, 4)
    assert isinstance(kn.cloud_area(pts[0, 0]), float)
    for idx in np.ndindex(3, 4):
        assert areas[idx] == kn.cloud_area(pts[idx])


def test_cloud_area_requires_interior_when_default_family():
    with pytest.raises(ValueError):
        kn.cloud_area(np.array([0.7, 0.7]))


def test_kernel_ellipse_centroid_parameters():
    e = kn.kernel_ellipse_closed_form(M)
    assert e.A == pytest.approx(2 / 9, rel=1e-15)
    assert e.B == pytest.approx(2 / 9, rel=1e-15)
    assert e.C == pytest.approx(2 / 9, rel=1e-15)
    assert e.mu == pytest.approx(math.sqrt(3.0), rel=1e-14)
    assert e.nu == pytest.approx(3.0, rel=1e-14)
    assert e.angle == pytest.approx(math.pi / 4.0, rel=1e-12)
    assert e.area == pytest.approx(3.0 * math.sqrt(3.0) * math.pi, rel=1e-14)


def test_kernel_ellipse_rejects_degenerate_form():
    with pytest.raises(ValueError):
        kn.KernelEllipse(A=1.0, B=1.0, C=2.5, angle=0.0, mu=1.0, nu=1.0)


def test_boundary_lies_on_the_quadratic_form():
    for x in (M, np.array([0.1, 0.25]), np.array([0.55, 0.3])):
        e = kn.kernel_ellipse_closed_form(x)
        q = routes.quadratic_form(e, e.boundary(257))
        assert np.max(np.abs(q - 1.0)) < 1e-12


def test_boundary_starts_on_the_major_axis():
    e = kn.kernel_ellipse_closed_form(np.array([0.1, 0.25]))
    p0 = e.boundary(8)[0]
    assert np.linalg.norm(p0) == pytest.approx(e.nu, rel=1e-12)
    ang = math.atan2(p0[1], p0[0]) % math.pi
    assert ang == pytest.approx(e.angle, abs=1e-12)


def test_closed_area_identities():
    for x in (M, np.array([0.2, 0.3]), np.array([0.05, 0.6])):
        closed = float(kn.kernel_area_closed(x))
        e = kn.kernel_ellipse_closed_form(x)
        assert closed == pytest.approx(e.area, rel=1e-12)
        assert closed == pytest.approx(0.5 * float(routes.equilibrium_density(x)), rel=1e-15)


def test_max_norm_is_reciprocal_of_ellipse_constant():
    for x in (M, np.array([0.12, 0.41]), np.array([0.3, 0.35])):
        prod = routes.kernel_max_norm(x) * float(sx.ellipse_constant(x))
        assert prod == pytest.approx(1.0, abs=1e-13)


def test_polygonal_kernel_approaches_the_ellipse():
    reg = kn.kernel_intersect(baran_table(M, 512))
    closed = float(kn.kernel_area_closed(M))
    assert reg.area == pytest.approx(closed, rel=1e-4)
    assert reg.area >= closed - 1e-9  # circumscribed polygon, never smaller


def test_region_to_csv_format():
    reg = kn.kernel_intersect(kr_table(M, 64))
    text = kn.region_to_csv(reg.polygon.vertices)
    lines = text.strip().split("\n")
    assert lines[0] == "x,y"
    assert len(lines) == len(reg.polygon.vertices) + 1
    first = [float(tok) for tok in lines[1].split(",")]
    assert len(first) == 2


def test_regions_to_svg_structure():
    reg = kn.kernel_intersect(kr_table(M, 64))
    e = kn.kernel_ellipse_closed_form(M)
    svg = kn.regions_to_svg([reg.polygon.vertices, e.boundary(128)])
    assert svg.startswith("<svg")
    assert "viewBox" in svg
    assert svg.count("<path") == 2
    assert svg.rstrip().endswith("</svg>")
