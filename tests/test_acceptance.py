"""End-to-end acceptance checks, one test per criterion.

Each test prints a single summary line with the measured quantities after its
assertions pass, so a verbose run doubles as a numerical report.
"""

import math
import time

import numpy as np
import pytest

from bernstein_bounds import cli
from bernstein_bounds import ellipse as el
from bernstein_bounds import geometry as geo
from bernstein_bounds import kernels as kn
from bernstein_bounds import polynomials as pl
from bernstein_bounds import simplex as sx

import routes

M = np.array([1 / 3, 1 / 3])
TRI = geo.unit_triangle()
S6 = math.sqrt(6.0)


def _baran_table(x, n):
    def fn(t):
        y = np.stack([np.cos(t), np.sin(t)], axis=-1)
        return sx.baran_derivative(x, y)

    return kn.DirectionalBoundTable.from_function(fn, n)


def test_criterion_01_coincidence_of_the_two_bounds():
    t0 = time.monotonic()
    pts = cli.interior_grid(50)
    phis = np.linspace(0.0, math.pi, 64, endpoint=False)
    y = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    E = sx.ellipse_constant_dir(pts[:, None, :], y[None, :, :])
    D = sx.baran_derivative(pts[:, None, :], y[None, :, :])
    dev = float(np.max(np.abs(D * E - 1.0)))
    dt = time.monotonic() - t0
    assert dev <= 1e-12
    assert dt < 1.0
    print(f"criterion 1 PASS: max |D*E - 1| = {dev:.3e} over {E.size} pairs in {dt:.2f}s")


def test_criterion_01_independent_route_through_the_extremal_function():
    """D_y+ V(x) = lim V(x + i t y) / t, taken from siciak_extremal, not from E."""
    pts = cli.interior_grid(50)
    phis = np.linspace(0.0, math.pi, 64, endpoint=False)
    y = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    t = 1e-8
    V = sx.siciak_extremal(pts[:, None, :] + 1j * t * y[None, :, :])
    D = sx.baran_derivative(pts[:, None, :], y[None, :, :])
    dev = float(np.max(np.abs(V / (t * D) - 1.0)))
    assert dev <= 1e-10
    print(f"criterion 1 PASS: max |V(x + ity)/(tD) - 1| = {dev:.3e} over {D.size} pairs at t = {t:g}")


def test_criterion_02_numeric_ellipse_matches_closed_form():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        x = pl.sample_interior(rng)
        phi = rng.uniform(0.0, math.pi)
        y = np.array([math.cos(phi), math.sin(phi)])
        got = el.best_ellipse(TRI, x, y).best_b
        want = float(sx.ellipse_constant_dir(x, y))
        worst = max(worst, abs(got - want) / want)
    dt = time.monotonic() - t0
    assert worst <= 1e-6
    assert dt < 30.0
    print(f"criterion 2 PASS: worst relative error {worst:.3e} on 100 pairs in {dt:.2f}s")


def test_criterion_03_hexagon_at_the_centroid():
    tab = kn.DirectionalBoundTable.from_function(lambda t: sx.kr_bound_dir(M, t), 4096)
    reg = kn.kernel_intersect(tab)
    area_err = abs(reg.area - 18.0)
    assert area_err <= 1e-3
    v = reg.polygon.vertices
    hexv = np.array([[S6, S6], [0, S6], [-S6, 0], [-S6, -S6], [0, -S6], [S6, 0]])
    vert_err = max(float(np.min(np.linalg.norm(v - h, axis=1))) for h in hexv)
    assert len(v) == 6
    assert vert_err <= 1e-3
    print(f"criterion 3 PASS: area 18 within {area_err:.3e}, vertex error {vert_err:.3e}")


def test_criterion_04_cloud_area_and_disk_decomposition():
    area = kn.cloud_area(M)
    closed = 9.0 + 4.5 * math.pi
    assert abs(area - 23.137) <= 1e-3
    assert area == pytest.approx(closed, rel=1e-12)
    # independent oracle: the cloud is a union of six disks through the origin
    s = math.sqrt(1.5)
    disks = [
        (s, s, math.sqrt(3.0)),
        (0.0, s, s),
        (-s, 0.0, s),
        (-s, -s, math.sqrt(3.0)),
        (0.0, -s, s),
        (s, 0.0, s),
    ]
    R = s + math.sqrt(3.0)
    xs = np.linspace(-R, R, 200_001)
    BIG = 1e9
    lo = np.full((len(disks), xs.size), BIG)
    hi = np.full((len(disks), xs.size), BIG)
    for k, (cx, cy, r) in enumerate(disks):
        h2 = r * r - (xs - cx) ** 2
        act = h2 > 0.0
        h = np.sqrt(np.clip(h2, 0.0, None))
        lo[k, act] = (cy - h)[act]
        hi[k, act] = (cy + h)[act]
    order = np.argsort(lo, axis=0)
    lo = np.take_along_axis(lo, order, axis=0)
    hi = np.take_along_axis(hi, order, axis=0)
    prev_end = np.full(xs.size, -BIG)
    union = np.zeros(xs.size)
    for k in range(len(disks)):
        union += np.clip(hi[k] - np.maximum(lo[k], prev_end), 0.0, None)
        prev_end = np.maximum(prev_end, hi[k])
    disk_area = float(np.trapezoid(union, xs))
    assert abs(disk_area - area) <= 1e-4
    print(
        f"criterion 4 PASS: cloud area {area:.6f} (= 9 + 9pi/2 to {abs(area-closed):.1e}), "
        f"disk-union oracle differs by {abs(disk_area-area):.2e}"
    )


def test_criterion_05_polygonal_kernel_matches_ellipse_area():
    t0 = time.monotonic()
    worst = 0.0
    for x in cli.interior_grid(20):
        reg = kn.kernel_intersect(_baran_table(x, 2048))
        closed = float(kn.kernel_area_closed(x))
        worst = max(worst, abs(reg.area - closed) / closed)
    dt = time.monotonic() - t0
    assert worst <= 1e-3
    assert dt < 5.0
    at_m = kn.kernel_intersect(_baran_table(M, 2048)).area
    assert abs(at_m - 16.3242) <= 0.02
    print(f"criterion 5 PASS: worst relative area error {worst:.3e} on the 20x20 grid "
          f"in {dt:.2f}s; area at the centroid {at_m:.4f}")


def test_criterion_06_max_norm_identity():
    pts = cli.interior_grid(100)
    nu = np.array([routes.kernel_max_norm(x) for x in pts])
    E = sx.ellipse_constant(pts)
    dev = float(np.max(np.abs(nu * E - 1.0)))
    assert dev <= 1e-12
    print(f"criterion 6 PASS: max |nu*E - 1| = {dev:.3e} over {len(pts)} points")


def test_criterion_07_constants_sweep():
    res = cli.constant_sweep(200)
    lo1, hi1 = math.sqrt(3.0) / 2.0 - 0.02, math.sqrt(3.0) / 2.0 + 1e-6
    lo2 = math.sqrt(3.0 + math.sqrt(5.0)) / 2.0 - 0.02
    hi2 = math.sqrt(3.0 + math.sqrt(5.0)) / 2.0 + 1e-6
    assert lo1 <= res.sup_ratio_alpha <= hi1
    assert lo2 <= res.sup_ratio_alpha2 <= hi2
    assert f"{cli.SQRT_3_PLUS_SQRT5:.7f}" == "2.2882456"
    print(f"criterion 7 PASS: sup ratios {res.sup_ratio_alpha:.7f} and "
          f"{res.sup_ratio_alpha2:.7f} inside their windows; echo 2.2882456")


def test_criterion_08_randomized_inequality_harness():
    t0 = time.monotonic()
    total = 0
    worst = 0.0
    for degree in range(1, 7):
        rep = pl.verify_upper_bound(degree, 1667, seed=1000 + degree)
        assert rep["violations"] == []
        total += len(rep["quotients"])
        worst = max(worst, rep["max_quotient"])
    assert total >= 10_000
    assert worst <= 1.0 + 1e-3
    witness = pl.chebyshev_transplant(1, -1.0, [2.0, 2.0])
    y = np.array([1.0, 1.0]) / math.sqrt(2.0)
    q = pl.bernstein_ratio(witness, M, y, 1.0) * float(sx.ellipse_constant_dir(M, y))
    assert q == pytest.approx(1.0, abs=1e-9)
    dt = time.monotonic() - t0
    assert dt < 120.0
    print(f"criterion 8 PASS: {total} trials, zero violations, max quotient {worst:.6f}, "
          f"witness quotient {q:.12f}, {dt:.1f}s")


def test_criterion_09_equality_directions():
    table, summary = cli.comparison_sweep(50, 64)
    phi, quotient = table[:, 2], table[:, 6]
    near = phi[quotient < 1.0 + 1e-6]
    assert len(near) > 0
    special = np.array([0.0, math.pi / 2.0, 3.0 * math.pi / 4.0])
    # distance of each near-equality direction to the nearest special one, mod pi
    d = np.abs((near[:, None] - special + math.pi / 2.0) % math.pi - math.pi / 2.0)
    worst = float(d.min(axis=1).max())
    assert worst <= 1e-3
    assert summary["near_equality_count"] == len(near)
    assert summary["near_equality_max_phi_deviation"] == worst
    print(f"criterion 9 PASS: {len(near)} near-equality rows, max angle deviation {worst:.3e}")


def test_criterion_10_interval_sharpness():
    worst = 0.0
    for a, b in [(-1.0, 1.0), (0.0, 1.0), (-1.5, 2.5)]:
        for n in range(1, 7):
            for j in range(1, 21):
                x = a + j * (b - a) / 21.0
                ratio, bound = pl.bernstein_szego_1d(n, x, a, b)
                assert ratio <= bound + 1e-9
                worst = max(worst, bound - ratio)
    assert worst <= 1e-3
    print(f"criterion 10 PASS: worst deficit {worst:.3e} over 3 intervals x 6 degrees x 20 points")
