"""The four workloads: op kinds, seeded input generation and answers.

A workload is a pool of cycles.  Every cycle holds the same multiset of op
sizes (degrees, trial counts, polygon sizes, direction counts) in a seeded
order with seeded content, so every run sees the same mix and its latency
percentiles fall on the same op sizes whatever the seed.  Each cycle is built
so that its median and its p95 fall inside a block of ops of one size, not on
the boundary between two sizes whose order the content can swap.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from bernstein_bounds import cli
from bernstein_bounds import ellipse as el
from bernstein_bounds import geometry as geo
from bernstein_bounds import kernels as kn
from bernstein_bounds import polynomials as pl

import oracles as orc

STD_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@dataclass(frozen=True)
class Kind:
    """One kind of op: how to call it, check it, and fingerprint its answer."""

    call: Callable[[dict], Any]
    check: Callable[[dict, Any], tuple]
    answer: Callable[[Any], float]
    tol: float  # relative tolerance when diffing answers between runs


@dataclass(frozen=True)
class Workload:
    kinds: dict
    make_cycle: Callable  # (rng, out_dir) -> [(kind, input), ...] in composition order
    pool_cycles: int
    digit_cycles: int  # oracle_digits_min covers these first cycles, which every run completes


# ---- shared input pieces ----------------------------------------------------


def interior_point(rng, margin=0.05):
    """Point of the standard triangle with every barycentric coordinate >= margin."""
    while True:
        lam = rng.dirichlet(np.ones(3))
        if lam.min() >= margin:
            return lam[:2].copy()


def unit_vector(rng):
    phi = rng.uniform(0.0, math.pi)
    return np.array([math.cos(phi), math.sin(phi)])


def rotation(t):
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def affine_map(rng):
    """A = R diag(s1, s2) R' with s2/s1 in [1/2, 1]: orientation-preserving and well conditioned."""
    s1 = rng.uniform(0.5, 2.0)
    s2 = s1 * rng.uniform(0.5, 1.0)
    t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    return rotation(t1) @ np.diag([s1, s2]) @ rotation(t2), rng.uniform(-1.0, 1.0, size=2)


def shuffled(rng, ops):
    return [ops[i] for i in rng.permutation(len(ops))]


# ---- verify -----------------------------------------------------------------

# 39 ops: 14 cheaper than a degree-4 sup norm (3.7 ms), 9 degree-4 sup
# norms holding the median (the 20th), and 16 dearer ops
VERIFY_TRIALS = (1, 8, 24)
CLOUD_DEGREES = (1, 2)
CLOUD_TRIALS = 8
TRANSPLANT_DEGREES = (1,) * 5 + (2,) * 5 + (4,) * 9


def transplant_input(rng, n):
    """T_n of an affine functional that is +-1 at a random vertex, so its norm is exactly 1."""
    v = rng.uniform(-1.0, 1.0, size=3)
    v[rng.integers(3)] = rng.choice([-1.0, 1.0])
    return {"n": n, "p": pl.chebyshev_transplant(n, v[0], [v[1] - v[0], v[2] - v[0]])}


def verify_cycle(rng, out_dir):
    ops = []
    for trials in VERIFY_TRIALS:
        for d in range(1, 7):
            ops.append(("verify_upper_bound", {"d": d, "T": trials, "seed": int(rng.integers(2**31))}))
    for deg in CLOUD_DEGREES:
        ops.append(("gradient_cloud", {
            "x": interior_point(rng), "degree": deg, "trials": CLOUD_TRIALS,
            "seed": int(rng.integers(2**31)),
        }))
    for n in TRANSPLANT_DEGREES:
        ops.append(("transplant_sup_norm", transplant_input(rng, n)))
    return ops


VERIFY = Workload(
    kinds={
        "verify_upper_bound": Kind(
            call=lambda i: pl.verify_upper_bound(i["d"], i["T"], i["seed"]),
            check=orc.check_verify,
            answer=lambda r: r["max_quotient"],
            tol=1e-9,
        ),
        "gradient_cloud": Kind(
            call=lambda i: pl.empirical_gradient_cloud(i["x"], i["degree"], i["trials"], i["seed"]),
            check=orc.check_cloud,
            answer=lambda r: float(np.sum([np.linalg.norm(s.vector) for s in r])),
            tol=1e-9,
        ),
        "transplant_sup_norm": Kind(
            call=lambda i: pl.sup_norm_simplex(i["p"]),
            check=orc.check_transplant_norm,
            answer=lambda r: r.value,
            tol=orc.SUP_NORM_TOL,
        ),
    },
    make_cycle=verify_cycle,
    pool_cycles=48,
    digit_cycles=8,
)


# ---- ellipse ----------------------------------------------------------------

# 33 ops: triangles (about 6 ms) and the 4-gon fill the cheapest 19 places
# and hold the median (the 17th); the three all-direction sweeps hold p95
TRIANGLE_OPS = 18
POLYGON_SIZES = (4, 5, 6, 7, 8, 9, 10, 11, 12)
ALPHA_OPS = 3
ALL_DIRS_OPS = 3
ALL_DIRS_N = 16


def triangle_input(rng):
    A, c = affine_map(rng)
    x0 = interior_point(rng)
    y0 = unit_vector(rng)
    return {
        "K": geo.ConvexPolygon(STD_TRIANGLE @ A.T + c),
        "A": A, "x0": x0, "y0": y0, "x": A @ x0 + c, "y": A @ y0,
    }


def polygon_input(rng, m):
    """Affine image of a jittered regular m-gon, with an interior point and direction."""
    A, c = affine_map(rng)
    t = rng.uniform(0.0, 2.0 * math.pi) + (np.arange(m) + rng.uniform(-0.3, 0.3, size=m)) * (
        2.0 * math.pi / m
    )
    verts = np.stack([np.cos(t), np.sin(t)], axis=1) @ A.T + c
    n, off = orc.edge_lines(verts)
    while True:
        x = rng.dirichlet(np.ones(m)) @ verts
        if np.min(off - n @ x) >= 0.02 * orc.diameter(verts):
            break
    return {"K": geo.ConvexPolygon(verts), "m": m, "x": x, "y": unit_vector(rng)}


def ellipse_cycle(rng, out_dir):
    ops = [("best_ellipse_triangle", triangle_input(rng)) for _ in range(TRIANGLE_OPS)]
    ops += [("best_ellipse_polygon", polygon_input(rng, m)) for m in POLYGON_SIZES]
    ops += [("alpha_triangle", triangle_input(rng)) for _ in range(ALPHA_OPS)]
    ops += [("best_ellipse_all_dirs", triangle_input(rng)) for _ in range(ALL_DIRS_OPS)]
    return ops


ELLIPSE = Workload(
    kinds={
        "best_ellipse_triangle": Kind(
            call=lambda i: el.best_ellipse(i["K"], i["x"], i["y"]),
            check=orc.check_best_ellipse_triangle,
            answer=lambda r: r.best_b,
            tol=1e-7,
        ),
        "best_ellipse_polygon": Kind(
            call=lambda i: el.best_ellipse(i["K"], i["x"], i["y"]),
            check=orc.check_best_ellipse_polygon,
            answer=lambda r: r.best_b,
            tol=1e-7,
        ),
        "alpha_triangle": Kind(
            call=lambda i: geo.alpha(i["K"], i["x"]),
            check=orc.check_alpha_triangle,
            answer=float,
            tol=orc.ALPHA_TOL,
        ),
        "best_ellipse_all_dirs": Kind(
            call=lambda i: el.best_ellipse_all_dirs(i["K"], i["x"], n_dirs=ALL_DIRS_N),
            check=orc.check_all_dirs,
            answer=float,
            tol=1e-7,
        ),
    },
    make_cycle=ellipse_cycle,
    pool_cycles=48,
    digit_cycles=8,
)


# ---- kernel -----------------------------------------------------------------

# 25 ops: the eight 512-direction tables hold the median (the 13th) above
# four 256-direction tables and four cloud areas; the two compare sweeps are
# the heaviest ops and hold p95
TABLE_DIRS = (256, 256, 512, 512, 512, 512, 1024, 2048)
PERTURBED_DIRS = (256, 256, 512)
PERTURBED_SHARE = 8  # one entry in eight is raised
PERTURB_EPS = 0.01
CLOUD_AREA_OPS = 4
COMPARE_SIZES = ((30, 32), (30, 32))


def baran_table(x, dirs):
    """sqrt(sum dl^2 / l): the pluripotential bound at x on a uniform grid of [0, pi)."""
    theta = np.arange(dirs) * (math.pi / dirs)
    lam = orc.barycentric(x)
    c, s = np.cos(theta), np.sin(theta)
    r = np.sqrt(c * c / lam[0] + s * s / lam[1] + (c + s) ** 2 / lam[2])
    return kn.DirectionalBoundTable(theta, r)


def kr_table(x, dirs):
    """2 / (tau(theta) sqrt(1 - alpha(x))), tau the triangle's maximal chord."""
    theta = np.arange(dirs) * (math.pi / dirs)
    c, s = np.cos(theta), np.sin(theta)
    inv_tau = np.where(theta <= math.pi / 2, c + s, np.where(theta <= 0.75 * math.pi, s, -c))
    return kn.DirectionalBoundTable(theta, 2.0 * inv_tau / math.sqrt(1.0 - orc.alpha_simplex(x)))


def perturbed_input(rng, dirs):
    x = interior_point(rng)
    table = kr_table(x, dirs)
    r = table.r.copy()
    pick = rng.choice(dirs, size=dirs // PERTURBED_SHARE, replace=False)
    r[pick] *= 1.0 + PERTURB_EPS * rng.uniform(0.0, 1.0, size=len(pick))
    return {"x": x, "dirs": dirs, "eps": PERTURB_EPS, "table": kn.DirectionalBoundTable(table.thetas, r)}


def compare_csv(out_dir):
    """Where this process's compare ops write; the runner removes it at exit."""
    return os.path.join(out_dir, f"compare-{os.getpid()}.csv")


def kernel_cycle(rng, out_dir):
    ops = []
    for dirs in TABLE_DIRS:
        x = interior_point(rng)
        ops.append(("kernel_baran", {"x": x, "dirs": dirs, "table": baran_table(x, dirs)}))
    for dirs in TABLE_DIRS:
        x = interior_point(rng)
        ops.append(("kernel_kr", {"x": x, "dirs": dirs, "table": kr_table(x, dirs)}))
    ops += [("kernel_perturbed", perturbed_input(rng, dirs)) for dirs in PERTURBED_DIRS]
    ops += [("cloud_area", {"x": interior_point(rng)}) for _ in range(CLOUD_AREA_OPS)]
    out = compare_csv(out_dir)
    for grid, dirs in COMPARE_SIZES:
        argv = ["compare", "--grid", str(grid), "--dirs", str(dirs), "--out", out]
        ops.append(("cli_compare", {"grid": grid, "dirs": dirs, "out": out, "argv": argv}))
    return ops


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


KERNEL = Workload(
    kinds={
        "kernel_baran": Kind(
            call=lambda i: kn.kernel_intersect(i["table"]),
            check=orc.check_kernel_baran,
            answer=lambda r: r.area,
            tol=1e-9,
        ),
        "kernel_kr": Kind(
            call=lambda i: kn.kernel_intersect(i["table"]),
            check=orc.check_kernel_kr,
            answer=lambda r: r.area,
            tol=orc.KR_AREA_TOL,
        ),
        "kernel_perturbed": Kind(
            call=lambda i: kn.kernel_intersect(i["table"]),
            check=orc.check_kernel_perturbed,
            answer=lambda r: r.area,
            tol=1e-9,
        ),
        "cloud_area": Kind(
            call=lambda i: kn.cloud_area(i["x"]),
            check=orc.check_cloud_area,
            answer=float,
            tol=orc.CLOUD_AREA_TOL,
        ),
        "cli_compare": Kind(
            call=lambda i: run_cli(i["argv"]),
            check=orc.check_compare,
            answer=float,
            tol=0.0,
        ),
    },
    make_cycle=kernel_cycle,
    pool_cycles=48,
    digit_cycles=8,
)


# ---- interval ---------------------------------------------------------------

# 100 ops: 99 generic ops of degree 1..8, the degrees the generic-point
# oracle's 1e-12 gap holds for, and one op in a hundred is degenerate
GENERIC_OPS = 99
GENERIC_DEGREES = 8
DEGENERATE_DEGREE = 3


def interval(rng):
    a = rng.uniform(-2.0, 1.0)
    return a, a + rng.uniform(0.5, 3.0)


def generic_input(rng, n):
    """A point where 1 - T_n(u)^2 >= 0.01, far from the extreme points of T_n."""
    a, b = interval(rng)
    while True:
        t = rng.uniform(0.0, math.pi)
        if abs(math.sin(n * t)) >= 0.1:
            break
    return {"n": n, "x": a + (b - a) * (1.0 + math.cos(t)) / 2.0, "a": a, "b": b}


def degenerate_input(rng):
    """A Chebyshev extreme point a + (b - a)(1 + cos(k pi / n))/2 inside (a, b)."""
    a, b = interval(rng)
    n = DEGENERATE_DEGREE
    k = int(rng.integers(1, n))
    return {"n": n, "x": a + (b - a) * (1.0 + math.cos(k * math.pi / n)) / 2.0, "a": a, "b": b}


def interval_cycle(rng, out_dir):
    ops = [("szego_generic", generic_input(rng, 1 + i % GENERIC_DEGREES)) for i in range(GENERIC_OPS)]
    ops.append(("szego_degenerate", degenerate_input(rng)))
    return ops


def szego(i):
    return pl.bernstein_szego_1d(i["n"], i["x"], i["a"], i["b"])


INTERVAL = Workload(
    kinds={
        "szego_generic": Kind(
            call=szego, check=orc.check_szego_generic, answer=lambda r: r[0], tol=1e-12,
        ),
        "szego_degenerate": Kind(
            call=szego, check=orc.check_szego_degenerate, answer=lambda r: r[0], tol=1e-9,
        ),
    },
    make_cycle=interval_cycle,
    pool_cycles=8,
    digit_cycles=3,
)


WORKLOADS = {"verify": VERIFY, "ellipse": ELLIPSE, "kernel": KERNEL, "interval": INTERVAL}


def generate(name, seed, out_dir):
    """Warm-up ops (the first of each kind) and the pool of shuffled cycles."""
    w = WORKLOADS[name]
    warm_seq, *cycle_seqs = np.random.SeedSequence(seed).spawn(1 + w.pool_cycles)
    warm = {}
    for kind, inp in w.make_cycle(np.random.default_rng(warm_seq), out_dir):
        warm.setdefault(kind, inp)
    pool = []
    for seq in cycle_seqs:
        rng = np.random.default_rng(seq)
        pool.append(shuffled(rng, w.make_cycle(rng, out_dir)))
    return list(warm.items()), pool
