"""Command-line surface: comparison sweeps, constants, kernels, verification.

`compare` holds its sweep as one float table, a row per (point, direction)
with the columns COMPARE_COLUMNS, and writes it as %.12g CSV or as JSON; the
CSV formats each point's coordinates and each angle once, not once per row.
Negative float arguments may carry an exponent, as in -1e-3, or be -inf or -nan.

Exit codes: 0 ok, 2 parse failure, 3 domain error (non-interior point, a size
too large to allocate, and friends), 4 unwritable output.  All randomness is
pinned by --seed and output ordering is fixed, so identical invocations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import ellipse as el
from . import geometry as geo
from . import kernels as ker
from . import polynomials as poly
from . import simplex as sx

SQRT3 = math.sqrt(3.0)
SQRT_3_PLUS_SQRT5 = math.sqrt(3.0 + math.sqrt(5.0))
TWO_SQRT2 = 2.0 * math.sqrt(2.0)

_EQUALITY_ANGLES = np.array([0.0, math.pi / 2.0, 3.0 * math.pi / 4.0])

COMPARE_COLUMNS = ("x1", "x2", "phi", "inv_E", "kr", "baran", "quotient")

# argparse takes only forms like -1 and -0.5 for numbers, so -1e-3 and -inf would be
# options; no option of this CLI looks like a number
_NEGATIVE_NUMBER = re.compile(
    r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
)


def check_domination(inv_E, baran, quotient) -> None:
    """Raise ValueError unless kr/inv_E >= 1 and 1/E equals Baran's D, entrywise."""
    low = quotient < 1.0 - 1e-9
    if np.any(low):
        raise ValueError(f"bound domination violated: quotient {float(quotient[low][0])}")
    if np.any(np.abs(inv_E - baran) > 1e-12 * np.maximum(1.0, np.abs(baran))):
        raise ValueError("ellipse and pluripotential bounds disagree")


@dataclass(frozen=True)
class ConstantSweepResult:
    sup_ratio_alpha: float
    sup_ratio_alpha2: float

    def __post_init__(self):
        if self.sup_ratio_alpha > SQRT3 / 2.0 + 1e-6:
            raise ValueError("alpha ratio exceeds the sqrt(3)/2 ceiling")
        if self.sup_ratio_alpha2 > SQRT_3_PLUS_SQRT5 / 2.0 + 1e-6:
            raise ValueError("alpha^2 ratio exceeds the sqrt(3+sqrt(5))/2 ceiling")


def interior_grid(grid: int, margin: float = 1e-3) -> np.ndarray:
    """Lattice (i, j)/(grid+1) restricted to barycentric slack > margin >= 0."""
    t = np.arange(1, grid + 1) / (grid + 1)
    x1, x2 = np.meshgrid(t, t, indexing="ij")
    pts = np.stack([x1.ravel(), x2.ravel()], axis=1)
    slack = np.minimum(np.minimum(pts[:, 0], pts[:, 1]), 1.0 - pts.sum(axis=1))
    pts = pts[slack > margin]
    if not margin >= 0.0 or len(pts) == 0:  # a negative margin admits points outside
        raise ValueError(f"margin {margin} must be >= 0 and leave an interior point of grid {grid}")
    return pts


def comparison_sweep(grid: int, dirs: int, margin: float = 1e-3):
    """The three directional bounds on the interior grid x direction grid.

    Returns (table, summary). table is a (points * dirs, 7) float array with
    the columns COMPARE_COLUMNS, one row per (point, direction), points in
    interior_grid order and directions phi = k*pi/dirs innermost.
    """
    if grid < 4:
        raise ValueError("grid must be >= 4")
    pts = interior_grid(grid, margin)
    phis = np.arange(dirs) * (math.pi / dirs)
    y = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    inv_E = 1.0 / sx.ellipse_constant_dir(pts[:, None, :], y[None, :, :])
    baran = sx.baran_derivative(pts[:, None, :], y[None, :, :])
    kr = sx.kr_bound_dir(pts[:, None, :], phis[None, :])
    quotient = kr / inv_E
    check_domination(inv_E, baran, quotient)
    table = np.column_stack([
        np.repeat(pts[:, 0], dirs), np.repeat(pts[:, 1], dirs), np.tile(phis, len(pts)),
        inv_E.ravel(), kr.ravel(), baran.ravel(), quotient.ravel(),
    ])
    q = table[:, 6]
    arg = int(np.argmin(q))
    near_phi = table[q < 1.0 + 1e-6, 2]
    dev = np.abs((near_phi[:, None] - _EQUALITY_ANGLES + math.pi / 2.0) % math.pi - math.pi / 2.0)
    summary = {
        "min_quotient": float(q[arg]),
        "argmin": dict(zip(COMPARE_COLUMNS[:3], table[arg, :3].tolist())),
        "near_equality_count": len(near_phi),
        "near_equality_max_phi_deviation": float(dev.min(axis=1).max(initial=0.0)),
    }
    return table, summary


def constant_sweep(grid: int, margin: float = 1e-3) -> ConstantSweepResult:
    """Sup over the grid of w(triangle) sqrt(1-alpha)/2E and its alpha^2 variant."""
    if grid < 50:
        raise ValueError("grid must be >= 50")
    pts = interior_grid(grid, margin)
    w = geo.min_width(geo.unit_triangle())
    E = sx.ellipse_constant(pts)
    a = sx.alpha_simplex(pts)
    r1 = w * np.sqrt(1.0 - a) / (2.0 * E)
    r2 = w * np.sqrt(1.0 - a * a) / (2.0 * E)
    return ConstantSweepResult(sup_ratio_alpha=float(np.max(r1)), sup_ratio_alpha2=float(np.max(r2)))


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _write(path, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_alpha(args) -> int:
    K = geo.load_polygon(args.body)
    val = geo.alpha(K, np.array([args.x1, args.x2]))
    print(_fmt(val))
    return 0


def cmd_compare(args) -> int:
    table, summary = comparison_sweep(args.grid, args.dirs, args.margin)
    meta = {
        "grid": args.grid,
        "dirs": args.dirs,
        "margin": args.margin,
        "summary": summary,
    }
    if args.format == "csv":
        # rows run over the points with phi innermost, as comparison_sweep documents
        head = ["%.12g,%.12g" % tuple(p) for p in table[::args.dirs, :2].tolist()]
        phi = ["%.12g" % p for p in table[:args.dirs, 2].tolist()]
        cols = np.empty((len(table), 6), dtype=object)
        cols[:, 0] = np.repeat(np.array(head, dtype=object), args.dirs)
        cols[:, 1] = np.tile(np.array(phi, dtype=object), len(head))
        cols[:, 2:] = table[:, 3:]
        body = ("%s,%s" + ",%.12g" * 4 + "\n") * len(table) % tuple(cols.ravel().tolist())
        _write(args.out, ",".join(COMPARE_COLUMNS) + "\n" + body)
    else:
        # json.dumps(..., indent=1) of the row dicts, whose encoder is pure Python
        # under indent: %r is json's float repr, and every table value is finite
        row = "  {\n" + ",\n".join(f'   "{c}": %r' for c in COMPARE_COLUMNS) + "\n  }"
        body = ",\n".join([row] * len(table)) % tuple(table.ravel().tolist())
        head = json.dumps({"meta": meta}, indent=1)[:-2]
        _write(args.out, f'{head},\n "rows": [\n{body}\n ]\n}}\n')
    print(f"rows={len(table)} min_quotient={_fmt(summary['min_quotient'])} "
          f"near_equality={summary['near_equality_count']}")
    return 0


def cmd_constants(args) -> int:
    res = constant_sweep(args.grid, args.margin)
    print(f"sup w*sqrt(1-alpha)/(2E)  = {_fmt(res.sup_ratio_alpha)}  "
          f"(ceiling sqrt(3)/2 = {_fmt(SQRT3 / 2.0)})")
    print(f"sup w*sqrt(1-alpha^2)/(2E) = {_fmt(res.sup_ratio_alpha2)}  "
          f"(ceiling sqrt(3+sqrt(5))/2 = {_fmt(SQRT_3_PLUS_SQRT5 / 2.0)})")
    print(f"constants: 2*sqrt(2) = {TWO_SQRT2:.7f} > sqrt(3+sqrt(5)) = "
          f"{SQRT_3_PLUS_SQRT5:.7f} > 2; sqrt(3) = {SQRT3:.7f}")
    return 0


def cmd_kernel(args) -> int:
    x = np.array([args.x1, args.x2])
    sx.check_interior(x)
    if args.source == "kr":
        table = ker.DirectionalBoundTable.from_function(
            lambda t: sx.kr_bound_dir(x, t), args.dirs
        )
    else:
        y = lambda t: np.stack([np.cos(t), np.sin(t)], axis=-1)
        table = ker.DirectionalBoundTable.from_function(
            lambda t: sx.baran_derivative(x[None, :], y(t)), args.dirs
        )
    region = ker.kernel_intersect(table)
    verts = region.polygon.vertices
    print(f"area = {_fmt(region.area)}")
    overlays = [verts]
    if args.source == "baran":
        e = ker.kernel_ellipse_closed_form(x)
        closed = ker.kernel_area_closed(x)
        print(f"closed_form_area = {_fmt(float(closed))}")
        print(f"area_discrepancy = {_fmt(abs(region.area - float(closed)))}")
        print(f"ellipse: A={_fmt(e.A)} B={_fmt(e.B)} C={_fmt(e.C)} "
              f"mu={_fmt(e.mu)} nu={_fmt(e.nu)} angle={_fmt(e.angle)}")
        overlays.append(e.boundary(512))
    else:
        thetas = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        r = np.asarray(sx.kr_bound_dir(x, thetas))
        overlays.append(np.stack([r * np.cos(thetas), r * np.sin(thetas)], axis=1))
    if args.out is not None:
        if args.format == "csv":
            _write(args.out, ker.region_to_csv(verts))
        else:
            _write(args.out, ker.regions_to_svg(overlays))
    return 0


def cmd_verify(args) -> int:
    report = poly.verify_upper_bound(args.degree, args.trials, args.seed)
    text = json.dumps(report, indent=1) + "\n"
    _write(args.out, text)
    if args.out is not None:
        print(f"violations={len(report['violations'])} "
              f"max_quotient={_fmt(report['max_quotient'])}")
    return 0


def cmd_extremal(args) -> int:
    vals = args.z
    if len(vals) < 4 or len(vals) % 2 != 0:
        raise ValueError("need an even number (>= 4) of components: re im pairs")
    z = np.array(vals).view(complex)  # re im pairs are numpy's complex layout; 1j * inf is nan
    print(_fmt(float(sx.siciak_extremal(z))))
    return 0


def cmd_ellipse(args) -> int:
    K = geo.load_polygon(args.body)
    y = np.array([math.cos(args.phi), math.sin(args.phi)])
    report = el.best_ellipse(K, np.array([args.x1, args.x2]), y)
    print(_fmt(report.best_b))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


@functools.cache  # parse_args leaves the parser as it is
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bernstein-bounds",
        description="Derivative bounds for polynomials on convex bodies: "
        "inscribed-ellipse and pluripotential methods, kernel sets, verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alpha", help="Minkowski functional of a polygon point")
    p.add_argument("body", help="polygon file: one 'x y' vertex per line, CCW")
    p.add_argument("x1", type=float)
    p.add_argument("x2", type=float)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("compare", help="sweep the three directional bounds")
    p.add_argument("--grid", type=int, default=20)
    p.add_argument("--dirs", type=_positive_int, default=36)
    p.add_argument("--margin", type=float, default=1e-3)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("constants", help="sup-ratio sweep behind the constants")
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--margin", type=float, default=1e-3)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("kernel", help="kernel polygon of a bound family")
    p.add_argument("x1", type=float)
    p.add_argument("x2", type=float)
    p.add_argument("--source", choices=["kr", "baran"], default="kr")
    p.add_argument("--dirs", type=_positive_int, default=2048)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("verify", help="randomized upper-bound verification")
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("extremal", help="extremal function V at a complex point")
    p.add_argument("z", type=float, nargs="+", help="re im pairs of the coordinates")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("ellipse", help="best inscribed ellipse half-axis")
    p.add_argument("body")
    p.add_argument("x1", type=float)
    p.add_argument("x2", type=float)
    p.add_argument("phi", type=float)
    p.set_defaults(func=cmd_ellipse)

    for parser in (ap, *sub.choices.values()):
        parser._negative_number_matcher = _NEGATIVE_NUMBER
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except geo.PolygonFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, MemoryError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
