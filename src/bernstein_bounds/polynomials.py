"""Polynomial-side verification of the derivative bounds.

Random bivariate polynomials and transplanted Chebyshev families are pushed
through the Bernstein ratio |<grad p, y>| / (n sqrt(||p||^2 - p^2)) and
compared against the pluripotential bound; p and its gradient come from one
Horner pass.  The sup-norm on the simplex is bracketed: from below by |p| at
the vertices and edge-derivative roots (the exact boundary maximum), at the
nodes of a tensor-product grid A @ c @ A.T cached per degree, and at
Newton-polished interior points; from above by the largest |Bezier ordinate|
(convex hull).  When no ordinate exceeds the boundary maximum, that
maximum is the norm, and no grid or Newton step runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import numpy.polynomial.chebyshev as cheb

from .geometry import unit_direction
from .simplex import baran_derivative, check_interior

_SLACK = 1e-3
_MARGIN = 1e-3


def n_coefficients(degree: int) -> int:
    return (degree + 1) * (degree + 2) // 2


@dataclass(frozen=True)
class TotalDegreePolynomial:
    """Bivariate polynomial sum c[i,j] x1^i x2^j over i + j <= degree.

    Coefficients are stored flat, row-major in i with j running 0..degree-i.
    """

    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float).ravel()
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if len(c) != n_coefficients(self.degree):
            raise ValueError(
                f"degree {self.degree} needs {n_coefficients(self.degree)} coefficients"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_square(cls, degree: int, square: np.ndarray) -> "TotalDegreePolynomial":
        n1 = degree + 1
        return cls(degree=degree, coeffs=square[:n1, :n1][_triangle(degree)])

    @cached_property
    def square(self) -> np.ndarray:
        c = np.zeros((self.degree + 1, self.degree + 1))
        c[_triangle(self.degree)] = self.coeffs
        return c

    @cached_property
    def _dx(self):
        return _derivative(self.square, 0)

    @cached_property
    def _dy(self):
        return _derivative(self.square, 1)

    @cached_property
    def _stack(self):
        """p, d/dx1 p and d/dx2 p side by side, shape (n+1, n+1, 3), zero padded."""
        n1 = self.degree + 1
        stack = np.zeros((n1, n1, 3))
        stack[..., 0], stack[:-1, :, 1], stack[:, :-1, 2] = self.square, self._dx, self._dy
        return stack

    @cached_property
    def _newton_block(self):
        """g1, g2, h11, h12, h22 side by side, each padded to (n+1) x (n+1)."""
        n1 = self.degree + 1
        parts = (self._dx, self._dy, _derivative(self._dx, 0), _derivative(self._dx, 1),
                 _derivative(self._dy, 1))
        block = np.zeros((n1, 5, n1))
        for s, c in enumerate(parts):
            block[: c.shape[0], s, : c.shape[1]] = c
        return block.reshape(n1, 5 * n1)


def _triangle(n: int) -> np.ndarray:
    """Mask of i + j <= n in the (n+1) x (n+1) square; row-major, it lists the flat order."""
    k = np.arange(n + 1)
    return k[:, None] + k <= n


def _derivative(c: np.ndarray, axis: int) -> np.ndarray:
    """Coefficients of d/dx1 (axis 0) or d/dx2 (axis 1), by index scaling."""
    k = np.arange(1, c.shape[axis], dtype=float)
    return c[1:] * k[:, None] if axis == 0 else c[:, 1:] * k


def _value_and_gradient(p: TotalDegreePolynomial, points) -> np.ndarray:
    """[p, d/dx1 p, d/dx2 p] at points (..., 2), shape (..., 3): Horner in x1, then x2,
    over p._stack, as polyval2d of p.square, p._dx and p._dy, bit for bit."""
    pt = np.asarray(points, dtype=float)
    x1, x2 = pt[..., 0, None, None], pt[..., 1, None]
    rows = p._stack
    acc = rows[-1] + x1 * 0.0
    for row in rows[-2::-1]:
        acc = row + acc * x1
    out = acc[..., -1, :] + x2 * 0.0
    for j in range(p.degree - 1, -1, -1):
        out = acc[..., j, :] + out * x2
    return out


def evaluate(p: TotalDegreePolynomial, point):
    """Value of p at one point or an array of points with shape (..., 2)."""
    out = _value_and_gradient(p, point)[..., 0]
    return float(out) if out.ndim == 0 else out


def gradient(p: TotalDegreePolynomial, point):
    """Analytic gradient, same shape conventions as evaluate."""
    return _value_and_gradient(p, point)[..., 1:]


def random_polynomial(degree: int, rng) -> TotalDegreePolynomial:
    """Coefficients uniform in [-1, 1]."""
    return TotalDegreePolynomial(
        degree=degree, coeffs=rng.uniform(-1.0, 1.0, size=n_coefficients(degree))
    )


@dataclass(frozen=True)
class SupNormCertificate:
    """value <= ||p|| <= upper on the simplex, up to rounding: |p| at a vertex, edge
    critical point, grid node or polished interior point, and the largest |Bezier
    ordinate|.  value == upper: the hull proved the boundary maximum to be the
    norm, no grid ran, and grid_resolution is the m it would have used.  value is
    p evaluated in floats, so rounding can lift it above ||p||, by up to 9e-12 on the
    degree-8 Chebyshev transplants, whose exact norms the cloud's catalog takes."""

    value: float
    grid_resolution: int
    upper: float


@lru_cache(maxsize=32)
def _grid(n: int, m: int):
    """A[k, i] = (k/m)^i, and the simplex nodes' flat indices, interior first."""
    A = np.vander(np.arange(m + 1) / m, n + 1, increasing=True)
    k, l = np.divmod(np.arange((m + 1) ** 2), m + 1)
    interior = (k > 0) & (l > 0) & (k + l < m)
    boundary = np.flatnonzero((k + l <= m) & ~interior)
    return A, np.concatenate([np.flatnonzero(interior), boundary]), int(interior.sum())


# edge e of the simplex is {origin[e] + t dir[e] : 0 <= t <= 1}: x2 = 0, x1 = 0, x2 = 1 - x1
_EDGE_ORIGIN = np.array([[[0.0, 0.0]], [[0.0, 0.0]], [[0.0, 1.0]]])
_EDGE_DIR = np.array([[[1.0, 0.0]], [[0.0, 1.0]], [[1.0, -1.0]]])
_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@lru_cache(maxsize=32)
def _edge_derivative_map(n: int) -> np.ndarray:
    """M with (square.ravel() @ M).reshape(3, n)[e] the power coefficients
    of d/dt p(origin[e] + t dir[e]); the hypotenuse expands (1 - t)^j."""
    q = np.zeros((n + 1, n + 1, 3, n + 1))
    for i in range(n + 1):
        q[i, 0, 0, i] = q[0, i, 1, i] = 1.0
        for j in range(n + 1 - i):
            for k in range(j + 1):
                q[i, j, 2, i + k] += math.comb(j, k) * (-1.0) ** k
    return (q[..., 1:] * np.arange(1, n + 1)).reshape((n + 1) ** 2, 3 * n)


def _edge_candidates(p: TotalDegreePolynomial) -> np.ndarray:
    """Critical points (k, 2) of p restricted to each edge, inside the edge.

    With the vertices (grid nodes) they hold the maximum of |p| on the
    boundary.  They are the real roots in (0, 1) of the three edge
    derivatives, found together as eigenvalues of their companion matrices.
    """
    n = p.degree
    if n < 2:
        return np.empty((0, 2))
    dq = (p.square.ravel() @ _edge_derivative_map(n)).reshape(3, n)
    for e in np.flatnonzero(dq[:, -1] == 0.0):
        # t^k q'(t) has the same roots in (0, 1): move the top nonzero
        # coefficient to the lead; a constant edge becomes t^(n-1)
        nz = np.flatnonzero(dq[e])
        dq[e] = np.roll(dq[e], n - 1 - nz[-1]) if len(nz) else np.eye(n)[-1]
    comp = np.tile(np.eye(n - 1, k=1), (3, 1, 1))  # rotated companion matrices
    comp[:, :, 0] = -dq[:, -2::-1] / dq[:, -1:]
    r = np.linalg.eigvals(comp)
    keep = (np.abs(r.imag) < 1e-8) & (r.real > 0.0) & (r.real < 1.0)
    return (_EDGE_ORIGIN + r.real[:, :, None] * _EDGE_DIR)[keep]


def _inside(pts: np.ndarray) -> np.ndarray:
    return (pts[:, 0] > 1e-12) & (pts[:, 1] > 1e-12) & (pts[:, 0] + pts[:, 1] < 1.0 - 1e-12)


def _interior_polish(p: TotalDegreePolynomial, starts: np.ndarray) -> np.ndarray:
    """Newton iteration toward critical points of p; the interior end points."""
    n1 = p.degree + 1
    block = p._newton_block
    pts = starts.copy()
    alive = np.ones(len(pts), dtype=bool)
    for _ in range(40):
        x = pts[alive]
        powers = x[:, :, None] ** np.arange(n1)
        g1, g2, a, b, c = ((powers[:, 0] @ block).reshape(len(x), 5, n1)
                           * powers[:, 1, None, :]).sum(axis=2).T
        det = a * c - b * b
        ok = np.abs(det) > 1e-300
        det = np.where(ok, det, 1.0)
        step = np.where(ok, np.stack([-(c * g1 - b * g2), -(-b * g1 + a * g2)]) / det, 0.0).T
        pts[alive] = x = x + step
        moved = np.hypot(step[:, 0], step[:, 1])
        alive[alive] = ok & _inside(x) & np.isfinite(moved) & ~(moved < 1e-14)
        if not alive.any():
            break
    return pts[_inside(pts) & np.isfinite(pts).all(axis=1)]


@lru_cache(maxsize=32)
def _bezier_map(n: int) -> np.ndarray:
    """B with coeffs @ B the Bezier ordinates of p, the three vertex values left out.

    x1^i x2^j is the sum over a >= i, b >= j of C(a, i) C(b, j) / multinomial(n;
    i, j, n - i - j) times the Bernstein polynomial of x1^a x2^b x3^(n-a-b).
    """
    comb = np.vectorize(math.comb, otypes=[float])
    ij = np.argwhere(_triangle(n))  # the flat order, of monomials and of ordinates
    a, b = ij[(ij.sum(axis=1) > 0) & (ij.max(axis=1) < n)].T  # not (0, 0), (n, 0), (0, n)
    i, j = ij.T[:, :, None]
    return comb(a, i) * comb(b, j) / (comb(n, i) * comb(n - i, j))


def sup_norm_simplex(p: TotalDegreePolynomial) -> SupNormCertificate:
    """Sup-norm of p on the simplex from below, with the Bezier upper bound.

    The boundary maximum is exact: |p| at the vertices and at the real roots of
    p's derivative along each edge.  If no |Bezier ordinate| exceeds it, it is
    the norm (convex hull), and value == upper.  Otherwise the value is the
    largest of a grid maximum, |p| at the edge roots and |p| at the ten best
    interior nodes after Newton polish toward critical points.  The grid, with
    m = max(64, 8 n^2) lines per side, is one tensor product A @ c @ A.T over
    the nodes (k/m, l/m), restricted to the simplex by indices cached per
    degree; it holds the vertices.
    """
    n = p.degree
    m = max(64, 8 * n * n)
    edge = _edge_candidates(p)
    on_boundary = np.abs(_value_and_gradient(p, np.concatenate([_VERTICES, edge]))[:, 0])
    boundary = float(on_boundary.max())
    upper = float(np.abs(p.coeffs @ _bezier_map(n)).max(initial=0.0))
    if not upper > boundary:
        return SupNormCertificate(value=boundary, grid_resolution=m, upper=boundary)
    A, nodes, n_int = _grid(n, m)
    vals = np.abs((A @ p.square @ A.T).ravel()[nodes])
    top = nodes[np.argpartition(vals[:n_int], -10)[-10:]]
    starts = np.stack(np.divmod(top, m + 1), axis=1) / m
    polished = np.abs(_value_and_gradient(p, _interior_polish(p, starts))[:, 0])
    # the vertices are grid nodes; their second evaluation stays out of the max
    value = max(vals.max(), on_boundary[3:].max(initial=0.0), polished.max(initial=0.0))
    return SupNormCertificate(value=float(value), grid_resolution=m, upper=upper)


def bernstein_ratio(p: TotalDegreePolynomial, x, y, norm: float) -> float:
    """|<grad p(x), y>| / (n sqrt(norm^2 - p(x)^2)), norm the sup-norm of p on the
    simplex, such as sup_norm_simplex(p).value."""
    if p.degree < 1:
        raise ValueError("ratio needs degree >= 1")
    x = check_interior(x)
    y = unit_direction(y)
    vg = _value_and_gradient(p, x)
    px = float(vg[0])
    den2 = norm * norm - px * px
    if den2 <= 0.0:
        raise ValueError("|p(x)| >= certified sup-norm; ratio undefined")
    return abs(float(vg[1:] @ y)) / (p.degree * math.sqrt(den2))


def chebyshev_transplant(n: int, c0: float, c) -> TotalDegreePolynomial:
    """T_n composed with the affine functional l(x) = c0 + <c, x>.

    l must satisfy |l| <= 1 on the simplex, which is checked at the vertices.
    """
    if n < 1:
        raise ValueError("transplant degree must be >= 1")
    c = np.asarray(c, dtype=float)
    verts = np.array([c0, c0 + c[0], c0 + c[1]])
    if np.any(np.abs(verts) > 1.0 + 1e-12):
        raise ValueError("affine functional exceeds 1 in modulus at a vertex")
    prev = np.zeros((n + 1, n + 1))
    cur = np.zeros((n + 1, n + 1))
    prev[0, 0], cur[0, 0], cur[1, 0], cur[0, 1] = 1.0, c0, c[0], c[1]
    for _ in range(n - 1):
        nxt = c0 * cur  # T_{k+1} = 2 l T_k - T_{k-1}
        nxt[1:, :] += c[0] * cur[:-1, :]
        nxt[:, 1:] += c[1] * cur[:, :-1]
        prev, cur = cur, 2.0 * nxt - prev
    return TotalDegreePolynomial.from_square(n, cur)


def sample_interior(rng) -> np.ndarray:
    """Uniform point of the simplex with all barycentric coordinates > 1e-3."""
    while True:
        u, v = rng.uniform(0.0, 1.0, size=2)
        if u + v > 1.0:
            u, v = 1.0 - u, 1.0 - v
        if min(u, v, 1.0 - u - v) > _MARGIN:
            return np.array([u, v])


def verify_upper_bound(degree: int, trials: int, seed: int) -> dict:
    """Randomized check that the Bernstein ratio never beats the bound.

    Each trial draws coefficients uniform in [-1, 1], an interior point with
    boundary margin 1e-3, and a direction; violations beyond the slack 1e-3
    (which absorbs sup-norm underestimation) are reported, not raised.
    Per-trial seeds descend deterministically from (seed, trial index).
    """
    if not 1 <= degree <= 8:
        raise ValueError("degree must be in [1, 8]")
    if trials < 1:
        raise ValueError("need at least one trial")
    children = np.random.SeedSequence(seed).spawn(trials)
    quotients = np.empty(trials)
    violations = []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        p = random_polynomial(degree, rng)
        x = sample_interior(rng)
        phi = rng.uniform(0.0, math.pi)
        y = np.array([math.cos(phi), math.sin(phi)])
        cert = sup_norm_simplex(p)
        vg = _value_and_gradient(p, x)
        px = float(vg[0])
        den2 = cert.value * cert.value - px * px
        if den2 <= 0.0:
            quotients[i] = math.inf
        else:
            ratio = abs(float(vg[1:] @ y)) / (degree * math.sqrt(den2))
            quotients[i] = ratio / float(baran_derivative(x, y))
        if quotients[i] > 1.0 + _SLACK:
            violations.append(
                {"trial": i, "x": x.tolist(), "phi": phi, "quotient": quotients[i]}
            )
    return {
        "degree": degree, "trials": trials, "seed": seed, "slack": _SLACK, "margin": _MARGIN,
        "max_quotient": float(np.max(quotients)), "argmax_trial": int(np.argmax(quotients)),
        "violations": violations, "quotients": quotients.tolist(),
    }


@dataclass(frozen=True)
class GradientSample:
    """One point of the empirical gradient set grad p(x)/(n sqrt(||p||^2-p^2))."""

    x: np.ndarray
    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError("gradient sample must be finite")
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "vector", v)


@lru_cache(maxsize=8)
def _transplant_catalog(n: int):
    """(T_n of l, ||T_n o l||) for the 60 nonconstant affine l with vertex values in
    {-1, -1/3, 1/3, 1}: the norm is the max of |T_n| on [min, max] of those values,
    1 if that holds a cos(k pi / n) (none is +-1/3, by Niven), else |T_n| at an end."""
    extremes = np.cos(np.arange(n + 1) * math.pi / n)
    out = []
    for v0, va, vb in itertools.product((-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0), repeat=3):
        if not va == v0 == vb:
            p = chebyshev_transplant(n, v0, np.array([va - v0, vb - v0]))
            lo, hi = min(v0, va, vb), max(v0, va, vb)
            ends = np.abs(cheb.chebval([lo, hi], np.eye(n + 1)[n])).max()
            out.append((p, 1.0 if np.any((lo <= extremes) & (extremes <= hi)) else float(ends)))
    return tuple(out)


def _cloud_sample(p, x, n, norm):
    vg = _value_and_gradient(p, x)
    px = float(vg[0])
    den2 = norm * norm - px * px
    if den2 <= 1e-15 * norm * norm:
        return None
    return GradientSample(x=x, vector=vg[1:] / (n * math.sqrt(den2)))


def empirical_gradient_cloud(x, degree: int, trials: int, seed: int):
    """Gradient samples at x from random polynomials plus transplant catalog."""
    x = check_interior(np.asarray(x, dtype=float))
    if not 1 <= degree <= 8:
        raise ValueError("degree must be in [1, 8]")
    samples = []
    children = np.random.SeedSequence(seed).spawn(trials)
    for child in children:
        rng = np.random.default_rng(child)
        n = int(rng.integers(1, degree + 1))
        p = random_polynomial(n, rng)
        samples.append(_cloud_sample(p, x, n, sup_norm_simplex(p).value))
    catalogs = [_transplant_catalog(n) for n in range(1, degree + 1)]
    for entries in zip(*catalogs):
        for n, (p, norm) in enumerate(entries, start=1):
            samples.append(_cloud_sample(p, x, n, norm))
    return [s for s in samples if s is not None]


def bernstein_szego_1d(n: int, x: float, a: float, b: float):
    """(ratio, bound) for the interval inequality |p'| <= n sqrt(||p||^2-p^2) / sqrt((b-x)(x-a)).

    The Chebyshev transplant on [a, b] attains the bound wherever |T_n(x)| < 1:
    with phi the angle of x from the nearer end, 1 - T_n^2 = sin^2(n phi) and
    |T_n'| = n |sin(n phi)| / sin(phi), so the ratio is the bound itself, and it
    is returned as such (through phi it would divide by a sin(phi) that can
    underflow).  At the interior extreme points cos(k pi / n), 0 < k < n (where
    sin(n phi) = 0 and the ratio is 0/0) an LP search over unit-norm
    polynomials takes over and approaches the bound from below.
    """
    if not a < x < b:
        raise ValueError("need a < x < b")
    if n < 1:
        raise ValueError("degree must be >= 1")
    bound = n / (math.sqrt(b - x) * math.sqrt(x - a))  # the product can under- or overflow
    phi = 2.0 * math.asin(math.sqrt(min(b - x, x - a) / (b - a)))
    s = math.sin(n * phi)
    if s * s <= 1e-9 and round(n * phi / math.pi) > 0:
        ratio = _degenerate_sharpness(n, x, a, b)
    else:
        ratio = bound
    return ratio, bound


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on first use: only _lp_ratio needs scipy."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def _degenerate_sharpness(n, x, a, b) -> float:
    best = 0.0
    for eta in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 3e-11):
        for sign in (1.0, -1.0):
            r = _lp_ratio(n, x, a, b, eta, sign)
            if r is not None:
                best = max(best, r)
    return best


def _lp_ratio(n, x, a, b, eta, sign):
    """Maximize sign * p'(x) over ||p|| <= N (sampled), p(x) = (1 - eta) N.

    Chebyshev basis of [a, b].  Cutting-plane rounds append the true extrema
    of each solution to the constraint grid, and the pin value tracks the
    root-certified norm N of the previous round, so p(x)/||p|| converges to
    1 - eta and the denominator N^2 - p(x)^2 = N^2 (2 eta - eta^2) is free of
    cancellation against the norm overshoot.  Every round's ratio uses the
    certified norm, so unconverged rounds only lower the reported value.
    """
    ux = (2.0 * x - a - b) / (b - a)
    deriv_row = np.array(
        [cheb.chebval(ux, cheb.chebder(np.eye(k + 1)[k])) for k in range(n + 1)]
    ) * (2.0 / (b - a))
    value_row = np.array([cheb.chebval(ux, np.eye(k + 1)[k]) for k in range(n + 1)])
    grid = np.cos(np.linspace(0.0, math.pi, 2001))
    best = None
    norm_prev = 1.0
    for _ in range(12):
        px = (1.0 - eta) * norm_prev
        V = cheb.chebvander(grid, n)
        res = linprog(
            -sign * deriv_row,
            A_ub=np.vstack([V, -V]),
            b_ub=np.full(2 * len(grid), norm_prev),
            A_eq=value_row[None, :],
            b_eq=[px],
            bounds=(None, None),
            method="highs",
        )
        if not res.success:
            return best
        coeffs = res.x
        ext = _cheb_extrema(coeffs)
        norm = float(np.max(np.abs(cheb.chebval(ext, coeffs))))
        # evaluate p(x) from the coefficients rather than trusting the pin:
        # the solver's equality residual would otherwise shrink the
        # denominator and report a ratio no polynomial attains
        actual = float(value_row @ coeffs)
        den2 = norm * norm - actual * actual
        if den2 > 0.0:
            r = abs(float(deriv_row @ coeffs)) / math.sqrt(den2)
            best = r if best is None else max(best, r)
        if abs(norm - norm_prev) <= 1e-14 * norm_prev:
            break
        grid = np.unique(np.concatenate([grid, ext]))
        norm_prev = norm
    return best


def _cheb_extrema(coeffs) -> np.ndarray:
    """Critical points of the Chebyshev-basis polynomial inside [-1,1], plus ends."""
    pts = [-1.0, 1.0]
    d = cheb.chebtrim(cheb.chebder(coeffs), tol=1e-13 * max(1.0, np.max(np.abs(coeffs))))
    if len(d) > 1:
        for r in np.atleast_1d(cheb.chebroots(d)):
            if abs(r.imag) < 1e-9 and -1.0 <= r.real <= 1.0:
                pts.append(float(r.real))
    return np.array(pts)
