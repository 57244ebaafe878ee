"""Polynomial-side verification of the derivative bounds.

Random bivariate polynomials and transplanted Chebyshev families are pushed
through the Bernstein ratio |<grad p, y>| / (n sqrt(||p||^2 - p^2)) and
compared against the pluripotential bound.  A polynomial is held as the stack
of p, d/dx1 p and d/dx2 p: its square is the first layer, and the derivatives
are the square shifted by a row or a column and scaled.  p and its gradient
come from one Horner pass over the stack.  A stack with a leading axis takes
many polynomials through the same pass, each row getting the bits it gets
alone: verify_upper_bound draws all its trials first and then evaluates them in
one pass per call, the gradient cloud each degree's 60 transplants, and the
cloud then normalizes all its samples in one array step.  The sup
norm and the bound D(x, y) stay one call per trial, as the benchmark's tracer
(perfbench/) counts one of each per trial until ROADMAP item 1 replaces it.

The sup-norm on the simplex is bracketed by Bezier ordinates:
from below by |p| at the vertices and edge-derivative roots (the exact boundary
maximum B) and at the corners of subdivision leaves; from above by the largest
|Bezier ordinate| (convex hull), by the ridge bound B + delta sqrt(2)/2, delta
bounding p's flattest directional derivative, as on the Chebyshev transplants,
or by the ordinates of the leaves that a search from the centroid leaves open
(a leaf on the boundary measures its edge row by B).  value == upper == B when
the hull or the search proves B to be the norm; otherwise the search closes an
interior maximum to upper <= value (1 + 1e-14).
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
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_square(cls, degree: int, square: np.ndarray) -> "TotalDegreePolynomial":
        n1 = degree + 1
        return cls(degree=degree, coeffs=square[:n1, :n1][_triangle(degree)])

    @classmethod
    def _of_stack(cls, stack: np.ndarray) -> "TotalDegreePolynomial":
        """The polynomial of a _build_stack row (n+1, n+1, 3), which it keeps as its stack."""
        p = cls.from_square(stack.shape[0] - 1, stack[..., 0])
        p.__dict__["_stack"] = stack  # fills the cached_property
        return p

    @property
    def square(self) -> np.ndarray:
        return self._stack[..., 0]

    @cached_property
    def _stack(self):
        return _build_stack(self.degree, self.coeffs)


@lru_cache(maxsize=32)
def _triangle(n: int) -> np.ndarray:
    """Mask of i + j <= n in the (n+1) x (n+1) square; row-major, it lists the flat order.
    Read-only, as it is shared."""
    k = np.arange(n + 1)
    mask = k[:, None] + k <= n
    mask.setflags(write=False)
    return mask


def _build_stack(degree: int, coeffs: np.ndarray) -> np.ndarray:
    """p, d/dx1 p and d/dx2 p side by side, shape (..., n+1, n+1, 3), zero padded, for
    coefficient rows (..., K) in the flat order; [..., 0] is the square, and the
    derivatives are it shifted up a row times i and left a column times j."""
    stack = np.zeros(coeffs.shape[:-1] + (degree + 1, degree + 1, 3))
    square = stack[..., 0]
    square[..., _triangle(degree)] = coeffs
    k = np.arange(1, degree + 1)
    stack[..., :-1, :, 1] = square[..., 1:, :] * k[:, None]
    stack[..., :-1, 2] = square[..., 1:] * k
    return stack


def _value_and_gradient(stack: np.ndarray, points) -> np.ndarray:
    """[p, d/dx1 p, d/dx2 p] at points (..., 2) of the stacks (..., n+1, n+1, 3) of
    _build_stack, leading axes broadcast, shape (..., 3): Horner in x1, then x2, as
    polyval2d of the square and its two derivatives, bit for bit.  Every step is
    elementwise, so a row of a batch of stacks gets the bits it gets alone."""
    pt = np.asarray(points, dtype=float)
    x1, x2 = pt[..., 0, None, None], pt[..., 1, None]
    n = stack.shape[-3] - 1
    acc = stack[..., n, :, :] + x1 * 0.0
    for i in range(n - 1, -1, -1):
        acc = stack[..., i, :, :] + acc * x1
    out = acc[..., n, :] + x2 * 0.0
    for j in range(n - 1, -1, -1):
        out = acc[..., j, :] + out * x2
    return out


def evaluate(p: TotalDegreePolynomial, point):
    """Value of p at one point or an array of points with shape (..., 2)."""
    out = _value_and_gradient(p._stack, point)[..., 0]
    return float(out) if out.ndim == 0 else out


def gradient(p: TotalDegreePolynomial, point):
    """Analytic gradient, same shape conventions as evaluate."""
    return _value_and_gradient(p._stack, point)[..., 1:]


def random_polynomial(degree: int, rng) -> TotalDegreePolynomial:
    """Coefficients uniform in [-1, 1]."""
    return TotalDegreePolynomial(
        degree=degree, coeffs=rng.uniform(-1.0, 1.0, size=n_coefficients(degree))
    )


@dataclass(frozen=True)
class SupNormCertificate:
    """value <= ||p|| <= upper on the simplex, up to rounding: |p| at a vertex, edge
    critical point or subdivision corner, and the least bound sup_norm_simplex
    reached.  value == upper when the hull or the search proved the boundary maximum
    (a vertex value, if the hull did) to be the norm; upper <= value (1 + 1e-12)
    when the ridge bound did, and upper <= value (1 + 1e-14) when the search closed
    an interior maximum.  value is p evaluated in floats, so rounding can lift it
    above ||p||, by up to 5e-11 on the degree-8 Chebyshev transplants, whose
    exact norms the cloud's catalog takes.  No grid runs; grid_resolution, max(64,
    8 n^2), stays only because the benchmark in perfbench/ reads it."""

    value: float
    grid_resolution: int
    upper: float


# edge e of the simplex is {origin[e] + t dir[e] : 0 <= t <= 1}: x2 = 0, x1 = 0, x2 = 1 - x1
_EDGE_ORIGIN = np.array([[[0.0, 0.0]], [[0.0, 0.0]], [[0.0, 1.0]]])
_EDGE_DIR = np.array([[[1.0, 0.0]], [[0.0, 1.0]], [[1.0, -1.0]]])


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


@lru_cache(maxsize=32)
def _companion(n: int) -> np.ndarray:
    """Three (n-1) x (n-1) shift matrices, read-only: _edge_candidates fills in column 0."""
    comp = np.tile(np.eye(n - 1, k=1), (3, 1, 1))
    comp.setflags(write=False)
    return comp


def _edge_candidates(p: TotalDegreePolynomial) -> np.ndarray:
    """Critical points (k, 2) of p restricted to each edge, inside the edge.

    With the vertices they hold the maximum of |p| on the
    boundary.  They are the real roots in (0, 1) of the three edge
    derivatives, found together as eigenvalues of their companion matrices.
    Needs n >= 2: sup_norm_simplex settles lower degrees by the hull.
    """
    n = p.degree
    dq = (p.square.ravel() @ _edge_derivative_map(n)).reshape(3, n)
    for e in np.flatnonzero(dq[:, -1] == 0.0):
        # t^k q'(t) has the same roots in (0, 1): move the top nonzero
        # coefficient to the lead; a constant edge becomes t^(n-1)
        nz = np.flatnonzero(dq[e])
        dq[e] = np.roll(dq[e], n - 1 - nz[-1]) if len(nz) else np.eye(n)[-1]
    comp = _companion(n).copy()  # rotated companion matrices
    comp[:, :, 0] = -dq[:, -2::-1] / dq[:, -1:]
    r = np.linalg.eigvals(comp)
    keep = (np.abs(r.imag) < 1e-8) & (r.real > 0.0) & (r.real < 1.0)
    return (_EDGE_ORIGIN + r.real[:, :, None] * _EDGE_DIR)[keep]


@lru_cache(maxsize=32)
def _bernstein_map(n: int) -> np.ndarray:
    """B, read-only, with coeffs @ B the Bezier ordinates b_abc of p on the simplex,
    a + b + c = n, in the flat order of (a, b).

    x1^i x2^j is the sum over a >= i, b >= j of C(a, i) C(b, j) / multinomial(n;
    i, j, n - i - j) times the Bernstein polynomial of x1^a x2^b x3^(n-a-b).
    """
    comb = np.vectorize(math.comb, otypes=[float])
    ij = np.argwhere(_triangle(n))  # the flat order, of monomials and of ordinates
    i, j = ij.T[:, :, None]
    a, b = ij.T
    B = comb(a, i) * comb(b, j) / (comb(n, i) * comb(n - i, j))
    B.setflags(write=False)
    return B


@lru_cache(maxsize=32)
def _bezier_map(n: int) -> np.ndarray:
    """_bernstein_map(n) with the columns of the three vertex values left out; in C
    order, as the product's rounding follows the layout."""
    ab = np.argwhere(_triangle(n))
    return np.ascontiguousarray(_bernstein_map(n)[:, (ab.sum(axis=1) > 0) & (ab.max(axis=1) < n)])


# the corners of the search's three centroid triangles and of a leaf's four
# midpoint children, as barycentric weights of (x1, x2, x3); the first two
# corners span the triangle's boundary edge, where it has one
_THIRD = (1.0 / 3.0,) * 3
_CENTROID_SPLIT = (
    ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), _THIRD),  # on x2 = 0
    ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), _THIRD),  # on x1 + x2 = 1
    ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), _THIRD),  # on x1 = 0
)
_MIDPOINT_SPLIT = (
    ((1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.5, 0.0, 0.5)),
    ((0.5, 0.5, 0.0), (0.0, 1.0, 0.0), (0.0, 0.5, 0.5)),
    ((0.5, 0.0, 0.5), (0.0, 0.5, 0.5), (0.0, 0.0, 1.0)),
    ((0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)),
)
# the children whose first two corners lie on the leaf's first edge, free of its third corner
_MIDPOINT_ON_EDGE = np.array([u[2] == v[2] == 0.0 for u, v, _ in _MIDPOINT_SPLIT])
_SEARCH_DEPTH, _SEARCH_OPEN = 40, 64  # the search's budget: levels, open leaves
_SEARCH_GAP, _RIDGE_GAP = 1e-14, 1e-12


def _subdivision_map(n: int, triangles) -> np.ndarray:
    """S with (ordinates @ S) the ordinates on each of triangles, side by side.

    On the triangle with corners u, v, w (barycentric in the parent), ordinate
    abc is the blossom of p at a copies of u, b of v and c of w, and the weight
    of parent ordinate beta in it is the coefficient of t^beta in
    (u.t)^a (v.t)^b (w.t)^c: n products with a linear form, for every
    ordinate at once.
    """
    ab = np.argwhere(_triangle(n))
    step = np.arange(n)
    corner = (step >= ab[:, :1]).astype(int) + (step >= ab.sum(axis=1, keepdims=True))
    form = np.asarray(triangles)[:, corner, :, None, None]  # (triangle, ordinate, step, 3, 1, 1)
    w = np.zeros(form.shape[:2] + (n + 1, n + 1))
    w[..., 0, 0] = 1.0
    for s in range(n):
        u = form[:, :, s]
        nxt = u[:, :, 2] * w
        nxt[..., 1:, :] += u[:, :, 0] * w[..., :-1, :]
        nxt[..., 1:] += u[:, :, 1] * w[..., :-1]
        w = nxt
    return w[..., _triangle(n)].transpose(2, 0, 1).reshape(len(ab), -1)


@lru_cache(maxsize=32)
def _split_maps(n: int):
    """(C, S, row, corner), read-only: coeffs @ C the ordinates on the three centroid
    triangles, a leaf's ordinates @ S those on its four midpoint children, row the
    mask of a leaf's ordinates on its first two corners' edge, and corner the flat
    indices of the ordinates at its corners, which are p there."""
    maps = (_bernstein_map(n) @ _subdivision_map(n, _CENTROID_SPLIT),
            _subdivision_map(n, _MIDPOINT_SPLIT),
            np.argwhere(_triangle(n)).sum(axis=1) == n,
            np.array([0, n, n_coefficients(n) - 1]))
    for a in maps:
        a.setflags(write=False)
    return maps


def _subdivide(p: TotalDegreePolynomial, boundary: float):
    """(lower, upper) bracketing ||p||, by Bezier subdivision from B = boundary, the
    exact maximum of |p| on the simplex's boundary.

    It cuts the simplex at its centroid into three triangles with one
    boundary edge each.  On such a leaf, the ordinates of the edge row sum to
    (1 - mu)^n p on the edge, mu the barycentric coordinate of the third corner,
    so |p| there is at most max(B, the leaf's bound), the largest of its other
    |ordinates|; a leaf without a boundary edge takes every ordinate.  lower
    starts at B and rises to the leaves' corner ordinates, p at the corners, once
    they beat B (1 + _SEARCH_GAP), so a boundary maximum keeps lower == B.  Leaves
    whose bound exceeds lower split at their edge midpoints, the two children on a
    boundary edge keeping the edge rule; the others are dropped, so upper =
    max(lower, the largest bound) bounds ||p||.  The loop returns once upper <=
    lower (1 + _SEARCH_GAP), after _SEARCH_DEPTH levels, or with more than
    _SEARCH_OPEN leaves open: a Chebyshev transplant's ridge, where |p| reaches B
    along a line, keeps leaves open at every depth.
    """
    centroid, children, row, corner = _split_maps(p.degree)
    leaves = (p.coeffs @ centroid).reshape(3, -1)
    on_edge = np.ones(3, dtype=bool)
    lower = boundary
    for level in range(_SEARCH_DEPTH + 1):
        ordinates = np.abs(leaves)
        top = float(ordinates.take(corner, axis=1).max())
        if top > boundary * (1.0 + _SEARCH_GAP):
            lower = max(lower, top)
        bound = np.where(on_edge[:, None] & row, 0.0, ordinates).max(axis=1)
        upper = max(lower, float(bound.max()))
        open_leaves = bound > lower
        n_open = np.count_nonzero(open_leaves)
        if upper <= lower * (1.0 + _SEARCH_GAP) or level == _SEARCH_DEPTH or n_open > _SEARCH_OPEN:
            break
        leaves = (leaves[open_leaves] @ children).reshape(4 * n_open, -1)
        on_edge = (on_edge[open_leaves, None] & _MIDPOINT_ON_EDGE).ravel()
    return lower, upper


def _ridge_bound(p: TotalDegreePolynomial) -> float:
    """delta >= |D_u p| on the simplex: the largest |Bezier ordinate| of u . grad p, u
    the left singular vector of the smaller singular value of the 2 x K stack of
    grad p's ordinates, the direction along which a transplant's ridges run.  The SVD
    reads them scaled by a power of 2 into [1/2, 1), so delta scales with p exactly."""
    tri = _triangle(p.degree - 1)
    grad = p._stack[:-1, :-1]  # d/dx1 p and d/dx2 p in [..., 1] and [..., 2]
    ordinates = np.stack([grad[..., 1][tri], grad[..., 2][tri]]) @ _bernstein_map(p.degree - 1)
    exponent = math.frexp(float(np.abs(ordinates).max()))[1]
    u = np.linalg.svd(np.ldexp(ordinates, -exponent), full_matrices=False)[0][:, -1]
    return float(np.abs(u @ ordinates).max())


def sup_norm_simplex(p: TotalDegreePolynomial) -> SupNormCertificate:
    """Sup-norm of p on the simplex from below, with an upper bound.

    Three stages, each run only when the one before cannot prove the norm:
    (a) if no |Bezier ordinate| exceeds the largest |p| at the vertices, that is
    the norm (convex hull); a settled hull always means a vertex maximum, as an
    edge maximum inside the edge is a positive mix of the edge's ordinates.
    (b) B, |p| at the vertices and at the real roots of p's derivative along each
    edge, is the exact boundary maximum.  Along the u of _ridge_bound every point
    reaches the boundary within half a chord, at most sqrt(2)/2, so ||p|| <= upper
    = B + delta sqrt(2)/2, and value = B when upper <= B (1 + _RIDGE_GAP), as on
    the transplants T_n o l of degree <= 5.  (c) The _subdivide search from the
    centroid proves B the norm, value == upper == B, or closes an interior maximum
    to _SEARCH_GAP; along a transplant's ridge it runs out of open leaves.  upper is
    the lesser of its bound and the ridge bound, but not below value, which rounding
    can lift above them on a degree 6-8 transplant.
    """
    n = p.degree
    m = max(64, 8 * n * n)
    sq = p.square
    # p at (0, 0), (1, 0) and (0, 1): Horner's sums there, bit for bit
    vertex = float(np.abs([sq[0, 0], np.cumsum(sq[::-1, 0])[-1], np.cumsum(sq[0, ::-1])[-1]]).max())
    hull = float(np.abs(p.coeffs @ _bezier_map(n)).max(initial=0.0))
    if not hull > vertex:
        return SupNormCertificate(value=vertex, grid_resolution=m, upper=vertex)
    on_edges = np.abs(_value_and_gradient(p._stack, _edge_candidates(p))[:, 0])
    boundary = max(vertex, float(on_edges.max(initial=0.0)))
    ridge = boundary + _ridge_bound(p) * math.sqrt(0.5)
    if ridge <= boundary * (1.0 + _RIDGE_GAP):
        return SupNormCertificate(value=boundary, grid_resolution=m, upper=ridge)
    lower, upper = _subdivide(p, boundary)
    return SupNormCertificate(value=lower, grid_resolution=m, upper=max(lower, min(upper, ridge)))


def bernstein_ratio(p: TotalDegreePolynomial, x, y, norm: float) -> float:
    """|<grad p(x), y>| / (n sqrt(norm^2 - p(x)^2)), norm the sup-norm of p on the
    simplex, such as sup_norm_simplex(p).value."""
    if p.degree < 1:
        raise ValueError("ratio needs degree >= 1")
    if not 0.0 < norm < math.inf:
        raise ValueError("norm must be finite and positive")
    x = check_interior(x)
    y = unit_direction(y)
    vg = _value_and_gradient(p._stack, x)
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
    if c.shape != (2,):
        raise ValueError("c must have shape (2,)")
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
    boundary margin 1e-3, and a direction; violations beyond the slack 1e-3 are
    reported, not raised.  The certificate's gap bounds how far its value can
    sit below the norm, far inside the slack.
    Per-trial seeds descend deterministically from (seed, trial index).  All
    trials are drawn first, and p(x) and grad p(x) of all of them come from one
    Horner pass; the sup norm and the bound D(x, y) are taken trial by trial.
    """
    if not 1 <= degree <= 8:
        raise ValueError("degree must be in [1, 8]")
    if trials < 1:
        raise ValueError("need at least one trial")
    coeffs = np.empty((trials, n_coefficients(degree)))
    points = np.empty((trials, 2))
    phis = np.empty(trials)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        rng = np.random.default_rng(child)
        coeffs[i] = rng.uniform(-1.0, 1.0, size=coeffs.shape[1])  # as random_polynomial
        points[i] = sample_interior(rng)
        phis[i] = rng.uniform(0.0, math.pi)
    stacks = _build_stack(degree, coeffs)
    at_x = _value_and_gradient(stacks, points)
    quotients = np.empty(trials)
    violations = []
    for i, (stack, x, phi, vg) in enumerate(zip(stacks, points, phis.tolist(), at_x)):
        y = np.array([math.cos(phi), math.sin(phi)])
        cert = sup_norm_simplex(TotalDegreePolynomial._of_stack(stack))
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
        if not np.isfinite(v).all():
            raise ValueError("gradient sample must be finite")
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "vector", v)


@lru_cache(maxsize=8)
def _transplant_catalog(n: int):
    """(stack, norms), read-only: the _build_stack rows (60, n+1, n+1, 3) of T_n o l
    for the 60 nonconstant affine l with vertex values in {-1, -1/3, 1/3, 1}, and
    ||T_n o l||, the max of |T_n| on [min, max] of those values: 1 if that holds a
    cos(k pi / n) (none is +-1/3, by Niven), else |T_n| at an end."""
    extremes = np.cos(np.arange(n + 1) * math.pi / n)
    coeffs, norms = [], []
    for v0, va, vb in itertools.product((-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0), repeat=3):
        if not va == v0 == vb:
            coeffs.append(chebyshev_transplant(n, v0, np.array([va - v0, vb - v0])).coeffs)
            lo, hi = min(v0, va, vb), max(v0, va, vb)
            ends = np.abs(cheb.chebval([lo, hi], np.eye(n + 1)[n])).max()
            norms.append(1.0 if np.any((lo <= extremes) & (extremes <= hi)) else float(ends))
    catalog = (_build_stack(n, np.array(coeffs)), np.array(norms))
    for a in catalog:
        a.setflags(write=False)
    return catalog


def empirical_gradient_cloud(x, degree: int, trials: int, seed: int):
    """Gradient samples at x from random polynomials plus transplant catalog: each
    degree's 60 transplants from one Horner pass at x, the samples in the order of
    the catalog's entries, degrees 1..degree within each.  All samples are then
    normalized in one step, dropping those where |p(x)| is within rounding of the norm."""
    x = check_interior(np.asarray(x, dtype=float))
    if not 1 <= degree <= 8:
        raise ValueError("degree must be in [1, 8]")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    vg, n, norm = [], [], []
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        n.append(int(rng.integers(1, degree + 1)))
        p = random_polynomial(n[-1], rng)
        vg.append(_value_and_gradient(p._stack, x))
        norm.append(sup_norm_simplex(p).value)
    stacks, norms = zip(*(_transplant_catalog(k) for k in range(1, degree + 1)))
    vg.extend(np.stack([_value_and_gradient(s, x) for s in stacks], axis=1).reshape(-1, 3))
    n.extend(list(range(1, degree + 1)) * 60)
    norm.extend(np.stack(norms, axis=1).ravel())
    vg, n, norm = np.array(vg), np.array(n), np.array(norm)
    den2 = norm * norm - vg[:, 0] * vg[:, 0]
    keep = den2 > 1e-15 * norm * norm
    vectors = vg[keep, 1:] / (n[keep] * np.sqrt(den2[keep]))[:, None]
    return [GradientSample(x=x, vector=v) for v in vectors]


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
