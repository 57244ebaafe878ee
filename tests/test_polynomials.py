import functools
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.spatial import ConvexHull

from bernstein_bounds import polynomials as pl
from bernstein_bounds import simplex as sx

M = np.array([1 / 3, 1 / 3])
E1 = np.array([1.0, 0.0])

# flat coefficient order is (0,0), (0,1), ..., (0,n), (1,0), ... row-major in
# the x1 power, so degree 1 reads [c, c_x2, c_x1]
LIN = pl.TotalDegreePolynomial(1, np.array([0.5, -1.0, 2.0]))  # 0.5 - x2 + 2 x1


def test_n_coefficients():
    assert [pl.n_coefficients(n) for n in range(5)] == [1, 3, 6, 10, 15]


def test_coefficient_length_validated():
    with pytest.raises(ValueError):
        pl.TotalDegreePolynomial(2, np.ones(5))


def test_evaluate_scalar_and_batch():
    assert pl.evaluate(LIN, np.array([0.0, 0.0])) == pytest.approx(0.5)
    assert pl.evaluate(LIN, np.array([1.0, 0.0])) == pytest.approx(2.5)
    pts = np.array([[0.0, 0.0], [0.25, 0.5]])
    vals = pl.evaluate(LIN, pts)
    assert np.allclose(vals, [0.5, 0.5])
    assert isinstance(pl.evaluate(LIN, np.array([0.1, 0.1])), float)


def test_gradient_linear_is_constant():
    g = pl.gradient(LIN, np.array([0.3, 0.2]))
    assert np.allclose(g, [2.0, -1.0])


def test_square_embedding_roundtrip():
    p = pl.TotalDegreePolynomial(2, np.arange(6, dtype=float) + 1.0)
    q = pl.TotalDegreePolynomial.from_square(2, p.square)
    assert np.allclose(p.coeffs, q.coeffs)


@pytest.mark.parametrize("n", range(8))
def test_square_layout_matches_the_row_loop(n):
    # reference: row i of the square holds the next n + 1 - i flat coefficients
    coeffs = np.random.default_rng(n).uniform(-1.0, 1.0, size=pl.n_coefficients(n))
    want, pos = np.zeros((n + 1, n + 1)), 0
    for i in range(n + 1):
        want[i, : n + 1 - i] = coeffs[pos : pos + n + 1 - i]
        pos += n + 1 - i
    assert np.array_equal(pl.TotalDegreePolynomial(n, coeffs).square, want)
    # a larger square with junk beyond the triangle reads back the same flat order
    big = np.pad(want, (0, 2))
    k = np.arange(n + 3)
    big[k[:, None] + k > n] = 7.0
    assert np.array_equal(pl.TotalDegreePolynomial.from_square(n, big).coeffs, coeffs)


def test_random_polynomial_is_seeded_and_bounded():
    a = pl.random_polynomial(3, np.random.default_rng(5))
    b = pl.random_polynomial(3, np.random.default_rng(5))
    assert np.array_equal(a.coeffs, b.coeffs)
    assert a.coeffs.shape == (10,)
    assert np.max(np.abs(a.coeffs)) <= 1.0


@pytest.mark.parametrize(
    "p,expected",
    [
        (LIN, 2.5),
        (pl.TotalDegreePolynomial(0, np.array([-3.25])), 3.25),
        (pl.chebyshev_transplant(4, -1.0, [2.0, 0.0]), 1.0),
    ],
)
def test_sup_norm_cases(p, expected):
    cert = pl.sup_norm_simplex(p)
    assert cert.value == pytest.approx(expected, rel=1e-12)


def test_sup_norm_interior_maximum_closes_its_gap():
    # x1 x2 (1 - x1 - x2) peaks strictly inside, at the centroid, with value 1/27
    coeffs = np.zeros(10)
    coeffs[5] = 1.0  # (1,1)
    coeffs[6] = -1.0  # (1,2)
    coeffs[8] = -1.0  # (2,1)
    p = pl.TotalDegreePolynomial(3, coeffs)
    cert = pl.sup_norm_simplex(p)
    assert cert.value == pytest.approx(1.0 / 27.0, rel=1e-14)
    # x1 x2 x3 = B_111 / 6: its one nonzero Bezier ordinate, 1/6, leaves the hull
    # unsettled, and subdivision brings the upper bound down to the value
    assert cert.value <= cert.upper <= cert.value * (1.0 + 1e-14)


def _lattice(m):
    k, l = np.divmod(np.arange((m + 1) ** 2), m + 1)
    return np.stack([k, l], axis=1)[k + l <= m] / m


def _transplant_at(n, v):
    """T_n of the affine functional with vertex values v at (0, 0), (1, 0), (0, 1)."""
    return pl.chebyshev_transplant(n, v[0], [v[1] - v[0], v[2] - v[0]])


def _transplant(rng, n):
    """T_n of an affine functional that is +-1 at a random vertex: its norm is 1."""
    v = rng.uniform(-1.0, 1.0, size=3)
    v[rng.integers(3)] = rng.choice([-1.0, 1.0])
    return _transplant_at(n, v)


def test_sup_norm_is_a_lower_bound_that_refinement_cannot_exceed():
    lattice = _lattice(700)
    rng = np.random.default_rng(20)
    for _ in range(10):
        p = pl.random_polynomial(4, rng)
        cert = pl.sup_norm_simplex(p)
        dense = np.abs(npp.polyval2d(lattice[:, 0], lattice[:, 1], p.square)).max()
        assert dense <= cert.value * (1.0 + 1e-9) + 1e-12


# Values of the grid-and-polish certificate as computed before the
# tensor-product rewrite: sup norms of three seeded random polynomials per
# degree (rng 400 + n) and, per degree d, verify_upper_bound(d, 150, 800 + d)'s
# max quotient, quotient sum and quotients[::15].
FROZEN_SUP_NORMS = {
    1: (0.4965805493388773, 1.5318156905501215, 1.3331294002181358),
    2: (1.7811023208338121, 0.68805267016394, 0.7105039022895445),
    3: (0.644785443944051, 0.6790899788688627, 1.5450454340684516),
    4: (1.668714065053067, 1.3115230211906588, 0.5980491756249586),
    5: (1.5239383681848855, 1.95091061608812, 2.334673795877584),
    6: (1.6585995947148438, 2.299362478444001, 1.6148554030478612),
    7: (1.2123526461853358, 1.4858519952172178, 0.9531707384869565),
    8: (2.351044698366967, 0.8676393959422364, 2.7411421603713233),
}

FROZEN_VERIFY = {
    1: (0.7682167386436041, 36.285420788894264, (
        0.2754070230975315, 0.24917543960391392, 0.24319556091592995,
        0.2771241125479757, 0.009073175544525141, 0.3308369769532995,
        0.2937848422422368, 0.16345422164543794, 0.18090963965502593, 0.3201220882928209)),
    2: (0.4148228398391221, 16.602029885562153, (
        0.06377456632729889, 0.0485773258294189, 0.018299425010029142,
        0.11283549614248516, 0.03847722130654444, 0.03514025396034776,
        0.09106557865778649, 0.13766837391221587, 0.12417913605977315,
        0.13061004143420055)),
    3: (0.2348761008893282, 9.802650563453092, (
        0.05225852579919164, 0.10895008747284333, 0.16254333532264476,
        0.00020195701260210895, 0.06616706265279647, 0.06402836709799596,
        0.04917202463319124, 0.15925185898056618, 0.13931109368345504,
        0.021917158494296946)),
    4: (0.26785175457373755, 8.24129536954032, (
        0.002008499296994068, 0.011196221665933368, 0.01802001223682112,
        0.06263587293597452, 0.05116391791519734, 0.0966813756267676,
        0.035047594778373305, 0.058377923107175225, 0.005037822884675005,
        0.06043192204278877)),
    5: (0.19232597234489085, 6.690180139645786, (
        0.04260084442509249, 0.1062866184811884, 0.02368837567794623,
        0.049511901710484606, 0.013839784636974366, 0.09985928541194028,
        0.08218974146880928, 0.003973315138998093, 0.06940861525609666,
        0.02428861836500316)),
    6: (0.22145543893362715, 4.9376106215443265, (
        0.0017054249572656414, 0.03664497346705543, 0.023661779041970643,
        0.02509079468977393, 0.021862357569369953, 0.0287950883789684,
        0.000471503070621258, 0.08056774303059168, 0.019434787322597572,
        0.015700262088564645)),
    7: (0.1355176089639944, 4.605899803163096, (
        0.0268876855237596, 0.011565140536529897, 0.017053656757571492,
        0.05279663859350557, 0.023941081423351957, 0.01755105241421756,
        0.006737879979019513, 0.008630716589448478, 0.012724709671660228,
        0.054983113983318795)),
    8: (0.1167331626938534, 3.435785235370472, (
        0.0547338881401232, 0.010230088815139014, 0.007897264233452092,
        0.014905877329907042, 0.00451951379151662, 0.04059161910459477,
        0.003894137395142378, 0.003180372923445551, 0.012192691904177532,
        0.07720861833343576)),
}


@pytest.mark.parametrize("n", range(1, 9))
def test_sup_norm_matches_frozen_values(n):
    rng = np.random.default_rng(400 + n)
    got = [pl.sup_norm_simplex(pl.random_polynomial(n, rng)).value for _ in range(3)]
    assert got == pytest.approx(FROZEN_SUP_NORMS[n], rel=1e-12)


@pytest.mark.parametrize("d", range(1, 9))
def test_verify_quotients_match_frozen_values(d):
    q = pl.verify_upper_bound(d, 150, seed=800 + d)["quotients"]
    max_q, total, sampled = FROZEN_VERIFY[d]
    assert max(q) == pytest.approx(max_q, rel=1e-12)
    assert sum(q) == pytest.approx(total, rel=1e-12)
    assert q[::15] == pytest.approx(sampled, rel=1e-12)


def test_transplants_up_to_degree_8_have_unit_norm():
    """T_n of a functional that is +-1 at a vertex and within [-1, 1] elsewhere."""
    rng = np.random.default_rng(31)
    for n in range(1, 9):
        for _ in range(12):
            assert abs(pl.sup_norm_simplex(_transplant(rng, n)).value - 1.0) <= 1e-10


def test_sup_norm_of_constant_edges_and_tiny_grids():
    # constant on x1 = 0 and on x2 = 0 (x1 x2 vanishes there), peak 1/4 at (1/2, 1/2)
    p = pl.TotalDegreePolynomial(2, np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0]))
    assert pl.sup_norm_simplex(p).value == pytest.approx(0.25, rel=1e-15)
    # the edge roots hold the peak, whatever the grid
    assert np.min(np.hypot(*(pl._edge_candidates(p) - 0.5).T)) <= 1e-15
    # x2 - x2^2 + x1^3 / 10: degree 2 on x1 = 0, peak on the hypotenuse at the
    # root of 1 - 2t + 0.3t^2, off the grid's nodes
    sq = np.zeros((4, 4))
    sq[0, 1], sq[0, 2], sq[3, 0] = 1.0, -1.0, 0.1
    p = pl.TotalDegreePolynomial.from_square(3, sq)
    t = (2.0 - math.sqrt(2.8)) / 0.6
    want = t * (1.0 - t) + 0.1 * t**3
    assert pl.sup_norm_simplex(p).value == pytest.approx(want, rel=1e-14)
    assert np.min(np.hypot(*(pl._edge_candidates(p) - [t, 1.0 - t]).T)) <= 1e-14


def _bezier_ordinates(p):
    """{(a, b): ordinate} from pl._bezier_map, with the three vertex values put back."""
    n = p.degree
    vertex = {(0, 0): [0.0, 0.0], (n, 0): [1.0, 0.0], (0, n): [0.0, 1.0]}
    inner = iter((p.coeffs @ pl._bezier_map(n)).tolist())
    out = {}
    for a in range(n + 1):
        for b in range(n + 1 - a):
            out[a, b] = pl.evaluate(p, vertex[a, b]) if (a, b) in vertex else next(inner)
    assert next(inner, None) is None
    return out


@pytest.mark.parametrize("n", range(9))
def test_bezier_ordinates_reproduce_p(n):
    """sum b_abc B_abc(x), with B_abc = n!/(a! b! c!) x1^a x2^b x3^c, is p(x)."""
    rng = np.random.default_rng(60 + n)
    p = pl.random_polynomial(n, rng)
    ords = _bezier_ordinates(p)
    scale = sum(abs(b) for b in ords.values())
    for x1, x2 in rng.dirichlet(np.ones(3), size=50)[:, :2].tolist():
        x3 = 1.0 - x1 - x2
        got = sum(b * math.comb(n, a) * math.comb(n - a, bb) * x1**a * x2**bb * x3 ** (n - a - bb)
                  for (a, bb), b in ords.items())
        assert abs(got - pl.evaluate(p, [x1, x2])) <= 1e-13 * scale


@pytest.mark.parametrize("n", range(9))
def test_hull_settles_most_random_norms(n):
    """No ordinate above the boundary maximum: the norm is that maximum, value == upper."""
    rng = np.random.default_rng(70 + n)
    certs = [pl.sup_norm_simplex(pl.random_polynomial(n, rng)) for _ in range(200)]
    settled = np.mean([c.value == c.upper for c in certs])
    assert settled == 1.0 if n < 2 else settled >= 0.6
    assert all(c.grid_resolution == max(64, 8 * n * n) for c in certs)
    assert all(type(c.grid_resolution) is int for c in certs)


def _no_search(*args):
    raise AssertionError("the search ran")


@pytest.mark.parametrize(
    "square",
    [
        [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],  # x1 + x2: an ordinate ties the max
        [[2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],  # a constant of degree 2
        [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],  # x2^2, largest at a vertex
    ],
)
def test_hull_branch_runs_no_grid(monkeypatch, square):
    monkeypatch.setattr(pl, "_subdivide", _no_search)
    p = pl.TotalDegreePolynomial.from_square(2, np.array(square))
    cert = pl.sup_norm_simplex(p)
    assert cert.value == cert.upper == max(abs(b) for b in _bezier_ordinates(p).values())


@pytest.mark.parametrize("n", range(9))
def test_settled_hull_is_a_vertex_maximum(monkeypatch, n):
    """Where no ordinate exceeds max |p(vertex)|, that is the norm, found without edge roots."""
    def no_edges(p):
        raise AssertionError("the edge roots were computed")

    monkeypatch.setattr(pl, "_edge_candidates", no_edges)
    rng = np.random.default_rng(90 + n)
    settled = 0
    for _ in range(200):
        p = pl.random_polynomial(n, rng)
        vertex = max(abs(pl.evaluate(p, v)) for v in ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0]))
        if np.abs(p.coeffs @ pl._bezier_map(n)).max(initial=0.0) <= vertex:
            settled += 1
            cert = pl.sup_norm_simplex(p)
            assert cert.value == cert.upper == vertex
    assert settled >= 100


def _flat_order(n):
    return [(a, b) for a in range(n + 1) for b in range(n + 1 - a)]


def _bernstein_sum(ords, n, lam):
    """sum b_abc B_abc(lam) over the flat order of (a, b), c = n - a - b."""
    return sum(o * math.comb(n, a) * math.comb(n - a, b) * lam[0] ** a * lam[1] ** b
               * lam[2] ** (n - a - b) for (a, b), o in zip(_flat_order(n), ords))


def _midpoint_children(P, Q, W):
    """The four midpoint children, the two on the edge P-Q first, each listing that edge first."""
    pq, qw, pw = (P + Q) / 2, (Q + W) / 2, (P + W) / 2
    return [(P, pq, pw), (pq, Q, qw), (pw, qw, W), (qw, pw, pq)]


@pytest.mark.parametrize("n", range(1, 9))
def test_split_maps_reproduce_p(n):
    """The ordinates of every centroid triangle and of each one's midpoint children give p."""
    rng = np.random.default_rng(110 + n)
    p = pl.random_polynomial(n, rng)
    centroid, children, row, corner = pl._split_maps(n)
    N = pl.n_coefficients(n)
    O, G = np.zeros(2), np.full(2, 1.0 / 3.0)
    X, Y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    leaves = list(zip((p.coeffs @ centroid).reshape(3, N), [(O, X, G), (X, Y, G), (Y, O, G)]))
    for ords, corners in list(leaves):
        leaves += zip((ords @ children).reshape(4, N), _midpoint_children(*corners))
    assert len(leaves) == 15
    for ords, corners in leaves:
        scale = np.abs(ords).sum()
        for lam in rng.dirichlet(np.ones(3), size=50):
            want = pl.evaluate(p, lam @ np.array(corners))
            assert abs(_bernstein_sum(ords, n, lam) - want) <= 1e-13 * scale
        # corner picks the ordinates at the corners, in the order (0, 0, 1), (0, 1, 0), (1, 0, 0)
        want = [pl.evaluate(p, c) for c in np.array(corners)[::-1]]
        assert ords[corner] == pytest.approx(want, rel=1e-13, abs=1e-13 * scale)
    # row marks the ordinates free of the third corner: those on the first two corners' edge
    assert row.tolist() == [a + b == n for a, b in _flat_order(n)]
    # the edge rule is kept by exactly the children whose first two corners lie on P-Q
    P, Q, W = np.eye(3)
    on_pq = [abs(c[0][2]) + abs(c[1][2]) == 0.0 for c in _midpoint_children(P, Q, W)]
    assert pl._MIDPOINT_ON_EDGE.tolist() == on_pq == [True, True, False, False]


@pytest.mark.parametrize("n", range(2, 9))
def test_search_settles_nine_random_norms_in_ten(n):
    rng = np.random.default_rng(130 + n)
    certs = [pl.sup_norm_simplex(pl.random_polynomial(n, rng)) for _ in range(200)]
    assert np.mean([c.value == c.upper for c in certs]) >= 0.9


class _CountingMap:
    """A split map that records how many leaves each split multiplies."""

    __array_ufunc__ = None  # ndarray @ self defers to __rmatmul__

    def __init__(self, matrix, counts):
        self.matrix, self.counts = matrix, counts

    def __rmatmul__(self, leaves):
        self.counts.append(len(leaves))
        return leaves @ self.matrix


def test_split_leaves_interior_maxima_to_the_search(monkeypatch):
    # x1 x2 (1 - x1 - x2): zero on the boundary, 1/27 at the centroid
    p = pl.TotalDegreePolynomial(3, np.array([0, 0, 0, 0, 0, 1, -1, 0, -1, 0.0]))
    calls, maps = [], pl._split_maps

    def counted_maps(n):
        centroid, children, row, corner = maps(n)
        calls.append([])
        return centroid, _CountingMap(children, calls[-1]), row, corner

    monkeypatch.setattr(pl, "_split_maps", counted_maps)
    cert = pl.sup_norm_simplex(p)
    (search,) = calls  # one search: the centroid split is its first level, and it closes
    assert 1 <= len(search) <= pl._SEARCH_DEPTH
    assert max(search) <= pl._SEARCH_OPEN
    assert cert.value == pytest.approx(1.0 / 27.0, rel=1e-14)
    assert cert.value <= cert.upper <= cert.value * (1.0 + 1e-14)


# |T_n o l| = 1 along the lines l = cos(k pi / n); after the first, which is 1 at a
# vertex too, they reach the norm only inside edges and along interior lines
_RIDGES = [
    pl.chebyshev_transplant(4, 1.0, [-1.3, -0.4]),
    _transplant_at(2, (-0.5, 0.5, 0.9)),
    _transplant_at(5, (-0.9, 0.2, 0.6)),
    _transplant_at(3, (-1.0 / 3.0, 2.0 / 3.0, 0.1)),
    _transplant_at(4, (0.6, -0.8, 0.95)),
]


@pytest.mark.parametrize("n", range(2, 6))
def test_ridge_settles_transplants_up_to_degree_5(monkeypatch, n):
    monkeypatch.setattr(pl, "_subdivide", _no_search)
    rng = np.random.default_rng(60 + n)
    for p in [_transplant(rng, n) for _ in range(200)] + [p for p in _RIDGES if p.degree == n]:
        cert = pl.sup_norm_simplex(p)
        assert cert.value <= cert.upper <= cert.value * (1.0 + 1e-12)
        assert abs(cert.value - 1.0) <= 1e-10


_DENSE_NODES = _lattice(400)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
def test_certificate_brackets_a_dense_sample(n, seed):
    p = pl.random_polynomial(n, np.random.default_rng(seed))
    cert = pl.sup_norm_simplex(p)
    dense = np.abs(npp.polyval2d(_DENSE_NODES[:, 0], _DENSE_NODES[:, 1], p.square)).max()
    assert dense <= cert.upper * (1.0 + 1e-12)
    assert cert.value <= cert.upper


@pytest.mark.parametrize("n", range(2, 9))
def test_transplant_upper_bounds_a_dense_sample(n):
    rng = np.random.default_rng(70 + n)
    open_gaps = 0
    for p in [_transplant(rng, n) for _ in range(16)] + [p for p in _RIDGES if p.degree == n]:
        cert = pl.sup_norm_simplex(p)
        dense = np.abs(npp.polyval2d(_DENSE_NODES[:, 0], _DENSE_NODES[:, 1], p.square)).max()
        assert dense <= cert.upper * (1.0 + 1e-12)
        open_gaps += cert.upper > cert.value * (1.0 + 1e-12)
    # rounding leaves some ridge gaps above 1e-12 from degree 6 on, and the hull bounds
    # those; the one open gap of these draws at degree 6 is 1.3e-12, too near to pin
    if n != 6:
        assert (open_gaps > 0) == (n > 6)


@functools.lru_cache(maxsize=None)
def _random_certificates(n):
    rng = np.random.default_rng(150 + n)
    return [(p, pl.sup_norm_simplex(p)) for p in (pl.random_polynomial(n, rng) for _ in range(300))]


@pytest.mark.parametrize("n", range(2, 9))
def test_random_certificates_close_to_1e_12(n):
    for _, cert in _random_certificates(n):
        assert cert.value <= cert.upper <= cert.value * (1.0 + 1e-12)


@pytest.mark.parametrize("n", range(2, 9))
def test_certificates_scale_exactly_by_powers_of_2(n):
    """Scaling p by 2^k scales value and upper by 2^k, bit for bit: every stage is
    linear in p, or a ratio of its coefficients, once the ridge SVD is scale-free."""
    rng = np.random.default_rng(170 + n)
    for p in [pl.random_polynomial(n, rng) for _ in range(30)] + [_transplant(rng, n) for _ in range(30)]:
        cert = pl.sup_norm_simplex(p)
        for k in (900, -900):
            scaled = pl.sup_norm_simplex(pl.TotalDegreePolynomial(n, np.ldexp(p.coeffs, k)))
            assert (scaled.value, scaled.upper) == (np.ldexp(cert.value, k), np.ldexp(cert.upper, k))


_LATTICE_200 = _lattice(200)


def _slsqp_max(p, start):
    """|p| at a local maximum on the simplex: SLSQP from start, with p and grad p from
    polyval2d of the square and of polyder's coefficients, projected back on the simplex."""
    sq = p.square
    sign = np.sign(npp.polyval2d(*start, sq))
    d1, d2 = npp.polyder(sq, axis=0), npp.polyder(sq, axis=1)
    res = minimize(
        lambda x: -sign * npp.polyval2d(x[0], x[1], sq), start,
        jac=lambda x: -sign * np.array([npp.polyval2d(x[0], x[1], d1), npp.polyval2d(x[0], x[1], d2)]),
        method="SLSQP", bounds=[(0.0, 1.0)] * 2, options={"ftol": 1e-16, "maxiter": 200},
        constraints=[{"type": "ineq", "fun": lambda x: 1.0 - x[0] - x[1],
                      "jac": lambda x: np.array([-1.0, -1.0])}],
    )
    x = np.clip(res.x, 0.0, 1.0)
    x /= max(1.0, x.sum())
    return abs(float(npp.polyval2d(x[0], x[1], sq)))


@pytest.mark.parametrize("n", range(2, 9))
def test_searched_norms_match_an_slsqp_polish(n):
    """Where neither the hull nor the search proves the norm (value != upper), SLSQP from
    the best node of a 200-lattice finds r with r <= upper and value >= r (1 - 1e-13)."""
    x1, x2 = _LATTICE_200.T
    searched = 0
    for p, cert in _random_certificates(n):
        if cert.value == cert.upper:
            continue
        searched += 1
        r = _slsqp_max(p, _LATTICE_200[np.argmax(np.abs(npp.polyval2d(x1, x2, p.square)))])
        assert r <= cert.upper
        assert cert.value >= r * (1.0 - 1e-13)
    assert searched >= 1


@pytest.mark.parametrize("n", range(2, 9))
def test_ridge_bound_holds_a_flattest_direction(n):
    """delta bounds |D_u p| for its own unit u, so it is at least the least lattice max
    of |D_u p| over all directions: the distance from 0 to the nearest edge line of the
    hull of +-grad p on the lattice, from qhull and polyval2d of polyder's coefficients.
    A finite set of directions would not do: when u falls between them, the least
    lattice max over them can exceed delta.  A coarse lattice keeps the hull cheap."""
    rng = np.random.default_rng(90 + n)
    x1, x2 = _lattice(100).T
    for _ in range(30):
        p = pl.random_polynomial(n, rng)
        grad = np.stack([npp.polyval2d(x1, x2, npp.polyder(p.square, axis=k)) for k in (0, 1)], axis=1)
        flattest = -ConvexHull(np.concatenate([grad, -grad])).equations[:, 2].max()
        assert pl._ridge_bound(p) >= (1.0 - 1e-12) * flattest


_coordinates = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([(), (5,), (3, 4)]),
    st.data(),
)
def test_value_and_gradient_is_polyval2d_bitwise(n, seed, lead, data):
    p = pl.random_polynomial(n, np.random.default_rng(seed))
    size = int(np.prod(lead, dtype=int)) * 2
    flat = data.draw(st.lists(_coordinates, min_size=size, max_size=size))
    pts = np.array(flat).reshape(*lead, 2)
    got = pl._value_and_gradient(p, pts)
    assert got.shape == (*lead, 3)
    for k, c in enumerate((p.square, p._dx, p._dy)):
        assert np.array_equal(got[..., k], npp.polyval2d(pts[..., 0], pts[..., 1], c))


def test_degree_zero_gradient_is_zero():
    p = pl.TotalDegreePolynomial(0, np.array([-2.5]))
    pts = np.random.default_rng(3).uniform(size=(4, 2))
    assert np.array_equal(pl._value_and_gradient(p, pts), np.tile([-2.5, 0.0, 0.0], (4, 1)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficients_are_refused(bad):
    coeffs = np.ones(6)
    coeffs[4] = bad
    with pytest.raises(ValueError, match="coefficients must be finite"):
        pl.TotalDegreePolynomial(2, coeffs)


def test_bernstein_ratio_linear_at_centroid():
    p = pl.TotalDegreePolynomial(1, np.array([0.0, -1.0, 1.0]))  # x1 - x2
    r = pl.bernstein_ratio(p, M, np.array([1.0, -1.0]), 1.0)
    assert r == pytest.approx(math.sqrt(2.0), rel=1e-12)
    # and it never beats the inscribed-ellipse bound
    assert r <= 1.0 / float(sx.ellipse_constant_dir(M, np.array([1.0, -1.0]))) + 1e-12


def test_bernstein_ratio_transplant_midpoint():
    t3 = pl.chebyshev_transplant(3, -1.0, [2.0, 0.0])
    assert pl.bernstein_ratio(t3, np.array([0.5, 0.1]), E1, 1.0) == pytest.approx(2.0, rel=1e-12)


def test_bernstein_ratio_scale_invariant():
    t3 = pl.chebyshev_transplant(3, -1.0, [2.0, 0.0])
    r1 = pl.bernstein_ratio(t3, np.array([0.5, 0.1]), E1, 1.0)
    scaled = pl.TotalDegreePolynomial(3, 7.5 * t3.coeffs)
    r2 = pl.bernstein_ratio(scaled, np.array([0.5, 0.1]), E1, 7.5)
    assert r1 == r2


def test_bernstein_ratio_guards():
    with pytest.raises(ValueError):
        pl.bernstein_ratio(pl.TotalDegreePolynomial(0, np.array([1.0])), M, E1, 1.0)
    with pytest.raises(ValueError):
        # a knowingly wrong certificate below |p(x)| must be refused
        pl.bernstein_ratio(LIN, np.array([0.9, 0.05]), E1, 0.5)


def test_transplant_quadratic_expansion():
    t2 = pl.chebyshev_transplant(2, -1.0, [2.0, 0.0])
    # T2(2 x1 - 1) = 8 x1^2 - 8 x1 + 1
    want = np.zeros((3, 3))
    want[0, 0], want[1, 0], want[2, 0] = 1.0, -8.0, 8.0
    assert np.allclose(t2.square, want, atol=1e-13)


def test_transplant_gradient_odd_degree():
    t3 = pl.chebyshev_transplant(3, -1.0, [2.0, 0.0])
    assert np.allclose(pl.gradient(t3, np.array([0.5, 0.1])), [-6.0, 0.0], atol=1e-12)


def test_transplant_validates_functional_and_degree():
    with pytest.raises(ValueError):
        pl.chebyshev_transplant(2, 0.5, [1.0, 0.0])  # reaches 1.5 at a vertex
    with pytest.raises(ValueError):
        pl.chebyshev_transplant(0, 0.0, [1.0, 0.0])


def test_transplants_have_unit_norm():
    for (c0, c) in [(-1.0, [2.0, 0.0]), (-1.0, [2.0, 2.0]), (1.0, [-2.0, -4.0 / 3.0]), (-1.0 / 3.0, [4.0 / 3.0, 2.0 / 3.0])]:
        for n in (1, 2, 3, 5):
            p = pl.chebyshev_transplant(n, c0, np.array(c))
            assert pl.sup_norm_simplex(p).value == pytest.approx(1.0, abs=1e-11)


def test_sample_interior_margin_and_determinism():
    rng = np.random.default_rng(99)
    pts = np.array([pl.sample_interior(rng) for _ in range(300)])
    slack = np.minimum(np.minimum(pts[:, 0], pts[:, 1]), 1.0 - pts.sum(axis=1))
    assert np.all(slack > 1e-3)
    again = np.array([pl.sample_interior(np.random.default_rng(99)) for _ in range(1)])
    assert np.allclose(pts[0], again[0])


def test_verify_upper_bound_report_shape_and_determinism():
    rep1 = pl.verify_upper_bound(3, 150, seed=21)
    rep2 = pl.verify_upper_bound(3, 150, seed=21)
    assert rep1["degree"] == 3 and rep1["trials"] == 150 and rep1["seed"] == 21
    assert rep1["violations"] == [] and rep2["violations"] == []
    assert rep1["max_quotient"] == rep2["max_quotient"] < 1.0
    assert rep1["quotients"] == rep2["quotients"]
    assert len(rep1["quotients"]) == 150
    assert 0 <= rep1["argmax_trial"] < 150


def test_verify_upper_bound_degree_guard():
    with pytest.raises(ValueError):
        pl.verify_upper_bound(0, 10, seed=1)
    with pytest.raises(ValueError):
        pl.verify_upper_bound(9, 10, seed=1)


def test_gradient_sample_must_be_finite():
    with pytest.raises(ValueError):
        pl.GradientSample(x=M, vector=np.array([np.nan, 0.0]))


def test_gradient_cloud_contained_with_boundary_witness():
    samples = pl.empirical_gradient_cloud(M, degree=4, trials=150, seed=7)
    assert len(samples) >= 150
    pts = np.array([s.vector for s in samples])
    thetas = np.linspace(0.0, math.pi, 256, endpoint=False)
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    r = sx.baran_derivative(M, dirs)
    proj = np.abs(pts @ dirs.T)
    assert float(np.max(proj - r[None, :])) <= 1e-9
    # the transplant catalog pushes all the way to the bound somewhere
    assert float(np.max(proj / r[None, :])) >= 1.0 - 1e-9


def test_gradient_cloud_reuses_the_transplant_catalog():
    x = np.array([0.3, 0.25])
    pl.empirical_gradient_cloud(x, degree=4, trials=30, seed=3)
    hits = pl._transplant_catalog.cache_info().hits
    first = pl.empirical_gradient_cloud(x, degree=4, trials=30, seed=3)
    second = pl.empirical_gradient_cloud(x, degree=4, trials=30, seed=3)
    assert pl._transplant_catalog.cache_info().hits == hits + 8
    assert [s.vector.tolist() for s in first] == [s.vector.tolist() for s in second]
    # frozen from the uncached path, which gave 264 samples: two more, both
    # [0, 0], from transplants with |p(x)| equal to the norm, which a norm
    # without the old 5e-15 overshoot leaves out
    v = np.array([s.vector for s in first])
    assert len(v) == 262
    assert float(np.sum(np.linalg.norm(v, axis=1))) == pytest.approx(385.8464631883279, rel=1e-12)
    want = [-1.321540661602004, -3.6390124434523887]
    assert np.allclose(v.sum(axis=0), want, rtol=0.0, atol=1e-12 * 385.85)


def _chebyshev_at(n, t):
    """T_n(t) in exact rational arithmetic, by the three-term recurrence."""
    prev, cur = Fraction(1), t
    for _ in range(n - 1):
        prev, cur = cur, 2 * t * cur - prev
    return cur


@pytest.mark.parametrize("n, search_rel", [(1, 1e-14), (2, 1e-14), (3, 1e-14), (4, 1e-14),
                                           (5, 2e-12), (6, 2e-12), (7, 2e-11), (8, 2e-11)])
def test_catalog_norms_are_the_exact_interval_maxima(n, search_rel):
    """||T_n o l|| on the simplex is the max of |T_n| over [min, max] of l's vertex
    values: 1 if an extreme point cos(k pi / n) lies there, else |T_n| at an end,
    here exact.  The catalog takes that closed form and meets it to 1e-15 relative.
    sup_norm_simplex, which the catalog does not call, evaluates p in floats, so
    its value may overshoot by rounding, within search_rel (measured 5.3e-15,
    6.8e-13 and 9.1e-12 for n <= 4, 5-6 and 7-8), but falls short by no more than
    1e-15."""
    ends = (Fraction(-1), Fraction(-1, 3), Fraction(1, 3), Fraction(1))
    values = [v for v in itertools.product(ends, repeat=3) if not v[0] == v[1] == v[2]]
    catalog = pl._transplant_catalog(n)
    assert len(catalog) == len(values) == 60
    for (p, norm), v in zip(catalog, values):
        lo, hi = min(v), max(v)
        if any(lo <= math.cos(k * math.pi / n) <= hi for k in range(n + 1)):
            exact = 1.0
        else:
            exact = float(max(abs(_chebyshev_at(n, lo)), abs(_chebyshev_at(n, hi))))
        assert abs(norm - exact) <= 1e-15 * exact
        value = pl.sup_norm_simplex(p).value
        assert abs(value - exact) <= search_rel * exact
        assert exact - value <= 1e-15


def test_transplant_catalog_runs_no_sup_norm_search(monkeypatch):
    def refuse(p):
        raise AssertionError("the catalog norms are closed forms")

    monkeypatch.setattr(pl, "sup_norm_simplex", refuse)
    pl._transplant_catalog.cache_clear()
    try:
        assert [len(pl._transplant_catalog(n)) for n in range(1, 9)] == [60] * 8
    finally:
        pl._transplant_catalog.cache_clear()


def test_gradient_cloud_keeps_no_near_zero_rim_sample():
    """With the exact norm, a transplant with |p(x)| at its norm has den2 = 0 and adds
    no sample; a norm rounded above it would add a near-zero vector instead."""
    cloud = pl.empirical_gradient_cloud(np.array([0.3, 0.25]), degree=8, trials=20, seed=1)
    v = np.array([s.vector for s in cloud])
    assert len(v) == 484
    assert not np.any(np.linalg.norm(v, axis=1) < 1e-6)


def test_gradient_cloud_validates_inputs():
    with pytest.raises(ValueError):
        pl.empirical_gradient_cloud(np.array([0.6, 0.6]), degree=2, trials=5, seed=0)
    with pytest.raises(ValueError):
        pl.empirical_gradient_cloud(M, degree=0, trials=5, seed=0)
    with pytest.raises(ValueError):
        pl.empirical_gradient_cloud(np.array([0.3, 0.3]), degree=2, trials=-5, seed=1)


@pytest.mark.parametrize(
    "n,x,a,b",
    [(3, 0.35, 0.0, 1.0), (1, -0.2, -1.0, 1.0), (4, 0.3, -1.0, 1.0), (6, 0.9, 0.0, 1.0)],
)
def test_interval_sharpness_direct_branch_is_exact(n, x, a, b):
    ratio, bound = pl.bernstein_szego_1d(n, x, a, b)
    assert bound == pytest.approx(n / math.sqrt((b - x) * (x - a)), rel=1e-15)
    assert abs(bound - ratio) < 1e-12 * bound


@pytest.mark.parametrize(
    "n,x,a,b",
    [
        (2, 0.0, -1.0, 1.0),
        (4, 0.0, -1.0, 1.0),
        (6, 0.0, -1.0, 1.0),
        (4, math.cos(math.pi / 4.0), -1.0, 1.0),
        (2, 0.5, -1.0, 2.0),
    ],
)
def test_interval_sharpness_degenerate_points_approach_bound(n, x, a, b):
    """At argument-extreme points the search gets within 1e-3 but never above."""
    ratio, bound = pl.bernstein_szego_1d(n, x, a, b)
    assert ratio <= bound + 1e-9
    assert bound - ratio < 1e-3


@pytest.mark.parametrize("n", [1, 3])
def test_interval_ratio_near_an_endpoint_is_exact_and_fast(n):
    """1 - T_n^2 < 1e-9 near a or b too; there the ratio is the generic one."""
    start = time.perf_counter()
    ratio, bound = pl.bernstein_szego_1d(n, 1e-11, 0.0, 1.0)
    assert time.perf_counter() - start < 1.0
    assert bound * (1.0 - 1e-9) <= ratio <= bound * (1.0 + 1e-12)


@pytest.mark.parametrize("n,x", [(1, 5e-10), (5, 1e-11)])
def test_interval_ratio_next_to_an_endpoint_is_exact_to_rounding(n, x):
    """Points where 1 - T_n^2 still exceeds 1e-9 but cancels: the chebval
    ratio was 1.39e-8 above and 4.15e-8 below the bound there."""
    ratio, bound = pl.bernstein_szego_1d(n, x, 0.0, 1.0)
    assert abs(ratio - bound) <= 1e-15 * bound


@pytest.mark.parametrize(
    "n,x,b", [(1, 5e-324, 1e300), (3, 1e-310, 1e10), (1, 1e-300, 2e-300), (2, 1e200, 1.5e300)]
)
def test_interval_ratio_at_extreme_scales_is_the_bound(n, x, b):
    """Through phi the first raised ZeroDivisionError and the second came out
    5.6e-6 above the bound: sin(phi) underflows or loses its digits.  In the
    last two (b - x)(x - a) under- and overflows: ZeroDivisionError, and 0."""
    ratio, bound = pl.bernstein_szego_1d(n, x, 0.0, b)
    assert 0.0 < bound < math.inf
    assert abs(ratio - bound) <= 1e-15 * bound
    assert bound == pytest.approx(n / (math.sqrt(b - x) * math.sqrt(x)), rel=1e-15)


def test_interval_lp_runs_only_at_an_interior_extreme_point(monkeypatch):
    """cos(pi/3) is an extreme point of T_3, where sin(3 phi) is a rounded
    zero (1.2e-16): it must reach the LP search, not the trigonometric form."""
    calls = []
    real = pl.linprog

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pl, "linprog", counting)
    pl.bernstein_szego_1d(3, 0.35, 0.0, 1.0)
    assert calls == []
    ratio, bound = pl.bernstein_szego_1d(3, 0.5, -1.0, 1.0)
    assert len(calls) > 0
    assert 0.0 <= bound - ratio < 1e-3


def test_interval_sharpness_guards():
    with pytest.raises(ValueError):
        pl.bernstein_szego_1d(3, 1.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        pl.bernstein_szego_1d(0, 0.5, 0.0, 1.0)


def test_transplant_ratio_reduces_to_interval_ratio():
    """A transplant along 2 x1 - 1 probed in the e1 direction reproduces the
    one-dimensional ratio on [0, 1] (whose convention keeps the factor n)."""
    for n, t in [(2, 0.2), (4, 0.3), (5, 0.62)]:
        p = pl.chebyshev_transplant(n, -1.0, [2.0, 0.0])
        r2d = pl.bernstein_ratio(p, np.array([t, 0.15]), E1, 1.0)
        r1d, _ = pl.bernstein_szego_1d(n, t, 0.0, 1.0)
        assert n * r2d == pytest.approx(r1d, rel=1e-11)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.1, max_value=0.8),
    st.floats(min_value=0.1, max_value=0.8),
    st.floats(min_value=0.0, max_value=math.pi),
)
def test_ratio_never_beats_ellipse_bound_property(deg, seed, u, v, phi):
    rng = np.random.default_rng(seed)
    p = pl.random_polynomial(deg, rng)
    x1 = 0.05 + 0.85 * u
    x2 = (1.0 - x1 - 0.04) * v + 0.02
    x = np.array([x1, x2])
    y = np.array([math.cos(phi), math.sin(phi)])
    cert = pl.sup_norm_simplex(p)
    px = pl.evaluate(p, x)
    if cert.value**2 - px * px <= 1e-12 * cert.value**2:
        return  # essentially constant polynomial, ratio undefined
    r = pl.bernstein_ratio(p, x, y, cert.value)
    assert r <= (1.0 + 1e-3) / float(sx.ellipse_constant_dir(x, y))
