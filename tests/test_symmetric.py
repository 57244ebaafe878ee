"""Centrally symmetric polygons: a second ground truth for alpha and E off the simplex.

For K symmetric about 0, alpha(K, x) is the Minkowski norm ||x||_K = max_e
<n_e, x> / c_e, read off the edge lines rather than the vertex chords.  The
ellipse t -> cos t x + sin t sqrt(1 - ||x||_K^2) y / ||y||_K lies in K by the
triangle inequality and Cauchy-Schwarz (Sarantopoulos 1991), so E(K, x, y) >=
sqrt(1 - ||x||_K^2) / ||y||_K for unit y, and E(K, x) >= sqrt(1 - ||x||_K^2)
min_e c_e, min_e c_e being the inradius about 0.  Both bounds are often tight,
so they catch a solver that comes out too small.  On any polygon, the chord
geometry bounds E from below: E(K, x, y) >= tau(K, y) sqrt(1 - alpha) / 2.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from bernstein_bounds import ellipse as el
from bernstein_bounds import geometry as geo

_seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _hull(pts):
    """The convex hull of pts, counter-clockwise, if it is well conditioned
    (area >= 1e-2 diam^2), else None."""
    K = geo.ConvexPolygon(pts[ConvexHull(pts).vertices])
    return K if K.area >= 1e-2 * K.diameter**2 else None


def _symmetric(rng):
    """The hull of +-m random points, m = 2..6, and a point x with 0.05 <= ||x||_K <= 0.95."""
    while True:
        pts = rng.uniform(-1.0, 1.0, size=(rng.integers(2, 7), 2))
        K = _hull(np.vstack([pts, -pts]))
        if K is not None:
            break
    u = _unit(rng.uniform(0.0, 2.0 * math.pi))
    return K, rng.uniform(0.05, 0.95) * u / _gauge(K, u)


def _gauge(K, x) -> float:
    n, c = K.edge_normals()
    return float(np.max(n @ x / c))


def _unit(phi) -> np.ndarray:
    return np.array([math.cos(phi), math.sin(phi)])


@settings(max_examples=60, deadline=None)
@given(_seeds)
def test_alpha_is_the_norm_of_a_symmetric_body(seed):
    K, x = _symmetric(np.random.default_rng(seed))
    assert abs(geo.alpha(K, x) - _gauge(K, x)) <= 1e-12


def _sarantopoulos(K, x, y):
    """(E(K, x, y), its lower bound, E(K, x), its lower bound)."""
    room = math.sqrt(1.0 - _gauge(K, x) ** 2)
    _, c = K.edge_normals()
    return (el.best_ellipse(K, x, y).best_b, room / _gauge(K, y),
            el.best_ellipse_all_dirs(K, x), room * float(np.min(c)))


@settings(max_examples=60, deadline=None)
@given(_seeds)
def test_ellipses_of_a_symmetric_body_reach_sarantopoulos_bounds(seed):
    rng = np.random.default_rng(seed)
    K, x = _symmetric(rng)
    E, low, E_all, low_all = _sarantopoulos(K, x, _unit(rng.uniform(0.0, math.pi)))
    assert E >= low * (1.0 - 1e-12)
    assert E_all >= low_all * (1.0 - 1e-12)


def test_sarantopoulos_bounds_are_often_attained():
    """Equality to 1e-12 in at least a quarter of 200 seeded cases, for each bound:
    a solver even 1e-9 too small fails here and in the bound test above."""
    rng = np.random.default_rng(2024)
    ratios = []
    for _ in range(200):
        K, x = _symmetric(rng)
        E, low, E_all, low_all = _sarantopoulos(K, x, _unit(rng.uniform(0.0, math.pi)))
        ratios.append((E / low, E_all / low_all))
    tight = np.mean(np.abs(np.array(ratios) - 1.0) <= 1e-12, axis=0)
    assert np.all(tight >= 0.25), tight


def _random_polygon(rng):
    """A well-conditioned hull of 3..8 points on a sheared ellipse, and a point
    x of it with slack >= 1e-4 diam."""
    while True:
        m = rng.integers(3, 9)
        A = np.array([[1.0, rng.uniform(-1.0, 1.0)], [0.0, rng.uniform(0.3, 2.0)]])
        K = _hull(np.array([_unit(t) for t in rng.uniform(0.0, 2.0 * math.pi, m)]) @ A.T)
        if K is None:
            continue
        x = rng.dirichlet(np.ones(len(K.vertices))) @ K.vertices
        if geo.interior_slack(K, x) >= 1e-4 * K.diameter:
            return K, x


@settings(max_examples=60, deadline=None)
@given(_seeds)
def test_chord_geometry_bounds_the_ellipses_from_below(seed):
    """Domination E(K, x, y) >= tau(K, y) sqrt(1 - alpha) / 2, and the constant
    r1 = w sqrt(1 - alpha) / (2 E(K, x)) at most 1."""
    rng = np.random.default_rng(seed)
    K, x = _random_polygon(rng)
    y = _unit(rng.uniform(0.0, math.pi))
    room = math.sqrt(1.0 - geo.alpha(K, x))
    assert el.best_ellipse(K, x, y).best_b >= geo.maximal_chord(K, y) * room / 2.0 - 1e-12
    assert geo.min_width(K) * room / (2.0 * el.best_ellipse_all_dirs(K, x)) <= 1.0 + 1e-12
