import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernstein_bounds import simplex as sx

M = np.array([1 / 3, 1 / 3])


def bary(u, v):
    """Map the unit square minus a sliver onto interior simplex points."""
    x1 = 0.02 + 0.96 * u * (1.0 - 0.04) / 1.0
    x2 = (1.0 - x1 - 0.02) * v + 0.01
    return np.array([x1, min(x2, 1.0 - x1 - 0.01)])


def test_check_interior_accepts_and_rejects():
    sx.check_interior(M)
    for bad in ([0.0, 0.5], [0.5, 0.5], [0.7, 0.4], [-0.1, 0.3]):
        with pytest.raises(ValueError):
            sx.check_interior(np.array(bad))


def test_check_interior_margin():
    x = np.array([0.005, 0.5])
    sx.check_interior(x)
    with pytest.raises(ValueError):
        sx.check_interior(x, margin=0.01)


@pytest.mark.parametrize(
    "x,y,expected",
    [
        ((1 / 3, 1 / 3), (1.0, 1.0), 1 / 3),
        ((0.5, 0.1), (1.0, 0.0), 1.0 / math.sqrt(4.5)),
        ((0.1, 0.1), (1.0, -1.0), 1.0 / math.sqrt(10.0)),
    ],
)
def test_ellipse_constant_dir_values(x, y, expected):
    got = sx.ellipse_constant_dir(np.array(x), np.array(y))
    assert got == pytest.approx(expected, rel=1e-14)


def test_ellipse_constant_dir_scale_free_in_y():
    x = np.array([0.2, 0.3])
    y = np.array([0.3, -1.2])
    assert sx.ellipse_constant_dir(x, y) == pytest.approx(
        sx.ellipse_constant_dir(x, 10.0 * y), rel=1e-15
    )


def test_directional_product_is_one_on_a_grid():
    """The two bound routes are exact reciprocals everywhere."""
    t = np.linspace(0.04, 0.92, 30)
    pts = np.array([[a, b] for a in t for b in t if a + b < 0.97])
    phis = np.linspace(0.0, math.pi, 32, endpoint=False)
    y = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    E = sx.ellipse_constant_dir(pts[:, None, :], y[None, :, :])
    B = sx.baran_derivative(pts[:, None, :], y[None, :, :])
    assert np.max(np.abs(E * B - 1.0)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=math.pi),
)
def test_directional_product_property(u, v, phi):
    x = bary(u, v)
    y = np.array([math.cos(phi), math.sin(phi)])
    E = sx.ellipse_constant_dir(x, y)
    B = sx.baran_derivative(x, y)
    assert E * B == pytest.approx(1.0, abs=1e-11)


def test_ellipse_constant_closed_form_matches_direction_sweep():
    phis = np.linspace(0.0, math.pi, 4096, endpoint=False)
    y = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    for x in ([1 / 3, 1 / 3], [0.1, 0.1], [0.5, 0.2], [0.05, 0.7]):
        x = np.array(x)
        swept = float(np.min(sx.ellipse_constant_dir(x, y)))
        closed = float(sx.ellipse_constant(x))
        assert closed == pytest.approx(swept, rel=1e-6)
        assert closed <= swept + 1e-12  # the closed form is the true infimum


def test_ellipse_constant_frozen_values():
    assert sx.ellipse_constant(M) == pytest.approx(1 / 3, rel=1e-14)
    # 2*sqrt(2)/10 by direct substitution; the numeric direction sweep below
    # confirms the same value, so the occasionally quoted 0.23570 is wrong
    assert sx.ellipse_constant(np.array([0.1, 0.1])) == pytest.approx(
        0.28284271247461906, rel=1e-12
    )


@pytest.mark.parametrize(
    "x,expected",
    [((1 / 3, 1 / 3), 1 / 3), ((0.25, 0.25), 0.5), ((0.1, 0.2), 0.8), ((0.45, 0.45), 0.8)],
)
def test_alpha_simplex(x, expected):
    assert sx.alpha_simplex(np.array(x)) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize(
    "phi,expected",
    [
        (0.0, 1.0),
        (math.pi / 4, 1.0 / math.sqrt(2.0)),
        (math.pi / 2, 1.0),
        (5 * math.pi / 8, 1.0 / math.sin(5 * math.pi / 8)),
        (3 * math.pi / 4, math.sqrt(2.0)),
        (0.9 * math.pi, -1.0 / math.cos(0.9 * math.pi)),
    ],
)
def test_tau_branches(phi, expected):
    assert sx.tau_simplex(phi) == pytest.approx(expected, rel=1e-14)
    # the chord family repeats with period pi
    assert sx.tau_simplex(phi + math.pi) == pytest.approx(expected, rel=1e-12)


def test_tau_vectorized():
    phis = np.linspace(0.0, math.pi, 50, endpoint=False)
    out = sx.tau_simplex(phis)
    assert out.shape == (50,)
    assert np.all(out > 0.0)
    assert np.min(out) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-3)


def test_kr_dominates_inverse_ellipse_constant():
    t = np.linspace(0.05, 0.9, 18)
    pts = np.array([[a, b] for a in t for b in t if a + b < 0.95])
    phis = np.linspace(0.0, math.pi, 24, endpoint=False)
    kr = sx.kr_bound_dir(pts[:, None, :], phis[None, :])
    inv_E = sx.baran_derivative(
        pts[:, None, :], np.stack([np.cos(phis), np.sin(phis)], axis=1)[None, :, :]
    )
    assert np.all(kr >= inv_E * (1.0 - 1e-12))


def test_siciak_vanishes_on_the_simplex():
    for x in ([0.2, 0.3], [1 / 3, 1 / 3], [0.0, 0.0], [1.0, 0.0], [0.5, 0.5]):
        assert sx.siciak_extremal(np.array(x)) == pytest.approx(0.0, abs=1e-15)


def test_siciak_frozen_values():
    assert sx.siciak_extremal(np.array([0.5, 1.5])) == pytest.approx(
        1.7627471740390861, rel=1e-14
    )
    assert sx.siciak_extremal(np.array([1j, 0.0])) == pytest.approx(
        1.5285709194809982, rel=1e-14
    )


def test_siciak_vectorized_and_monotone_on_rays():
    ts = np.linspace(1.0, 5.0, 9)
    pts = np.stack([0.5 * ts, 1.5 * ts], axis=-1)
    vals = sx.siciak_extremal(pts)
    assert vals.shape == (9,)
    assert np.all(np.diff(vals) > 0.0)


def test_siciak_keeps_its_digits_near_the_simplex():
    """V(x + i t y) / t -> D(x, y) as t -> 0+, down to t far below sqrt(tiny)."""
    x = np.array([0.2, 0.1, 0.3])
    y = np.array([0.6, -0.8, 0.5])
    D = float(sx.baran_derivative(x, y))
    for t in (1e-8, 1e-100, 1e-200):
        V = sx.siciak_extremal(x + 1j * t * y / np.linalg.norm(y))
        assert V / t == pytest.approx(D, rel=1e-12)


def test_siciak_far_from_the_simplex():
    assert sx.siciak_extremal(np.array([1e200, 0.0])) == pytest.approx(
        math.log(4e200), rel=1e-15
    )
    assert sx.siciak_extremal(np.array([1e150j, 0.0])) == pytest.approx(
        math.log(4e150), rel=1e-15
    )
    for z in ([1e308, 0.0], [1e308j, 0.0], [1e308, 1e308]):
        with pytest.raises(ValueError):
            sx.siciak_extremal(np.array(z))


def test_equilibrium_density_centroid():
    assert sx.equilibrium_density(M) == pytest.approx(32.648388556215924, rel=1e-14)


def test_equilibrium_density_blows_up_near_edges():
    near = sx.equilibrium_density(np.array([1e-6, 0.5]))
    assert near > 1e3


def test_d2_only_guards():
    x3 = np.array([0.2, 0.2, 0.2])
    with pytest.raises(ValueError):
        sx.alpha_simplex(x3)
    with pytest.raises(ValueError):
        sx.ellipse_constant(x3)
    with pytest.raises(ValueError):
        sx.equilibrium_density(x3)
    # while the directional forms are dimension-generic
    y3 = np.array([1.0, -1.0, 0.5])
    prod = sx.ellipse_constant_dir(x3, y3) * sx.baran_derivative(x3, y3)
    assert prod == pytest.approx(1.0, abs=1e-13)


def test_zero_direction_rejected():
    with pytest.raises(ValueError):
        sx.ellipse_constant_dir(M, np.zeros(2))
