"""Closed-form bound data on the standard simplex.

Two independent routes to the same directional derivative bound live here:
the inscribed-ellipse constant E and the pluripotential normal derivative
(whose product is identically 1), plus the chord-length and Minkowski
functional formulas feeding the older support-function bound.

Everything is vectorized: points have shape (..., d), directions broadcast
against them, and scalars come back for scalar input.
"""

from __future__ import annotations

import math

import numpy as np

_MARGIN = 1e-12


def _as_points(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] < 2:
        raise ValueError("points must have shape (..., d) with d >= 2")
    return x


def check_interior(x, margin: float = _MARGIN):
    """Validate that each point is strictly inside the open simplex."""
    x = _as_points(x)
    if not np.all(np.isfinite(x)):
        raise ValueError("point must be finite")
    s = np.sum(x, axis=-1)
    if np.any(np.min(x, axis=-1) <= margin) or np.any(1.0 - s <= margin):
        raise ValueError("point is not strictly interior to the simplex")
    return x


def _unit(y):
    y = np.asarray(y, dtype=float)
    n = np.linalg.norm(y, axis=-1, keepdims=True)
    if np.any(n == 0.0):
        raise ValueError("direction must be nonzero")
    return y / n


def ellipse_constant_dir(x, y):
    """Largest half-axis b of an inscribed ellipse through x with axis direction y.

    E(x, y) = (sum y_i^2/x_i + (sum y_i)^2/(1 - sum x_i))^(-1/2) with y taken
    as a unit vector; the raw expression is homogeneous of degree -1 in y.
    """
    x = check_interior(x)
    y = _unit(y)
    s = np.sum(y * y / x, axis=-1) + np.sum(y, axis=-1) ** 2 / (1.0 - np.sum(x, axis=-1))
    return 1.0 / np.sqrt(s)


def baran_derivative(x, y):
    """Normal subderivative of the simplex extremal function at x toward i*y.

    For the standard simplex this is exactly 1/ellipse_constant_dir(x, y);
    both sides are computed independently and tests pin the coincidence.
    """
    x = check_interior(x)
    y = _unit(y)
    s = np.sum(y * y / x, axis=-1) + np.sum(y, axis=-1) ** 2 / (1.0 - np.sum(x, axis=-1))
    return np.sqrt(s)


def ellipse_constant(x):
    """Directional minimum E(x) = inf over unit y, in closed form (d = 2 only)."""
    x = check_interior(x)
    if x.shape[-1] != 2:
        raise ValueError("the closed-form minimum is for the planar simplex")
    x1, x2 = x[..., 0], x[..., 1]
    x3 = 1.0 - x1 - x2
    a = x1 * (1.0 - x1)
    b = x2 * (1.0 - x2)
    D = np.sqrt((a - b) ** 2 + 4.0 * (x1 * x2) ** 2)
    return np.sqrt(2.0 * x1 * x2 * x3 / (a + b + D))


def alpha_simplex(x):
    """Minkowski functional of the planar simplex: 1 - 2 min(x1, x2, 1-x1-x2)."""
    x = check_interior(x)
    if x.shape[-1] != 2:
        raise ValueError("closed form is for the planar simplex")
    x1, x2 = x[..., 0], x[..., 1]
    return 1.0 - 2.0 * np.minimum(np.minimum(x1, x2), 1.0 - x1 - x2)


def tau_simplex(phi):
    """Maximal chord length of the planar simplex in direction (cos phi, sin phi).

    Piecewise in phi mod pi: 1/(cos+sin) on [0, pi/2], 1/sin on (pi/2, 3pi/4],
    -1/cos on (3pi/4, pi).
    """
    phi = np.mod(np.asarray(phi, dtype=float), math.pi)
    c, s = np.cos(phi), np.sin(phi)
    with np.errstate(divide="ignore", over="ignore"):
        out = np.where(
            phi <= math.pi / 2.0,
            1.0 / (c + s),
            np.where(phi <= 3.0 * math.pi / 4.0, 1.0 / s, -1.0 / c),
        )
    return out if out.ndim else float(out)


def kr_bound_dir(x, phi):
    """Chord-and-alpha derivative bound 2 / (tau(phi) * sqrt(1 - alpha(x)))."""
    a = alpha_simplex(x)
    return 2.0 / (tau_simplex(phi) * np.sqrt(1.0 - a))


def siciak_extremal(z):
    """Extremal (Green) function of the simplex at a point of C^d.

    V(z) = log h(sum |z_i| + |1 - sum z_i|) with h(w) = w + sqrt(w^2 - 1);
    the argument of h is always real and >= 1, and V vanishes on the simplex.
    """
    z = np.asarray(z)
    if z.ndim == 0 or z.shape[-1] < 2:
        raise ValueError("points must have shape (..., d) with d >= 2")
    if not np.all(np.isfinite(z)):
        raise ValueError("point must be finite")
    w = np.sum(np.abs(z), axis=-1) + np.abs(1.0 - np.sum(z, axis=-1))
    out = np.log(w + np.sqrt(np.clip(w * w - 1.0, 0.0, None)))
    return out if out.ndim else float(out)


def equilibrium_density(x):
    """Density 2*pi / sqrt(x1 x2 x3) of the simplex equilibrium measure."""
    x = check_interior(x)
    if x.shape[-1] != 2:
        raise ValueError("closed form is for the planar simplex")
    x1, x2 = x[..., 0], x[..., 1]
    return 2.0 * math.pi / np.sqrt(x1 * x2 * (1.0 - x1 - x2))
