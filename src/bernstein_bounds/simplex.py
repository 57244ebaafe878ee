"""Closed-form bound data on the standard simplex.

The inscribed-ellipse constant E and the pluripotential normal derivative D
are one closed form (E D = 1); the extremal function V gives D a second,
independent route.  The chord-length and Minkowski functional formulas
feeding the older support-function bound live here too.

Everything is vectorized: points have shape (..., d), directions broadcast
against them, and scalars come back for scalar input.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import unit_direction

_MARGIN = 1e-12


def _as_points(x, dtype=float):
    x = np.asarray(x, dtype=dtype)
    if x.ndim == 0 or x.shape[-1] < 2:
        raise ValueError("points must have shape (..., d) with d >= 2")
    return x


def check_interior(x, margin: float = _MARGIN):
    """Validate that each point is strictly inside the open simplex."""
    x = _as_points(x)
    if not np.all(np.isfinite(x)):
        raise ValueError("point must be finite")
    with np.errstate(over="ignore"):  # a sum that overflows to inf fails the check below
        s = np.sum(x, axis=-1)
    if np.any(np.min(x, axis=-1) <= margin) or np.any(1.0 - s <= margin):
        raise ValueError("point is not strictly interior to the simplex")
    return x


def ellipse_constant_dir(x, y):
    """Largest half-axis b of an inscribed ellipse through x with axis direction y.

    E(x, y) = 1/baran_derivative(x, y): the sharpest inscribed ellipse and the
    extremal function give the same bound, from one closed form.
    """
    return 1.0 / baran_derivative(x, y)


def baran_derivative(x, y):
    """Normal subderivative D_y+ V(x) of the simplex extremal function toward i*y.

    D = (sum y_i^2/x_i + (sum y_i)^2/(1 - sum x_i))^(1/2) with y taken as a
    unit vector; the tests pin it by the independent route V(x + i t y)/t.
    """
    x = check_interior(x)
    y = unit_direction(y)
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

    The polar of the triangle's difference body has the vertices +-(1, 0),
    +-(0, 1) and +-(1, 1) (the n_e / w_e of geometry.maximal_chord), so
    tau = 1 / max(|cos phi|, |sin phi|, |cos phi + sin phi|).
    """
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise ValueError("angle must be finite")
    c, s = np.cos(phi), np.sin(phi)
    out = 1.0 / np.maximum(np.maximum(np.abs(c), np.abs(s)), np.abs(c + s))
    return out if out.ndim else float(out)


def kr_bound_dir(x, phi):
    """Chord-and-alpha derivative bound 2 / (tau(phi) * sqrt(1 - alpha(x)))."""
    a = alpha_simplex(x)
    return 2.0 / (tau_simplex(phi) * np.sqrt(1.0 - a))


def siciak_extremal(z):
    """Extremal (Green) function of the simplex at a point of C^d.

    V(z) = arccosh(w), w = sum |zeta| over zeta = z_1, ..., z_d, 1 - sum z.
    As sum Re zeta = 1, w - 1 = sum |zeta| - Re zeta, each term Im^2/(|zeta| +
    Re zeta) if Re zeta > 0; r = sqrt(w - 1) is summed by hypot and V =
    log1p(r (r + sqrt(r^2 + 2))), so V keeps its digits near K; a point that
    is not finite, or whose w overflows, is a ValueError.
    """
    z = _as_points(z, dtype=complex)
    with np.errstate(all="ignore"):
        zeta = np.concatenate([z, 1.0 - np.sum(z, axis=-1, keepdims=True)], axis=-1)
        re, mod = zeta.real, np.abs(zeta)
        root = np.where(re > 0.0, abs(zeta.imag) / np.sqrt(mod + re), np.sqrt(mod - re))
        r = np.hypot.reduce(root, axis=-1)
        out = np.log1p(r * (r + np.sqrt(r * r + 2.0)))
    if not np.all(np.isfinite(out)):
        raise ValueError("point must be finite and small enough that V does not overflow")
    return out if out.ndim else float(out)


def equilibrium_density(x):
    """Density 2*pi / sqrt(x1 x2 x3) of the simplex equilibrium measure."""
    x = check_interior(x)
    if x.shape[-1] != 2:
        raise ValueError("closed form is for the planar simplex")
    x1, x2 = x[..., 0], x[..., 1]
    return 2.0 * math.pi / np.sqrt(x1 * x2 * (1.0 - x1 - x2))
