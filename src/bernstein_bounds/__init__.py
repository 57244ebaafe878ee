"""Bernstein-type derivative bounds for multivariate polynomials on convex bodies.

Two independent bound computations (inscribed ellipses and the pluripotential
extremal function), the convex geometry feeding them, kernel-set geometry of
the bound families, and a randomized polynomial verification harness.
"""

from .geometry import (
    ConvexPolygon,
    PolygonFormatError,
    alpha,
    gamma,
    load_polygon,
    maximal_chord,
    min_width,
    parse_polygon_text,
    unit_triangle,
)
from .simplex import (
    alpha_simplex,
    baran_derivative,
    ellipse_constant,
    ellipse_constant_dir,
    kr_bound_dir,
    siciak_extremal,
    tau_simplex,
)
from .ellipse import (
    EllipseSolveReport,
    InscribedEllipse,
    best_ellipse,
    best_ellipse_all_dirs,
    containment_violation,
)
from .kernels import (
    DirectionalBoundTable,
    KernelEllipse,
    KernelRegion,
    cloud_area,
    kernel_area_closed,
    kernel_ellipse_closed_form,
    kernel_intersect,
)
from .polynomials import (
    GradientSample,
    SupNormCertificate,
    TotalDegreePolynomial,
    bernstein_ratio,
    bernstein_szego_1d,
    chebyshev_transplant,
    empirical_gradient_cloud,
    random_polynomial,
    sup_norm_simplex,
    verify_upper_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
