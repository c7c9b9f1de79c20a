"""Exact bases and triangle products on singular integral affine polygons,
cross-verified through a polynomial ring, free-group word counts, tropical
geometry, and floating-point coordinate integrals."""

from .affine import (
    AffinePolygon,
    BoundaryPolyline,
    FractionalPoint,
    RationalPoint,
    Singularity,
    count_points,
    cp2_model,
    dp6_model,
    embed,
    fractional_points,
    validate,
)
from .floer import (
    CriticalCover,
    FormalSum,
    basis_vector,
    critical_cover,
    index_range,
    k_value_cp2,
    mu2,
    ring_product,
    unit,
)
from .polyring import (
    HomogeneousPolynomial,
    QBasisIndex,
    expand_in_qbasis,
    multiply,
    q_monomial,
)
from .homotopy import (
    FreeWord,
    brute_force_admissible,
    enumerate_admissible,
    free_reduce,
    homotopy_count,
    triangle_word,
)
from .tropical import (
    DiskAttachment,
    TropicalLeg,
    TropicalTriangle,
    build_triangle,
    check_balancing,
    partition_constant,
    singularity_position_invariance,
    tropical_structure_constant,
)
from .wrapped import (
    Complement,
    ContinuationMap,
    ExtendedPoint,
    LaurentElement,
    e_element,
    rational_function,
    wrapped_basis,
    wrapped_product,
)
from .numchecks import (
    FiberParams,
    SyzCoordinates,
    critical_points,
    hessian_identity,
    log_integral,
    syz_coordinates,
)

__version__ = "0.1.0"
