"""Wrapped bases and products for the divisor complements.

Removing the line {y = 0} from the boundary divisor makes y invertible,
removing the conic {p = 0} (p = xz - y^2) makes p invertible, and removing
both inverts both: the cases L, C and D.  Each removal completes the bigon
into a half-plane or a plane, and the basis of degree-zero morphisms grows
accordingly.  Which of y and p is inverted is the one fact a `Complement`
carries, as the flags `inverts_y` and `inverts_p`, and every case rule is
read from them.

A wrapped generator of degree d is an `affine.FractionalPoint` (a, i, d):
the Laurent monomial x^{-a} p^i y^{d+a-2i} (a <= 0) or z^a p^i y^{d-a-2i}
(a > 0).  The column index a is unbounded.  The depth i is the exponent of
p, so i >= 0 unless p is inverted, and d - |a| - 2i is the exponent of y,
so 2i <= d - |a| unless y is inverted.  The product follows the same
binomial rule as the compact case, with k from `floer.wall_count`.

The wrap step is [y] + 2[p] (1, 2, 3 for L, C, D), writing [y] and [p] for
the flags as 0 or 1.  The distinguished wrapped generator e_r, for r a
positive multiple of the step, is (y^[y] p^[p])^{r/step}, the point
(0, [p]*r/step, r); the tests build it (`e_element`), no command does.  The
continuation map from degree d to degree d + r is the product with it: one
term with coefficient 1, whose chart point (a/d, -i/d) is the image of q's
under the dilation by d/(d+r) centered at (0, -[p]/step).

The oracle `laurent_product_in_qbasis` clears each factor's negative powers
of y and p, each by its own power and only where the case inverts it,
multiplies the numerators in the polynomial ring and divides the powers
back out.  The numerators' product is `polyring.q_product`, memoized by the
pair of numerator indices, so a product the sweeps meet again is one lookup.

A generator is checked against its case where it is used (`wrapped_product`),
not when it is built.  The infinite bases are only ever materialized through
caller-supplied windows; comparisons in the verification sweeps act on full
products, so no term is dropped at a window's edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Tuple

from .affine import CP2, FractionalPoint
from .floer import wall_count
from .polyring import q_product


class Complement(Enum):
    """Which divisor component is removed, as which of y and p it inverts."""

    L = (True, False)
    C = (False, True)
    D = (True, True)

    def __init__(self, inverts_y: bool, inverts_p: bool):
        self.inverts_y = inverts_y
        self.inverts_p = inverts_p


def _depth_ok(case: Complement, a: int, i: int, d: int) -> bool:
    """Are the exponents of p (i) and of y (d - |a| - 2i) nonnegative
    wherever the case leaves that element uninverted?"""
    return (case.inverts_p or i >= 0) and (case.inverts_y or 2 * i <= d - abs(a))


def _check_point(case: Complement, point: FractionalPoint) -> None:
    """Reject a generator of negative degree or outside the case's depth rule."""
    if point.d < 0:
        raise ValueError("degree must be nonnegative")
    if not _depth_ok(case, point.a, point.i, point.d):
        raise ValueError(
            f"depth i={point.i} violates the case-{case.name} rule "
            f"for (a={point.a}, d={point.d})"
        )


@dataclass(frozen=True)
class LaurentElement:
    """Monomial x^{|a|} or z^{a} times p^p_exp y^y_exp, graded by degree.

    Homogeneity pins the degree: |a| + 2*p_exp + y_exp = degree.  Only the
    exponents of inverted elements may go negative.
    """

    a: int
    p_exp: int
    y_exp: int

    @property
    def degree(self) -> int:
        return abs(self.a) + 2 * self.p_exp + self.y_exp


def rational_function(point: FractionalPoint) -> LaurentElement:
    """The Laurent monomial mirror to a wrapped generator."""
    return LaurentElement(point.a, point.i, point.d - abs(point.a) - 2 * point.i)


def wrapped_basis(
    case: Complement, d: int, a_max: int, i_max: int
) -> list[FractionalPoint]:
    """Window of the (infinite) degree-d basis: |a| <= a_max, |i| <= i_max,
    intersected with the case's depth rule."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if a_max < 0 or i_max < 0:
        raise ValueError("window bounds must be nonnegative")
    return [
        FractionalPoint(a, i, d)
        for a in range(-a_max, a_max + 1)
        for i in range(-i_max, i_max + 1)
        if _depth_ok(case, a, i, d)
    ]


WrappedSum = Dict[Tuple[int, int], int]  # (a, i) -> coefficient, fixed degree


def wrapped_product(
    case: Complement, q2: FractionalPoint, q1: FractionalPoint
) -> WrappedSum:
    """Binomial product of wrapped generators; output degree q1.d + q2.d.
    k is `floer.wall_count` summed over cp2's singularities, as in `mu2`."""
    _check_point(case, q1)
    _check_point(case, q2)
    k = sum(wall_count(wall, q1.a, q2.a, q1.d, q2.d) for wall in CP2.singularities)
    out: WrappedSum = {}
    d_out = q1.d + q2.d
    for s in range(k + 1):
        a, i = q1.a + q2.a, q1.i + q2.i + s
        if not _depth_ok(case, a, i, d_out):
            raise ArithmeticError(
                f"output ({a},{i}) at degree {d_out} violates the case rule"
            )
        out[(a, i)] = math.comb(k, s)
    return out


def _clearing(case: Complement, elt: LaurentElement) -> tuple[int, int]:
    """Powers (ry, rp) of y and p that make y^ry p^rp * elt a polynomial,
    using only the elements the case inverts; a numerator of degree 0 is
    the unit index (0, 0, 0)."""
    return max(0, -elt.y_exp) * case.inverts_y, max(0, -elt.p_exp) * case.inverts_p


def laurent_product_in_qbasis(
    case: Complement, l1: LaurentElement, l2: LaurentElement
) -> WrappedSum:
    """Independent oracle: multiply in the localized ring and re-expand.

    Denominators are cleared by `_clearing`.  The numerators are multiplied
    as honest polynomials and expanded over the distinguished polynomial
    basis (`q_product`), and the clearing powers are divided back out: a
    power of p as a depth shift, a power of y as a degree shift that leaves
    the (a, i) labels alone.
    """
    numerators, total_rp = [], 0
    for elt in (l1, l2):
        ry, rp = _clearing(case, elt)
        total_rp += rp
        numerators.append((elt.a, elt.p_exp + rp, elt.degree + 2 * rp + ry))
    expansion = q_product(*numerators)
    return {(a, i - total_rp): c for (a, i, _), c in expansion.items()}

