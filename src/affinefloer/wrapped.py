"""Wrapped bases, products and continuation maps for the divisor complements.

Removing one or both components of the boundary divisor completes the bigon
into a half-plane or a plane, and the basis of degree-zero morphisms grows
accordingly.  The three cases are named after the removed component:

* case L (line removed): depth index i >= 0 but unbounded above, wrap step 1;
  a generator corresponds to a rational function with y inverted.
* case C (conic removed): i <= floor((d-|a|)/2) but unbounded below, wrap
  step 2; the function has p = xz - y^2 inverted.
* case D (both removed): i ranges over all of Z, wrap step 3; both y and p
  are inverted.

In every case the column index a is unbounded, the product follows the same
binomial rule as the compact case, and the mirror element of q_{a,i} at
degree d is the Laurent monomial x^{-a} p^i y^{d+a-2i} (a <= 0) or
z^a p^i y^{d-a-2i} (a > 0).  The distinguished wrapped generator e_r is
y^r, p^{r/2}, (yp)^{r/3} respectively, and composing with it realizes the
continuation maps as dilations of the completed base centered at (0, 0),
(0, -1/2), (0, -1/3).

The oracle `laurent_product_in_qbasis` clears each factor's denominator with
powers of the inverted elements (y and p each by its own power in case D),
multiplies the numerators in the polynomial ring and divides the powers back
out.

The infinite bases are only ever materialized through caller-supplied
windows; comparisons in the verification sweeps act on full products, so no
term is dropped at a window's edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, Tuple

from .floer import k_value_cp2
from .polyring import expand_in_qbasis, multiply, q_monomial


class Complement(Enum):
    """Which divisor component is removed; the value is the wrap step."""

    L = 1
    C = 2
    D = 3

    @property
    def wrap_step(self) -> int:
        return self.value


@dataclass(frozen=True)
class ExtendedPoint:
    """A wrapped generator: column a, depth i, degree d, in a given case.

    Depth obeys the case rule: i >= 0 (L), i <= floor((d-|a|)/2) (C),
    i in Z (D).  Degree 0 with (a, i) = (0, 0) is the unit.
    """

    a: int
    i: int
    d: int
    case: Complement

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("degree must be nonnegative")
        if not _depth_ok(self.case, self.a, self.i, self.d):
            raise ValueError(
                f"depth i={self.i} violates the case-{self.case.name} rule "
                f"for (a={self.a}, d={self.d})"
            )


def _depth_ok(case: Complement, a: int, i: int, d: int) -> bool:
    if case is Complement.L:
        return i >= 0
    if case is Complement.C:
        return 2 * i <= d - abs(a)
    return True


@dataclass(frozen=True)
class LaurentElement:
    """Monomial x^{|a|} or z^{a} times p^p_exp y^y_exp, graded by degree.

    Homogeneity pins the degree: |a| + 2*p_exp + y_exp = degree.  Which
    exponents may go negative depends on the case (p_exp >= 0 in L,
    y_exp >= 0 in C).
    """

    a: int
    p_exp: int
    y_exp: int

    @property
    def degree(self) -> int:
        return abs(self.a) + 2 * self.p_exp + self.y_exp


def rational_function(point: ExtendedPoint) -> LaurentElement:
    """The Laurent monomial mirror to a wrapped generator."""
    return LaurentElement(point.a, point.i, point.d - abs(point.a) - 2 * point.i)


def wrapped_basis(
    case: Complement, d: int, a_max: int, i_max: int
) -> list[ExtendedPoint]:
    """Window of the (infinite) degree-d basis: |a| <= a_max, |i| <= i_max,
    intersected with the case's depth rule."""
    if a_max < 0 or i_max < 0:
        raise ValueError("window bounds must be nonnegative")
    return [
        ExtendedPoint(a, i, d, case)
        for a in range(-a_max, a_max + 1)
        for i in range(-i_max, i_max + 1)
        if _depth_ok(case, a, i, d)
    ]


WrappedSum = Dict[Tuple[int, int], int]  # (a, i) -> coefficient, fixed degree


def wrapped_product(case: Complement, q2: ExtendedPoint, q1: ExtendedPoint) -> WrappedSum:
    """Binomial product of wrapped generators; output degree q1.d + q2.d."""
    if q1.case is not case or q2.case is not case:
        raise ValueError("generators belong to a different complement case")
    k = k_value_cp2(q1.a, q2.a)
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
    """Powers (ry, rp) of y and p that make y^ry p^rp * elt a polynomial of
    positive degree, using only the elements the case inverts."""
    ry = max(0, -elt.y_exp) if case is not Complement.C else 0
    rp = max(0, -elt.p_exp) if case is not Complement.L else 0
    # Numerators must have positive degree; clear one more invertible
    # factor if a unit slips through.
    if elt.degree + 2 * rp + ry == 0:
        if case is Complement.C:
            rp += 1
        else:
            ry += 1
    return ry, rp


def laurent_product_in_qbasis(
    case: Complement, l1: LaurentElement, l2: LaurentElement
) -> WrappedSum:
    """Independent oracle: multiply in the localized ring and re-expand.

    Denominators are cleared with the case's inverted elements: y in case L,
    p in case C, and in case D y and p each by its own power.  The
    numerators are multiplied as honest polynomials and expanded over the
    distinguished polynomial basis, and the clearing powers are divided back
    out: a power of p as a depth shift, a power of y as a degree shift that
    leaves the (a, i) labels alone.
    """
    factors, total_rp = [], 0
    for elt in (l1, l2):
        ry, rp = _clearing(case, elt)
        total_rp += rp
        d_num = elt.degree + 2 * rp + ry
        factors.append(q_monomial((elt.a, elt.p_exp + rp, d_num)))
    expansion = expand_in_qbasis(multiply(factors[0], factors[1]))
    return {(a, i - total_rp): c for (a, i, _), c in expansion.items()}


def e_element(case: Complement, r: int) -> ExtendedPoint:
    """The distinguished wrapped generator at wrapping level r.

    Mirrors y^r (L), p^{r/2} (C), (yp)^{r/3} (D); r must be a positive
    multiple of the case's wrap step.
    """
    if r <= 0 or r % case.wrap_step != 0:
        raise ValueError(f"r must be a positive multiple of {case.wrap_step}")
    return ExtendedPoint(0, _depth_shift(case, r), r, case)


def _depth_shift(case: Complement, r: int) -> int:
    if case is Complement.L:
        return 0
    if case is Complement.C:
        return r // 2
    return r // 3


@dataclass(frozen=True)
class ContinuationMap:
    """Index map induced by composing with e_r, from denominator d2 - d1 to
    denominator d2 - d1 + r.

    Geometrically this is the inverse of the dilation by
    (d2-d1)/(d2-d1+r) of the completed base centered at the case's fixed
    point: (0, 0) for L, (0, -1/2) for C, (0, -1/3) for D.
    """

    case: Complement
    d1: int
    d2: int
    r: int

    def __post_init__(self):
        if self.d2 - self.d1 <= 0:
            raise ValueError("continuation requires d2 > d1")
        if self.r <= 0 or self.r % self.case.wrap_step != 0:
            raise ValueError(
                f"r must be a positive multiple of {self.case.wrap_step}"
            )

    @property
    def center(self) -> tuple[Fraction, Fraction]:
        return {
            Complement.L: (Fraction(0), Fraction(0)),
            Complement.C: (Fraction(0), Fraction(-1, 2)),
            Complement.D: (Fraction(0), Fraction(-1, 3)),
        }[self.case]

    def apply(self, point: ExtendedPoint) -> ExtendedPoint:
        if point.case is not self.case:
            raise ValueError("point belongs to a different complement case")
        n = self.d2 - self.d1
        if point.d != n:
            raise ValueError(f"point has denominator {point.d}, expected {n}")
        return ExtendedPoint(
            point.a, point.i + _depth_shift(self.case, self.r), n + self.r, self.case
        )


def embed(point: ExtendedPoint) -> tuple[Fraction, Fraction]:
    """Chart coordinates (a/d, -i/d) of a wrapped generator (d > 0)."""
    if point.d == 0:
        raise ValueError("the unit point has no embedding")
    return (Fraction(point.a, point.d), Fraction(-point.i, point.d))
