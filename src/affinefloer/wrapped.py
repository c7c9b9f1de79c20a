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
binomial rule as the compact case, with k from `floer.wall_count` and the
row C(k, 0..k) from floer's table of rows, the one `mu2` reads.  Its output
depths run from i0 = q1.i + q2.i to i0 + k, and both parts of the case rule
are monotone in the depth, so the rule is checked at the row's two ends
only: i >= 0 at i0 and 2i <= d - |a| at i0 + k.

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
unordered pair of numerator indices, so a product the sweeps meet again, in
either order, is one lookup.

A generator is checked against its case where it is used (`wrapped_product`),
not when it is built; one with an entry that is not an exact int is refused
there first, by `affine.check_ints`, as `mu2` refuses its indices.  The
infinite bases are only ever materialized through caller-supplied windows;
comparisons in the verification sweeps act on full products, so no term is
dropped at a window's edge.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, NamedTuple, Tuple

from . import floer
from .affine import CP2, FractionalPoint, check_ints
from .floer import wall_count
from .polyring import q_product

_new = tuple.__new__  # _new(LaurentElement, (a, p_exp, y_exp)): a record without its frame


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


def _check_point(case: Complement, a: int, i: int, d: int) -> None:
    """Reject a generator (a, i, d) of negative degree or outside the case's
    depth rule."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if not _depth_ok(case, a, i, d):
        raise ValueError(f"depth i={i} violates the case-{case.name} rule for (a={a}, d={d})")


class LaurentElement(NamedTuple):
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
    a, i, d = point
    return _new(LaurentElement, (a, i, d - abs(a) - 2 * i))


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
        _new(FractionalPoint, (a, i, d))
        for a in range(-a_max, a_max + 1)
        for i in range(-i_max, i_max + 1)
        if _depth_ok(case, a, i, d)
    ]


WrappedSum = Dict[Tuple[int, int], int]  # (a, i) -> coefficient, fixed degree


def wrapped_product(
    case: Complement, q2: FractionalPoint, q1: FractionalPoint
) -> WrappedSum:
    """Binomial product of wrapped generators; output degree q1.d + q2.d.

    A generator with an entry that is not an exact int is refused first,
    q1 before q2.  k is `wall_count` summed over cp2's singularities, as in
    `mu2`, and the row C(k, 0..k) is read from floer's table.  The case rule
    is checked at the row's two ends, the p rule at the depth i0 = q1.i + q2.i
    and the y rule at i0 + k, and a failure names the first term outside it."""
    a1, i1, d1 = q1
    a2, i2, d2 = q2
    if not type(a1) is type(i1) is type(d1) is type(a2) is type(i2) is type(d2) is int:
        check_ints("wrapped generator", q1)
        check_ints("wrapped generator", q2)
    _check_point(case, a1, i1, d1)
    _check_point(case, a2, i2, d2)
    k = 0
    for wall in CP2.singularities:
        k += wall_count(wall, a1, a2, d1, d2)
    a, i, d_out = a1 + a2, i1 + i2, d1 + d2
    if not (case.inverts_p or i >= 0):
        raise ArithmeticError(f"output ({a},{i}) at degree {d_out} violates the case rule")
    if not (case.inverts_y or 2 * (i + k) <= d_out - abs(a)):
        i = max(i, (d_out - abs(a)) // 2 + 1)  # the least depth with 2i > d_out - |a|
        raise ArithmeticError(f"output ({a},{i}) at degree {d_out} violates the case rule")
    row = floer._binomial_rows.get(k)
    if row is None:
        row = floer._binomial_row(k)
    out: WrappedSum = {}
    for c in row:  # the terms (a, i0 + s) -> C(k, s), in increasing s
        out[a, i] = c
        i += 1
    return out


def _clearing(case: Complement, elt: LaurentElement) -> tuple[int, int]:
    """Powers (ry, rp) of y and p that make y^ry p^rp * elt a polynomial,
    using only the elements the case inverts; a numerator of degree 0 is
    the unit index (0, 0, 0)."""
    _, p_exp, y_exp = elt
    return (
        -y_exp if y_exp < 0 and case.inverts_y else 0,
        -p_exp if p_exp < 0 and case.inverts_p else 0,
    )


def laurent_product_in_qbasis(
    case: Complement, l1: LaurentElement, l2: LaurentElement
) -> WrappedSum:
    """Independent oracle: multiply in the localized ring and re-expand.

    Denominators are cleared by `_clearing`, once per factor.  The numerators
    are multiplied as honest polynomials and expanded over the distinguished
    polynomial basis (`q_product`), and the clearing powers are divided back
    out: a power of p as a depth shift, a power of y as a degree shift that
    leaves the (a, i) labels alone.
    """
    ry1, rp1 = _clearing(case, l1)
    ry2, rp2 = _clearing(case, l2)
    a1, p1, y1 = l1
    a2, p2, y2 = l2
    p1, p2 = p1 + rp1, p2 + rp2  # the cleared numerators' p exponents
    expansion = q_product(
        (a1, p1, abs(a1) + 2 * p1 + y1 + ry1), (a2, p2, abs(a2) + 2 * p2 + y2 + ry2)
    )
    rp = rp1 + rp2
    out: WrappedSum = {}
    for (a, i, _), c in expansion.items():
        out[a, i - rp] = c
    return out
