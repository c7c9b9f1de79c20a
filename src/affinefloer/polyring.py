"""Exact homogeneous coordinate ring of the plane with its distinguished basis.

Degree-d polynomials in x, y, z carry a basis indexed by the fractional
points (`QBasisIndex` is `affine.FractionalPoint`): with p = xz - y^2,

    Q_{a,i} = x^{-a} p^i y^{d+a-2i}   (a <= 0),
    Q_{a,i} = z^{a}  p^i y^{d-a-2i}   (a > 0),

for |a| <= d and 0 <= i <= floor((d - |a|)/2), the ring's own index rule,
which `qbasis_indices` enumerates and `q_monomial` checks.  Multiplying two
such elements and re-expanding (`q_product`, memoized by the ordered pair of
indices) reproduces the binomial structure constants of the triangle
product, which is what `verify.ring` sweeps.

Expansion in the Q basis inverts the change-of-basis matrix from the Q
elements to the monomials, one degree at a time, and caches the inverse per
degree.  Every Q_{a,i} and every monomial x^al y^be z^ga lies in a column
(a for Q_{a,i}, ga - al for the monomial), and p = xz - y^2 is homogeneous of
column 0, so the matrix is block-diagonal by column: each block pairs the
floor((d - |a|)/2) + 1 elements Q_{a,i} with the equally many monomials of
column a.  Ordered by x-exponent, those monomials sit at block positions 0,
1, ...; Q_{a,i} puts coefficient 1 on position i and touches no later one,
so each block is upper unitriangular and is inverted by back-substitution
in integers.  The fill still proves that the Q elements form a basis over
the integers in each degree: it checks that every term of every Q element
stays in its column and that each block is square, so the whole matrix is
the direct sum of the blocks; and it raises if a block is not triangular
with every pivot +-1, so each block has determinant +-1.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Tuple

from .affine import FractionalPoint

Monomial = Tuple[int, int, int]  # exponents of (x, y, z)

# The Q basis is indexed by the fractional points (a, i, d) themselves.
QBasisIndex = FractionalPoint


class HomogeneousPolynomial:
    """Exact-integer-coefficient homogeneous polynomial in x, y, z."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Mapping[Monomial, int]):
        clean = {}
        for mono, c in coeffs.items():
            if c == 0:
                continue
            if sum(mono) != degree or min(mono) < 0:
                raise ValueError(f"monomial {mono} is not homogeneous of degree {degree}")
            if type(c) is not int:
                try:
                    integral = int(c)
                except (ValueError, OverflowError):  # nan, inf
                    integral = None
                if integral != c:
                    raise ValueError(f"coefficient {c!r} of {mono} is not an integer")
                c = integral
            clean[tuple(mono)] = c
        self.degree = degree
        self.coeffs = clean

    @classmethod
    def _trusted(cls, degree: int, coeffs: Dict[Monomial, int]) -> "HomogeneousPolynomial":
        """Wrap integer coefficients known to be homogeneous of `degree`
        (a product of checked polynomials), dropping only the zeros."""
        poly = object.__new__(cls)
        poly.degree = degree
        poly.coeffs = {mono: c for mono, c in coeffs.items() if c}
        return poly

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomogeneousPolynomial)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        if self.is_zero():
            return "0"

        def fmt(mono, c):
            xs = "".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip("xyz", mono)
                if e > 0
            )
            xs = xs or "1"
            return f"{c}*{xs}" if abs(c) != 1 else ("-" + xs if c == -1 else xs)

        return " + ".join(fmt(m, c) for m, c in sorted(self.coeffs.items(), reverse=True))


def multiply(p1: HomogeneousPolynomial, p2: HomogeneousPolynomial) -> HomogeneousPolynomial:
    """Exact product; degrees add."""
    acc: Dict[Monomial, int] = {}
    for m1, c1 in p1.coeffs.items():
        for m2, c2 in p2.coeffs.items():
            mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            acc[mono] = acc.get(mono, 0) + c1 * c2
    return HomogeneousPolynomial._trusted(p1.degree + p2.degree, acc)


def qbasis_indices(d: int) -> list[QBasisIndex]:
    """All indices in degree d >= 1, ordered by (a, i)."""
    if d < 1:
        raise ValueError("degree must be positive")
    return [
        QBasisIndex(a, i, d)
        for a in range(-d, d + 1)
        for i in range((d - abs(a)) // 2 + 1)
    ]


def monomial_basis(d: int) -> list[Monomial]:
    """Degree-d monomials ordered by column (z-exp minus x-exp), then x-exp."""
    monos = [(al, d - al - ga, ga) for al in range(d + 1) for ga in range(d - al + 1)]
    return sorted(monos, key=lambda m: (m[2] - m[0], m[0]))


# Q elements already expanded, keyed by the index (a, i, d); a plain tuple
# and a QBasisIndex are equal keys.
_q_cache: Dict[Tuple[int, int, int], HomogeneousPolynomial] = {}


def q_monomial(idx: Tuple[int, int, int]) -> HomogeneousPolynomial:
    """Expand the distinguished basis element Q_{a,i} of degree d into
    monomials; `idx` is (a, i, d), a QBasisIndex or a plain tuple.

    The factor p^i = (xz - y^2)^i contributes C(i,t) (-1)^{i-t} (xz)^t y^{2(i-t)}.
    The polynomial is memoized per index of exact ints: each such call
    returns one shared object, which must not be mutated.  An index with a
    float entry, or outside the ring's rule (d >= 1, |a| <= d, 0 <= i <=
    (d - |a|)//2), is not memoized; the latter raises ValueError.
    """
    cached = _q_cache.get(idx)
    if cached is not None:
        return cached
    a, i, d = idx
    if d < 1:
        raise ValueError("degree must be positive")
    if abs(a) > d or not 0 <= i <= (d - abs(a)) // 2:
        raise ValueError(f"index ({a},{i}) invalid in degree {d}")
    coeffs: Dict[Monomial, int] = {}
    for t in range(i + 1):
        c = math.comb(i, t) * (-1) ** (i - t)
        if a <= 0:
            mono = (-a + t, d + a - 2 * t, t)
        else:
            mono = (t, d - a - 2 * t, a + t)
        coeffs[mono] = coeffs.get(mono, 0) + c
    poly = HomogeneousPolynomial(d, coeffs)
    if type(a) is type(i) is type(d) is int:
        _q_cache[idx] = poly
    return poly


# Per-degree cache: the Q indices in (a, i) order, and for each monomial its
# expansion over them as {position in that list: integer coefficient}.
_expansion_cache: Dict[int, tuple[list[QBasisIndex], dict[Monomial, dict[int, int]]]] = {}


def _expansion_data(d: int) -> tuple[list[QBasisIndex], dict[Monomial, dict[int, int]]]:
    entry = _expansion_cache.get(d)
    if entry is not None:
        return entry
    indices = qbasis_indices(d)
    monos = monomial_basis(d)
    if len(indices) != len(monos):
        raise ArithmeticError(f"basis size mismatch in degree {d}")
    block_monos: Dict[int, list[Monomial]] = {}
    for mono in monos:
        block_monos.setdefault(mono[2] - mono[0], []).append(mono)
    block_indices: Dict[int, list[int]] = {}
    for k, idx in enumerate(indices):
        block_indices.setdefault(idx.a, []).append(k)
    expansion: dict[Monomial, dict[int, int]] = {mono: {} for mono in monos}
    for a, rows in block_monos.items():
        ks = block_indices.get(a, [])
        if len(ks) != len(rows):
            raise ArithmeticError(
                f"column {a} of degree {d} has {len(ks)} basis elements "
                f"for {len(rows)} monomials"
            )
        row_of = {mono: r for r, mono in enumerate(rows)}
        # Back-substitution in increasing block position s: with U[r][s] the
        # coefficient of monomial r in Q_s, monomial s is
        # pivot * (Q_s - sum_{r<s} U[r][s] * monomial r), every monomial r < s
        # being expanded already; 1/pivot = pivot for pivot = +-1.
        for s, k in enumerate(ks):
            i = indices[k].i
            column = {}
            for mono, c in q_monomial(indices[k]).coeffs.items():
                if mono not in row_of:
                    raise ArithmeticError(
                        f"Q_({a},{i}) in degree {d} has the term {mono} "
                        f"outside its column"
                    )
                column[row_of[mono]] = c
            pivot = column.pop(s, 0)
            if not pivot or any(r > s for r in column):
                raise ArithmeticError(
                    f"Q_({a},{i}) in degree {d} leaves its column block "
                    f"singular or not upper triangular"
                )
            if pivot not in (1, -1):
                raise ArithmeticError(
                    f"pivot {pivot} of Q_({a},{i}) in degree {d} gives "
                    f"non-integer entries in the inverse change of basis"
                )
            row: dict[int, int] = {}
            for r, u in column.items():
                for q, v in expansion[rows[r]].items():
                    row[q] = row.get(q, 0) - u * v
            row[k] = 1
            expansion[rows[s]] = {q: pivot * v for q, v in row.items() if v}
    _expansion_cache[d] = (indices, expansion)
    return indices, expansion


def expand_in_qbasis(poly: HomogeneousPolynomial) -> Dict[QBasisIndex, int]:
    """Unique exact coefficients of a polynomial over the distinguished basis."""
    if poly.is_zero():
        return {}
    indices, expansion = _expansion_data(poly.degree)
    acc: Dict[int, int] = {}
    for mono, c in poly.coeffs.items():
        for k, v in expansion[mono].items():
            acc[k] = acc.get(k, 0) + c * v
    return {indices[k]: v for k, v in acc.items() if v != 0}


# Products already expanded, keyed by the ordered pair of Q indices.
_product_cache: Dict[tuple, Dict[QBasisIndex, int]] = {}


def q_product(left: Tuple[int, int, int], right: Tuple[int, int, int]) -> Dict[QBasisIndex, int]:
    """Q_left * Q_right expanded over the distinguished basis of the summed
    degree: `expand_in_qbasis(multiply(q_monomial(left), q_monomial(right)))`.

    Memoized by the ordered pair of indices (a QBasisIndex and a plain
    tuple are equal keys): every call with equal indices returns the same
    shared dict, which must not be mutated.  An invalid index raises
    ValueError and nothing is stored.
    """
    key = (left, right)
    expansion = _product_cache.get(key)
    if expansion is None:
        expansion = _product_cache[key] = expand_in_qbasis(
            multiply(q_monomial(left), q_monomial(right))
        )
    return expansion


def q_label(a: int, i: int, d: int) -> str:
    """Short human name of a basis element, e.g. "x^2", "p", "y^2*p"."""
    parts = []
    if a < 0:
        parts.append(f"x^{-a}" if a < -1 else "x")
    elif a > 0:
        parts.append(f"z^{a}" if a > 1 else "z")
    y_exp = d - abs(a) - 2 * i
    if y_exp:
        parts.append(f"y^{y_exp}" if y_exp != 1 else "y")
    if i:
        parts.append(f"p^{i}" if i != 1 else "p")
    return "*".join(parts) if parts else "1"

