"""Exact homogeneous coordinate ring of the plane with its distinguished basis.

Degree-d polynomials in x, y, z carry a basis indexed like the fractional
points: with p = xz - y^2,

    Q_{a,i} = x^{-a} p^i y^{d+a-2i}   (a <= 0),
    Q_{a,i} = z^{a}  p^i y^{d-a-2i}   (a > 0),

for |a| <= d and 0 <= i <= floor((d - |a|)/2).  Multiplying two such elements
and re-expanding reproduces the binomial structure constants of the triangle
product, which is what `verify.ring` sweeps.

Expansion in the Q basis is done by assembling the full square change-of-basis
matrix over the monomial basis and inverting it exactly over the rationals
(integrality of the inverse is asserted); the successful solve doubles as a
proof that the Q elements form a basis in each degree.  Inverses are cached
per degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Tuple

Monomial = Tuple[int, int, int]  # exponents of (x, y, z)


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
            clean[tuple(mono)] = int(c)
        self.degree = degree
        self.coeffs = clean

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomogeneousPolynomial)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.degree, tuple(sorted(self.coeffs.items()))))

    def __add__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        if self.degree != other.degree:
            raise ValueError("degrees differ")
        acc = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            acc[mono] = acc.get(mono, 0) + c
        return HomogeneousPolynomial(self.degree, acc)

    def scale(self, c: int) -> "HomogeneousPolynomial":
        return HomogeneousPolynomial(self.degree, {m: c * v for m, v in self.coeffs.items()})

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


def zero(degree: int) -> HomogeneousPolynomial:
    return HomogeneousPolynomial(degree, {})


def multiply(p1: HomogeneousPolynomial, p2: HomogeneousPolynomial) -> HomogeneousPolynomial:
    """Exact product; degrees add."""
    acc: Dict[Monomial, int] = {}
    for m1, c1 in p1.coeffs.items():
        for m2, c2 in p2.coeffs.items():
            mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            acc[mono] = acc.get(mono, 0) + c1 * c2
    return HomogeneousPolynomial(p1.degree + p2.degree, acc)


@dataclass(frozen=True)
class QBasisIndex:
    """Index (a, i) of a distinguished basis element in degree d."""

    a: int
    i: int
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("degree must be positive")
        if abs(self.a) > self.d or not 0 <= self.i <= (self.d - abs(self.a)) // 2:
            raise ValueError(f"index ({self.a},{self.i}) invalid in degree {self.d}")


def qbasis_indices(d: int) -> list[QBasisIndex]:
    """All indices in degree d, ordered by (a, i)."""
    return [
        QBasisIndex(a, i, d)
        for a in range(-d, d + 1)
        for i in range((d - abs(a)) // 2 + 1)
    ]


def monomial_basis(d: int) -> list[Monomial]:
    """Degree-d monomials ordered by column (z-exp minus x-exp), then x-exp."""
    monos = [(al, d - al - ga, ga) for al in range(d + 1) for ga in range(d - al + 1)]
    return sorted(monos, key=lambda m: (m[2] - m[0], m[0]))


def q_monomial(idx: QBasisIndex) -> HomogeneousPolynomial:
    """Expand the distinguished basis element into monomials.

    The factor p^i = (xz - y^2)^i contributes C(i,t) (-1)^{i-t} (xz)^t y^{2(i-t)}.
    """
    a, i, d = idx.a, idx.i, idx.d
    coeffs: Dict[Monomial, int] = {}
    for t in range(i + 1):
        c = math.comb(i, t) * (-1) ** (i - t)
        if a <= 0:
            mono = (-a + t, d + a - 2 * t, t)
        else:
            mono = (t, d - a - 2 * t, a + t)
        coeffs[mono] = coeffs.get(mono, 0) + c
    return HomogeneousPolynomial(d, coeffs)


# Per-degree cache: monomial order, index order, and the integer inverse of
# the change-of-basis matrix, stored column-wise (one sparse column per
# monomial, giving its expansion over the Q indices).
_expansion_cache: Dict[int, tuple[list[Monomial], list[QBasisIndex], list[dict[int, int]]]] = {}


def _invert_exact(
    columns: list[dict[int, int]], dim: int
) -> list[dict[int, Fraction]]:
    """Inverse of the matrix whose j-th column is columns[j], by Gauss-Jordan.

    Rows are kept sparse (dicts), which makes the elimination cheap for the
    block-structured matrices arising here while staying a general exact
    solve; a missing pivot anywhere means the claimed basis is not one.
    """
    left: list[dict[int, Fraction]] = [{} for _ in range(dim)]
    for j, col in enumerate(columns):
        for r, v in col.items():
            left[r][j] = Fraction(v)
    right: list[dict[int, Fraction]] = [{r: Fraction(1)} for r in range(dim)]
    for col in range(dim):
        pivot = next((r for r in range(col, dim) if left[r].get(col)), None)
        if pivot is None:
            raise ArithmeticError("change-of-basis matrix is singular: not a basis")
        left[col], left[pivot] = left[pivot], left[col]
        right[col], right[pivot] = right[pivot], right[col]
        pv = left[col][col]
        if pv != 1:
            left[col] = {c: v / pv for c, v in left[col].items()}
            right[col] = {c: v / pv for c, v in right[col].items()}
        for r in range(dim):
            f = left[r].get(col)
            if r == col or not f:
                continue
            for c, v in left[col].items():
                newv = left[r].get(c, Fraction(0)) - f * v
                if newv:
                    left[r][c] = newv
                else:
                    left[r].pop(c, None)
            for c, v in right[col].items():
                newv = right[r].get(c, Fraction(0)) - f * v
                if newv:
                    right[r][c] = newv
                else:
                    right[r].pop(c, None)
    return right


def _expansion_data(d: int):
    if d not in _expansion_cache:
        monos = monomial_basis(d)
        mono_pos = {m: r for r, m in enumerate(monos)}
        indices = qbasis_indices(d)
        dim = len(monos)
        if len(indices) != dim:
            raise ArithmeticError(f"basis size mismatch in degree {d}")
        columns = [
            {mono_pos[mono]: c for mono, c in q_monomial(idx).coeffs.items()}
            for idx in indices
        ]
        inverse = _invert_exact(columns, dim)
        # Row k of the inverse gives the Q_{indices[k]} coefficient; store by
        # monomial column for sparse use, asserting integrality throughout.
        by_monomial: list[dict[int, int]] = [{} for _ in range(dim)]
        for k in range(dim):
            for j, v in inverse[k].items():
                if v.denominator != 1:
                    raise ArithmeticError(
                        f"non-integer entry {v} in the inverse change of basis"
                    )
                if v:
                    by_monomial[j][k] = v.numerator
        _expansion_cache[d] = (monos, indices, by_monomial)
    return _expansion_cache[d]


def expand_in_qbasis(poly: HomogeneousPolynomial) -> Dict[QBasisIndex, int]:
    """Unique exact coefficients of a polynomial over the distinguished basis."""
    if poly.is_zero():
        return {}
    monos, indices, by_monomial = _expansion_data(poly.degree)
    mono_pos = {m: r for r, m in enumerate(monos)}
    acc: Dict[int, int] = {}
    for mono, c in poly.coeffs.items():
        for k, v in by_monomial[mono_pos[mono]].items():
            acc[k] = acc.get(k, 0) + c * v
    return {indices[k]: v for k, v in acc.items() if v != 0}


X = HomogeneousPolynomial(1, {(1, 0, 0): 1})
Y = HomogeneousPolynomial(1, {(0, 1, 0): 1})
Z = HomogeneousPolynomial(1, {(0, 0, 1): 1})
P = HomogeneousPolynomial(2, {(1, 0, 1): 1, (0, 2, 0): -1})  # xz - y^2


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

