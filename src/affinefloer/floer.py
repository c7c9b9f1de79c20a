"""Degree-zero morphism spaces and their triangle product.

A basis vector is a fractional point of the polygon read as a morphism from
level d1 to level d2 with denominator n = d2 - d1.  The product of two basis
vectors is the integer formal sum

    mu2(q_{b,j}, q_{a,i}) = sum_{s=0}^{k} C(k, s) * q_{a+b, i+j+s}

where k counts how many times the triangle spanned by the three section paths
covers the critical lines.  k is computed geometrically by `critical_cover`,
one count per singularity, on every instance; the projective plane is the
instance `affine.CP2`, the default.  Its closed form `k_value_cp2` (min(|a|,
|b|) for opposite-sign columns, 0 otherwise) is kept only as an oracle.

The geometric rule: lift the three section paths to the universal cover of
the base annulus as straight graphs over eta (a path of level n drops with
slope -n; the reference lift sits at height 0, so the level-n side through
q_{a,i} is y = a - n*eta and the outgoing side is y = a + b - (n+m)*eta).
Critical values sit at the half-integer heights of each singularity line
eta = c; the count k_c is the number of half-integers strictly inside the
triangle's vertical cross-section there.  The cross-section endpoints are
integers whenever n*c and (n+m)*c are (hence for instances with integer
singularity positions), which keeps the half-integer count unambiguous.

Admissibility of every input and output index is a lookup in the polygon's
cached column table (`AffinePolygon.column_counts`).

All coefficients are arbitrary-precision integers; every sign is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .affine import CP2, AffinePolygon, FractionalPoint


@dataclass(frozen=True)
class BasisVector:
    """A morphism generator from level d1 to level d2 (d2 - d1 = point.d)."""

    d1: int
    d2: int
    point: FractionalPoint

    def __post_init__(self):
        if self.d2 - self.d1 != self.point.d:
            raise ValueError("denominator must equal d2 - d1")

    @property
    def a(self) -> int:
        return self.point.a

    @property
    def i(self) -> int:
        return self.point.i

    @property
    def n(self) -> int:
        return self.point.d

    def is_unit(self) -> bool:
        return self.point.d == 0


def basis_vector(d1: int, d2: int, a: int, i: int) -> BasisVector:
    return BasisVector(d1, d2, FractionalPoint(a, i, d2 - d1))


def unit(d: int = 0) -> BasisVector:
    """The identity morphism at level d."""
    return BasisVector(d, d, FractionalPoint(0, 0, 0))


@dataclass(frozen=True)
class FormalSum:
    """Integer combination of basis vectors sharing (d1, d2), keyed by (a, i)."""

    d1: int
    d2: int
    terms: tuple[tuple[tuple[int, int], int], ...]

    @staticmethod
    def from_dict(d1: int, d2: int, coeffs: Mapping[tuple[int, int], int]) -> "FormalSum":
        terms = tuple(sorted((k, c) for k, c in coeffs.items() if c != 0))
        return FormalSum(d1, d2, terms)

    def coeffs(self) -> dict[tuple[int, int], int]:
        return dict(self.terms)

    def basis_vectors(self) -> list[tuple[BasisVector, int]]:
        return [
            (BasisVector(self.d1, self.d2, FractionalPoint(a, i, self.d2 - self.d1)), c)
            for (a, i), c in self.terms
        ]


def sum_to_json(s: FormalSum) -> dict:
    return {
        "d1": s.d1,
        "d2": s.d2,
        "terms": [{"a": a, "i": i, "c": c} for (a, i), c in s.terms],
    }


def index_range(d1: int, d2: int, polygon: AffinePolygon = CP2) -> set[tuple[int, int]]:
    """Admissible (column, depth) pairs for morphisms d1 -> d2."""
    n = d2 - d1
    if n < 0:
        raise ValueError("index_range requires d2 >= d1")
    return {(a, i) for a, count in polygon.column_counts(n).items() for i in range(count)}


def k_value_cp2(a: int, b: int) -> int:
    """Closed-form critical-line covering count on the projective plane.

    An oracle for `critical_cover` on `affine.CP2`, and the count used by
    the cp2-only models in `tropical` and `wrapped`."""
    if (a >= 0 and b >= 0) or (a <= 0 and b <= 0):
        return 0
    return min(abs(a), abs(b))


@dataclass(frozen=True)
class CriticalCover:
    """Per-singularity covering counts of one composable pair of morphisms."""

    k_list: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.k_list)


def critical_cover(
    polygon: AffinePolygon, a: int, b: int, n: int, m: int
) -> CriticalCover:
    """Per-singularity covering counts for inputs in columns a/n and b/m.

    Works on the universal-cover triangle with vertices (a/n, 0),
    (b/m, a - n*b/m), ((a+b)/(n+m), 0).  At each singularity line the
    cross-section endpoints must be integers; instances with non-integer
    n*c or (n+m)*c are rejected rather than counted ambiguously.
    """
    if n <= 0 or m <= 0:
        raise ValueError("both denominators must be positive")
    for col, den in ((a, n), (b, m)):
        if not polygon.column_counts(den).get(col, 0):
            raise ValueError(f"column {col} not admissible for denominator {den}")
    ks: list[int] = []
    for s in polygon.singularities:
        # The singular line eta = p/q against the three side lines y = 0,
        # y = a - n*eta and y = a + b - (n+m)*eta, all heights scaled by q.
        p, q = s.eta_pos.numerator, s.eta_pos.denominator
        left, right = p * n - a * q, p * m - b * q
        if left * right > 0:  # the line misses the triangle's eta-span
            ks.append(0)
            continue
        y_first = -left
        y_out = (a + b) * q - (n + m) * p
        # Between a/n and the apex (a+b)/(n+m) the cross-section ends on
        # y = 0, beyond the apex on the outgoing side.
        y_other = 0 if left * y_out >= 0 else y_out
        lo, hi = min(y_first, y_other), max(y_first, y_other)
        if lo % q or hi % q:
            raise ValueError(
                f"cross-section endpoints at eta={s.eta_pos} are not integers "
                f"({Fraction(lo, q)}, {Fraction(hi, q)}); singularity positions "
                "must be (1/n)- and (1/(n+m))-integral"
            )
        # Critical values sit at half-integer heights; the integer interval
        # [lo, hi] holds hi - lo of them strictly inside, each counted once
        # per merged focus-focus point.
        ks.append(s.multiplicity * ((hi - lo) // q))
    return CriticalCover(tuple(ks))


def mu2(q2: BasisVector, q1: BasisVector, polygon: AffinePolygon = CP2) -> FormalSum:
    """Triangle product mu2(q2, q1) of composable degree-zero morphisms.

    q1 goes d1 -> d2 and q2 goes d2 -> d3.  All coefficients are positive
    binomials; the output column is a + b.
    """
    if q1.d2 != q2.d1:
        raise ValueError(
            f"not composable: q1 ends at level {q1.d2}, q2 starts at {q2.d1}"
        )
    _check_admissible(q1, polygon)
    _check_admissible(q2, polygon)
    d1, d3 = q1.d1, q2.d2
    if q1.is_unit():
        return FormalSum.from_dict(d1, d3, {(q2.a, q2.i): 1})
    if q2.is_unit():
        return FormalSum.from_dict(d1, d3, {(q1.a, q1.i): 1})
    k = critical_cover(polygon, q1.a, q2.a, q1.n, q2.n).total
    a, i = q1.a + q2.a, q1.i + q2.i
    depth = polygon.column_counts(d3 - d1).get(a, 0)
    if i + k >= depth:
        raise ArithmeticError(
            f"product term q_({a},{max(i, depth)}) at denominator {d3 - d1} "
            "is not admissible; instance violates closure"
        )
    return FormalSum.from_dict(d1, d3, {(a, i + s): math.comb(k, s) for s in range(k + 1)})


def _check_admissible(q: BasisVector, polygon: AffinePolygon) -> None:
    if q.is_unit():
        return
    if not 0 <= q.i < polygon.column_counts(q.n).get(q.a, 0):
        raise ValueError(f"q_({q.a},{q.i}) is not admissible for levels {q.d1}->{q.d2}")


SumLike = Union[BasisVector, FormalSum]


def _as_sum(x: SumLike) -> FormalSum:
    if isinstance(x, BasisVector):
        return FormalSum.from_dict(x.d1, x.d2, {(x.a, x.i): 1})
    return x


def ring_product(x: SumLike, y: SumLike, polygon: AffinePolygon = CP2) -> FormalSum:
    """Bilinear ring product x * y = mu2(y, x) (all morphisms have degree 0,
    so the usual sign (-1)^{|x|} is trivially +1)."""
    xs, ys = _as_sum(x), _as_sum(y)
    if xs.d2 != ys.d1:
        raise ValueError(f"not composable: x ends at level {xs.d2}, y starts at {ys.d1}")
    acc: dict[tuple[int, int], int] = {}
    for qx, cx in xs.basis_vectors():
        for qy, cy in ys.basis_vectors():
            for key, c in mu2(qy, qx, polygon).terms:
                acc[key] = acc.get(key, 0) + cx * cy * c
    return FormalSum.from_dict(xs.d1, ys.d2, acc)
