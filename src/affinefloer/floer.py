"""Degree-zero morphism spaces and their triangle product.

A morphism from level d1 to level d2 is a `FormalSum`: an integer
combination of fractional points (a, i) of the polygon with denominator
n = d2 - d1.  A basis vector q_{a,i} is the one-term sum.  `mu2` is
bilinear, and the product of two basis vectors is the integer formal sum

    mu2(q_{b,j}, q_{a,i}) = sum_{s=0}^{k} C(k, s) * q_{a+b, i+j+s}

where k counts how many times the triangle spanned by the three section paths
covers the critical lines.  `wall_count` counts one singularity; `mu2` sums it
over the polygon's (`critical_cover`), the wrapped product over cp2's.  The
projective plane is the instance `affine.CP2`, the default.

The geometric rule: lift the three section paths to the universal cover of
the base annulus as straight graphs over eta (a path of level n drops with
slope -n; the reference lift sits at height 0, so the level-n side through
q_{a,i} is y = a - n*eta and the outgoing side is y = a + b - (n+m)*eta).
Critical values sit at the half-integer heights of each singularity line
eta = c; the count k_c is the number of half-integers strictly inside the
triangle's vertical cross-section there.  The cross-section endpoints are
integers whenever n*c and (n+m)*c are (hence for instances with integer
singularity positions), which keeps the half-integer count unambiguous.

Admissibility of every input and output index is read from the polygon's
cached column table (`AffinePolygon.column_counts`), and nowhere else: the
table holds only q_{0,0} at denominator 0 (the unit) and rejects negative
denominators, so a basis vector is not validated when it is built.

Two memos on the polygon hold what the product path computes, each keyed
by exactly what its value depends on.  `mu2` memoizes its terms in
`AffinePolygon._products` by points (a, i, n, b, j, m): the levels only
shift the result.  `critical_cover` memoizes a `CriticalCover` record in
`AffinePolygon._covers` by columns (a, b, n, m): the depths only move the
section triangle vertically.  The record is the column pair's kernel, the
per-singularity counts, their sum k and the table's counts at a/n, b/m and
(a+b)/(n+m), so a cold product reads the table only through it; its row
C(k, 0..k) comes from a module table keyed by exact-int k.  The first call
with a key runs every check; a repeat is one dict lookup.  Errors
(inadmissible inputs, non-integral cross-sections, closure violations) are
raised and never stored, so a bad input fails on every call; so is a result
from a key that is not all exact ints.  Neither memo is ever trimmed.

A formal sum is a named tuple (d1, d2, terms).  Inside the library it is
built through `tuple.__new__` (`_new`), which skips the Python frame of the
generated constructor; `FormalSum(d1, d2, terms)` builds an equal object.
Like any named tuple it compares equal to a plain tuple with the same fields.

All coefficients are arbitrary-precision integers; every sign is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple

from .affine import CP2, AffinePolygon, Singularity


class FormalSum(NamedTuple):
    """Integer combination of basis vectors sharing (d1, d2), keyed by (a, i).

    Terms are sorted by key and carry no zero coefficient.  A basis vector
    is the one-term sum with coefficient 1."""

    d1: int
    d2: int
    terms: tuple[tuple[tuple[int, int], int], ...]

    @staticmethod
    def from_dict(d1: int, d2: int, coeffs: Mapping[tuple[int, int], int]) -> "FormalSum":
        terms = tuple(sorted((k, c) for k, c in coeffs.items() if c != 0))
        return _new(FormalSum, (d1, d2, terms))

    def coeffs(self) -> dict[tuple[int, int], int]:
        return dict(self.terms)


_new = tuple.__new__  # _new(FormalSum, (d1, d2, terms)): FormalSum without its frame


# Basis vectors with int arguments, interned by (d1, d2, a, i).
_basis_vectors: dict[tuple[int, int, int, int], FormalSum] = {}


def basis_vector(d1: int, d2: int, a: int, i: int) -> FormalSum:
    """The generator q_{a,i} from level d1 to level d2 (denominator d2 - d1).

    Its admissibility is checked by `mu2`, against the polygon's column
    table.  When all four arguments are exact ints the sum is interned: equal
    arguments return one shared object.  Any other argument type (a bool or
    a float equal to an int included) builds a fresh sum that is never
    stored, so it is never handed back for an int request."""
    if type(d1) is type(d2) is type(a) is type(i) is int:
        key = (d1, d2, a, i)
        q = _basis_vectors.get(key)
        if q is None:
            q = _basis_vectors[key] = _new(FormalSum, (d1, d2, (((a, i), 1),)))
        return q
    return _new(FormalSum, (d1, d2, (((a, i), 1),)))


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
    """Closed-form covering count on cp2: min(|a|, |b|) for opposite-sign
    columns, else 0.  No library path calls it; perfbench's cp2-fourway setup
    and the tests do, as the oracle for `wall_count` and `critical_cover`."""
    if (a >= 0 and b >= 0) or (a <= 0 and b <= 0):
        return 0
    return min(abs(a), abs(b))


def wall_count(singularity: Singularity, a: int, b: int, n: int, m: int) -> int:
    """Covering count of one singularity by the triangle of columns a/n and
    b/m, with vertices (a/n, 0), (b/m, a - n*b/m), ((a+b)/(n+m), 0) on the
    universal cover: the half-integers strictly inside its cross-section on
    the singular line, times the multiplicity.  A position c with non-integer
    n*c or (n+m)*c raises ValueError rather than count ambiguously.  On the
    line eta = 0, as on cp2, n and m drop out, so the count also holds at
    degree 0 and beyond the polygon's columns.  It is the one k rule of
    `critical_cover` and `wrapped.wrapped_product`."""
    # The singular line eta = p/q against the three side lines y = 0,
    # y = a - n*eta and y = a + b - (n+m)*eta, all heights scaled by q.
    p, q = singularity._eta
    left, right = p * n - a * q, p * m - b * q
    if left * right > 0:  # the line misses the triangle's eta-span
        return 0
    y_first = -left
    y_out = (a + b) * q - (n + m) * p
    # Between a/n and the apex (a+b)/(n+m) the cross-section ends on
    # y = 0, beyond the apex on the outgoing side.
    y_other = 0 if left * y_out >= 0 else y_out
    lo, hi = min(y_first, y_other), max(y_first, y_other)
    if lo % q or hi % q:
        raise ValueError(
            f"cross-section endpoints at eta={singularity.eta_pos} are not integers "
            f"({Fraction(lo, q)}, {Fraction(hi, q)}); singularity positions "
            "must be (1/n)- and (1/(n+m))-integral"
        )
    # Critical values sit at half-integer heights; the integer interval
    # [lo, hi] holds hi - lo of them strictly inside, each counted once
    # per merged focus-focus point.
    return singularity.multiplicity * ((hi - lo) // q)


@dataclass(frozen=True, slots=True)
class CriticalCover:
    """The kernel of a column pair a/n, b/m: per-singularity covering counts,
    their sum k, and the column counts at a/n, b/m and (a+b)/(n+m)."""

    k_list: tuple[int, ...]
    count_a: int
    count_b: int
    count_out: int
    total: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", sum(self.k_list))


def critical_cover(
    polygon: AffinePolygon, a: int, b: int, n: int, m: int
) -> CriticalCover:
    """The `CriticalCover` of admissible columns a/n and b/m: one `wall_count`
    per singularity of the polygon.  A cold call reads each input column's
    count once, for both the admissibility test and the record.  Memoized on
    the polygon (`AffinePolygon._covers`) by (a, b, n, m); only a record
    from four exact ints is stored (a float equal to an int counts a float
    k), and a rejected pair raises on every call."""
    key = (a, b, n, m)
    cover = polygon._covers.get(key)
    if cover is not None:
        return cover
    if n <= 0 or m <= 0:
        raise ValueError("both denominators must be positive")
    count_a = polygon.column_counts(n).get(a, 0)
    if not count_a:
        raise ValueError(f"column {a} not admissible for denominator {n}")
    count_b = polygon.column_counts(m).get(b, 0)
    if not count_b:
        raise ValueError(f"column {b} not admissible for denominator {m}")
    cover = CriticalCover(
        tuple(wall_count(s, a, b, n, m) for s in polygon.singularities),
        count_a, count_b, polygon.column_counts(n + m).get(a + b, 0),
    )
    if type(a) is type(b) is type(n) is type(m) is int:
        polygon._covers[key] = cover
    return cover


_binomial_rows: dict[int, tuple[int, ...]] = {}  # C(k, 0..k) by exact-int k


def _check_depths(polygon: AffinePolygon, inputs) -> None:
    """Check each input (col, depth, den) in the column table, unit included."""
    for col, depth, den in inputs:
        if not 0 <= depth < polygon.column_counts(den).get(col, 0):
            raise ValueError(f"q_({col},{depth}) with denominator {den} is not admissible")


def _product_terms(
    polygon: AffinePolygon, a: int, i: int, n: int, b: int, j: int, m: int
) -> tuple[tuple[tuple[int, int], int], ...]:
    """Sorted terms of mu2(q_{b,j}@m, q_{a,i}@n) on the polygon.

    One `critical_cover` record gives k and the counts that both depths and
    the deepest output term are checked against.  A unit factor, or an input
    the record rejects, is checked against the column table, which raises
    the input's error.  The terms (a+b, i+j+s) -> C(k, s) are built in
    increasing s, which is their sorted order.
    """
    inputs = ((a, i, n), (b, j, m))
    if n > 0 and m > 0:
        try:
            cover = critical_cover(polygon, a, b, n, m)
        except ValueError:
            _check_depths(polygon, inputs)
            raise
        if not (0 <= i < cover.count_a and 0 <= j < cover.count_b):
            _check_depths(polygon, inputs)
        k, top, col, depth = cover.total, cover.count_out, a + b, i + j
        if depth + k >= top:
            raise ArithmeticError(
                f"product term q_({col},{max(depth, top)}) at denominator {n + m} "
                "is not admissible; instance violates closure"
            )
        row = _binomial_rows.get(k) if type(k) is int else None
        if row is None:  # `range` and `math.comb` reject a k that is not an int
            row = tuple(math.comb(k, s) for s in range(k + 1))
            if type(k) is int:
                _binomial_rows[k] = row
        return tuple(((col, depth + s), c) for s, c in enumerate(row))
    _check_depths(polygon, inputs)
    return (((b, j), 1),) if n == 0 else (((a, i), 1),)


def _row(polygon: AffinePolygon, key: tuple[int, int, int, int, int, int]):
    """The memoized terms of one basis product, keyed (a, i, n, b, j, m)."""
    terms = polygon._products.get(key)
    if terms is None:
        a, i, n, b, j, m = key
        terms = _product_terms(polygon, a, i, n, b, j, m)
        if type(a) is type(i) is type(n) is type(b) is type(j) is type(m) is int:
            polygon._products[key] = terms
    return terms


def mu2(q2: FormalSum, q1: FormalSum, polygon: AffinePolygon = CP2) -> FormalSum:
    """Triangle product mu2(q2, q1) of composable degree-zero morphisms,
    bilinear in both arguments.

    q1 goes d1 -> d2 and q2 goes d2 -> d3.  Every term pair reads its row
    from the polygon's memo.  The product of two one-term sums is that row,
    already sorted, scaled by the coefficient product; only several term
    pairs are merged and re-sorted.
    """
    d1, d2, terms1 = q1
    e2, d3, terms2 = q2
    if d2 != e2:
        raise ValueError(f"not composable: q1 ends at level {d2}, q2 starts at {e2}")
    n, m = d2 - d1, d3 - d2
    if len(terms1) == 1 and len(terms2) == 1:
        ((a, i), c1), ((b, j), c2) = terms1[0], terms2[0]
        terms, c = _row(polygon, (a, i, n, b, j, m)), c1 * c2
        if c != 1:
            terms = tuple((key, c * v) for key, v in terms) if c else ()
        return _new(FormalSum, (d1, d3, terms))
    acc: dict[tuple[int, int], int] = {}
    for (a, i), c1 in terms1:
        for (b, j), c2 in terms2:
            for key, v in _row(polygon, (a, i, n, b, j, m)):
                acc[key] = acc.get(key, 0) + c1 * c2 * v
    return FormalSum.from_dict(d1, d3, acc)


def ring_product(x: FormalSum, y: FormalSum, polygon: AffinePolygon = CP2) -> FormalSum:
    """Ring product x * y = mu2(y, x) (all morphisms have degree 0, so the
    usual sign (-1)^{|x|} is trivially +1)."""
    return mu2(y, x, polygon)
