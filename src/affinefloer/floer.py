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

Every index is checked against the polygon's cached column table: an input
by `AffinePolygon.check_point` or its `CriticalCover`'s counts, the output by
the latter.  The table holds only q_{0,0} at denominator 0 (the unit) and
rejects negative denominators, so a basis vector is not validated when built.

Two memos on the polygon hold what the product path computes, each keyed
by exactly what its value depends on.  `mu2` memoizes its terms in
`AffinePolygon._products` by points (a, i, n, b, j, m): the levels only
shift the result.  `critical_cover` memoizes a `CriticalCover` record in
`AffinePolygon._covers` by columns (a, b, n, m): the depths only move the
section triangle vertically.  The record is the column pair's kernel, the
per-singularity counts, their sum k and the table's counts at a/n, b/m and
(a+b)/(n+m), so a cold product reads the table only through it.  Its row
C(k, 0..k) comes from the module table `_binomial_rows`, keyed by int k and
filled by `_binomial_row` on a miss; `wrapped.wrapped_product` reads its
rows from the same table.  The first call with a key
runs every check; a repeat is one dict lookup.  Errors (inadmissible inputs,
non-integral cross-sections, closure violations) are raised and never
stored, so a bad input fails on every call.  Neither memo is ever trimmed.

A formal sum is a named tuple (d1, d2, terms).  Inside the library it is
built through `tuple.__new__` (`_new`), which skips the Python frame of the
generated constructor; `FormalSum(d1, d2, terms)` builds an equal object.
Like any named tuple it compares equal to a plain tuple with the same fields.

All coefficients are arbitrary-precision integers; every sign is positive.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, count, repeat
from typing import Mapping, NamedTuple

from .affine import CP2, AffinePolygon, Singularity, check_ints


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


# Basis vectors, interned by (d1, d2, a, i).
_basis_vectors: dict[tuple[int, int, int, int], FormalSum] = {}


def basis_vector(d1: int, d2: int, a: int, i: int) -> FormalSum:
    """The generator q_{a,i} from level d1 to level d2 (denominator d2 - d1).

    Its admissibility is checked by `mu2`, through `AffinePolygon.check_point`.
    The sum is interned: equal arguments return one shared object."""
    key = (d1, d2, a, i)
    q = _basis_vectors.get(key)
    if q is None:
        if not type(d1) is type(d2) is type(a) is type(i) is int:
            check_ints("basis vector arguments", key)
        q = _basis_vectors[key] = _new(FormalSum, (d1, d2, (((a, i), 1),)))
    return q


def sum_to_json(s: FormalSum) -> dict:
    return {
        "d1": s.d1,
        "d2": s.d2,
        "terms": [{"a": a, "i": i, "c": c} for (a, i), c in s.terms],
    }


def index_range(d1: int, d2: int, polygon: AffinePolygon = CP2) -> set[tuple[int, int]]:
    """Admissible (column, depth) pairs for morphisms d1 -> d2; ValueError if d2 < d1."""
    return {(a, i) for a, depths in polygon.column_counts(d2 - d1).items() for i in range(depths)}


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
    lo, hi = (y_first, y_other) if y_first <= y_other else (y_other, y_first)
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


class CriticalCover(NamedTuple):
    """The kernel of a column pair a/n, b/m: per-singularity covering counts,
    the column counts at a/n, b/m and (a+b)/(n+m), and k, the counts' sum."""

    k_list: tuple[int, ...]
    count_a: int
    count_b: int
    count_out: int
    total: int


def critical_cover(
    polygon: AffinePolygon, a: int, b: int, n: int, m: int
) -> CriticalCover:
    """The `CriticalCover` of admissible columns a/n and b/m: one `wall_count`
    per singularity of the polygon.  A cold call reads each input column's
    count once, for both the admissibility test and the record.  Memoized on
    the polygon (`AffinePolygon._covers`) by (a, b, n, m); a rejected pair
    raises on every call."""
    key = (a, b, n, m)
    cover = polygon._covers.get(key)
    if cover is not None:
        return cover
    if not type(a) is type(b) is type(n) is type(m) is int:
        check_ints("columns and denominators", key)
    if n <= 0 or m <= 0:
        raise ValueError("both denominators must be positive")
    count_a = polygon.column_counts(n).get(a, 0)
    if not count_a:
        raise ValueError(f"column {a} not admissible for denominator {n}")
    count_b = polygon.column_counts(m).get(b, 0)
    if not count_b:
        raise ValueError(f"column {b} not admissible for denominator {m}")
    k_list = ()
    for wall in polygon.singularities:
        k_list += (wall_count(wall, a, b, n, m),)
    count_out = polygon.column_counts(n + m).get(a + b, 0)
    cover = _new(CriticalCover, (k_list, count_a, count_b, count_out, sum(k_list)))
    polygon._covers[key] = cover
    return cover


_binomial_rows: dict[int, tuple[int, ...]] = {}  # C(k, 0..k) by int k


def _binomial_row(k: int) -> tuple[int, ...]:
    """C(k, 0..k), built on a miss of `_binomial_rows` and stored there.

    The callers, `_product_terms` and `wrapped.wrapped_product`, read the
    table first and call this only on a miss; each passes an exact int k."""
    # in k steps: C(k, s + 1) = C(k, s) * (k - s) / (s + 1)
    row = _binomial_rows[k] = tuple(
        accumulate(range(k), lambda c, s: c * (k - s) // (s + 1), initial=1))
    return row


def _product_terms(
    polygon: AffinePolygon, a: int, i: int, n: int, b: int, j: int, m: int
) -> tuple[tuple[tuple[int, int], int], ...]:
    """Sorted terms of mu2(q_{b,j}@m, q_{a,i}@n) on the polygon.

    One `critical_cover` record gives k and the counts that both depths and
    the deepest output term are checked against.  A unit factor, or an input
    the record rejects, is checked by `AffinePolygon.check_point`, first input
    first, after both denominators' signs.  The terms (a+b, i+j+s) -> C(k, s)
    are built in increasing s, which is their sorted order.
    """
    if n > 0 and m > 0:
        try:
            cover = critical_cover(polygon, a, b, n, m)
        except ValueError:
            polygon.check_point(a, i, n)
            polygon.check_point(b, j, m)
            raise
        if not (0 <= i < cover.count_a and 0 <= j < cover.count_b):
            polygon.check_point(a, i, n)
            polygon.check_point(b, j, m)
        k, top, col, depth = cover.total, cover.count_out, a + b, i + j
        if depth + k >= top:
            raise ArithmeticError(
                f"product term q_({col},{max(depth, top)}) at denominator {n + m} "
                "is not admissible; instance violates closure"
            )
        row = _binomial_rows.get(k)
        if row is None:
            row = _binomial_row(k)
        return tuple(zip(zip(repeat(col), count(depth)), row))
    if n < 0 or m < 0:
        raise ValueError("denominator must be nonnegative")
    polygon.check_point(a, i, n)
    polygon.check_point(b, j, m)
    return (((b, j), 1),) if n == 0 else (((a, i), 1),)


def _row(polygon: AffinePolygon, key: tuple[int, int, int, int, int, int]):
    """The memoized terms of one basis product, keyed (a, i, n, b, j, m)."""
    terms = polygon._products.get(key)
    if terms is None:
        a, i, n, b, j, m = key
        if not type(a) is type(i) is type(n) is type(b) is type(j) is type(m) is int:
            check_ints("product index", key)
        terms = polygon._products[key] = _product_terms(polygon, a, i, n, b, j, m)
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
