"""Exact homogeneous coordinate ring of the plane with its distinguished basis.

Degree-d polynomials in x, y, z carry a basis indexed by the fractional
points (`QBasisIndex` is `affine.FractionalPoint`): with p = xz - y^2,

    Q_{a,i} = x^{-a} p^i y^{d+a-2i}   (a <= 0),
    Q_{a,i} = z^{a}  p^i y^{d-a-2i}   (a > 0),

for |a| <= d and 0 <= i <= floor((d - |a|)/2), the ring's own index rule,
which `qbasis_indices` enumerates and `q_monomial` checks; d = 0 holds only
the unit Q_{0,0} = 1.  Multiplying two such elements and re-expanding
(`q_product`, memoized by the unordered pair of indices) reproduces the
binomial structure constants of the triangle product, swept by `verify.ring`.
The ring is commutative, so the two orders of a pair share one expansion.
A polynomial is a plain record, built only by `q_monomial` and `multiply`
and checked where it is used: `expand_in_qbasis` rejects a foreign monomial.

Expansion in the Q basis peels one monomial at a time.  Every Q_{a,i} and
every monomial x^al y^be z^ga lies in a column (a for Q_{a,i}, ga - al for
the monomial), and p = xz - y^2 is homogeneous of column 0, so a monomial
expands within its own column.  There it sits at block position
min(al, ga), and Q_{a,i} puts coefficient 1 on position i and touches no
later one: the column block is upper unitriangular.  So the monomial's
expansion is read off from the top: while terms remain, the highest
position s with coefficient c contributes c times the pivot of Q_{a,s}, and
that multiple of Q_{a,s} is subtracted from the lower positions.  The row
of each monomial is memoized.  Every Q element the peel reads is checked
to keep all its terms in its column, at positions no later than its own,
with a pivot of +-1, which is what makes the blocks invertible over the
integers; a Q element that breaks this raises ArithmeticError.  That each
block is also square, so the Q elements form a basis over the integers in
every degree, is proven by the tests up to degree 12.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from .affine import FractionalPoint, check_ints

Monomial = Tuple[int, int, int]  # exponents of (x, y, z)

# The Q basis is indexed by the fractional points (a, i, d) themselves.
QBasisIndex = FractionalPoint


class HomogeneousPolynomial(NamedTuple):
    """Monomials in x, y, z of total degree `degree` -> nonzero int coefficients."""

    degree: int
    coeffs: Dict[Monomial, int]


_new = tuple.__new__  # _new(HomogeneousPolynomial, (degree, coeffs)): a record without its frame


def multiply(p1: HomogeneousPolynomial, p2: HomogeneousPolynomial) -> HomogeneousPolynomial:
    """Exact product; degrees add, and zero coefficients are dropped."""
    acc: Dict[Monomial, int] = {}
    for m1, c1 in p1.coeffs.items():
        for m2, c2 in p2.coeffs.items():
            mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            acc[mono] = acc.get(mono, 0) + c1 * c2
    return _new(HomogeneousPolynomial, (p1.degree + p2.degree, {m: c for m, c in acc.items() if c}))


def qbasis_indices(d: int) -> list[QBasisIndex]:
    """All indices in degree d >= 0, ordered by (a, i): (0, 0, 0) at d = 0."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return [
        QBasisIndex(a, i, d)
        for a in range(-d, d + 1)
        for i in range((d - abs(a)) // 2 + 1)
    ]


def _column_monomial(a, s, d) -> Monomial:
    """The degree-d monomial at block position s of column a."""
    if a <= 0:
        return (s - a, d + a - 2 * s, s)
    return (s, d - a - 2 * s, a + s)


# Q elements already expanded, keyed by the index (a, i, d); a plain tuple
# and a QBasisIndex are equal keys.
_q_cache: Dict[Tuple[int, int, int], HomogeneousPolynomial] = {}


def q_monomial(idx: Tuple[int, int, int]) -> HomogeneousPolynomial:
    """Expand the distinguished basis element Q_{a,i} of degree d into
    monomials; `idx` is (a, i, d), a QBasisIndex or a plain tuple.

    The factor p^i = (xz - y^2)^i contributes C(i,t) (-1)^{i-t} (xz)^t y^{2(i-t)}.
    The polynomial is memoized per index: each call with an equal index
    returns one shared object, which must not be mutated.  An index outside
    the ring's rule 0 <= i <= (d - |a|)//2 (which rules out d < 0 and
    |a| > d) raises ValueError and is not memoized.
    """
    cached = _q_cache.get(idx)
    if cached is not None:
        return cached
    a, i, d = idx
    if not type(a) is type(i) is type(d) is int:
        check_ints("index", idx)
    if not 0 <= i <= (d - abs(a)) // 2:
        raise ValueError(f"index ({a},{i}) invalid in degree {d}")
    coeffs: Dict[Monomial, int] = {}
    c = -1 if i % 2 else 1
    for t in range(i + 1):  # c = C(i, t) (-1)^(i-t), one step of the row at a time
        coeffs[_column_monomial(a, t, d)] = c
        c = -c * (i - t) // (t + 1)
    poly = _q_cache[idx] = _new(HomogeneousPolynomial, (d, coeffs))
    return poly


# Monomials already expanded, keyed by the monomial alone: its Q coefficients.
_rows: Dict[Monomial, Dict[QBasisIndex, int]] = {}


def _peel(mono: Monomial, d: int) -> Dict[QBasisIndex, int]:
    """The expansion of one monomial of degree d over the Q basis, memoized;
    raises ValueError if `mono` is not a monomial of degree d, and
    ArithmeticError on a Q element that leaves its column block not
    unitriangular over the integers."""
    al, be, ga = mono
    if not type(al) is type(be) is type(ga) is type(d) is int:
        check_ints("exponents and degree", (al, be, ga, d))
    if min(mono) < 0 or sum(mono) != d:
        raise ValueError(f"{mono} is not a monomial of degree {d}")
    a = ga - al
    rest = {min(al, ga): 1}  # coefficients by block position in column a
    row: Dict[QBasisIndex, int] = {}
    while rest:
        s = max(rest)
        c = rest.pop(s)
        if not c:
            continue
        column = {}
        for term, u in q_monomial((a, s, d)).coeffs.items():
            r = min(term[0], term[2])
            if r < 0 or term != _column_monomial(a, r, d):
                raise ArithmeticError(
                    f"Q_({a},{s}) in degree {d} has the term {term} outside its column"
                )
            column[r] = u
        pivot = column.pop(s, 0)
        if not pivot or any(r > s for r in column):
            raise ArithmeticError(
                f"Q_({a},{s}) in degree {d} leaves its column block "
                f"singular or not upper triangular"
            )
        if pivot not in (1, -1):
            raise ArithmeticError(
                f"pivot {pivot} of Q_({a},{s}) in degree {d} gives "
                f"non-integer entries in the inverse change of basis"
            )
        # c m_s = c * pivot * (Q_s - sum_{r<s} u_r m_r), as 1/pivot = pivot
        c *= pivot
        row[QBasisIndex(a, s, d)] = c
        for r, u in column.items():
            rest[r] = rest.get(r, 0) - c * u
    _rows[mono] = row
    return row


def expand_in_qbasis(poly: HomogeneousPolynomial) -> Dict[QBasisIndex, int]:
    """Unique exact coefficients of a polynomial over the distinguished basis.
    A monomial of another degree, or with a negative exponent, raises
    ValueError."""
    d = poly.degree
    acc: Dict[QBasisIndex, int] = {}
    for mono, c in poly.coeffs.items():
        row = _rows.get(mono)
        if row is None or sum(mono) != d:  # the memo holds rows of every degree
            row = _peel(mono, d)
        for idx, v in row.items():
            acc[idx] = acc.get(idx, 0) + c * v
    return {idx: v for idx, v in acc.items() if v}


# Products already expanded, each stored once, under the order of the pair
# that first asked for it.
_product_cache: Dict[tuple, Dict[QBasisIndex, int]] = {}


def q_product(left: Tuple[int, int, int], right: Tuple[int, int, int]) -> Dict[QBasisIndex, int]:
    """Q_left * Q_right expanded over the distinguished basis of the summed
    degree: `expand_in_qbasis(multiply(q_monomial(left), q_monomial(right)))`.

    Memoized by the unordered pair of indices (a QBasisIndex and a plain
    tuple are equal keys): the ring is commutative, so a call reads the
    pair in its own order, then in the other, and only a miss in both
    fills the memo, under the order asked for.  Every call with equal
    indices, in either order, returns the same shared dict, which must not
    be mutated.  An invalid index raises ValueError and nothing is stored.
    """
    expansion = _product_cache.get((left, right))
    if expansion is None:
        expansion = _product_cache.get((right, left))
        if expansion is None:
            (a, i, d), (b, j, e) = left, right
            if not type(a) is type(i) is type(d) is type(b) is type(j) is type(e) is int:
                check_ints("index", left)
                check_ints("index", right)
            expansion = _product_cache[left, right] = expand_in_qbasis(
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

