"""The polynomial-side oracle: distinguished basis, exact expansion, products."""

import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from affinefloer import affine
from affinefloer import polyring as pr
from affinefloer.polyring import HomogeneousPolynomial, QBasisIndex
from support import assert_refused


def poly(degree, coeffs):
    return HomogeneousPolynomial(degree, coeffs)


def zero(degree):
    return poly(degree, {})


def add(f, g):
    """The sum of two polynomials of one degree, with zero coefficients
    dropped as `multiply` drops them."""
    assert f.degree == g.degree
    acc = dict(f.coeffs)
    for mono, c in g.coeffs.items():
        acc[mono] = acc.get(mono, 0) + c
    return poly(f.degree, {mono: c for mono, c in acc.items() if c})


def scale(f, c):
    """The polynomial c * f."""
    return poly(f.degree, {mono: c * v for mono, v in f.coeffs.items()})


P = poly(2, {(1, 0, 1): 1, (0, 2, 0): -1})  # xz - y^2


def monomials(d):
    """Degree-d monomials ordered by column (z-exp minus x-exp), then x-exp."""
    monos = [(al, d - al - ga, ga) for al in range(d + 1) for ga in range(d - al + 1)]
    return sorted(monos, key=lambda m: (m[2] - m[0], m[0]))


def _unmemoized_q(idx):
    """Q_{a,i} = x^{-a} p^i y^{d+a-2i} (a <= 0) or z^a p^i y^{d-a-2i}, expanded
    afresh through the binomial theorem for p^i."""
    a, i, d = idx.a, idx.i, idx.d
    coeffs = {}
    for t in range(i + 1):
        if a <= 0:
            mono = (-a + t, d + a - 2 * t, t)
        else:
            mono = (t, d - a - 2 * t, a + t)
        coeffs[mono] = math.comb(i, t) * (-1) ** (i - t)
    return poly(d, coeffs)


def test_q_monomial_examples():
    assert pr.q_monomial(QBasisIndex(0, 0, 1)) == poly(1, {(0, 1, 0): 1})  # y
    assert pr.q_monomial(QBasisIndex(0, 1, 2)) == poly(2, {(1, 0, 1): 1, (0, 2, 0): -1})
    # hand expansion of x^2 (xz - y^2) y^0
    assert pr.q_monomial(QBasisIndex(-2, 1, 4)) == poly(
        4, {(3, 0, 1): 1, (2, 2, 0): -1}
    )
    assert pr.q_monomial(QBasisIndex(3, 0, 3)) == poly(3, {(0, 0, 3): 1})  # z^3


def test_q_monomial_is_memoized_and_equals_the_formula():
    for d in range(1, 13):
        for idx in pr.qbasis_indices(d):
            q = pr.q_monomial(idx)
            assert pr.q_monomial(QBasisIndex(idx.a, idx.i, idx.d)) is q
            assert pr.q_monomial((idx.a, idx.i, idx.d)) is q
            assert q == _unmemoized_q(idx)


def test_each_q_row_is_the_math_comb_row():
    for d in range(0, 21):
        for idx in pr.qbasis_indices(d):
            assert pr.q_monomial(idx) == _unmemoized_q(idx)
    deep = QBasisIndex(-1, 600, 1201)
    assert pr.q_monomial(deep) == _unmemoized_q(deep)


def test_the_q_basis_is_indexed_by_the_fractional_points():
    assert QBasisIndex is affine.FractionalPoint
    assert pr.qbasis_indices(2)[:2] == [(-2, 0, 2), (-1, 0, 2)]
    assert affine.FractionalPoint(1, 0, 2) == (1, 0, 2)
    # one index rule: the ring basis of degree d is the (1/d)-points of cp2
    for d in range(13):
        assert pr.qbasis_indices(d) == affine.fractional_points(affine.CP2, d), d


@pytest.mark.parametrize(
    "first, second",
    [(tuple, QBasisIndex._make), (QBasisIndex._make, tuple)],
    ids=["tuple-first", "index-first"],
)
def test_a_tuple_and_an_index_share_one_memo_entry(monkeypatch, first, second):
    monkeypatch.setattr(pr, "_q_cache", {})
    q = pr.q_monomial(first((-1, 1, 5)))
    assert pr.q_monomial(second((-1, 1, 5))) is q
    assert len(pr._q_cache) == 1


@pytest.mark.parametrize("float_first", [True, False], ids=["float-first", "int-first"])
def test_an_index_with_a_float_entry_is_never_memoized(monkeypatch, float_first):
    # a float column would build float exponents, which an int request must
    # never read, so a miss refuses it
    monkeypatch.setattr(pr, "_q_cache", {})
    if float_first:
        refused = "index must be ints, got (-1.0, 0, 1)"
        assert_refused(pr._q_cache, refused, pr.q_monomial, (-1.0, 0, 1))
    q = pr.q_monomial((-1, 0, 1))
    assert all(type(e) is int for mono in q.coeffs for e in mono)
    assert q.coeffs == {(1, 0, 0): 1}
    assert list(pr._q_cache) == [(-1, 0, 1)]
    assert pr.q_monomial((-1.0, 0, 1)) is q  # an equal key reads the int entry
    assert_refused(pr._q_cache, "index must be ints, got (1, 0, 1.0)", pr.q_monomial, (1, 0, 1.0))


def test_q_monomial_rejects_bad_index():
    before = dict(pr._q_cache)
    for bad in ((3, 0, 2), (0, 2, 2), (0, 0, -1), (0, 1, 0), (0, -1, 2)):
        for idx in (bad, QBasisIndex._make(bad)):
            with pytest.raises(ValueError):
                pr.q_monomial(idx)
    assert pr._q_cache == before


def test_q_product_is_memoized_and_equals_multiply_and_expand(monkeypatch):
    monkeypatch.setattr(pr, "_product_cache", {})
    indices = [idx for d in range(1, 6) for idx in pr.qbasis_indices(d)]
    for left in indices:
        for right in indices:
            product = pr.q_product(left, right)
            assert product == pr.expand_in_qbasis(
                pr.multiply(pr.q_monomial(left), pr.q_monomial(right))
            )
            assert pr.q_product(tuple(left), tuple(right)) is product
            assert pr.q_product(right, left) is product
    # one entry per unordered pair: a tuple and an index are one key, and
    # the two orders of a pair share one expansion
    n = len(indices)
    assert len(pr._product_cache) == n * (n + 1) // 2


def test_a_float_index_never_reaches_the_product_memo(monkeypatch):
    # stored under the equal int key, an expansion from a float degree
    # would hand its float indices to the int request
    monkeypatch.setattr(pr, "_product_cache", {})
    refused = "index must be ints, got (-1, 0, 1.0)"
    assert_refused(pr._product_cache, refused, pr.q_product, (-1, 0, 1.0), (1, 0, 1))
    assert_refused(pr._product_cache, refused, pr.q_product, (1, 0, 1), (-1, 0, 1.0))
    expansion = pr.q_product((-1, 0, 1), (1, 0, 1))
    assert expansion == {QBasisIndex(0, 0, 2): 1, QBasisIndex(0, 1, 2): 1}  # x * z = y^2 + p
    assert all(type(e) is int for idx in expansion for e in idx)
    assert pr.q_product((1, 0, 1), (-1, 0, 1)) is expansion
    assert list(pr._product_cache) == [((-1, 0, 1), (1, 0, 1))]
    # a refused float pairs with an uncached partner in either order
    refused = "index must be ints, got (0, 0, 1.0)"
    assert_refused(pr._product_cache, refused, pr.q_product, (0, 0, 1.0), (1, 0, 1))
    assert_refused(pr._product_cache, refused, pr.q_product, (1, 0, 1), (0, 0, 1.0))


def test_q_product_rejects_bad_index_on_every_call(monkeypatch):
    monkeypatch.setattr(pr, "_product_cache", {})
    for bad in ((3, 0, 2), (0, 2, 2), (0, 0, -1), (0, 1, 0), (0, -1, 2)):
        for pair in ((bad, (0, 0, 1)), ((0, 0, 1), bad)):
            for _ in range(2):
                with pytest.raises(ValueError):
                    pr.q_product(*pair)
    assert not pr._product_cache


def test_qbasis_indices_degree_zero_is_the_unit():
    assert pr.qbasis_indices(0) == [(0, 0, 0)]
    assert pr.q_monomial((0, 0, 0)) == poly(0, {(0, 0, 0): 1})
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        pr.qbasis_indices(-1)


def test_multiply_examples():
    x = poly(1, {(1, 0, 0): 1})
    z = poly(1, {(0, 0, 1): 1})
    assert pr.multiply(x, z) == poly(2, {(1, 0, 1): 1})
    p2 = pr.multiply(P, P)
    assert p2 == poly(4, {(2, 0, 2): 1, (1, 2, 1): -2, (0, 4, 0): 1})
    assert pr.multiply(P, zero(3)) == zero(5)
    # cancellation leaves no zero coefficient behind
    x_plus_y = poly(1, {(1, 0, 0): 1, (0, 1, 0): 1})
    x_minus_y = poly(1, {(1, 0, 0): 1, (0, 1, 0): -1})
    assert pr.multiply(x_plus_y, x_minus_y).coeffs == {(2, 0, 0): 1, (0, 2, 0): -1}


def test_multiply_commutative_associative_random():
    rng = random.Random(7)

    def random_poly(degree):
        coeffs = {}
        for _ in range(5):
            al = rng.randint(0, degree)
            ga = rng.randint(0, degree - al)
            coeffs[(al, degree - al - ga, ga)] = rng.randint(-5, 5)
        return poly(degree, coeffs)

    for _ in range(25):
        degrees = rng.choice([(1, 2, 3), (2, 2, 2), (6, 1, 2), (4, 5, 6)])
        f, g, h = (random_poly(d) for d in degrees)
        assert pr.multiply(f, g) == pr.multiply(g, f)
        assert pr.multiply(pr.multiply(f, g), h) == pr.multiply(f, pr.multiply(g, h))


def test_expand_xz_example():
    xz = poly(2, {(1, 0, 1): 1})
    assert {(k.a, k.i): c for k, c in pr.expand_in_qbasis(xz).items()} == {
        (0, 0): 1,
        (0, 1): 1,
    }


def test_expand_xz_cubed_against_brute_multiplication():
    xz = poly(2, {(1, 0, 1): 1})
    cubed = pr.multiply(pr.multiply(xz, xz), xz)
    assert {(k.a, k.i): c for k, c in pr.expand_in_qbasis(cubed).items()} == {
        (0, 0): 1,
        (0, 1): 3,
        (0, 2): 3,
        (0, 3): 1,
    }


def test_expansion_round_trip():
    for d in range(1, 11):
        for idx in pr.qbasis_indices(d):
            assert pr.expand_in_qbasis(pr.q_monomial(idx)) == {idx: 1}


def test_dimension_agreement():
    for d in range(1, 21):
        n_indices = len(pr.qbasis_indices(d))
        n_monomials = len(monomials(d))
        assert n_indices == n_monomials == (d + 2) * (d + 1) // 2


def test_expansion_linear():
    f = poly(2, {(1, 0, 1): 3, (0, 2, 0): -2, (2, 0, 0): 1})
    expansion = pr.expand_in_qbasis(f)
    rebuilt = zero(2)
    for idx, c in expansion.items():
        rebuilt = add(rebuilt, scale(pr.q_monomial(idx), c))
    assert rebuilt == f


def test_expand_zero():
    assert pr.expand_in_qbasis(zero(5)) == {}


def _well_formed(f, degree):
    """Is f of this degree, with only nonzero int coefficients on monomials
    of that degree with nonnegative int exponents?"""
    return f.degree == degree and all(
        type(c) is int
        and c != 0
        and all(type(e) is int and e >= 0 for e in mono)
        and sum(mono) == degree
        for mono, c in f.coeffs.items()
    )


def test_q_monomial_and_multiply_build_only_well_formed_polynomials():
    for d in range(11):
        for idx in pr.qbasis_indices(d):
            assert _well_formed(pr.q_monomial(idx), d), idx
    small = [idx for d in range(5) for idx in pr.qbasis_indices(d)]
    for left in small:
        for right in small:
            product = pr.multiply(pr.q_monomial(left), pr.q_monomial(right))
            assert _well_formed(product, left.d + right.d), (left, right)


@pytest.mark.parametrize(
    "mono, memoized",
    [((1, 1, 1), False), ((-1, 3, 0), False), ((1, 1, 1), True)],
    ids=["off-degree", "negative-exponent", "off-degree-memoized"],
)
def test_expand_rejects_a_foreign_monomial(mono, memoized):
    if memoized:  # the memo is keyed by the monomial alone, not by its degree
        pr.expand_in_qbasis(poly(3, {mono: 1}))
        assert mono in pr._rows
    f = poly(2, {(1, 0, 1): 1, mono: 1})
    with pytest.raises(ValueError, match=re.escape(f"{mono} is not a monomial of degree 2")):
        pr.expand_in_qbasis(f)


def test_a_monomial_with_a_float_exponent_is_never_memoized(monkeypatch):
    # float exponents, or a float degree, would build float indices, which an
    # int request must never read, so a miss refuses them
    monkeypatch.setattr(pr, "_rows", {})
    refused = "exponents and degree must be ints, got "
    for degree, mono in ((2, (1.0, 0, 1)), (2.0, (1, 0, 1))):
        message = f"{refused}{(*mono, degree)}"
        assert_refused(pr._rows, message, pr.expand_in_qbasis, poly(degree, {mono: 1}))
    assert not pr._rows
    expansion = pr.expand_in_qbasis(poly(2, {(1, 0, 1): 1}))
    assert all(type(e) is int for idx in expansion for e in idx)
    assert list(pr._rows) == [(1, 0, 1)]


def test_monomials_expand_by_the_binomial_closed_form():
    # x^al y^be z^ga = z^a (xz)^t y^be (a >= 0) or x^-a (xz)^t y^be (a < 0), with
    # t = min(al, ga), a = ga - al, and xz = p + y^2.
    for d in range(1, 16):
        for al, be, ga in monomials(d):
            t, a = min(al, ga), ga - al
            want = {QBasisIndex(a, i, d): math.comb(t, i) for i in range(t + 1)}
            assert pr.expand_in_qbasis(poly(d, {(al, be, ga): 1})) == want


def _full_matrix_expansion(d):
    """Per monomial, its Q coefficients from one Fraction Gauss-Jordan on the
    whole change-of-basis matrix, as the column blocks were first computed."""
    monos = monomials(d)
    row_of = {m: r for r, m in enumerate(monos)}
    indices = pr.qbasis_indices(d)
    dim = len(monos)
    left = [{} for _ in range(dim)]
    for j, idx in enumerate(indices):
        for mono, c in pr.q_monomial(idx).coeffs.items():
            left[row_of[mono]][j] = Fraction(c)
    right = [{r: Fraction(1)} for r in range(dim)]
    for col in range(dim):
        pivot = next(r for r in range(col, dim) if left[r].get(col))
        left[col], left[pivot] = left[pivot], left[col]
        right[col], right[pivot] = right[pivot], right[col]
        pv = left[col][col]
        left[col] = {c: v / pv for c, v in left[col].items()}
        right[col] = {c: v / pv for c, v in right[col].items()}
        for r in range(dim):
            f = left[r].get(col)
            if r == col or not f:
                continue
            for rows, src in ((left, left[col]), (right, right[col])):
                for c, v in src.items():
                    rows[r][c] = rows[r].get(c, Fraction(0)) - f * v
                rows[r] = {c: v for c, v in rows[r].items() if v}
    return {
        mono: {(indices[k].a, indices[k].i): right[k][j] for k in range(dim) if right[k].get(j)}
        for j, mono in enumerate(monos)
    }


def test_column_blocks_agree_with_the_full_matrix_inverse():
    for d in range(1, 13):
        peeled = {
            mono: {(k.a, k.i): v for k, v in pr.expand_in_qbasis(poly(d, {mono: 1})).items()}
            for mono in monomials(d)
        }
        assert peeled == _full_matrix_expansion(d)


def test_the_q_elements_are_a_z_basis_in_every_degree_up_to_12():
    # Square column blocks make the change of basis their direct sum; each
    # block upper triangular with pivots +-1 has determinant +-1.
    for d in range(13):
        indices = pr.qbasis_indices(d)
        columns = Counter(m[2] - m[0] for m in monomials(d))
        assert Counter(idx.a for idx in indices) == columns, d
        for idx in indices:
            terms = pr.q_monomial(idx).coeffs
            assert all(m[2] - m[0] == idx.a and min(m[0], m[2]) <= idx.i for m in terms), idx
            pivot = [c for m, c in terms.items() if min(m[0], m[2]) == idx.i]
            assert pivot in ([1], [-1]), idx


@pytest.mark.parametrize(
    "bad_index, replacement, pivot_monomial, message",
    [
        # 2 Q_(0,1): the block of column 0 has pivot 2 and inverse entries 1/2
        (
            QBasisIndex(0, 1, 4),
            lambda q: scale(q(QBasisIndex(0, 1, 4)), 2),
            (1, 2, 1),
            "non-integer",
        ),
        # Q_(0,1) := Q_(0,0): two equal columns in one block
        (QBasisIndex(0, 1, 4), lambda q: q(QBasisIndex(0, 0, 4)), (1, 2, 1), "singular"),
        # Q_(1,0) + x^4: a term in column -4
        (
            QBasisIndex(1, 0, 4),
            lambda q: add(q(QBasisIndex(1, 0, 4)), poly(4, {(4, 0, 0): 1})),
            (0, 3, 1),
            "outside its column",
        ),
        # Q_(0,0) + xz y^2: a term below the diagonal of the column-0 block
        (
            QBasisIndex(0, 0, 4),
            lambda q: add(q(QBasisIndex(0, 0, 4)), poly(4, {(1, 2, 1): 1})),
            (0, 4, 0),
            "not upper triangular",
        ),
    ],
    ids=["pivot-2", "singular", "outside-column", "below-diagonal"],
)
def test_planted_bad_basis_is_rejected(
    monkeypatch, bad_index, replacement, pivot_monomial, message
):
    original = pr.q_monomial
    monkeypatch.setattr(
        pr, "q_monomial", lambda idx: replacement(original) if idx == bad_index else original(idx)
    )
    monkeypatch.setattr(pr, "_rows", {})
    with pytest.raises(ArithmeticError, match=message):
        pr.expand_in_qbasis(poly(4, {pivot_monomial: 1}))
    assert not pr._rows
    pr.expand_in_qbasis(poly(3, {(0, 3, 0): 1}))  # other degrees are untouched
    assert (0, 3, 0) in pr._rows
    monkeypatch.undo()
    # the planted element never reached the memo of the true q_monomial
    assert pr.q_monomial(bad_index) == _unmemoized_q(bad_index)
    assert pr.q_monomial(QBasisIndex(0, 1, 4)) == poly(4, {(1, 2, 1): 1, (0, 4, 0): -1})
