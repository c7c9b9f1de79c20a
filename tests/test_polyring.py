"""The polynomial-side oracle: distinguished basis, exact expansion, products."""

import random

import pytest

from affinefloer import polyring as pr
from affinefloer.polyring import HomogeneousPolynomial, QBasisIndex


def poly(degree, coeffs):
    return HomogeneousPolynomial(degree, coeffs)


def test_q_monomial_examples():
    assert pr.q_monomial(QBasisIndex(0, 0, 1)) == poly(1, {(0, 1, 0): 1})  # y
    assert pr.q_monomial(QBasisIndex(0, 1, 2)) == poly(2, {(1, 0, 1): 1, (0, 2, 0): -1})
    # hand expansion of x^2 (xz - y^2) y^0
    assert pr.q_monomial(QBasisIndex(-2, 1, 4)) == poly(
        4, {(3, 0, 1): 1, (2, 2, 0): -1}
    )
    assert pr.q_monomial(QBasisIndex(3, 0, 3)) == poly(3, {(0, 0, 3): 1})  # z^3


def test_q_monomial_rejects_bad_index():
    with pytest.raises(ValueError):
        QBasisIndex(3, 0, 2)
    with pytest.raises(ValueError):
        QBasisIndex(0, 2, 2)


def test_multiply_examples():
    x = poly(1, {(1, 0, 0): 1})
    z = poly(1, {(0, 0, 1): 1})
    assert pr.multiply(x, z) == poly(2, {(1, 0, 1): 1})
    p2 = pr.multiply(pr.P, pr.P)
    assert p2 == poly(4, {(2, 0, 2): 1, (1, 2, 1): -2, (0, 4, 0): 1})
    assert pr.multiply(pr.P, pr.zero(3)).is_zero()


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
        n_monomials = len(pr.monomial_basis(d))
        assert n_indices == n_monomials == (d + 2) * (d + 1) // 2


def test_expansion_linear():
    f = poly(2, {(1, 0, 1): 3, (0, 2, 0): -2, (2, 0, 0): 1})
    expansion = pr.expand_in_qbasis(f)
    rebuilt = pr.zero(2)
    for idx, c in expansion.items():
        rebuilt = rebuilt + pr.q_monomial(idx).scale(c)
    assert rebuilt == f


def test_expand_zero():
    assert pr.expand_in_qbasis(pr.zero(5)) == {}

