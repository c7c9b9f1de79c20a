"""Wrapped bases and products against the localized-ring oracle."""

from fractions import Fraction

import pytest

from affinefloer import wrapped as wr
from affinefloer.floer import basis_vector, index_range, mu2
from affinefloer.polyring import QBasisIndex, expand_in_qbasis, multiply, q_monomial
from affinefloer.wrapped import Complement, ContinuationMap, ExtendedPoint


def test_case_depth_rules():
    ExtendedPoint(0, 5, 1, Complement.L)
    ExtendedPoint(0, -5, 1, Complement.C)
    ExtendedPoint(7, -3, 0, Complement.D)
    with pytest.raises(ValueError):
        ExtendedPoint(0, -1, 1, Complement.L)
    with pytest.raises(ValueError):
        ExtendedPoint(0, 1, 1, Complement.C)  # i > floor((1-0)/2)


def test_wrap_steps():
    assert Complement.L.wrap_step == 1
    assert Complement.C.wrap_step == 2
    assert Complement.D.wrap_step == 3


def test_wrapped_basis_window_counts():
    assert len(wr.wrapped_basis(Complement.D, 1, a_max=1, i_max=2)) == 15
    # case L keeps i >= 0: half of the D window plus the i = 0 row
    assert len(wr.wrapped_basis(Complement.L, 1, a_max=1, i_max=2)) == 9
    # case C at d = 1, column 0: i <= 0
    assert sorted(p.i for p in wr.wrapped_basis(Complement.C, 1, a_max=0, i_max=3)) == [
        -3,
        -2,
        -1,
        0,
    ]


def test_rational_function_examples():
    assert wr.rational_function(ExtendedPoint(0, 1, 0, Complement.L)) == wr.LaurentElement(0, 1, -2)
    assert wr.rational_function(ExtendedPoint(0, -1, 0, Complement.C)) == wr.LaurentElement(0, -1, 2)
    assert wr.rational_function(ExtendedPoint(0, 0, 0, Complement.D)) == wr.LaurentElement(0, 0, 0)
    assert wr.rational_function(ExtendedPoint(-2, 1, 4, Complement.L)) == wr.LaurentElement(-2, 1, 0)


def test_rational_function_bijective_on_window():
    for case in Complement:
        window = wr.wrapped_basis(case, 3, a_max=4, i_max=3)
        elements = [wr.rational_function(p) for p in window]
        assert len(set(elements)) == len(window)
        for p, elt in zip(window, elements):
            assert (elt.a, elt.p_exp, elt.degree) == (p.a, p.i, p.d)


def test_wrapped_product_worked_examples():
    # case D: x * zp = y^2 p + p^2
    q1 = ExtendedPoint(-1, 0, 1, Complement.D)
    q2 = ExtendedPoint(1, 1, 1, Complement.D)
    assert wr.wrapped_product(Complement.D, q2, q1) == {(0, 1): 1, (0, 2): 1}
    # case L: p^2 y^-3 times y = p^2 y^-2
    q1 = ExtendedPoint(0, 2, 1, Complement.L)
    q2 = ExtendedPoint(0, 0, 1, Complement.L)
    assert wr.wrapped_product(Complement.L, q2, q1) == {(0, 2): 1}
    # unit acts trivially
    for case in Complement:
        q = ExtendedPoint(2, 0, 3, case)
        e0 = ExtendedPoint(0, 0, 0, case)
        assert wr.wrapped_product(case, q, e0) == {(2, 0): 1}


def test_wrapped_product_restricted_to_compact_range_is_mu2():
    for case in Complement:
        for n in range(1, 5):
            for m in range(1, 5 - n + 1):
                for (a, i) in index_range(0, n):
                    for (b, j) in index_range(n, n + m):
                        if not (
                            wr._depth_ok(case, a, i, n) and wr._depth_ok(case, b, j, m)
                        ):
                            continue
                        got = wr.wrapped_product(
                            case,
                            ExtendedPoint(b, j, m, case),
                            ExtendedPoint(a, i, n, case),
                        )
                        want = mu2(
                            basis_vector(n, n + m, b, j), basis_vector(0, n, a, i)
                        ).coeffs()
                        assert got == want


def test_e_element_examples():
    assert wr.e_element(Complement.L, 1) == ExtendedPoint(0, 0, 1, Complement.L)
    assert wr.rational_function(wr.e_element(Complement.L, 1)) == wr.LaurentElement(0, 0, 1)
    assert wr.e_element(Complement.C, 2) == ExtendedPoint(0, 1, 2, Complement.C)
    assert wr.rational_function(wr.e_element(Complement.C, 2)) == wr.LaurentElement(0, 1, 0)
    assert wr.e_element(Complement.D, 3) == ExtendedPoint(0, 1, 3, Complement.D)
    assert wr.rational_function(wr.e_element(Complement.D, 3)) == wr.LaurentElement(0, 1, 1)
    with pytest.raises(ValueError):
        wr.e_element(Complement.C, 3)
    with pytest.raises(ValueError):
        wr.e_element(Complement.D, -3)


def test_e_element_group_law():
    for case in Complement:
        step = case.wrap_step
        for r1 in range(step, 7, step):
            for r2 in range(step, 7, step):
                prod = wr.wrapped_product(
                    case, wr.e_element(case, r2), wr.e_element(case, r1)
                )
                e_sum = wr.e_element(case, r1 + r2)
                assert prod == {(e_sum.a, e_sum.i): 1}
                laurent = wr.laurent_product_in_qbasis(
                    case,
                    wr.rational_function(wr.e_element(case, r1)),
                    wr.rational_function(wr.e_element(case, r2)),
                )
                assert laurent == {(e_sum.a, e_sum.i): 1}


def test_continuation_is_composition_with_e():
    for case in Complement:
        step = case.wrap_step
        for r in range(step, 7, step):
            cmap = ContinuationMap(case, 0, 2, r)
            e = wr.e_element(case, r)
            for q in wr.wrapped_basis(case, 2, a_max=3, i_max=2):
                image = cmap.apply(q)
                assert wr.wrapped_product(case, e, q) == {(image.a, image.i): 1}


def test_continuation_is_dilation_with_case_center():
    centers = {
        Complement.L: (Fraction(0), Fraction(0)),
        Complement.C: (Fraction(0), Fraction(-1, 2)),
        Complement.D: (Fraction(0), Fraction(-1, 3)),
    }
    for case in Complement:
        step = case.wrap_step
        for r in range(step, 7, step):
            cmap = ContinuationMap(case, 1, 3, r)
            assert cmap.center == centers[case]
            factor = Fraction(2, 2 + r)
            cx, cy = cmap.center
            for q in wr.wrapped_basis(case, 2, a_max=3, i_max=2):
                src = wr.embed(q)
                dst = wr.embed(cmap.apply(q))
                assert dst[0] == cx + (src[0] - cx) * factor
                assert dst[1] == cy + (src[1] - cy) * factor


def test_continuation_directed_system():
    for case in Complement:
        step = case.wrap_step
        for r1 in range(step, 7, step):
            for r2 in range(step, 7, step):
                for q in wr.wrapped_basis(case, 1, a_max=2, i_max=2):
                    stepwise = ContinuationMap(case, 0, 1 + r1, r2).apply(
                        ContinuationMap(case, 0, 1, r1).apply(q)
                    )
                    direct = ContinuationMap(case, 0, 1, r1 + r2).apply(q)
                    assert stepwise == direct


def test_continuation_rejects_bad_levels():
    with pytest.raises(ValueError):
        ContinuationMap(Complement.L, 2, 2, 1)
    with pytest.raises(ValueError):
        ContinuationMap(Complement.C, 0, 1, 3)
    cmap = ContinuationMap(Complement.L, 0, 1, 1)
    with pytest.raises(ValueError):
        cmap.apply(ExtendedPoint(0, 0, 2, Complement.L))


def _yp_cleared_product(case, l1, l2):
    """The localized-ring product with each case D factor cleared by one
    power of yp, the larger of the powers of y and p it needs."""
    factors, total_rp = [], 0
    for elt in (l1, l2):
        if case is Complement.L:
            ry, rp = max(0, -elt.y_exp), 0
        elif case is Complement.C:
            ry, rp = 0, max(0, -elt.p_exp)
        else:
            ry = rp = max(0, -elt.y_exp, -elt.p_exp)
        if elt.degree + 2 * rp + ry == 0:
            if case is Complement.C:
                rp += 1
            elif case is Complement.L:
                ry += 1
            else:
                ry, rp = ry + 1, rp + 1
        total_rp += rp
        d_num = abs(elt.a) + 2 * (elt.p_exp + rp) + (elt.y_exp + ry)
        factors.append(q_monomial(QBasisIndex(elt.a, elt.p_exp + rp, d_num)))
    expansion = expand_in_qbasis(multiply(factors[0], factors[1]))
    return {(idx.a, idx.i - total_rp): c for idx, c in expansion.items()}


def test_clearing_y_and_p_apart_matches_the_yp_clearing():
    # the window of verify.wrapped(4): d1 + d2 <= 4, |a| <= d + 2, |i| <= 2
    for case in Complement:
        for d1 in range(5):
            for d2 in range(5 - d1):
                for q1 in wr.wrapped_basis(case, d1, a_max=d1 + 2, i_max=2):
                    for q2 in wr.wrapped_basis(case, d2, a_max=d2 + 2, i_max=2):
                        l1, l2 = wr.rational_function(q1), wr.rational_function(q2)
                        assert wr.laurent_product_in_qbasis(
                            case, l1, l2
                        ) == _yp_cleared_product(case, l1, l2)
    # p^-2 y is cleared by p^2 alone, where the yp clearing took (yp)^2
    assert wr._clearing(Complement.D, wr.LaurentElement(0, -2, 1)) == (0, 2)
    assert wr._clearing(Complement.D, wr.LaurentElement(1, 1, -3)) == (3, 0)
