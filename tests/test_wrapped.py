"""Wrapped bases and products against the localized-ring oracle."""

import hashlib
import math
from fractions import Fraction

import pytest

from affinefloer import verify
from affinefloer import wrapped as wr
from affinefloer.affine import FractionalPoint
from affinefloer.floer import k_value_cp2
from affinefloer.polyring import QBasisIndex, expand_in_qbasis, multiply, q_monomial
from affinefloer.wrapped import Complement
from support import e_element, wrap_step


def _continuation(case, r, q):
    """The image of q under the continuation map of level r, the product
    with e_r, or None unless that product is one term with coefficient 1."""
    product = wr.wrapped_product(case, e_element(case, r), q)
    if list(product.values()) != [1]:
        return None
    ((a, i),) = product
    return FractionalPoint(a, i, q.d + r)


def _chart(q):
    """Chart point (a/d, -i/d) of a wrapped generator of positive degree."""
    return (Fraction(q.a, q.d), Fraction(-q.i, q.d))


# Generators each case rejects, with the message: a negative degree in every
# case, and a depth outside the case-L and case-C rules.
_REJECTED = [
    (Complement.L, FractionalPoint(0, -1, 1), "depth i=-1 violates the case-L rule for (a=0, d=1)"),
    (Complement.C, FractionalPoint(0, 1, 1), "depth i=1 violates the case-C rule for (a=0, d=1)"),
    (Complement.L, FractionalPoint(0, 0, -1), "degree must be nonnegative"),
    (Complement.C, FractionalPoint(0, 0, -1), "degree must be nonnegative"),
    (Complement.D, FractionalPoint(2, 5, -1), "degree must be nonnegative"),
]


def test_case_depth_rules():
    for case, q in (
        (Complement.L, FractionalPoint(0, 5, 1)),
        (Complement.C, FractionalPoint(0, -5, 1)),
        (Complement.D, FractionalPoint(7, -3, 0)),
    ):
        assert q in wr.wrapped_basis(case, q.d, a_max=abs(q.a), i_max=abs(q.i))
        assert wr.wrapped_product(case, q, FractionalPoint(0, 0, 0)) == {(q.a, q.i): 1}
        step = wrap_step(case)
        image = _continuation(case, step, q)
        assert image == (q.a, q.i + e_element(case, step).i, q.d + step)


@pytest.mark.parametrize("case, q, message", _REJECTED)
def test_case_depth_rules_reject_at_the_point_of_use(case, q, message):
    unit = FractionalPoint(0, 0, 0)
    for run in (
        lambda: wr.wrapped_product(case, q, unit),
        lambda: wr.wrapped_product(case, unit, q),
        lambda: _continuation(case, wrap_step(case), q),
    ):
        with pytest.raises(ValueError) as info:
            run()
        assert str(info.value) == message
    if q.d < 0:
        with pytest.raises(ValueError, match="^degree must be nonnegative$"):
            wr.wrapped_basis(case, q.d, a_max=3, i_max=3)
    else:
        assert q not in wr.wrapped_basis(case, q.d, a_max=3, i_max=3)


@pytest.mark.parametrize(
    "bad, other",
    [
        (FractionalPoint(1.0, 0, 1), FractionalPoint(-1, 0, 1)),
        (FractionalPoint(True, 0, 1), FractionalPoint(-1, 0, 1)),
        # refused before the other generator's degree is checked
        (FractionalPoint(1.0, 0, 1), FractionalPoint(0, 0, -1)),
    ],
    ids=["float", "bool", "before-the-degree"],
)
def test_a_generator_with_a_non_int_entry_is_refused(bad, other):
    message = f"wrapped generator must be ints, got {bad!r}"
    for q2, q1 in ((bad, other), (other, bad)):
        with pytest.raises(ValueError) as refused:
            wr.wrapped_product(Complement.D, q2, q1)
        assert str(refused.value) == message


def _depth_ok_by_case(case, a, i, d):
    """The depth rule as per-case branches: i >= 0 (L), 2i <= d - |a| (C),
    any i (D)."""
    if case is Complement.L:
        return i >= 0
    if case is Complement.C:
        return 2 * i <= d - abs(a)
    return True


def _clearing_by_case(case, elt):
    """The clearing powers as per-case branches: y in L, p in C, y and p
    apart in D."""
    ry = max(0, -elt.y_exp) if case is not Complement.C else 0
    rp = max(0, -elt.p_exp) if case is not Complement.L else 0
    return ry, rp


def test_flag_rules_equal_the_per_case_branches():
    assert [(c.inverts_y, c.inverts_p) for c in Complement] == [
        (True, False),
        (False, True),
        (True, True),
    ]
    for case in Complement:
        for a in range(-8, 9):
            for i in range(-8, 9):
                for d in range(9):
                    assert wr._depth_ok(case, a, i, d) == _depth_ok_by_case(case, a, i, d)
                    elt = wr.rational_function(FractionalPoint(a, i, d))
                    assert wr._clearing(case, elt) == _clearing_by_case(case, elt), elt


def test_wrap_steps():
    assert wrap_step(Complement.L) == 1
    assert wrap_step(Complement.C) == 2
    assert wrap_step(Complement.D) == 3


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
    assert wr.rational_function(FractionalPoint(0, 1, 0)) == wr.LaurentElement(0, 1, -2)
    assert wr.rational_function(FractionalPoint(0, -1, 0)) == wr.LaurentElement(0, -1, 2)
    assert wr.rational_function(FractionalPoint(0, 0, 0)) == wr.LaurentElement(0, 0, 0)
    assert wr.rational_function(FractionalPoint(-2, 1, 4)) == wr.LaurentElement(-2, 1, 0)


def test_rational_function_bijective_on_window():
    for case in Complement:
        window = wr.wrapped_basis(case, 3, a_max=4, i_max=3)
        elements = [wr.rational_function(p) for p in window]
        assert len(set(elements)) == len(window)
        for p, elt in zip(window, elements):
            assert (elt.a, elt.p_exp, elt.degree) == (p.a, p.i, p.d)


def test_wrapped_product_worked_examples():
    # case D: x * zp = y^2 p + p^2
    q1 = FractionalPoint(-1, 0, 1)
    q2 = FractionalPoint(1, 1, 1)
    assert wr.wrapped_product(Complement.D, q2, q1) == {(0, 1): 1, (0, 2): 1}
    # case L: p^2 y^-3 times y = p^2 y^-2
    q1 = FractionalPoint(0, 2, 1)
    q2 = FractionalPoint(0, 0, 1)
    assert wr.wrapped_product(Complement.L, q2, q1) == {(0, 2): 1}
    # unit acts trivially
    for case in Complement:
        q = FractionalPoint(2, 0, 3)
        e0 = FractionalPoint(0, 0, 0)
        assert wr.wrapped_product(case, q, e0) == {(2, 0): 1}


def test_wrapped_product_restricted_to_compact_range_is_mu2():
    for a, i, n, b, j, m, want in verify._pairs(4):
        assert isinstance(want, dict), want
        for case in Complement:
            if wr._depth_ok(case, a, i, n) and wr._depth_ok(case, b, j, m):
                got = wr.wrapped_product(case, FractionalPoint(b, j, m), FractionalPoint(a, i, n))
                assert got == want


def _one_too_many(monkeypatch):
    """Plant a `wall_count` that counts one more than the true count."""
    count = wr.wall_count
    monkeypatch.setattr(wr, "wall_count", lambda *args: count(*args) + 1)


@pytest.mark.parametrize(
    "q1, q2, message",
    [
        (FractionalPoint(1, 0, 1), FractionalPoint(-1, 0, 1), "output (0,2) at degree 2"),
        (FractionalPoint(1, 0, 1), FractionalPoint(1, 0, 1), "output (2,1) at degree 2"),
        (FractionalPoint(0, 0, 0), FractionalPoint(0, 0, 0), "output (0,1) at degree 0"),
        (FractionalPoint(-2, -1, 1), FractionalPoint(1, 0, 1), "output (-1,1) at degree 2"),
    ],
    ids=["opposite-columns", "same-columns", "units", "negative-depth"],
)
def test_a_wall_count_one_too_many_names_the_term_past_the_case_c_rule(
    q1, q2, message, monkeypatch
):
    _one_too_many(monkeypatch)
    with pytest.raises(ArithmeticError) as exc:
        wr.wrapped_product(Complement.C, q2, q1)
    assert str(exc.value) == f"{message} violates the case rule"


def _first_term_past_the_rule(case, q1, q2, k):
    """The first output term (a, i0 + s), s = 0..k, outside the case's
    depth rule, by a scan over every term; None if all are inside."""
    a, d = q1.a + q2.a, q1.d + q2.d
    for s in range(k + 1):
        if not _depth_ok_by_case(case, a, q1.i + q2.i + s, d):
            return a, q1.i + q2.i + s
    return None


def _assert_the_guard_names_the_scanned_term(case, q1, q2, k):
    """wrapped_product(case, q2, q1), whose k is k, returns the row C(k, s)
    or names the term `_first_term_past_the_rule` finds; True if it raised."""
    bad = _first_term_past_the_rule(case, q1, q2, k)
    if bad is None:
        want = {(q1.a + q2.a, q1.i + q2.i + s): math.comb(k, s) for s in range(k + 1)}
        assert wr.wrapped_product(case, q2, q1) == want
        return False
    with pytest.raises(ArithmeticError) as exc:
        wr.wrapped_product(case, q2, q1)
    d = q1.d + q2.d
    assert str(exc.value) == f"output ({bad[0]},{bad[1]}) at degree {d} violates the case rule"
    return True


@pytest.mark.parametrize("extra", [2, 3])
def test_a_wall_count_several_too_many_names_the_first_term_past_the_case_c_rule(
    extra, monkeypatch
):
    count = wr.wall_count
    monkeypatch.setattr(wr, "wall_count", lambda *args: count(*args) + extra)
    fired = inside = 0
    for d1 in range(4):
        for d2 in range(4 - d1):
            for q1 in wr.wrapped_basis(Complement.C, d1, a_max=d1 + 2, i_max=2):
                for q2 in wr.wrapped_basis(Complement.C, d2, a_max=d2 + 2, i_max=2):
                    k = k_value_cp2(q1.a, q2.a) + extra
                    if _assert_the_guard_names_the_scanned_term(Complement.C, q1, q2, k):
                        fired += 1
                        bad = _first_term_past_the_rule(Complement.C, q1, q2, k)
                        inside += bad[1] < q1.i + q2.i + k
    # some first bad terms sit inside the row, not at its last term
    assert fired > inside > 0


def test_a_negative_start_depth_is_named_at_the_start(monkeypatch):
    # with the generators' own check planted away, the start depth i0 may
    # leave the p rule (case L) or the y rule (case C) itself; the guard then
    # names (a, i0), the scan's first term
    monkeypatch.setattr(wr, "_check_point", lambda *args: None)
    at_start = {case: 0 for case in Complement}
    for case in Complement:
        for d1 in range(3):
            for d2 in range(3 - d1):
                for q1 in wr.wrapped_basis(Complement.D, d1, a_max=d1 + 2, i_max=2):
                    for q2 in wr.wrapped_basis(Complement.D, d2, a_max=d2 + 2, i_max=2):
                        k = k_value_cp2(q1.a, q2.a)
                        if _assert_the_guard_names_the_scanned_term(case, q1, q2, k):
                            bad = _first_term_past_the_rule(case, q1, q2, k)
                            at_start[case] += bad[1] == q1.i + q2.i
    assert at_start[Complement.L] > 0 and at_start[Complement.C] > 0
    assert at_start[Complement.D] == 0
    with pytest.raises(ArithmeticError, match=r"^output \(0,-1\) at degree 2 violates"):
        wr.wrapped_product(Complement.L, FractionalPoint(0, 0, 1), FractionalPoint(0, -1, 1))


@pytest.mark.parametrize("case", list(Complement))
def test_the_closure_guard_fires_exactly_where_the_extra_term_leaves_the_case(
    case, monkeypatch
):
    # With k one too many the terms s <= k stay in the case, so the guard
    # names the extra term s = k + 1.  Only case C bounds depths from above,
    # so only there can it fire; L and D return the extra term.
    true = {}
    for d1 in range(4):
        for d2 in range(4 - d1):
            for q1 in wr.wrapped_basis(case, d1, a_max=d1 + 2, i_max=2):
                for q2 in wr.wrapped_basis(case, d2, a_max=d2 + 2, i_max=2):
                    true[q1, q2] = wr.wrapped_product(case, q2, q1)
    _one_too_many(monkeypatch)
    fired = 0
    for (q1, q2), product in true.items():
        a, i, d = q1.a + q2.a, q1.i + q2.i + len(product), q1.d + q2.d
        if wr._depth_ok(case, a, i, d):
            assert wr.wrapped_product(case, q2, q1) == {
                key: math.comb(len(product), s) for s, key in enumerate([*product, (a, i)])
            }
            continue
        fired += 1
        with pytest.raises(ArithmeticError) as exc:
            wr.wrapped_product(case, q2, q1)
        assert str(exc.value) == f"output ({a},{i}) at degree {d} violates the case rule"
    assert (fired > 0) == (case is Complement.C)


def test_wrapped_k_is_the_closed_form_on_cp2():
    # k comes from the per-wall count mu2 uses; with cp2's wall at eta = 0 it
    # ignores the degrees, so degree 0 and columns beyond |a| <= d count too.
    # Case D inverts y and p, so every generator and output depth is allowed.
    for n in range(6):
        for m in range(6):
            for a in range(-12, 13):
                for b in range(-12, 13):
                    k = k_value_cp2(a, b)
                    got = wr.wrapped_product(
                        Complement.D, FractionalPoint(b, 0, m), FractionalPoint(a, 0, n)
                    )
                    assert got == {(a + b, s): math.comb(k, s) for s in range(k + 1)}


# sha256 of the sorted reprs (case, q1, q2, sorted terms) of every wrapped
# product in the window of verify.wrapped(3)
_WRAPPED_3_PRODUCTS = (18812, "6d5067e4c054bc990714b86ce5d179e4cb3dc2a8c5e2333fc80786d32be4c493")


def test_every_wrapped_product_of_the_verify_window_is_pinned():
    reprs = []
    for case in Complement:
        for d1 in range(4):
            for d2 in range(4 - d1):
                for q1 in wr.wrapped_basis(case, d1, a_max=d1 + 2, i_max=2):
                    for q2 in wr.wrapped_basis(case, d2, a_max=d2 + 2, i_max=2):
                        product = wr.wrapped_product(case, q2, q1)
                        reprs.append(repr((case.name, tuple(q1), tuple(q2), sorted(product.items()))))
    digest = hashlib.sha256("\n".join(sorted(reprs)).encode()).hexdigest()
    assert (len(reprs), digest) == _WRAPPED_3_PRODUCTS


def test_e_element_examples():
    assert e_element(Complement.L, 1) == FractionalPoint(0, 0, 1)
    assert wr.rational_function(e_element(Complement.L, 1)) == wr.LaurentElement(0, 0, 1)
    assert e_element(Complement.C, 2) == FractionalPoint(0, 1, 2)
    assert wr.rational_function(e_element(Complement.C, 2)) == wr.LaurentElement(0, 1, 0)
    assert e_element(Complement.D, 3) == FractionalPoint(0, 1, 3)
    assert wr.rational_function(e_element(Complement.D, 3)) == wr.LaurentElement(0, 1, 1)
    with pytest.raises(ValueError):
        e_element(Complement.C, 3)
    with pytest.raises(ValueError):
        e_element(Complement.D, -3)


def test_e_element_group_law():
    for case in Complement:
        step = wrap_step(case)
        for r1 in range(step, 7, step):
            for r2 in range(step, 7, step):
                prod = wr.wrapped_product(
                    case, e_element(case, r2), e_element(case, r1)
                )
                e_sum = e_element(case, r1 + r2)
                assert prod == {(e_sum.a, e_sum.i): 1}
                laurent = wr.laurent_product_in_qbasis(
                    case,
                    wr.rational_function(e_element(case, r1)),
                    wr.rational_function(e_element(case, r2)),
                )
                assert laurent == {(e_sum.a, e_sum.i): 1}


def test_continuation_is_composition_with_e():
    # one term with coefficient 1, shifted in depth by [p]*r/step
    for case in Complement:
        step = wrap_step(case)
        for r in range(step, 7, step):
            e = e_element(case, r)
            for q in wr.wrapped_basis(case, 2, a_max=3, i_max=2):
                want = {(q.a, q.i + case.inverts_p * r // step): 1}
                assert wr.wrapped_product(case, e, q) == want


def test_continuation_is_dilation_with_case_center():
    centers = {
        Complement.L: (Fraction(0), Fraction(0)),
        Complement.C: (Fraction(0), Fraction(-1, 2)),
        Complement.D: (Fraction(0), Fraction(-1, 3)),
    }
    for case in Complement:
        step = wrap_step(case)
        cx, cy = centers[case]
        for r in range(step, 7, step):
            factor = Fraction(2, 2 + r)
            for q in wr.wrapped_basis(case, 2, a_max=3, i_max=2):
                src, dst = _chart(q), _chart(_continuation(case, r, q))
                assert dst[0] == cx + (src[0] - cx) * factor
                assert dst[1] == cy + (src[1] - cy) * factor


def test_continuation_directed_system():
    for case in Complement:
        step = wrap_step(case)
        for r1 in range(step, 7, step):
            for r2 in range(step, 7, step):
                for q in wr.wrapped_basis(case, 1, a_max=2, i_max=2):
                    stepwise = _continuation(case, r2, _continuation(case, r1, q))
                    direct = _continuation(case, r1 + r2, q)
                    assert direct is not None and stepwise == direct


def test_continuation_rejects_bad_levels():
    # the level is a positive multiple of the wrap step
    for case in Complement:
        step = wrap_step(case)
        for r in range(-step, 4 * step + 1):
            if r > 0 and r % step == 0:
                assert e_element(case, r).d == r
                continue
            with pytest.raises(ValueError, match=f"^r must be a positive multiple of {step}$"):
                _continuation(case, r, FractionalPoint(0, 0, 1))


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


def test_a_unit_numerator_is_the_unit_index():
    # case L clears y^-1 by y alone, to the unit numerator (0, 0, 0): y^-1 * y
    # is the unit of degree 0, the wrapped product of two units
    y_inverse, y = wr.LaurentElement(0, 0, -1), wr.LaurentElement(0, 0, 1)
    assert wr._clearing(Complement.L, y_inverse) == (1, 0)
    unit = FractionalPoint(0, 0, 0)
    assert wr.laurent_product_in_qbasis(Complement.L, y_inverse, y) == {(0, 0): 1}
    assert wr.wrapped_product(Complement.L, unit, unit) == {(0, 0): 1}
    # the unit generator is its own numerator in every case and multiplies as 1
    for case in Complement:
        assert wr._clearing(case, wr.rational_function(unit)) == (0, 0)
        for q in wr.wrapped_basis(case, 2, a_max=4, i_max=2):
            want = {(q.a, q.i): 1}
            assert wr.wrapped_product(case, q, unit) == want
            assert wr.laurent_product_in_qbasis(
                case, wr.rational_function(unit), wr.rational_function(q)
            ) == want


@pytest.mark.parametrize("case", list(Complement))
def test_an_under_cleared_factor_is_an_invalid_q_index(monkeypatch, case):
    original = wr._clearing

    def one_short(case, elt):
        ry, rp = original(case, elt)
        return (ry, rp - 1) if rp else (max(0, ry - 1), rp)

    monkeypatch.setattr(wr, "_clearing", one_short)
    # y^-1 (L, D) and p^-1 y^3 (C) each need one factor more than one_short gives
    elt = wr.LaurentElement(0, -1, 3) if case is Complement.C else wr.LaurentElement(0, 0, -1)
    with pytest.raises(ValueError):
        wr.laurent_product_in_qbasis(case, elt, wr.LaurentElement(0, 0, 1))
