"""Triangle products: closed-form counts, the geometric covering rule, and
the algebra laws of the product."""

import json
import math
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest

from affinefloer import affine, floer
from affinefloer.floer import basis_vector, index_range, k_value_cp2, mu2, ring_product
from support import polygon_to_json


def test_index_range_examples():
    assert index_range(0, 1) == {(-1, 0), (0, 0), (1, 0)}
    assert {i for (a, i) in index_range(0, 2) if a == 0} == {0, 1}
    assert index_range(3, 4) == index_range(0, 1)
    assert index_range(2, 2) == {(0, 0)}
    with pytest.raises(ValueError):
        index_range(2, 1)


def test_k_value_examples():
    assert k_value_cp2(-1, 2) == 1
    assert k_value_cp2(1, 2) == 0
    assert k_value_cp2(0, -7) == 0
    assert k_value_cp2(-3, 3) == 3


def test_mu2_worked_examples():
    # x * z = y^2 + p
    out = mu2(basis_vector(1, 2, 1, 0), basis_vector(0, 1, -1, 0))
    assert out.coeffs() == {(0, 0): 1, (0, 1): 1}
    # x^2 * z^2 = y^4 + 2 y^2 p + p^2
    out = mu2(basis_vector(2, 4, 2, 0), basis_vector(0, 2, -2, 0))
    assert out.coeffs() == {(0, 0): 1, (0, 1): 2, (0, 2): 1}
    # y * y = y^2
    out = mu2(basis_vector(1, 2, 0, 0), basis_vector(0, 1, 0, 0))
    assert out.coeffs() == {(0, 0): 1}


def test_mu2_rejects_non_composable_and_inadmissible():
    polygon = affine.cp2_model()
    for _ in range(2):  # errors are never memoized: the second call fails too
        with pytest.raises(ValueError) as exc:
            mu2(basis_vector(2, 3, 0, 0), basis_vector(0, 1, 0, 0), polygon)
        assert str(exc.value) == "not composable: q1 ends at level 1, q2 starts at 2"
        with pytest.raises(ValueError) as exc:
            ring_product(basis_vector(0, 1, 0, 0), basis_vector(2, 3, 0, 0), polygon)
        assert str(exc.value) == "not composable: q1 ends at level 1, q2 starts at 2"
        with pytest.raises(ValueError) as exc:
            mu2(basis_vector(1, 2, 0, 0), basis_vector(0, 1, 2, 0), polygon)
        assert str(exc.value) == "q_(2,0) with denominator 1 is not admissible"
    assert not polygon._products


@pytest.mark.parametrize(
    "q, message",
    [
        (basis_vector(1, 1, 1, 0), "q_(1,0) with denominator 0 is not admissible"),
        (basis_vector(2, 1, 0, 0), "denominator must be nonnegative"),
    ],
    ids=["non-unit-at-denominator-0", "negative-denominator"],
)
def test_column_table_decides_the_unit_rule_and_the_sign(q, message):
    # a basis vector is not validated when built: the column table rejects it
    # in every product, and no failed product is memoized
    polygon = affine.cp2_model()
    right = basis_vector(q.d2, q.d2 + 1, 0, 0)
    for _ in range(2):
        with pytest.raises(ValueError) as exc:
            mu2(right, q, polygon)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            ring_product(q, right, polygon)
        assert str(exc.value) == message
    assert not polygon._products


def test_unit_laws():
    q = basis_vector(0, 3, 2, 0)
    assert mu2(basis_vector(3, 3, 0, 0), q).coeffs() == {(2, 0): 1}
    assert mu2(q, basis_vector(0, 0, 0, 0)).coeffs() == {(2, 0): 1}
    assert ring_product(basis_vector(0, 0, 0, 0), q) == ring_product(q, basis_vector(3, 3, 0, 0))


def test_ring_product_convention_and_bilinearity():
    x = basis_vector(0, 1, -1, 0)
    z = basis_vector(1, 2, 1, 0)
    assert ring_product(x, z).coeffs() == {(0, 0): 1, (0, 1): 1}
    two_x = floer.FormalSum.from_dict(0, 1, {(-1, 0): 2})
    three_z = floer.FormalSum.from_dict(1, 2, {(1, 0): 3})
    six_xz = {key: 6 * c for key, c in ring_product(x, z).coeffs().items()}
    assert ring_product(two_x, three_z).coeffs() == six_xz


def test_column_grading():
    for n in range(1, 5):
        for m in range(1, 5):
            for (a, i) in index_range(0, n):
                for (b, j) in index_range(n, n + m):
                    out = mu2(basis_vector(n, n + m, b, j), basis_vector(0, n, a, i))
                    assert all(col == a + b for (col, _), _ in out.terms)


def test_closure_outputs_admissible():
    for n in range(1, 9):
        for m in range(1, 9):
            out_range = index_range(0, n + m)
            for (a, i) in index_range(0, n):
                for (b, j) in index_range(n, n + m):
                    out = mu2(basis_vector(n, n + m, b, j), basis_vector(0, n, a, i))
                    assert set(out.coeffs()) <= out_range


def test_coefficient_symmetry_under_swapping_inputs():
    for n in range(1, 5):
        for m in range(1, 5):
            for (a, i) in index_range(0, n):
                for (b, j) in index_range(n, n + m):
                    lhs = mu2(basis_vector(n, n + m, b, j), basis_vector(0, n, a, i))
                    rhs = mu2(basis_vector(m, n + m, a, i), basis_vector(0, m, b, j))
                    assert [c for _, c in lhs.terms] == [c for _, c in rhs.terms]


def test_critical_cover_matches_closed_form_on_cp2():
    m = affine.cp2_model()
    for n in range(1, 9):
        for mm in range(1, 9):
            for a in range(-min(n, 8), min(n, 8) + 1):
                for b in range(-min(mm, 8), min(mm, 8) + 1):
                    cover = floer.critical_cover(m, a, b, n, mm)
                    assert len(cover.k_list) == 1
                    assert cover.total == k_value_cp2(a, b)


def _orient(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _recount_cover(polygon, a, b, n, m):
    """Independent oracle: count half-integer heights whose point on each
    singular line is strictly interior to the section triangle, by
    orientation sign tests in integers, every coordinate scaled by
    2*n*m*(n+m)*q with q the denominator of the line's position."""
    counts = []
    for s in polygon.singularities:
        q = s.eta_pos.denominator
        scale = 2 * n * m * (n + m) * q
        verts = [
            (2 * a * m * (n + m) * q, 0),
            (2 * b * n * (n + m) * q, 2 * (a * m - n * b) * n * (n + m) * q),
            (2 * (a + b) * n * m * q, 0),
        ]
        ys = [v[1] for v in verts]
        eta = s.eta_pos.numerator * 2 * n * m * (n + m)
        count = 0
        twice_lo = 2 * (min(ys) // scale) - 3
        twice_hi = 2 * -(-max(ys) // scale) + 3
        for twice in range(twice_lo, twice_hi + 1, 2):
            point = (eta, twice * n * m * (n + m) * q)
            signs = [
                _orient(verts[t], verts[(t + 1) % 3], point) for t in range(3)
            ]
            if all(sg > 0 for sg in signs) or all(sg < 0 for sg in signs):
                count += 1
        counts.append(s.multiplicity * count)
    return tuple(counts)


def test_critical_cover_dp6_against_interior_point_recount():
    for widths in ((1, 1, 1), (2, 1, 3), (1, 3, 2)):
        d6 = affine.dp6_model(widths)
        for n in range(1, 4):
            for m in range(1, 4):
                for a in {a for a, _ in index_range(0, n, d6)}:
                    for b in {b for b, _ in index_range(0, m, d6)}:
                        cover = floer.critical_cover(d6, a, b, n, m)
                        assert cover.k_list == _recount_cover(d6, a, b, n, m)


def test_critical_cover_dp6_spans_both_singularities():
    d6 = affine.dp6_model()
    assert floer.critical_cover(d6, 0, 9, 3, 3).k_list == (3, 3)
    out = mu2(basis_vector(3, 6, 9, 0), basis_vector(0, 3, 0, 0), d6)
    assert [c for _, c in out.terms] == [1, 6, 15, 20, 15, 6, 1]


def test_critical_cover_rejects_non_integral_positions():
    m = affine.cp2_model()
    shifted = replace(
        m, singularities=(replace(m.singularities[0], eta_pos=Fraction(1, 3)),)
    )
    with pytest.raises(ValueError, match="integers"):
        floer.critical_cover(shifted, -1, 1, 1, 1)


def test_cp2_index_range_and_products_match_closed_form():
    for n in range(1, 7):
        assert index_range(0, n) == {
            (a, i) for a in range(-n, n + 1) for i in range((n - abs(a)) // 2 + 1)
        }
    for n in range(1, 7):
        for m in range(1, 7):
            for (a, i) in index_range(0, n):
                for (b, j) in index_range(n, n + m):
                    k = k_value_cp2(a, b)
                    out = mu2(basis_vector(n, n + m, b, j), basis_vector(0, n, a, i))
                    assert out.coeffs() == {
                        (a + b, i + j + s): math.comb(k, s) for s in range(k + 1)
                    }


def test_dp6_rejects_columns_outside_range():
    d6 = affine.dp6_model()
    with pytest.raises(ValueError):
        mu2(basis_vector(1, 2, 0, 0), basis_vector(0, 1, -1, 0), d6)


def test_dp6_products_close():
    d6 = affine.dp6_model()
    for n in range(1, 4):
        for m in range(1, 4):
            for (a, i) in sorted(index_range(0, n, d6)):
                for (b, j) in sorted(index_range(n, n + m, d6)):
                    mu2(basis_vector(n, n + m, b, j), basis_vector(0, n, a, i), d6)


def test_associativity_small():
    for n1, n2, n3 in ((1, 1, 1), (1, 2, 1), (2, 1, 2)):
        for (a1, i1) in index_range(0, n1):
            q1 = basis_vector(0, n1, a1, i1)
            for (a2, i2) in index_range(n1, n1 + n2):
                q2 = basis_vector(n1, n1 + n2, a2, i2)
                left = ring_product(q1, q2)
                for (a3, i3) in index_range(n1 + n2, n1 + n2 + n3):
                    q3 = basis_vector(n1 + n2, n1 + n2 + n3, a3, i3)
                    assert ring_product(left, q3) == ring_product(q1, ring_product(q2, q3))


def test_formal_sum_rejects_attribute_assignment():
    s = floer.FormalSum.from_dict(0, 2, {(-2, 0): 3, (0, 1): -1})
    for name in ("d1", "d2", "terms", "extra"):
        with pytest.raises(AttributeError):
            setattr(s, name, 0)
    assert s == floer.FormalSum(0, 2, (((-2, 0), 3), ((0, 1), -1)))


def test_basis_vectors_with_int_arguments_are_interned():
    q = basis_vector(0, 3, -2, 1)
    assert basis_vector(0, 3, -2, 1) is q
    assert q == floer.FormalSum(0, 3, (((-2, 1), 1),))
    assert basis_vector(1, 4, -2, 1) is not q


@pytest.mark.parametrize("other", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize("other_first", [True, False], ids=["other-first", "int-first"])
def test_an_equal_argument_of_another_type_is_never_interned(monkeypatch, other, other_first):
    monkeypatch.setattr(floer, "_basis_vectors", {})
    if other_first:
        basis_vector(0, 1, other, 0)
    q = basis_vector(0, 1, 1, 0)
    assert basis_vector(0, 1, other, 0) is not q
    assert json.dumps(floer.sum_to_json(q)) == (
        '{"d1": 0, "d2": 1, "terms": [{"a": 1, "i": 0, "c": 1}]}'
    )
    assert list(floer._basis_vectors) == [(0, 1, 1, 0)]


def test_basis_vector_equals_the_public_constructor():
    q = basis_vector(0, 2, 0, 1)
    r = floer.FormalSum(0, 2, (((0, 1), 1),))
    assert q == r and hash(q) == hash(r)
    assert type(q) is type(r) is floer.FormalSum
    assert (q.d1, q.d2, q.terms) == (0, 2, (((0, 1), 1),))
    out = mu2(basis_vector(2, 4, 2, 0), q)
    assert type(out) is floer.FormalSum and out.d1 == 0 and out.d2 == 4


def test_formal_sum_json_round_trip():
    out = mu2(basis_vector(2, 4, 2, 0), basis_vector(0, 2, -2, 0))
    data = floer.sum_to_json(out)
    assert data == {
        "d1": 0,
        "d2": 4,
        "terms": [
            {"a": 0, "i": 0, "c": 1},
            {"a": 0, "i": 1, "c": 2},
            {"a": 0, "i": 2, "c": 1},
        ],
    }


def test_ring_product_calls_module_mu2(monkeypatch):
    # ring_product must reach mu2 through the module attribute, so a
    # replacement installed there (a planted fault, a tracer) is what it runs
    x, z = basis_vector(0, 1, -1, 0), basis_vector(1, 2, 1, 0)
    original = floer.mu2

    def doubled(q2, q1, polygon=affine.CP2):
        out = original(q2, q1, polygon)
        return floer.FormalSum(out.d1, out.d2, tuple((k, 2 * c) for k, c in out.terms))

    monkeypatch.setattr(floer, "mu2", doubled)
    assert ring_product(x, z).coeffs() == {(0, 0): 2, (0, 1): 2}


# -- the per-polygon product memo ----------------------------------------------


def _all_pairs(polygon, max_n):
    for n in range(1, max_n + 1):
        for m in range(1, max_n + 1):
            for (a, i) in sorted(index_range(0, n, polygon)):
                for (b, j) in sorted(index_range(n, n + m, polygon)):
                    yield a, i, n, b, j, m


@pytest.mark.parametrize(
    "make, max_n",
    [
        (affine.cp2_model, 6),
        (lambda: affine.dp6_model((1, 1, 1)), 2),
        (lambda: affine.dp6_model((2, 1, 3)), 2),
        (lambda: affine.dp6_model((1, 3, 2)), 2),
    ],
    ids=["cp2", "dp6-111", "dp6-213", "dp6-132"],
)
def test_memo_returns_what_the_first_call_computed(make, max_n, monkeypatch):
    polygon = make()
    pairs = list(_all_pairs(polygon, max_n))
    cold = [
        mu2(basis_vector(n, n + m, b, j), basis_vector(0, n, a, i), polygon).coeffs()
        for a, i, n, b, j, m in pairs
    ]
    assert len(polygon._products) == len(pairs)
    # k is counted once per column pair, whatever the depths
    assert len(polygon._covers) == len({(a, b, n, m) for a, _, n, b, _, m in pairs})

    def no_recount(*args):
        raise AssertionError("a memoized product was recounted")

    monkeypatch.setattr(floer, "critical_cover", no_recount)
    for (a, i, n, b, j, m), want in zip(pairs, cold):
        # the key leaves out the levels: a shifted pair is the same product
        warm = mu2(basis_vector(n + 5, n + m + 5, b, j), basis_vector(5, n + 5, a, i), polygon)
        assert (warm.d1, warm.d2) == (5, n + m + 5)
        assert warm.coeffs() == want
    assert len(polygon._products) == len(pairs)


def test_equal_polygons_do_not_share_a_memo():
    first, second = affine.cp2_model(), affine.cp2_model()
    mu2(basis_vector(1, 2, 1, 0), basis_vector(0, 1, -1, 0), first)
    assert first._products and first._covers
    assert not second._products and not second._covers
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second)
    assert "_products" not in repr(first) and "_covers" not in repr(first)
    data = polygon_to_json(first)
    assert data == polygon_to_json(second)
    loaded = affine.polygon_from_json(data)
    assert loaded == first and not loaded._products and not loaded._covers


@pytest.mark.parametrize(
    "polygon, args, message",
    [
        (affine.cp2_model(), (2, 0, 1, 1), "column 2 not admissible for denominator 1"),
        (affine.cp2_model(), (0, 0, 0, 1), "both denominators must be positive"),
        (affine.cp2_model(), (0, 0, 1, -1), "both denominators must be positive"),
        (
            replace(
                affine.cp2_model(),
                singularities=(affine.Singularity(Fraction(1, 3), Fraction(-1, 4)),),
            ),
            (-1, 1, 1, 1),
            "are not integers",
        ),
    ],
    ids=["inadmissible-column", "zero-denominator", "negative-denominator", "non-integral"],
)
def test_failed_cover_count_raises_on_every_call(polygon, args, message):
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            floer.critical_cover(polygon, *args)
    assert not polygon._covers


def test_a_count_from_a_float_column_is_not_stored():
    # a float column counts a float k; stored under the equal int key it
    # would reach mu2, where math.comb rejects it
    polygon = affine.cp2_model()
    assert floer.critical_cover(polygon, -1.0, 1, 1, 1).k_list == (1.0,)
    assert not polygon._covers
    (k,) = floer.critical_cover(polygon, -1, 1, 1, 1).k_list
    assert type(k) is int
    assert mu2(basis_vector(1, 2, 1, 0), basis_vector(0, 1, -1, 0), polygon).coeffs() == {
        (0, 0): 1,
        (0, 1): 1,
    }


@pytest.mark.parametrize("float_first", [True, False], ids=["float-first", "int-first"])
def test_a_product_row_from_a_float_depth_is_not_stored(float_first):
    # a float depth builds float output depths; stored under the equal int
    # key they would reach the int request and its JSON
    polygon = affine.cp2_model()
    q2 = basis_vector(1, 2, 1, 0)

    def product(depth):
        return mu2(q2, basis_vector(0, 1, -1, depth), polygon)

    if float_first:
        assert product(0.0).coeffs() == {(0, 0.0): 1, (0, 1.0): 1}
    out = product(0)
    assert json.dumps(floer.sum_to_json(out)["terms"]) == (
        '[{"a": 0, "i": 0, "c": 1}, {"a": 0, "i": 1, "c": 1}]'
    )
    assert list(polygon._products) == [(-1, 0, 1, 1, 0, 1)]
    assert all(type(i) is int for (_, i), _ in polygon._products[(-1, 0, 1, 1, 0, 1)])
    product(0.0)
    assert len(polygon._products) == 1


@pytest.mark.parametrize(
    "eta, multiplicity, k",
    [(Fraction(0), 2, 4), (Fraction(1, 2), 1, 1)],
    ids=["doubled", "moved"],
)
def test_a_replaced_polygon_never_reads_a_stale_count(eta, multiplicity, k):
    # x^2 * z^2 on cp2 covers two critical values at eta = 0; doubling the
    # singularity or moving it to 1/2 changes k, and so must the count
    polygon = affine.cp2_model()
    assert floer.critical_cover(polygon, -2, 2, 2, 2).k_list == (2,)
    singularity = affine.Singularity(eta, Fraction(-1, 4), multiplicity)
    changed = replace(polygon, singularities=(singularity,))
    assert not changed._covers
    assert floer.critical_cover(changed, -2, 2, 2, 2).k_list == (k,)
    assert _recount_cover(changed, -2, 2, 2, 2) == (k,)
    assert polygon._covers[(-2, 2, 2, 2)].k_list == (2,)


def test_closure_violation_fails_on_every_call():
    # multiplicity 2 doubles k, which pushes x * z past the column's depth
    bad = replace(
        affine.cp2_model(),
        singularities=(affine.Singularity(Fraction(0), Fraction(-1, 4), 2),),
    )
    messages = []
    for _ in range(2):
        with pytest.raises(ArithmeticError) as exc:
            mu2(basis_vector(1, 2, 1, 0), basis_vector(0, 1, -1, 0), bad)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0] == (
        "product term q_(0,2) at denominator 2 is not admissible; instance violates closure"
    )
    assert not bad._products


@pytest.mark.parametrize(
    "polygon, x_terms, y_key, z_terms",
    [
        (affine.CP2, {(-2, 0): 3, (0, 1): -1, (1, 0): 2}, (1, 0), {(-1, 0): 1, (2, 0): 4}),
        (affine.dp6_model((1, 1, 1)), {(1, 0): 3, (2, 1): -1, (4, 2): 2}, (2, 0),
         {(0, 0): 1, (3, 1): 4}),
    ],
    ids=["cp2", "dp6-111"],
)
def test_ring_product_of_mixed_arguments_is_bilinear(polygon, x_terms, y_key, z_terms):
    x = floer.FormalSum.from_dict(0, 2, x_terms)
    y = basis_vector(2, 3, *y_key)
    z = floer.FormalSum.from_dict(3, 5, z_terms)

    def bilinear(left, right):
        acc = {}
        for qx, cx in left:
            for qy, cy in right:
                for key, c in mu2(qy, qx, polygon).terms:
                    acc[key] = acc.get(key, 0) + cx * cy * c
        return {key: c for key, c in acc.items() if c}

    def generators(s):
        return [(basis_vector(s.d1, s.d2, *key), c) for key, c in s.terms]

    xy = ring_product(x, y, polygon)
    assert xy.coeffs() == bilinear(generators(x), [(y, 1)])
    assert ring_product(y, z, polygon).coeffs() == bilinear([(y, 1)], generators(z))
    xyz = ring_product(xy, z, polygon)
    assert xyz.coeffs() == bilinear(generators(xy), generators(z))
    assert any(c > 1 for _, c in xyz.terms)  # term pairs merged into one key
    one, one_at_2 = basis_vector(0, 0, 0, 0), basis_vector(2, 2, 0, 0)
    assert ring_product(one, x, polygon) == x == ring_product(x, one_at_2, polygon)
    assert ring_product(one_at_2, y, polygon).coeffs() == {y_key: 1}


@pytest.mark.parametrize("c", [1, 3, -2, 0])
def test_ring_product_of_one_term_sums_scales_mu2(c):
    # a one-term product is mu2's sorted row scaled by the coefficient, with
    # no zero terms, in either argument position
    x = floer.FormalSum(0, 2, (((-2, 0), c),))
    z = basis_vector(2, 4, 2, 0)
    row = mu2(z, basis_vector(0, 2, -2, 0))
    want = floer.FormalSum(0, 4, tuple((key, c * v) for key, v in row.terms if c))
    assert ring_product(x, z) == want
    assert ring_product(basis_vector(0, 2, -2, 0), floer.FormalSum(2, 4, (((2, 0), c),))) == want
    assert [key for key, _ in want.terms] == sorted(key for key, _ in want.terms)


def _kink(polygon, a, n):
    """phi(a, n) = sum_t mu_t * max(0, a - n*c_t): the exponent of (1 + W) in
    the theta function of q_(a,i) at denominator n, kinked at each wall c_t."""
    return sum(s.multiplicity * max(0, a - n * s.eta_pos) for s in polygon.singularities)


@pytest.mark.parametrize(
    "make",
    [
        affine.cp2_model,
        *(partial(affine.dp6_model, w) for w in ((1, 1, 1), (2, 1, 3), (1, 3, 2))),
    ],
    ids=["cp2", "dp6-111", "dp6-213", "dp6-132"],
)
def test_kink_defect_equals_critical_cover(make):
    # the kink defect phi(a,n) + phi(b,m) - phi(a+b,n+m) is a second formula
    # for the cover count, sharing no cross-section geometry with it; each
    # pair is counted cold, then again from the memo, and on a second polygon
    # that has not counted it
    polygon, fresh = make(), make()
    pairs = 0
    for n in range(1, 5):
        for m in range(1, 5):
            for a, count_a in polygon.column_counts(n).items():
                for b, count_b in polygon.column_counts(m).items():
                    if not (count_a and count_b):
                        continue
                    defect = _kink(polygon, a, n) + _kink(polygon, b, m) - _kink(
                        polygon, a + b, n + m
                    )
                    assert (a, b, n, m) not in polygon._covers
                    cold = floer.critical_cover(polygon, a, b, n, m)
                    warm = floer.critical_cover(polygon, a, b, n, m)
                    assert warm is cold
                    other = floer.critical_cover(fresh, a, b, n, m)
                    assert defect == cold.total == other.total
                    pairs += 1
    assert len(polygon._covers) == pairs


def test_the_cover_record_carries_the_column_counts_it_was_read_with():
    d6 = affine.dp6_model((2, 1, 3))
    for n, m in ((1, 1), (1, 2), (2, 3)):
        for a, count_a in d6.column_counts(n).items():
            for b, count_b in d6.column_counts(m).items():
                if not (count_a and count_b):
                    continue
                cover = floer.critical_cover(d6, a, b, n, m)
                assert (cover.count_a, cover.count_b) == (count_a, count_b)
                assert cover.count_out == d6.column_counts(n + m).get(a + b, 0)
                assert cover.total == sum(cover.k_list)
    # a record with another k derives its total again and keeps its counts
    shifted = replace(cover, k_list=tuple(k + 1 for k in cover.k_list))
    assert shifted.total == cover.total + len(cover.k_list)
    assert (shifted.count_a, shifted.count_b, shifted.count_out) == (
        cover.count_a, cover.count_b, cover.count_out,
    )


def test_a_cold_product_reads_no_column_table(monkeypatch):
    polygon = affine.dp6_model()
    pairs = list(_all_pairs(polygon, 2))
    for a, _, n, b, _, m in pairs:
        floer.critical_cover(polygon, a, b, n, m)
    want = [
        mu2(basis_vector(n, n + m, b, j), basis_vector(0, n, a, i), polygon).coeffs()
        for a, i, n, b, j, m in pairs
    ]
    polygon._products.clear()

    def forbidden(*args):
        raise AssertionError("column table read")

    monkeypatch.setattr(affine.AffinePolygon, "column_counts", forbidden)
    got = [
        mu2(basis_vector(n, n + m, b, j), basis_vector(0, n, a, i), polygon).coeffs()
        for a, i, n, b, j, m in pairs
    ]
    assert got == want and len(polygon._products) == len(pairs)
    # an input the record rejects is checked against the table, which names it
    with pytest.raises(AssertionError, match="column table read"):
        mu2(basis_vector(1, 2, 0, 0), basis_vector(0, 1, 0, 9), polygon)


def test_the_binomial_table_stores_only_exact_int_k(monkeypatch):
    monkeypatch.setattr(floer, "_binomial_rows", {})
    # x^2 * z^2 = y^4 + 2 y^2 p + p^2 on cp2: k = 2
    out = mu2(basis_vector(2, 4, 2, 0), basis_vector(0, 2, -2, 0), affine.cp2_model())
    assert out.coeffs() == {(0, 0): 1, (0, 1): 2, (0, 2): 1}
    assert floer._binomial_rows == {2: (1, 2, 1)}
    # a float column counts k = 2.0 on a cold cover: it neither reads the
    # stored row of 2 nor stores one, and raises as math.comb rejects it
    with pytest.raises(TypeError):
        mu2(basis_vector(2, 4, 2, 0), basis_vector(0, 2, -2.0, 0), affine.cp2_model())
    assert floer._binomial_rows == {2: (1, 2, 1)}


def test_a_replaced_singularity_derives_its_integer_position_again():
    s = affine.Singularity(Fraction(0), Fraction(-1, 4))
    moved = replace(s, eta_pos=Fraction(1, 2))
    assert moved._eta == (1, 2)
    assert moved == affine.Singularity(Fraction(1, 2), Fraction(-1, 4))
    assert hash(moved) == hash(affine.Singularity(Fraction(1, 2), Fraction(-1, 4)))
    assert repr(moved) == (
        "Singularity(eta_pos=Fraction(1, 2), xi_pos=Fraction(-1, 4), multiplicity=1)"
    )
    assert floer.wall_count(moved, -2, 2, 2, 2) == 1
    with pytest.raises(ValueError, match=r"at eta=1/2 are not integers \(-3/2, -1\); "):
        floer.wall_count(moved, -1, 1, 1, 1)
