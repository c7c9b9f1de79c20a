"""Polygon validation, point enumeration, the membership predicate and the
floor-sum point count."""

import json
import math
import random
from fractions import Fraction

import pytest

from affinefloer import affine
from affinefloer.affine import (
    BoundaryPolyline,
    FractionalPoint,
    RationalPoint,
    Singularity,
)
from support import polygon_to_json, replace


def test_cp2_model_shape():
    m = affine.cp2_model()
    assert m.top.slopes == (Fraction(0),)
    assert m.bottom.slopes == (Fraction(-1, 2), Fraction(1, 2))
    assert m.singularities[0].eta_pos == 0
    assert affine.validate(m) == []


def test_validate_flags_monodromy_inconsistency():
    m = affine.cp2_model()
    # bottom slope jump +2 instead of +1 at the singularity
    bad_bottom = BoundaryPolyline(
        (RationalPoint(-1, 0), RationalPoint(0, -1), RationalPoint(1, 0))
    )
    bad = replace(m, bottom=bad_bottom)
    problems = affine.validate(bad)
    assert len(problems) == 1
    assert "monodromy" in problems[0]


def test_validate_flags_interior_corner():
    m = affine.cp2_model()
    bent_top = BoundaryPolyline(
        (RationalPoint(-1, 0), RationalPoint(Fraction(1, 2), Fraction(1, 4)), RationalPoint(1, 0))
    )
    problems = affine.validate(replace(m, top=bent_top))
    assert len(problems) == 1
    assert "interior corner" in problems[0]


def test_validate_flags_singularity_outside_fiber():
    m = affine.cp2_model()
    bad = replace(m, singularities=(Singularity(0, Fraction(-3, 4)),))
    assert any("outside the open fiber" in p for p in affine.validate(bad))


def test_validate_flags_corner_mismatch():
    m = affine.cp2_model()
    assert any("left extreme" in p for p in affine.validate(replace(m, left_corner=False)))


def test_fractional_point_counts_examples():
    m = affine.cp2_model()
    assert len(affine.fractional_points(m, 1)) == 3
    assert len(affine.fractional_points(m, 2)) == 6
    assert len(affine.fractional_points(m, 4)) == 15
    assert affine.fractional_points(m, 0) == [FractionalPoint(0, 0, 0)]
    assert affine.count_points(m, 0) == 1


def test_fractional_points_d1_are_the_three_corner_columns():
    m = affine.cp2_model()
    points = affine.fractional_points(m, 1)
    assert [(p.a, p.i) for p in points] == [(-1, 0), (0, 0), (1, 0)]
    assert affine.embed(m, points[0]) == RationalPoint(-1, 0)


def test_hilbert_polynomial_range():
    m = affine.cp2_model()
    for d in range(0, 21):
        assert len(affine.fractional_points(m, d)) == (d + 2) * (d + 1) // 2


def test_enumeration_matches_membership_scan_cp2():
    m = affine.cp2_model()
    for d in range(0, 21):
        assert len(affine.fractional_points(m, d)) == affine.count_points(m, d)


@pytest.mark.parametrize("widths", [(1, 1, 1), (2, 1, 1), (1, 2, 3)])
def test_enumeration_matches_membership_scan_dp6(widths):
    m = affine.dp6_model(widths)
    assert affine.validate(m) == []
    for d in range(0, 11):
        assert len(affine.fractional_points(m, d)) == affine.count_points(m, d)


def test_every_enumerated_point_is_a_member():
    for m in (affine.cp2_model(), affine.dp6_model()):
        for d in range(1, 9):
            for p in affine.fractional_points(m, d):
                spot = affine.embed(m, p)
                assert m.contains(spot)
                assert spot.eta == Fraction(p.a, d)


def test_singularity_height_does_not_change_enumeration():
    reference = affine.fractional_points(affine.cp2_model(), 6)
    for xi in (Fraction(-1, 8), Fraction(-1, 3), Fraction(-49, 100)):
        assert affine.fractional_points(affine.cp2_model(xi), 6) == reference
    d6 = affine.dp6_model()
    moved = replace(
        d6,
        singularities=tuple(
            replace(s, xi_pos=s.xi_pos + Fraction(1, 7)) for s in d6.singularities
        ),
    )
    assert affine.validate(moved) == []
    for d in range(1, 7):
        assert affine.fractional_points(moved, d) == affine.fractional_points(d6, d)


def test_json_round_trip(tmp_path):
    for m in (affine.cp2_model(), affine.dp6_model((2, 1, 3))):
        data = polygon_to_json(m)
        assert affine.polygon_from_json(json.loads(json.dumps(data))) == m
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(data))
        assert affine.load_polygon(str(path)) == m


def test_json_rationals_are_strings():
    data = polygon_to_json(affine.cp2_model())
    assert data["bottom"][1] == ["0", "-1/2"]
    assert data["singularities"][0] == {"eta": "0", "xi": "-1/4", "mult": 1}


def test_invalid_denominator_rejected():
    with pytest.raises(ValueError):
        affine.fractional_points(affine.cp2_model(), -1)
    for point in (FractionalPoint(1, 0, 0), FractionalPoint(0, 0, 0), FractionalPoint(1, 0, -1)):
        with pytest.raises(ValueError, match="no embedding"):
            affine.embed(affine.cp2_model(), point)


def test_embed_rejects_a_point_outside_the_region():
    m = affine.cp2_model()
    assert affine.embed(m, FractionalPoint(0, 1, 2)) == RationalPoint(Fraction(0), Fraction(-1, 2))
    for a, i, d in (
        (0, 2, 2),  # below the bottom
        (0, -1, 2),  # above the top
        (3, 0, 2),  # right of the region
    ):
        refused = rf"^q_\({a},{i}\) with denominator {d} is not admissible$"
        with pytest.raises(ValueError, match=refused):
            affine.embed(m, FractionalPoint(a, i, d))


def test_degenerate_polylines_rejected():
    with pytest.raises(ValueError):
        BoundaryPolyline((RationalPoint(0, 0), RationalPoint(0, 1)))


# -- the floor-sum count and the integer predicate against the Fraction scan --


def _fiber_contains(polygon, point):
    """Membership through `fiber`, in Fractions: the predicate
    `AffinePolygon.contains` used before it tested in integers."""
    if not (polygon.eta_min <= point.eta <= polygon.eta_max):
        return False
    lo, hi = polygon.fiber(point.eta)
    return lo <= point.xi <= hi


def _fraction_count(polygon, d):
    """The brute-force reference count: one `RationalPoint` per candidate of
    the (1/d)-lattice bounding box, tested by `_fiber_contains`."""
    if d < 0:
        raise ValueError("denominator must be nonnegative")
    if d == 0:
        return 1
    xi_values = [v.xi for v in polygon.top.vertices] + [v.xi for v in polygon.bottom.vertices]
    b_lo = math.ceil(min(xi_values) * d)
    b_hi = math.floor(max(xi_values) * d)
    total = 0
    for a in range(math.ceil(polygon.eta_min * d), math.floor(polygon.eta_max * d) + 1):
        for b in range(b_lo, b_hi + 1):
            if _fiber_contains(polygon, RationalPoint(Fraction(a, d), Fraction(b, d))):
                total += 1
    return total


def _hand_built():
    """A valid polygon off every builtin's grid: rational vertices, eta_max =
    5/2, singularities of multiplicity 1 and 2 at rational positions, a
    sloped top and vertical facets at both ends."""
    F = Fraction
    return affine.AffinePolygon(
        eta_min=F(0),
        eta_max=F(5, 2),
        singularities=(Singularity(F(1, 2), F(-1, 3), 1), Singularity(F(7, 4), F(-2, 5), 2)),
        top=BoundaryPolyline(((0, F(1, 3)), (F(5, 2), F(5, 6)))),
        bottom=BoundaryPolyline(
            ((0, F(-1, 3)), (F(1, 2), F(-13, 12)), (F(7, 4), F(-41, 24)), (F(5, 2), F(-7, 12)))
        ),
        left_corner=False,
        right_corner=False,
    )


_HALF = {
    "eta_min": "0", "eta_max": "2",
    "singularities": [{"eta": "1/2", "xi": "-1", "mult": 1}],
    "top": [["0", "0"], ["2", "0"]],
    "bottom": [["0", "-1"], ["1/2", "-3/2"], ["2", "-3/2"]],
    "corners": {"left": False, "right": False},
}

_MULT2 = {
    "eta_min": "0", "eta_max": "2",
    "singularities": [{"eta": "1", "xi": "-1", "mult": 2}],
    "top": [["0", "0"], ["2", "0"]],
    "bottom": [["0", "-1"], ["1", "-2"], ["2", "-1"]],
    "corners": {"left": False, "right": False},
}

_SCAN_CASES = [
    ("cp2", affine.cp2_model(), 20),
    ("cp2-xi-3/7", affine.cp2_model(Fraction(-3, 7)), 20),
    ("dp6-111", affine.dp6_model((1, 1, 1)), 12),
    ("dp6-213", affine.dp6_model((2, 1, 3)), 12),
    ("dp6-132", affine.dp6_model((1, 3, 2)), 12),
    ("hand-built", _hand_built(), 12),
    ("half", affine.polygon_from_json(_HALF), 12),
    ("mult2", affine.polygon_from_json(_MULT2), 12),
]


@pytest.mark.parametrize(
    "polygon, max_d", [case[1:] for case in _SCAN_CASES], ids=[case[0] for case in _SCAN_CASES]
)
def test_count_points_matches_fraction_scan(polygon, max_d):
    assert affine.validate(polygon) == []
    for d in range(0, max_d + 1):
        assert affine.count_points(polygon, d) == _fraction_count(polygon, d), d


def _probe_points(polygon, rng):
    """Seeded random points with mixed denominators, every vertex, facet
    midpoint and singularity, points 1/10^6 outside each boundary, and points
    exactly at each interior vertex's eta.  Returns (points, outside), where
    `outside` are the points that must be rejected."""
    eps = Fraction(1, 10**6)
    points, outside = [], []
    left, right = math.floor(polygon.eta_min) - 1, math.ceil(polygon.eta_max) + 1
    for _ in range(400):
        q, r = rng.randint(1, 12), rng.randint(1, 12)
        eta = Fraction(rng.randint(left * q, right * q), q)
        xi = Fraction(rng.randint(-5 * r, 2 * r), r)
        points.append(RationalPoint(eta, xi))
    for line, outward in ((polygon.top, eps), (polygon.bottom, -eps)):
        verts = line.vertices
        spots = list(verts) + [
            RationalPoint((u.eta + v.eta) / 2, (u.xi + v.xi) / 2) for u, v in zip(verts, verts[1:])
        ]
        points += spots
        outside += [RationalPoint(p.eta, p.xi + outward) for p in spots]
    for eta, step in ((polygon.eta_min, -eps), (polygon.eta_max, eps)):
        lo, hi = polygon.fiber(eta)
        outside += [RationalPoint(eta + step, xi) for xi in (lo, (lo + hi) / 2, hi)]
    points += [RationalPoint(s.eta_pos, s.xi_pos) for s in polygon.singularities]
    for line in (polygon.top, polygon.bottom):
        for v in line.vertices[1:-1]:
            lo, hi = polygon.fiber(v.eta)
            points += [RationalPoint(v.eta, xi) for xi in (lo, (lo + hi) / 2, hi)]
            points += [RationalPoint(v.eta, Fraction(b, 7)) for b in range(-21, 8)]
            outside += [RationalPoint(v.eta, lo - eps), RationalPoint(v.eta, hi + eps)]
    return points + outside, outside


@pytest.mark.parametrize(
    "polygon", [case[1] for case in _SCAN_CASES], ids=[case[0] for case in _SCAN_CASES]
)
def test_contains_matches_fiber_predicate(polygon):
    rng = random.Random(2011)
    points, outside = _probe_points(polygon, rng)
    verdicts = [polygon.contains(p) for p in points]
    assert verdicts == [_fiber_contains(polygon, p) for p in points]
    assert True in verdicts and False in verdicts
    assert not any(polygon.contains(p) for p in outside)


def test_membership_scan_shares_nothing_with_the_column_table(monkeypatch):
    def forbidden(*args):
        raise AssertionError("called")

    d6 = affine.dp6_model((2, 1, 3))
    expected = {d: len(affine.fractional_points(d6, d)) for d in range(6)}
    spot = affine.embed(d6, FractionalPoint(3, 1, 2))

    fresh = affine.dp6_model((2, 1, 3))
    with monkeypatch.context() as patch:
        patch.setattr(affine.AffinePolygon, "fiber", forbidden)
        patch.setattr(affine.AffinePolygon, "column_counts", forbidden)
        patch.setattr(affine, "_column_walk", forbidden)
        assert {d: affine.count_points(fresh, d) for d in range(6)} == expected
        assert fresh.contains(spot)
    with monkeypatch.context() as patch:
        for name in ("_segment_lines", "_lattice_height_sum"):
            patch.setattr(affine, name, forbidden)
        # The column table is filled in integers: no `Fraction` fiber per column.
        patch.setattr(affine.AffinePolygon, "fiber", forbidden)
        patch.setattr(affine.BoundaryPolyline, "value", forbidden)
        assert {d: len(affine.fractional_points(fresh, d)) for d in range(6)} == expected
        assert affine.embed(fresh, FractionalPoint(3, 1, 2)) == spot


def _box_points(polygon, d):
    """Every point of the (1/d)-lattice bounding box of the polygon, d > 0."""
    xi_values = [v.xi for v in polygon.top.vertices] + [v.xi for v in polygon.bottom.vertices]
    heights = range(math.ceil(min(xi_values) * d), math.floor(max(xi_values) * d) + 1)
    columns = range(math.ceil(polygon.eta_min * d), math.floor(polygon.eta_max * d) + 1)
    return [RationalPoint(Fraction(a, d), Fraction(b, d)) for a in columns for b in heights]


def test_contains_matches_fiber_predicate_on_the_lattice_box_cold_and_warm():
    d6 = affine.dp6_model((2, 1, 3))
    points = [p for d in range(1, 5) for p in _box_points(d6, d)]
    expected = [_fiber_contains(d6, p) for p in points]
    assert True in expected and False in expected
    # before the memo fills: each verdict from a copy with an empty memo
    cold = []
    for p in points:
        copy = replace(d6)
        assert copy._lines is None
        cold.append(copy.contains(p))
    assert cold == expected
    # after: every verdict read through one filled memo
    assert d6._lines is None
    d6.contains(points[0])
    assert d6._lines is not None
    assert [d6.contains(p) for p in points] == expected


def test_the_scan_reads_its_segment_lines_from_the_memo(monkeypatch):
    d6 = affine.dp6_model((2, 1, 3))
    counts = [affine.count_points(d6, d) for d in range(7)]
    spots = [affine.embed(d6, FractionalPoint(3, 1, 2)), RationalPoint(Fraction(1, 3), 1)]
    verdicts = [d6.contains(p) for p in spots]
    assert verdicts == [True, False]

    def forbidden(*args):
        raise AssertionError("segment lines derived again")

    monkeypatch.setattr(affine, "_segment_lines", forbidden)
    assert [affine.count_points(d6, d) for d in range(7)] == counts
    assert [d6.contains(p) for p in spots] == verdicts
    with pytest.raises(AssertionError, match="derived again"):
        affine.count_points(affine.dp6_model((2, 1, 3)), 1)


def test_the_segment_line_memo_is_per_instance():
    first, second = affine.dp6_model(), affine.dp6_model()
    assert first.contains(RationalPoint(1, -1))
    assert first._lines is not None and second._lines is None
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second) and "_lines" not in repr(first)
    assert polygon_to_json(first) == polygon_to_json(second)
    assert replace(first)._lines is None
    assert affine.polygon_from_json(polygon_to_json(first))._lines is None


@pytest.mark.parametrize(
    "case",
    [case for case in _SCAN_CASES if case[0] in ("dp6-213", "hand-built")],
    ids=lambda case: case[0],
)
@pytest.mark.parametrize(
    "side, segment, step",
    [(0, 0, 1), (0, -1, 1), (1, 0, -1)],
    ids=["bottom-first", "bottom-last", "top"],
)
def test_an_off_by_one_cached_segment_line_fails_the_scan_comparison(case, side, segment, step):
    # R moves by one toward the inside of the region
    _, polygon, max_d = case
    polygon = _shift_segment_line(polygon, side, segment, step)
    with pytest.raises(AssertionError):
        test_count_points_matches_fraction_scan(polygon, max_d)


def _shift_segment_line(polygon, side, segment, step, field=4):
    """A copy of polygon whose cached segment line lines[side][segment]
    (side 0 bottom, 1 top) has its integer `field` of (n, m, P, Q, R), R by
    default, moved by step."""
    polygon = replace(polygon)
    affine.count_points(polygon, 1)
    lines = [list(line) for line in polygon._lines]
    line = list(lines[side][segment])
    line[field] += step
    lines[side][segment] = tuple(line)
    object.__setattr__(polygon, "_lines", tuple(map(tuple, lines)))
    return polygon


def test_a_segment_line_moved_outward_is_seen_by_the_scan():
    # the top's first line one step out: its extra points lie above the
    # highest vertex, where the count reads the line, not a bounding box
    polygon = _shift_segment_line(affine.dp6_model((2, 1, 3)), 1, 0, 1)
    for d in range(6, 13):
        assert affine.count_points(polygon, d) != len(affine.fractional_points(polygon, d)), d


def test_a_slope_one_off_fails_the_scan_and_the_walk_comparisons():
    # Q of dp6 (2,1,3)'s first bottom line one up: that segment now rises
    # from its left end to one unit above its right vertex
    _, polygon, max_d = next(case for case in _SCAN_CASES if case[0] == "dp6-213")
    polygon = _shift_segment_line(polygon, 0, 0, 1, field=3)
    with pytest.raises(AssertionError):
        test_count_points_matches_fraction_scan(polygon, max_d)
    with pytest.raises(AssertionError):
        _assert_count_matches_walk(polygon, max_d)


def test_floor_sum_matches_the_direct_sum():
    for m in range(1, 10):
        for a in range(-20, 21):
            for b in range(-20, 21):
                partial = 0  # the direct sum over x < n, grown one term per n
                for n in range(13):
                    assert affine._floor_sum(n, m, a, b) == partial, (n, m, a, b)
                    partial += (a * n + b) // m


@pytest.mark.parametrize(
    "n, m, a, b",
    [
        (12, 10**20 + 7, 10**20 - 3, -(10**20) + 1),
        (11, 3, 10**20 + 1, 10**20 - 1),
        (7, 10**20, -(10**20) - 1, 10**20),
        (0, 10**20, 10**20, 10**20),
    ],
)
def test_floor_sum_near_10_to_the_20(n, m, a, b):
    assert affine._floor_sum(n, m, a, b) == sum((a * x + b) // m for x in range(n))


def test_floor_sum_of_a_full_period_near_10_to_the_20():
    # for coprime a and m, sum(floor(a*x/m) for x < m) = (a - 1)(m - 1)/2
    m, a = 10**20 + 1, 10**20 - 1
    assert math.gcd(a, m) == 1
    assert affine._floor_sum(m, m, a, 0) == (a - 1) * (m - 1) // 2
    assert affine._floor_sum(m, m, -a, 0) == -(a - 1) * (m - 1) // 2 - (m - 1)


# (instance, A, B, the period of the degrees it holds on): count_points(d) =
# A*d^2 + (B/2)*d + 1, with A the affine area and B the boundary's lattice
# length; half.json's holds on even d only.
_RIEMANN_ROCH = [
    ("cp2", affine.cp2_model, Fraction(1, 2), 3, 1),
    ("dp6-111", lambda: affine.dp6_model((1, 1, 1)), 5, 8, 1),
    ("dp6-213", lambda: affine.dp6_model((2, 1, 3)), Fraction(35, 2), 15, 1),
    ("dp6-132", lambda: affine.dp6_model((1, 3, 2)), Fraction(31, 2), 15, 1),
    ("dp6-515", lambda: affine.dp6_model((5, 1, 5)), 41, 24, 1),
    ("mult2", lambda: affine.polygon_from_json(_MULT2), 3, 6, 1),
    ("half", lambda: affine.polygon_from_json(_HALF), Fraction(23, 8), Fraction(13, 2), 2),
]


@pytest.mark.parametrize(
    "make, area, length, period",
    [case[1:] for case in _RIEMANN_ROCH],
    ids=[case[0] for case in _RIEMANN_ROCH],
)
def test_count_points_is_the_riemann_roch_polynomial_at_10_to_the_20(make, area, length, period):
    polygon = make()
    assert affine.validate(polygon) == []
    for d in (10**20, 10**20 + 1):
        if d % period == 0:
            assert affine.count_points(polygon, d) == area * d * d + Fraction(length, 2) * d + 1, d


def _assert_count_matches_walk(polygon, max_d):
    for d in range(0, max_d + 1):
        assert affine.count_points(polygon, d) == sum(polygon.column_counts(d).values()), d


@pytest.mark.parametrize(
    "make", [case[1] for case in _RIEMANN_ROCH], ids=[case[0] for case in _RIEMANN_ROCH]
)
def test_count_points_matches_the_column_walk(make):
    _assert_count_matches_walk(make(), 60)


def test_count_points_at_10_to_the_20_does_no_per_column_work(monkeypatch):
    def forbidden(*args):
        raise AssertionError("per-column work")

    monkeypatch.setattr(affine, "_column_walk", forbidden)
    monkeypatch.setattr(affine.AffinePolygon, "column_counts", forbidden)
    d = 10**20
    assert affine.count_points(affine.CP2, d) == (d + 2) * (d + 1) // 2


# -- the integer column walk against the Fraction columns it replaced ---------


def _fraction_column(polygon, d, a):
    """The Fraction column that `embed` read before the integer walk:
    (topmost (1/d)-integral height, count) from `fiber`, by floor and ceil."""
    eta = Fraction(a, d)
    if not (polygon.eta_min <= eta <= polygon.eta_max):
        return Fraction(0), 0
    lo, hi = polygon.fiber(eta)
    b_hi, b_lo = math.floor(hi * d), math.ceil(lo * d)
    if b_hi < b_lo:
        return Fraction(0), 0
    return Fraction(b_hi, d), b_hi - b_lo + 1


def _fraction_table(polygon, d):
    """The column table `column_counts` filled through `_fraction_column`."""
    if d == 0:
        return {0: 1}
    return {
        a: _fraction_column(polygon, d, a)[1]
        for a in range(math.ceil(polygon.eta_min * d), math.floor(polygon.eta_max * d) + 1)
    }


@pytest.mark.parametrize(
    "polygon", [case[1] for case in _SCAN_CASES], ids=[case[0] for case in _SCAN_CASES]
)
def test_column_table_matches_fraction_columns(polygon):
    fresh = affine.polygon_from_json(polygon_to_json(polygon))
    for d in range(0, 31):
        assert fresh.column_counts(d) == _fraction_table(fresh, d), d


@pytest.mark.parametrize(
    "polygon, max_d", [case[1:] for case in _SCAN_CASES], ids=[case[0] for case in _SCAN_CASES]
)
def test_embed_matches_fraction_columns(polygon, max_d):
    for d in range(1, max_d + 1):
        tops = {}
        for p in affine.fractional_points(polygon, d):
            if p.a not in tops:
                tops[p.a] = _fraction_column(polygon, d, p.a)[0]
            want = RationalPoint(Fraction(p.a, d), tops[p.a] - Fraction(p.i, d))
            assert affine.embed(polygon, p) == want, p


@pytest.mark.parametrize("d", [4, 12])
def test_walk_on_columns_at_interior_vertices(d):
    polygon = _hand_built()
    vertex_columns = {
        int(v.eta * d) for v in polygon.bottom.vertices[1:-1] if (v.eta * d).denominator == 1
    }
    assert vertex_columns == {d // 2, 7 * d // 4}
    table = polygon.column_counts(d)
    for a in sorted(vertex_columns):
        want = _fraction_column(polygon, d, a)
        assert want[1] > 0
        assert table[a] == want[1]
        assert affine.embed(polygon, FractionalPoint(a, 0, d)).xi == want[0]
    assert table == _fraction_table(polygon, d)


def test_column_table_of_unvalidated_polygons_matches_fraction_columns():
    F = Fraction
    # The bottom rises above the top between eta = 1/2 and 3/2: those columns are empty.
    crossing = affine.AffinePolygon(
        eta_min=F(0),
        eta_max=F(2),
        singularities=(),
        top=BoundaryPolyline(((0, 0), (2, 0))),
        bottom=BoundaryPolyline(((0, F(-1, 2)), (1, F(1, 2)), (2, F(-1, 2)))),
    )
    assert affine.validate(crossing)
    for d in range(1, 13):
        table = crossing.column_counts(d)
        assert table == _fraction_table(crossing, d), d
        assert table[d] == 0
    # Polylines that stop short of the eta-range: the walk, the count and
    # membership raise as `fiber` does.
    short = replace(affine.cp2_model(), eta_max=F(2))
    for run in (
        lambda: short.fiber(F(2)),
        lambda: short.column_counts(1),
        lambda: affine.count_points(short, 1),
        lambda: short.contains(RationalPoint(F(3, 2), 0)),
    ):
        with pytest.raises(ValueError, match="outside polyline range"):
            run()


def _flat_strip(eta_min, eta_max, bottom_xi):
    """A valid polygon with no singularity: the strip between xi = 0 and
    xi = bottom_xi over [eta_min, eta_max], with vertical facets at both ends."""
    return affine.AffinePolygon(
        eta_min=eta_min,
        eta_max=eta_max,
        singularities=(),
        top=BoundaryPolyline(((eta_min, 0), (eta_max, 0))),
        bottom=BoundaryPolyline(((eta_min, bottom_xi), (eta_max, bottom_xi))),
        left_corner=False,
        right_corner=False,
    )


@pytest.mark.parametrize(
    "make",
    [
        affine.cp2_model,
        lambda: affine.dp6_model((2, 1, 3)),
        lambda: affine.polygon_from_json(_HALF),
        lambda: _flat_strip(Fraction(3), Fraction(5), Fraction(-1)),
        lambda: _flat_strip(Fraction(-7, 2), Fraction(-1, 3), Fraction(-1, 2)),
    ],
    ids=["cp2", "dp6-213", "half", "eta-3-to-5", "eta-minus-7/2-to-minus-1/3"],
)
def test_walk_and_scan_give_the_unit_at_degree_zero(make):
    # in scaled coordinates d = 0 is the 0-th dilate, the single point (0, 0),
    # wherever the polygon's eta-range lies
    polygon = make()
    assert affine.validate(polygon) == []
    assert polygon.column_counts(0) == {0: 1}
    assert polygon._tops[0] == {0: 0}
    assert affine.count_points(polygon, 0) == 1
    assert affine.fractional_points(polygon, 0) == [FractionalPoint(0, 0, 0)]


@pytest.mark.parametrize("float_first", [True, False], ids=["float-first", "int-first"])
def test_a_float_denominator_never_enters_the_column_table(float_first):
    polygon = affine.dp6_model()
    if float_first:
        with pytest.raises(ValueError, match="denominator must be an int, got 2.0"):
            polygon.column_counts(2.0)
        assert not polygon._columns and not polygon._tops
    table = polygon.column_counts(2)
    assert all(type(c) is int for c in table.values())
    # an equal float key finds the int table once it is stored
    assert polygon.column_counts(2.0) is table
    assert affine.fractional_points(polygon, 2) == affine.fractional_points(
        affine.dp6_model(), 2
    )
    # the warm table does not let a float denominator into the points or embed
    for call in (
        lambda: affine.fractional_points(polygon, 2.0),
        lambda: affine.embed(polygon, FractionalPoint(0, 0, 2.0)),
    ):
        with pytest.raises(ValueError, match="denominator must be an int, got 2.0"):
            call()


def test_a_float_denominator_is_never_counted():
    # count_points shares no geometry with the column table, only its type rule
    assert affine.count_points(affine.CP2, 2) == 6
    with pytest.raises(ValueError, match="denominator must be an int, got 2.0"):
        affine.count_points(affine.CP2, 2.0)


# -- JSON booleans are not numbers ---------------------------------------------


@pytest.mark.parametrize("value", [True, False])
def test_rat_rejects_booleans(value):
    with pytest.raises(TypeError):
        affine.rat(value)


def test_singularity_rejects_a_boolean_multiplicity():
    with pytest.raises(ValueError, match="multiplicity"):
        Singularity(1, Fraction(-1, 2), True)
