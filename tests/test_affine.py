"""Polygon validation, point enumeration, and the membership-scan oracle."""

import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from affinefloer import affine
from affinefloer.affine import (
    BoundaryPolyline,
    FractionalPoint,
    RationalPoint,
    Singularity,
)


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
        data = affine.polygon_to_json(m)
        assert affine.polygon_from_json(json.loads(json.dumps(data))) == m
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(data))
        assert affine.load_polygon(str(path)) == m


def test_json_rationals_are_strings():
    data = affine.polygon_to_json(affine.cp2_model())
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
    for point in (
        FractionalPoint(0, 2, 2),  # below the bottom
        FractionalPoint(0, -1, 2),  # above the top
        FractionalPoint(3, 0, 2),  # right of the region
    ):
        with pytest.raises(ValueError, match="does not lie in the region"):
            affine.embed(m, point)


def test_degenerate_polylines_rejected():
    with pytest.raises(ValueError):
        BoundaryPolyline((RationalPoint(0, 0), RationalPoint(0, 1)))


# -- the integer membership scan against the Fraction scan it replaced --------


def _fiber_contains(polygon, point):
    """Membership through `fiber`, in Fractions: the predicate
    `AffinePolygon.contains` used before it tested in integers."""
    if not (polygon.eta_min <= point.eta <= polygon.eta_max):
        return False
    lo, hi = polygon.fiber(point.eta)
    return lo <= point.xi <= hi


def _fraction_count(polygon, d):
    """The Fraction scan `count_points` made before it counted in integers:
    one `RationalPoint` per candidate of the bounding box, tested by
    `_fiber_contains`."""
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


_SCAN_CASES = [
    ("cp2", affine.cp2_model(), 20),
    ("cp2-xi-3/7", affine.cp2_model(Fraction(-3, 7)), 20),
    ("dp6-111", affine.dp6_model((1, 1, 1)), 12),
    ("dp6-213", affine.dp6_model((2, 1, 3)), 12),
    ("dp6-132", affine.dp6_model((1, 3, 2)), 12),
    ("hand-built", _hand_built(), 12),
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
        patch.setattr(affine, "column_range", forbidden)
        assert {d: affine.count_points(fresh, d) for d in range(6)} == expected
        assert fresh.contains(spot)
    with monkeypatch.context() as patch:
        for name in ("_segment_lines", "_column_bounds", "_in_column"):
            patch.setattr(affine, name, forbidden)
        assert {d: len(affine.fractional_points(fresh, d)) for d in range(6)} == expected
        assert affine.embed(fresh, FractionalPoint(3, 1, 2)) == spot


# -- JSON booleans are not numbers ---------------------------------------------


@pytest.mark.parametrize("value", [True, False])
def test_rat_rejects_booleans(value):
    with pytest.raises(TypeError):
        affine.rat(value)


def test_singularity_rejects_a_boolean_multiplicity():
    with pytest.raises(ValueError, match="multiplicity"):
        Singularity(1, Fraction(-1, 2), True)
