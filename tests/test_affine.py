"""Polygon validation, point enumeration, and the membership-scan oracle."""

import json
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
    with pytest.raises(ValueError):
        FractionalPoint(1, 0, 0)


def test_degenerate_polylines_rejected():
    with pytest.raises(ValueError):
        BoundaryPolyline((RationalPoint(0, 0), RationalPoint(0, 1)))
