"""Tropical witnesses: bend positions, balancing, multiplicities, partitions."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest

from affinefloer import tropical as tr
from affinefloer import verify
from affinefloer.affine import CP2, RationalPoint, Singularity
from affinefloer.floer import index_range, k_value_cp2


def _move_singularity(monkeypatch, xi):
    """Substitute for the polygon the tropical kernel reads `affine.CP2` with
    its singularity moved to height xi on the line eta = 0."""
    monkeypatch.setattr(tr, "CP2", replace(CP2, singularities=(Singularity(0, xi),)))


def _multiplicities_below_and_above(monkeypatch, *args):
    """Multiplicities of the triangle for args with the singularity one unit
    below its bend and one unit above it, or None for a straight segment."""
    bend = tr.build_triangle(*args).bend
    if bend is None:
        return None
    out = []
    for side in (-1, 1):
        with monkeypatch.context() as patch:
            _move_singularity(patch, bend.xi + side)
            out.append(tr.build_triangle(*args).multiplicity)
    return tuple(out)


def test_fig_case_bend_and_multiplicity():
    t = tr.build_triangle(-2, 0, 2, 2, 0, 2, 1)
    assert t is not None
    assert t.bend == RationalPoint(0, Fraction(-1, 4))
    assert t.multiplicity == 2
    assert tr.check_balancing(t)


def test_fig_case_tangents_from_proof_formulas():
    # For a=-2,i=0,n=2, b=2,j=0,m=2, s=1 the leg tangents at the root are
    # (2, 1/2) and (-2, -1/2): plug (ma-nb, -(mi-nj+ms))/(n+m) and negate.
    t = tr.build_triangle(-2, 0, 2, 2, 0, 2, 1)
    assert t.legs[0].tangent_at_end == (Fraction(2), Fraction(1, 2))
    assert t.legs[1].tangent_at_end == (Fraction(-2), Fraction(-1, 2))


def test_same_sign_straight_segment():
    t = tr.build_triangle(1, 0, 1, 1, 0, 1, 0)
    assert t is not None and t.bend is None and t.disks == ()
    assert t.multiplicity == 1
    assert t.root == RationalPoint(1, 0)
    assert tr.check_balancing(t)
    assert tr.build_triangle(1, 0, 1, 1, 0, 1, 1) is None  # h != i+j


def test_out_of_range_returns_none():
    assert tr.build_triangle(-2, 0, 2, 2, 0, 2, 5) is None
    assert tr.build_triangle(-2, 0, 2, 2, 0, 2, 3) is None  # s = 3 > k = 2


def test_inadmissible_inputs_rejected():
    # the integer count and the full triangle reject with the same message
    for args, message in (
        ((-3, 0, 2, 2, 0, 2, 0), r"^q_\(-3,0\) with denominator 2 is not admissible$"),
        ((-1, 1, 1, 1, 0, 1, 0), r"^q_\(-1,1\) with denominator 1 is not admissible$"),
        ((0, 0, 1, 0, 0, 0, 0), r"^tropical witnesses need positive denominators, got 0$"),
    ):
        for build in (tr.build_triangle, tr.tropical_structure_constant):
            with pytest.raises(ValueError, match=message):
                build(*args)


def test_the_unit_is_admissible_but_has_no_witness():
    # denominator 0 holds the unit q_(0,0) in the column table; a witness
    # still needs a positive denominator, and the message says so
    assert CP2.column_counts(0) == {0: 1}
    with pytest.raises(ValueError) as info:
        tr.tropical_structure_constant(0, 0, 0, 0, 0, 1, 0)
    assert str(info.value) == "tropical witnesses need positive denominators, got 0"


def test_balancing_detects_perturbed_disk_count():
    t = tr.build_triangle(-2, 0, 2, 2, 0, 2, 1)
    bad = replace(t, disks=(replace(t.disks[0], count=t.disks[0].count + 1),))
    assert not tr.check_balancing(bad)


def test_balancing_detects_perturbed_tangent():
    t = tr.build_triangle(-2, 0, 2, 2, 0, 2, 1)
    leg0 = t.legs[0]
    bad_leg = replace(leg0, tangent_at_end=(leg0.tangent_at_end[0] + 1, leg0.tangent_at_end[1]))
    assert not tr.check_balancing(replace(t, legs=(bad_leg, t.legs[1])))


def test_balancing_detects_a_disk_off_the_bend():
    t = tr.build_triangle(-2, 0, 2, 2, 0, 2, 1)
    moved = replace(t.disks[0], point=RationalPoint(0, 7))
    assert not tr.check_balancing(replace(t, disks=(moved,)))


def test_balancing_detects_a_bend_off_the_arrival_line():
    # a pure monodromy bend: no disks, and its shear does not read the height
    t = tr.build_triangle(-1, 0, 1, 2, 0, 2, 1)
    assert t.disks == () and t.bend == RationalPoint(0, Fraction(-1, 2))
    assert not tr.check_balancing(replace(t, bend=RationalPoint(0, 7)))


def test_singularity_side_selects_disk_direction(monkeypatch):
    _move_singularity(monkeypatch, Fraction(-49, 100))
    below = tr.build_triangle(-2, 0, 2, 2, 0, 2, 1)
    _move_singularity(monkeypatch, Fraction(-1, 100))
    above = tr.build_triangle(-2, 0, 2, 2, 0, 2, 1)
    assert below.disks[0].direction == (0, 1) and below.disks[0].count == 1
    assert above.disks[0].direction == (0, -1) and above.disks[0].count == 1
    assert below.multiplicity == above.multiplicity == 2
    assert tr.check_balancing(below) and tr.check_balancing(above)


def test_pure_monodromy_bend_when_all_disks_on_other_side():
    # s = k: placing the singularity above the bend leaves zero disks but the
    # leg still crosses the cut and shears.
    t = tr.build_triangle(-1, 0, 1, 1, 0, 1, 1)
    assert t is not None and t.disks == () and t.bend is not None
    assert t.multiplicity == 1
    assert tr.check_balancing(t)


def test_every_built_triangle_balances():
    for n in range(1, 4):
        for m in range(1, 4):
            for (a, i) in index_range(0, n):
                for (b, j) in index_range(n, n + m):
                    for h in range((n + m - abs(a + b)) // 2 + 1):
                        t = tr.build_triangle(a, i, n, b, j, m, h)
                        if t is not None:
                            assert tr.check_balancing(t)
                            assert all(leg.end == t.root for leg in t.legs)


def test_position_invariance_examples_and_sweep(monkeypatch):
    assert _multiplicities_below_and_above(monkeypatch, -2, 0, 2, 2, 0, 2, 1) == (2, 2)
    assert _multiplicities_below_and_above(monkeypatch, -5, 0, 5, 5, 0, 5, 2) == (10, 10)
    for k in range(1, 11):
        for s in range(0, k + 1):
            below, above = _multiplicities_below_and_above(monkeypatch, -k, 0, k, k, 0, k, s)
            assert below == above == math.comb(k, s)
    # same-sign columns give a straight segment, which has no bend to move around
    assert _multiplicities_below_and_above(monkeypatch, 1, 0, 1, 1, 0, 1, 0) is None


def test_position_invariance_compares_the_two_disk_counts(monkeypatch):
    # With a binomial that is not symmetric, C(k, s) below and C(k, k-s)
    # above differ unless s = k - s.
    monkeypatch.setattr(tr, "comb", lambda k, s: math.comb(k, s) + s)
    below, above = _multiplicities_below_and_above(monkeypatch, -2, 0, 2, 2, 0, 2, 0)
    assert below != above
    below, above = _multiplicities_below_and_above(monkeypatch, -3, 0, 3, 3, 0, 3, 1)
    assert below != above
    below, above = _multiplicities_below_and_above(monkeypatch, -2, 0, 2, 2, 0, 2, 1)
    assert below == above


def test_partition_constant_examples():
    assert tr.partition_constant([2], 1) == 2
    assert tr.partition_constant([1, 1], 1) == 2 == math.comb(2, 1)
    for s in range(0, 7):
        assert tr.partition_constant([3, 2, 1], s) == math.comb(6, s)
    assert tr.partition_constant([], 0) == 1
    assert tr.partition_constant([2, 2], 5) == 0


def test_partition_constant_edge_cases():
    # the identity over every composition of sum k <= 12 is criterion 6
    assert tr.partition_constant([0, 0], 0) == 1
    assert tr.partition_constant([0, 0], 1) == 0
    assert tr.partition_constant([0, 3, 0], 2) == 3
    assert tr.partition_constant([1, 2], 4) == 0  # s > sum(k_list)
    assert tr.partition_constant([], 3) == 0
    assert tr.partition_constant([4, 1], 0) == 1
    assert tr.partition_constant([5], 2) == 10  # row cut at s < k
    assert tr.partition_constant([2, 5], 7) == 1  # every row used in full
    for bad in ([1, -1], [-2]):
        with pytest.raises(ValueError):
            tr.partition_constant(bad, 1)
    with pytest.raises(ValueError):
        tr.partition_constant([2, 2], -1)


def _partition_by_rows(k_list, s):
    """Reference for `tr.partition_constant`: the coefficient of x^s in
    prod (1+x)^(k_t), each row cut at degree s and convolved in afresh on
    every call, with no memo."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if any(k < 0 for k in k_list):
        raise ValueError("covering counts must be nonnegative")
    coeffs = [1] + [0] * s
    for k in k_list:
        row = [math.comb(k, part) for part in range(min(k, s) + 1)]
        convolved = [0] * (s + 1)
        for part, c in enumerate(row):
            for r in range(part, s + 1):
                convolved[r] += c * coeffs[r - part]
        coeffs = convolved
    return coeffs[s]


def _outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def test_partition_constant_equals_the_row_loop(monkeypatch):
    # from an empty memo, in a shuffled order, also with parts equal to 0
    monkeypatch.setattr(tr, "_partition_polys", {})
    calls = [
        (k_list, s)
        for total in range(0, 8)
        for k_list in _compositions(total)
        for s in range(-1, total + 2)
    ]
    calls += [((0,) + k_list + (0,), s) for k_list, s in calls[::7]]
    for k_list, s in sorted(calls, key=lambda call: hash(call) % 1009):
        assert _outcome(tr.partition_constant, k_list, s) == _outcome(
            _partition_by_rows, k_list, s
        )


@pytest.mark.parametrize(
    "call, twin",
    [
        (([2.0, 1], 1), ([2, 1], 1)),
        (((1, 2.0), 2), ((1, 2), 2)),
        (([True, 2], 2), ([1, 2], 2)),
        (((False,), 0), ((0,), 0)),
        (([2, -1], 1), ([2, 1], 1)),
        (([-1], 0), ([1], 0)),
        (([2, 1], -1), ([2, 1], 1)),
        (([2, 1], 4), ([2, 1], 3)),
        (([3, 2], 2), ((3, 2), 2)),
    ],
    ids=[
        "float-part",
        "float-last-part",
        "bool-part",
        "bool-zero-part",
        "negative-part",
        "negative-only-part",
        "s-below-zero",
        "s-past-the-sum",
        "list-and-tuple",
    ],
)
def test_partition_memo_never_changes_an_outcome(call, twin, monkeypatch):
    # the call, and its exact-int twin, before and after each other and
    # twice each: every outcome is the row loop's, every key exact ints
    for order in ((call, twin, call, twin), (twin, call, twin, call)):
        memo = {}
        monkeypatch.setattr(tr, "_partition_polys", memo)
        for args in order:
            assert _outcome(tr.partition_constant, *args) == _outcome(_partition_by_rows, *args)
        assert memo
        assert all(type(key) is tuple for key in memo)
        assert all(type(k) is int for key in memo for k in key)


def test_a_planted_binomial_row_breaks_the_identity(monkeypatch):
    memo = tr._partition_polys
    tr.partition_constant([2, 1], 1)

    def one_entry_off(k, part):
        return math.comb(k, part) + ((k, part) == (2, 1))

    with monkeypatch.context() as patch:
        patch.setattr(tr, "comb", one_entry_off)
        patch.setattr(tr, "_partition_polys", {})
        wrong = [
            (k_list, s)
            for total in range(0, 5)
            for k_list in _compositions(total)
            for s in range(total + 1)
            if tr.partition_constant(k_list, s) != math.comb(total, s)
        ]
    assert ((2,), 1) in wrong and ((1, 2), 2) in wrong
    assert tr.comb is math.comb and tr._partition_polys is memo
    assert tr.partition_constant([2, 1], 1) == 3


def test_triangle_json_shape():
    t = tr.build_triangle(-2, 0, 2, 2, 0, 2, 1)
    data = tr.triangle_to_json(t)
    assert data["bend"] == ["0", "-1/4"]
    assert data["multiplicity"] == 2
    assert data["disks"][0]["count"] == 1
    assert len(data["legs"]) == 2


# -- the integer structure-constant kernel -------------------------------------

_LOW, _HIGH = Fraction(-10**6), Fraction(10**6)  # below / above every bend


def _cp2_products(max_nm):
    for n in range(1, max_nm + 1):
        for m in range(1, max_nm + 1):
            heights = CP2.column_counts(n + m)
            for (a, i) in sorted(index_range(0, n)):
                for (b, j) in sorted(index_range(n, n + m)):
                    for h in range(heights[a + b]):
                        yield a, i, n, b, j, m, h


def _base_tail_tangents(leg, bend, disks):
    """Reference for `tr._bent_tangents`: the arrival tangents rebuilt part by
    part, w*(bend - start) before the bend (sheared in the direction of
    travel when the leg crosses the cut), the disk jump, then w*(end - bend)."""
    lo, hi = sorted((leg.start.eta, leg.end.eta))
    if not lo <= bend.eta <= hi or leg.start.eta == leg.end.eta:
        return []
    w = leg.weight
    base = (w * (bend.eta - leg.start.eta), w * (bend.xi - leg.start.xi))
    tail = (w * (leg.end.eta - bend.eta), w * (leg.end.xi - bend.xi))
    travel = 1 if leg.end.eta > leg.start.eta else -1
    directions = {d.direction for d in disks}
    jump = sum(d.count for d in disks)
    candidates = []
    if directions <= {(0, 1)}:
        candidates.append((base[0] + tail[0], base[1] + jump + tail[1]))
    if directions <= {(0, -1)}:
        sheared = travel * base[0] + base[1]
        candidates.append((base[0] + tail[0], sheared - jump + tail[1]))
    return candidates


@pytest.mark.parametrize("xi", [Fraction(-49, 100), Fraction(-1, 4), Fraction(-1, 100)])
def test_bent_tangents_equal_the_base_tail_form(xi, monkeypatch):
    # on every leg of every built triangle, and off the built set: the bend
    # moved along its line, the disks dropped or flipped
    _move_singularity(monkeypatch, xi)
    compared = 0
    for args in _cp2_products(3):
        t = tr.build_triangle(*args)
        if t is None or t.bend is None:
            continue
        flipped = tuple(replace(d, direction=(0, -d.direction[1])) for d in t.disks)
        for height in (t.bend.xi, t.bend.xi - 1, Fraction(7, 3), Fraction(-5, 2)):
            bend = RationalPoint(0, height)
            for disks in (t.disks, (), flipped):
                for leg in t.legs:
                    got = tr._bent_tangents(leg, bend, disks)
                    assert got == _base_tail_tangents(leg, bend, disks)
                    compared += bool(got)
    assert compared > 0


def test_planted_bend_height_is_caught_and_leaves_the_count(monkeypatch):
    ratio = tr._bend_ratio

    def one_numerator_step_off(*args):
        num, den = ratio(*args)
        return num + 1, den

    monkeypatch.setattr(tr, "_bend_ratio", one_numerator_step_off)
    assert tr._witness(-1, 0, 1, 2, 0, 2, 1).bend == (-1, 4)  # not (-2, 4)
    with pytest.raises(ArithmeticError, match="does not balance"):
        tr.build_triangle(-1, 0, 1, 2, 0, 2, 1)
    # the count does not depend on the bend's height
    for a, i, n, b, j, m, h in _cp2_products(3):
        k, s = k_value_cp2(a, b), h - (i + j)
        expected = math.comb(k, s) if 0 <= s <= k else 0
        assert tr.tropical_structure_constant(a, i, n, b, j, m, h) == expected


def test_planted_bend_height_is_named_as_off_the_arrival_line(monkeypatch):
    ratio = tr._bend_ratio
    monkeypatch.setattr(tr, "_bend_ratio", lambda *args: (ratio(*args)[0] + 1, ratio(*args)[1]))
    message = (
        r"^tropical triangle for h=1 does not balance: "
        r"the bent leg does not run along its arrival tangent after the bend$"
    )
    with pytest.raises(ArithmeticError, match=message):
        tr.build_triangle(-1, 0, 1, 2, 0, 2, 1)


def _shift_tangent(leg, dy):
    x, y = leg.tangent_at_end
    return replace(leg, tangent_at_end=(x, y + dy))


_FIG = tr.build_triangle(-2, 0, 2, 2, 0, 2, 1)
_STRAIGHT = tr.build_triangle(1, 0, 1, 1, 0, 1, 0)
_OFF_LINE = RationalPoint(0, 7)  # a bend the bent leg's last part does not run from


@pytest.mark.parametrize(
    "triangle, fault",
    [
        (
            replace(_FIG, legs=(replace(_FIG.legs[0], end=RationalPoint(0, 7)), _FIG.legs[1])),
            "a leg does not end at the root",
        ),
        (
            replace(_FIG, legs=(_shift_tangent(_FIG.legs[0], 1), _FIG.legs[1])),
            "the leg tangents do not cancel at the root",
        ),
        (
            replace(_FIG, disks=(replace(_FIG.disks[0], point=RationalPoint(0, 7)),)),
            "a disk sits off the bend",
        ),
        (replace(_STRAIGHT, disks=_FIG.disks), "a disk sits off the bend"),
        (
            replace(_STRAIGHT, legs=tuple(map(_shift_tangent, _STRAIGHT.legs, (1, -1)))),
            "a straight leg does not arrive with its straight tangent",
        ),
        (
            replace(_FIG, disks=(replace(_FIG.disks[0], count=2),)),
            "the bent leg arrives with a tangent the bend does not allow",
        ),
        (
            replace(_FIG, legs=_FIG.legs[::-1], disks=(replace(_FIG.disks[0], count=2),)),
            "the bent leg arrives with a tangent the bend does not allow",
        ),
        (
            replace(_FIG, bend=_OFF_LINE, disks=(replace(_FIG.disks[0], point=_OFF_LINE),)),
            "the bent leg does not run along its arrival tangent after the bend",
        ),
    ],
    ids=[
        "leg-end",
        "no-cancel",
        "disk-off-bend",
        "disk-no-bend",
        "straight-off",
        "bent-not-allowed",
        "bent-second-not-allowed",
        "off-the-line",
    ],
)
def test_balancing_names_the_failed_condition(triangle, fault):
    assert tr.check_balancing(_FIG) and tr.check_balancing(_STRAIGHT)
    assert tr._balancing_fault(triangle) == fault
    assert not tr.check_balancing(triangle)


@pytest.mark.parametrize("xi", [_LOW, CP2.singularities[0].xi_pos, _HIGH])
def test_integer_count_equals_built_multiplicity(xi, monkeypatch):
    _move_singularity(monkeypatch, xi)
    directions = set()
    for args in _cp2_products(4):
        t = tr.build_triangle(*args)
        assert tr.tropical_structure_constant(*args) == (
            0 if t is None else t.multiplicity
        )
        if t is not None:
            directions.update(d.direction for d in t.disks)
    # the extreme heights put every bend on one side of the singularity
    if xi == _LOW:
        assert directions == {(0, 1)}
    elif xi == _HIGH:
        assert directions == {(0, -1)}
    else:
        assert directions == {(0, 1), (0, -1)}


def test_planted_imbalance_is_raised_and_reported(monkeypatch):
    disks = tr._disks

    def one_disk_too_many(k, s, above):
        count, sign = disks(k, s, above)
        return count + 1, sign

    monkeypatch.setattr(tr, "_disks", one_disk_too_many)
    for xi in (_LOW, _HIGH):
        with monkeypatch.context() as patch:
            _move_singularity(patch, xi)
            with pytest.raises(ArithmeticError, match="does not balance"):
                tr.tropical_structure_constant(-2, 0, 2, 2, 0, 2, 1)
            with pytest.raises(ArithmeticError, match="does not balance"):
                tr.build_triangle(-2, 0, 2, 2, 0, 2, 1)
    # same-sign products have no disks and still count
    assert tr.tropical_structure_constant(1, 0, 1, 1, 0, 1, 0) == 1
    sweep = verify.tropical(1)
    assert not sweep.ok
    assert sweep.mismatches[0].count("tropical unbalanced (") == 1
    assert all("unbalanced" in line for line in sweep.mismatches)


def test_a_singular_line_off_eta_zero_is_rejected(monkeypatch):
    # the kernel bends legs on eta = 0 only; a moved line must not count on it
    moved = replace(CP2, singularities=(Singularity(Fraction(1, 2), CP2.singularities[0].xi_pos),))
    monkeypatch.setattr(tr, "CP2", moved)
    message = r"^singular line eta = 1/2: the kernel handles eta = 0 only$"
    for entry in (tr.tropical_structure_constant, tr.build_triangle):
        with pytest.raises(ValueError, match=message):
            entry(-2, 0, 2, 2, 0, 2, 1)
