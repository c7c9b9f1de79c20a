"""Tropical triangles on the bigon, with exact balancing and multiplicities.

A structure constant is witnessed by a piecewise-linear tree with two legs
meeting at the root q_{a+b,h}.  Along a leg of weight w the tangent vector
grows by w times the displacement (the leg of an exponential-parametrized
geodesic), so a straight leg from leaf q to root arrives with tangent
w*(root - q).  Legs may bend only where they cross the singular vertical
line; there, disks emanating from the focus-focus singularity attach with
primitive direction (0, 1) (singularity below the crossing) or (0, -1)
(singularity above; the leg then also crosses the branch cut and picks up
the monodromy shear).  The triangle is balanced when the two leg tangents
cancel at the root after all attachments.

For opposite-sign columns the crossing point is forced to

    x = (0, (-a*j + b*i + b*s) / (m*a - n*b)),      s = h - (i + j),

and the disks can attach at |det(tangent, (0,1))| = k spots, giving
multiplicity C(k, s) with s disks below or C(k, k-s) with k-s disks above;
the two counts are equal, which is why the exact singularity height never
matters.  Same-sign columns admit only the straight segment with h = i + j.

The multi-singularity generalization is covered by the partition identity
C(sum k_t, s) = sum over compositions (s_t) of prod C(k_t, s_t); the
geometric construction itself is implemented for the single-singularity
instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .affine import CP2, RationalPoint
from .floer import k_value_cp2

Vec = tuple[Fraction, Fraction]

_SING_ETA = Fraction(0)  # the singular vertical line of the bigon
_DEFAULT_SING_XI = Fraction(-1, 4)


def _vec(p: RationalPoint, q: RationalPoint) -> Vec:
    return (p.eta - q.eta, p.xi - q.xi)


def _add(u: Vec, v: Vec) -> Vec:
    return (u[0] + v[0], u[1] + v[1])


def _scale(c, u: Vec) -> Vec:
    return (c * u[0], c * u[1])


def _shear(u: Vec, power: int) -> Vec:
    """Monodromy [[1,0],[1,1]]^power on a tangent vector."""
    return (u[0], power * u[0] + u[1])


@dataclass(frozen=True)
class TropicalLeg:
    start: RationalPoint
    end: RationalPoint
    weight: int
    tangent_at_end: Vec


@dataclass(frozen=True)
class DiskAttachment:
    """Disks hitting a leg where it meets the singular line.

    `direction` is the primitive invariant vector of the disk family:
    (0, 1) when the singularity sits below the attachment point, (0, -1)
    when it sits above (in which case the leg crosses the branch cut there).
    """

    point: RationalPoint
    count: int
    direction: tuple[int, int]

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("disk count must be positive")
        if self.direction not in ((0, 1), (0, -1)):
            raise ValueError("direction must be +-(0, 1)")
        if self.point.eta != _SING_ETA:
            raise ValueError("attachment must lie on the singular vertical line")


@dataclass(frozen=True)
class TropicalTriangle:
    legs: tuple[TropicalLeg, TropicalLeg]
    root: RationalPoint
    bend: Optional[RationalPoint]
    disks: tuple[DiskAttachment, ...]
    multiplicity: int


def _straight_tangent(leg: TropicalLeg) -> Vec:
    return _scale(leg.weight, _vec(leg.end, leg.start))


def _bent_tangents(
    leg: TropicalLeg, bend: RationalPoint, disks: Sequence[DiskAttachment]
) -> list[Vec]:
    """Possible arrival tangents of a leg routed through the bend.

    With the singularity below the crossing the disks push by count*(0, 1)
    and no cut is met; with the singularity above, the leg crosses the cut
    (shear in the direction of travel) and the disks push by count*(0, -1).
    When no disks are attached both configurations are geometrically
    possible, so both candidates are returned.
    """
    lo, hi = sorted((leg.start.eta, leg.end.eta))
    if not lo <= bend.eta <= hi or leg.start.eta == leg.end.eta:
        return []
    base = _scale(leg.weight, _vec(bend, leg.start))
    tail = _scale(leg.weight, _vec(leg.end, bend))
    travel = 1 if leg.end.eta > leg.start.eta else -1
    directions = {d.direction for d in disks}
    candidates: list[Vec] = []
    if directions <= {(0, 1)}:
        jump = sum(d.count for d in disks)
        candidates.append(_add(_add(base, (Fraction(0), Fraction(jump))), tail))
    if directions <= {(0, -1)}:
        jump = sum(d.count for d in disks)
        candidates.append(
            _add(_add(_shear(base, travel), (Fraction(0), Fraction(-jump))), tail)
        )
    return candidates


def check_balancing(t: TropicalTriangle) -> bool:
    """Exact balancing: leg tangents recomputed from the growth law, the
    monodromy rule and the disk jumps must match the stored tangents and
    cancel at the root."""
    if any(leg.end != t.root for leg in t.legs):
        return False
    zero = (Fraction(0), Fraction(0))
    stored = [leg.tangent_at_end for leg in t.legs]
    if _add(stored[0], stored[1]) != zero:
        return False
    if t.bend is None:
        return not t.disks and all(
            _straight_tangent(leg) == leg.tangent_at_end for leg in t.legs
        )
    for bent, straight in ((0, 1), (1, 0)):
        if _straight_tangent(t.legs[straight]) != stored[straight]:
            continue
        if stored[bent] in _bent_tangents(t.legs[bent], t.bend, t.disks):
            return True
    return False


def _reflect_point(p: RationalPoint) -> RationalPoint:
    return RationalPoint(-p.eta, p.xi)


def _reflect_leg(leg: TropicalLeg) -> TropicalLeg:
    return TropicalLeg(
        _reflect_point(leg.start),
        _reflect_point(leg.end),
        leg.weight,
        (-leg.tangent_at_end[0], leg.tangent_at_end[1]),
    )


def _reflect_triangle(t: TropicalTriangle) -> TropicalTriangle:
    return TropicalTriangle(
        tuple(_reflect_leg(leg) for leg in t.legs),
        _reflect_point(t.root),
        None if t.bend is None else _reflect_point(t.bend),
        tuple(replace(d, point=_reflect_point(d.point)) for d in t.disks),
        t.multiplicity,
    )


def _swap_legs(t: TropicalTriangle) -> TropicalTriangle:
    return replace(t, legs=(t.legs[1], t.legs[0]))


def _check_indices(a: int, i: int, n: int) -> None:
    if n < 1 or not 0 <= i < CP2.column_counts(n).get(a, 0):
        raise ValueError(f"q_({a},{i}) with denominator {n} is not admissible")


def _point(a: int, i: int, n: int) -> RationalPoint:
    return RationalPoint(Fraction(a, n), Fraction(-i, n))


def _build_canonical(
    a: int, i: int, n: int, b: int, j: int, m: int, s: int, sing_above: bool
) -> TropicalTriangle:
    """Bent triangle for a < 0 <= b with |a| <= |b|, 0 <= s <= k = -a."""
    k = -a
    q1, q2 = _point(a, i, n), _point(b, j, m)
    h = i + j + s
    root = _point(a + b, h, n + m)
    bend = RationalPoint(_SING_ETA, Fraction(-a * j + b * i + b * s, m * a - n * b))
    t1 = _scale(n, _vec(bend, q1))
    assert abs(t1[0]) == k  # |det(tangent, (0,1))| attachment spots
    if sing_above:
        count, direction = k - s, (0, -1)
        t1 = _shear(t1, 1)
    else:
        count, direction = s, (0, 1)
    disks = (DiskAttachment(bend, count, direction),) if count else ()
    t1 = _add(t1, _scale(count, direction))
    t1 = _add(t1, _scale(n, _vec(root, bend)))
    t2 = _scale(m, _vec(root, q2))
    assert _add(t1, t2) == (Fraction(0), Fraction(0))
    return TropicalTriangle(
        legs=(TropicalLeg(q1, root, n, t1), TropicalLeg(q2, root, m, t2)),
        root=root,
        bend=bend,
        disks=disks,
        multiplicity=math.comb(k, s),
    )


def _build_straight(a: int, i: int, n: int, b: int, j: int, m: int) -> TropicalTriangle:
    """Same-sign triangle: the segment through the three points, h = i + j."""
    q1, q2 = _point(a, i, n), _point(b, j, m)
    root = _point(a + b, i + j, n + m)
    t1 = _scale(n, _vec(root, q1))
    t2 = _scale(m, _vec(root, q2))
    assert _add(t1, t2) == (Fraction(0), Fraction(0))
    return TropicalTriangle(
        legs=(TropicalLeg(q1, root, n, t1), TropicalLeg(q2, root, m, t2)),
        root=root,
        bend=None,
        disks=(),
        multiplicity=1,
    )


def _build(
    a: int, i: int, n: int, b: int, j: int, m: int, h: int, sing_above: bool
) -> Optional[TropicalTriangle]:
    _check_indices(a, i, n)
    _check_indices(b, j, m)
    s = h - (i + j)
    k = k_value_cp2(a, b)
    if not 0 <= s <= k:
        return None
    if k == 0:
        triangle = _build_straight(a, i, n, b, j, m)
    else:
        swapped = abs(a) > abs(b)
        if swapped:
            a, i, n, b, j, m = b, j, m, a, i, n
        reflected = a > 0
        if reflected:
            a, b = -a, -b
        triangle = _build_canonical(a, i, n, b, j, m, s, sing_above)
        if reflected:
            triangle = _reflect_triangle(triangle)
        if swapped:
            triangle = _swap_legs(triangle)
    assert check_balancing(triangle)
    return triangle


def bend_height(a: int, i: int, n: int, b: int, j: int, m: int, h: int) -> Fraction:
    """Height at which the bent leg crosses the singular line (opposite signs)."""
    s = h - (i + j)
    swapped = abs(a) > abs(b)
    if swapped:
        a, i, n, b, j, m = b, j, m, a, i, n
    if a > 0:
        a, b = -a, -b
    if m * a - n * b == 0:
        raise ValueError("no bend in the same-column case")
    return Fraction(-a * j + b * i + b * s, m * a - n * b)


def build_triangle(
    a: int,
    i: int,
    n: int,
    b: int,
    j: int,
    m: int,
    h: int,
    singularity_xi: Fraction = _DEFAULT_SING_XI,
) -> Optional[TropicalTriangle]:
    """The unique tropical triangle from q_{a,i}@n and q_{b,j}@m to
    q_{a+b,h}@(n+m), or None when no triangle exists for this h.

    `singularity_xi` is the height of the singularity on its invariant line;
    it selects whether disks attach from below or above but never changes
    the multiplicity.
    """
    sing_above = False
    if k_value_cp2(a, b) > 0 and 0 <= h - (i + j) <= k_value_cp2(a, b):
        sing_above = Fraction(singularity_xi) > bend_height(a, i, n, b, j, m, h)
    return _build(a, i, n, b, j, m, h, sing_above)


def tropical_structure_constant(
    a: int,
    i: int,
    n: int,
    b: int,
    j: int,
    m: int,
    h: int,
    singularity_xi: Fraction = _DEFAULT_SING_XI,
) -> int:
    """Total multiplicity of all triangles hitting output height h."""
    triangle = build_triangle(a, i, n, b, j, m, h, singularity_xi)
    return 0 if triangle is None else triangle.multiplicity


def singularity_position_invariance(
    a: int, i: int, n: int, b: int, j: int, m: int, h: int
) -> bool:
    """Whether the below-placement count C(k,s) and the above-placement
    count C(k,k-s) agree for this (necessarily opposite-sign) product."""
    if k_value_cp2(a, b) == 0:
        raise ValueError("position invariance applies to the opposite-sign case")
    below = _build(a, i, n, b, j, m, h, sing_above=False)
    above = _build(a, i, n, b, j, m, h, sing_above=True)
    if below is None or above is None:
        return below is None and above is None
    return below.multiplicity == above.multiplicity


def partition_constant(k_list: Sequence[int], s: int) -> int:
    """Sum over ordered compositions (s_1..s_t) of s of prod C(k_t, s_t).

    Computed as the coefficient of x^s in prod (1+x)^(k_t), multiplying in
    one factor at a time and keeping degrees <= s: after t factors, entry r
    is the same sum over compositions of r into t parts.  Equals
    C(sum k_t, s), the coefficient of x^s in (1+x)^(sum k_t).
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    if any(k < 0 for k in k_list):
        raise ValueError("covering counts must be nonnegative")
    coeffs = [1] + [0] * s
    for k in k_list:
        coeffs = [
            sum(math.comb(k, part) * coeffs[r - part] for part in range(min(k, r) + 1))
            for r in range(s + 1)
        ]
    return coeffs[s]


def triangle_to_json(t: TropicalTriangle) -> dict:
    from .affine import rat_str

    def pt(p: RationalPoint):
        return [rat_str(p.eta), rat_str(p.xi)]

    return {
        "legs": [
            {
                "start": pt(leg.start),
                "end": pt(leg.end),
                "weight": leg.weight,
                "tangent_at_end": [rat_str(leg.tangent_at_end[0]), rat_str(leg.tangent_at_end[1])],
            }
            for leg in t.legs
        ],
        "root": pt(t.root),
        "bend": None if t.bend is None else pt(t.bend),
        "disks": [
            {"point": pt(d.point), "count": d.count, "direction": list(d.direction)}
            for d in t.disks
        ],
        "multiplicity": t.multiplicity,
    }
