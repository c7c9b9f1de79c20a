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

For opposite-sign columns the leg from the column of smaller |a| bends, at
the crossing point forced to be (written with the bent leg first, a < 0)

    x = (0, (-a*j + b*i + b*s) / (m*a - n*b)),      s = h - (i + j),

and the disks can attach at k = |det(tangent, (0,1))| = |a| spots, giving
multiplicity C(k, s) with s disks below or C(k, k-s) with k-s disks above;
the two counts are equal, which is why the exact singularity height never
matters.  Same-sign columns admit only the straight segment with h = i + j.
k is read off the witness, so this module imports only `affine`.

The singular line and the singularity's height on it are those of the one
singularity of `affine.CP2`, read each time a witness is worked out, so a
polygon substituted for `CP2` moves the singularity everywhere at once.  Its
height selects only whether the disks attach from below or from above.

One integer kernel, `_witness`, works out every witness in coordinates scaled
by n*m*(n+m): the bend, the disks, the shear and the balance of the arrival
tangents.  `tropical_structure_constant` returns its multiplicity;
`build_triangle` divides its integers back into `Fraction` coordinates (for
`render --triangle`, the JSON output and the acceptance checks) and re-checks
them with the independent `check_balancing`.  Both raise ArithmeticError
rather than return a witness that does not balance.

The multi-singularity generalization is covered by the partition identity
C(sum k_t, s) = sum over compositions (s_t) of prod C(k_t, s_t); the
geometric construction itself is implemented for the single-singularity
instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import NamedTuple, Optional, Sequence

from .affine import CP2, RationalPoint

Vec = tuple[Fraction, Fraction]


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
        if self.point.eta != CP2.singularities[0].eta_pos:
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


def _check_indices(a: int, i: int, n: int) -> None:
    if n < 1 or not 0 <= i < CP2.column_counts(n).get(a, 0):
        raise ValueError(f"q_({a},{i}) with denominator {n} is not admissible")


def _disks(k: int, s: int, sing_above: bool) -> tuple[int, int]:
    """(count, sign of the direction (0, +-1)) of the disks attaching at the
    bend: k - s pushing down when the singularity is above the bend (the
    leg also crosses the cut there), s pushing up when it is below."""
    return (k - s, -1) if sing_above else (s, 1)


def _bend_ratio(a: int, i: int, n: int, b: int, j: int, m: int, h: int) -> tuple[int, int]:
    """(numerator, positive denominator) of the height at which the bent leg,
    the one from the column of smaller |a|, crosses the singular line, for
    columns of opposite sign.  The ratio is unchanged by (a, b) -> (-a, -b),
    so the mirror image of a product bends at the same height."""
    s = h - (i + j)
    if abs(a) > abs(b):
        a, i, n, b, j, m = b, j, m, a, i, n
    num, den = -a * j + b * i + b * s, m * a - n * b  # den != 0: opposite signs
    return (-num, -den) if den < 0 else (num, den)


class _Witness(NamedTuple):
    """A balanced witness, its points and tangents scaled by `big`; `bend` is
    the unscaled crossing height (numerator, denominator > 0) or None."""

    big: int
    leaves: tuple[tuple[int, int, int], tuple[int, int, int]]  # (eta, xi, weight)
    root: tuple[int, int]
    tangents: list[list[int]]
    bend: Optional[tuple[int, int]]
    disks: tuple[int, int]  # (count, sign of the direction (0, +-1))
    multiplicity: int


def _witness(a: int, i: int, n: int, b: int, j: int, m: int, h: int) -> Optional[_Witness]:
    """The witness from q_{a,i}@n and q_{b,j}@m to q_{a+b,h}@(n+m), or None
    when s = h - (i+j) lies outside [0, k].

    k is the bent leg's attachment spots on the line eta = 0: w*|leaf eta| =
    |a| when the leaf and the root lie on opposite sides (the root may sit on
    it), else 0.  The bent leg's arrival tangent is its straight tangent plus
    the disk jump, plus the monodromy shear of the part before the bend when
    the singularity is above it; the two arrival tangents must cancel, else
    ArithmeticError.  The multiplicity is C(k, number of disks).
    """
    _check_indices(a, i, n)
    _check_indices(b, j, m)
    s = h - (i + j)
    bent = 0 if abs(a) <= abs(b) else 1
    col = b if bent else a
    k = abs(col) if col * (a + b) <= 0 else 0
    if not 0 <= s <= k:
        return None
    big = n * m * (n + m)
    root_x, root_y = (a + b) * n * m, -h * n * m
    leaves = ((a * m * (n + m), -i * m * (n + m), n), (b * n * (n + m), -j * n * (n + m), m))
    tangents = [[w * (root_x - x), w * (root_y - y)] for x, y, w in leaves]
    # Same-sign columns (k = 0) give the straight segment with h = i + j.
    bend, count, sign = None, 0, 1
    if k:
        x, _, w = leaves[bent]
        base_x = -w * x  # the part before the bend ends on the singular line eta = 0
        bend = _bend_ratio(a, i, n, b, j, m, h)
        xi = CP2.singularities[0].xi_pos
        sing_above = xi.numerator * bend[1] > bend[0] * xi.denominator
        count, sign = _disks(k, s, sing_above)
        if sing_above:  # shear of the part before the bend, in the direction of travel
            tangents[bent][1] += (1 if root_x > x else -1) * base_x
        tangents[bent][1] += count * sign * big
    if tangents[0][0] + tangents[1][0] or tangents[0][1] + tangents[1][1]:
        raise ArithmeticError(
            f"tropical witness of q_({a},{i})@{n} * q_({b},{j})@{m} at h={h} does not balance"
        )
    return _Witness(big, leaves, (root_x, root_y), tangents, bend, (count, sign), comb(k, count))


def build_triangle(
    a: int, i: int, n: int, b: int, j: int, m: int, h: int
) -> Optional[TropicalTriangle]:
    """The unique tropical triangle from q_{a,i}@n and q_{b,j}@m to
    q_{a+b,h}@(n+m), or None when no triangle exists for this h.

    Raises ArithmeticError unless `check_balancing` accepts the triangle.
    """
    w = _witness(a, i, n, b, j, m, h)
    if w is None:
        return None

    def point(x: int, y: int) -> RationalPoint:
        return RationalPoint(Fraction(x, w.big), Fraction(y, w.big))

    root = point(*w.root)
    legs = tuple(
        TropicalLeg(point(x, y), root, weight, (Fraction(tx, w.big), Fraction(ty, w.big)))
        for (x, y, weight), (tx, ty) in zip(w.leaves, w.tangents)
    )
    bend = None
    if w.bend is not None:
        bend = RationalPoint(CP2.singularities[0].eta_pos, Fraction(*w.bend))
    count, sign = w.disks
    disks = (DiskAttachment(bend, count, (0, sign)),) if count else ()
    triangle = TropicalTriangle(legs, root, bend, disks, w.multiplicity)
    if not check_balancing(triangle):
        raise ArithmeticError(f"tropical triangle for h={h} does not balance")
    return triangle


def tropical_structure_constant(a: int, i: int, n: int, b: int, j: int, m: int, h: int) -> int:
    """Total multiplicity C(k, number of disks) of the witnesses hitting
    output height h, s = h - (i+j), counted in integers without building
    the triangle: s disks below the singularity, k - s above it.  Raises
    ArithmeticError when the witness does not balance.
    """
    w = _witness(a, i, n, b, j, m, h)
    return 0 if w is None else w.multiplicity


def partition_constant(k_list: Sequence[int], s: int) -> int:
    """Sum over ordered compositions (s_1..s_t) of s of prod C(k_t, s_t).

    Computed as the coefficient of x^s in prod (1+x)^(k_t), multiplying in
    one factor at a time and keeping degrees <= s: after t factors, entry r
    is the same sum over compositions of r into t parts.  Each factor is
    convolved in from its row C(k_t, 0..min(k_t, s)), computed once per
    part.  Equals C(sum k_t, s), the coefficient of x^s in (1+x)^(sum k_t).
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    if any(k < 0 for k in k_list):
        raise ValueError("covering counts must be nonnegative")
    coeffs = [1] + [0] * s
    for k in k_list:
        row = [comb(k, part) for part in range(min(k, s) + 1)]
        convolved = [0] * (s + 1)
        for part, c in enumerate(row):
            for r in range(part, s + 1):
                convolved[r] += c * coeffs[r - part]
        coeffs = convolved
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
