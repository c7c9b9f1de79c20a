"""Tropical triangles on the bigon, with exact balancing and multiplicities.

A structure constant is witnessed by a piecewise-linear tree with two legs
meeting at the root q_{a+b,h}.  Along a leg of weight w the tangent vector
grows by w times the displacement (the leg of an exponential-parametrized
geodesic), so a straight leg from leaf q to root arrives with tangent
w*(root - q).  Legs may bend only where they cross the singular vertical
line; there, disks emanating from the focus-focus singularity attach with
primitive direction (0, 1) (singularity below the crossing) or (0, -1)
(singularity above; the leg then also crosses the branch cut and picks up
the monodromy shear).  The parts of a bent leg add up to root - q, so it
arrives with its straight tangent plus the disk jump, plus the shear of the
part before the bend when it crosses the cut; after the bend it runs along
that arrival tangent.  The triangle is balanced when the two leg tangents
cancel at the root.

For opposite-sign columns the leg from the column of smaller |a| bends, at
the crossing point forced to be (written with the bent leg first, a < 0)

    x = (0, (-a*j + b*i + b*s) / (m*a - n*b)),      s = h - (i + j),

and the disks can attach at k = |det(tangent, (0,1))| = |a| spots, giving
multiplicity C(k, s) with s disks below or C(k, k-s) with k-s disks above;
the two counts are equal, which is why the exact singularity height never
matters.  Same-sign columns admit only the straight segment with h = i + j.
k is read off the witness, so this module imports only `affine`.

The singularity is that of `affine.CP2`, read once per witness, so a polygon
substituted for `CP2` moves its height everywhere at once; the height only
selects whether the disks attach from below or from above.

One integer kernel, `_witness`, works out every witness in coordinates scaled
by n*m*(n+m): the bend, the disks, the shear and the balance of the arrival
tangents.  `tropical_structure_constant` returns its multiplicity;
`build_triangle` divides its integers back into `Fraction` coordinates (for
`render --triangle`, the JSON output and the acceptance checks) and re-checks
them with the independent `check_balancing`, which reads only the triangle
and also checks that every disk sits at the bend and that the bent leg runs
along its arrival tangent after it.  Both raise ArithmeticError rather than
return a witness that does not balance; `build_triangle`'s message names
the condition that failed.

The geometric construction is implemented for one singularity on the line
eta = 0; a singularity on another line raises ValueError.  The
multi-singularity generalization is covered by the partition identity
C(sum k_t, s) = sum over compositions (s_t) of prod C(k_t, s_t).
`partition_constant` reads the left side off the coefficients of
prod (1+x)^(k_t), a product of binomial rows that it memoizes per
composition, each entry built from its prefix's by one more row, so every
s of a composition costs one lookup after the first.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import index
from typing import NamedTuple, Optional, Sequence

from .affine import CP2, RationalPoint, check_ints, rat_str

Vec = tuple[Fraction, Fraction]


class TropicalLeg(NamedTuple):
    start: RationalPoint
    end: RationalPoint
    weight: int
    tangent_at_end: Vec


class _DiskFields(NamedTuple):
    point: RationalPoint
    count: int
    direction: tuple[int, int]


class DiskAttachment(_DiskFields):
    """Disks hitting a leg where it meets the singular line.

    `direction` is the primitive invariant vector of the disk family:
    (0, 1) when the singularity sits below the attachment point, (0, -1)
    when it sits above (in which case the leg crosses the branch cut there).
    """

    __slots__ = ()

    def __new__(cls, point: RationalPoint, count: int, direction: tuple[int, int]):
        if count < 1:
            raise ValueError("disk count must be positive")
        if direction not in ((0, 1), (0, -1)):
            raise ValueError("direction must be +-(0, 1)")
        if point.eta != 0:
            raise ValueError("attachment must lie on the singular line eta = 0")
        return tuple.__new__(cls, (point, count, direction))


class TropicalTriangle(NamedTuple):
    legs: tuple[TropicalLeg, TropicalLeg]
    root: RationalPoint
    bend: Optional[RationalPoint]
    disks: tuple[DiskAttachment, ...]
    multiplicity: int


def straight_tangent(leg: TropicalLeg) -> Vec:
    """Arrival tangent w*(end - start) of the leg run straight to its end."""
    return (leg.weight * (leg.end.eta - leg.start.eta), leg.weight * (leg.end.xi - leg.start.xi))


def _bent_tangents(
    leg: TropicalLeg, bend: RationalPoint, disks: Sequence[DiskAttachment]
) -> list[Vec]:
    """Possible arrival tangents of a leg routed through the bend, read off
    its straight tangent (x, y), since the parts before and after the bend
    add up to end - start: (x, y + jump) when the disks push up (singularity
    below, no cut met), and (x, y + travel*w*(bend.eta - start.eta) - jump)
    when the leg crosses the cut (singularity above, disks pushing down, the
    part before the bend sheared in the direction of travel).  The shear is
    the only place the bend enters.  With no disks attached both candidates
    are returned.
    """
    lo, hi = sorted((leg.start.eta, leg.end.eta))
    if not lo <= bend.eta <= hi or leg.start.eta == leg.end.eta:
        return []
    x, y = straight_tangent(leg)
    travel = 1 if leg.end.eta > leg.start.eta else -1
    directions = {d.direction for d in disks}
    jump = sum(d.count for d in disks)
    candidates: list[Vec] = []
    if directions <= {(0, 1)}:
        candidates.append((x, y + jump))
    if directions <= {(0, -1)}:
        candidates.append((x, y + travel * leg.weight * (bend.eta - leg.start.eta) - jump))
    return candidates


def _balancing_fault(t: TropicalTriangle) -> Optional[str]:
    """The condition `check_balancing` finds broken, or None.  With a bend,
    the reading of the legs (which one is bent) that passes the most of its
    three checks names the fault."""
    stored = [leg.tangent_at_end for leg in t.legs]
    (x0, y0), (x1, y1) = stored
    if any(leg.end != t.root for leg in t.legs):
        return "a leg does not end at the root"
    if x0 + x1 or y0 + y1:
        return "the leg tangents do not cancel at the root"
    if any(d.point != t.bend for d in t.disks):
        return "a disk sits off the bend"
    off_straight = "a straight leg does not arrive with its straight tangent"
    if t.bend is None:
        on_straight = all(straight_tangent(leg) == leg.tangent_at_end for leg in t.legs)
        return None if on_straight else off_straight
    run = (t.root.eta - t.bend.eta, t.root.xi - t.bend.xi)
    faults = []
    for bent, straight in ((0, 1), (1, 0)):
        if straight_tangent(t.legs[straight]) != stored[straight]:
            faults.append((0, off_straight))
        elif stored[bent] not in _bent_tangents(t.legs[bent], t.bend, t.disks):
            faults.append((1, "the bent leg arrives with a tangent the bend does not allow"))
        elif run[0] * stored[bent][1] != run[1] * stored[bent][0]:
            faults.append((2, "the bent leg does not run along its arrival tangent after the bend"))
        else:
            return None
    return max(faults)[1]


def check_balancing(t: TropicalTriangle) -> bool:
    """Exact balancing, read from the triangle alone: both legs end at the
    root and their stored tangents cancel there; a straight leg arrives with
    its straight tangent, and the bent one with a tangent `_bent_tangents`
    allows.  Every disk sits at the bend, and after the bend the bent leg
    runs along its arrival tangent: (root - bend) x tangent = 0."""
    return _balancing_fault(t) is None


def _check_indices(a: int, i: int, n: int) -> None:
    if n < 1:
        raise ValueError(f"tropical witnesses need positive denominators, got {n}")
    CP2.check_point(a, i, n)


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


_new = tuple.__new__  # _new(_Witness, fields): the record without its frame


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
    sing = CP2.singularities[0]
    if sing._eta[0]:  # the numerator of eta_pos
        raise ValueError(f"singular line eta = {sing.eta_pos}: the kernel handles eta = 0 only")
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
    x0, y0, x1, y1 = a * m * (n + m), -i * m * (n + m), b * n * (n + m), -j * n * (n + m)
    leaves = ((x0, y0, n), (x1, y1, m))
    tangents = [[n * (root_x - x0), n * (root_y - y0)], [m * (root_x - x1), m * (root_y - y1)]]
    # Same-sign columns (k = 0) give the straight segment with h = i + j.
    bend, count, sign = None, 0, 1
    if k:
        x, _, w = leaves[bent]
        base_x = -w * x  # the part before the bend ends on the singular line eta = 0
        bend = _bend_ratio(a, i, n, b, j, m, h)
        xi = sing.xi_pos
        sing_above = xi.numerator * bend[1] > bend[0] * xi.denominator
        count, sign = _disks(k, s, sing_above)
        if sing_above:  # shear of the part before the bend, in the direction of travel
            tangents[bent][1] += (1 if root_x > x else -1) * base_x
        tangents[bent][1] += count * sign * big
    if tangents[0][0] + tangents[1][0] or tangents[0][1] + tangents[1][1]:
        raise ArithmeticError(
            f"tropical witness of q_({a},{i})@{n} * q_({b},{j})@{m} at h={h} does not balance"
        )
    return _new(
        _Witness, (big, leaves, (root_x, root_y), tangents, bend, (count, sign), comb(k, count))
    )


def build_triangle(
    a: int, i: int, n: int, b: int, j: int, m: int, h: int
) -> Optional[TropicalTriangle]:
    """The unique tropical triangle from q_{a,i}@n and q_{b,j}@m to
    q_{a+b,h}@(n+m), or None when no triangle exists for this h.

    Raises ArithmeticError unless `check_balancing` accepts the triangle;
    the message names the condition that failed.
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
    bend = None if w.bend is None else RationalPoint(Fraction(0), Fraction(*w.bend))
    count, sign = w.disks
    disks = (DiskAttachment(bend, count, (0, sign)),) if count else ()
    triangle = TropicalTriangle(legs, root, bend, disks, w.multiplicity)
    fault = _balancing_fault(triangle)
    if fault is not None:
        raise ArithmeticError(f"tropical triangle for h={h} does not balance: {fault}")
    return triangle


def tropical_structure_constant(a: int, i: int, n: int, b: int, j: int, m: int, h: int) -> int:
    """Total multiplicity C(k, number of disks) of the witnesses hitting
    output height h, s = h - (i+j), counted in integers without building
    the triangle: s disks below the singularity, k - s above it.  Raises
    ArithmeticError when the witness does not balance.
    """
    w = _witness(a, i, n, b, j, m, h)
    return 0 if w is None else w.multiplicity


# Coefficients of prod (1+x)^(k_t), keyed by the nonempty tuple (k_1..k_t);
# every prefix of a stored key is stored too.
_partition_polys: dict[tuple[int, ...], tuple[int, ...]] = {}


def _times_row(poly: tuple[int, ...], k) -> tuple[int, ...]:
    """poly times (1+x)^k, convolving in the binomial row C(k, 0..k)."""
    row = [comb(k, part) for part in range(k + 1)]
    out = [0] * (len(poly) + k)
    for part, c in enumerate(row):
        for r, p in enumerate(poly, part):
            out[r] += c * p
    return tuple(out)


def partition_constant(k_list: Sequence[int], s: int) -> int:
    """Sum over ordered compositions (s_1..s_t) of s of prod C(k_t, s_t).

    Computed as the coefficient of x^s in prod (1+x)^(k_t), 0 when s is past
    its degree sum k_t: after t factors, entry r of the product is the same
    sum over compositions of r into t parts.  The whole coefficient tuple is
    memoized per composition, each built from its prefix's by convolving in
    one binomial row, so the calls for every s of a composition, and for
    compositions sharing a prefix, share the work; a memo hit costs one dict
    read.  On a miss one loop over the parts checks their signs, in order,
    and a rejected argument raises on every call.  A new part k costs its
    full row of k+1 entries, whatever s is.  Equals C(sum k_t, s), the
    coefficient of x^s in (1+x)^(sum k_t).
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    parts = tuple(k_list)
    poly = _partition_polys.get(parts)
    if poly is None:
        for k in parts:
            if k < 0:
                raise ValueError("covering counts must be nonnegative")
            if type(k) is not int:
                check_ints("covering counts", parts)
        poly = (1,)
        for t, k in enumerate(parts, 1):
            known = _partition_polys.get(parts[:t])
            poly = _partition_polys[parts[:t]] = _times_row(poly, k) if known is None else known
    s = index(s)
    return poly[s] if s < len(poly) else 0


def triangle_to_json(t: TropicalTriangle) -> dict:
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
