"""Singular integral affine polygons and their fractional integral points.

The central object is a two-dimensional integral affine manifold of polygonal
type, drawn in a single chart where every branch cut runs straight downward
from its focus-focus singularity.  In this chart the region is bounded by two
piecewise-linear graphs over a global horizontal coordinate eta:

* the *top* polyline, which is straight across every singularity (no slope
  jumps), and
* the *bottom* polyline, whose slope jumps by exactly the singularity
  multiplicity at each singularity position (the jump is what the downward
  branch cut absorbs; the facet is straight in the intrinsic affine
  structure).

Corners of the region may occur only at the two eta-extremes; an extreme may
instead carry a vertical boundary facet.

All coordinates are exact rationals (`fractions.Fraction`); no floating point
enters any predicate.  Everything here is an immutable value and every
operation is a pure function.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Mapping, NamedTuple, Sequence, Union

RatLike = Union[Fraction, int, str]


def rat(value: RatLike) -> Fraction:
    """Parse an exact rational from an int, Fraction, or "p/q" string.

    A bool is an int to Python but not a number in an instance file, so it
    is rejected like any other non-rational.
    """
    if isinstance(value, bool):
        raise TypeError(f"not an exact rational: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def rat_str(value: Fraction) -> str:
    """Encode a rational losslessly as "p" or "p/q"."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class RationalPoint:
    """A point of the polygon in the downward-cut chart coordinates (eta, xi)."""

    eta: Fraction
    xi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "eta", rat(self.eta))
        object.__setattr__(self, "xi", rat(self.xi))


@dataclass(frozen=True)
class Singularity:
    """A focus-focus singularity on the vertical line eta = eta_pos.

    `multiplicity` is the number of simple focus-focus points merged at this
    position (1 in every instance drawn from the source geometry).
    """

    eta_pos: Fraction
    xi_pos: Fraction
    multiplicity: int = 1
    _eta: tuple[int, int] = field(init=False, repr=False, compare=False)  # eta_pos as (p, q)

    def __post_init__(self):
        eta = rat(self.eta_pos)
        object.__setattr__(self, "eta_pos", eta)
        object.__setattr__(self, "_eta", (eta.numerator, eta.denominator))
        object.__setattr__(self, "xi_pos", rat(self.xi_pos))
        m = self.multiplicity
        if isinstance(m, bool) or not isinstance(m, int) or m < 1:
            raise ValueError("multiplicity must be a positive integer")


@dataclass(frozen=True)
class BoundaryPolyline:
    """A piecewise-linear graph over eta given by its vertices.

    Vertices must be strictly increasing in eta.  The facet slopes are exact
    rationals, derived from consecutive vertices.
    """

    vertices: tuple[RationalPoint, ...]

    def __post_init__(self):
        verts = tuple(
            v if isinstance(v, RationalPoint) else RationalPoint(*v)
            for v in self.vertices
        )
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 2:
            raise ValueError("polyline needs at least two vertices")
        for u, v in zip(verts, verts[1:]):
            if not u.eta < v.eta:
                raise ValueError("polyline vertices must be strictly increasing in eta")

    @property
    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(
            (v.xi - u.xi) / (v.eta - u.eta)
            for u, v in zip(self.vertices, self.vertices[1:])
        )

    @property
    def eta_min(self) -> Fraction:
        return self.vertices[0].eta

    @property
    def eta_max(self) -> Fraction:
        return self.vertices[-1].eta

    def value(self, eta: Fraction) -> Fraction:
        """Evaluate the graph at eta (must lie within the eta-range)."""
        eta = rat(eta)
        if not (self.eta_min <= eta <= self.eta_max):
            raise ValueError(f"eta={eta} outside polyline range")
        for u, v in zip(self.vertices, self.vertices[1:]):
            if u.eta <= eta <= v.eta:
                return u.xi + (v.xi - u.xi) * (eta - u.eta) / (v.eta - u.eta)
        raise AssertionError("unreachable")


@dataclass(frozen=True)
class AffinePolygon:
    """A polygonal singular integral affine manifold in the downward-cut chart.

    `left_corner` / `right_corner` record whether the eta-extreme is a corner
    (top and bottom meet) or a vertical boundary facet (positive fiber
    length).
    """

    eta_min: Fraction
    eta_max: Fraction
    singularities: tuple[Singularity, ...]
    top: BoundaryPolyline
    bottom: BoundaryPolyline
    left_corner: bool = True
    right_corner: bool = True
    _columns: dict[int, dict[int, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # Beside each table in `_columns`: column a -> top lattice height times
    # d, for `embed`.
    _tops: dict[int, dict[int, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # Memos of `floer`, filled only by successful calls (errors are raised,
    # never stored) and growing by one entry per distinct key asked of this
    # polygon.  `_products` memoizes `mu2`: (a, i, n, b, j, m) -> the
    # product's sorted terms.  `_covers` memoizes `critical_cover`:
    # (a, b, n, m) -> its `CriticalCover`, one entry per column pair, since
    # the depths i, j do not move k.  Like `_columns` and `_tops` they are
    # per instance: equal polygons share nothing, `dataclasses.replace`
    # starts empty ones, and they take no part in equality, hashing, repr or
    # JSON.
    _products: dict[tuple[int, ...], tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _covers: dict[tuple[int, int, int, int], Any] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # The segment-line memo, per instance like those above: the
    # `_segment_lines` of bottom and top, filled by `_column_bounds`.
    _lines: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "eta_min", rat(self.eta_min))
        object.__setattr__(self, "eta_max", rat(self.eta_max))
        sings = tuple(sorted(self.singularities, key=lambda s: s.eta_pos))
        object.__setattr__(self, "singularities", sings)

    def fiber(self, eta: Fraction) -> tuple[Fraction, Fraction]:
        """The (bottom, top) xi-interval over eta."""
        return self.bottom.value(eta), self.top.value(eta)

    def contains(self, point: RationalPoint) -> bool:
        """Exact membership in the closed region (boundary points count).

        The point is brought to one denominator d, as (a/d, b/d), and tested
        against the bottom and top lines over its column in the segment-line
        memo: the lines `count_points` sums floors over.  It shares nothing
        with `fiber`, `embed`, `column_counts` or `_column_walk`, so a
        membership check is a derivation independent of the column table.
        """
        eta, xi = point.eta, point.xi
        if not (self.eta_min <= eta <= self.eta_max):
            return False
        d = math.lcm(eta.denominator, xi.denominator)
        bounds = _column_bounds(self, eta.numerator * (d // eta.denominator), d)
        return bounds is not None and _in_column(bounds, xi.numerator * (d // xi.denominator))

    def column_counts(self, d: int) -> Mapping[int, int]:
        """Table column a -> number of (1/d)-integral points at eta = a/d,
        for every column in the eta-range, in increasing a.

        A point q_{a,i} with denominator d lies in the region exactly when
        0 <= i < column_counts(d).get(a, 0).  Filled once per denominator by
        one left-to-right integer walk over the boundary segments
        (`_column_walk`), which also keeps each column's top lattice height
        for `embed`, and shared by every caller, so it must not be
        mutated.  A d that is not an exact int raises ValueError on a miss.
        """
        table = self._columns.get(d)
        if table is None:
            _check_int(d)
            if d < 0:
                raise ValueError("denominator must be nonnegative")
            table, self._tops[d] = _column_walk(self, d)
            self._columns[d] = table
        return table


def _check_int(d) -> None:
    if type(d) is not int:
        raise ValueError(f"denominator must be an int, got {d!r}")


class FractionalPoint(NamedTuple):
    """A (1/d)-integral point of the polygon: column index a, depth index i.

    The column sits at eta = a/d; the depth counts (1/d)-steps downward from
    the topmost (1/d)-integral height in that column.  For the projective
    plane instance (top boundary at xi = 0) the embedded coordinates are
    (a/d, -i/d).  The denominator d = 0 is the polygon's 0-th dilate, whose
    one point q_{0,0} is the unit of the graded ring of formal sums.

    The same triples index the distinguished basis of the homogeneous
    coordinate ring (`polyring.QBasisIndex` is this class).  The tuple checks
    nothing itself: an index is checked where one is computed, against the
    region by `embed` and against the ring's rule by `polyring.q_monomial`.
    """

    a: int
    i: int
    d: int


def _slope_jumps(line: BoundaryPolyline) -> dict[Fraction, Fraction]:
    """Map interior vertex eta -> slope jump (right slope minus left slope)."""
    jumps: dict[Fraction, Fraction] = {}
    for vertex, s_left, s_right in zip(line.vertices[1:-1], line.slopes, line.slopes[1:]):
        if s_right != s_left:
            jumps[vertex.eta] = s_right - s_left
    return jumps


def validate(polygon: AffinePolygon) -> list[str]:
    """Check every axiom; return one message per violation (empty = valid)."""
    errs: list[str] = []
    if not polygon.eta_min < polygon.eta_max:
        errs.append(f"eta range is empty: [{polygon.eta_min}, {polygon.eta_max}]")
        return errs
    for name, line in (("top", polygon.top), ("bottom", polygon.bottom)):
        if line.eta_min != polygon.eta_min or line.eta_max != polygon.eta_max:
            errs.append(
                f"{name} polyline spans [{line.eta_min}, {line.eta_max}], "
                f"expected [{polygon.eta_min}, {polygon.eta_max}]"
            )
    if errs:
        return errs

    sing_eta = {s.eta_pos: s for s in polygon.singularities}
    if len(sing_eta) != len(polygon.singularities):
        errs.append("two singularities share an eta position")

    for s in polygon.singularities:
        if not (polygon.eta_min < s.eta_pos < polygon.eta_max):
            errs.append(f"singularity at eta={s.eta_pos} not strictly interior")
            continue
        lo, hi = polygon.fiber(s.eta_pos)
        if not (lo < s.xi_pos < hi):
            errs.append(
                f"singularity at eta={s.eta_pos} has xi={s.xi_pos} outside the "
                f"open fiber ({lo}, {hi})"
            )

    # Top must be straight everywhere in this chart; the bottom absorbs the
    # shear: slope jump +multiplicity exactly at each singularity position.
    for eta, jump in _slope_jumps(polygon.top).items():
        if eta in sing_eta:
            errs.append(
                f"top boundary jumps by {jump} at the singularity eta={eta} "
                "(monodromy inconsistency: top must stay straight)"
            )
        else:
            errs.append(f"interior corner on the top boundary at eta={eta}")
    bottom_jumps = _slope_jumps(polygon.bottom)
    for eta, jump in bottom_jumps.items():
        if eta in sing_eta:
            want = Fraction(sing_eta[eta].multiplicity)
            if jump != want:
                errs.append(
                    f"bottom slope jump at eta={eta} is {jump}, expected "
                    f"+{want} (monodromy inconsistency)"
                )
        else:
            errs.append(f"interior corner on the bottom boundary at eta={eta}")
    for s in polygon.singularities:
        if polygon.eta_min < s.eta_pos < polygon.eta_max and s.eta_pos not in bottom_jumps:
            errs.append(
                f"bottom slope jump at eta={s.eta_pos} is 0, expected "
                f"+{s.multiplicity} (monodromy inconsistency)"
            )

    # Nonempty interior fibers: the gap is piecewise linear, so positivity at
    # every breakpoint of the combined partition implies positivity throughout.
    breaks = sorted(
        {v.eta for v in polygon.top.vertices} | {v.eta for v in polygon.bottom.vertices}
    )
    for eta in breaks:
        lo, hi = polygon.fiber(eta)
        interior = polygon.eta_min < eta < polygon.eta_max
        if interior and not lo < hi:
            errs.append(f"bottom meets top at interior eta={eta}")
        if not interior and lo > hi:
            errs.append(f"bottom above top at eta={eta}")

    for flag, eta, side in (
        (polygon.left_corner, polygon.eta_min, "left"),
        (polygon.right_corner, polygon.eta_max, "right"),
    ):
        lo, hi = polygon.fiber(eta)
        if flag and lo != hi:
            errs.append(f"{side} extreme flagged as corner but fiber has length {hi - lo}")
        if not flag and not lo < hi:
            errs.append(f"{side} extreme flagged as vertical facet but fiber is empty")
    return errs


def cp2_model(xi: RatLike = Fraction(-1, 4)) -> AffinePolygon:
    """The bigon mirror to the projective plane, scaled to top length 2.

    eta runs over [-1, 1]; the top boundary is xi = 0; the bottom runs from
    (-1, 0) down to (0, -1/2) and back up to (1, 0); one simple singularity
    sits at eta = 0.  Its height xi on the invariant line is a free parameter
    in (-1/2, 0); no enumeration output depends on it.
    """
    xi = rat(xi)
    if not Fraction(-1, 2) < xi < 0:
        raise ValueError("the singularity's height xi must lie strictly between -1/2 and 0")
    return AffinePolygon(
        eta_min=Fraction(-1),
        eta_max=Fraction(1),
        singularities=(Singularity(Fraction(0), xi, 1),),
        top=BoundaryPolyline((RationalPoint(-1, 0), RationalPoint(1, 0))),
        bottom=BoundaryPolyline(
            (RationalPoint(-1, 0), RationalPoint(0, Fraction(-1, 2)), RationalPoint(1, 0))
        ),
        left_corner=True,
        right_corner=True,
    )


CP2 = cp2_model()
"""The projective-plane instance every cp2-only computation runs on."""


def dp6_model(widths: Sequence[int] = (1, 1, 1)) -> AffinePolygon:
    """A four-sided instance with two vertical facets and two singularities.

    `widths` are the three affine widths (left facet to first singularity,
    between the singularities, second singularity to right facet); they are
    free positive-integer parameters.  The top boundary is flat at xi = 0 and
    the bottom has slopes -1, 0, +1, so each singularity absorbs a unit slope
    jump.  The left vertical facet has length h and the right one h + w1 - w3
    with h chosen to keep both positive.
    """
    w1, w2, w3 = (int(w) for w in widths)
    if min(w1, w2, w3) < 1:
        raise ValueError("widths must be positive integers")
    h = max(1, w3 - w1 + 1)
    total = w1 + w2 + w3
    bottom = BoundaryPolyline(
        (
            RationalPoint(0, -h),
            RationalPoint(w1, -h - w1),
            RationalPoint(w1 + w2, -h - w1),
            RationalPoint(total, -h - w1 + w3),
        )
    )
    sings = tuple(
        Singularity(Fraction(eta), (bottom.value(eta) + 0) / 2, 1)
        for eta in (w1, w1 + w2)
    )
    return AffinePolygon(
        eta_min=Fraction(0),
        eta_max=Fraction(total),
        singularities=sings,
        top=BoundaryPolyline((RationalPoint(0, 0), RationalPoint(total, 0))),
        bottom=bottom,
        left_corner=False,
        right_corner=False,
    )


def _column_walk(
    polygon: AffinePolygon, d: int
) -> tuple[dict[int, int], dict[int, int]]:
    """The column tables (a -> count, a -> b_hi) of denominator d >= 0 for
    every column eta = a/d in the eta-range, in increasing a and in
    integers: b_hi/d is the topmost (1/d)-integral height at or below the
    top and count the number of (1/d)-integral heights between the bottom
    and the top (0 when there are none).  d = 0 scales the polygon to its
    0-th dilate, the point (0, 0): the unit's table ({0: 1}, {0: 0}).

    Each polyline's vertices are brought to one common denominator L, as
    integers (e, x) = L * (eta, xi).  Over the column a/d, the segment
    (e0, x0) -> (e1, x1) has height times d equal to (A*d + B*a) / D with
    A = x0*e1 - x1*e0, B = (x1 - x0)*L and D = L*(e1 - e0) > 0.  The columns
    are walked left to right with one segment index per polyline, advanced
    while a*L > e1*d; at a vertex either neighbouring segment will do, since
    the graph is continuous.  The top's lattice height is the floor of that
    quotient and the bottom's its ceiling, taken as minus the floor of the
    negated quotient.  Shares nothing with the segment-line memo
    (`_segment_lines`) that `contains` and `count_points` read, which stays
    a second derivation of the region.
    """
    a_lo, a_hi = math.ceil(polygon.eta_min * d), math.floor(polygon.eta_max * d)
    columns = range(a_lo, a_hi + 1)
    floors = []
    for line, sign in ((polygon.top, 1), (polygon.bottom, -1)):
        verts = line.vertices
        scale = math.lcm(*(v.eta.denominator for v in verts), *(v.xi.denominator for v in verts))
        pts = [
            (v.eta.numerator * (scale // v.eta.denominator),
             v.xi.numerator * (scale // v.xi.denominator))
            for v in verts
        ]
        if a_lo * scale < pts[0][0] * d or a_hi * scale > pts[-1][0] * d:
            raise ValueError(f"columns {a_lo}/{d}..{a_hi}/{d} outside polyline range")
        # Per segment: (e1*d, sign*A*d, sign*B, D), the sign negating the
        # bottom's quotient so that one floor serves both polylines.
        segments = [
            (e1 * d, sign * (x0 * e1 - x1 * e0) * d, sign * (x1 - x0) * scale, scale * (e1 - e0))
            for (e0, x0), (e1, x1) in zip(pts, pts[1:])
        ]
        k = 0
        end, c, slope, den = segments[0]
        heights = []
        for a in columns:
            while a * scale > end:
                k += 1
                end, c, slope, den = segments[k]
            heights.append((c + slope * a) // den)
        floors.append(heights)
    tops, neg_bottoms = floors
    counts = {a: max(0, hi + neg_lo + 1) for a, hi, neg_lo in zip(columns, tops, neg_bottoms)}
    return counts, dict(zip(columns, tops))


def fractional_points(polygon: AffinePolygon, d: int) -> list[FractionalPoint]:
    """All points of the region with both chart coordinates in (1/d)Z.

    Enumerated column-by-column at eta = a/d, each column indexed by depth
    from its topmost lattice height; sorted by (a, i).  Points on the closed
    boundary count as members.  d = 0 yields the single unit point.  A d
    that is not an exact int raises ValueError, even when an equal int's
    column table is stored.
    """
    _check_int(d)
    new = tuple.__new__  # a FractionalPoint without its constructor's frame
    return [
        new(FractionalPoint, (a, i, d))
        for a, count in polygon.column_counts(d).items()
        for i in range(count)
    ]


def embed(polygon: AffinePolygon, point: FractionalPoint) -> RationalPoint:
    """Chart coordinates of a fractional point: (a/d, top_lattice - i/d),
    with the column's count and top lattice height read from the column
    table (`AffinePolygon.column_counts`); d must be an exact int."""
    a, i, d = point
    _check_int(d)
    if d < 1:
        raise ValueError(f"{point} has no embedding: its denominator is not positive")
    if not 0 <= i < polygon.column_counts(d).get(a, 0):
        raise ValueError(f"{point} does not lie in the region")
    return RationalPoint(Fraction(a, d), Fraction(polygon._tops[d][a] - i, d))


_Lines = tuple[tuple[int, int, int, int, int], ...]


def _segment_lines(line: BoundaryPolyline) -> _Lines:
    """Each segment u -> v of `line`, left to right, as integers
    (n, m, P, Q, R) with v.eta = n/m and P > 0: a point (a/d, b/d), d > 0,
    lies on or above the segment's line exactly when P*b - Q*a - R*d >= 0."""
    lines = []
    for u, v in zip(line.vertices, line.vertices[1:]):
        d_eta, d_xi = v.eta - u.eta, v.xi - u.xi
        r = d_eta * u.xi - d_xi * u.eta
        scale = math.lcm(d_eta.denominator, d_xi.denominator, r.denominator)
        n, m = v.eta.numerator, v.eta.denominator
        lines.append((n, m, int(d_eta * scale), int(d_xi * scale), int(r * scale)))
    return tuple(lines)


def _segment_line_memo(polygon: AffinePolygon) -> tuple[_Lines, _Lines]:
    """The `_segment_lines` of bottom and top, filled into the polygon's
    segment-line memo by the first call and read from it after."""
    if polygon._lines is None:
        lines = (_segment_lines(polygon.bottom), _segment_lines(polygon.top))
        object.__setattr__(polygon, "_lines", lines)
    return polygon._lines


def _column_bounds(polygon: AffinePolygon, a: int, d: int) -> tuple[int, int, int, int] | None:
    """Integers (p_lo, k_lo, p_hi, k_hi) of the column eta = a/d, d > 0, at
    or right of the left end, from the segment-line memo: (a/d, b/d) lies in
    the closed region exactly when p_lo*b >= k_lo and p_hi*b <= k_hi
    (`_in_column`).  None when the column lies right of the eta-range.  The
    column reads the first segment whose right end n/m has a*m <= n*d; at a
    vertex either neighbouring segment will do: the graph is continuous."""
    bounds = []
    for lines in _segment_line_memo(polygon):
        for n, m, p, q, r in lines:
            if a * m <= n * d:
                bounds += (p, q * a + r * d)
                break
        else:
            return None
    return tuple(bounds)


def _in_column(bounds: tuple[int, int, int, int], b: int) -> bool:
    """The membership predicate: is (a/d, b/d) on or above the bottom and on
    or below the top of the column with these `_column_bounds`?"""
    p_lo, k_lo, p_hi, k_hi = bounds
    return p_lo * b >= k_lo and p_hi * b <= k_hi


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum(floor((a*x + b) / m) for x in range(n)) for n >= 0 and m > 0, a
    and b of any sign, in O(log) steps: the Euclid-like recursion that swaps
    the roles of m and a once both a and b are reduced below m."""
    total = 0
    while True:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _lattice_height_sum(lines: _Lines, a_lo: int, a_hi: int, d: int, sign: int) -> int:
    """The sum over the columns a_lo..a_hi of floor(k/p) for sign 1, or of
    -ceil(k/p) = floor(-k/p) for sign -1, with (p, k) the line of `lines`
    that `_column_bounds` reads for the column a/d, d >= 0.  The columns of
    one segment form a run, summed by one `_floor_sum`."""
    total, start = 0, a_lo
    for n, m, p, q, r in lines:
        end = min(a_hi, n * d // m)
        if end >= start:
            total += _floor_sum(end - start + 1, p, sign * q, sign * (q * start + r * d))
            start = end + 1
    if start <= a_hi:
        raise ValueError(f"columns {start}/{d}..{a_hi}/{d} outside polyline range")
    return total


def count_points(polygon: AffinePolygon, d: int) -> int:
    """The number of (1/d)-integral points of the closed region, by floor
    sums over the segment-line memo in O(segments * log d) integer steps.

    Independent oracle for `fractional_points`: over the column a/d, the
    bottom and top lines that `AffinePolygon.contains` tests against
    (`_column_bounds`' rule) bound the column's points to the heights b/d
    with ceil(k_lo/p_lo) <= b <= floor(k_hi/p_hi), so the count is the sum
    of floor(k_hi/p_hi) - ceil(k_lo/p_lo) + 1 over the columns in the
    eta-range, and each segment's run of columns is one `_floor_sum`.  It
    shares nothing with `embed`, `column_counts`, `fiber` or `_column_walk`,
    which derives the enumeration.  The formula is exact where the bottom
    lies on or below the top and both polylines span the eta-range, as
    `validate` checks: a polyline that stops short raises ValueError, and
    where the bottom rises above the top the sum is not a point count.  At
    d = 0 the one column of the 0-th dilate holds the one point (0, 0).  A
    d that is not an exact int raises ValueError.
    """
    _check_int(d)
    if d < 0:
        raise ValueError("denominator must be nonnegative")
    a_lo, a_hi = math.ceil(polygon.eta_min * d), math.floor(polygon.eta_max * d)
    bottom, top = _segment_line_memo(polygon)
    return (
        _lattice_height_sum(top, a_lo, a_hi, d, 1)
        + _lattice_height_sum(bottom, a_lo, a_hi, d, -1)
        + a_hi - a_lo + 1
    )


# -- JSON instance schema -----------------------------------------------------
#
# {eta_min, eta_max, singularities: [{eta, xi, mult}], top: [[eta, xi], ...],
#  bottom: [[eta, xi], ...], corners: {left: bool, right: bool}}
# with all rationals encoded as "p/q" strings.


def _field(data: Mapping[str, Any], key: str, parse: Callable[[Any], Any]) -> Any:
    """Parse data[key], turning a missing key or a malformed value into a
    one-line ValueError that names the key."""
    if key not in data:
        raise ValueError(f"instance has no {key!r} key")
    try:
        return parse(data[key])
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(
            f"instance key {key!r} is malformed ({type(exc).__name__}: {exc})"
        ) from None


def _flag(value: Any) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _polyline(data: Any) -> BoundaryPolyline:
    return BoundaryPolyline(tuple(RationalPoint(rat(e), rat(x)) for e, x in data))


def polygon_from_json(data: Any) -> AffinePolygon:
    if not isinstance(data, dict):
        raise ValueError("instance must be a JSON object")
    corners = _field(data, "corners", lambda c: (_flag(c["left"]), _flag(c["right"])))
    return AffinePolygon(
        eta_min=_field(data, "eta_min", rat),
        eta_max=_field(data, "eta_max", rat),
        singularities=_field(
            data,
            "singularities",
            lambda sings: tuple(
                Singularity(rat(s["eta"]), rat(s["xi"]), s.get("mult", 1)) for s in sings
            ),
        ),
        top=_field(data, "top", _polyline),
        bottom=_field(data, "bottom", _polyline),
        left_corner=corners[0],
        right_corner=corners[1],
    )


def load_polygon(path: str) -> AffinePolygon:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"instance file {path} is too deeply nested") from None
    return polygon_from_json(data)
