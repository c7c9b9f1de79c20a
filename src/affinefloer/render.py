"""Static SVG figures: the polygon with its singular data, fractional points,
and optionally one tropical triangle with its disks."""

from __future__ import annotations

from typing import Optional

from .affine import AffinePolygon, RationalPoint, embed, fractional_points
from .tropical import TropicalTriangle

_SCALE = 220  # pixels per affine unit
_MARGIN = 40


class _Canvas:
    def __init__(self, polygon: AffinePolygon):
        xs = [v.eta for v in polygon.top.vertices + polygon.bottom.vertices]
        ys = [v.xi for v in polygon.top.vertices + polygon.bottom.vertices]
        self.x0, self.y1 = min(xs), max(ys)
        self.width = int(_SCALE * float(max(xs) - min(xs))) + 2 * _MARGIN
        self.height = int(_SCALE * float(max(ys) - min(ys))) + 2 * _MARGIN
        self.parts: list[str] = []

    def map(self, p: RationalPoint) -> tuple[float, float]:
        # SVG y grows downward; affine xi grows upward.
        return (
            _MARGIN + _SCALE * float(p.eta - self.x0),
            _MARGIN + _SCALE * float(self.y1 - p.xi),
        )

    def polyline(self, points, stroke="black", width=2.0, dash: Optional[str] = None):
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in (self.map(p) for p in points))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"{dash_attr}/>'
        )

    def circle(self, p: RationalPoint, r=4.0, fill="black", stroke="none"):
        x, y = self.map(p)
        self.parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r}" fill="{fill}" stroke="{stroke}"/>'
        )

    def cross(self, p: RationalPoint, size=6.0, stroke="crimson"):
        x, y = self.map(p)
        s = size
        self.parts.append(
            f'<path d="M {x - s:.2f} {y - s:.2f} L {x + s:.2f} {y + s:.2f} '
            f'M {x - s:.2f} {y + s:.2f} L {x + s:.2f} {y - s:.2f}" '
            f'stroke="{stroke}" stroke-width="2"/>'
        )

    def text(self, p: RationalPoint, label: str, dy=-8.0):
        x, y = self.map(p)
        self.parts.append(
            f'<text x="{x:.2f}" y="{y + dy:.2f}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{label}</text>'
        )

    def svg(self) -> str:
        body = "\n".join(self.parts)
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{self.width}" height="{self.height}" '
            f'viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="100%" height="100%" fill="white"/>\n{body}\n</svg>\n'
        )


def render_svg(
    polygon: AffinePolygon,
    d: Optional[int] = None,
    triangle: Optional[TropicalTriangle] = None,
) -> str:
    """SVG of the polygon, its cuts and singularities, the (1/d)-points when
    d (at least 1) is given, and one tropical triangle when given."""
    if d is not None and d < 1:
        raise ValueError(f"points need a denominator d >= 1, got {d}")
    canvas = _Canvas(polygon)

    region = list(polygon.top.vertices) + list(reversed(polygon.bottom.vertices))
    coords = " ".join(
        f"{x:.2f},{y:.2f}" for x, y in (canvas.map(p) for p in region)
    )
    canvas.parts.append(f'<polygon points="{coords}" fill="#f2f0ea" stroke="none"/>')
    canvas.polyline(polygon.top.vertices, stroke="#333333", width=2.5)
    canvas.polyline(polygon.bottom.vertices, stroke="#333333", width=2.5)
    if not polygon.left_corner:
        eta = polygon.eta_min
        canvas.polyline(
            [RationalPoint(eta, polygon.bottom.value(eta)), RationalPoint(eta, polygon.top.value(eta))],
            stroke="#333333",
            width=2.5,
        )
    if not polygon.right_corner:
        eta = polygon.eta_max
        canvas.polyline(
            [RationalPoint(eta, polygon.bottom.value(eta)), RationalPoint(eta, polygon.top.value(eta))],
            stroke="#333333",
            width=2.5,
        )

    for s in polygon.singularities:
        cut_bottom = polygon.bottom.value(s.eta_pos)
        canvas.polyline(
            [RationalPoint(s.eta_pos, s.xi_pos), RationalPoint(s.eta_pos, cut_bottom)],
            stroke="#888888",
            width=1.5,
            dash="6,5",
        )
        canvas.cross(RationalPoint(s.eta_pos, s.xi_pos))

    if d is not None:
        for point in fractional_points(polygon, d):
            canvas.circle(embed(polygon, point), r=4.0, fill="#1f4e8c")

    if triangle is not None:
        for leg in triangle.legs:
            straight = (
                leg.weight * (leg.end.eta - leg.start.eta),
                leg.weight * (leg.end.xi - leg.start.xi),
            )
            path = [leg.start]
            if triangle.bend is not None and straight != leg.tangent_at_end:
                path.append(triangle.bend)
            path.append(leg.end)
            canvas.polyline(path, stroke="#2aa05a", width=3.0)
        canvas.circle(triangle.root, r=5.0, fill="#2aa05a")
        for disk in triangle.disks:
            canvas.circle(disk.point, r=4.0, fill="none", stroke="#d07000")
            canvas.text(disk.point, f"{disk.count} disk{'s' if disk.count > 1 else ''}")
        if triangle.bend is not None:
            canvas.circle(triangle.bend, r=3.0, fill="#d07000")
        canvas.text(triangle.root, f"mult {triangle.multiplicity}", dy=16.0)

    return canvas.svg()
