"""Deterministic SVG rendering of a document.

Shaded polygon, dashed cuts with an x mark at each node, curves in red,
and a marker per cap kind (tropical.end_kinds; classify_end end by end,
at the locations tropical.locations holds, when some end has none): a
circled cross for a cross-cap (mu = 2), an open circle for a collar
(mu = 1), a red x for a disc cap, a small circle for none.  Markers are
drawn geometrically (no font glyphs) so output is byte-stable.  Curves are
drawn from tropical.geometry: a point is its int pair over the curve's
scale, and each SVG coordinate is one correctly rounded int division, so
it is the float the reduced point gives.  Each distinct pair of a curve is
projected once, into a table its lines and markers are written from.
"""
from .diagram import BaseDiagram
from .errors import TroplagError
from .tropical import (EndKind, InvalidCurve, classify_end, end_kinds,
                       geometry, locations)

SCALE = 48
MARGIN = 40

_POLY_STYLE = 'fill="#e8e8e8" stroke="#000000" stroke-width="2"'
_CUT_STYLE = ('stroke="#000000" stroke-width="1.5" '
              'stroke-dasharray="6 4" fill="none"')
_CURVE_STYLE = 'stroke="#cc0000" stroke-width="2.5" fill="none"'
_MARK_STYLE = 'stroke="#cc0000" stroke-width="1.5" fill="none"'
_COLLAR_STYLE = 'stroke="#cc0000" stroke-width="1.5" fill="#ffffff"'
_NODE_STYLE = 'stroke="#000000" stroke-width="1.5"'


def _divide(num: int, den: int) -> float:
    """num / den rounded once, as float(Fraction(num, den)) rounds it."""
    try:
        return num / den
    except OverflowError:
        raise TroplagError("a coordinate is out of SVG range") from None


class _Frame:
    def __init__(self, diagram: BaseDiagram):
        x0, y0, x1, y1 = diagram.bounds()
        # x0 and y1 as (numerator, denominator), so that project makes
        # each coordinate in ints and rounds it once, by one division.
        self.x0 = (x0.numerator, x0.denominator)
        self.y1 = (y1.numerator, y1.denominator)
        width, height = (x1 - x0) * SCALE, (y1 - y0) * SCALE
        self.width = _divide(width.numerator, width.denominator) + 2 * MARGIN
        self.height = (_divide(height.numerator, height.denominator)
                       + 2 * MARGIN)

    def project(self, p):
        """SVG text of (x - x0) * SCALE + MARGIN and, since SVG y grows
        downward, (y1 - y) * SCALE + MARGIN, for p = (X, Y, W), the point
        (X/W, Y/W): a RatPoint, or a geometry() pair and its scale."""
        (x0, dx0), (y1, dy1), (X, Y, W) = self.x0, self.y1, p
        x = _divide((X * dx0 - x0 * W) * SCALE + MARGIN * W * dx0, W * dx0)
        y = _divide((y1 * W - Y * dy1) * SCALE + MARGIN * W * dy1, W * dy1)
        return f"{x:.2f}", f"{y:.2f}"


def _line(a, b, style):
    return f'<line x1="{a[0]}" y1="{a[1]}" x2="{b[0]}" y2="{b[1]}" {style}/>'


def _cross(p, style, r):
    """An x of half-width r at the SVG text p, each offset formatted once."""
    x, y = float(p[0]), float(p[1])
    left, right = f"{x - r:.2f}", f"{x + r:.2f}"
    top, bottom = f"{y - r:.2f}", f"{y + r:.2f}"
    return (f'<line x1="{left}" y1="{top}" x2="{right}" y2="{bottom}" '
            f'{style}/><line x1="{left}" y1="{bottom}" x2="{right}" '
            f'y2="{top}" {style}/>')


def _circle(p, style, radius):
    return f'<circle cx="{p[0]}" cy="{p[1]}" r="{radius}" {style}/>'


def _end_marker(diagram, end, kind, location, p):
    """The marker at the SVG text p of the cap kind of end (a row of the
    curve's end column); kind None asks classify_end at location."""
    if kind is None:
        try:
            kind = classify_end(diagram, end, location)
        except TroplagError:
            return _circle(p, _MARK_STYLE, "3.00")
    if kind is EndKind.DISC_CAP:
        return _cross(p, _MARK_STYLE, 4.0)
    if kind is EndKind.CROSS_CAP:
        return _circle(p, _MARK_STYLE, "6.00") + _cross(p, _MARK_STYLE, 4.2)
    return _circle(p, _COLLAR_STYLE, "4.00")


def render_document(doc) -> str:
    """Render the diagram and all curves to SVG 1.1 text."""
    diagram = doc.diagram
    frame = _Frame(diagram)
    project = frame.project
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{frame.width:.0f}" height="{frame.height:.0f}" '
        f'viewBox="0 0 {frame.width:.0f} {frame.height:.0f}">',
    ]

    points = " ".join(",".join(project(v)) for v in diagram.polygon_vertices)
    parts.append(f'<polygon points="{points}" {_POLY_STYLE}/>')

    for node, (start, exit_point) in zip(diagram.nodes,
                                         diagram.cut_segments):
        parts.append(_line(project(start), project(exit_point), _CUT_STYLE))
        parts.append(_cross(project(node.position), _NODE_STYLE, 5.0))

    for curve in doc.curves:
        scale, _, _, segments = geometry(diagram, curve)
        ends = segments[len(curve._edge_rows):]
        if len(ends) < len(curve._end_rows):
            drawn = {eid for eid, *_ in ends}
            eid, _, _, index = next(row for row in curve._end_rows
                                    if row[0] not in drawn)
            raise InvalidCurve(f"curve {curve.name}: end {eid!r} refers to "
                               f"missing node {index}")
        # Each distinct plane pair of the curve, projected once.
        pairs = {p for _, a, b, _, _, _ in segments for p in (a, b)}
        texts = {p: project((*p, scale)) for p in pairs}
        parts += [_line(texts[a], texts[b], _CURVE_STYLE)
                  for _, a, b, _, _, _ in segments]
        try:
            kinds = end_kinds(diagram, curve)
        except TroplagError:  # some end has no cap kind: ask end by end
            kinds = (None,) * len(ends)
        parts += [_end_marker(diagram, row, kind, location, texts[point])
                  for row, kind, location, (_, _, point, _, _, _) in zip(
                      curve._end_rows, kinds, locations(diagram, curve)[1],
                      ends)]

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
