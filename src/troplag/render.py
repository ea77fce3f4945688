"""Deterministic SVG rendering of a document.

Shaded polygon, dashed cuts with an x mark at each node, curves in red,
and a marker per cap kind (tropical.end_kinds; classify_end end by end
when some end has none): a circled cross for a cross-cap (mu = 2), an
open circle for a collar (mu = 1), a red x for a disc cap, a small circle
for none.  Markers are drawn geometrically (no font glyphs) so output is
byte-stable.  Curves are drawn from tropical.geometry: a point is its int
pair over the curve's scale, and each SVG coordinate is one correctly
rounded int division, so it is the float the reduced point gives; a frame
formats each distinct point once per render_document call.
"""
from .diagram import BaseDiagram
from .errors import TroplagError
from .tropical import (EndKind, InvalidCurve, classify_end, end_kinds,
                       geometry)

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


def _fmt(num: int, den: int) -> str:
    return f"{_divide(num, den):.2f}"


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
        self._projected = {}  # point -> its SVG text, for this render

    def project(self, p):
        """SVG text of (x - x0) * SCALE + MARGIN and, since SVG y grows
        downward, (y1 - y) * SCALE + MARGIN, for p = (X, Y, W), the point
        (X/W, Y/W): a RatPoint, or a geometry() pair and its scale."""
        text = self._projected.get(p)
        if text is None:
            (x0, dx0), (y1, dy1) = self.x0, self.y1
            X, Y, W = p
            text = self._projected[p] = (
                _fmt((X * dx0 - x0 * W) * SCALE + MARGIN * W * dx0, W * dx0),
                _fmt((y1 * W - Y * dy1) * SCALE + MARGIN * W * dy1, W * dy1))
        return text


def _line(frame, a, b, style):
    ax, ay = frame.project(a)
    bx, by = frame.project(b)
    return f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" {style}/>'


def _cross(frame, p, style, radius=5.0):
    px, py = frame.project(p)
    x, y = float(px), float(py)
    r = radius
    return (f'<line x1="{x - r:.2f}" y1="{y - r:.2f}" x2="{x + r:.2f}" '
            f'y2="{y + r:.2f}" {style}/>'
            f'<line x1="{x - r:.2f}" y1="{y + r:.2f}" x2="{x + r:.2f}" '
            f'y2="{y - r:.2f}" {style}/>')


def _circle(frame, p, style, radius=6.0):
    px, py = frame.project(p)
    return f'<circle cx="{px}" cy="{py}" r="{radius:.2f}" {style}/>'


def _end_marker(frame, diagram, end, kind, point):
    """The marker of the cap kind of end (a row of the curve's end
    column); kind None asks classify_end."""
    if kind is None:
        try:
            kind = classify_end(diagram, end)
        except TroplagError:
            return _circle(frame, point, _MARK_STYLE, radius=3.0)
    if kind is EndKind.DISC_CAP:
        return _cross(frame, point, _MARK_STYLE, radius=4.0)
    if kind is EndKind.CROSS_CAP:
        return (_circle(frame, point, _MARK_STYLE, radius=6.0)
                + _cross(frame, point, _MARK_STYLE, radius=4.2))
    return _circle(frame, point, _COLLAR_STYLE, radius=4.0)


def render_document(doc) -> str:
    """Render the diagram and all curves to SVG 1.1 text."""
    diagram = doc.diagram
    frame = _Frame(diagram)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{frame.width:.0f}" height="{frame.height:.0f}" '
        f'viewBox="0 0 {frame.width:.0f} {frame.height:.0f}">',
    ]

    points = " ".join(",".join(frame.project(v))
                      for v in diagram.polygon_vertices)
    parts.append(f'<polygon points="{points}" {_POLY_STYLE}/>')

    for node, (start, exit_point) in zip(diagram.nodes,
                                         diagram.cut_segments):
        parts.append(_line(frame, start, exit_point, _CUT_STYLE))
        parts.append(_cross(frame, node.position, _NODE_STYLE))

    for curve in doc.curves:
        scale, _, _, segments = geometry(diagram, curve)
        ends = segments[len(curve._edge_rows):]
        if len(ends) < len(curve._end_rows):
            drawn = {eid for eid, *_ in ends}
            eid, _, _, index = next(row for row in curve._end_rows
                                    if row[0] not in drawn)
            raise InvalidCurve(f"curve {curve.name}: end {eid!r} refers to "
                               f"missing node {index}")
        for _, a, b, _, _, _ in segments:
            parts.append(_line(frame, (*a, scale), (*b, scale), _CURVE_STYLE))
        try:
            kinds = end_kinds(diagram, curve)
        except TroplagError:  # some end has no cap kind: ask end by end
            kinds = (None,) * len(ends)
        for row, kind, (_, _, point, _, _, _) in zip(curve._end_rows, kinds,
                                                     ends):
            parts.append(_end_marker(frame, diagram, row, kind,
                                     (*point, scale)))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
