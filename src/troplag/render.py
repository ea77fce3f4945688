"""Deterministic SVG rendering of a document.

Shaded polygon, dashed cuts with an x mark at each node, curves in red,
and a marker per cap kind (tropical.end_kinds; classify_end end by end,
at the locations tropical.landing_locations holds, when some end has
none): a circled cross for a cross-cap (mu = 2), an open circle for a
collar (mu = 1), a red x for a disc cap, a small circle for none.  Markers
are drawn geometrically (no font glyphs) so output is byte-stable.  The
diagram is drawn from its int columns and curves from tropical.geometry:
a point is its int pair over its scale, and each SVG coordinate is one
correctly rounded int division, so it is the float the reduced point
gives.  A curve's pairs share one scale, so each distinct x and y of a
curve (tropical.coordinates) is written once, into the tables its lines
and markers are written from.  One writer draws every marker, node crosses too, from offset
tables: each distinct text a cross needs is offset once per half-width.
"""
from .diagram import BaseDiagram
from .errors import TroplagError
from .tropical import (_COLLAR, _CROSS_CAP, _DISC_CAP, InvalidCurve,
                       classify_end, coordinates, end_kinds, geometry,
                       landing_locations)

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
        # The corners' int bounds on the diagram's scale S: tables makes
        # each coordinate in ints and rounds it once, by one division.
        S, (x0, y0, x1, y1) = diagram._scale, diagram._box
        self.S, self.x0, self.y1 = S, x0, y1
        self.width = _divide((x1 - x0) * SCALE, S) + 2 * MARGIN
        self.height = _divide((y1 - y0) * SCALE, S) + 2 * MARGIN

    def tables(self, xs, ys, W: int):
        """The SVG texts of the points (X/W, Y/W) of the ints X in xs and Y
        in ys: a table from each X to the text of (x - x0) * SCALE + MARGIN,
        and one from each Y to that of (y1 - y) * SCALE + MARGIN, as SVG y
        grows downward."""
        S, x0, y1 = self.S, self.x0, self.y1
        # Over den, the texts' numerators are X * a + bx and by - Y * a.
        den, a = W * S, S * SCALE
        bx, by = (MARGIN * S - x0 * SCALE) * W, (MARGIN * S + y1 * SCALE) * W
        try:
            return ({X: f"{(X * a + bx) / den:.2f}" for X in xs},
                    {Y: f"{(by - Y * a) / den:.2f}" for Y in ys})
        except OverflowError:
            raise TroplagError("a coordinate is out of SVG range") from None


# A marker's circle (radius text, style) and cross (half-width, style), or
# None: a node's, each cap kind's, and (under None) an end's without one.
_NODE_MARK = None, (5.0, _NODE_STYLE)
_END_MARKS = {_DISC_CAP: (None, (4.0, _MARK_STYLE)),
              _CROSS_CAP: (("6.00", _MARK_STYLE), (4.2, _MARK_STYLE)),
              _COLLAR: (("4.00", _COLLAR_STYLE), None),
              None: (("3.00", _MARK_STYLE), None)}


def _markers(marks):
    """The SVG of each marker (x, y, (circle, cross)) at the SVG texts x and
    y; each distinct text of a cross is parsed once per half-width r, into
    r's table of (text - r, text + r)."""
    svg, near = [], {}
    for x, y, (circle, cross) in marks:
        text = (f'<circle cx="{x}" cy="{y}" r="{circle[0]}" {circle[1]}/>'
                if circle else "")
        if cross:
            r, style = cross
            table = near.setdefault(r, {})
            for t in (x, y):
                if t not in table:
                    v = float(t)
                    table[t] = f"{v - r:.2f}", f"{v + r:.2f}"
            (left, right), (top, bottom) = table[x], table[y]
            text += (f'<line x1="{left}" y1="{top}" x2="{right}" '
                     f'y2="{bottom}" {style}/><line x1="{left}" '
                     f'y1="{bottom}" x2="{right}" y2="{top}" {style}/>')
        svg.append(text)
    return svg


def _cap_kind(diagram, end, location):
    """classify_end of an end row at location, or None if it has none."""
    try:
        return classify_end(diagram, end, location)
    except TroplagError:
        return None


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

    pairs = [*diagram._corners, *(p for cut in diagram._cuts for p in cut)]
    xs, ys = frame.tables(*map(set, zip(*pairs)), diagram._scale)
    points = " ".join(f"{xs[X]},{ys[Y]}" for X, Y in diagram._corners)
    parts.append(f'<polygon points="{points}" {_POLY_STYLE}/>')

    nodes = _markers([(xs[X], ys[Y], _NODE_MARK)
                      for (X, Y), _ in diagram._cuts])
    for ((X, Y), (U, V)), node in zip(diagram._cuts, nodes):
        parts += (f'<line x1="{xs[X]}" y1="{ys[Y]}" x2="{xs[U]}" '
                  f'y2="{ys[V]}" {_CUT_STYLE}/>', node)

    for curve in doc.curves:
        scale, _, segments = geometry(diagram, curve)
        ends = segments[len(curve._edge_rows):]
        if len(ends) < len(curve._end_rows):
            drawn = {eid for eid, *_ in ends}
            eid, _, _, index = next(row for row in curve._end_rows
                                    if row[0] not in drawn)
            raise InvalidCurve(f"curve {curve.name}: end {eid!r} refers to "
                               f"missing node {index}")
        # The pairs share one scale: each distinct x and y is written once.
        xs, ys = frame.tables(*coordinates(diagram, curve), scale)
        parts += [f'<line x1="{xs[ax]}" y1="{ys[ay]}" x2="{xs[bx]}" '
                  f'y2="{ys[by]}" {_CURVE_STYLE}/>'
                  for _, (ax, ay), (bx, by), _, _, _ in segments]
        try:
            kinds = end_kinds(diagram, curve)
        except TroplagError:  # some end has no cap kind: ask end by end
            kinds = [_cap_kind(diagram, row, location) for row, location in
                     zip(curve._end_rows, landing_locations(diagram, curve))]
        parts += _markers([(xs[X], ys[Y], _END_MARKS[kind]) for kind, (
            _, _, (X, Y), _, _, _) in zip(kinds, ends)])

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
