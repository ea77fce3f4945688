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
curve is written once, into the tables its lines and markers are written
from.
"""
from .diagram import BaseDiagram
from .errors import TroplagError
from .tropical import (_CROSS_CAP, _DISC_CAP, InvalidCurve, classify_end,
                       end_kinds, geometry, landing_locations)

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

    def tables(self, pairs, W: int):
        """The SVG texts of the points (X/W, Y/W) of the int pairs: a table
        from each distinct X to the text of (x - x0) * SCALE + MARGIN, and
        one from each distinct Y to that of (y1 - y) * SCALE + MARGIN, as
        SVG y grows downward."""
        S, x0, y1 = self.S, self.x0, self.y1
        den, pad = W * S, MARGIN * W * S
        return ({X: f"{_divide((X * S - x0 * W) * SCALE + pad, den):.2f}"
                 for X in {X for X, _ in pairs}},
                {Y: f"{_divide((y1 * W - Y * S) * SCALE + pad, den):.2f}"
                 for Y in {Y for _, Y in pairs}})


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
    if kind is _DISC_CAP:
        return _cross(p, _MARK_STYLE, 4.0)
    if kind is _CROSS_CAP:
        return _circle(p, _MARK_STYLE, "6.00") + _cross(p, _MARK_STYLE, 4.2)
    return _circle(p, _COLLAR_STYLE, "4.00")


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

    xs, ys = frame.tables([*diagram._corners, *(p for cut in diagram._cuts
                                                for p in cut)], diagram._scale)
    points = " ".join(f"{xs[X]},{ys[Y]}" for X, Y in diagram._corners)
    parts.append(f'<polygon points="{points}" {_POLY_STYLE}/>')

    for (X, Y), (U, V) in diagram._cuts:
        node = xs[X], ys[Y]
        parts.append(_line(node, (xs[U], ys[V]), _CUT_STYLE))
        parts.append(_cross(node, _NODE_STYLE, 5.0))

    for curve in doc.curves:
        scale, _, _, segments = geometry(diagram, curve)
        ends = segments[len(curve._edge_rows):]
        if len(ends) < len(curve._end_rows):
            drawn = {eid for eid, *_ in ends}
            eid, _, _, index = next(row for row in curve._end_rows
                                    if row[0] not in drawn)
            raise InvalidCurve(f"curve {curve.name}: end {eid!r} refers to "
                               f"missing node {index}")
        # The pairs share one scale: each distinct x and y is written once.
        xs, ys = frame.tables(
            {p for _, a, b, _, _, _ in segments for p in (a, b)}, scale)
        parts += [_line((xs[a[0]], ys[a[1]]), (xs[b[0]], ys[b[1]]),
                        _CURVE_STYLE)
                  for _, a, b, _, _, _ in segments]
        try:
            kinds = end_kinds(diagram, curve)
        except TroplagError:  # some end has no cap kind: ask end by end
            kinds = (None,) * len(ends)
        landings = landing_locations(diagram, curve)
        parts += [_end_marker(diagram, row, kind, location, (xs[X], ys[Y]))
                  for row, kind, location, (_, _, (X, Y), _, _, _) in zip(
                      curve._end_rows, kinds, landings, ends)]

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
