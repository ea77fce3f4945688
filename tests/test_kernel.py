"""The integer kernel against the Fraction predicates it replaced.

Each reference below is a Fraction body as it stood before validate, the
sweeps and BaseDiagram ran on cleared-denominator ints: orientation, the
closed and open segment tests, segment_contact, the polygon locator
behind BaseDiagram.contains, BaseDiagram's construction checks (with the
rule that the corners wind once) and its exit, and the sweeps' spans and
critical coordinates.  Point arithmetic in them is the Fraction reference
of conftest (diff, moved).  The kernel (turn, within, between, reaches
and segment_contact on cleared int pairs), contains, construction and the
sweeps must give the same answers on the bundled figures, on seeded
rational segments of every degenerate kind, on points at every kind of
location in a rectangle, in x_abc diagrams and in polygons with rational
corners and nodes, on seeded polygons and nodes, valid and not, and on all
of these moved by random unimodular maps.
"""
import random
from collections import Counter
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from troplag import (
    BaseDiagram,
    BoundaryEdge,
    BoundaryTerminal,
    IntVec,
    InvalidDiagram,
    LocationKind,
    Node,
    NodeTerminal,
    PointLocation,
    RatPoint,
    SweepDirection,
    UnsweepableCurve,
    pt,
    rectangle,
    sweep_parity,
    trop_family,
    validate,
    x_abc,
)
from troplag.homology import critical_coordinates
from troplag.lattice import (
    OVERLAP,
    between,
    cleared,
    common_scale,
    displacement,
    reaches,
    segment_contact,
    turn,
    within,
)
from conftest import (FIGURES, diff, load_document, moved,
                      random_unimodular_map)

F = Fraction


# -- the Fraction references -------------------------------------------

def ref_orientation(a, b, c):
    s = diff(b, a).wedge(diff(c, a))
    return (s > 0) - (s < 0)


def ref_on_closed_segment(p, a, b):
    if ref_orientation(a, b, p) != 0:
        return False
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def ref_on_open_segment(p, a, b):
    return ref_on_closed_segment(p, a, b) and p != a and p != b


def ref_segment_contact(a, b, c, d):
    u = diff(b, a)
    v = diff(d, c)
    denom = u.wedge(v)
    w = diff(c, a)
    if denom == 0:
        if w.wedge(u) != 0:
            return None
        if u.is_zero and v.is_zero:
            return a if a == c else None
        axis = u if not u.is_zero else v
        key = (lambda p: diff(p, a).dot(axis))
        lo1, hi1 = sorted((key(a), key(b)))
        lo2, hi2 = sorted((key(c), key(d)))
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return None
        if lo < hi:
            return "overlap"
        for p in (a, b, c, d):
            if key(p) == lo and ref_on_closed_segment(p, a, b) \
                    and ref_on_closed_segment(p, c, d):
                return p
        return None
    t = w.wedge(v) / denom
    s = w.wedge(u) / denom
    if 0 <= t <= 1 and 0 <= s <= 1:
        return moved(a, u, t)
    return None


def ref_locate_in_polygon(diagram, p):
    on_edges = []
    for index, edge in enumerate(diagram.boundary_edges):
        side = ref_orientation(edge.start, edge.end, p)
        if side < 0:
            return PointLocation(LocationKind.OUTSIDE)
        if side == 0:
            on_edges.append(index)
    if not on_edges:
        return PointLocation(LocationKind.INTERIOR)
    for index, v in enumerate(diagram.polygon_vertices):
        if p == v:
            return PointLocation(LocationKind.ON_CORNER, index)
    for index in on_edges:
        edge = diagram.boundary_edges[index]
        if ref_on_open_segment(p, edge.start, edge.end):
            return PointLocation(LocationKind.ON_BOUNDARY_EDGE, index)
    return PointLocation(LocationKind.OUTSIDE)


def ref_contains(diagram, p):
    location = ref_locate_in_polygon(diagram, p)
    if location.kind is LocationKind.INTERIOR:
        for index, node in enumerate(diagram.nodes):
            if p == node.position:
                return PointLocation(LocationKind.ON_NODE, index)
        for index, (start, end) in enumerate(diagram.cut_segments):
            if ref_on_open_segment(p, start, end):
                return PointLocation(LocationKind.ON_CUT, index)
    return location


def ref_construction(vertices, nodes):
    """BaseDiagram's construction checks on Fractions: the message of the
    InvalidDiagram they raise, or the cut segments they build."""
    n = len(vertices)
    if n < 3:
        return "a polygon needs at least three vertices"
    if len(set(vertices)) != n:
        return "polygon vertices must be distinct"
    for i in range(n):
        a, b, c = vertices[i], vertices[(i + 1) % n], vertices[(i + 2) % n]
        side = ref_orientation(a, b, c)
        if side < 0:
            return "polygon vertices must be listed counterclockwise"
        if side == 0:
            return ("polygon must be strictly convex "
                    f"(vertices {a}, {b}, {c} are collinear)")
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        for k in range(i + 2, i + n):
            if ref_orientation(a, b, vertices[k % n]) <= 0:
                return ("polygon must wind once counterclockwise (vertex "
                        f"{vertices[k % n]} is not strictly left of the edge "
                        f"{a} to {b})")
    # The locator reads only the corners and each edge's two ends.
    polygon = SimpleNamespace(polygon_vertices=vertices, boundary_edges=[
        BoundaryEdge(a, b, None, None)
        for a, b in zip(vertices, vertices[1:] + vertices[:1])])
    segments = []
    for node in nodes:
        if ref_locate_in_polygon(polygon, node.position).kind \
                is not LocationKind.INTERIOR:
            return (f"node at {node.position} is not strictly inside the "
                    "polygon")
        point, location = ref_exit(vertices, node.position,
                                   node.cut_direction)
        if location.kind is LocationKind.ON_CORNER:
            return (f"cut from node at {node.position} exits through the "
                    f"corner {point}")
        segments.append((node.position, point))
    if len({node.position for node in nodes}) != len(nodes):
        return "nodes must be at distinct positions"
    for i in range(len(segments)):
        for j in range(i + 1, len(segments)):
            if ref_segment_contact(*segments[i], *segments[j]) is not None:
                return (f"cuts from nodes at {nodes[i].position} and "
                        f"{nodes[j].position} collide")
    for i, node in enumerate(nodes):
        for j, segment in enumerate(segments):
            if i != j and ref_on_open_segment(node.position, *segment):
                return (f"node at {node.position} lies on the cut of the "
                        f"node at {nodes[j].position}")
    return tuple(segments)


def ref_exit(vertices, origin, direction):
    """BaseDiagram.exit: the ray leaves through the nearest line of an edge
    it moves outward through."""
    n = len(vertices)
    edges = [diff(vertices[(i + 1) % n], vertices[i]) for i in range(n)]
    t, index = min(
        (e.wedge(diff(origin, vertices[i])) / -outward, i)
        for i, e in enumerate(edges)
        if (outward := e.wedge(direction)) < 0)
    point = moved(origin, direction, t)
    for corner in (index, (index + 1) % n):
        if point == vertices[corner]:
            return point, PointLocation(LocationKind.ON_CORNER, corner)
    return point, PointLocation(LocationKind.ON_BOUNDARY_EDGE, index)


def ref_spans(diagram, curve, direction):
    # The witness lines' direction: horizontal lines for a horizontal sweep.
    horizontal = direction is SweepDirection.HORIZONTAL
    t = IntVec(1, 0) if horizontal else IntVec(0, 1)
    segments = ref_segments(diagram, curve)
    if direction is SweepDirection.VERTICAL:
        return [(a.x, b.x, abs(u.dot(t))) for a, b, u in segments]
    return [(a.y, b.y, abs(u.dot(t))) for a, b, u in segments]


def ref_criticals(diagram, direction, spans):
    x0, y0, x1, y1 = diagram.bounds()
    lo, hi = ((x0, x1) if direction is SweepDirection.VERTICAL else (y0, y1))
    return sorted({lo, hi}.union(*((ca, cb) for ca, cb, _ in spans)))


def ref_parity(diagram, curve, direction, witness=None):
    spans = ref_spans(diagram, curve, direction)
    criticals = ref_criticals(diagram, direction, spans)
    if witness is None:
        lo, hi = max(zip(criticals, criticals[1:]),
                     key=lambda gap: gap[1] - gap[0])
        witness = (lo + hi) / 2
    total = sum(points for ca, cb, points in spans
                if min(ca, cb) < witness < max(ca, cb))
    return total % 2, witness


# -- inputs --------------------------------------------------------------

def ref_segments(diagram, curve):
    """Each edge's, then each end's, (start, finish, direction), read from
    the vertices, anchors, landings and node positions."""
    def position(site):
        return curve.vertex(site).position if isinstance(site, str) else site

    segments = [(position(e.src), position(e.dst),
                 diff(position(e.dst), position(e.src)).primitive_direction())
                for e in curve.edges]
    for e in curve.ends:
        if isinstance(e.terminal, NodeTerminal):
            finish = diagram.nodes[e.terminal.node_index].position
        else:
            finish = e.terminal.landing
        segments.append((position(e.source), finish, e.direction))
    return segments


def _curve_segments(diagram, curve):
    return [(a, b) for a, b, _ in ref_segments(diagram, curve)]


def _on(a, b, t):
    return moved(a, diff(b, a), t)


def _random_point(rng, span=4):
    return pt(F(rng.randint(-span * 2, span * 2), rng.choice((1, 2))),
              F(rng.randint(-span * 3, span * 3), rng.choice((1, 3))))


def _segment_quads(rng, count):
    """Seeded rational segment pairs of every kind the predicates tell
    apart: general, collinear (disjoint, touching, overlapping), touching
    at an end or in an interior point, crossing, parallel, zero-length,
    and vertical."""
    quads = []
    while len(quads) < count:
        a, b = _random_point(rng), _random_point(rng)
        t1, t2 = (F(rng.randint(-6, 12), rng.choice((1, 2, 3, 6)))
                  for _ in range(2))
        kind = rng.randrange(8)
        if kind == 0:
            c, d = _random_point(rng), _random_point(rng)
        elif kind == 1:       # collinear: disjoint, touching or overlapping
            c, d = _on(a, b, t1), _on(a, b, t2)
        elif kind == 2:       # touching at an endpoint
            c, d = rng.choice((a, b)), _random_point(rng)
        elif kind == 3:       # one end on the other segment
            c, d = _on(a, b, F(rng.randint(0, 6), 6)), _random_point(rng)
        elif kind == 4:       # zero-length, on, off or at the other
            c = rng.choice((a, b, _on(a, b, t1), _random_point(rng)))
            d = c
            if rng.random() < 0.3:
                b = a
        elif kind == 5:       # vertical, sharing x with the other
            b = pt(a.x, b.y)
            c = pt(a.x, _random_point(rng).y)
            d = pt(rng.choice((a.x, b.x + 1)), _random_point(rng).y)
        elif kind == 6:       # parallel and distinct
            shift = _random_point(rng, 1)
            c = pt(a.x + shift.x, a.y + shift.y)
            d = pt(b.x + shift.x, b.y + shift.y)
        else:                 # crossing at a point inside both
            p = _on(a, b, F(rng.randint(1, 5), 6))
            off = _random_point(rng, 1)
            c, d = moved(p, off, 1), moved(p, off, -t1 if t1 > 0 else -1)
        quads.append((a, b, c, d))
    return quads


SHARED_ENDPOINT_KINDS = {"not parallel": "point",
                         "collinear, opposite": "point",
                         "collinear, same way": "overlap",
                         "zero length": "point",
                         "reversed": "overlap"}


def _shared_endpoint_quads(rng, kind, count):
    """Seeded segment pairs [a,b], [c,d] where c or d is a or b: [c,d] not
    parallel to [a,b]; on its line, leaving the shared point away from
    [a,b] or along it; of zero length at the shared point; or [b,a]."""
    quads = []
    while len(quads) < count:
        a, b = _random_point(rng), _random_point(rng)
        if a == b:
            continue
        if kind == "reversed":
            quads.append((a, b, b, a))
            continue
        p, q = rng.choice(((a, b), (b, a)))  # p is shared, q is not
        t = F(rng.randint(1, 12), rng.choice((1, 2, 3, 6)))
        if kind == "not parallel":
            other = _random_point(rng)
            if diff(other, p).wedge(diff(q, p)) == 0:
                continue
        elif kind == "collinear, opposite":
            other = moved(p, diff(p, q), t)
        elif kind == "collinear, same way":
            other = moved(p, diff(q, p), t)
        else:
            other = p  # zero length
        c, d = rng.choice(((p, other), (other, p)))
        quads.append((a, b, c, d))
    return quads


def _probe_points(rng, diagram):
    """Corners, node positions, points on every edge and cut (their ends
    and midpoints included) and on their lines beyond both ends, points on
    each cut's line either side of its node, the polygon's bounds and
    seeded points in and around it."""
    points = list(diagram.polygon_vertices)
    points += [n.position for n in diagram.nodes]
    pieces = [(e.start, e.end) for e in diagram.boundary_edges]
    pieces += list(diagram.cut_segments)
    for start, end in pieces:
        points += [_on(start, end, F(k, 7)) for k in range(-1, 9)]
        points.append(_on(start, end, F(1, 2)))
    for node in diagram.nodes:
        points += [moved(node.position, node.cut_direction, F(k, 5))
                   for k in (-7, -1, 1, 3)]
    x0, y0, x1, y1 = diagram.bounds()
    for _ in range(40):
        points.append(pt(x0 + (x1 - x0) * F(rng.randint(-4, 28), 24),
                         y0 + (y1 - y0) * F(rng.randint(-4, 28), 24)))
    return points


def _diagrams_and_curves():
    """Every bundled figure's diagram with its curves, and the rectangle and
    x_abc diagrams without curves."""
    cases = [(path.name, load_document(path.name))
             for path in sorted(FIGURES.glob("*.trop"))]
    cases = [(name, doc.diagram, doc.curves) for name, doc in cases]
    cases.append(("rectangle", rectangle(4, F(5, 2)), ()))
    cases.append(("x_abc", x_abc(1, 1, F(4, 3), 4), ()))
    cases.append(("x_abc thin", x_abc(F(1, 3), F(2, 5), F(1, 2), 3), ()))
    cases += [(d.name, d, ()) for d in _rational_polygons()]
    return cases


def _rational_polygons():
    """Polygons whose corners and nodes have denominators, so containment
    runs on a scale S > 1."""
    quadrilateral = BaseDiagram(
        [pt(F(1, 3), F(-1, 2)), pt(F(9, 2), F(1, 5)), pt(F(7, 2), F(13, 4)),
         pt(F(-2, 3), F(5, 2))],
        [Node(pt(F(5, 4), F(2, 3)), IntVec(1, 2)),
         Node(pt(F(8, 3), F(7, 5)), IntVec(2, -1)),
         Node(pt(F(1, 2), F(3, 2)), IntVec(-1, 0))],
        name="rational quadrilateral")
    pentagon = BaseDiagram(
        [pt(F(-5, 3), 0), pt(F(7, 4), F(-3, 2)), pt(F(11, 5), F(9, 7)),
         pt(0, F(5, 2)), pt(F(-9, 4), F(6, 5))],
        [Node(pt(F(1, 6), F(1, 7)), IntVec(-3, 1))],
        name="rational pentagon")
    return [quadrilateral, pentagon]


def _moved(rng, cases):
    out = []
    for name, diagram, curves in cases:
        m = random_unimodular_map(rng)
        out.append((f"{name} moved", diagram.transform(m),
                    tuple(curve.transform(m) for curve in curves)))
    return out


def _contact(a, b, c, d):
    """segment_contact of four points, cleared by their common scale, with
    a point of contact read back as a RatPoint."""
    scale = common_scale((a, b, c, d))
    hit = segment_contact(*(cleared(p, scale) for p in (a, b, c, d)))
    if hit is None or hit == OVERLAP:
        return hit
    x, y, w = hit
    return RatPoint.of(x, y, w * scale)


def _assert_segment_predicates(quads):
    for a, b, c, d in quads:
        expected = ref_segment_contact(a, b, c, d)
        assert _contact(a, b, c, d) == expected, (a, b, c, d)
        scale = common_scale((a, b, c, d))
        ia, ib, ic, id_ = (cleared(p, scale) for p in (a, b, c, d))
        assert turn(ia, ib, ic) == ref_orientation(a, b, c)
        assert turn(ia, ib, id_) == ref_orientation(a, b, d)
        for p, ip in ((c, ic), (d, id_)):
            assert within(ip, ia, ib) == ref_on_closed_segment(p, a, b)
            assert between(ip, ia, ib) == ref_on_open_segment(p, a, b)


def _assert_locations(diagram, points, label):
    for p in points:
        assert diagram.contains(p) == ref_contains(diagram, p), (label, p)


_SMALL_DIRECTIONS = [IntVec(x, y) for x in range(-3, 4) for y in range(-3, 4)
                     if gcd(x, y) == 1]


def _hull(points):
    """The counterclockwise convex hull of distinct points, without
    collinear corners (Andrew's monotone chain)."""
    points = sorted(set(points), key=lambda p: (p.x, p.y))
    if len(points) < 3:
        return points
    lower, upper = [], []
    for chain, ordered in ((lower, points), (upper, points[::-1])):
        for p in ordered:
            while len(chain) >= 2 and ref_orientation(chain[-2], chain[-1],
                                                      p) <= 0:
                chain.pop()
            chain.append(p)
    return lower[:-1] + upper[:-1]


def _random_construction(rng):
    """Seeded polygon vertices and nodes for BaseDiagram, valid or broken
    in each way its checks tell apart: too few, repeated, clockwise or
    collinear corners, corners in star order (all turns to the left, but
    winding twice), nodes outside, on the boundary, on a corner's ray,
    repeated or on another node's cut line."""
    vertices = _hull([_random_point(rng) for _ in range(rng.randint(3, 7))])
    kind = rng.randrange(10)
    if kind == 0:
        vertices = vertices[::-1]
    elif kind == 1 and len(vertices) >= 2:
        vertices.insert(1, _on(vertices[0], vertices[1], F(1, 2)))
    elif kind == 2 and vertices:
        vertices.append(vertices[0])
    elif kind == 3:
        rng.shuffle(vertices)
    elif kind == 4:
        vertices = vertices[:2]
    elif kind == 5 and len(vertices) >= 5:
        vertices = vertices[::2] + vertices[1::2]
    nodes = []
    for _ in range(rng.choice((0, 1, 2, 2, 3, 3, 4))):
        direction = rng.choice(_SMALL_DIRECTIONS)
        pick = rng.randrange(10)
        if pick == 0 and nodes:      # on an earlier node's cut line
            other = rng.choice(nodes)
            position = moved(other.position, other.cut_direction,
                             F(rng.randint(-4, 8), 4))
        elif pick == 1 and nodes:    # at an earlier node
            position = rng.choice(nodes).position
        elif pick == 2 and vertices:  # on the boundary
            a, b = rng.sample(vertices + vertices, 2)
            position = _on(a, b, F(rng.randint(0, 4), 4))
        elif pick == 3 or len(vertices) < 3:  # anywhere
            position = _random_point(rng, 2)
        else:                        # a weighted mean of three corners
            weights = [rng.randint(1, 5) for _ in range(3)]
            corners = rng.sample(vertices, 3)
            position = pt(*(sum(w * getattr(c, axis)
                                for w, c in zip(weights, corners))
                            / sum(weights) for axis in "xy"))
        if pick == 4 and vertices:   # aimed at a corner
            aim = diff(rng.choice(vertices), position)
            if not aim.is_zero:
                direction = aim.primitive_direction()
        nodes.append(Node(position, direction))
    return vertices, nodes


# -- tests ---------------------------------------------------------------

def test_contact_of_seeded_rational_segments():
    rng = random.Random(20090)
    quads = _segment_quads(rng, 4000)
    _assert_segment_predicates(quads)
    kinds = {"none": 0, "point": 0, "overlap": 0, "endpoint": 0}
    for a, b, c, d in quads:
        hit = ref_segment_contact(a, b, c, d)
        if hit is None:
            kinds["none"] += 1
        elif hit == "overlap":
            kinds["overlap"] += 1
        else:
            kinds["endpoint" if hit in (a, b, c, d) else "point"] += 1
    assert min(kinds.values()) > 200, kinds
    # The same pairs in new integral affine coordinates.
    for _ in range(5):
        m = random_unimodular_map(rng)
        _assert_segment_predicates(
            [tuple(m.apply(p) for p in quad) for quad in quads[:800]])


@pytest.mark.parametrize("kind", SHARED_ENDPOINT_KINDS)
def test_contact_at_a_shared_endpoint(kind):
    # segment_contact returns a shared endpoint of two segments that are
    # not parallel before it solves for their crossing.
    rng = random.Random(f"shared endpoint {kind}")
    quads = _shared_endpoint_quads(rng, kind, 150)
    quads += [(c, d, a, b) for a, b, c, d in quads]
    _assert_segment_predicates(quads)
    for a, b, c, d in quads:
        hit = ref_segment_contact(a, b, c, d)
        if SHARED_ENDPOINT_KINDS[kind] == "overlap":
            assert hit == "overlap"
        else:
            assert hit in (a, b) and hit in (c, d)
    for _ in range(3):
        m = random_unimodular_map(rng)
        _assert_segment_predicates(
            [tuple(m.apply(p) for p in quad) for quad in quads])


def test_contact_on_cleared_ints_reports_reduced_points():
    rng = random.Random(4242)
    for a, b, c, d in _segment_quads(rng, 1500):
        scale = common_scale((a, b, c, d))
        hit = segment_contact(*(cleared(p, scale) for p in (a, b, c, d)))
        expected = ref_segment_contact(a, b, c, d)
        if hit is None or hit == OVERLAP:
            assert hit == expected
            continue
        x, y, w = hit
        assert w > 0 and gcd(x, y, w) == 1
        assert RatPoint.of(x, y, w * scale) == expected


def test_collinearity_matches_ratio_along():
    # validate's collinearity test, on cleared ints, against the Fraction
    # test it replaced: b - a must be a positive multiple of the direction.
    rng = random.Random(515)
    directions = [IntVec(x, y) for x in range(-2, 3) for y in range(-2, 3)
                  if (x, y) != (0, 0)]
    for _ in range(2000):
        a, u = _random_point(rng), rng.choice(directions)
        b = rng.choice((a, moved(a, u, F(rng.randint(-6, 6), 3)),
                        _random_point(rng)))
        scale = common_scale((a, b))
        t = diff(b, a).ratio_along(u)
        assert reaches(cleared(a, scale), cleared(b, scale), u) \
            == (t is not None and t > 0), (a, b, u)


def test_figures_segments_match_the_references():
    rng = random.Random(1234)
    cases = _diagrams_and_curves()
    moved = _moved(rng, cases)
    for name, diagram, curves in cases + moved:
        segments = list(diagram.cut_segments)
        for curve in curves:
            segments += _curve_segments(diagram, curve)
        quads = [(a, b, c, d) for i, (a, b) in enumerate(segments)
                 for (c, d) in segments[i + 1:]]
        _assert_segment_predicates(quads)


def test_locations_match_the_reference_locator():
    rng = random.Random(777)
    cases = _diagrams_and_curves()
    kinds, scales = set(), set()
    for name, diagram, curves in cases + _moved(rng, cases):
        points = _probe_points(rng, diagram)
        for curve in curves:
            for a, b in _curve_segments(diagram, curve):
                points += [a, b, _on(a, b, F(1, 2))]
        _assert_locations(diagram, points, name)
        kinds.update(diagram.contains(p).kind for p in points)
        scales.add(common_scale(diagram.polygon_vertices
                                + tuple(n.position for n in diagram.nodes)))
    assert kinds == set(LocationKind)
    assert len(scales) > 5  # containment ran on many scales S, not only 1


def test_construction_matches_the_reference_checks():
    rng = random.Random(60221)
    outcomes = Counter()
    for trial in range(2500):
        vertices, nodes = _random_construction(rng)
        if trial % 2:
            m = random_unimodular_map(rng)
            vertices = [m.apply(v) for v in vertices]
            nodes = [Node(m.apply(n.position), m.apply(n.cut_direction))
                     for n in nodes]
        expected = ref_construction(vertices, nodes)
        try:
            built = BaseDiagram(vertices, nodes).cut_segments
        except InvalidDiagram as err:
            built = str(err)
        assert built == expected, (vertices, nodes)
        if isinstance(expected, tuple):
            outcomes["valid, with nodes" if nodes else "valid"] += 1
        else:
            outcomes[next(word for word in (
                "three", "vertices must be distinct", "wind once",
                "counterclockwise", "collinear", "inside", "corner",
                "positions", "collide", "lies on")
                if word in expected)] += 1
    # A node on another node's open cut is on both cuts, so the cuts
    # collide first: the old check after them never fired.
    assert "lies on" not in outcomes
    assert len(outcomes) == 11 and min(outcomes.values()) >= 20, outcomes


@pytest.mark.parametrize("ell", [1, 2, 5])
def test_family_locations_and_validation(ell):
    instance = trop_family(ell)
    rng = random.Random(ell)
    points = _probe_points(rng, instance.diagram)
    for a, b in _curve_segments(instance.diagram, instance.curve):
        points += [a, b]
    _assert_locations(instance.diagram, points, f"family {ell}")
    m = random_unimodular_map(rng)
    diagram, curve = (instance.diagram.transform(m),
                      instance.curve.transform(m))
    assert validate(diagram, curve).passed
    _assert_locations(diagram, [m.apply(p) for p in points], "moved")


def _sweep_cases():
    cases = [(name, diagram, curve)
             for name, diagram, curves in _diagrams_and_curves()
             for curve in curves
             if diagram.is_rectangle and not diagram.nodes
             and all(isinstance(e.terminal, BoundaryTerminal)
                     for e in curve.ends)]
    cases += [(f"family {ell}", trop_family(ell).diagram,
               trop_family(ell).curve) for ell in (1, 3)]
    return cases


def test_sweeps_match_the_reference_spans_and_criticals():
    rng = random.Random(31)
    checked = 0
    for name, diagram, curve in _sweep_cases():
        for direction in SweepDirection:
            spans = ref_spans(diagram, curve, direction)
            criticals = ref_criticals(diagram, direction, spans)
            assert critical_coordinates(diagram, curve, direction) \
                == criticals, (name, direction)
            try:
                sweep = sweep_parity(diagram, curve, direction)
            except UnsweepableCurve:
                continue  # a collar: no closed class to sweep
            parity, witness = ref_parity(diagram, curve, direction)
            assert (sweep.parity, sweep.witness_line_coordinate) \
                == (parity, witness)
            lo, hi = criticals[0], criticals[-1]
            for _ in range(10):
                line = lo + (hi - lo) * F(rng.randint(1, 239), 240)
                if line in criticals:
                    continue
                assert sweep_parity(diagram, curve, direction,
                                    witness=line).parity \
                    == ref_parity(diagram, curve, direction, line)[0]
            checked += 1
    assert checked >= 6


# -- a diagram held as int columns --------------------------------------

_rationals = st.builds(F, st.integers(-24, 24), st.integers(1, 6))
_positive = st.builds(F, st.integers(1, 40), st.integers(1, 6))


@st.composite
def _diagrams(draw):
    """A strictly convex rational polygon (the hull of a few points, with a
    node when one fits), a rectangle, or an x_abc diagram."""
    kind = draw(st.sampled_from(("polygon", "rectangle", "xabc")))
    if kind == "rectangle":
        return rectangle(draw(_positive), draw(_positive))
    if kind == "xabc":
        a, b, c = draw(_positive), draw(_positive), draw(_positive)
        s = a + b + c + draw(_positive)
        try:
            return x_abc(a, b, c, s)
        except InvalidDiagram:
            assume(False)
    vertices = _hull([pt(draw(_rationals), draw(_rationals))
                      for _ in range(draw(st.integers(3, 8)))])
    assume(len(vertices) >= 3)
    nodes = []
    if draw(st.booleans()):
        a, b, c = vertices[:3]
        weights = [draw(st.integers(1, 5)) for _ in range(3)]
        total = sum(weights)
        node = pt(sum(w * p.x for w, p in zip(weights, (a, b, c))) / total,
                  sum(w * p.y for w, p in zip(weights, (a, b, c))) / total)
        nodes = [Node(node, draw(st.sampled_from(_SMALL_DIRECTIONS)))]
    try:
        return BaseDiagram(vertices, nodes)
    except InvalidDiagram:
        assume(False)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=list(HealthCheck))
@given(_diagrams(), st.lists(st.tuples(_rationals, _rationals), max_size=12),
       st.data())
def test_int_columns_give_the_records_and_the_reference_answers(
        diagram, coordinates, data):
    vertices = diagram.polygon_vertices
    pairs = list(zip(vertices, vertices[1:] + vertices[:1]))
    # The records, built on first read, are displacement's of the corners,
    # and the direction column is theirs.
    assert diagram.boundary_edges == tuple(
        BoundaryEdge(a, b, *displacement(a, b)) for a, b in pairs)
    assert [e.direction for e in diagram.boundary_edges] \
        == list(diagram._directions)
    xs, ys = [v.x for v in vertices], [v.y for v in vertices]
    assert diagram.bounds() == (min(xs), min(ys), max(xs), max(ys))
    assert all(type(b) is F for b in diagram.bounds())
    # One scale: the least that clears every corner, node and cut exit.
    cut_points = [p for cut in diagram.cut_segments for p in cut]
    assert diagram._scale == common_scale([*vertices, *cut_points])
    assert diagram.cut_segments == tuple(
        (node.position, ref_exit(vertices, node.position,
                                 node.cut_direction)[0])
        for node in diagram.nodes)
    # contains and exit, against the Fraction references.
    points = [pt(x, y) for x, y in coordinates] + list(vertices) \
        + [_on(a, b, F(1, 2)) for a, b in pairs] + cut_points \
        + [_on(vertices[0], _on(a, b, F(1, 3)), F(2, 3)) for a, b in pairs] \
        + [_on(*cut, F(1, 3)) for cut in diagram.cut_segments]
    _assert_locations(diagram, points, diagram.name)
    for p in points:
        if diagram.contains(p).kind is LocationKind.INTERIOR:
            u = data.draw(st.sampled_from(_SMALL_DIRECTIONS))
            assert diagram.exit(p, u) == ref_exit(vertices, p, u), (p, u)
