import random
from fractions import Fraction
from functools import partial
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from troplag import (
    BaseDiagram,
    HomologyModel,
    IntVec,
    InvalidDiagram,
    LocationKind,
    Node,
    PointLocation,
    RatPoint,
    TroplagError,
    UnimodularAffineMap,
    pt,
    rectangle,
    x_abc,
)
from troplag.textio import Document, ParseError, parse_document, \
    serialize_document
from conftest import (DIRECTION_POOL, FIGURES, FracVec, convex_hull, diff,
                      load_document, moved, random_unimodular_map)

F = Fraction


def kind_of(location: PointLocation) -> LocationKind:
    return location.kind


# -- rectangle ---------------------------------------------------------

def test_rectangle_edge_lengths():
    r = rectangle(4, 2)
    assert [e.affine_length for e in r.boundary_edges] == [4, 2, 4, 2]
    assert [e.direction for e in r.boundary_edges] == [
        IntVec(1, 0), IntVec(0, 1), IntVec(-1, 0), IntVec(0, -1)]


def test_rectangle_homology():
    r = rectangle(4, 2)
    assert r.homology.basis_labels == ("sphere_h", "sphere_v")
    assert r.homology.intersection_form == ((0, 1), (1, 0))
    assert r.homology.class_of_horizontal_sweep == (1, 0)
    assert r.homology.class_of_vertical_sweep == (0, 1)


def test_rectangle_hosts_family_instance():
    # lattice home of the two-block family curve
    r = rectangle(22, 3)
    assert r.bounds() == (0, 0, 22, 3)
    from troplag import trop_family, validate
    instance = trop_family(2)
    assert instance.diagram == r or instance.diagram.bounds() == r.bounds()
    assert validate(r, instance.curve).passed


def test_rectangle_rejects_nonpositive():
    with pytest.raises(InvalidDiagram):
        rectangle(0, 1)
    with pytest.raises(InvalidDiagram):
        rectangle(3, -2)


def test_polygon_closure():
    for diagram in (rectangle(4, 2), x_abc(1, 1, F(4, 3), 4),
                    rectangle(F(7, 3), F(1, 2))):
        total_x = sum(e.affine_length * e.direction.x
                      for e in diagram.boundary_edges)
        total_y = sum(e.affine_length * e.direction.y
                      for e in diagram.boundary_edges)
        assert (total_x, total_y) == (0, 0)


# -- x_abc -------------------------------------------------------------

def test_x_abc_node_positions():
    d = x_abc(1, 1, F(4, 3), 4)
    assert {(n.position.x, n.position.y) for n in d.nodes} == {(1, 2), (2, 1)}
    assert d.nodes[0].cut_direction == IntVec(0, 1)
    assert d.nodes[1].cut_direction == IntVec(1, 0)
    assert {(v.x, v.y) for v in d.polygon_vertices} == {
        (0, F(4, 3)), (F(4, 3), 0), (4, 0), (0, 4)}


def test_x_abc_cut_length_equals_blowup_size():
    # the visible disc over each cut has affine length equal to the size
    for a, b, c, s in ((1, 1, F(4, 3), 4), (F(1, 2), F(3, 4), F(1, 3), 4)):
        d = x_abc(a, b, c, s)
        (start_a, exit_a), (start_b, exit_b) = d.cut_segments
        assert diff(exit_a, start_a).ratio_along(IntVec(0, 1)) == a
        assert diff(exit_b, start_b).ratio_along(IntVec(1, 0)) == b
        # both exits on the slanted edge
        assert exit_a.x + exit_a.y == s and exit_b.x + exit_b.y == s


def test_x_abc_formula_cannot_fit_slid_nodes():
    # The bundled fig1_right document places its nodes at (2/3, 2) and
    # (2, 5/3) (nodes may sit anywhere along their cut line).  The
    # constructor's placement formula (a, s-2a) / (s-2b, b) cannot realise
    # both at once: fitting node_a forces one leg size, node_b another.
    a, b = F(2, 3), F(5, 3)
    s_from_node_a = 2 + 2 * a      # (a, s-2a) == (2/3, 2)
    s_from_node_b = 2 + 2 * b      # (s-2b, b) == (2, 5/3)
    assert s_from_node_a == F(10, 3)
    assert s_from_node_b == F(16, 3)
    assert s_from_node_a != s_from_node_b
    # with the formula, any s > 4 gives the same disc classification as
    # the literal transcription (s = 5 used throughout the tests)
    from troplag import rp2_curve, classify, surface_name
    diagram, curve = rp2_curve(a, b, F(2, 3), 5)
    assert surface_name(classify(diagram, curve)) == "disc"


def test_x_abc_rejects_bad_chop():
    with pytest.raises(InvalidDiagram):
        x_abc(1, 1, 5, 4)  # c >= s


def test_x_abc_rejects_node_outside():
    # a = 2 puts node_a at (2, 0), on the boundary
    with pytest.raises(InvalidDiagram):
        x_abc(2, 1, F(4, 3), 4)


def test_x_abc_stores_exceptional_form():
    d = x_abc(1, 1, F(4, 3), 4)
    assert d.homology.basis_labels == ("E1", "E2", "E3")
    assert d.homology.pairing((1, 1, 1), (1, 1, 1)) == -3


# -- containment -------------------------------------------------------

def test_contains_rectangle_cases():
    r = rectangle(4, 2)
    assert kind_of(r.contains(pt(2, 1))) is LocationKind.INTERIOR
    left = r.contains(pt(0, 1))
    assert left.kind is LocationKind.ON_BOUNDARY_EDGE and left.index == 3
    assert kind_of(r.contains(pt(4, 0))) is LocationKind.ON_CORNER
    assert kind_of(r.contains(pt(5, 1))) is LocationKind.OUTSIDE
    assert kind_of(r.contains(pt(2, -1))) is LocationKind.OUTSIDE


def test_contains_cut_and_node():
    d = x_abc(1, 1, F(4, 3), 4)
    on_cut = d.contains(pt(1, F(5, 2)))
    assert on_cut.kind is LocationKind.ON_CUT and on_cut.index == 0
    on_node = d.contains(pt(1, 2))
    assert on_node.kind is LocationKind.ON_NODE and on_node.index == 0
    # the cut's boundary exit reports the boundary edge, not the cut
    exit_loc = d.contains(pt(1, 3))
    assert exit_loc.kind is LocationKind.ON_BOUNDARY_EDGE


def test_contains_invariant_under_joint_transform():
    rng = random.Random(20240817)
    d = x_abc(1, 1, F(4, 3), 4)
    probes = [pt(2, 1), pt(1, F(5, 2)), pt(1, 2), pt(0, 2), pt(5, 5),
              pt(F(2, 3), F(2, 3)), pt(0, F(4, 3))]
    for _ in range(25):
        m = random_unimodular_map(rng)
        moved = d.transform(m)
        for p in probes:
            before = d.contains(p)
            after = moved.contains(m.apply(p))
            assert before.kind is after.kind
            if before.kind in (LocationKind.ON_NODE, LocationKind.ON_CUT):
                assert before.index == after.index


def _probe_points(rng, d):
    """Seeded points in every location class of d: interior, on edges, at
    corners, at nodes, on cuts, at cut exits and outside."""
    x0, y0, x1, y1 = d.bounds()
    points = list(d.polygon_vertices) + [n.position for n in d.nodes]
    for start, end in [(e.start, e.end) for e in d.boundary_edges] \
            + list(d.cut_segments):
        points += [moved(start, diff(end, start), F(rng.randint(1, 11), 12))
                   for _ in range(3)]
        points.append(end)
    for _ in range(30):
        points.append(pt(x0 + (x1 - x0) * F(rng.randint(-4, 28), 24),
                         y0 + (y1 - y0) * F(rng.randint(-4, 28), 24)))
    return points


def test_contains_memo_is_transparent():
    rng = random.Random(1979)
    shift = UnimodularAffineMap(((1, 0), (0, 1)), pt(F(1, 2), F(1, 3)))
    kinds = set()
    for path in sorted(FIGURES.glob("*.trop")):
        d = load_document(path.name).diagram
        fresh = BaseDiagram(d.polygon_vertices, d.nodes, d.homology,
                            name=d.name, kind=d.kind, params=d.params)
        assert fresh == d
        points = _probe_points(rng, d)
        expected = {p: fresh.contains(p) for p in points}
        queries = points * 2
        rng.shuffle(queries)
        for p in queries:
            assert d.contains(p) == expected[p], (path.name, p)
            assert d.contains(RatPoint(p.x, p.y)) == expected[p]
        kinds.update(location.kind for location in expected.values())
        # A transformed diagram answers for its own geometry, not from the
        # memo of the diagram it came from.
        moved = d.transform(shift)
        unmemoized = d.transform(shift)
        answers = [moved.contains(p) for p in points]
        assert answers == [unmemoized.contains(p) for p in points]
        assert answers != [expected[p] for p in points]
    assert kinds == set(LocationKind)


# -- boundary exits ----------------------------------------------------

def _least_hit(vertices, origin, direction):
    """A reference exit: the least t at which the ray meets a closed edge,
    and whether that point ends the edge (a corner)."""
    d = FracVec(F(direction.x), F(direction.y))
    hits = []
    for start, end in zip(vertices, vertices[1:] + vertices[:1]):
        v = diff(end, start)
        denom = d.wedge(v)
        if denom == 0:
            continue
        w = diff(start, origin)
        t = w.wedge(v) / denom
        s = w.wedge(d) / denom
        if t > 0 and 0 <= s <= 1:
            hits.append((t, moved(origin, direction, t), (start, end)))
    _, point, edge = min(hits, key=lambda h: h[0])
    return point, point in edge


def test_exit_matches_the_least_edge_hit():
    rng = random.Random(8040)
    diagrams = [rectangle(4, F(5, 2)), x_abc(1, 1, F(4, 3), 4),
                load_document("fig1_right.trop").diagram]
    corner_rays = edge_rays = 0
    for d in diagrams:
        x0, y0, x1, y1 = d.bounds()
        for _ in range(60):
            origin = pt(x0 + (x1 - x0) * F(rng.randint(1, 47), 48),
                        y0 + (y1 - y0) * F(rng.randint(1, 47), 48))
            if d.contains(origin).kind in (LocationKind.OUTSIDE,
                                           LocationKind.ON_BOUNDARY_EDGE,
                                           LocationKind.ON_CORNER):
                continue
            directions = [diff(v, origin).primitive_direction()
                          for v in d.polygon_vertices]
            while len(directions) < 12:
                u = IntVec(rng.randint(-5, 5), rng.randint(-5, 5))
                if not u.is_zero:
                    directions.append(u)
            for u in directions:
                point, location = d.exit(origin, u)
                expected_point, expected_corner = _least_hit(
                    d.polygon_vertices, origin, u)
                assert point == expected_point, (d, origin, u)
                at_corner = location.kind is LocationKind.ON_CORNER
                assert at_corner == expected_corner
                assert location == d.contains(point)
                corner_rays += at_corner
                edge_rays += not at_corner
    assert corner_rays > 100 and edge_rays > 100


@pytest.mark.parametrize("origin, direction", [
    (pt(5, 1), IntVec(1, 0)), (pt(-3, 1), IntVec(-1, 0)),
    (pt(5, 1), IntVec(-1, 0)), (pt(4, 1), IntVec(-1, 0))])
def test_exit_refuses_an_origin_not_strictly_inside(origin, direction):
    # Outside, the answer was a point behind the ray: (4,1), (0,1), (0,1).
    with pytest.raises(TroplagError, match=rf"^ray origin \({origin.x},1\) "
                       "is not strictly inside the polygon$"):
        rectangle(4, 4).exit(origin, direction)


def test_params_are_read_only():
    d = rectangle(4, 2)
    text = serialize_document(Document(d, ()))
    with pytest.raises(TypeError):
        d.params["width"] = 9
    assert d.params == {"width": 4, "height": 2}
    assert serialize_document(Document(d, ())) == text
    assert parse_document(text).diagram == d == rectangle(4, 2)
    assert BaseDiagram(d.polygon_vertices).params is None


def test_transform_keeps_counterclockwise():
    rng = random.Random(99)
    d = x_abc(1, 1, F(4, 3), 4)
    seen_reflection = False
    for _ in range(20):
        m = random_unimodular_map(rng)
        seen_reflection = seen_reflection or m.det == -1
        moved = d.transform(m)  # constructor re-validates convexity/ccw
        assert len(moved.boundary_edges) == 4
    assert seen_reflection


# -- generic polygon validation ----------------------------------------

def test_generic_polygon_rejects_clockwise():
    with pytest.raises(InvalidDiagram):
        BaseDiagram([pt(0, 0), pt(0, 1), pt(1, 0)])


def test_generic_polygon_rejects_collinear():
    with pytest.raises(InvalidDiagram):
        BaseDiagram([pt(0, 0), pt(1, 0), pt(2, 0), pt(0, 2)])


def test_generic_polygon_rejects_winding_twice():
    # A convex pentagon's corners in star order 0, 2, 4, 1, 3: every turn
    # is to the left, yet the boundary winds twice around the polygon.
    pentagon = [pt(0, 0), pt(4, 0), pt(5, 3), pt(2, 5), pt(-1, 3)]
    star = [pentagon[i] for i in (0, 2, 4, 1, 3)]
    with pytest.raises(InvalidDiagram, match=r"polygon must wind once "
                       r"counterclockwise \(vertex \(4,0\) is not strictly "
                       r"left of the edge \(0,0\) to \(5,3\)\)"):
        BaseDiagram(star)
    # Listed once around, the same corners build a diagram, and (2,1/2)
    # is inside it.
    assert BaseDiagram(pentagon).contains(pt(2, F(1, 2))) == PointLocation(
        LocationKind.INTERIOR)


def test_node_cut_must_not_exit_through_corner():
    with pytest.raises(InvalidDiagram):
        BaseDiagram([pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)],
                    [Node(pt(1, 1), IntVec(1, 1))])


def test_crossing_cuts_rejected():
    with pytest.raises(InvalidDiagram):
        BaseDiagram([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)],
                    [Node(pt(2, 1), IntVec(0, 1)),
                     Node(pt(1, 2), IntVec(1, 0))])


@pytest.mark.parametrize("first, second", [
    (Node(pt(1, 1), IntVec(1, 0)), Node(pt(2, 1), IntVec(1, 0))),
    (Node(pt(2, 1), IntVec(0, 1)), Node(pt(1, 1), IntVec(1, 0))),
])
def test_node_on_another_nodes_cut_is_a_collision(first, second):
    # The node's own cut starts on the other cut, so the two cuts collide.
    with pytest.raises(InvalidDiagram) as err:
        BaseDiagram([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)], [first, second])
    assert str(err.value) == (f"cuts from nodes at {first.position} and "
                              f"{second.position} collide")


def test_rectangle_with_a_node_is_not_a_rectangle():
    corners = [pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)]
    assert BaseDiagram(corners).is_rectangle
    assert not BaseDiagram(corners, [Node(pt(2, 2), IntVec(1, 0))]).is_rectangle
    assert not x_abc(1, 1, F(4, 3), 4).is_rectangle


def test_homology_model_requires_symmetry():
    with pytest.raises(InvalidDiagram):
        HomologyModel(("A", "B"), ((0, 1), (0, 0)))


# -- the corners and nodes a diagram accepts -----------------------------

def test_plain_reduced_triples_are_corners():
    corners = [(0, 0, 1), (4, 0, 1), (4, 4, 1), (0, 4, 1)]
    d = BaseDiagram(corners)
    assert d == BaseDiagram([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)])
    assert all(type(v) is RatPoint for v in d.polygon_vertices)
    text = serialize_document(Document(d, ()))
    assert text == "diagram polygon (0,0) (4,0) (4,4) (0,4)\n"
    assert parse_document(text).diagram == d


@pytest.mark.parametrize("corner", [(8, 0, 2), (4, 0, -1), (4, 0, 0),
                                    (4, 0), (4.0, 0, 1), (True, 0, 1),
                                    ("4", "0", "1"), [4, 0, 1], "4,0"])
def test_other_corners_are_refused(corner):
    with pytest.raises(InvalidDiagram) as err:
        BaseDiagram([pt(0, 0), corner, pt(4, 4), pt(0, 4)])
    assert str(err.value) == (f"polygon vertex 1 {corner!r} is not a "
                              "RatPoint or a reduced (X, Y, W) of ints with "
                              "W > 0")


def test_a_node_must_be_a_node():
    corners = [pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)]
    node = (pt(2, 2), IntVec(1, 0))
    with pytest.raises(TypeError) as err:
        BaseDiagram(corners, [node])
    assert str(err.value) == f"node {node!r} is not a Node"


# -- the int columns, from the builders and from their text --------------

_rationals = st.builds(F, st.integers(-3, 30), st.integers(1, 6))


@st.composite
def _diagram_sources(draw):
    """(build, line): a builder call and its diagram line, for a rectangle,
    x_abc parameters on both sides of its checks, or a convex rational
    polygon with up to two nodes.  A node is a weighted mean of three
    corners, so inside, or at the node before it, and its cut may be aimed
    at a corner."""
    kind = draw(st.sampled_from(("rectangle", "xabc", "polygon")))
    if kind == "rectangle":
        w, h = draw(_rationals), draw(_rationals)
        return (partial(rectangle, w, h),
                f"diagram rectangle width={w} height={h}")
    if kind == "xabc":
        a, c = draw(_rationals), draw(_rationals)
        b = draw(st.one_of(st.just(a), _rationals))  # b = a, s = 3a: a node
        s = draw(st.sampled_from((0, a, 3 * a, a + b + c))) + draw(
            st.one_of(st.just(F(0)), _rationals))
        return (partial(x_abc, a, b, c, s),
                f"diagram xabc a={a} b={b} c={c} s={s}")
    q = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                           min_size=3, max_size=8))
    vertices = convex_hull([pt(F(x, q), F(y, q)) for x, y in points])
    assume(len(vertices) >= 3)
    k = draw(st.integers(0, len(vertices) - 1))
    vertices = vertices[k:] + vertices[:k]
    nodes = []
    for _ in range(draw(st.integers(0, 2))):
        corners = draw(st.permutations(vertices))[:3]
        weights = [draw(st.integers(1, 4)) for _ in corners]
        position = pt(*(sum(w * getattr(c, axis) for w, c in
                            zip(weights, corners)) / sum(weights)
                        for axis in "xy"))
        if nodes and draw(st.booleans()):
            position = nodes[-1].position
        direction = draw(st.sampled_from(DIRECTION_POOL))
        if draw(st.integers(0, 3)) == 0:
            direction = diff(corners[0], position).primitive_direction()
        nodes.append(Node(position, direction))
    line = " ; ".join([" ".join(["diagram polygon", *map(str, vertices)]),
                       *(f"node {n.position} cut={n.cut_direction}"
                         for n in nodes)])
    return partial(BaseDiagram, vertices, nodes), line


def _columns(diagram):
    return (diagram._scale, tuple(diagram._corners), tuple(diagram._lines),
            tuple(diagram._directions), tuple(diagram._box),
            tuple(diagram._cuts))


def _reference_columns(vertices, nodes):
    """The int columns recomputed in Fractions: the least scale S that
    clears every corner, node and cut exit, and everything times S."""
    exits = [_least_hit(vertices, n.position, n.cut_direction)[0]
             for n in nodes]
    points = [*vertices, *(n.position for n in nodes), *exits]
    S = lcm(*(c.denominator for p in points for c in (p.x, p.y)))

    def scaled(p):
        return int(p.x * S), int(p.y * S)

    corners = tuple(map(scaled, vertices))
    lines, directions = [], []
    for a, b in zip(vertices, vertices[1:] + vertices[:1]):
        e = diff(b, a)
        lines.append((int(e.x * S), int(e.y * S),
                      int((b.x * a.y - b.y * a.x) * S * S)))
        directions.append(e.primitive_direction())
    xs, ys = [v.x * S for v in vertices], [v.y * S for v in vertices]
    box = (min(xs), min(ys), max(xs), max(ys))
    cuts = tuple((scaled(n.position), scaled(p)) for n, p in zip(nodes, exits))
    return S, corners, tuple(lines), tuple(directions), box, cuts


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_diagram_sources())
def test_builders_and_their_text_give_the_reference_columns(source):
    build, line = source
    try:
        built = build()
    except InvalidDiagram as err:
        with pytest.raises(ParseError) as parse_err:
            parse_document(line + "\n")
        assert str(parse_err.value) == f"line 1, col 9: {err}"
        return
    text = serialize_document(Document(built, ()))
    assert text == line + "\n"
    parsed = parse_document(text).diagram
    assert parsed == built
    expected = _reference_columns(built.polygon_vertices, built.nodes)
    assert _columns(built) == _columns(parsed) == expected
