import random
from fractions import Fraction

import pytest

from troplag import (
    BaseDiagram,
    HomologyModel,
    IntVec,
    InvalidDiagram,
    LocationKind,
    Node,
    PointLocation,
    RatPoint,
    UnimodularAffineMap,
    pt,
    rectangle,
    x_abc,
)
from conftest import (FIGURES, FracVec, diff, load_document, moved,
                      random_unimodular_map)

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

def _least_hit(diagram, origin, direction):
    """A reference exit: the least t at which the ray meets a closed edge,
    and whether that point ends the edge (a corner)."""
    d = FracVec(F(direction.x), F(direction.y))
    hits = []
    for edge in diagram.boundary_edges:
        v = diff(edge.end, edge.start)
        denom = d.wedge(v)
        if denom == 0:
            continue
        w = diff(edge.start, origin)
        t = w.wedge(v) / denom
        s = w.wedge(d) / denom
        if t > 0 and 0 <= s <= 1:
            hits.append((t, moved(origin, direction, t), edge))
    _, point, edge = min(hits, key=lambda h: h[0])
    return point, point in (edge.start, edge.end)


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
                expected_point, expected_corner = _least_hit(d, origin, u)
                assert point == expected_point, (d, origin, u)
                at_corner = location.kind is LocationKind.ON_CORNER
                assert at_corner == expected_corner
                assert location == d.contains(point)
                corner_rays += at_corner
                edge_rays += not at_corner
    assert corner_rays > 100 and edge_rays > 100


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
