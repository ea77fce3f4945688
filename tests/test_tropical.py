import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from troplag import (
    BoundaryTerminal,
    CurveEnd,
    IntVec,
    InternalEdge,
    InvalidCurve,
    NodeTerminal,
    NonIntegralSelfIntersection,
    NonTrivalentVertex,
    NotABoundaryEnd,
    TropicalCurve,
    TropicalVertex,
    UnbalancedVertex,
    check_balancing,
    end_multiplicity,
    parse_document,
    pt,
    rectangle,
    rp2_curve,
    trop_family,
    validate,
    vertex_double_points,
    vertex_multiplicity,
    x_abc,
)
from troplag import tropical
from troplag.tropical import ValidationIssue
from conftest import FIGURES, diff, load_document, moved, random_curve
from test_kernel import ref_on_open_segment, ref_segment_contact

F = Fraction


def one_vertex_curve(position, rays, name="c"):
    """rays: list of (direction, terminal)."""
    ends = [CurveEnd(f"e{i}", "v", d, t) for i, (d, t) in enumerate(rays)]
    return TropicalCurve([TropicalVertex("v", position)], [], ends, name=name)


@pytest.fixture
def fig1_left():
    return rp2_curve(1, 1, F(4, 3), 4)


# -- balancing ---------------------------------------------------------

def test_balancing_from_figure_coordinates(fig1_left):
    # re-derive the directions at the vertex by coordinate subtraction
    diagram, curve = fig1_left
    v = curve.vertex("v").position
    targets = [diagram.nodes[0].position, diagram.nodes[1].position,
               pt(F(2, 3), F(2, 3))]
    directions = [diff(t, v).primitive_direction() for t in targets]
    assert directions == [IntVec(0, 1), IntVec(1, 0), IntVec(-1, -1)]
    assert sum(d.x for d in directions) == 0
    assert sum(d.y for d in directions) == 0
    assert check_balancing(curve).passed


def test_balancing_family_vertex():
    # derived from the family pattern: (2,1) connects toward (5,2), (0,2)
    # and (3/2, 0)
    base = pt(2, 1)
    targets = [pt(5, 2), pt(0, 2), pt(F(3, 2), 0)]
    directions = [diff(t, base).primitive_direction() for t in targets]
    assert directions == [IntVec(3, 1), IntVec(-2, 1), IntVec(-1, -2)]
    assert sum(d.x for d in directions) == 0 and sum(d.y for d in directions) == 0


def test_unbalanced_vertex_reported():
    curve = one_vertex_curve(pt(2, 1), [
        (IntVec(1, 0), BoundaryTerminal(pt(4, 1))),
        (IntVec(0, 1), BoundaryTerminal(pt(2, 2))),
    ])
    report = check_balancing(curve)
    assert not report.passed
    assert report.issues[0].code == "balancing"
    assert "v" == report.issues[0].element


def test_anchor_balancing():
    bent = TropicalCurve((), (), [
        CurveEnd("a", pt(2, 1), IntVec(1, 0), BoundaryTerminal(pt(4, 1))),
        CurveEnd("b", pt(2, 1), IntVec(0, 1), BoundaryTerminal(pt(2, 2)))])
    assert not check_balancing(bent).passed


# -- validate ----------------------------------------------------------

def test_figure_curve_validates(fig1_left):
    diagram, curve = fig1_left
    assert validate(diagram, curve).passed


def test_moved_vertex_breaks_collinearity(fig1_left):
    diagram, curve = fig1_left
    moved = TropicalCurve(
        [TropicalVertex("v", pt(1, F(3, 2)))], [],
        curve.ends, name=curve.name)
    report = validate(diagram, moved)
    assert not report.passed
    assert any(issue.code == "end-collinearity" for issue in report.issues)


def test_corner_landing_rejected():
    diagram = rectangle(4, 2)
    curve = one_vertex_curve(pt(2, 1), [
        (IntVec(2, -1), BoundaryTerminal(pt(4, 0))),
        (IntVec(-2, 1), BoundaryTerminal(pt(0, 2))),
    ])
    report = validate(diagram, curve)
    assert any(issue.code == "end-corner-landing" for issue in report.issues)


def test_vertex_on_cut_rejected():
    diagram = x_abc(1, 1, F(4, 3), 4)
    curve = one_vertex_curve(pt(1, F(5, 2)), [
        (IntVec(0, 1), NodeTerminal(0)),
        (IntVec(0, -1), BoundaryTerminal(pt(1, 0)))])
    report = validate(diagram, curve)
    assert any(issue.code == "vertex-position" for issue in report.issues)


def test_node_end_must_follow_cut_direction():
    diagram = x_abc(1, 1, F(4, 3), 4)
    # approach node_b (cut (1,0)) from below instead of from the left
    curve = TropicalCurve((), (), [
        CurveEnd("a", pt(2, F(1, 2)), IntVec(0, 1), NodeTerminal(1)),
        CurveEnd("b", pt(2, F(1, 2)), IntVec(0, -1),
                 BoundaryTerminal(pt(2, 0)))])
    report = validate(diagram, curve)
    assert any(issue.code == "end-cut-direction" for issue in report.issues)


def test_end_issues_name_the_direction_and_the_target():
    # a runs up from (3/2,1/2) to node 1 at (2,1), whose cut runs along
    # (1,0); b runs down to a landing it does not reach.  Each message
    # prints its direction, in issue order.
    diagram = x_abc(1, 1, F(4, 3), 4)
    curve = TropicalCurve((), (), [
        CurveEnd("a", pt(F(3, 2), F(1, 2)), IntVec(0, 1), NodeTerminal(1)),
        CurveEnd("b", pt(F(3, 2), F(1, 2)), IntVec(0, -1),
                 BoundaryTerminal(pt(3, 0)))])
    assert validate(diagram, curve).lines() == [
        "[end-collinearity] a: node at (2,1) is not reached along "
        "direction (0,1)",
        "[end-cut-direction] a: direction (0,1) differs from the node's "
        "cut direction (1,0)",
        "[end-collinearity] b: landing (3,0) is not reached along "
        "direction (0,-1)"]


def test_points_shared_without_a_shared_token_are_embedding_issues():
    # Two ends that land on one boundary point, (4,1): each landing is its
    # own endpoint, so the two segments meet where neither is shared.
    twin = parse_document(
        "diagram rectangle width=4 height=4\ncurve twin\n"
        "end a (1,1) dir=(1,0) land=(4,1)\n"
        "end b (1,1) dir=(-1,0) land=(0,1)\n"
        "end c (3,3) dir=(1,-2) land=(4,1)\n"
        "end d (3,3) dir=(-1,2) land=(5/2,4)\n")
    assert validate(twin.diagram, twin.curves[0]).lines() == [
        "[embedding] a: meets c at (4,1), which is not a shared endpoint",
        "[disconnected] twin: underlying graph has 2 components"]
    # Two balanced vertices at one point, (2,2): every segment of v meets
    # every segment of w there.
    two = parse_document(
        "diagram rectangle width=6 height=6\ncurve two\n"
        "vertex v (2,2)\nvertex w (2,2)\n"
        "end a v dir=(1,0) land=(6,2)\nend b v dir=(-1,1) land=(0,4)\n"
        "end c v dir=(0,-1) land=(2,0)\nend d w dir=(-1,0) land=(0,2)\n"
        "end e w dir=(1,-1) land=(4,0)\nend f w dir=(0,1) land=(2,6)\n")
    assert validate(two.diagram, two.curves[0]).lines() == [
        f"[embedding] {one}: meets {other} at (2,2), which is not a shared "
        "endpoint" for one in "abc" for other in "def"] + [
        "[disconnected] two: underlying graph has 2 components"]


def test_edge_crossing_rejected():
    diagram = rectangle(8, 8)
    crossing = TropicalCurve(
        [TropicalVertex("u", pt(2, 2)), TropicalVertex("w", pt(6, 6)),
         TropicalVertex("p", pt(2, 6)), TropicalVertex("q", pt(6, 2))],
        [InternalEdge("g1", "u", "w"), InternalEdge("g2", "p", "q")],
        [CurveEnd("a", "u", IntVec(-1, -1), BoundaryTerminal(pt(0, 0))),
         CurveEnd("b", "w", IntVec(1, 1), BoundaryTerminal(pt(8, 8))),
         CurveEnd("c", "p", IntVec(-1, 1), BoundaryTerminal(pt(0, 8))),
         CurveEnd("d", "q", IntVec(1, -1), BoundaryTerminal(pt(8, 0)))])
    report = validate(diagram, crossing)
    assert any(issue.code == "embedding" for issue in report.issues)
    # the two straight lines are balanced but disconnected as a graph
    assert any(issue.code == "disconnected" for issue in report.issues)


def test_curve_may_not_cross_cut():
    diagram = x_abc(1, 1, F(4, 3), 4)
    # horizontal segment at height 5/2 crosses the vertical cut x=1
    curve = TropicalCurve((), (), [
        CurveEnd("a", pt(F(1, 2), F(5, 2)), IntVec(-1, 0),
                 BoundaryTerminal(pt(0, F(5, 2)))),
        CurveEnd("b", pt(F(1, 2), F(5, 2)), IntVec(1, 0),
                 BoundaryTerminal(pt(F(3, 2), F(5, 2))))])
    report = validate(diagram, curve)
    assert any(issue.code == "crosses-cut" for issue in report.issues)


def test_empty_curve_is_vacuously_valid():
    assert validate(rectangle(4, 2), TropicalCurve(name="empty")).passed


def test_duplicate_ids_rejected():
    with pytest.raises(InvalidCurve):
        TropicalCurve([TropicalVertex("v", pt(1, 1)),
                       TropicalVertex("v", pt(2, 2))], [], [])


def test_nonprimitive_direction_rejected():
    with pytest.raises(InvalidCurve):
        TropicalCurve((), (), [
            CurveEnd("a", pt(2, 1), IntVec(2, 2), BoundaryTerminal(pt(4, 3)))])


def test_derived_edge_direction_is_primitive_from_src_to_dst():
    u, w = (TropicalVertex("u", pt(Fraction(1, 3), 2)),
            TropicalVertex("w", pt(Fraction(5, 3), Fraction(4, 3))))
    curve = TropicalCurve([u, w], [InternalEdge("e", "w", "u")], [])
    assert curve.edges == (InternalEdge("e", "w", "u"),)
    assert curve.outgoing("w") == ((IntVec(-2, 1), "e"),)
    assert curve.outgoing("u") == ((IntVec(2, -1), "e"),)
    coincident = TropicalVertex("c", pt(Fraction(2, 6), 2))
    with pytest.raises(InvalidCurve, match="joins coincident vertices"):
        TropicalCurve([u, coincident], [InternalEdge("e", "u", "c")], [])


def test_rows_refuse_an_unreduced_triple():
    # In rectangle(4, 2), a vertex (2,1) with ends to (4,1) and (0,1).  A
    # landing given as (0, 2, 2) would validate, serialize as land=(0,1)
    # and yet compare unequal to the curve that text parses to.
    def curve(point=(2, 1, 1), landing=(0, 1, 1), anchor=None):
        source = "v" if anchor is None else anchor
        ends = [("a", source, (1, 0), (4, 1, 1)),
                ("b", source, (-1, 0), landing)]
        if anchor is None:
            return TropicalCurve.of_rows("c", ["v"], [point], [], ends)
        return TropicalCurve.of_rows("c", [], [], [], ends)

    diagram = rectangle(4, 2)
    assert validate(diagram, curve()).passed
    assert curve() == parse_document("diagram rectangle width=4 height=2\n"
                                     "curve c\nvertex v (2,1)\n"
                                     "end a v dir=(1,0) land=(4,1)\n"
                                     "end b v dir=(-1,0) land=(0,1)\n"
                                     ).curves[0]
    assert validate(diagram, curve(anchor=(2, 1, 1))).passed
    with pytest.raises(InvalidCurve, match=r"^end 'b' landing \(0, 2, 2\) "
                       r"is not reduced with W > 0$"):
        curve(landing=(0, 2, 2))
    for point in [(4, 2, 2), (2, 1, 0), (-2, -1, -1)]:
        with pytest.raises(InvalidCurve, match=r"^vertex 'v' position "
                           rf"\({point[0]}, {point[1]}, {point[2]}\) is not"):
            curve(point=point)
    with pytest.raises(InvalidCurve, match=r"^end 'a' anchor \(4, 2, 2\) is"):
        curve(anchor=(4, 2, 2))
    with pytest.raises(InvalidCurve, match=r"^end 'b' landing \(0, 1, -1\)"):
        curve(anchor=(2, 1, 1), landing=(0, 1, -1))
    # The triple is refused before an edge's direction is derived from it:
    # (4, 2, 2) is the point of v, not a second vertex at it.
    with pytest.raises(InvalidCurve, match=r"^vertex 'w' position "
                       r"\(4, 2, 2\) is not reduced with W > 0$"):
        TropicalCurve.of_rows("c", ["v", "w"], [(2, 1, 1), (4, 2, 2)],
                              [("e", "v", "w")], [])


@pytest.mark.parametrize("ids, points", [
    (["v"], [(1, 1, 1), (2, 1, 1)]),
    (["v", "w"], [(1, 1, 1)]),
    ([], [(1, 1, 1)]),
])
def test_rows_refuse_ids_and_points_of_different_lengths(ids, points):
    # An extra point would stay in the columns and a missing one raise a
    # bare IndexError.
    with pytest.raises(InvalidCurve, match=rf"^{len(ids)} vertex ids for "
                       rf"{len(points)} vertex points$"):
        TropicalCurve.of_rows("c", ids, points, [], [])


def test_handshake_on_bundled_curves():
    # trivalent curves satisfy 3V = 2E + X
    for ell in (1, 2, 3):
        instance = trop_family(ell)
        curve = instance.curve
        assert 3 * len(curve.vertices) == 2 * len(curve.edges) + len(curve.ends)
        assert len(curve.vertices) == 4 * ell
        assert len(curve.edges) == 4 * ell - 1
        assert len(curve.ends) == 4 * ell + 2


# -- incidence ---------------------------------------------------------

def _scanned_outgoing(curve, key):
    """The linear scan over every edge and end that the index replaces;
    an edge's direction is the Fraction reference's, src -> dst."""
    out = []
    for e in curve.edges:
        direction = diff(curve.vertex(e.dst).position,
                         curve.vertex(e.src).position).primitive_direction()
        if e.src == key:
            out.append((direction, e.id))
        if e.dst == key:
            out.append((-direction, e.id))
    for e in curve.ends:
        if e.source == key:
            out.append((e.direction, e.id))
    return tuple(out)


def _index_test_curves():
    for path in sorted(FIGURES.glob("*.trop")):
        yield from load_document(path.name).curves
    rng = random.Random(20201)
    for _ in range(50):
        yield random_curve(rng)[1]


def test_incidence_index_matches_linear_scan():
    anchored = 0
    for curve in _index_test_curves():
        anchor_keys = []
        for e in curve.ends:
            if not isinstance(e.source, str) and e.source not in anchor_keys:
                anchor_keys.append(e.source)
        keys = [v.id for v in curve.vertices] + anchor_keys
        assert list(curve.sites) == keys
        for key, out in curve.sites.items():
            assert out == curve.outgoing(key) == _scanned_outgoing(curve, key)
        assert [(point, list(anchor_ends))
                for point, anchor_ends in curve.anchors()] \
            == [(key, [e for e in curve.ends if e.source == key])
                for key in anchor_keys]
        assert curve.outgoing("no-such-site") == ()
        anchored += bool(anchor_keys)
    assert anchored >= 2  # the Klein bottle and squeeze figures


# -- embeddedness ------------------------------------------------------

_LOOP_CODES = {"degenerate-segment", "embedding", "crosses-node",
               "crosses-cut"}


def _all_pairs_embeddedness(diagram, curve):
    """The all-pairs loop the box sweep in validate replaces: every pair of
    segments goes through the Fraction reference of segment_contact."""
    segments = [(e.id, curve.vertex(e.src).position,
                 curve.vertex(e.dst).position, e.src, e.dst)
                for e in curve.edges]
    for e in curve.ends:
        start = (curve.vertex(e.source).position if isinstance(e.source, str)
                 else e.source)
        if isinstance(e.terminal, NodeTerminal):
            index = e.terminal.node_index
            if 0 <= index < len(diagram.nodes):
                segments.append((e.id, start, diagram.nodes[index].position,
                                 e.source, ("node", index)))
        else:
            segments.append((e.id, start, e.terminal.landing, e.source,
                             ("landing", e.id)))
    issues = []

    def issue(code, element, message):
        issues.append(ValidationIssue(code, element, message))

    for i in range(len(segments)):
        id1, a, b, tok_a, tok_b = segments[i]
        if a == b:
            issue("degenerate-segment", id1, "segment has zero length")
            continue
        for j in range(i + 1, len(segments)):
            id2, c, d, tok_c, tok_d = segments[j]
            contact = ref_segment_contact(a, b, c, d)
            if contact is None:
                continue
            if contact == "overlap":
                issue("embedding", id1, f"overlaps {id2} along a segment")
                continue
            tokens1 = {tok_a if contact == a else None,
                       tok_b if contact == b else None} - {None}
            tokens2 = {tok_c if contact == c else None,
                       tok_d if contact == d else None} - {None}
            if not tokens1 & tokens2:
                issue("embedding", id1,
                      f"meets {id2} at {contact}, which is not a shared "
                      "endpoint")
        for node in diagram.nodes:
            if ref_on_open_segment(node.position, a, b):
                issue("crosses-node", id1,
                      f"passes through the node at {node.position}")
        for cut_index, (cs, ce) in enumerate(diagram.cut_segments):
            contact = ref_segment_contact(a, b, cs, ce)
            if contact is None:
                continue
            if contact != "overlap" and contact == cs \
                    and ("node", cut_index) in (tok_a, tok_b):
                continue
            issue("crosses-cut", id1, f"touches the cut of node {cut_index}")
    return issues


def _direction(a, b):
    return IntVec(1, 0) if a == b else diff(b, a).primitive_direction()


def _segments_curve(*pairs):
    """One element s<k> per ((x1, y1), (x2, y2)) pair, so any contact
    between two of them is at a point they do not share: an edge between
    two vertices of its own, or, for a zero-length pair (which no edge can
    be), an end from an anchor that lands where it starts."""
    vertices, edges, ends = [], [], []
    for k, (p, q) in enumerate(pairs):
        a, b = pt(*p), pt(*q)
        if a == b:
            ends.append(CurveEnd(f"s{k}", a, IntVec(1, 0),
                                 BoundaryTerminal(b)))
            continue
        vertices += [TropicalVertex(f"s{k}a", a), TropicalVertex(f"s{k}b", b)]
        edges.append(InternalEdge(f"s{k}", f"s{k}a", f"s{k}b"))
    return TropicalCurve(vertices, edges, ends, name="soup")


HAND_BUILT = {
    "crossing-and-overlap": _segments_curve(
        ((2, 2), (6, 6)), ((2, 6), (6, 2)), ((1, 1), (4, 4)),
        ((3, 3), (5, 5))),
    "zero-length": _segments_curve(
        ((1, 3), (5, 3)), ((3, 3), (3, 3)), ((6, 6), (6, 6))),
    "vertical-same-x": _segments_curve(
        ((2, 1), (2, 3)), ((2, 5), (2, 7)), ((2, 4), (2, 6)),
        ((2, 3), (2, 4))),
    "corner-boxes": _segments_curve(
        ((1, 2), (2, 1)), ((2, 3), (3, 2)), ((4, 4), (5, 5)),
        ((5, 5), (6, 4))),
    "t-junction": _segments_curve(((1, 6), (5, 6)), ((3, 6), (3, 7))),
}

# Ends s<k>, each from an anchor of its own, in x_abc(1, 1, 4/3, 4), whose
# node 0 is at (1,2) with its cut up to (1,3): s1 overlaps s2, meets s3 at
# its own end, passes through node 0 and touches its cut there, after the
# zero-length s0 on it (a zero-length segment is an end, and ends follow
# the edges).
NODE_AND_CUT = TropicalCurve([], [], [
    CurveEnd(f"s{k}", pt(*p), _direction(pt(*p), pt(*q)),
             BoundaryTerminal(pt(*q)))
    for k, (p, q) in enumerate((
        ((F(3, 4), 2), (F(3, 4), 2)), ((F(1, 2), 2), (F(3, 2), 2)),
        ((F(5, 4), 2), (F(7, 4), 2)),
        ((F(3, 2), F(7, 4)), (F(3, 2), F(9, 4)))))], name="soup")


def _random_soup(rng, diagram, size, den):
    """Random edges and ends on a coarse rational grid: crossings, overlaps,
    coincident vertices and ties in x are all common; no edge joins two
    coincident vertices, which a curve refuses."""
    def point():
        return pt(F(rng.randint(0, size * den), den),
                  F(rng.randint(0, size * den), den))

    vertices = [TropicalVertex("v0", point())]
    edges, ends = [], []
    for k in range(rng.randint(1, 12)):
        src = rng.choice(vertices)
        if rng.random() < 0.3 and len(vertices) > 1:
            dst = rng.choice([v for v in vertices if v is not src])
        else:
            dst = TropicalVertex(f"v{len(vertices)}", point())
            vertices.append(dst)
        if dst.position != src.position:  # an edge needs two points
            edges.append(InternalEdge(f"e{k}", src.id, dst.id))
    for k in range(rng.randint(0, 6)):
        vertex = rng.choice(vertices)
        source, start = vertex.id, vertex.position
        if rng.random() < 0.3:
            source = start = point()  # a standalone anchor
        if diagram.nodes and rng.random() < 0.3:
            index = rng.randrange(len(diagram.nodes) + 1)
            target = diagram.nodes[index % len(diagram.nodes)].position
            terminal = NodeTerminal(index)
        else:
            edge = rng.choice(diagram.boundary_edges)
            target = moved(edge.start, diff(edge.end, edge.start),
                           F(rng.randint(0, 4), 4))
            terminal = BoundaryTerminal(target)
        ends.append(CurveEnd(f"x{k}", source, _direction(start, target),
                             terminal))
    return TropicalCurve(vertices, edges, ends, name="soup")


def _embedding_cases():
    for path in sorted(FIGURES.glob("*.trop")):
        doc = load_document(path.name)
        for curve in doc.curves:
            yield path.stem, doc.diagram, curve
    rng = random.Random(1976)
    for k in range(20):
        yield f"random-{k}", *random_curve(rng)
    for name, curve in HAND_BUILT.items():
        yield name, rectangle(8, 8), curve
    yield "node-and-cut", x_abc(1, 1, F(4, 3), 4), NODE_AND_CUT
    for k in range(60):
        diagram = rng.choice((rectangle(6, 6), x_abc(1, 1, F(4, 3), 4)))
        yield f"soup-{k}", diagram, _random_soup(rng, diagram, 6,
                                                  rng.choice((1, 1, 3)))


def test_box_sweep_matches_all_pairs_loop():
    codes = set()
    for name, diagram, curve in _embedding_cases():
        issues = validate(diagram, curve).issues
        block = [k for k, issue in enumerate(issues)
                 if issue.code in _LOOP_CODES]
        # validate reports the embeddedness loop as one run of issues.
        first = block[0] if block else 0
        assert block == list(range(first, first + len(block))), name
        assert [issues[k] for k in block] \
            == _all_pairs_embeddedness(diagram, curve), name
        codes.update(issues[k].code for k in block)
    assert codes == _LOOP_CODES


def test_hand_built_contacts_are_reported():
    def embedding(name):
        return [str(issue) for issue in validate(rectangle(8, 8),
                                                  HAND_BUILT[name]).issues
                if issue.code in ("embedding", "degenerate-segment")]

    assert embedding("crossing-and-overlap") == [
        "[embedding] s0: meets s1 at (4,4), which is not a shared endpoint",
        "[embedding] s0: overlaps s2 along a segment",
        "[embedding] s0: overlaps s3 along a segment",
        "[embedding] s1: meets s2 at (4,4), which is not a shared endpoint",
        "[embedding] s1: meets s3 at (4,4), which is not a shared endpoint",
        "[embedding] s2: overlaps s3 along a segment"]
    # A zero-length segment is still met by the segments before it.
    assert embedding("zero-length") == [
        "[embedding] s0: meets s1 at (3,3), which is not a shared endpoint",
        "[degenerate-segment] s1: segment has zero length",
        "[degenerate-segment] s2: segment has zero length"]
    assert embedding("vertical-same-x") == [
        "[embedding] s0: meets s3 at (2,3), which is not a shared endpoint",
        "[embedding] s1: overlaps s2 along a segment",
        "[embedding] s2: meets s3 at (2,4), which is not a shared endpoint"]
    # s0 and s1 have boxes that share only the corner (2,2) and do not meet.
    assert embedding("corner-boxes") == [
        "[embedding] s2: meets s3 at (5,5), which is not a shared endpoint"]
    assert embedding("t-junction") == [
        "[embedding] s0: meets s1 at (3,6), which is not a shared endpoint"]
    # By segment; within one: zero length, contacts, nodes, then cuts.
    issues = validate(x_abc(1, 1, F(4, 3), 4), NODE_AND_CUT).issues
    assert [str(issue) for issue in issues if issue.code in _LOOP_CODES] == [
        "[degenerate-segment] s0: segment has zero length",
        "[embedding] s1: overlaps s2 along a segment",
        "[embedding] s1: meets s3 at (3/2,2), which is not a shared endpoint",
        "[crosses-node] s1: passes through the node at (1,2)",
        "[crosses-cut] s1: touches the cut of node 0",
        "[embedding] s2: meets s3 at (3/2,2), which is not a shared endpoint"]


@pytest.mark.parametrize("ell", [6, 12, 24])
def test_validate_tests_a_linear_number_of_pairs(monkeypatch, ell):
    instance = trop_family(ell)
    calls = []
    original = tropical.segment_contact

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(tropical, "segment_contact", counted)
    assert validate(instance.diagram, instance.curve).passed
    assert 0 < len(calls) <= 2 * (8 * ell + 1)


# -- vertex multiplicity ----------------------------------------------

def test_family_vertex_multiplicity_is_five():
    instance = trop_family(1)
    assert [vertex_multiplicity(instance.curve, v.id)
            for v in instance.curve.vertices] == [5, 5, 5, 5]


def test_smooth_vertex_multiplicity(fig1_left):
    _, curve = fig1_left
    assert vertex_multiplicity(curve, "v") == 1


def test_four_valent_vertex_rejected():
    curve = one_vertex_curve(pt(4, 4), [
        (IntVec(1, 0), BoundaryTerminal(pt(8, 4))),
        (IntVec(-1, 0), BoundaryTerminal(pt(0, 4))),
        (IntVec(0, 1), BoundaryTerminal(pt(4, 8))),
        (IntVec(0, -1), BoundaryTerminal(pt(4, 0)))])
    with pytest.raises(NonTrivalentVertex):
        vertex_multiplicity(curve, "v")


def test_unbalanced_multiplicity_mismatch():
    curve = one_vertex_curve(pt(4, 4), [
        (IntVec(1, 0), BoundaryTerminal(pt(8, 4))),
        (IntVec(0, 1), BoundaryTerminal(pt(4, 8))),
        (IntVec(-2, -1), BoundaryTerminal(pt(0, 2)))])
    with pytest.raises(UnbalancedVertex):
        vertex_multiplicity(curve, "v")


def test_unbalanced_vertex_with_equal_pairwise_wedges():
    # |wedge| is 1 for each pair, but the directions sum to (2,2).
    curve = one_vertex_curve(pt(4, 2), [
        (IntVec(1, 0), BoundaryTerminal(pt(8, 2))),
        (IntVec(0, 1), BoundaryTerminal(pt(4, 8))),
        (IntVec(1, 1), BoundaryTerminal(pt(8, 6)))])
    with pytest.raises(UnbalancedVertex) as err:
        vertex_multiplicity(curve, "v")
    assert str(err.value) == ("vertex 'v' is unbalanced: outgoing directions "
                              "sum to (2,2), expected (0,0)")
    assert [issue.element for issue in check_balancing(curve).issues] == ["v"]


primitive_vecs = st.builds(
    IntVec, st.integers(-9, 9), st.integers(-9, 9)).filter(
        lambda v: v.is_primitive)


@given(primitive_vecs, primitive_vecs)
def test_balanced_triple_pairwise_wedges_agree(u, v):
    w = IntVec(-u.x - v.x, -u.y - v.y)
    if w.is_zero or not w.is_primitive or u == v:
        return
    m12, m23, m31 = abs(u.wedge(v)), abs(v.wedge(w)), abs(w.wedge(u))
    assert m12 == m23 == m31
    assert m12 % 2 == 1  # balanced primitive triples have odd multiplicity


# -- double points ------------------------------------------------------

def test_double_points_values():
    assert vertex_double_points(5) == 2
    assert vertex_double_points(1) == 0


def test_double_points_even_rejected():
    with pytest.raises(NonIntegralSelfIntersection) as err:
        vertex_double_points(4)
    assert "4" in str(err.value)


# -- end multiplicity ---------------------------------------------------

def test_end_multiplicity_slope_half_into_vertical_edge():
    diagram = rectangle(4, F(5, 2))
    end = CurveEnd("e", pt(2, F(5, 4)), IntVec(2, 1),
                   BoundaryTerminal(pt(4, F(9, 4))))
    assert end_multiplicity(diagram, end) == 2


def test_end_multiplicity_into_chopped_edge(fig1_left):
    diagram, curve = fig1_left
    xcap = next(e for e in curve.ends if e.id == "xcap")
    assert end_multiplicity(diagram, xcap) == 2


def test_end_multiplicity_disc_escape():
    # the disc-side instance: the (-1,-1) end meets the left edge with mu 1
    diagram, curve = rp2_curve(F(2, 3), F(5, 3), F(2, 3), 5)
    out = next(e for e in curve.ends if isinstance(e.terminal, BoundaryTerminal))
    assert out.terminal.landing == pt(0, 1)
    assert end_multiplicity(diagram, out) == 1


def test_node_end_has_no_boundary_multiplicity(fig1_left):
    diagram, curve = fig1_left
    cap = next(e for e in curve.ends if isinstance(e.terminal, NodeTerminal))
    with pytest.raises(NotABoundaryEnd):
        end_multiplicity(diagram, cap)
