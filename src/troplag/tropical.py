"""Tropical curves in a base diagram.

A curve is a plane graph: vertices at rational interior points, internal
edges with primitive integer directions, and ends that leave the graph and
terminate either on the interior of a boundary edge or at a focus-focus
node (travelling along the node's cut direction).  Edges and ends have
weight one by construction, as the text format writes them.  A vertexless
curve (a single straight segment) is written as two opposite ends sharing a
standalone anchor point.  Vertices, edges, ends, terminals and validation
issues are typing.NamedTuple records, each the tuple of its fields, so an
end unpacks as (id, source, direction, terminal).

A curve builds its incidence once, at construction: each site (a vertex, or
a standalone anchor) keeps its outgoing (direction, element id) pairs in
`sites`, so outgoing() is a lookup.  A site's key is an end's source as the
format writes it, a vertex id or the anchor RatPoint itself; ids are strings,
so the two never collide.  An edge's direction is derived there too, by
lattice.primitive_direction from its endpoints.

geometry() hands out the one plane in which a curve becomes segments on
int pairs, for validate(), the homology sweeps and render, with the
diagram's corners and cuts on the same ints.  validate() checks every
geometric and combinatorial invariant and returns a report; the
per-element facts (a vertex's multiplicity m and its (m-1)/2 double
points, an end's mu and its cap kind) assume a validated curve and raise
on contract violations.  The plane, the cap kinds (end_kinds), the m's
(multiplicities) and homology's default sweeps are computed once per
curve and diagram and kept in the curve's one memo slot (_remember).
"""
from enum import Enum
from types import MappingProxyType
from typing import NamedTuple

from .errors import TroplagError
from .diagram import BaseDiagram, LocationKind
from .lattice import (
    OVERLAP,
    DegenerateDirection,
    IntVec,
    RatPoint,
    UnimodularAffineMap,
    between,
    cleared,
    common_scale,
    primitive_direction,
    reaches,
    segment_contact,
)


class InvalidCurve(TroplagError):
    """Curve data is structurally unusable (bad ids, degenerate geometry)."""


class NonTrivalentVertex(TroplagError):
    """Vertex multiplicity is only defined at trivalent vertices."""


class UnbalancedVertex(TroplagError):
    """The outgoing directions at a vertex do not sum to zero."""


class NonIntegralSelfIntersection(TroplagError):
    """(m-1)/2 requested for even m."""


class NotABoundaryEnd(TroplagError):
    """End multiplicity is only defined for boundary-terminal ends."""


class UnsupportedEndMultiplicity(TroplagError):
    """Boundary ends with mu >= 3 have no assigned surface topology."""


class TropicalVertex(NamedTuple):
    id: str
    position: RatPoint


class InternalEdge(NamedTuple):
    """A weight-one edge between two vertices at distinct points; the
    curve derives its primitive direction, src -> dst."""

    id: str
    src: str
    dst: str


class BoundaryTerminal(NamedTuple):
    """An end landing at a point in the open interior of a boundary edge;
    the edge is the one diagram.contains finds there."""

    landing: RatPoint


class NodeTerminal(NamedTuple):
    """An end terminating at a focus-focus node, along its cut direction."""

    node_index: int


class CurveEnd(NamedTuple):
    """A weight-one ray leaving the curve.  source is a vertex id, or a
    RatPoint anchor for a standalone (vertexless) segment.  direction is
    primitive and outgoing."""

    id: str
    source: str | RatPoint
    direction: IntVec
    terminal: BoundaryTerminal | NodeTerminal


class TropicalCurve:
    """An immutable tropical curve; geometry is validated against a diagram
    by validate()."""

    def __init__(self, vertices=(), edges=(), ends=(), name=""):
        self.name = name
        self.vertices = tuple(vertices)
        self.ends = tuple(ends)
        self._vertex_by_id = {}
        for v in self.vertices:
            if v.id in self._vertex_by_id:
                raise InvalidCurve(f"duplicate vertex id {v.id!r}")
            self._vertex_by_id[v.id] = v

        # Incidence: site key -> outgoing (direction, element id) pairs,
        # edges first; vertex sites first, then anchors.
        incidence = {v.id: [] for v in self.vertices}
        anchors = {}
        self.edges = tuple(edges)
        self._edge_directions = []  # each edge's, src -> dst
        seen_ids = set(self._vertex_by_id)
        for e in self.edges:
            if e.id in seen_ids:
                raise InvalidCurve(f"duplicate element id {e.id!r}")
            seen_ids.add(e.id)
            for endpoint in (e.src, e.dst):
                if endpoint not in self._vertex_by_id:
                    raise InvalidCurve(
                        f"edge {e.id!r} refers to unknown vertex {endpoint!r}")
            if e.src == e.dst:
                raise InvalidCurve(f"edge {e.id!r} is a loop")
            try:
                direction = primitive_direction(
                    self._vertex_by_id[e.src].position,
                    self._vertex_by_id[e.dst].position)
            except DegenerateDirection:
                raise InvalidCurve(
                    f"edge {e.id!r} joins coincident vertices") from None
            self._edge_directions.append(direction)
            incidence[e.src].append((direction, e.id))
            incidence[e.dst].append((-direction, e.id))

        for e in self.ends:
            if e.id in seen_ids:
                raise InvalidCurve(f"duplicate element id {e.id!r}")
            seen_ids.add(e.id)
            if isinstance(e.source, str) and e.source not in self._vertex_by_id:
                raise InvalidCurve(
                    f"end {e.id!r} refers to unknown vertex {e.source!r}")
            if not e.direction.is_primitive:
                raise InvalidCurve(
                    f"end {e.id!r} direction {e.direction} is not primitive")
            incidence.setdefault(e.source, []).append((e.direction, e.id))
            if not isinstance(e.source, str):
                anchors.setdefault(e.source, []).append(e)
        self.sites = MappingProxyType(
            {key: tuple(out) for key, out in incidence.items()})
        self._anchors = tuple((point, tuple(anchor_ends))
                              for point, anchor_ends in anchors.items())
        self._memo = None  # (diagram, {owner function: fact}); see _remember

    # -- basic accessors ------------------------------------------------

    def vertex(self, vertex_id: str) -> TropicalVertex:
        try:
            return self._vertex_by_id[vertex_id]
        except KeyError:
            raise InvalidCurve(f"no vertex with id {vertex_id!r}") from None

    def anchors(self):
        """Standalone anchor points, with their ends, in declaration order."""
        return self._anchors

    def outgoing(self, key):
        """Outgoing (direction, element id) pairs at a vertex id or anchor."""
        return self.sites.get(key, ())

    @property
    def is_empty(self) -> bool:
        return not (self.vertices or self.edges or self.ends)

    def transform(self, m: UnimodularAffineMap) -> "TropicalCurve":
        """The curve in new integral affine coordinates."""
        vertices = [TropicalVertex(v.id, m.apply(v.position))
                    for v in self.vertices]
        ends = []
        for e in self.ends:
            source = e.source if isinstance(e.source, str) else m.apply(e.source)
            if isinstance(e.terminal, NodeTerminal):
                terminal = e.terminal
            else:
                terminal = BoundaryTerminal(m.apply(e.terminal.landing))
            ends.append(CurveEnd(e.id, source, m.apply(e.direction),
                                 terminal))
        return TropicalCurve(vertices, self.edges, ends, name=self.name)

    def __eq__(self, other):
        if not isinstance(other, TropicalCurve):
            return NotImplemented
        return (self.name == other.name and self.vertices == other.vertices
                and self.edges == other.edges and self.ends == other.ends)

    def __repr__(self):
        return (f"TropicalCurve({self.name!r}, {len(self.vertices)} vertices, "
                f"{len(self.edges)} edges, {len(self.ends)} ends)")


# -----------------------------------------------------------------------
# Validation
# -----------------------------------------------------------------------

def _remember(diagram: BaseDiagram, curve: TropicalCurve, key, build):
    """The fact key of curve against diagram: build() once, then the stored
    tuple.  The curve's one slot holds (diagram, facts), keyed on the
    diagram by identity (a BaseDiagram has __eq__ and no hash), and another
    diagram replaces it; a build that raises stores nothing."""
    memo = curve._memo
    if memo is None or memo[0] is not diagram:
        memo = curve._memo = (diagram, {})
    if key not in memo[1]:
        memo[1][key] = build()
    return memo[1][key]


def geometry(diagram: BaseDiagram, curve: TropicalCurve):
    """(scale, corners, cuts, segments): the diagram and the curve on ints,
    for validate, the sweeps and render, built once per curve and diagram
    (_remember).  scale is the least common denominator of the corners,
    the cut ends and every curve point, and each point is cleared by it,
    which keeps every sign.  corners holds the polygon's corners in order,
    cuts each node's (position, exit); segments holds (id, start, finish,
    start token, finish token, direction) per edge, then per end, in curve
    order, and none for an end to a missing node; the direction is a plain
    pair, since an IntVec would keep the segment tracked by the collector.
    Two segments may share a point only where both carry the same token
    there: a vertex id (a string), an anchor (its point), or a node or
    landing token (a pair that starts with a string).
    """
    return _remember(diagram, curve, geometry, lambda: _plane(diagram, curve))


def _plane(diagram: BaseDiagram, curve: TropicalCurve):
    scale = common_scale([*diagram.polygon_vertices,
                          *(p for cut in diagram.cut_segments for p in cut),
                          *(v.position for v in curve.vertices),
                          *(point for point, _ in curve.anchors()),
                          *(e.terminal.landing for e in curve.ends
                            if isinstance(e.terminal, BoundaryTerminal))])
    corners = tuple(cleared(p, scale) for p in diagram.polygon_vertices)
    grid = {v.id: cleared(v.position, scale) for v in curve.vertices}
    for point, _ in curve.anchors():
        grid[point] = cleared(point, scale)
    cuts = tuple((cleared(node, scale), cleared(end, scale))
                 for node, end in diagram.cut_segments)
    segments = [(eid, grid[src], grid[dst], src, dst, (x, y))
                for (eid, src, dst), (x, y)
                in zip(curve.edges, curve._edge_directions)]
    for eid, source, (x, y), terminal in curve.ends:
        if isinstance(terminal, BoundaryTerminal):
            finish, token = cleared(terminal.landing, scale), ("landing", eid)
        elif 0 <= terminal.node_index < len(cuts):
            (index,) = terminal
            finish, token = cuts[index][0], ("node", index)
        else:
            continue  # an end to a missing node has no segment
        segments.append((eid, grid[source], finish, source, token, (x, y)))
    return scale, corners, cuts, tuple(segments)


class ValidationIssue(NamedTuple):
    code: str
    element: str
    message: str

    def __str__(self):
        return f"[{self.code}] {self.element}: {self.message}"


class ValidationReport(NamedTuple):
    issues: tuple[ValidationIssue, ...]

    @property
    def passed(self) -> bool:
        return not self.issues

    def lines(self):
        return [str(issue) for issue in self.issues]

    def __str__(self):
        return "ok" if self.passed else "; ".join(self.lines())


def _imbalance(out) -> tuple[int, int]:
    """The sum of the outgoing directions at a site; (0, 0) is balanced."""
    sx = sy = 0
    for (x, y), _ in out:
        sx += x
        sy += y
    return sx, sy


def check_balancing(curve: TropicalCurve) -> ValidationReport:
    """Outgoing directions must sum to zero at every vertex, and at every
    standalone anchor (where this just says the segment is straight)."""
    issues = []
    for key, out in curve.sites.items():
        sx, sy = _imbalance(out)
        if sx or sy:
            issues.append(ValidationIssue(
                "balancing", key if isinstance(key, str) else f"anchor {key}",
                f"outgoing directions sum to ({sx},{sy}), expected (0,0)"))
    return ValidationReport(tuple(issues))


def validate(diagram: BaseDiagram, curve: TropicalCurve) -> ValidationReport:
    """Full geometric and combinatorial validation.

    Checks vertex/anchor containment, end collinearity, terminal
    legality (boundary landings in open edge interiors, node ends along the
    cut direction), embeddedness (segments meet only at shared named
    endpoints, and avoid nodes and cuts), balancing, and connectivity.
    The empty curve is vacuously valid.

    The segment predicates run on the int pairs of geometry().
    Embeddedness sweeps the segments' bounding boxes by min x (Shamos-Hoey)
    and runs the exact segment_contact only on pairs whose boxes meet:
    O(n log n + k) for k pairs overlapping in x, not n(n-1)/2 contact tests.
    """
    issues = []
    scale, _, cuts, segments = geometry(diagram, curve)

    def issue(code, element, message):
        issues.append(ValidationIssue(code, element, message))

    for v in curve.vertices:
        loc = diagram.contains(v.position)
        if loc.kind is not LocationKind.INTERIOR:
            issue("vertex-position", v.id,
                  f"position {v.position} is {loc}, must be strictly interior")
        if not curve.outgoing(v.id):
            issue("isolated-vertex", v.id, "vertex has no incident elements")

    for point, anchor_ends in curve.anchors():
        label = f"anchor {point}"
        loc = diagram.contains(point)
        if loc.kind is not LocationKind.INTERIOR:
            issue("anchor-position", label,
                  f"anchor is {loc}, must be strictly interior")
        if len(anchor_ends) != 2:
            issue("anchor-not-segment", label,
                  f"{len(anchor_ends)} ends meet here; an anchor carries "
                  "exactly two (declare a vertex instead)")

    end_segments = iter(segments[len(curve.edges):])
    for eid, _, direction, terminal in curve.ends:
        if isinstance(terminal, NodeTerminal):
            (index,) = terminal
            if not 0 <= index < len(cuts):
                issue("end-terminal", eid, f"no node with index {index}")
                continue
            _, start, finish, _, _, _ = next(end_segments)
            node = diagram.nodes[index]
            if not reaches(start, finish, direction):
                issue("end-collinearity", eid,
                      f"node at {node.position} is not reached along "
                      f"direction {direction}")
            if direction != node.cut_direction:
                issue("end-cut-direction", eid,
                      f"direction {direction} differs from the node's cut "
                      f"direction {node.cut_direction}")
        else:
            _, start, finish, _, _, _ = next(end_segments)
            (landing,) = terminal
            if not reaches(start, finish, direction):
                issue("end-collinearity", eid,
                      f"landing {landing} is not reached along direction "
                      f"{direction}")
            loc = diagram.contains(landing)
            if loc.kind is LocationKind.ON_CORNER:
                issue("end-corner-landing", eid,
                      f"landing {landing} is a polygon corner; corners are "
                      "not legal landing sites")
            elif loc.kind is not LocationKind.ON_BOUNDARY_EDGE:
                issue("end-landing", eid,
                      f"landing {landing} is {loc}, must lie in the open "
                      "interior of a boundary edge")

    # Embeddedness: segment contacts, nodes, cuts.  Two segments can meet
    # only if their closed bounding boxes do; candidates[i] holds each such
    # j > i.
    boxes = []
    for k, (_, (ax, ay), (bx, by), _, _, _) in enumerate(segments):
        x0, x1 = (ax, bx) if ax <= bx else (bx, ax)
        y0, y1 = (ay, by) if ay <= by else (by, ay)
        boxes.append((x0, x1, y0, y1, k))
    boxes.sort()
    candidates = [[] for _ in segments]
    for n, (_, x1, y0, y1, k) in enumerate(boxes):
        for m in range(n + 1, len(boxes)):
            u0, _, v0, v1, other = boxes[m]
            if u0 > x1:
                break
            if v0 <= y1 and y0 <= v1:
                candidates[min(k, other)].append(max(k, other))
    for i in range(len(segments)):
        id1, a, b, tok_a, tok_b, _ = segments[i]
        if a == b:
            issue("degenerate-segment", id1, "segment has zero length")
            continue
        for j in sorted(candidates[i]):
            id2, c, d, tok_c, tok_d, _ = segments[j]
            hit = segment_contact(a, b, c, d)
            if hit is None:
                continue
            if hit == OVERLAP:
                issue("embedding", id1,
                      f"overlaps {id2} along a segment")
                continue
            # At most one end of i (which has length) is the contact, and a
            # token names one point: j (maybe of zero length) shares it.
            tok = (tok_a if hit == (*a, 1) else
                   tok_b if hit == (*b, 1) else None)
            if tok is None or tok not in (tok_c, tok_d):
                x, y, w = hit
                issue("embedding", id1,
                      f"meets {id2} at {RatPoint.of(x, y, w * scale)}, which "
                      "is not a shared endpoint")
        for node_index, (node, _) in enumerate(cuts):
            if between(node, a, b):
                issue("crosses-node", id1, "passes through the node at "
                      f"{diagram.nodes[node_index].position}")
        for cut_index, (cs, ce) in enumerate(cuts):
            hit = segment_contact(a, b, cs, ce)
            if hit is None:
                continue
            if hit == (*cs, 1) and ("node", cut_index) in (tok_a, tok_b):
                continue  # an end terminating at this cut's own node
            issue("crosses-cut", id1,
                  f"touches the cut of node {cut_index}")

    issues.extend(check_balancing(curve).issues)

    # Connectivity of the underlying graph (edges join vertices; each
    # anchor is its own component unless the curve is just that segment).
    count = _components(curve.sites,
                        [(src, dst) for _, src, dst in curve.edges])
    if count > 1:
        issue("disconnected", curve.name or "curve",
              f"underlying graph has {count} components")

    return ValidationReport(tuple(issues))


def _components(keys, links) -> int:
    """How many classes the (key, key) links join keys into: a union-find."""
    parent = {key: key for key in keys}
    for a, b in links:
        while parent[a] != a:  # climb to the roots, halving the paths
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[a] = b
    return sum(1 for k, up in parent.items() if k == up)  # one root each


# -----------------------------------------------------------------------
# Multiplicities
# -----------------------------------------------------------------------

def vertex_multiplicity(curve: TropicalCurve, vertex_id: str) -> int:
    """m = |d1 ^ d2| for two outgoing directions at a trivalent vertex that
    balances as check_balancing requires (then every pair gives m)."""
    curve.vertex(vertex_id)
    out = curve.outgoing(vertex_id)
    if len(out) != 3:
        raise NonTrivalentVertex(
            f"vertex {vertex_id!r} has valence {len(out)}, expected 3")
    sx, sy = _imbalance(out)
    if sx or sy:
        raise UnbalancedVertex(
            f"vertex {vertex_id!r} is unbalanced: outgoing directions sum "
            f"to ({sx},{sy}), expected (0,0)")
    (d1, _), (d2, _), _ = out
    return abs(d1.wedge(d2))


def multiplicities(diagram: BaseDiagram, curve: TropicalCurve):
    """vertex_multiplicity of every vertex, in curve order (_remember)."""
    return _remember(diagram, curve, multiplicities, lambda: tuple(
        vertex_multiplicity(curve, v.id) for v in curve.vertices))


def vertex_double_points(m: int) -> int:
    """(m-1)/2, the number of Lagrangian double points a vertex of
    multiplicity m contributes."""
    if not isinstance(m, int) or m < 1:
        raise NonIntegralSelfIntersection(f"multiplicity must be a positive "
                                          f"integer, got {m}")
    if m % 2 == 0:
        raise NonIntegralSelfIntersection(
            f"multiplicity m={m} is even; (m-1)/2 is not an integer")
    return (m - 1) // 2


def end_multiplicity(diagram: BaseDiagram, end: CurveEnd) -> int:
    """mu = |wedge(end direction, boundary edge direction)| at the landing.

    mu = 1 is a collar (the Lagrangian acquires a boundary circle there),
    mu = 2 a cross-cap.  Only boundary ends have one.
    """
    if not isinstance(end.terminal, BoundaryTerminal):
        raise NotABoundaryEnd(f"end {end.id!r} terminates at a node")
    loc = diagram.contains(end.terminal.landing)
    if loc.kind is not LocationKind.ON_BOUNDARY_EDGE:
        raise InvalidCurve(
            f"end {end.id!r} landing {end.terminal.landing} is {loc}, "
            "not in the open interior of a boundary edge")
    mu = abs(end.direction.wedge(diagram.boundary_edges[loc.index].direction))
    if mu == 0:
        raise InvalidCurve(
            f"end {end.id!r} is parallel to the boundary edge it lands on; "
            "a legal landing cannot have mu = 0")
    return mu


class EndKind(Enum):
    DISC_CAP = "disccap"
    CROSS_CAP = "crosscap"
    COLLAR = "collar"


def classify_end(diagram: BaseDiagram, end: CurveEnd) -> EndKind:
    """The cap over a weight-one end: a disc at a node, a collar at mu = 1,
    a cross-cap at mu = 2."""
    if isinstance(end.terminal, NodeTerminal):
        return EndKind.DISC_CAP
    mu = end_multiplicity(diagram, end)
    if mu == 1:
        return EndKind.COLLAR
    if mu == 2:
        return EndKind.CROSS_CAP
    raise UnsupportedEndMultiplicity(
        f"end {end.id!r} has mu = {mu}; only mu = 1 (collar) and mu = 2 "
        "(cross-cap) carry a surface meaning")


def end_kinds(diagram: BaseDiagram, curve: TropicalCurve):
    """classify_end of every end, in curve order (_remember)."""
    return _remember(diagram, curve, end_kinds, lambda: tuple(
        classify_end(diagram, e) for e in curve.ends))
