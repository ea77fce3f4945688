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

A curve holds int columns, built once: vertex ids (with an id -> index
dict) and reduced (X, Y, W) point triples, the anchors' triples, edge rows
(id, src index, dst index, direction) and end rows (id, site, direction,
terminal), the terminal a node index or a landing triple, all plain tuples
that the collector stops tracking.  Sites are the vertices, then the
anchors by first appearance; each keeps the indices of the half-edges
leaving it, edges first: edge k leaves src as 2k and dst as 2k + 1, end j
its site as 2 * #edges + j, and each half-edge's direction is kept too.
An edge's direction is derived by lattice.primitive_pair from its
endpoints; every point stays a reduced triple, cleared only by geometry().
Every curve is built from rows of plain tuples (of_rows; the record
constructor reduces its records to rows), so no column holds a RatPoint.
The records (vertices, edges, ends), the public incidence `sites` (site
key -> outgoing (direction, element id) pairs, the key a vertex id or the
anchor RatPoint) and anchors() are built from the columns on first read,
so a curve makes none until asked.  Equality compares the columns.

geometry() hands out the one plane in which a curve becomes segments on int
pairs, for validate(), the homology sweeps and render, with the diagram's
corners and cuts on the same ints; it is the one place a curve's triples
are cleared.  validate() checks every geometric and combinatorial
invariant and returns a report; the per-element facts (a vertex's
multiplicity m and its (m-1)/2 double points, an end's mu and its cap
kind) assume a validated curve and raise on contract violations.  Each
reads the columns by index; end_multiplicity and classify_end take an end
row or a CurveEnd, and its landing's location if known.  The plane, the
landings' locations (landing_locations), the cap kinds (end_kinds), the
m's (multiplicities) and homology's default sweeps are computed once per
curve and diagram and kept in the curve's one memo slot (_remember);
validate alone locates the sites.
"""
from enum import Enum
from functools import cached_property
from math import gcd, lcm
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
    point_text,
    primitive_pair,
    reaches,
    segment_contact,
)

# Enum members read from globals: EnumType's __getattr__ (Python 3.11) makes
# each read off the class a slow lookup, about 150 ns against 10.
_INTERIOR, _ON_EDGE, _ON_CORNER = (LocationKind.INTERIOR,
                                   LocationKind.ON_BOUNDARY_EDGE,
                                   LocationKind.ON_CORNER)


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


def _check_reduced(p, kind, name, part):
    """Refuse p, the (X, Y, W) of part of the element kind name (an end's
    landing, say), unless it is reduced with W > 0."""
    X, Y, W = p
    if W != 1 and (W < 1 or gcd(X, Y, W) != 1):
        raise InvalidCurve(f"{kind} {name!r} {part} {(X, Y, W)} is not "
                           "reduced with W > 0")


def _plain(item):
    """A vertex id or a node index as it is, a point as its plain triple."""
    return item if isinstance(item, (str, int)) else tuple(item)


class TropicalCurve:
    """An immutable tropical curve; geometry is validated against a diagram
    by validate().  It keeps only its columns, and builds its records on
    first read (see the module docstring)."""

    def __init__(self, vertices=(), edges=(), ends=(), name=""):
        """The curve of records, reduced to rows (see of_rows)."""
        vertices = tuple(vertices)
        self._build(name, [v.id for v in vertices],
                    [tuple(v.position) for v in vertices], edges,
                    [(e.id, _plain(e.source), tuple(e.direction),
                      _plain(e.terminal[0])) for e in ends])

    @classmethod
    def of_rows(cls, name, ids, points, edges, ends):
        """The curve of rows of plain tuples: vertex ids, their reduced
        (X, Y, W) points, edges (id, src id, dst id) and ends (id, source,
        (dx, dy), terminal), the source a vertex id or an anchor triple and
        the terminal a node index or a landing triple; a triple that is not
        reduced with W > 0, or ids and points of different lengths, is an
        InvalidCurve."""
        curve = cls.__new__(cls)
        curve._build(name, ids, points, edges, ends)
        return curve

    def _build(self, name, ids, points, edges, ends):
        """The columns of the rows of_rows takes."""
        if len(ids) != len(points):
            raise InvalidCurve(f"{len(ids)} vertex ids for {len(points)} "
                               "vertex points")
        self.name = name
        self._index = index = {}
        for i, vid in enumerate(ids):
            if index.setdefault(vid, i) != i:
                raise InvalidCurve(f"duplicate vertex id {vid!r}")
            _check_reduced(points[i], "vertex", vid, "position")
        # Half-edges: edge k leaves src as 2k and dst as 2k + 1, end j
        # leaves its source as 2 * len(edges) + j; half holds each one's
        # direction and sites each site's half-edges, edges first, as
        # tuples of ints (lists would stay tracked by the collector).
        sites = [()] * len(ids)
        half = []
        edge_rows = []
        seen_ids = set(index)
        for k, (eid, src, dst) in enumerate(edges):
            if eid in seen_ids:
                raise InvalidCurve(f"duplicate element id {eid!r}")
            seen_ids.add(eid)
            for endpoint in (src, dst):
                if endpoint not in index:
                    raise InvalidCurve(
                        f"edge {eid!r} refers to unknown vertex {endpoint!r}")
            if src == dst:
                raise InvalidCurve(f"edge {eid!r} is a loop")
            s, d = index[src], index[dst]
            try:
                u = x, y = primitive_pair(points[s], points[d])
            except DegenerateDirection:
                raise InvalidCurve(
                    f"edge {eid!r} joins coincident vertices") from None
            sites[s] += (2 * k,)
            sites[d] += (2 * k + 1,)
            half += (u, (-x, -y))
            edge_rows.append((eid, s, d, u))

        anchors = {}  # anchor point -> its site
        end_rows = []
        for j, (eid, source, u, terminal) in enumerate(ends, len(half)):
            if eid in seen_ids:
                raise InvalidCurve(f"duplicate element id {eid!r}")
            seen_ids.add(eid)
            if isinstance(source, str):
                if source not in index:
                    raise InvalidCurve(
                        f"end {eid!r} refers to unknown vertex {source!r}")
                site = index[source]
            elif source in anchors:
                site = anchors[source]
            else:
                _check_reduced(source, "end", eid, "anchor")
                site = anchors[source] = len(sites)
                sites.append(())
            if gcd(*u) != 1:
                raise InvalidCurve(f"end {eid!r} direction "
                                   "({},{}) is not primitive".format(*u))
            if not isinstance(terminal, int):
                _check_reduced(terminal, "end", eid, "landing")
            sites[site] += (j,)
            half.append(u)
            end_rows.append((eid, site, u, terminal))

        self._ids, self._points = tuple(ids), tuple(points)
        self._anchors = tuple(anchors)
        self._edge_rows, self._end_rows = tuple(edge_rows), tuple(end_rows)
        self._sites, self._half = tuple(sites), tuple(half)
        self._memo = None  # (diagram, {owner function: fact}); see _remember

    # -- records, built on first read ------------------------------------

    @cached_property
    def vertices(self):
        return tuple([TropicalVertex(vid, RatPoint.of(*p))
                      for vid, p in zip(self._ids, self._points)])

    @cached_property
    def edges(self):
        ids = self._ids
        return tuple([InternalEdge(eid, ids[s], ids[d])
                      for eid, s, d, _ in self._edge_rows])

    @cached_property
    def ends(self):
        keys = self._keys()
        return tuple([CurveEnd(
            eid, keys[site], tuple.__new__(IntVec, u),  # ints already
            NodeTerminal(t) if isinstance(t, int)
            else BoundaryTerminal(RatPoint.of(*t)))
            for eid, site, u, t in self._end_rows])

    @cached_property
    def sites(self):
        """Site key -> outgoing (direction, element id) pairs, vertex sites
        first, then anchors; edges before ends at each site."""
        names = [row[0] for row in self._edge_rows for _ in (0, 1)]
        names += [row[0] for row in self._end_rows]
        return MappingProxyType({
            key: tuple([(tuple.__new__(IntVec, self._half[h]), names[h])
                        for h in out])
            for key, out in zip(self._keys(), self._sites)})

    def _keys(self):
        """Each site's key: its vertex id, or its anchor RatPoint."""
        return [*self._ids, *(RatPoint.of(*p) for p in self._anchors)]

    # -- basic accessors ------------------------------------------------

    def vertex(self, vertex_id: str) -> TropicalVertex:
        try:
            return self.vertices[self._index[vertex_id]]
        except KeyError:
            raise InvalidCurve(f"no vertex with id {vertex_id!r}") from None

    def anchors(self):
        """Standalone anchor points, with their ends, in declaration order."""
        ends, first = self.ends, 2 * len(self._edge_rows)
        return tuple((RatPoint.of(*p), tuple(ends[h - first] for h in out))
                     for p, out in zip(self._anchors,
                                       self._sites[len(self._ids):]))

    def outgoing(self, key):
        """Outgoing (direction, element id) pairs at a vertex id or anchor."""
        return self.sites.get(key, ())

    @property
    def is_empty(self) -> bool:
        return not (self._ids or self._edge_rows or self._end_rows)

    def transform(self, m: UnimodularAffineMap) -> "TropicalCurve":
        """The curve in new integral affine coordinates: m.apply moves each
        point, anchor and landing, and m's linear part each direction."""
        (a, b), (c, d) = m.linear
        n = len(self._ids)
        points = [tuple(m.apply(RatPoint.of(*p)))
                  for p in self._points + self._anchors]
        sources = [*self._ids, *points[n:]]
        return TropicalCurve.of_rows(
            self.name, self._ids, points[:n],
            [(eid, sources[src], sources[dst])
             for eid, src, dst, _ in self._edge_rows],
            [(eid, sources[site], (a * x + b * y, c * x + d * y),
              t if isinstance(t, int) else tuple(m.apply(RatPoint.of(*t))))
             for eid, site, (x, y), t in self._end_rows])

    def _columns(self):
        return (self.name, self._ids, self._points, self._anchors,
                self._edge_rows, self._end_rows)

    def __eq__(self, other):
        if not isinstance(other, TropicalCurve):
            return NotImplemented
        return self._columns() == other._columns()

    def __repr__(self):
        return (f"TropicalCurve({self.name!r}, {len(self._ids)} vertices, "
                f"{len(self._edge_rows)} edges, {len(self._end_rows)} ends)")


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
    (_remember).  scale is the lcm of the diagram's scale and the W of
    every vertex, anchor and landing triple, and each point is cleared by
    it, which keeps every sign: the diagram's columns are multiplied by
    scale over the diagram's scale, and each triple (X, Y, W) by scale // W.
    corners holds the polygon's corners in order, cuts each node's
    (position, exit); segments holds (id, start, finish, start token,
    finish token, direction) per edge, then per end, in curve order, and
    none for an end to a missing node.  Every part is a plain tuple of
    ints and strings, which the collector stops tracking.  Two segments
    may share a point only where both carry the same token there: a site
    index (an int) at a vertex or an anchor, or a node or landing token (a
    pair that starts with a string).
    """
    return _remember(diagram, curve, geometry, lambda: _plane(diagram, curve))


def _plane(diagram: BaseDiagram, curve: TropicalCurve):
    points = curve._points + curve._anchors
    landings = [t for *_, t in curve._end_rows if not isinstance(t, int)]
    scale = lcm(diagram._scale, common_scale([*points, *landings]))
    k = scale // diagram._scale
    corners = tuple([(x * k, y * k) for x, y in diagram._corners])
    cuts = tuple([((x * k, y * k), (u * k, v * k))
                  for (x, y), (u, v) in diagram._cuts])
    grid = [cleared(p, scale) for p in points]
    segments = [(eid, grid[s], grid[d], s, d, u)
                for eid, s, d, u in curve._edge_rows]
    for eid, site, u, terminal in curve._end_rows:
        if not isinstance(terminal, int):
            finish, token = cleared(terminal, scale), ("landing", eid)
        elif 0 <= terminal < len(cuts):
            finish, token = cuts[terminal][0], ("node", terminal)
        else:
            continue  # an end to a missing node has no segment
        segments.append((eid, grid[site], finish, site, token, u))
    return scale, corners, cuts, tuple(segments)


def landing_locations(diagram: BaseDiagram, curve: TropicalCurve):
    """diagram.contains of each end's landing (None for an end at a node),
    once per curve and diagram (_remember); validate alone locates sites."""
    return _remember(diagram, curve, landing_locations, lambda: tuple([
        None if isinstance(t, int) else diagram.contains(t)
        for _, _, _, t in curve._end_rows]))


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


def _imbalance(curve: TropicalCurve, out) -> tuple[int, int]:
    """The sum of the outgoing directions of the half-edges out at a site;
    (0, 0) is balanced."""
    half = curve._half
    sx = sy = 0
    for h in out:
        x, y = half[h]
        sx += x
        sy += y
    return sx, sy


def _site_name(curve: TropicalCurve, site: int) -> str:
    """A site as a message names it: its vertex id, or "anchor (x,y)"."""
    n = len(curve._ids)
    return (curve._ids[site] if site < n
            else f"anchor {point_text(curve._anchors[site - n])}")


def check_balancing(curve: TropicalCurve) -> ValidationReport:
    """Outgoing directions must sum to zero at every vertex, and at every
    standalone anchor (where this just says the segment is straight)."""
    issues = []
    for site, out in enumerate(curve._sites):
        sx, sy = _imbalance(curve, out)
        if sx or sy:
            issues.append(ValidationIssue(
                "balancing", _site_name(curve, site),
                f"outgoing directions sum to ({sx},{sy}), expected (0,0)"))
    return ValidationReport(tuple(issues))


def validate(diagram: BaseDiagram, curve: TropicalCurve) -> ValidationReport:
    """Full geometric and combinatorial validation.

    Checks vertex/anchor containment, end collinearity, terminal
    legality (boundary landings in open edge interiors, node ends along the
    cut direction), embeddedness (segments meet only at shared named
    endpoints, and avoid nodes and cuts), balancing, and connectivity.
    The empty curve is vacuously valid.

    It reads the columns by index, landing_locations(), each site's own
    location (diagram._locate) and geometry()'s int pairs; a point or a
    direction is printed only in an issue.  Embeddedness sweeps the boxes
    of the segments by min x (Shamos-Hoey) and runs the exact
    segment_contact on each pair i < j as the sweep finds their closed
    boxes meet: O(n log n + k) for k pairs overlapping in x, not n(n-1)/2
    tests.  Its issues are sorted once: by segment, then degenerate,
    contacts (by j), nodes and cuts.  Only a diagram with nodes runs the
    node and cut tests.
    """
    issues = []
    scale, _, cuts, segments = geometry(diagram, curve)
    S, locate = diagram._scale, diagram._locate  # diagram.contains, inlined
    sites = [locate(X * S, Y * S, W)
             for X, Y, W in curve._points + curve._anchors]
    landings = landing_locations(diagram, curve)

    def issue(code, element, message):
        issues.append(ValidationIssue(code, element, message))

    for vid, p, out, loc in zip(curve._ids, curve._points, curve._sites,
                                sites):
        if loc.kind is not _INTERIOR:
            issue("vertex-position", vid, f"position {point_text(p)} is "
                  f"{loc}, must be strictly interior")
        if not out:
            issue("isolated-vertex", vid, "vertex has no incident elements")

    for site, loc in enumerate(sites[len(curve._ids):], len(curve._ids)):
        if loc.kind is not _INTERIOR:
            issue("anchor-position", _site_name(curve, site),
                  f"anchor is {loc}, must be strictly interior")
        if len(curve._sites[site]) != 2:
            issue("anchor-not-segment", _site_name(curve, site),
                  f"{len(curve._sites[site])} ends meet here; an anchor "
                  "carries exactly two (declare a vertex instead)")

    end_segments = iter(segments[len(curve._edge_rows):])
    for (eid, _, (dx, dy), terminal), loc in zip(curve._end_rows, landings):
        if loc is None and not 0 <= terminal < len(cuts):
            issue("end-terminal", eid, f"no node with index {terminal}")
            continue
        _, start, finish, _, _, u = next(end_segments)
        node = diagram.nodes[terminal] if loc is None else None
        if not reaches(start, finish, u):
            target = (f"landing {point_text(terminal)}" if node is None
                      else f"node at {node.position}")
            issue("end-collinearity", eid,
                  f"{target} is not reached along direction ({dx},{dy})")
        if node is not None:
            if u != node.cut_direction:
                issue("end-cut-direction", eid,
                      f"direction ({dx},{dy}) differs from the node's cut "
                      f"direction {node.cut_direction}")
        elif loc.kind is _ON_CORNER:
            issue("end-corner-landing", eid,
                  f"landing {point_text(terminal)} is a polygon corner; "
                  "corners are not legal landing sites")
        elif loc.kind is not _ON_EDGE:
            issue("end-landing", eid,
                  f"landing {point_text(terminal)} is {loc}, must lie in the "
                  "open interior of a boundary edge")

    # Embeddedness: segment contacts, nodes, cuts, kept as (i, rank, j,
    # code, element, message), unique in (i, rank, j), and sorted once.  A
    # pair i < j is tested as the sweep finds its closed boxes meet.
    found = [(k, 0, 0, "degenerate-segment", seg[0], "segment has zero "
              "length") for k, seg in enumerate(segments) if seg[1] == seg[2]]
    boxes = []
    for k, (_, (ax, ay), (bx, by), _, _, _) in enumerate(segments):
        x0, x1 = (ax, bx) if ax <= bx else (bx, ax)
        y0, y1 = (ay, by) if ay <= by else (by, ay)
        boxes.append((x0, x1, y0, y1, k))
    boxes.sort()
    for n, (_, x1, y0, y1, k) in enumerate(boxes):
        for m in range(n + 1, len(boxes)):
            u0, _, v0, v1, other = boxes[m]
            if u0 > x1:
                break
            if v0 > y1 or y0 > v1:
                continue  # the boxes are apart in y
            i, j = (k, other) if k < other else (other, k)
            id1, a, b, tok_a, tok_b, _ = segments[i]
            if a == b:
                continue  # reported as degenerate; j may be of zero length
            id2, c, d, tok_c, tok_d, _ = segments[j]
            hit = segment_contact(a, b, c, d)
            if hit is None:
                continue
            if hit == OVERLAP:
                found.append((i, 1, j, "embedding", id1,
                              f"overlaps {id2} along a segment"))
                continue
            # At most one end of i (which has length) is the contact, and a
            # token names one point: j (maybe of zero length) shares it.
            tok = (tok_a if hit == (*a, 1) else
                   tok_b if hit == (*b, 1) else None)
            if tok is None or tok not in (tok_c, tok_d):
                x, y, w = hit
                found.append((i, 1, j, "embedding", id1,
                              f"meets {id2} at {RatPoint.of(x, y, w * scale)}"
                              ", which is not a shared endpoint"))
    for i, (id1, a, b, tok_a, tok_b, _) in enumerate(segments if cuts else ()):
        if a == b:
            continue
        for node_index, (node, _) in enumerate(cuts):
            if between(node, a, b):
                found.append((i, 2, node_index, "crosses-node", id1,
                              "passes through the node at "
                              f"{diagram.nodes[node_index].position}"))
        for cut_index, (cs, ce) in enumerate(cuts):
            hit = segment_contact(a, b, cs, ce)
            if hit is None:
                continue
            if hit == (*cs, 1) and ("node", cut_index) in (tok_a, tok_b):
                continue  # an end terminating at this cut's own node
            found.append((i, 3, cut_index, "crosses-cut", id1,
                          f"touches the cut of node {cut_index}"))
    issues += [ValidationIssue(*issue[3:]) for issue in sorted(found)]

    issues.extend(check_balancing(curve).issues)

    # Connectivity of the underlying graph (edges join vertices; each
    # anchor is its own component unless the curve is just that segment).
    count = _components(len(curve._sites),
                        [(src, dst) for _, src, dst, _ in curve._edge_rows])
    if count > 1:
        issue("disconnected", curve.name or "curve",
              f"underlying graph has {count} components")

    return ValidationReport(tuple(issues))


def _components(n: int, links) -> int:
    """How many classes the (i, j) links join 0, ..., n-1 into: a
    union-find."""
    parent = list(range(n))
    for a, b in links:
        while parent[a] != a:  # climb to the roots, halving the paths
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[a] = b
    return sum(1 for k, up in enumerate(parent) if k == up)  # one root each


# -----------------------------------------------------------------------
# Multiplicities
# -----------------------------------------------------------------------

def vertex_multiplicity(curve: TropicalCurve, vertex_id: str) -> int:
    """m = |d1 ^ d2| for two outgoing directions at a trivalent vertex that
    balances as check_balancing requires (then every pair gives m)."""
    try:
        out = curve._sites[curve._index[vertex_id]]
    except KeyError:
        raise InvalidCurve(f"no vertex with id {vertex_id!r}") from None
    if len(out) != 3:
        raise NonTrivalentVertex(
            f"vertex {vertex_id!r} has valence {len(out)}, expected 3")
    sx, sy = _imbalance(curve, out)
    if sx or sy:
        raise UnbalancedVertex(
            f"vertex {vertex_id!r} is unbalanced: outgoing directions sum "
            f"to ({sx},{sy}), expected (0,0)")
    (x1, y1), (x2, y2) = curve._half[out[0]], curve._half[out[1]]
    return abs(x1 * y2 - y1 * x2)


def multiplicities(diagram: BaseDiagram, curve: TropicalCurve):
    """vertex_multiplicity of every vertex, in curve order (_remember)."""
    return _remember(diagram, curve, multiplicities, lambda: tuple(
        vertex_multiplicity(curve, vid) for vid in curve._ids))


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


# An end is a CurveEnd, or a row (id, site, (dx, dy), terminal) of a
# curve's end column, whose terminal is a node index or a landing triple:
# end_multiplicity and classify_end take either, and end_kinds the rows
# with their landings' locations (None: the function locates the landing).

def _terminal(end):
    """An end's node index, or its landing (a terminal record's field)."""
    terminal = end[3]
    if not isinstance(terminal, int) and len(terminal) == 1:
        (terminal,) = terminal
    return terminal


def end_multiplicity(diagram: BaseDiagram, end, location=None) -> int:
    """mu = |wedge(end direction, boundary edge direction)| at the landing.

    mu = 1 is a collar (the Lagrangian acquires a boundary circle there),
    mu = 2 a cross-cap.  Only boundary ends have one.
    """
    eid, (dx, dy), landing = end[0], end[2], _terminal(end)
    if isinstance(landing, int):
        raise NotABoundaryEnd(f"end {eid!r} terminates at a node")
    loc = location or diagram.contains(landing)
    if loc.kind is not _ON_EDGE:
        raise InvalidCurve(
            f"end {eid!r} landing {point_text(landing)} is {loc}, "
            "not in the open interior of a boundary edge")
    ex, ey = diagram._directions[loc.index]
    mu = abs(dx * ey - dy * ex)
    if mu == 0:
        raise InvalidCurve(
            f"end {eid!r} is parallel to the boundary edge it lands on; "
            "a legal landing cannot have mu = 0")
    return mu


class EndKind(Enum):
    DISC_CAP = "disccap"
    CROSS_CAP = "crosscap"
    COLLAR = "collar"


_DISC_CAP, _CROSS_CAP, _COLLAR = EndKind  # in order; see _INTERIOR


def classify_end(diagram: BaseDiagram, end, location=None) -> EndKind:
    """The cap over a weight-one end: a disc at a node, a collar at mu = 1,
    a cross-cap at mu = 2; location is as end_multiplicity takes it."""
    if isinstance(_terminal(end), int):
        return _DISC_CAP
    mu = end_multiplicity(diagram, end, location)
    if mu == 1:
        return _COLLAR
    if mu == 2:
        return _CROSS_CAP
    raise UnsupportedEndMultiplicity(
        f"end {end[0]!r} has mu = {mu}; only mu = 1 (collar) and mu = 2 "
        "(cross-cap) carry a surface meaning")


def end_kinds(diagram: BaseDiagram, curve: TropicalCurve):
    """classify_end of every end row, in curve order (_remember)."""
    return _remember(diagram, curve, end_kinds, lambda: tuple(
        classify_end(diagram, row, loc)
        for row, loc in zip(curve._end_rows,
                            landing_locations(diagram, curve))))
