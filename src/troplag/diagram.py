"""Almost toric base diagrams.

A base diagram is a strictly convex polygon together with interior
focus-focus nodes, each carrying a straight cut running from the node to the
boundary, plus a description of the mod-2 homology of the ambient
4-manifold (basis labels and intersection form).  Two constructors cover
the spaces used throughout the package: the toric rectangle (a product of
two spheres) and the triple blow-up triangle with one toric corner chop and
two non-toric nodes.  BaseDiagram.exit is the one routine that finds where
a ray from an interior point leaves the polygon: each cut ends at its
node's exit, and the constructions land their ends at theirs.
A diagram is a lattice polygon held as int columns on one scale S, the
least that clears every corner, node and cut exit: corners, each edge's
line (e.x, e.y, e ^ A) and primitive direction, bounds, node positions,
cut directions and cut exits.  contains (of (X, Y, W) as (S*X, S*Y, W))
and exit read only these; the boundary_edges and cut_segments records are
built on first read, and bounds() makes its Fractions from the ints.
A corner is a RatPoint or a reduced (X, Y, W) of ints with W > 0, held
as a RatPoint.  One pass over the edges clears the corners, checks each
turn and emits the lines, directions and bounds into tuples.  rectangle
and x_abc check their signs on the ints of their parameters and pass
their corners and nodes as reduced triples: they make no Fraction but
their params.
"""
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property, partial
from math import gcd, lcm
from types import MappingProxyType
from typing import NamedTuple

from .errors import TroplagError
from .lattice import (DegenerateDirection, IntVec, RatPoint,
                      UnimodularAffineMap, _as_fraction, displacement,
                      point_text, reaches, reduced, segment_contact)


class InvalidDiagram(TroplagError):
    """A diagram constructor was given inconsistent data."""


class UnsupportedDiagram(TroplagError):
    """The requested operation is only defined for a narrower diagram class."""


class LocationKind(Enum):
    INTERIOR = "interior"
    ON_BOUNDARY_EDGE = "on-boundary-edge"
    ON_CORNER = "on-corner"
    OUTSIDE = "outside"
    ON_NODE = "on-node"
    ON_CUT = "on-cut"


class PointLocation(NamedTuple):
    """Where a point sits relative to a diagram; index names the edge, corner,
    node or cut when applicable."""

    kind: LocationKind
    index: int | None = None

    def __str__(self) -> str:
        if self.index is None:
            return self.kind.value
        return f"{self.kind.value}[{self.index}]"


OUTSIDE = PointLocation(LocationKind.OUTSIDE)
INTERIOR = PointLocation(LocationKind.INTERIOR)
_ON_EDGE, _ON_CORNER = LocationKind.ON_BOUNDARY_EDGE, LocationKind.ON_CORNER
_ON_NODE, _ON_CUT = LocationKind.ON_NODE, LocationKind.ON_CUT


class BoundaryEdge(NamedTuple):
    """One edge of the polygon, oriented counterclockwise.

    direction is primitive and points from start to end; affine_length is
    the rational t with end - start == t * direction (the lattice length).
    """

    start: RatPoint
    end: RatPoint
    direction: IntVec
    affine_length: Fraction


class _Node(NamedTuple):
    position: RatPoint
    cut_direction: IntVec


class Node(_Node):
    """A focus-focus node with the primitive direction of its cut.

    The cut runs from the node position along cut_direction until it leaves
    the polygon through the interior of a boundary edge.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks

    def __new__(cls, position, cut_direction):
        if not isinstance(position, RatPoint):
            raise TypeError(f"position {position!r} is not a RatPoint")
        if not isinstance(cut_direction, IntVec):
            raise TypeError(
                f"cut direction {cut_direction!r} is not an IntVec")
        if not cut_direction.is_primitive:
            raise InvalidDiagram(
                f"cut direction {cut_direction} is not primitive")
        return tuple.__new__(cls, (position, cut_direction))


class _HomologyModel(NamedTuple):
    basis_labels: tuple[str, ...]
    intersection_form: tuple[tuple[int, ...], ...]
    class_of_horizontal_sweep: tuple[int, ...] | None = None
    class_of_vertical_sweep: tuple[int, ...] | None = None


class HomologyModel(_HomologyModel):
    """Mod-2 homology bookkeeping for the ambient space.

    basis_labels name a basis of H_2(X; Z/2); intersection_form is the
    symmetric integer pairing in that basis.  The two sweep-class vectors,
    present for rectangle diagrams only, give the classes of the sphere over
    a horizontal and over a vertical segment.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        n = len(self.basis_labels)
        if len(self.intersection_form) != n or any(
                len(row) != n for row in self.intersection_form):
            raise InvalidDiagram("intersection form must be square and match "
                                 "the number of basis labels")
        form = self.intersection_form
        if any(form[i][j] != form[j][i] for i in range(n) for j in range(i)):
            raise InvalidDiagram("intersection form must be symmetric")
        for vec in (self.class_of_horizontal_sweep,
                    self.class_of_vertical_sweep):
            if vec is not None and len(vec) != n:
                raise InvalidDiagram("sweep class vector has wrong length")
        return self

    @property
    def rank(self) -> int:
        return len(self.basis_labels)

    def pairing(self, u, v) -> int:
        if len(u) != self.rank or len(v) != self.rank:
            raise InvalidDiagram("class vector has wrong length")
        return sum(u[i] * self.intersection_form[i][j] * v[j]
                   for i in range(self.rank) for j in range(self.rank))


_EMPTY_HOMOLOGY = HomologyModel((), ())


@cache
def _on_edges(n: int) -> tuple[PointLocation, ...]:
    """ON_BOUNDARY_EDGE(i) for each edge i of an n-gon, shared by all."""
    return tuple([PointLocation(_ON_EDGE, i) for i in range(n)])


def _corner(i: int, p) -> RatPoint:
    """Corner i, given as p, as a RatPoint: p must be a reduced (X, Y, W)
    of ints with W > 0 (a RatPoint is one); InvalidDiagram names any other."""
    if not (isinstance(p, tuple) and len(p) == 3
            and all(type(c) is int for c in p) and p[2] > 0 and gcd(*p) == 1):
        raise InvalidDiagram(f"polygon vertex {i} {p!r} is not a RatPoint "
                             "or a reduced (X, Y, W) of ints with W > 0")
    return tuple.__new__(RatPoint, p)


class BaseDiagram:
    """A strictly convex polygon with focus-focus nodes and cuts.

    polygon_vertices are counterclockwise, and the polygon winds once:
    every corner off an edge lies strictly left of that edge's line.
    Boundary edges are derived from consecutive vertex pairs; each cut
    segment ends at the exit of its node's cut ray.  Construction validates
    convexity, node interiority and cut disjointness, raising
    InvalidDiagram with the violated constraint named.
    """

    def __init__(self, polygon_vertices, nodes=(), homology=_EMPTY_HOMOLOGY,
                 name="polygon", kind="polygon", params=None):
        vertices = tuple([p if type(p) is RatPoint else _corner(i, p)
                          for i, p in enumerate(polygon_vertices)])
        n = len(vertices)
        if n < 3:
            raise InvalidDiagram("a polygon needs at least three vertices")
        if len(set(vertices)) != n:
            raise InvalidDiagram("polygon vertices must be distinct")
        self.nodes = nodes = tuple(nodes)
        scale = lcm(*{W for _, _, W in vertices})
        for node in nodes:
            if not isinstance(node, Node):
                raise TypeError(f"node {node!r} is not a Node")
            scale = lcm(scale, node[0][2])
        corners = tuple([p[:2] for p in vertices] if scale == 1 else [
            (X * (scale // W), Y * (scale // W)) for X, Y, W in vertices])
        # One pass over the edges.  Edge i runs from A to B, corners i and
        # i + 1, with line (e.x, e.y, e ^ A) for e = B - A; it turns left
        # onto edge i + 1, to the corner C, iff e ^ (C - B) > 0.
        lines, directions = [], []
        (ax, ay), (bx, by) = corners[0], corners[1]
        ex, ey = bx - ax, by - ay
        x0, y0 = x1, y1 = ax, ay
        for i, (cx, cy) in enumerate(corners[2:] + corners[:2]):
            fx, fy = cx - bx, cy - by
            side = ex * fy - ey * fx
            if side < 0:
                raise InvalidDiagram("polygon vertices must be listed "
                                     "counterclockwise")
            if side == 0:
                a, b, c = (vertices[(i + k) % n] for k in range(3))
                raise InvalidDiagram("polygon must be strictly convex "
                                     f"(vertices {a}, {b}, {c} are collinear)")
            g = gcd(ex, ey)
            lines.append((ex, ey, bx * ay - by * ax))
            directions.append((ex // g, ey // g))
            x0, x1 = bx if bx < x0 else x0, bx if bx > x1 else x1
            y0, y1 = by if by < y0 else y0, by if by > y1 else y1
            ax, ay, bx, by, ex, ey = bx, by, cx, cy, fx, fy
        # Every turn is to the left, so the two corners next to edge i lie
        # left of it; the corners still wind more than once unless every
        # other corner does too (only when there are five or more).
        for i, (ex, ey, wedge_a) in enumerate(lines if n > 4 else ()):
            for k in range(i + 3, i + n - 1):
                x, y = corners[k % n]
                if ex * y - ey * x <= wedge_a:
                    raise InvalidDiagram(
                        "polygon must wind once counterclockwise (vertex "
                        f"{vertices[k % n]} is not strictly left of the edge "
                        f"{vertices[i]} to {vertices[(i + 1) % n]})")

        self.polygon_vertices = vertices
        self.homology = homology
        self.name = name
        self.kind = kind
        self.params = MappingProxyType(dict(params)) if params else None
        self._scale, self._corners, self._lines = scale, corners, tuple(lines)
        self._directions, self._on_edges = tuple(directions), _on_edges(n)
        self._box = x0, y0, x1, y1
        self._rays = self._cuts = ()
        if not nodes:
            return
        rays, exits = [], []  # exits: reduced (X, Y, W) on this scale
        for p, u in nodes:
            x, y = p[0] * (scale // p[2]), p[1] * (scale // p[2])
            found = self._exit(x, y, 1, u)
            if found is None:
                raise InvalidDiagram(f"node at {p} is not strictly "
                                     "inside the polygon")
            X, Y, W, location = found
            if location.kind is _ON_CORNER:
                raise InvalidDiagram(
                    f"cut from node at {p} exits through the "
                    f"corner {RatPoint.of(X, Y, W * scale)}")
            rays.append(((x, y), u))
            g = gcd(X, Y, W)
            exits.append((X // g, Y // g, W // g))
        # One scale for the cut exits too: k times every column.
        k = lcm(*[w for _, _, w in exits])
        if k != 1:
            self._scale = scale * k
            self._corners = tuple([(x * k, y * k) for x, y in corners])
            self._lines = tuple([(ex * k, ey * k, w * k * k)
                                 for ex, ey, w in lines])
            rays = [((x * k, y * k), u) for (x, y), u in rays]
            self._box = tuple([v * k for v in self._box])
        self._rays = tuple(rays)
        self._cuts = tuple([(p, (x * (k // w), y * (k // w)))
                            for (p, _), (x, y, w) in zip(rays, exits)])
        if len({p for p, _ in rays}) != len(rays):
            raise InvalidDiagram("nodes must be at distinct positions")
        # A node on another node's cut needs no check of its own: its own
        # cut starts there, so the two cuts meet.  contains relies on it.
        for i, (node, (a, b)) in enumerate(zip(nodes, self._cuts)):
            for other, (c, d) in zip(nodes[i + 1:], self._cuts[i + 1:]):
                if segment_contact(a, b, c, d) is not None:
                    raise InvalidDiagram(f"cuts from nodes at {node.position} "
                                         f"and {other.position} collide")

    # -- records, built on first read ------------------------------------

    @cached_property
    def boundary_edges(self):
        vertices = self.polygon_vertices
        return tuple([BoundaryEdge(a, b, *displacement(a, b)) for a, b in
                      zip(vertices, vertices[1:] + vertices[:1])])

    @cached_property
    def cut_segments(self):
        """One (node position, boundary exit point) pair per node."""
        return tuple([(node.position, RatPoint.of(*end, self._scale))
                      for node, (_, end) in zip(self.nodes, self._cuts)])

    # -- queries -------------------------------------------------------

    def _locate(self, X: int, Y: int, W: int) -> PointLocation:
        """Where (X/W, Y/W) of the plane scaled by S sits in the diagram.
        An inside node is ON_NODE itself, or ON_CUT of an earlier node."""
        on_line = None
        for index, (ex, ey, wedge_a) in enumerate(self._lines):
            side = ex * Y - ey * X - W * wedge_a  # W * (e ^ (P - A))
            if side < 0:
                return OUTSIDE
            if side == 0:
                on_line = index
        if on_line is not None:
            # Strictly convex: the point is on the closed edge on_line, and
            # a corner there is its start or end (corner 0 is on the last
            # edge's line too); off them it is on that edge only.
            for index in (on_line, (on_line + 1) % len(self._corners)):
                cx, cy = self._corners[index]
                if X == W * cx and Y == W * cy:
                    return PointLocation(_ON_CORNER, index)
            return self._on_edges[on_line]
        for index, ((nx, ny), direction) in enumerate(self._rays):
            node = (W * nx, W * ny)  # times W, as (X, Y) is
            if node == (X, Y):
                return PointLocation(_ON_NODE, index)
            # Past the node on its cut's line, and inside: on the open cut.
            if reaches(node, (X, Y), direction):
                return PointLocation(_ON_CUT, index)
        return INTERIOR

    def _inside(self, X: int, Y: int, W: int) -> bool:
        """Whether (X/W, Y/W) of the plane scaled by S is strictly left of
        every edge line: INTERIOR for _locate when there are no nodes."""
        for ex, ey, wedge_a in self._lines:
            if ex * Y - ey * X <= W * wedge_a:
                return False
        return True

    def _exit(self, X: int, Y: int, W: int, direction):
        """exit of (X/W, Y/W) of the plane scaled by S, as (X', Y', W',
        location): the ray leaves through the nearest line of an edge it
        moves outward through.  None if the point is not strictly inside."""
        dx, dy = direction
        best = None  # (W * (e ^ (P - A)), -(e ^ d), index); t is their ratio
        for index, (ex, ey, wedge_a) in enumerate(self._lines):
            side = ex * Y - ey * X - W * wedge_a
            if side <= 0:
                return None
            outward = ey * dx - ex * dy
            if outward > 0 and (best is None
                                or side * best[1] < best[0] * outward):
                best = (side, outward, index)
        if best is None:
            raise DegenerateDirection("a ray needs a nonzero direction")
        side, outward, index = best
        # P + t*d with t = side / (W * outward).
        X, Y, W = X * outward + side * dx, Y * outward + side * dy, W * outward
        for corner in (index, (index + 1) % len(self._corners)):
            cx, cy = self._corners[corner]
            if X == W * cx and Y == W * cy:
                return X, Y, W, PointLocation(_ON_CORNER, corner)
        return X, Y, W, self._on_edges[index]

    def exit(self, origin: RatPoint, direction: IntVec):
        """Where the ray origin + t*direction (t > 0) leaves the polygon.

        Returns (point, location): ON_CORNER(k) if point is polygon vertex
        k, else ON_BOUNDARY_EDGE(i) for the edge i it crosses.  The origin
        must be strictly inside the polygon, or TroplagError names it, and
        the direction nonzero."""
        (X, Y, W), S = origin, self._scale
        found = self._exit(X * S, Y * S, W, direction)
        if found is None:
            raise TroplagError(f"ray origin {point_text(origin)} is not "
                               "strictly inside the polygon")
        X, Y, W, location = found
        return RatPoint.of(X, Y, W * S), location

    def contains(self, p: RatPoint) -> PointLocation:
        """Exact classification of p against polygon, nodes and cuts; p is a
        RatPoint or any (X, Y, W) triple of ints with W > 0."""
        (X, Y, W), S = p, self._scale
        return self._locate(X * S, Y * S, W)

    def bounds(self):
        """(min x, min y, max x, max y) of the corners, as Fractions."""
        return tuple([Fraction(v, self._scale) for v in self._box])

    @property
    def is_rectangle(self) -> bool:
        """A node-free axis-aligned rectangle (the diagrams whose sweeps
        define classes); a rectangle with a node is not one."""
        return not self.nodes and sorted(self._directions) == [
            (-1, 0), (0, -1), (0, 1), (1, 0)]

    def transform(self, m: UnimodularAffineMap) -> "BaseDiagram":
        """The diagram in new integral affine coordinates.

        Orientation-reversing maps reverse the vertex list to keep it
        counterclockwise.  The result is a generic polygon diagram, named
        as one.  Its homology is this one's, except that a map swapping the
        axes swaps the two sweep classes: the sphere over a horizontal
        segment then lies over a vertical one.
        """
        vertices = [m.apply(v) for v in self.polygon_vertices]
        if m.det < 0:
            vertices.reverse()
        nodes = [Node(m.apply(n.position), m.apply(n.cut_direction))
                 for n in self.nodes]
        basis, form, h, v = self.homology
        if m.linear[0][0] == m.linear[1][1] == 0:  # the axes swap
            h, v = v, h
        return BaseDiagram(vertices, nodes, HomologyModel(basis, form, h, v))

    def __eq__(self, other):
        if not isinstance(other, BaseDiagram):
            return NotImplemented
        return (self.polygon_vertices == other.polygon_vertices
                and self.nodes == other.nodes
                and self.homology == other.homology
                and self.name == other.name
                and self.kind == other.kind
                and self.params == other.params)

    def __repr__(self):
        return (f"BaseDiagram({self.name!r}, {len(self.polygon_vertices)} "
                f"vertices, {len(self.nodes)} nodes)")


# The builders' corners and nodes: RatPoints of triples known to be reduced.
_point = partial(tuple.__new__, RatPoint)
_ORIGIN, _UP, _RIGHT = RatPoint(0, 0), IntVec(0, 1), IntVec(1, 0)
RECTANGLE_BASIS = ("sphere_h", "sphere_v")
_RECTANGLE_HOMOLOGY = HomologyModel(
    RECTANGLE_BASIS, ((0, 1), (1, 0)), class_of_horizontal_sweep=(1, 0),
    class_of_vertical_sweep=(0, 1))
_XABC_HOMOLOGY = HomologyModel(("E1", "E2", "E3"),
                               ((-1, 0, 0), (0, -1, 0), (0, 0, -1)))


def rectangle(width, height) -> BaseDiagram:
    """The moment rectangle [0,width] x [0,height] of a product of spheres.

    Homology basis: sphere_h (sphere over a horizontal segment) and sphere_v
    (sphere over a vertical segment), intersection form [[0,1],[1,0]].
    """
    width, height = _as_fraction(width), _as_fraction(height)
    (w, p), (h, q) = width.as_integer_ratio(), height.as_integer_ratio()
    if w <= 0 or h <= 0:
        raise InvalidDiagram("rectangle sides must be positive")
    return BaseDiagram((_ORIGIN, _point((w, 0, p)),
                        RatPoint.of(w * q, h * p, p * q), _point((0, h, q))),
                       (), _RECTANGLE_HOMOLOGY,
                       name=f"rectangle {width}x{height}", kind="rectangle",
                       params={"width": width, "height": height})


def x_abc(a, b, c, s) -> BaseDiagram:
    """The triple blow-up triangle: leg s, toric corner chop c, two nodes.

    The polygon has vertices (0,c), (c,0), (s,0), (0,s).  The chopped edge
    has affine length c (the toric blow-up).  The two non-toric blow-ups of
    sizes a and b are encoded by focus-focus nodes placed so that the cut
    from each node to the slanted edge has affine length equal to the
    blow-up size: node_a = (a, s-2a) with vertical cut (its cut exits at
    (a, s-a), lattice length a) and node_b = (s-2b, b) with horizontal cut.
    Homology basis E1, E2, E3 with intersection form -Identity.
    """
    a, b, c, s = params = tuple(map(_as_fraction, (a, b, c, s)))
    (an, ad), (bn, bd), (cn, cd), (sn, sd) = map(Fraction.as_integer_ratio,
                                                  params)
    if an <= 0 or bn <= 0:
        raise InvalidDiagram("blow-up sizes a and b must be positive")
    if cn <= 0 or cn * sd >= sn * cd:
        raise InvalidDiagram("chop size must satisfy 0 < c < s")
    node_a = tuple.__new__(Node, (RatPoint.of(
        an * sd, sn * ad - 2 * an * sd, ad * sd), _UP))
    node_b = tuple.__new__(Node, (RatPoint.of(
        sn * bd - 2 * bn * sd, bn * sd, bd * sd), _RIGHT))
    try:
        return BaseDiagram((_point((0, cn, cd)), _point((cn, 0, cd)),
                            _point((sn, 0, sd)), _point((0, sn, sd))),
                           (node_a, node_b), _XABC_HOMOLOGY,
                           name=f"xabc a={a} b={b} c={c} s={s}", kind="xabc",
                           params={"a": a, "b": b, "c": c, "s": s})
    except InvalidDiagram as err:
        raise InvalidDiagram(f"x_abc(a={a}, b={b}, c={c}, s={s}): {err}") from None
