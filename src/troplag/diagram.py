"""Almost toric base diagrams.

A base diagram is a strictly convex polygon together with interior
focus-focus nodes, each carrying a straight cut running from the node to the
boundary, plus a description of the mod-2 homology of the ambient
4-manifold (basis labels and intersection form).  Two constructors cover
the spaces used throughout the package: rectangle, the toric rectangle (a
product of two spheres), and nodes.x_abc, the triple blow-up triangle with
one toric corner chop and two non-toric nodes.  nodes.ray_exit finds where
a ray from an interior point leaves the polygon: each cut ends at its
node's exit, and nodes.exit_point (where the constructions land their
ends) reads it; a diagram without nodes loads nodes only for exit_point.
A diagram is a lattice polygon held as int columns on one scale S, the
least that clears every corner, node and cut exit: corners, each edge's
line (e.x, e.y, e ^ A) and primitive direction, bounds, and each node's
position and cut exit.  contains (of (X, Y, W) as (S*X, S*Y, W)) and
nodes.exit_point read only these and the nodes' cut directions, and
bounds() makes its Fractions from the ints.
A corner is a RatPoint or a reduced (X, Y, W) of ints with W > 0, held
as a RatPoint.  One pass over the edges clears the corners, checks each
turn and emits the lines, directions and bounds into tuples.  rectangle
and x_abc check their signs on the ints of their parameters and pass
their corners and nodes as reduced triples: they make no Fraction but
their params.
"""
from enum import Enum
from fractions import Fraction
from functools import cache, partial
from math import gcd, lcm
from types import MappingProxyType
from typing import NamedTuple

from . import _submodule
from .errors import TroplagError
from .lattice import IntVec, RatPoint, _as_fraction, reaches, segment_contact


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
        self._cuts = ()
        if not nodes:
            return
        ray_exit = _submodule("nodes").ray_exit
        starts, exits = [], []  # exits: reduced (X, Y, W) on this scale
        for p, u in nodes:
            x, y = p[0] * (scale // p[2]), p[1] * (scale // p[2])
            found = ray_exit(self, x, y, 1, u)
            if found is None:
                raise InvalidDiagram(f"node at {p} is not strictly "
                                     "inside the polygon")
            X, Y, W, location = found
            if location.kind is _ON_CORNER:
                raise InvalidDiagram(
                    f"cut from node at {p} exits through the "
                    f"corner {RatPoint.of(X, Y, W * scale)}")
            starts.append((x, y))
            g = gcd(X, Y, W)
            exits.append((X // g, Y // g, W // g))
        # One scale for the cut exits too: k times every column.
        k = lcm(*[w for _, _, w in exits])
        if k != 1:
            self._scale = scale * k
            self._corners = tuple([(x * k, y * k) for x, y in corners])
            self._lines = tuple([(ex * k, ey * k, w * k * k)
                                 for ex, ey, w in lines])
            starts = [(x * k, y * k) for x, y in starts]
            self._box = tuple([v * k for v in self._box])
        self._cuts = tuple([(p, (x * (k // w), y * (k // w)))
                            for p, (x, y, w) in zip(starts, exits)])
        if len(set(starts)) != len(starts):
            raise InvalidDiagram("nodes must be at distinct positions")
        # A node on another node's cut needs no check of its own: its own
        # cut starts there, so the two cuts meet.  contains relies on it.
        for i, (node, (a, b)) in enumerate(zip(nodes, self._cuts)):
            for other, (c, d) in zip(nodes[i + 1:], self._cuts[i + 1:]):
                if segment_contact(a, b, c, d) is not None:
                    raise InvalidDiagram(f"cuts from nodes at {node.position} "
                                         f"and {other.position} collide")

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
        for index, ((nx, ny), _) in enumerate(self._cuts):
            node = (W * nx, W * ny)  # times W, as (X, Y) is
            if node == (X, Y):
                return PointLocation(_ON_NODE, index)
            # Past the node on its cut's line, and inside: on the open cut.
            if reaches(node, (X, Y), self.nodes[index].cut_direction):
                return PointLocation(_ON_CUT, index)
        return INTERIOR

    def _inside(self, X: int, Y: int, W: int) -> bool:
        """Whether (X/W, Y/W) of the plane scaled by S is strictly left of
        every edge line: INTERIOR for _locate when there are no nodes."""
        for ex, ey, wedge_a in self._lines:
            if ex * Y - ey * X <= W * wedge_a:
                return False
        return True

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
_ORIGIN = RatPoint(0, 0)
RECTANGLE_BASIS = ("sphere_h", "sphere_v")
_RECTANGLE_HOMOLOGY = HomologyModel(
    RECTANGLE_BASIS, ((0, 1), (1, 0)), class_of_horizontal_sweep=(1, 0),
    class_of_vertical_sweep=(0, 1))


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
