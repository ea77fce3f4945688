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
BaseDiagram reads every point as its triple (X, Y, W): corners and nodes
are cleared by one scale S when a diagram is built, contains locates the
point (S*X, S*Y, W) of the scaled plane on ints, with no memo and no
RatPoint needed, and exit finds its parameter and its exit point on ints.
"""
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .errors import TroplagError
from .lattice import (
    DegenerateDirection,
    IntVec,
    RatPoint,
    UnimodularAffineMap,
    _as_fraction,
    cleared,
    common_scale,
    displacement,
    reaches,
    segment_contact,
    turn,
)


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
        vertices = tuple(polygon_vertices)
        if len(vertices) < 3:
            raise InvalidDiagram("a polygon needs at least three vertices")
        if len(set(vertices)) != len(vertices):
            raise InvalidDiagram("polygon vertices must be distinct")
        self.nodes = nodes = tuple(nodes)
        scale = common_scale(vertices + tuple(n.position for n in nodes))
        self._corners = corners = [cleared(v, scale) for v in vertices]
        n = len(vertices)
        for i in range(n):
            side = turn(corners[i], corners[(i + 1) % n], corners[(i + 2) % n])
            if side < 0:
                raise InvalidDiagram("polygon vertices must be listed "
                                     "counterclockwise")
            if side == 0:
                a, b, c = (vertices[(i + k) % n] for k in range(3))
                raise InvalidDiagram("polygon must be strictly convex "
                                     f"(vertices {a}, {b}, {c} are collinear)")
        edges, lines = [], []  # lines: (e.x, e.y, e ^ A) for A -> B, e = B - A
        for i in range(n):
            a, b = vertices[i], vertices[(i + 1) % n]
            (ax, ay), (bx, by) = corners[i], corners[(i + 1) % n]
            # Every turn is to the left, so the two corners next to edge i
            # lie left of it; the corners still wind more than once unless
            # every other corner does too.
            for k in range(i + 3, i + n - 1):
                if turn(corners[i], corners[(i + 1) % n], corners[k % n]) <= 0:
                    raise InvalidDiagram(
                        "polygon must wind once counterclockwise (vertex "
                        f"{vertices[k % n]} is not strictly left of the edge "
                        f"{a} to {b})")
            edges.append(BoundaryEdge(a, b, *displacement(a, b)))
            lines.append((bx - ax, by - ay, bx * ay - by * ax))

        self.polygon_vertices = vertices
        self.boundary_edges = tuple(edges)
        self.homology = homology
        self.name = name
        self.kind = kind
        self.params = dict(params) if params else None
        self._scale = scale
        self._lines = tuple(lines)
        self._on_edges = tuple(PointLocation(LocationKind.ON_BOUNDARY_EDGE, i)
                               for i in range(n))
        self._rays = [(cleared(node.position, scale), node.cut_direction)
                      for node in nodes]
        self._cut_segments = tuple(self._trace_cut(node) for node in nodes)
        self._check_nodes()

    # -- construction-time validation ---------------------------------

    def _trace_cut(self, node: Node):
        location = self.contains(node.position)
        if location.kind not in (LocationKind.ON_NODE, LocationKind.ON_CUT):
            raise InvalidDiagram(
                f"node at {node.position} is not strictly inside the polygon")
        point, location = self.exit(node.position, node.cut_direction)
        if location.kind is LocationKind.ON_CORNER:
            raise InvalidDiagram(f"cut from node at {node.position} exits "
                                 f"through the corner {point}")
        return node.position, point

    def _check_nodes(self):
        if len({node for node, _ in self._rays}) != len(self._rays):
            raise InvalidDiagram("nodes must be at distinct positions")
        # A node on another node's cut needs no check of its own: its own
        # cut starts there, so the two cuts meet.  contains relies on it.
        scale = common_scale(p for cut in self._cut_segments for p in cut)
        cuts = [[cleared(p, scale) for p in cut] for cut in self._cut_segments]
        pairs = combinations(zip(self.nodes, cuts), 2)
        for (node, cut), (other, other_cut) in pairs:
            if segment_contact(*cut, *other_cut) is not None:
                raise InvalidDiagram(f"cuts from nodes at {node.position} and "
                                     f"{other.position} collide")

    # -- queries -------------------------------------------------------

    @property
    def cut_segments(self):
        """One (node position, boundary exit point) pair per node."""
        return self._cut_segments

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
                    return PointLocation(LocationKind.ON_CORNER, index)
            return self._on_edges[on_line]
        for index, ((nx, ny), direction) in enumerate(self._rays):
            node = (W * nx, W * ny)  # times W, as (X, Y) is
            if node == (X, Y):
                return PointLocation(LocationKind.ON_NODE, index)
            # Past the node on its cut's line, and inside: on the open cut.
            if reaches(node, (X, Y), direction):
                return PointLocation(LocationKind.ON_CUT, index)
        return INTERIOR

    def exit(self, origin: RatPoint, direction: IntVec):
        """Where the ray origin + t*direction (t > 0) leaves the polygon.

        Returns (point, location): ON_CORNER(k) if point is polygon vertex
        k, else ON_BOUNDARY_EDGE(i) for the edge i it crosses.  The ray
        leaves through the nearest line of an edge it moves outward
        through.  The origin must be strictly inside the polygon and the
        direction nonzero."""
        S, (dx, dy) = self._scale, (direction.x, direction.y)
        X, Y, W = origin.X * S, origin.Y * S, origin.W  # the scaled origin P
        best = None  # (W * (e ^ (P - A)), -(e ^ d), index); t is their ratio
        for index, (ex, ey, wedge_a) in enumerate(self._lines):
            outward = ey * dx - ex * dy
            if outward > 0:
                side = ex * Y - ey * X - W * wedge_a
                if best is None or side * best[1] < best[0] * outward:
                    best = (side, outward, index)
        if best is None:
            raise DegenerateDirection("a ray needs a nonzero direction")
        side, outward, index = best
        # P + t*d with t = side / (W * outward), back in unscaled coordinates.
        point = RatPoint.of(X * outward + side * dx, Y * outward + side * dy,
                            W * outward * S)
        for corner in (index, (index + 1) % len(self.polygon_vertices)):
            if point == self.polygon_vertices[corner]:
                return point, PointLocation(LocationKind.ON_CORNER, corner)
        return point, PointLocation(LocationKind.ON_BOUNDARY_EDGE, index)

    def contains(self, p: RatPoint) -> PointLocation:
        """Exact classification of p against polygon, nodes and cuts; p is a
        RatPoint or any (X, Y, W) triple of ints with W > 0."""
        (X, Y, W), S = p, self._scale
        return self._locate(X * S, Y * S, W)

    def bounds(self):
        xs = [v.x for v in self.polygon_vertices]
        ys = [v.y for v in self.polygon_vertices]
        return min(xs), min(ys), max(xs), max(ys)

    @property
    def is_rectangle(self) -> bool:
        """A node-free axis-aligned rectangle (the diagrams whose sweeps
        define classes); a rectangle with a node is not one."""
        if self.nodes or len(self.boundary_edges) != 4:
            return False
        dirs = [(e.direction.x, e.direction.y) for e in self.boundary_edges]
        return sorted(dirs) == [(-1, 0), (0, -1), (0, 1), (1, 0)]

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


RECTANGLE_BASIS = ("sphere_h", "sphere_v")


def rectangle(width, height) -> BaseDiagram:
    """The moment rectangle [0,width] x [0,height] of a product of spheres.

    Homology basis: sphere_h (sphere over a horizontal segment) and sphere_v
    (sphere over a vertical segment), intersection form [[0,1],[1,0]].
    """
    width, height = _as_fraction(width), _as_fraction(height)
    if width <= 0 or height <= 0:
        raise InvalidDiagram("rectangle sides must be positive")
    vertices = [RatPoint(0, 0), RatPoint(width, 0),
                RatPoint(width, height), RatPoint(0, height)]
    homology = HomologyModel(
        RECTANGLE_BASIS, ((0, 1), (1, 0)),
        class_of_horizontal_sweep=(1, 0),
        class_of_vertical_sweep=(0, 1))
    return BaseDiagram(vertices, (), homology,
                       name=f"rectangle {width}x{height}",
                       kind="rectangle",
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
    a, b, c, s = map(_as_fraction, (a, b, c, s))
    if a <= 0 or b <= 0:
        raise InvalidDiagram("blow-up sizes a and b must be positive")
    if not 0 < c < s:
        raise InvalidDiagram("chop size must satisfy 0 < c < s")
    vertices = [RatPoint(0, c), RatPoint(c, 0), RatPoint(s, 0), RatPoint(0, s)]
    node_a = Node(RatPoint(a, s - 2 * a), IntVec(0, 1))
    node_b = Node(RatPoint(s - 2 * b, b), IntVec(1, 0))
    homology = HomologyModel(("E1", "E2", "E3"),
                             ((-1, 0, 0), (0, -1, 0), (0, 0, -1)))
    try:
        return BaseDiagram(vertices, (node_a, node_b), homology,
                           name=f"xabc a={a} b={b} c={c} s={s}",
                           kind="xabc",
                           params={"a": a, "b": b, "c": c, "s": s})
    except InvalidDiagram as err:
        raise InvalidDiagram(f"x_abc(a={a}, b={b}, c={c}, s={s}): {err}") from None
