"""Surface topology of the Lagrangian over a tropical curve.

The Lagrangian lift assembles from standard pieces: a pair of pants over
each trivalent vertex, an annulus over each internal edge (and over each
standalone anchor), and a cap over each end, of the kind that
tropical.classify_end gives it:

  * disc cap   (node terminal)  -> chi +1
  * cross-cap  (mu = 2)         -> chi 0, kills orientability
  * collar     (mu = 1)         -> chi 0, one boundary circle

A vertex of multiplicity m carries (m-1)/2 transverse double points; the
surgery replacing each one by an embedded handle drops chi by 2.  So

    chi = -#vertices + #disc caps - 2 * sum (m-1)/2.

euler_breakdown() counts this into a ChiBreakdown, which keeps the
per-vertex multiplicities and per-end cap kinds beside the chi terms; it
reads them from tropical.multiplicities and tropical.end_kinds, and is
itself a fact the curve's memo keeps (tropical._remember), so classify(),
that record's surface_class(), builds no second one.  The surgery handle
count, the sum of (m-1)/2, is one more such fact, which the breakdown and
build_presentation read.

build_presentation() + oracle_classify() re-derive chi and orientability
without the cap kinds, from a cell complex held as int columns
(CellComplex).  Over a site of valence d lie d circles (a vertex and a
loop each), d - 1 rungs joining them and one face; over an internal edge
a rung and a face joining the circles of its two half-edges, glued with a
sign read from fibre classes (the circle over a half-edge of direction u
is rot90(u); the sign is 1 when the edge's two circles are opposite
classes, as an annulus's boundary circles are); over an end at a node a
face on its circle; over an end landing with degree mu = |det(u, e)| on an
edge of direction e a core circle, a rung and a face that runs mu times
around the core.  chi is the cell count V - E + F, less 2 per surgery
handle; a core of degree 1 lies on one face, a boundary circle.
Orientability is one depth-first walk over the sites, giving each a side
+-1: an edge whose sign disagrees with its sites' sides, or a core of
even degree (a Mobius band's), is an odd loop.  A degree >= 3 is refused.
"""
from typing import NamedTuple

from .errors import TroplagError
from .diagram import BaseDiagram
from .tropical import (_COLLAR, _CROSS_CAP, _DISC_CAP, _ON_EDGE, EndKind,
                       TropicalCurve, UnsupportedEndMultiplicity, _remember,
                       end_kinds, end_multiplicity, landing_locations,
                       multiplicities, vertex_double_points)


class EmptyCurve(TroplagError):
    """The empty curve carries no surface."""


class MalformedPresentation(TroplagError):
    """A cell complex, or surface data, that no connected surface has."""


class ChiBreakdown(NamedTuple):
    """Euler characteristic with its provenance terms, and the inventory
    they are counted from."""

    vertex_term: int     # -1 per vertex
    cap_term: int        # +1 per disc cap
    surgery_term: int    # -2 per surgered double point
    multiplicities: tuple[int, ...]  # m per vertex, in curve order
    end_kinds: tuple[EndKind, ...]   # cap kind per end, in curve order

    @property
    def chi(self) -> int:
        return self.vertex_term + self.cap_term + self.surgery_term

    def surface_class(self) -> "SurfaceClass":
        """closed iff there are no collar ends; orientable iff there are no
        cross-caps (surgery handles attach orientably; the curve avoids
        cuts, so transporting fiber orientations around cycles is
        monodromy-free)."""
        return SurfaceClass(
            orientable=_CROSS_CAP not in self.end_kinds,
            euler_char=self.chi,
            boundary_circles=self.end_kinds.count(_COLLAR),
            double_points_surgered=-self.surgery_term // 2)


def euler_breakdown(diagram: BaseDiagram, curve: TropicalCurve) -> ChiBreakdown:
    """chi terms and inventory of the surface over a validated curve, once
    per curve and diagram (_remember); raises if the curve is empty, a
    vertex is not trivalent, or an end has no cap type."""
    def build():
        if curve.is_empty:
            raise EmptyCurve("the empty curve carries no surface")
        ms = multiplicities(diagram, curve)
        kinds = end_kinds(diagram, curve)
        return ChiBreakdown(
            vertex_term=-len(ms),
            cap_term=kinds.count(_DISC_CAP),
            surgery_term=-2 * _handles(diagram, curve),
            multiplicities=ms,
            end_kinds=kinds)
    return _remember(diagram, curve, euler_breakdown, build)


def _handles(diagram: BaseDiagram, curve: TropicalCurve) -> int:
    """The surgery handles, one per double point: the sum of
    vertex_double_points over the multiplicities, once per curve and
    diagram (_remember), for the breakdown and the cell complex."""
    return _remember(diagram, curve, _handles, lambda: sum(
        map(vertex_double_points, multiplicities(diagram, curve))))


class _SurfaceClass(NamedTuple):
    orientable: bool
    euler_char: int
    boundary_circles: int
    double_points_surgered: int


class SurfaceClass(_SurfaceClass):
    """The topological type of the surface.

    Four fields are stored: orientable, euler_char, boundary_circles and
    double_points_surgered.  The rest is derived: closed means no boundary
    circles; a closed nonorientable surface has nonorientable_genus k with
    chi = 2 - k, a closed orientable one orientable_genus g with
    chi = 2 - 2g, and every other genus is None.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.closed:
            return self
        if self.orientable and self.euler_char % 2 != 0:
            raise MalformedPresentation(
                f"closed orientable surface with odd chi = {self.euler_char}")
        if self.orientable and self.orientable_genus < 0:
            raise ValueError("orientable genus must be nonnegative")
        if not self.orientable and self.nonorientable_genus < 1:
            raise ValueError("nonorientable genus must be positive")
        return self

    @property
    def closed(self) -> bool:
        return self.boundary_circles == 0

    @property
    def nonorientable_genus(self) -> int | None:
        return 2 - self.euler_char if self.closed and not self.orientable else None

    @property
    def orientable_genus(self) -> int | None:
        return (2 - self.euler_char) // 2 if self.closed and self.orientable else None


def classify(diagram: BaseDiagram, curve: TropicalCurve) -> SurfaceClass:
    """SurfaceClass of the Lagrangian over a validated curve (see
    ChiBreakdown.surface_class)."""
    return euler_breakdown(diagram, curve).surface_class()


def surface_name(sc: SurfaceClass) -> str | None:
    """A common name for the surface, when it has one."""
    if sc.closed and sc.orientable:
        return {0: "sphere", 1: "torus"}.get(sc.orientable_genus)
    if sc.closed:
        return {1: "projective plane", 2: "Klein bottle"}.get(
            sc.nonorientable_genus)
    if sc.orientable and sc.boundary_circles == 1 and sc.euler_char == 1:
        return "disc"
    if sc.orientable and sc.boundary_circles == 2 and sc.euler_char == 0:
        return "annulus"
    return None


# -----------------------------------------------------------------------
# Cell-complex oracle
# -----------------------------------------------------------------------

class CellComplex(NamedTuple):
    """The lift as int columns (see the module docstring): the surgery
    handle count; per site its valence; per internal edge its two sites
    and gluing sign; per end its site, attaching degree and id."""

    handles: int
    valence: tuple[int, ...]
    edge_src: tuple[int, ...]
    edge_dst: tuple[int, ...]
    edge_sign: tuple[int, ...]
    end_site: tuple[int, ...]
    end_degree: tuple[int, ...]
    end_ids: tuple[str, ...]


def build_presentation(diagram: BaseDiagram,
                       curve: TropicalCurve) -> CellComplex:
    """The cell complex over a validated curve, read from its columns."""
    if curve.is_empty:
        raise EmptyCurve("the empty curve has no presentation")
    # First, so that vertex_multiplicity refuses a vertex not trivalent.
    handles = _handles(diagram, curve)
    # Edge k's circles are rot90 of the directions of half-edges 2k and
    # 2k + 1: opposite classes, as an annulus's two boundary circles are,
    # glue with sign 1.
    half, n = curve._half, 2 * len(curve._edge_rows)
    signs = [1 if x * v + y * w < 0 else -1
             for (x, y), (v, w) in zip(half[0:n:2], half[1:n:2])]
    directions, ends = diagram._directions, curve._end_rows
    degrees = []
    for row, loc in zip(ends, landing_locations(diagram, curve)):
        degree = 0
        if loc is not None:
            (x, y), on_edge = row[2], loc.kind is _ON_EDGE
            ex, ey = directions[loc.index] if on_edge else (x, y)
            # 0 only off an edge's interior or parallel to the edge, which
            # end_multiplicity refuses.
            degree = abs(x * ey - y * ex) or end_multiplicity(diagram, row,
                                                              loc)
        degrees.append(degree)
    rows = curve._edge_rows
    return CellComplex(
        handles, tuple(map(len, curve._sites)),
        tuple([s for _, s, _, _ in rows]), tuple([d for _, _, d, _ in rows]),
        tuple(signs), tuple([site for _, site, _, _ in ends]),
        tuple(degrees), tuple([eid for eid, _, _, _ in ends]))


def oracle_classify(cx: CellComplex) -> SurfaceClass:
    """Classify the surface from its cell complex alone: chi from the cell
    counts, orientability from one parity walk over the sites (see the
    module docstring); refuses a complex that is not a connected surface."""
    handles, valence, src, dst, signs, end_site, degrees, end_ids = cx
    n = len(valence)
    if handles < 0:
        raise MalformedPresentation("negative handle count")
    if not n:
        raise MalformedPresentation("complex has no sites")
    if min(valence) < 1:
        raise MalformedPresentation(f"site {valence.index(min(valence))} "
                                    "has no circles")
    named = src + dst + end_site
    if named and (min(named) < 0 or max(named) >= n):
        site = next(s for s in named if not 0 <= s < n)
        raise MalformedPresentation(f"site {site} is not in range({n})")
    if not {*signs} <= {1, -1}:
        k = next(k for k, sign in enumerate(signs) if sign not in (1, -1))
        raise MalformedPresentation(f"edge {k} has gluing sign "
                                    f"{signs[k]!r}, not 1 or -1")
    if degrees and not 0 <= min(degrees) <= max(degrees) <= 2:
        j = next(j for j, mu in enumerate(degrees) if not 0 <= mu <= 2)
        if degrees[j] < 0:
            raise MalformedPresentation(f"end {end_ids[j]!r} has negative "
                                        "degree")
        raise UnsupportedEndMultiplicity(
            f"end {end_ids[j]!r} has mu = {degrees[j]}; only mu = 1 "
            "(collar) and mu = 2 (cross-cap) carry a surface meaning")

    # Per site, each edge's other site, as ~site when its sign is -1.
    links = [[] for _ in valence]
    for s, d, sign in zip(src, dst, signs):
        links[s].append(d if sign > 0 else ~d)
        links[d].append(s if sign > 0 else ~s)
    attached = [*map(len, links)]
    for s in end_site:
        attached[s] += 1
    if attached != [*valence]:
        s = next(s for s, k in enumerate(attached) if k != valence[s])
        raise MalformedPresentation(f"site {s} has valence {valence[s]}, "
                                    f"but {attached[s]} circles attach")

    # Depth first from site 0, giving each site a side; an edge whose sign
    # disagrees with its sites' sides closes an odd loop.
    side = [0] * n
    side[0] = 1
    stack = [0]
    odd = False
    while stack:
        s = stack.pop()
        here = side[s]
        for t in links[s]:
            e = here
            if t < 0:
                t, e = ~t, -e
            if not side[t]:
                side[t] = e
                stack.append(t)
            elif side[t] != e:
                odd = True
    if 0 in side:
        raise MalformedPresentation("complex is disconnected")

    # Vertices: one per circle, site or core.  Edges: a loop per circle and
    # a rung per site circle but its first, per edge and per core.  Faces:
    # one per site, edge and end.
    total, landings = sum(valence), len(degrees) - degrees.count(0)
    cells_v = total + landings
    cells_e = 2 * total - n + len(src) + 2 * landings
    cells_f = n + len(src) + len(degrees)
    # A core of degree 2 is a Mobius band's, an odd loop; a core of degree
    # 1 lies on one face, a boundary circle.
    return SurfaceClass(orientable=not odd and 2 not in degrees,
                        euler_char=cells_v - cells_e + cells_f - 2 * handles,
                        boundary_circles=degrees.count(1),
                        double_points_surgered=handles)
