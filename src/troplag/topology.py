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
per-vertex multiplicities and per-end cap kinds beside the chi terms;
classify() is that record's surface_class().  build_presentation() +
oracle_classify() re-derive it from pieces, gluings and cell counts, but
from the same cap kinds and double points, so they check only the gluing.
Both read them from tropical.multiplicities and tropical.end_kinds, which
keep them in the curve's memo.  The presentation reads the curve's
columns by index and labels its circles 0, 1, 2, ...; the oracle takes
any hashable labels and finds components by a union-find over the pieces.
"""
from collections.abc import Hashable
from enum import Enum
from typing import NamedTuple

from .errors import TroplagError
from .diagram import BaseDiagram
from .tropical import (_COLLAR, _CROSS_CAP, _DISC_CAP, EndKind,
                       TropicalCurve, _components, end_kinds, multiplicities,
                       vertex_double_points)


class EmptyCurve(TroplagError):
    """The empty curve carries no surface."""


class MalformedPresentation(TroplagError):
    """A surface presentation with inconsistent gluing data."""


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
    """chi terms and inventory of the surface over a validated curve; raises
    if the curve is empty, a vertex is not trivalent, or an end
    has no cap type."""
    if curve.is_empty:
        raise EmptyCurve("the empty curve carries no surface")
    ms = multiplicities(diagram, curve)
    kinds = end_kinds(diagram, curve)
    return ChiBreakdown(
        vertex_term=-len(ms),
        cap_term=kinds.count(_DISC_CAP),
        surgery_term=-2 * sum(map(vertex_double_points, ms)),
        multiplicities=ms,
        end_kinds=kinds)


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
# Presentation oracle
# -----------------------------------------------------------------------

class PieceKind(Enum):
    """A piece, with its boundary circle count and a cell structure
    (V, E, F), each boundary circle cellulated as one vertex and one loop
    edge:
      disc: its circle plus one face                       -> chi = 1
      annulus/collar: two circles, a rung, one face        -> chi = 0
      mobius band: boundary circle, core circle, rung, one face (the face
        runs around the core twice)                        -> chi = 0
      pants: three circles, two rungs, one face            -> chi = -1
    """

    PANTS = "pair-of-pants", 3, (3, 5, 1)
    ANNULUS = "annulus", 2, (2, 3, 1)
    DISC = "disc", 1, (1, 1, 1)
    MOBIUS = "mobius-band", 1, (2, 3, 1)
    COLLAR = "collar-annulus", 2, (2, 3, 1)

    def __new__(cls, value, circles, cells):
        kind = object.__new__(cls)
        kind._value_, kind.circles, kind.cells = value, circles, cells
        return kind


# In order, bound once as tropical binds the cap kinds (tropical._INTERIOR).
_PANTS, _ANNULUS, _DISC, _MOBIUS, _COLLAR_ANNULUS = PieceKind


class _Piece(NamedTuple):
    kind: PieceKind
    labels: tuple[Hashable, ...]


class Piece(_Piece):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks

    def __new__(cls, kind, labels):
        if len(labels) != kind.circles:
            raise MalformedPresentation(
                f"{kind.value} carries {kind.circles} "
                f"boundary circles, got labels {labels}")
        return tuple.__new__(cls, (kind, labels))


class SurfacePresentation(NamedTuple):
    """Pieces with labelled boundary circles, a pairing of labels, and a
    count of surgery handle attachments; a label is any hashable value."""

    pieces: tuple[Piece, ...]
    gluings: tuple[tuple[Hashable, Hashable], ...]
    handles: int


def build_presentation(diagram: BaseDiagram,
                       curve: TropicalCurve) -> SurfacePresentation:
    """The piece decomposition mirroring the curve's incidence structure,
    its circles labelled 0, 1, 2, ... in the order they are made."""
    if curve.is_empty:
        raise EmptyCurve("the empty curve has no presentation")
    # vertex_multiplicity owns trivalence, and Piece each kind's circle count.
    handles = sum(map(vertex_double_points, multiplicities(diagram, curve)))
    pieces = []
    gluings = []
    # A piece per site, a circle per half-edge leaving it: pants over each
    # vertex (the sites start with the vertices), an annulus per anchor.
    slot = [0] * len(curve._half)  # half-edge -> the circle it leaves by
    n = 0  # the next label
    for site, out in enumerate(curve._sites):
        first = n
        for h in out:
            slot[h] = n
            n += 1
        pieces.append(Piece(_PANTS if site < len(curve._ids) else _ANNULUS,
                            tuple(range(first, n))))

    for k in range(len(curve._edge_rows)):  # edge k is half-edges 2k, 2k+1
        pieces.append(Piece(_ANNULUS, (n, n + 1)))
        gluings.append((slot[2 * k], n))
        gluings.append((slot[2 * k + 1], n + 1))
        n += 2

    for h, kind in enumerate(end_kinds(diagram, curve),
                             2 * len(curve._edge_rows)):
        if kind is _DISC_CAP:
            pieces.append(Piece(_DISC, (n,)))
        elif kind is _CROSS_CAP:
            pieces.append(Piece(_MOBIUS, (n,)))
        else:
            pieces.append(Piece(_COLLAR_ANNULUS, (n, n + 1)))
        gluings.append((slot[h], n))
        n += len(pieces[-1].labels)

    return SurfacePresentation(tuple(pieces), tuple(gluings), handles)


def oracle_classify(presentation: SurfacePresentation) -> SurfaceClass:
    """Classify the glued surface from the presentation alone.

    chi comes from cell counts of the glued complex: each piece contributes
    its (V, E, F) from PieceKind, and every circle gluing identifies
    one vertex pair and one edge pair, which cancel in V - E; each surgery
    handle then subtracts 2.
    Orientability is decided by propagating orientations across the gluing
    graph: Mobius pieces admit none, and the remaining pieces glue by the
    orientation-compatible identifications the construction uses.
    """
    pieces = presentation.pieces
    owner = {}
    for index, piece in enumerate(pieces):
        for label in piece.labels:
            if label in owner:
                raise MalformedPresentation(f"label {label!r} appears twice")
            owner[label] = index

    glued = set()
    for a, b in presentation.gluings:
        if a == b:  # first: the pair's second label would be glued twice
            raise MalformedPresentation(f"label {a!r} glued to itself")
        for label in (a, b):
            if label not in owner:
                raise MalformedPresentation(f"gluing names unknown label "
                                            f"{label!r}")
            if label in glued:
                raise MalformedPresentation(f"label {label!r} glued twice")
            glued.add(label)
    if presentation.handles < 0:
        raise MalformedPresentation("negative handle count")

    if not pieces:
        raise MalformedPresentation("presentation has no pieces")
    if _components(len(pieces), [
            (owner[a], owner[b]) for a, b in presentation.gluings]) != 1:
        raise MalformedPresentation("presentation is disconnected")

    # Cells summed per kind, one kinds.count each (an Enum hashes in Python).
    kinds = [p.kind for p in pieces]
    cells_v, cells_e, cells_f = map(sum, zip(*(
        [n * c for c in kind.cells]
        for kind in PieceKind for n in (kinds.count(kind),))))
    chi = cells_v - cells_e + cells_f - 2 * presentation.handles

    # Orientation propagation: each gluing joins two distinct boundary
    # circles, so orientations chosen piece by piece can always be made
    # compatible across every gluing; the propagation fails exactly when a
    # piece admits no orientation at all, i.e. on a Mobius band.  Each
    # label left unglued is one boundary circle.
    return SurfaceClass(orientable=_MOBIUS not in kinds,
                        euler_char=chi,
                        boundary_circles=len(owner) - len(glued),
                        double_points_surgered=presentation.handles)
