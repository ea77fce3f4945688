"""Generators for the bundled Lagrangian constructions and the existence
thresholds that govern them.

* visible_segment: the straight-segment (vertexless) curves; a slope-1/2
  segment spanning a rectangle between its vertical edges gives a Klein
  bottle (both ends have mu = 2).
* rp2_curve: the one-vertex curve in the triple blow-up triangle whose
  surface is a projective plane exactly when the strict triangle
  inequalities a < b+c, b < c+a, c < a+b hold.
* trop_family: the repeating pattern of multiplicity-5 vertices whose
  surgered Lagrangian has nonorientable genus 20*ell + 2 in the rectangle
  [0, 10*ell+2] x [0, 3].
* genus_bound / klein_threshold / squeeze_check: the width thresholds for
  the constructions above, all strict.
"""
from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import TroplagError
from .lattice import IntVec, RatPoint, _as_fraction

if TYPE_CHECKING:  # for annotations; each function imports what it runs
    from .diagram import BaseDiagram
    from .topology import SurfaceClass
    from .tropical import TropicalCurve


class DoesNotFit(TroplagError):
    """The requested segment does not fit in the diagram."""


class DegenerateConstruction(TroplagError):
    """The construction hits a corner or boundary exactly; no surface is
    assigned."""


class InvalidInput(TroplagError):
    """Parameters outside the stated preconditions."""


def visible_segment(diagram: BaseDiagram, direction: IntVec,
                    anchor: RatPoint) -> TropicalCurve:
    """The vertexless curve over the full line through anchor.

    The line must cross the rectangle from its left to its right edge,
    meeting both in their interiors; it exits corner-free.  The result is a
    Klein bottle exactly when both ends have mu = 2.
    """
    from .diagram import LocationKind, UnsupportedDiagram
    from .tropical import TropicalCurve

    if not diagram.is_rectangle:
        raise UnsupportedDiagram(
            "visible segments are constructed in node-free rectangles")
    if direction.is_zero:
        raise InvalidInput("direction must be nonzero")
    u = direction.primitive()
    if u.x < 0:
        u = -u
    if diagram.contains(anchor).kind is not LocationKind.INTERIOR:
        raise DoesNotFit(f"anchor {anchor} is not strictly inside")
    ends = []
    for end_id, way in (("minus", -u), ("plus", u)):  # left exit first
        landing, location = diagram.exit(anchor, way)
        if location.kind is LocationKind.ON_CORNER:
            raise DoesNotFit("the line exits through a corner")
        if diagram._directions[location.index][1] == 0:
            raise DoesNotFit("the line exits through a horizontal edge")
        ends.insert(0, (end_id, tuple(anchor), tuple(way), tuple(landing)))
    return TropicalCurve.of_rows("visible", (), (), (), ends)


def klein_threshold(width, height) -> bool:
    """Whether a slope-1/2 segment spanning the width fits with both ends
    in the interiors of the vertical edges: strictly, height > width/2."""
    width, height = _as_fraction(width), _as_fraction(height)
    if width <= 0 or height <= 0:
        raise InvalidInput("rectangle sides must be positive")
    return height > width / 2


class TriangleResult(NamedTuple):
    """Each strict inequality as (label, left side, right side, whether it
    holds), in the order a < b+c, b < c+a, c < a+b."""

    comparisons: tuple[tuple[str, Fraction, Fraction, bool], ...]

    @property
    def violated(self) -> tuple[str, ...]:
        return tuple(label for label, _, _, holds in self.comparisons
                     if not holds)

    @property
    def satisfied(self) -> bool:
        return not self.violated


def triangle_check(a, b, c) -> TriangleResult:
    """The strict triangle inequalities on the three blow-up sizes;
    equality counts as a violation."""
    a, b, c = map(_as_fraction, (a, b, c))
    if a <= 0 or b <= 0 or c <= 0:
        raise InvalidInput("blow-up sizes must be positive")
    return TriangleResult(tuple(
        (label, lhs, rhs, lhs < rhs)
        for label, lhs, rhs in (("a < b+c", a, b + c), ("b < c+a", b, c + a),
                                ("c < a+b", c, a + b))))


def rp2_curve(a, b, c, s):
    """The one-vertex curve in x_abc(a, b, c, s): vertex at (a, b), one end
    up to node_a, one end right to node_b, and a third end in direction
    (-1,-1) continued to its first boundary hit.

    Returns (diagram, curve).  Raises DegenerateConstruction if the third
    end hits a corner or the vertex degenerates onto the boundary, and
    InvalidCurve if the configuration fails validation (e.g. the vertex
    falls outside the polygon).  When the triangle inequalities hold
    strictly the third end lands on the chopped-corner edge with mu = 2 and
    the surface is a projective plane; when one is strictly violated it
    lands on a leg with mu = 1 and the surface is a disc.
    """
    from .diagram import LocationKind, x_abc
    from .tropical import InvalidCurve, TropicalCurve, validate

    diagram = x_abc(a, b, c, s)
    a, b = _as_fraction(a), _as_fraction(b)
    vertex_pos = RatPoint(a, b)
    location = diagram.contains(vertex_pos)
    if location.kind in (LocationKind.ON_BOUNDARY_EDGE, LocationKind.ON_CORNER):
        raise DegenerateConstruction(
            f"vertex {vertex_pos} lies on the boundary (c = a + b)")

    down = (-1, -1)
    if location.kind is LocationKind.INTERIOR:
        landing, where = diagram.exit(vertex_pos, down)
        if where.kind is LocationKind.ON_CORNER:
            raise DegenerateConstruction(
                f"the (-1,-1) end hits the corner {landing} exactly "
                "(|a - b| = c)")
    else:
        # Vertex outside: let validation report it on a nominal landing.
        landing = RatPoint(0, b - a)

    curve = TropicalCurve.of_rows(
        "rp2", ("v",), (tuple(vertex_pos),), (),
        (("cap_a", "v", (0, 1), 0), ("cap_b", "v", (1, 0), 1),
         ("xcap", "v", down, tuple(landing))))
    report = validate(diagram, curve)
    if not report.passed:
        raise InvalidCurve(f"rp2 construction is invalid: {report}")
    return diagram, curve


def _family_sides(ell: int) -> tuple[int, int]:
    """Width and height of the family's rectangle [0, 10*ell+2] x [0, 3]."""
    return 10 * ell + 2, 3


class FamilyInstance(NamedTuple):
    ell: int
    diagram: BaseDiagram
    curve: TropicalCurve

    @property
    def expected(self) -> SurfaceClass:
        """The surface the family is built to have; loads topology."""
        from .topology import SurfaceClass

        return SurfaceClass(orientable=False, euler_char=-20 * self.ell,
                            boundary_circles=0,
                            double_points_surgered=8 * self.ell)


def trop_family(ell: int) -> FamilyInstance:
    """The genus 20*ell + 2 family in the rectangle [0, 10*ell+2] x [0, 3].

    Block j (j = 0..ell-1) has vertices at (10j+2, 1), (10j+5, 2),
    (10j+7, 1), (10j+10, 2), chained by edges of directions (3,1) and
    (2,-1); consecutive blocks are chained by a (2,-1) edge.  Every vertex
    has multiplicity 5 (two double points).  The 4*ell + 2 ends land where
    their rays exit, all with mu = 2: one (-2,1) end on the left edge at
    height 2, one (2,-1) end on the right edge at height 1, and (-1,-2) /
    (1,2) ends to the bottom and top.  The down-end from (10j+7, 1) lands
    at x = 10j + 13/2, as balancing forces.
    """
    from .diagram import rectangle
    from .tropical import TropicalCurve

    if not isinstance(ell, int) or ell < 1:
        raise InvalidInput(f"ell must be a positive integer, got {ell!r}")
    diagram = rectangle(*_family_sides(ell))
    positions = {}  # vertex id -> (X, Y, 1)
    edges = []
    rays = []  # (end id, vertex id, direction)
    down, up = (-1, -2), (1, 2)
    for j in range(ell):
        base = 10 * j
        positions.update({f"a{j}": (base + 2, 1, 1),
                          f"b{j}": (base + 5, 2, 1),
                          f"c{j}": (base + 7, 1, 1),
                          f"d{j}": (base + 10, 2, 1)})
        edges += [(f"ab{j}", f"a{j}", f"b{j}"),
                  (f"bc{j}", f"b{j}", f"c{j}"),
                  (f"cd{j}", f"c{j}", f"d{j}")]
        if j + 1 < ell:
            edges.append((f"da{j}", f"d{j}", f"a{j + 1}"))
        rays += [(f"down_a{j}", f"a{j}", down), (f"up_b{j}", f"b{j}", up),
                 (f"down_c{j}", f"c{j}", down), (f"up_d{j}", f"d{j}", up)]
    rays += [("left", "a0", (-2, 1)), ("right", f"d{ell - 1}", (2, -1))]
    ends = [(end_id, vid, direction,
             tuple(diagram.exit(positions[vid], direction)[0]))
            for end_id, vid, direction in rays]
    curve = TropicalCurve.of_rows(f"family_ell{ell}", list(positions),
                                  list(positions.values()), edges, ends)
    return FamilyInstance(ell, diagram, curve)


class GenusBound(NamedTuple):
    """An upper bound k for the nonorientable genus, with its witness."""

    k: int
    witness_kind: str          # "klein-bottle" or "family"
    ell: int | None = None


def genus_bound(lam, threshold: str = "statement") -> GenusBound:
    """Genus bound at width parameter lambda, all thresholds strict.

    lambda < 2 admits the visible Klein bottle (k = 2); otherwise the
    smallest family index ell with lambda below the width threshold gives
    k = 20*ell + 2.  Two threshold conventions are in circulation and both
    are exposed: "statement" admits lambda < 10*ell + 2 (the width of the
    family's rectangle), "proof" the more conservative lambda < 10*ell + 1.
    """
    lam = _as_fraction(lam)
    if lam <= 0:
        raise InvalidInput("lambda must be positive")
    if threshold not in ("statement", "proof"):
        raise InvalidInput(f"unknown threshold convention {threshold!r}")
    if lam < 2:
        return GenusBound(2, "klein-bottle")
    offset = 2 if threshold == "statement" else 1
    ell = max(1, (lam - offset) // 10 + 1)
    return GenusBound(20 * ell + 2, "family", ell)


class SqueezeResult(NamedTuple):
    exists: bool
    interval_length: Fraction
    diagram: BaseDiagram | None
    witness: TropicalCurve | None
    note: str


def squeeze_check(interval_length) -> SqueezeResult:
    """Existence of a visible Lagrangian Klein bottle over the cylinder of
    the given interval length (sphere area fixed at 2).

    Exists where klein_threshold(2, length) holds, strictly above length
    1, witnessed by the centred slope-1/2 segment in the rectangle
    [0,2] x [0,length].  At 1 and below no visible construction exists,
    and in that range any embedded Lagrangian Klein bottle in the
    nontrivial class is homologically inessential (its rational first
    homology maps to zero), so no essential representative can exist by
    any construction.
    """
    from .diagram import rectangle

    length = _as_fraction(interval_length)
    if length <= 0:
        raise InvalidInput("interval length must be positive")
    if klein_threshold(2, length):
        diagram = rectangle(2, length)
        anchor = RatPoint(1, length / 2)
        curve = visible_segment(diagram, IntVec(2, 1), anchor)
        return SqueezeResult(
            True, length, diagram, curve,
            "visible Klein bottle over the centred slope-1/2 segment")
    return SqueezeResult(
        False, length, None, None,
        "no visible Klein bottle: a slope-1/2 segment does not fit; in "
        "this range any Lagrangian Klein bottle in the nontrivial class "
        "is homologically inessential")
