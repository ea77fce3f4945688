"""Mod-2 homology of tropical Lagrangians via exact line sweeps.

In a rectangle diagram the class of the Lagrangian over a closed curve is
read off from intersection parities with the two sphere families: the
sphere over a segment of primitive direction t meets the Lagrangian piece
over a curve segment of direction u in |dot(u, t)| points, the component
of u along an axis-parallel t (the sphere's fiber circle is t itself, the
Lagrangian's is rot90(u), and |wedge(rot90(u), t)| = |dot(u, t)|).
Summing over the segments that cross one generic witness line gives the
parity; balancing makes it independent of the witness for closed curves.
Closedness is read from tropical.end_kinds: every end must be a
cross-cap, so a collar, an end at a node (a disc cap) and an end with no
cap kind (mu >= 3) are refused, the last before any collar.  _sweep
walks the plane tropical.geometry hands out once per curve, for both
directions, and keeps each direction's critical coordinates and the ends
of the segments that can change a parity; _parity reads it at the default witness or at a
given one, and critical_coordinates reads it as it is.  Both default
sweeps are one per-curve fact, _default_sweeps, read by sweep_parity
without a witness and by mod2_class, which asks tropical.multiplicities
first, as topology does, and keeps them.

Pontryagin squares are evaluated on integral lifts through the diagram's
intersection form, Q(c, c) mod 4, which only depends on c mod 2.
"""
from bisect import bisect_right
from enum import Enum
from fractions import Fraction
from itertools import product
from operator import sub
from typing import NamedTuple

from .errors import TroplagError
from .diagram import BaseDiagram, HomologyModel, UnsupportedDiagram
from .lattice import _as_fraction
from .tropical import (_CROSS_CAP, TropicalCurve, _remember, end_kinds,
                       geometry, multiplicities)


class InvalidClass(TroplagError):
    """A homology class vector of the wrong shape."""


class NonGenericWitness(TroplagError):
    """The witness line passes through a vertex, anchor or landing point."""


class UnsweepableCurve(TroplagError):
    """Sweep parities are defined for closed curves only: every end must
    be a cross-cap."""


class SweepDirection(Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"


_VERTICAL = SweepDirection.VERTICAL  # read from globals; see tropical._INTERIOR


class SweepParity(NamedTuple):
    direction: SweepDirection
    parity: int
    witness_line_coordinate: Fraction


class _Mod2Class(NamedTuple):
    coefficients: tuple[int, ...]
    basis_labels: tuple[str, ...]
    sweeps: tuple[SweepParity, SweepParity]


class Mod2Class(_Mod2Class):
    """Coefficients over {0,1} in the diagram's homology basis, with the
    (horizontal, vertical) sweeps they were solved from.  Two classes are
    equal, and hash alike, when their coefficients and labels are; the
    sweeps are not compared."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks

    def __new__(cls, coefficients, basis_labels, sweeps):
        if len(coefficients) != len(basis_labels):
            raise InvalidClass("coefficient vector does not match basis")
        if any(c not in (0, 1) for c in coefficients):
            raise InvalidClass("mod-2 coefficients must be 0 or 1")
        return tuple.__new__(cls, (coefficients, basis_labels, sweeps))

    def __eq__(self, other):
        return isinstance(other, Mod2Class) and self[:2] == other[:2]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:2])

    def label_sum(self) -> str:
        terms = [label for c, label in
                 zip(self.coefficients, self.basis_labels) if c]
        return " + ".join(terms) if terms else "0"

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coefficients) + ")"


def _require_sweepable(diagram: BaseDiagram, curve: TropicalCurve):
    if not diagram.is_rectangle:
        raise UnsupportedDiagram(
            "sweep parities are defined for node-free rectangle diagrams")
    kinds = end_kinds(diagram, curve)
    if kinds.count(_CROSS_CAP) != len(kinds):
        eid, kind = next((row[0], kind) for row, kind in zip(
            curve._end_rows, kinds) if kind is not _CROSS_CAP)
        raise UnsweepableCurve(
            f"end {eid!r} is a {kind.value}, not a crosscap; only a "
            "closed curve has a mod-2 class to sweep")


def _sweep(diagram: BaseDiagram, curve: TropicalCurve):
    """Both directions' sweep data from one walk of the plane geometry()
    hands out, once per curve and diagram (_remember): (scale, horizontal,
    vertical), each direction as (criticals, odd).  Coordinates are scaled
    and run across the direction's witness lines (y for horizontal lines,
    x for vertical ones); criticals is the sorted tuple a generic witness
    line must avoid, the rectangle's bounds included, and odd the sorted
    tuple of both ends of each segment whose weight |dot(u, t)| is odd, t
    the unit vector along the lines: an even weight never changes a
    parity."""
    def walk():
        scale, corners, _, segments = geometry(diagram, curve)
        cx, cy = zip(*corners)
        xs, ys = {min(cx), max(cx)}, {min(cy), max(cy)}
        odd_y, odd_x = [], []
        for _, (ax, ay), (bx, by), _, _, (ux, uy) in segments:
            xs.add(ax)
            xs.add(bx)
            ys.add(ay)
            ys.add(by)
            if ux & 1:  # odd weight |ux| across horizontal lines
                odd_y += ay, by
            if uy & 1:
                odd_x += ax, bx
        return (scale, (tuple(sorted(ys)), tuple(sorted(odd_y))),
                (tuple(sorted(xs)), tuple(sorted(odd_x))))
    return _remember(diagram, curve, _sweep, walk)


def _parity(diagram: BaseDiagram, curve: TropicalCurve,
            direction: SweepDirection, witness=None) -> SweepParity:
    """The SweepParity of direction at the witness, or at the default one
    (see sweep_parity), read from _sweep's walk."""
    scale, horizontal, vertical = _sweep(diagram, curve)
    criticals, odd = vertical if direction is _VERTICAL else horizontal
    # The witness line's scaled coordinate is line / den.
    if witness is None:
        gaps = list(map(sub, criticals[1:], criticals))
        k = gaps.index(max(gaps))  # the first largest gap
        line, den = criticals[k] + criticals[k + 1], 2
        witness = Fraction(line, den * scale)
    else:
        witness = _as_fraction(witness)
        line, den = witness.numerator * scale, witness.denominator
        if any(c * den == line for c in criticals):
            raise NonGenericWitness(
                f"witness {witness} hits a critical coordinate")
        if not criticals[0] * den < line < criticals[-1] * den:
            raise NonGenericWitness(
                f"witness {witness} lies outside the rectangle")
    # A line crosses a segment when one of its ends lies below the line and
    # the other above, so it crosses as many odd-weight segments, mod 2, as
    # their ends below it: those at most (line - 1) // den, as none is on it.
    below = bisect_right(odd, (line - 1) // den)
    return SweepParity(direction, below % 2, witness)


def critical_coordinates(diagram: BaseDiagram, curve: TropicalCurve,
                         direction: SweepDirection):
    """Sorted coordinates a generic witness line must avoid, including the
    rectangle bounds; an end to a missing node has no segment to add."""
    scale, horizontal, vertical = _sweep(diagram, curve)
    criticals = (vertical if direction is _VERTICAL else horizontal)[0]
    return [Fraction(c, scale) for c in criticals]


def sweep_parity(diagram: BaseDiagram, curve: TropicalCurve,
                 direction: SweepDirection,
                 witness: Fraction | None = None) -> SweepParity:
    """Mod-2 intersection parity with the sphere family of this direction.

    The parity is the sum of |dot(segment direction, line direction)| over
    the curve segments crossing a generic line of the given direction,
    mod 2.  The line is the supplied witness, or else the midpoint of the
    largest gap between critical coordinates (the first such gap if
    several tie), so the default is deterministic.  Requires a closed
    weight-one curve in a node-free rectangle diagram: every end must be a
    cross-cap.
    """
    if witness is None:
        horizontal, vertical = _default_sweeps(diagram, curve)
        return vertical if direction is _VERTICAL else horizontal
    _require_sweepable(diagram, curve)
    return _parity(diagram, curve, direction, witness)


def _default_sweeps(diagram: BaseDiagram, curve: TropicalCurve):
    """The (horizontal, vertical) SweepParity at the default witnesses,
    once per curve and diagram (tropical._remember)."""
    def build():
        _require_sweepable(diagram, curve)
        return tuple(_parity(diagram, curve, d) for d in SweepDirection)
    return _remember(diagram, curve, _default_sweeps, build)


def _solve(homology: HomologyModel, sweeps) -> Mod2Class:
    """The class whose pairings with the horizontal and vertical sweep
    sphere classes are the parities of the (horizontal, vertical) sweeps:
    the one such lift c in {0,1}^2; zero or several is a singular pairing."""
    classes = (homology.class_of_horizontal_sweep,
               homology.class_of_vertical_sweep)
    if None in classes:
        raise UnsupportedDiagram("diagram carries no sweep class vectors")
    if homology.rank != 2:
        raise UnsupportedDiagram("sweep classes determine the mod-2 class "
                                 "only in a rank-2 basis")
    lifts = [c for c in product((0, 1), repeat=2)
             if all(homology.pairing(c, s) % 2 == sweep.parity
                    for s, sweep in zip(classes, sweeps))]
    if len(lifts) != 1:
        raise UnsupportedDiagram(
            "sweep classes do not determine the mod-2 class "
            "(singular pairing)")
    return Mod2Class(lifts[0], homology.basis_labels, sweeps)


def mod2_class(diagram: BaseDiagram, curve: TropicalCurve) -> Mod2Class:
    """The curve's Lagrangian mod-2 class in the diagram's basis, which
    _solve reads from the two sweeps: (vertical parity, horizontal parity)
    in the standard rectangle basis.  It refuses, in order: a vertex with
    no multiplicity (no surface over the curve), a diagram that is not a
    node-free rectangle, a curve that is not closed, then the basis."""
    multiplicities(diagram, curve)
    return _solve(diagram.homology, _default_sweeps(diagram, curve))


def pontryagin_square(form: HomologyModel, integral_class) -> int:
    """Q(c, c) mod 4 for an integral lift c; well defined on c mod 2."""
    c = tuple(integral_class)
    if len(c) != form.rank:
        raise InvalidClass(
            f"class vector has length {len(c)}, basis has rank {form.rank}")
    for entry in c:
        if isinstance(entry, bool) or not isinstance(entry, int):
            raise InvalidClass(f"integral lift required, got {entry!r}")
    return form.pairing(c, c) % 4


def audin_check(p2: int, chi: int) -> bool:
    """Whether P2(class) = chi mod 4 (necessary for an embedded
    nonorientable Lagrangian of that Euler characteristic in that class)."""
    return (p2 - chi) % 4 == 0
