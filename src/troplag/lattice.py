"""Exact planar lattice geometry.

Integer vectors (edge directions), rational points (positions in a base
diagram), unimodular affine maps (integral affine changes of coordinates),
the ASCII spellings of numbers, and the exact segment predicates the rest
of the package is built on, on int pairs with denominators cleared.

All arithmetic is exact: integer coordinates are Python ints (arbitrary
precision, so overflow cannot occur), rational coordinates are
fractions.Fraction (always reduced, positive denominator).  Floats are
rejected at construction time.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import TroplagError


class DegenerateDirection(TroplagError):
    """A nonzero direction was required but the zero vector was supplied."""


class NonUnimodularMap(TroplagError):
    """The linear part of an affine map must have determinant +1 or -1."""


# Numbers are spelled in ASCII digits only (\d would admit any Unicode digit).
_INT = r"-?[0-9]+"
_RAT = _INT + r"(?:/[1-9][0-9]*)?"
_RATIONAL = re.compile(_RAT + r"\Z")
_INTEGER = re.compile(_INT + r"\Z")


def _as_fraction(value) -> Fraction:
    """Convert to Fraction, refusing floats (exactness is a hard contract).
    A Fraction is returned as it is."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floating point coordinates are not allowed; "
                        "use int, Fraction or a 'p/q' string")
    return Fraction(value)


def _as_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"integer coordinate expected, got {value!r}")
    return value


@dataclass(frozen=True)
class IntVec:
    """An exact integer vector in the plane."""

    x: int
    y: int

    def __post_init__(self):
        _as_int(self.x)
        _as_int(self.y)

    def __neg__(self) -> "IntVec":
        return IntVec(-self.x, -self.y)

    def wedge(self, other) -> int:
        """Determinant |self other|; antisymmetric, unimodular-invariant."""
        return self.x * other.y - self.y * other.x

    def dot(self, other) -> int:
        return self.x * other.x + self.y * other.y

    def rot90(self) -> "IntVec":
        """Rotate 90 degrees counterclockwise: (x, y) -> (-y, x)."""
        return IntVec(-self.y, self.x)

    @property
    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    @property
    def is_primitive(self) -> bool:
        return not self.is_zero and gcd(abs(self.x), abs(self.y)) == 1

    def primitive(self) -> "IntVec":
        """Divide out the gcd, keeping direction and sign."""
        if self.is_zero:
            raise DegenerateDirection("the zero vector has no direction")
        g = gcd(abs(self.x), abs(self.y))
        return IntVec(self.x // g, self.y // g)

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


@dataclass(frozen=True)
class RatVec:
    """An exact rational displacement (difference of two RatPoints)."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", _as_fraction(self.x))
        object.__setattr__(self, "y", _as_fraction(self.y))

    def __add__(self, other: "RatVec") -> "RatVec":
        return RatVec(self.x + other.x, self.y + other.y)

    def __neg__(self) -> "RatVec":
        return RatVec(-self.x, -self.y)

    def wedge(self, other) -> Fraction:
        return self.x * other.y - self.y * other.x

    def dot(self, other) -> Fraction:
        return self.x * other.x + self.y * other.y

    @property
    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def primitive_direction(self) -> IntVec:
        """The primitive integer vector pointing the same way."""
        if self.is_zero:
            raise DegenerateDirection("the zero displacement has no direction")
        scale = self.x.denominator * self.y.denominator // gcd(
            self.x.denominator, self.y.denominator)
        return IntVec(int(self.x * scale), int(self.y * scale)).primitive()

    def ratio_along(self, direction: IntVec) -> Fraction | None:
        """The t with self == t*direction, or None if not parallel."""
        if direction.is_zero:
            raise DegenerateDirection("cannot measure along the zero vector")
        if self.wedge(direction) != 0:
            return None
        if direction.x != 0:
            return self.x / direction.x
        return self.y / direction.y

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


@dataclass(frozen=True)
class RatPoint:
    """An exact rational point in the plane."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", _as_fraction(self.x))
        object.__setattr__(self, "y", _as_fraction(self.y))

    def __sub__(self, other: "RatPoint") -> RatVec:
        return RatVec(self.x - other.x, self.y - other.y)

    def moved(self, direction, t) -> "RatPoint":
        """The point self + t*direction."""
        t = _as_fraction(t)
        return RatPoint(self.x + t * direction.x, self.y + t * direction.y)

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


def pt(x, y) -> RatPoint:
    return RatPoint(_as_fraction(x), _as_fraction(y))


@dataclass(frozen=True)
class UnimodularAffineMap:
    """An integral affine map x -> L x + t with det L = +-1."""

    linear: tuple[tuple[int, int], tuple[int, int]]
    translation: RatVec

    def __post_init__(self):
        (a, b), (c, d) = self.linear
        for entry in (a, b, c, d):
            _as_int(entry)
        if a * d - b * c not in (1, -1):
            raise NonUnimodularMap(
                f"determinant {a * d - b * c} is not +1 or -1")

    @classmethod
    def identity(cls) -> "UnimodularAffineMap":
        return cls(((1, 0), (0, 1)), RatVec(Fraction(0), Fraction(0)))

    @property
    def det(self) -> int:
        (a, b), (c, d) = self.linear
        return a * d - b * c

    def apply(self, obj):
        """Points get linear part plus translation; vectors only the linear part."""
        (a, b), (c, d) = self.linear
        if isinstance(obj, IntVec):
            return IntVec(a * obj.x + b * obj.y, c * obj.x + d * obj.y)
        if isinstance(obj, RatVec):
            return RatVec(a * obj.x + b * obj.y, c * obj.x + d * obj.y)
        if isinstance(obj, RatPoint):
            return RatPoint(a * obj.x + b * obj.y + self.translation.x,
                            c * obj.x + d * obj.y + self.translation.y)
        raise TypeError(f"cannot apply an affine map to {obj!r}")

    def compose(self, other: "UnimodularAffineMap") -> "UnimodularAffineMap":
        """The map sending x to self(other(x))."""
        (a, b), (c, d) = self.linear
        (e, f), (g, h) = other.linear
        linear = ((a * e + b * g, a * f + b * h),
                  (c * e + d * g, c * f + d * h))
        shift = self.apply(other.translation) + self.translation
        return UnimodularAffineMap(linear, shift)

    def inverse(self) -> "UnimodularAffineMap":
        (a, b), (c, d) = self.linear
        det = self.det  # 1/det == det for det in {1, -1}
        linear = ((d * det, -b * det), (-c * det, a * det))
        bare = UnimodularAffineMap(linear, RatVec(Fraction(0), Fraction(0)))
        return UnimodularAffineMap(linear, -bare.apply(self.translation))


# ---------------------------------------------------------------------------
# Exact segment predicates, on ints.
#
# All the sign conventions live here.  A caller clears denominators once
# (common_scale, then cleared; validate per call, BaseDiagram when built)
# and runs the int-pair kernel (turn, within, between, segment_contact) on
# the scaled points, where every answer is unchanged because scaling by a
# positive integer keeps every sign.  segment_contact takes RatPoints too.
# ---------------------------------------------------------------------------

OVERLAP = "overlap"


def common_scale(points) -> int:
    """The least positive integer whose multiple of every point is integral."""
    # Unpack a set, not a generator: the argument tuple a generator builds
    # is grown and then shrunk, and each shrunk tuple stays on the
    # interpreter's free list for its length, which holds up to 2000.
    return lcm(*{c.denominator for p in points for c in (p.x, p.y)})


def cleared(p: RatPoint, scale: int) -> tuple[int, int]:
    """p times scale as an int pair; scale must be a common_scale multiple."""
    x, y = p.x, p.y
    return (x.numerator * (scale // x.denominator),
            y.numerator * (scale // y.denominator))


def uncleared(point, scale: int) -> RatPoint:
    """The RatPoint of an (X, Y, W) point of contact, (X/W, Y/W), in
    coordinates scaled by scale."""
    x, y, w = point
    return RatPoint(Fraction(x, w * scale), Fraction(y, w * scale))


def turn(a, b, c) -> int:
    """Sign of the turn a->b->c of int pairs: +1 left, -1 right, 0 collinear."""
    s = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (s > 0) - (s < 0)


def within(p, a, b) -> bool:
    """Whether the int pair p lies on the closed segment [a, b]."""
    return (turn(a, b, p) == 0
            and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def between(p, a, b) -> bool:
    """Whether the int pair p lies strictly between a and b on the segment."""
    return p != a and p != b and within(p, a, b)


def segment_contact(a, b, c, d):
    """How the closed segments [a,b] and [c,d] meet.

    The four points are RatPoints, or int pairs cleared by one scale (see
    common_scale).  Returns None if disjoint, OVERLAP ("overlap") if they
    share a one-dimensional piece, or else their single point of contact:
    a RatPoint for RatPoints, and for int pairs a reduced triple (X, Y, W)
    with W > 0, the point (X/W, Y/W), so a contact at an int pair p is
    (*p, 1).
    """
    if isinstance(a, RatPoint):
        scale = common_scale((a, b, c, d))
        hit = _contact(*[cleared(p, scale) for p in (a, b, c, d)])
        return hit if hit is None or hit == OVERLAP else uncleared(hit, scale)
    return _contact(a, b, c, d)


def _contact(a, b, c, d):
    ux, uy = b[0] - a[0], b[1] - a[1]
    vx, vy = d[0] - c[0], d[1] - c[1]
    wx, wy = c[0] - a[0], c[1] - a[1]
    denom = ux * vy - uy * vx
    if denom == 0:
        if wx * uy - wy * ux != 0:
            return None          # parallel, distinct lines
        # Collinear: compare parameter intervals along the common line.
        if ux == uy == 0 and vx == vy == 0:
            return (*a, 1) if a == c else None
        ex, ey = (ux, uy) if ux or uy else (vx, vy)

        def key(p):
            return (p[0] - a[0]) * ex + (p[1] - a[1]) * ey

        lo1, hi1 = sorted((key(a), key(b)))
        lo2, hi2 = sorted((key(c), key(d)))
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return None
        if lo < hi:
            return OVERLAP
        # Touch at a single parameter; it is one of the four endpoints.
        for p in (a, b, c, d):
            if key(p) == lo and within(p, a, b) and within(p, c, d):
                return (*p, 1)
        return None
    t = wx * vy - wy * vx
    s = wx * uy - wy * ux
    if denom < 0:
        denom, t, s = -denom, -t, -s
    if 0 <= t <= denom and 0 <= s <= denom:
        x, y = a[0] * denom + t * ux, a[1] * denom + t * uy
        g = gcd(x, y, denom)
        return (x // g, y // g, denom // g)
    return None
