"""Exact planar lattice geometry.

Integer vectors (edge directions), rational points (positions in a base
diagram), unimodular affine maps (integral affine changes of coordinates),
the ASCII spellings of numbers, and the exact rules that every other
module reads from here alone: the primitive direction of b - a
(primitive_pair, and primitive_direction as an IntVec; displacement adds
the lattice length), the reduced triple of a point (reduced) and, on int
pairs with denominators cleared, orientation, containment, reach (b - a is
a positive multiple of a direction) and contact.

Every value type is a tuple.  IntVec and UnimodularAffineMap are
typing.NamedTuple records that check their fields in __new__ (and so in
_make, _replace and unpickling too), so a vector equals the int pair
(x, y) and a map the pair (linear, translation).

All arithmetic is exact and on Python ints (arbitrary precision, so
overflow cannot occur).  A rational point is the tuple of its reduced
homogeneous triple (X, Y, W) with W > 0 (reduced); the text parser and a
curve's columns keep the plain triple, with no RatPoint.  Only BaseDiagram
and tropical.geometry clear denominators, by a common_scale multiple,
each triple (X, Y, W) times scale // W: the plane's scale is the lcm of
the diagram's and every W of the curve.  Other readers take their int
pairs or compute on the triple, and point_text prints a point from it.  A
coordinate becomes a fractions.Fraction only for the public API.  Floats,
bools and strings the document format would refuse are rejected at
construction time.
"""
import re
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import NamedTuple

from .errors import TroplagError


class DegenerateDirection(TroplagError):
    """A nonzero direction was required but the zero vector was supplied."""


class NonUnimodularMap(TroplagError):
    """The linear part of an affine map must have determinant +1 or -1."""


# Numbers are spelled in ASCII digits only (\d would admit any Unicode digit).
_INT = r"-?[0-9]+"
_DEN = r"[1-9][0-9]*"
_RAT = _INT + rf"(?:/{_DEN})?"
_RATIONAL = re.compile(_RAT + r"\Z")
_INTEGER = re.compile(_INT + r"\Z")


def _as_fraction(value) -> Fraction:
    """Convert to Fraction, refusing floats (exactness is a hard contract),
    bools, and any string but an ASCII 'p' or 'p/q'.  A Fraction is
    returned as it is."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floating point coordinates are not allowed; "
                        "use int, Fraction or a 'p/q' string")
    if isinstance(value, bool) or (isinstance(value, str)
                                   and not _RATIONAL.match(value)):
        raise TypeError(f"a rational was expected, got {value!r}")
    return Fraction(value)


def _as_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"integer coordinate expected, got {value!r}")
    return value


class _IntVec(NamedTuple):
    x: int
    y: int


class IntVec(_IntVec):
    """An exact integer vector in the plane."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks

    def __new__(cls, x, y):
        return tuple.__new__(cls, (_as_int(x), _as_int(y)))

    def __neg__(self) -> "IntVec":
        return tuple.__new__(IntVec, (-self[0], -self[1]))  # ints already

    def wedge(self, other) -> int:
        """Determinant |self other|; antisymmetric, unimodular-invariant."""
        return self.x * other.y - self.y * other.x

    def dot(self, other) -> int:
        return self.x * other.x + self.y * other.y

    def rot90(self) -> "IntVec":
        """Rotate 90 degrees counterclockwise: (x, y) -> (-y, x)."""
        return tuple.__new__(IntVec, (-self[1], self[0]))  # ints already

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


class RatPoint(tuple):
    """An exact rational point (X/W, Y/W): the tuple (X, Y, W) of reduced
    homogeneous ints with W > 0 and gcd(X, Y, W) = 1, so it equals and
    hashes as that triple and is immutable.  RatPoint(x, y) takes ints,
    Fractions or 'p/q' strings, and RatPoint.of(X, Y, W) any triple with
    W > 0; x and y are Fractions.  There is no point arithmetic: + and *
    are the tuple's concatenation and repetition."""

    __slots__ = ()

    def __new__(cls, x, y):
        if type(x) is int and type(y) is int:
            return tuple.__new__(cls, (x, y, 1))
        x, y = _as_fraction(x), _as_fraction(y)
        xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
        return cls.of(xn * yd, yn * xd, xd * yd)

    @classmethod
    def of(cls, X: int, Y: int, W: int) -> "RatPoint":
        """The point (X/W, Y/W) of ints with W > 0."""
        return tuple.__new__(cls, reduced(X, Y, W))

    X = property(itemgetter(0))
    Y = property(itemgetter(1))
    W = property(itemgetter(2))

    def __reduce__(self):
        return RatPoint.of, tuple(self)

    @property
    def x(self) -> Fraction:
        return Fraction(self[0], self[2])

    @property
    def y(self) -> Fraction:
        return Fraction(self[1], self[2])

    def __repr__(self) -> str:
        return "RatPoint.of({}, {}, {})".format(*self)

    def __str__(self) -> str:
        return point_text(self)


pt = RatPoint  # the short spelling


def point_text(p) -> str:
    """The text (x,y) of the point of an (X, Y, W) triple with W > 0, as
    str(RatPoint) and documents print it: each coordinate in lowest terms,
    as str(Fraction) writes it, by one gcd and with no Fraction."""
    X, Y, W = p
    gx, gy = gcd(X, W), gcd(Y, W)
    x = f"{X // gx}" if gx == W else f"{X // gx}/{W // gx}"
    y = f"{Y // gy}" if gy == W else f"{Y // gy}/{W // gy}"
    return f"({x},{y})"


def reduced(X: int, Y: int, W: int) -> tuple[int, int, int]:
    """The reduced triple of the point (X/W, Y/W) of ints with W > 0, as a
    plain tuple: a RatPoint's items."""
    if W <= 0:
        raise ValueError(f"a point's W must be positive, got {W}")
    g = gcd(X, Y, W)
    return X // g, Y // g, W // g


def primitive_pair(a, b) -> tuple[int, int]:
    """The primitive direction of b - a as a plain int pair, for two
    reduced triples (RatPoints or plain); DegenerateDirection if a == b."""
    (ax, ay, aw), (bx, by, bw) = a, b
    dx, dy = bx * aw - ax * bw, by * aw - ay * bw  # times aw * bw
    g = gcd(dx, dy)
    if g == 0:
        raise DegenerateDirection(
            f"{point_text(a)} to {point_text(b)} has no direction")
    return dx // g, dy // g


def primitive_direction(a: RatPoint, b: RatPoint) -> IntVec:
    """The primitive direction of b - a; DegenerateDirection if a == b."""
    return tuple.__new__(IntVec, primitive_pair(a, b))  # ints already


def displacement(a: RatPoint, b: RatPoint) -> tuple[IntVec, Fraction]:
    """b - a as (u, t): the primitive direction u and the lattice length
    t > 0 with b = a + t*u, read off a nonzero component of u."""
    u = primitive_direction(a, b)
    k = 0 if u[0] else 1
    return u, Fraction(b[k] * a[2] - a[k] * b[2], a[2] * b[2] * u[k])


class _UnimodularAffineMap(NamedTuple):
    linear: tuple[tuple[int, int], tuple[int, int]]
    translation: RatPoint


class UnimodularAffineMap(_UnimodularAffineMap):
    """An integral affine map x -> L x + t with det L = +-1; translation is
    t, the image of the origin."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks

    def __new__(cls, linear, translation):
        (a, b), (c, d) = linear
        for entry in (a, b, c, d):
            _as_int(entry)
        if a * d - b * c not in (1, -1):
            raise NonUnimodularMap(
                f"determinant {a * d - b * c} is not +1 or -1")
        if not isinstance(translation, RatPoint):
            raise TypeError(f"translation {translation!r} is not a RatPoint")
        return tuple.__new__(cls, (linear, translation))

    @classmethod
    def identity(cls) -> "UnimodularAffineMap":
        return cls(((1, 0), (0, 1)), RatPoint(0, 0))

    @property
    def det(self) -> int:
        (a, b), (c, d) = self.linear
        return a * d - b * c

    def apply(self, obj):
        """Points get linear part plus translation; vectors only the linear part."""
        (a, b), (c, d) = self.linear
        if isinstance(obj, IntVec):
            return IntVec(a * obj.x + b * obj.y, c * obj.x + d * obj.y)
        if isinstance(obj, RatPoint):
            (tX, tY, tW), (X, Y, W) = self.translation, obj
            return RatPoint.of((a * X + b * Y) * tW + tX * W,
                               (c * X + d * Y) * tW + tY * W, W * tW)
        raise TypeError(f"cannot apply an affine map to {obj!r}")

    def compose(self, other: "UnimodularAffineMap") -> "UnimodularAffineMap":
        """The map sending x to self(other(x))."""
        (a, b), (c, d) = self.linear
        (e, f), (g, h) = other.linear
        linear = ((a * e + b * g, a * f + b * h),
                  (c * e + d * g, c * f + d * h))
        return UnimodularAffineMap(linear, self.apply(other.translation))

    def inverse(self) -> "UnimodularAffineMap":
        (a, b), (c, d) = self.linear
        det = self.det  # 1/det == det for det in {1, -1}
        (a, b), (c, d) = linear = ((d * det, -b * det), (-c * det, a * det))
        tX, tY, tW = self.translation  # the inverse sends it to -L^-1 t
        return UnimodularAffineMap(linear, RatPoint.of(
            -(a * tX + b * tY), -(c * tX + d * tY), tW))


# ---------------------------------------------------------------------------
# Exact segment predicates, with every sign convention, on int pairs cleared
# by one scale (a common_scale multiple): scaling by a positive integer
# keeps every sign, so every answer is the one on the rational points.
# ---------------------------------------------------------------------------

OVERLAP = "overlap"


def common_scale(points) -> int:
    """The least positive integer whose multiple of every point is integral."""
    # Unpack a set, not a generator: the argument tuple a generator builds
    # is grown and then shrunk, and each shrunk tuple stays on the
    # interpreter's free list for its length, which holds up to 2000.
    return lcm(*{W for _, _, W in points})


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


def reaches(a, b, u) -> bool:
    """Whether the int pair b - a is a positive multiple of the direction u."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    ux, uy = u
    return dx * uy == dy * ux and dx * ux + dy * uy > 0


def segment_contact(a, b, c, d):
    """How the closed segments [a,b] and [c,d] meet.

    The four points are int pairs cleared by one scale (see common_scale).
    Returns None if disjoint, OVERLAP itself (`is` tests it) if they
    share a one-dimensional piece, or else their single point of contact
    as a reduced triple (X, Y, W) with W > 0, the point (X/W, Y/W), so a
    contact at an int pair p is (*p, 1).  In coordinates scaled by S, the
    contact is the point RatPoint.of(X, Y, W * S).  Two segments that are
    not parallel meet in at most one point, so one that shares an endpoint
    (as adjacent segments of a curve do) returns it before any division.
    """
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = a, b, c, d
    ux, uy = bx - ax, by - ay
    vx, vy = dx - cx, dy - cy
    denom = ux * vy - uy * vx
    if denom:
        if a == c or a == d:
            return ax, ay, 1
        if b == c or b == d:
            return bx, by, 1
    wx, wy = cx - ax, cy - ay
    if denom == 0:
        if wx * uy - wy * ux != 0:
            return None          # parallel, distinct lines
        # Collinear: compare parameter intervals along the common line.
        if ux == uy == 0 and vx == vy == 0:
            return (ax, ay, 1) if a == c else None
        ex, ey = (ux, uy) if ux or uy else (vx, vy)

        def key(p):
            return (p[0] - ax) * ex + (p[1] - ay) * ey

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
        x, y = ax * denom + t * ux, ay * denom + t * uy
        g = gcd(x, y, denom)
        return (x // g, y // g, denom // g)
    return None
