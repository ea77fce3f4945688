"""Unimodular affine maps (integral affine changes of coordinates), and
diagrams and curves moved by one: no command runs them."""
from typing import NamedTuple

from .errors import TroplagError
from .lattice import IntVec, RatPoint, _as_int


class NonUnimodularMap(TroplagError):
    """The linear part of an affine map must have determinant +1 or -1."""


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


def transform_diagram(diagram, m: UnimodularAffineMap):
    """The diagram in new integral affine coordinates: a generic polygon
    diagram, its vertices reversed by an orientation-reversing map to stay
    counterclockwise, with the diagram's homology, but for a map swapping
    the axes, which swaps the two sweep classes (the sphere over a
    horizontal segment then lies over a vertical one)."""
    from .diagram import BaseDiagram, HomologyModel, Node

    vertices = [m.apply(v) for v in diagram.polygon_vertices]
    if m.det < 0:
        vertices.reverse()
    nodes = [Node(m.apply(n.position), m.apply(n.cut_direction))
             for n in diagram.nodes]
    basis, form, h, v = diagram.homology
    if m.linear[0][0] == m.linear[1][1] == 0:  # the axes swap
        h, v = v, h
    return BaseDiagram(vertices, nodes, HomologyModel(basis, form, h, v))


def transform_curve(curve, m: UnimodularAffineMap):
    """The curve in new integral affine coordinates: m.apply moves each
    point, anchor and landing, and m's linear part each direction."""
    from .tropical import TropicalCurve

    (a, b), (c, d) = m.linear
    name, ids, points, edges, ends = curve.rows()

    def move(p):
        return tuple(m.apply(RatPoint.of(*p)))

    return TropicalCurve(
        name, ids, [move(p) for p in points], edges,
        [(eid, s if isinstance(s, str) else move(s),
          (a * x + b * y, c * x + d * y),
          t if isinstance(t, int) else move(t))
         for eid, s, (x, y), t in ends])
