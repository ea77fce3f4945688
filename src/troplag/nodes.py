"""Diagrams with focus-focus nodes: x_abc, the triple blow-up triangle,
and ray_exit, where a ray from an interior point leaves a diagram's
polygon (each node's cut ends there, and exit_point reads it).  A diagram
without nodes loads this module only if exit_point is called on it.
"""
from fractions import Fraction

from .errors import TroplagError
from .diagram import (_ON_CORNER, BaseDiagram, HomologyModel, InvalidDiagram,
                      Node, PointLocation, _point)
from .lattice import (DegenerateDirection, IntVec, RatPoint, _as_fraction,
                      point_text)

_UP, _RIGHT = IntVec(0, 1), IntVec(1, 0)
_XABC_HOMOLOGY = HomologyModel(("E1", "E2", "E3"),
                               ((-1, 0, 0), (0, -1, 0), (0, 0, -1)))


def ray_exit(diagram, X: int, Y: int, W: int, direction):
    """The exit of the ray from (X/W, Y/W) of the diagram's plane scaled by
    its S, as (X', Y', W', location): the ray leaves through the nearest
    line of an edge it moves outward through.  None if the point is not
    strictly inside."""
    dx, dy = direction
    best = None  # (W * (e ^ (P - A)), -(e ^ d), index); t is their ratio
    for index, (ex, ey, wedge_a) in enumerate(diagram._lines):
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
    for corner in (index, (index + 1) % len(diagram._corners)):
        cx, cy = diagram._corners[corner]
        if X == W * cx and Y == W * cy:
            return X, Y, W, PointLocation(_ON_CORNER, corner)
    return X, Y, W, diagram._on_edges[index]


def exit_point(diagram, origin: RatPoint, direction: IntVec):
    """Where the ray origin + t*direction (t > 0) leaves the polygon.

    Returns (point, location): ON_CORNER(k) if point is polygon vertex
    k, else ON_BOUNDARY_EDGE(i) for the edge i it crosses.  The origin
    must be strictly inside the polygon, or TroplagError names it, and
    the direction nonzero."""
    (X, Y, W), S = origin, diagram._scale
    found = ray_exit(diagram, X * S, Y * S, W, direction)
    if found is None:
        raise TroplagError(f"ray origin {point_text(origin)} is not "
                           "strictly inside the polygon")
    X, Y, W, location = found
    return RatPoint.of(X, Y, W * S), location


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
        raise InvalidDiagram(
            f"x_abc(a={a}, b={b}, c={c}, s={s}): {err}") from None
