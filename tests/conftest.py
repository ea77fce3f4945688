"""Shared fixtures: bundled documents, random balanced curves, random
unimodular maps, and Fraction references for point arithmetic."""
from __future__ import annotations

import random
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import strategies as st

from troplag import (
    IntVec,
    LocationKind,
    RatPoint,
    SweepDirection,
    TropicalCurve,
    UnimodularAffineMap,
    rectangle,
    validate,
)
from troplag.nodes import exit_point
from troplag.textio import parse_document

# When a hypothesis test fails, its explain phase imports libcst, whose
# import warns with a DeprecationWarning; under -W error (CI's flag, which
# an ini filterwarnings entry cannot override) that becomes an
# INTERNALERROR in place of the falsifying example.  So import it here,
# once, with the warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass

FIGURES = Path(__file__).resolve().parent.parent / "figures"
GOLDEN = Path(__file__).resolve().parent / "golden"

BUNDLED_DOCS = ["fig1_left.trop", "fig1_right.trop", "fig2_klein.trop",
                "fig3_family.trop", "fig4_squeeze.trop", "fig5_cycle.trop"]


def count_calls(monkeypatch, module, name):
    """Calls of module.name, wherever a troplag module holds it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, holder in list(sys.modules.items()):
        held = vars(holder).get(name)
        if key.split(".")[0] == "troplag" and held is original:
            monkeypatch.setattr(holder, name, counted)
    return calls


def curve_of(vertices=(), edges=(), ends=(), name=""):
    """The curve of rows written with points and vectors: vertices as (id,
    point) pairs, edges (id, src, dst) and ends (id, source, direction,
    terminal), a source a vertex id or an anchor point and a terminal a
    node index or a landing point; TropicalCurve takes them as plain
    tuples."""
    def plain(item):
        return item if isinstance(item, (str, int)) else tuple(item)

    return TropicalCurve(
        name, [vid for vid, _ in vertices], [tuple(p) for _, p in vertices],
        edges, [(eid, plain(source), tuple(u), plain(terminal))
                for eid, source, u, terminal in ends])


def load_document(name: str):
    return parse_document((FIGURES / name).read_text(encoding="utf-8"))


KLEIN_POLYGON_DIAGRAM = ("diagram polygon (0,0) (4,0) (4,5/2) (0,5/2) ; "
                         "basis sphere_h sphere_v ; form 0 1 1 0 ; "
                         "sweepclasses h=1,0 v=0,1")


def klein_as_polygon() -> str:
    """fig2_klein with its rectangle written out as a polygon that carries
    the same basis, form and sweep classes."""
    text = (FIGURES / "fig2_klein.trop").read_text(encoding="utf-8")
    rectangle_line = "diagram rectangle width=4 height=5/2"
    assert rectangle_line in text
    return text.replace(rectangle_line, KLEIN_POLYGON_DIAGRAM)


# ---------------------------------------------------------------------
# Token soups for fuzzing the parser and the CLI.  A soup is a legal
# diagram line and (most often) a `curve` header, then lines of the format
# with distinct ids, some with a stray token, and at most one run of
# tokens from the format's vocabulary, legal and not; so curve building,
# validation and the reports are reached as well as the parser's errors.
# ---------------------------------------------------------------------

SOUP_TOKENS = (
    "diagram", "rectangle", "xabc", "polygon", "curve", "vertex", "edge",
    "end", ";", "node", "basis", "form", "sweepclasses", "#",
    "width=4", "height=5/2", "width=0", "a=1", "c=9", "(0,0)", "(4,0)",
    "(2,5/4)", "(1,1)", "(0,3)", "(1.5,1)", "(1,0/1)",
    "dir=(2,1)", "dir=(-1,-1)", "dir=(0,0)", "dir=(2,2)", "land=(4,9/4)",
    "land=(0,0)", "land=(9,9)", "node=0", "node=7", "cut=(1,0)",
    "cut=(2,0)", "weight=2", "weight=0", "h=1,0", "v=0,1", "h=1", "v=x",
    "E1", "0", "1", "-1", "1/0", "1.5", "v", "w", "k", "x", "=", "()",
)

SOUP_HEADS = (
    "diagram rectangle width=4 height=5/2", KLEIN_POLYGON_DIAGRAM,
    "diagram xabc a=1 b=1 c=4/3 s=4",
    "diagram polygon (-4,-3) (4,-3) (4,4) (-4,4) ; node (1,0) cut=(1,0)",
)

SOUP_LINES = (
    "vertex v (2,1)", "vertex w (3,2)", "edge e v w", "edge e v w weight=2",
    "edge f w v", "curve m",
    "end a v dir=(-1,0) land=(0,1)", "end b v dir=(0,-1) land=(2,0)",
    "end c w dir=(1,0) land=(4,2)", "end d w dir=(0,1) land=(3,5/2)",
    "end n v dir=(1,0) node=0",
    "end plus (2,5/4) dir=(2,1) land=(4,9/4)",
    "end minus (2,5/4) dir=(-2,-1) land=(0,1/4)",
)


def _soup(head, header, lines, junk, at):
    lines[at:at] = junk
    return "\n".join([head, *header, *lines])


def _rarely(values, default):
    """One of values a quarter of the time, else default."""
    return st.sampled_from((default,) * 3 * len(values) + tuple(values))


token_soups = st.builds(
    _soup, st.sampled_from(SOUP_HEADS), _rarely([()], ("curve k",)),
    st.lists(st.builds(lambda line, stray: f"{line} {stray}".rstrip(),
                       st.sampled_from(SOUP_LINES), _rarely(SOUP_TOKENS, "")),
             max_size=8, unique_by=lambda line: line.split()[1]),
    st.one_of(st.just(()), st.lists(st.sampled_from(SOUP_TOKENS), min_size=1,
                                    max_size=7).map(lambda t: (" ".join(t),))),
    st.integers(0, 8))


# ---------------------------------------------------------------------
# Fraction references for point arithmetic.  RatPoint computes on its
# reduced int triple (X, Y, W); the tests check it against rational
# arithmetic written out here, on the Fraction coordinates p.x and p.y.
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class FracVec:
    """A rational displacement in Fraction arithmetic."""

    x: Fraction
    y: Fraction

    def wedge(self, other) -> Fraction:
        return self.x * other.y - self.y * other.x

    def dot(self, other) -> Fraction:
        return self.x * other.x + self.y * other.y

    @property
    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def primitive_direction(self) -> IntVec:
        scale = self.x.denominator * self.y.denominator
        return IntVec(int(self.x * scale), int(self.y * scale)).primitive()

    def ratio_along(self, direction: IntVec) -> Fraction | None:
        """The t with self == t*direction, or None if not parallel."""
        if self.wedge(direction) != 0:
            return None
        if direction.x != 0:
            return self.x / direction.x
        return self.y / direction.y


def polygon_edges(diagram):
    """The (start, end) corners of each polygon edge, counterclockwise."""
    vertices = diagram.polygon_vertices
    return list(zip(vertices, vertices[1:] + vertices[:1]))


def cut_segments(diagram):
    """(node position, exit) per node, the exit where exit_point finds the
    node's cut ray leaves the polygon."""
    return [(node.position,
             exit_point(diagram, node.position, node.cut_direction)[0])
            for node in diagram.nodes]


def sweep_criticals(diagram, curve, direction) -> list[Fraction]:
    """The sorted coordinates a generic witness line of the sweep direction
    must avoid, from curve.rows() and diagram.bounds() in Fractions: the y
    (horizontal lines) or x (vertical lines) of both ends of every edge and
    of every end with a landing, and the diagram's two bounds.  An end to
    a node has no segment in a node-free diagram, so it adds nothing."""
    _, ids, points, edges, ends = curve.rows()
    at = dict(zip(ids, points))

    def point(p):
        return at[p] if isinstance(p, str) else p

    ends_of_segments = [point(p) for _, src, dst in edges for p in (src, dst)]
    ends_of_segments += [p for _, source, _, landing in ends
                         if not isinstance(landing, int)
                         for p in (point(source), landing)]
    k = 0 if direction is SweepDirection.VERTICAL else 1
    bounds = diagram.bounds()[k::2]
    return sorted({Fraction(p[k], p[2]) for p in ends_of_segments}
                  | set(bounds))


def diff(b, a) -> FracVec:
    """The displacement b - a of two points."""
    return FracVec(b.x - a.x, b.y - a.y)


def moved(p, u, t) -> RatPoint:
    """The point p + t*u."""
    return RatPoint(p.x + t * u.x, p.y + t * u.y)


def convex_hull(points):
    """The counterclockwise convex hull of distinct points, without
    collinear corners (Andrew's monotone chain)."""
    points = sorted(set(points), key=lambda p: (p.x, p.y))
    if len(points) < 3:
        return points
    lower, upper = [], []
    for chain, ordered in ((lower, points), (upper, points[::-1])):
        for p in ordered:
            while len(chain) >= 2 and diff(chain[-1], chain[-2]).wedge(
                    diff(p, chain[-2])) <= 0:
                chain.pop()
            chain.append(p)
    return lower[:-1] + upper[:-1]


@pytest.fixture(scope="session")
def bundled_documents():
    return {name: load_document(name) for name in BUNDLED_DOCS}


# ---------------------------------------------------------------------
# Random balanced curves in a rectangle, for oracle/invariance soups.
# Directions are capped at |coordinate| <= 2 so every boundary landing has
# mu in {1, 2}.
# ---------------------------------------------------------------------

DIRECTION_POOL = tuple(
    IntVec(x, y)
    for x in range(-2, 3) for y in range(-2, 3)
    if (x, y) != (0, 0) and gcd(abs(x), abs(y)) == 1)

BALANCED_TRIPLES = tuple(
    (u, v, IntVec(-u.x - v.x, -u.y - v.y))
    for u in DIRECTION_POOL for v in DIRECTION_POOL
    if IntVec(-u.x - v.x, -u.y - v.y) in DIRECTION_POOL
    and u != v and v != IntVec(-u.x - v.x, -u.y - v.y)
    and u != IntVec(-u.x - v.x, -u.y - v.y))

# incoming direction d -> pairs (a, b) with a + b == d, for growing a new
# trivalent vertex at the far end of an edge of direction d.
SPLITS = {}
for _u in DIRECTION_POOL:
    for _v in DIRECTION_POOL:
        _w = IntVec(_u.x + _v.x, _u.y + _v.y)
        if not _w.is_zero and _w.is_primitive and _u != _v:
            SPLITS.setdefault((_w.x, _w.y), []).append((_u, _v))


def random_curve(rng: random.Random, max_vertices: int = 6, size: int = 24):
    """A random valid weight-one tropical curve in rectangle(size, size).

    Grows a tree of trivalent vertices from balanced direction triples and
    terminates the remaining rays on the boundary; retries until the result
    validates.  Deterministic for a seeded rng.
    """
    diagram = rectangle(size, size)
    for _ in range(400):
        target = rng.randint(1, max_vertices)
        position = RatPoint(rng.randint(size // 3, 2 * size // 3),
                            rng.randint(size // 3, 2 * size // 3))
        vertices = {"v0": position}  # id -> point, in order
        edges = []
        rays = [("v0", d) for d in rng.choice(BALANCED_TRIPLES)]
        counter = 1
        while rays and len(vertices) < target:
            index = rng.randrange(len(rays))
            vid, direction = rays[index]
            splits = SPLITS.get((direction.x, direction.y))
            step = rng.randint(1, 3)
            source = vertices[vid]
            landing_zone = moved(source, direction, step)
            margin = Fraction(2)
            if (not splits
                    or not margin <= landing_zone.x <= size - margin
                    or not margin <= landing_zone.y <= size - margin):
                break  # stop growing; terminate every remaining ray
            rays.pop(index)
            new_id = f"v{counter}"
            counter += 1
            vertices[new_id] = landing_zone
            edges.append((f"e{vid}.{new_id}", vid, new_id))
            a, b = rng.choice(splits)
            rays.append((new_id, a))
            rays.append((new_id, b))
        ends = []
        corner_hit = False
        for i, (vid, direction) in enumerate(rays):
            source = vertices[vid]
            landing, location = exit_point(diagram, source, direction)
            if location.kind is LocationKind.ON_CORNER:
                corner_hit = True
                break
            ends.append((f"x{i}", vid, tuple(direction), tuple(landing)))
        if corner_hit:
            continue
        curve = TropicalCurve(
            "random", list(vertices), [tuple(p) for p in vertices.values()],
            edges, ends)
        if validate(diagram, curve).passed:
            return diagram, curve
    raise AssertionError("random curve generation failed to converge")


_SHEARS = (((1, 1), (0, 1)), ((1, -1), (0, 1)), ((1, 0), (1, 1)),
           ((1, 0), (-1, 1)), ((0, 1), (1, 0)), ((0, -1), (1, 0)))


def random_unimodular_map(rng: random.Random) -> UnimodularAffineMap:
    m = UnimodularAffineMap.identity()
    for _ in range(rng.randint(1, 4)):
        g = UnimodularAffineMap(rng.choice(_SHEARS), RatPoint(0, 0))
        m = g.compose(m)
    translation = RatPoint(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))),
                           Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))))
    return UnimodularAffineMap(m.linear, translation)
