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
    BoundaryTerminal,
    CurveEnd,
    IntVec,
    InternalEdge,
    LocationKind,
    RatPoint,
    TropicalCurve,
    TropicalVertex,
    UnimodularAffineMap,
    rectangle,
    validate,
)
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


def diff(b, a) -> FracVec:
    """The displacement b - a of two points."""
    return FracVec(b.x - a.x, b.y - a.y)


def moved(p, u, t) -> RatPoint:
    """The point p + t*u."""
    return RatPoint(p.x + t * u.x, p.y + t * u.y)


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
        vertices = [TropicalVertex("v0", position)]
        edges = []
        rays = [("v0", d) for d in rng.choice(BALANCED_TRIPLES)]
        counter = 1
        while rays and len(vertices) < target:
            index = rng.randrange(len(rays))
            vid, direction = rays[index]
            splits = SPLITS.get((direction.x, direction.y))
            step = rng.randint(1, 3)
            source = next(v.position for v in vertices if v.id == vid)
            landing_zone = moved(source, direction, step)
            margin = Fraction(2)
            if (not splits
                    or not margin <= landing_zone.x <= size - margin
                    or not margin <= landing_zone.y <= size - margin):
                break  # stop growing; terminate every remaining ray
            rays.pop(index)
            new_id = f"v{counter}"
            counter += 1
            vertices.append(TropicalVertex(new_id, landing_zone))
            edges.append(InternalEdge(f"e{vid}.{new_id}", vid, new_id))
            a, b = rng.choice(splits)
            rays.append((new_id, a))
            rays.append((new_id, b))
        ends = []
        corner_hit = False
        for i, (vid, direction) in enumerate(rays):
            source = next(v.position for v in vertices if v.id == vid)
            landing, location = diagram.exit(source, direction)
            if location.kind is LocationKind.ON_CORNER:
                corner_hit = True
                break
            ends.append(CurveEnd(f"x{i}", vid, direction,
                                 BoundaryTerminal(landing)))
        if corner_hit:
            continue
        curve = TropicalCurve(vertices, edges, ends, name="random")
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
