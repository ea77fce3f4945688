"""Seeded inputs for the benchmark, each with the answer expected of it.

Expectations are computed here from the geometry of each input with plain
integer and Fraction arithmetic, following the rules the paper states
(pants, caps and surgeries for chi; sweep parities for the mod-2 class;
P2 = chi mod 4).  Nothing in this file calls troplag, so a wrong engine
answer cannot agree with its own expectation.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction as F
from math import gcd, lcm
from pathlib import Path

# Primitive directions with coordinates in [-2, 2]: every boundary landing
# in a rectangle then has mu in {1, 2}, the only values with a surface.
DIRECTIONS = tuple((x, y) for x in range(-2, 3) for y in range(-2, 3)
                   if (x, y) != (0, 0) and gcd(abs(x), abs(y)) == 1)
TRIPLES = tuple((u, v, w) for u in DIRECTIONS for v in DIRECTIONS
                for w in [(-u[0] - v[0], -u[1] - v[1])]
                if w in DIRECTIONS and len({u, v, w}) == 3)
# direction d -> pairs (a, b) with a + b = d: the two rays a new vertex at
# the far end of an edge of direction d sends on.
SPLITS = {}
for _a in DIRECTIONS:
    for _b in DIRECTIONS:
        _d = (_a[0] + _b[0], _a[1] + _b[1])
        if _a != _b and _d in DIRECTIONS:
            SPLITS.setdefault(_d, []).append((_a, _b))

FIGURES = ("fig1_left", "fig1_right", "fig2_klein", "fig3_family",
           "fig4_squeeze")


# ---------------------------------------------------------------------
# Exact plane geometry
# ---------------------------------------------------------------------

def wedge(u, v):
    return u[0] * v[1] - u[1] * v[0]


def sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def primitive(v):
    x, y = F(v[0]), F(v[1])
    scale = lcm(x.denominator, y.denominator)
    x, y = int(x * scale), int(y * scale)
    g = gcd(x, y)
    return (x // g, y // g)


def orient(a, b, c):
    s = wedge(sub(b, a), sub(c, a))
    return (s > 0) - (s < 0)


def _on_segment(p, a, b):
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def segments_meet(a, b, c, d):
    """Whether the closed segments [a,b] and [c,d] share a point."""
    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    return ((o1 == 0 and _on_segment(c, a, b))
            or (o2 == 0 and _on_segment(d, a, b))
            or (o3 == 0 and _on_segment(a, c, d))
            or (o4 == 0 and _on_segment(b, c, d)))


def first_hit(polygon, origin, direction):
    """(point, edge direction) where the ray from an interior point leaves
    the convex polygon, or None when it leaves through a corner."""
    best = None
    for i, start in enumerate(polygon):
        end = polygon[(i + 1) % len(polygon)]
        edge = sub(end, start)
        denom = wedge(direction, edge)
        if denom == 0:
            continue
        w = sub(start, origin)
        t = F(wedge(w, edge), denom)
        s = F(wedge(w, direction), denom)
        if t > 0 and 0 <= s <= 1 and (best is None or t < best[0]):
            best = (t, s, edge)
    t, s, edge = best
    if s in (0, 1):
        return None
    point = (origin[0] + t * direction[0], origin[1] + t * direction[1])
    return point, primitive(edge)


def box(width, height):
    return [(F(0), F(0)), (width, F(0)), (width, height), (F(0), height)]


# ---------------------------------------------------------------------
# Expectations
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class Surface:
    closed: bool
    orientable: bool
    chi: int
    k: int | None
    g: int | None
    boundary: int
    double_points: int


def surface(multiplicities, disc_caps, crosscaps, collars) -> Surface:
    """Pants per vertex (-1), +1 per disc cap, -2 per surgered double point;
    closed iff no collar, orientable iff no cross-cap."""
    double_points = sum((m - 1) // 2 for m in multiplicities)
    chi = -len(multiplicities) + disc_caps - 2 * double_points
    closed, orientable = collars == 0, crosscaps == 0
    return Surface(closed, orientable, chi,
                   2 - chi if closed and not orientable else None,
                   (2 - chi) // 2 if closed and orientable else None,
                   collars, double_points)


@dataclass(frozen=True)
class Expect:
    """What one item should produce: an error (its class name, and the line
    for a parse error), the issue codes of an invalid curve, or a
    certificate."""

    error: str | None = None
    error_line: int | None = None
    issues: frozenset = frozenset()
    surface: Surface | None = None
    parities: tuple | None = None      # (horizontal, vertical)
    mod2: tuple | None = None
    p2: int | None = None
    audin: bool | None = None
    curve_lines: int | None = None


def sweep_parities(segments, width, height):
    """(horizontal, vertical) sweep parities of closed-curve segments
    (a, b, u): the sum of |u.x| over segments crossing a generic horizontal
    line, and of |u.y| over those crossing a vertical one, mod 2.  The line
    is the first gap between critical coordinates, not the engine's choice;
    for a closed balanced curve any generic line gives the same parity."""
    result = []
    for axis, size, weight in ((1, height, 0), (0, width, 1)):
        coords = sorted({F(0), size} | {p[axis] for a, b, _ in segments
                                        for p in (a, b)})
        line = (coords[0] + coords[1]) / 2
        total = sum(abs(u[weight]) for a, b, u in segments
                    if min(a[axis], b[axis]) < line < max(a[axis], b[axis]))
        result.append(total % 2)
    return tuple(result)


def rectangle_class(parities, chi):
    """Class (c_h, c_v) in the basis (sphere_h, sphere_v), P2 and the Audin
    verdict, for the rectangle form [[0,1],[1,0]].  Under that form pairing
    with sphere_v (the vertical sweep) picks out c_h, and pairing with
    sphere_h picks out c_v."""
    horizontal, vertical = parities
    c = (vertical, horizontal)
    p2 = (2 * c[0] * c[1]) % 4
    return c, p2, (p2 - chi) % 4 == 0


# ---------------------------------------------------------------------
# Curves in a rectangle, as the benchmark draws them
# ---------------------------------------------------------------------

@dataclass
class Sketch:
    """A curve in [0,width] x [0,height]: vertices by id, edges (id, src,
    dst), ends (id, vertex, direction, landing)."""

    name: str
    width: F
    height: F
    vertices: dict = field(default_factory=dict)
    edges: list = field(default_factory=list)
    ends: list = field(default_factory=list)

    def edge_direction(self, src, dst):
        return primitive(sub(self.vertices[dst], self.vertices[src]))

    def segments(self):
        """(a, b, direction, vertex ids touching it)."""
        out = [(self.vertices[s], self.vertices[d], self.edge_direction(s, d),
                {s, d}) for _, s, d in self.edges]
        out += [(self.vertices[v], landing, u, {v})
                for _, v, u, landing in self.ends]
        return out

    def crossed(self) -> bool:
        """Whether two segments meet anywhere but a vertex both touch."""
        segs = self.segments()
        for i, (a, b, _, ids1) in enumerate(segs):
            for c, d, _, ids2 in segs[i + 1:]:
                if not ids1 & ids2 and segments_meet(a, b, c, d):
                    return True
        return False

    def outgoing(self, vid):
        out = [self.edge_direction(s, d) for _, s, d in self.edges if s == vid]
        out += [self.edge_direction(d, s) for _, s, d in self.edges
                if d == vid]
        out += [u for _, v, u, _ in self.ends if v == vid]
        return out

    def multiplicities(self):
        return [abs(wedge(*self.outgoing(v)[:2])) for v in self.vertices]

    def end_mu(self, end):
        _, _, u, landing = end
        vertical_side = landing[0] in (0, self.width)
        return abs(u[0]) if vertical_side else abs(u[1])

    def text(self) -> str:
        lines = [f"diagram rectangle width={self.width} height={self.height}",
                 f"curve {self.name}"]
        lines += [f"vertex {v} ({x},{y})" for v, (x, y) in self.vertices.items()]
        lines += [f"edge {e} {s} {d}" for e, s, d in self.edges]
        lines += [f"end {e} {v} dir=({u[0]},{u[1]}) land=({p[0]},{p[1]})"
                  for e, v, u, p in self.ends]
        return "\n".join(lines) + "\n"

    def expect(self) -> Expect:
        mus = [self.end_mu(e) for e in self.ends]
        shape = surface(self.multiplicities(), 0, mus.count(2), mus.count(1))
        lines = len(self.edges) + len(self.ends)
        if not shape.closed:
            return Expect(surface=shape, curve_lines=lines)
        parities = sweep_parities([s[:3] for s in self.segments()],
                                  self.width, self.height)
        c, p2, audin = rectangle_class(parities, shape.chi)
        return Expect(surface=shape, parities=parities, mod2=c, p2=p2,
                      audin=audin, curve_lines=lines)


def family_sketch(ell: int) -> Sketch:
    """The genus 20*ell + 2 family in [0, 10*ell+2] x [0, 3], drawn from the
    paper's description: blocks of four multiplicity-5 vertices chained by
    (3,1) and (2,-1) edges, every end landing with mu = 2."""
    width = F(10 * ell + 2)
    sk = Sketch(f"family_ell{ell}", width, F(3))
    half = F(1, 2)
    for j in range(ell):
        x = 10 * j
        sk.vertices.update({f"a{j}": (F(x + 2), F(1)), f"b{j}": (F(x + 5), F(2)),
                            f"c{j}": (F(x + 7), F(1)), f"d{j}": (F(x + 10), F(2))})
        sk.edges += [(f"ab{j}", f"a{j}", f"b{j}"), (f"bc{j}", f"b{j}", f"c{j}"),
                     (f"cd{j}", f"c{j}", f"d{j}")]
        if j + 1 < ell:
            sk.edges.append((f"da{j}", f"d{j}", f"a{j + 1}"))
        sk.ends += [
            (f"down_a{j}", f"a{j}", (-1, -2), (x + 2 - half, F(0))),
            (f"up_b{j}", f"b{j}", (1, 2), (x + 5 + half, F(3))),
            (f"down_c{j}", f"c{j}", (-1, -2), (x + 7 - half, F(0))),
            (f"up_d{j}", f"d{j}", (1, 2), (x + 10 + half, F(3))),
        ]
    sk.ends.append(("left", "a0", (-2, 1), (F(0), F(2))))
    sk.ends.append(("right", f"d{ell - 1}", (2, -1), (width, F(1))))
    return sk


def family_item(ell: int) -> "Item":
    sk = family_sketch(ell)
    expect = sk.expect()
    # The paper's numbers for the family, as a check on the drawing.
    if (expect.surface != Surface(True, False, -20 * ell, 20 * ell + 2, None,
                                  0, 8 * ell)
            or expect.mod2 != (1, 0) or expect.audin is not True
            or expect.curve_lines != 8 * ell + 1 or sk.crossed()):
        raise AssertionError(f"family sketch for ell={ell} is off: {expect}")
    return Item("family", text=sk.text(), expect=expect)


def grow_tree(rng, width, height, target):
    """A random trivalent tree of at most target vertices with weight-one
    ends on the boundary, grown from balanced direction triples, or None
    when an end hits a corner."""
    start = (F(rng.randint(int(width) // 3, 2 * int(width) // 3)),
             F(rng.randint(int(height) // 3, 2 * int(height) // 3)))
    sk = Sketch("tree", width, height, {"v0": start})
    rays = [("v0", d) for d in rng.choice(TRIPLES)]
    while rays and len(sk.vertices) < target:
        index = rng.randrange(len(rays))
        vid, d = rays[index]
        step = rng.randint(1, 3)
        x, y = sk.vertices[vid]
        new = (x + step * d[0], y + step * d[1])
        if d not in SPLITS or not (2 <= new[0] <= width - 2
                                   and 2 <= new[1] <= height - 2):
            break
        rays.pop(index)
        nid = f"v{len(sk.vertices)}"
        sk.vertices[nid] = new
        sk.edges.append((f"e{len(sk.edges)}", vid, nid))
        rays += [(nid, a) for a in rng.choice(SPLITS[d])]
    polygon = box(width, height)
    for i, (vid, d) in enumerate(rays):
        hit = first_hit(polygon, sk.vertices[vid], d)
        if hit is None:
            return None
        sk.ends.append((f"x{i}", vid, d, hit[0]))
    return sk


def random_tree(rng, crossed: bool, target: int) -> Sketch:
    """A tree with odd multiplicities that is embedded (crossed=False) or
    has two segments meeting away from a shared vertex (crossed=True)."""
    while True:
        width, height = F(rng.randint(14, 24)), F(rng.randint(14, 24))
        sk = grow_tree(rng, width, height, target)
        if sk is None or sk.crossed() != crossed:
            continue
        if crossed or all(m % 2 for m in sk.multiplicities()):
            return sk


def unbalanced_text(rng) -> str:
    """One vertex whose two or three ends do not sum to zero."""
    while True:
        width, height = F(rng.randint(4, 12)), F(rng.randint(4, 12))
        position = (F(rng.randint(1, int(width) - 1)),
                    F(rng.randint(1, int(height) - 1)))
        dirs = rng.sample(DIRECTIONS, rng.choice((2, 3)))
        if (sum(d[0] for d in dirs), sum(d[1] for d in dirs)) == (0, 0):
            continue
        sk = Sketch("unbalanced", width, height, {"v": position})
        hits = [first_hit(box(width, height), position, d) for d in dirs]
        if None in hits:
            continue
        sk.ends = [(f"e{i}", "v", d, hit[0])
                   for i, (d, hit) in enumerate(zip(dirs, hits))]
        if not sk.crossed():
            return sk.text()


def malformed(rng, text: str):
    """A document made malformed in one place, with the line to blame."""
    lines = text.splitlines()
    kind = rng.randrange(4)
    if kind == 0:       # a decimal where an exact rational is required
        lines[0] = re.sub(r"width=\S+", "width=2.5", lines[0])
        return "\n".join(lines) + "\n", 1
    if kind == 1:       # an unknown directive
        at = rng.randint(2, len(lines) + 1)
        lines.insert(at - 1, "vertx q (1,1)")
        return "\n".join(lines) + "\n", at
    if kind == 2:       # a vertex id declared twice
        first = next(line for line in lines if line.startswith("vertex"))
        return "\n".join(lines + [first]) + "\n", len(lines) + 1
    ends = [i for i, line in enumerate(lines) if line.startswith("end ")]
    at = rng.choice(ends)   # an end without dir=
    lines[at] = " ".join(tok for tok in lines[at].split()
                         if not tok.startswith("dir="))
    return "\n".join(lines) + "\n", at + 1


def rp2_params(rng, case: str):
    """(a, b, c, s) for rp2_curve: 'plane' satisfies the strict triangle
    inequalities, 'disc' breaks a < b+c or b < a+c strictly, 'outside'
    breaks c < a+b strictly.  s is large enough for both nodes and cuts."""
    def size():
        return F(rng.randint(1, 12), rng.choice((1, 2, 3)))
    while True:
        a, b, c = size(), size(), size()
        ok = (a < b + c, b < a + c, c < a + b)
        if case == "plane" and all(ok):
            break
        if case == "disc" and ok[2] and not all(ok) and abs(a - b) != c:
            break
        if case == "outside" and c > a + b:
            break
    return a, b, c, 2 * (a + b + c) + 1


def rp2_expect(a, b, c, s) -> Expect:
    """Vertex (a,b) of multiplicity 1, two disc caps at the nodes, and a
    (-1,-1) end whose cap depends on the edge it lands on."""
    if not c < a + b:
        return Expect(error="InvalidCurve")
    polygon = [(F(0), c), (c, F(0)), (s, F(0)), (F(0), s)]
    landing, edge = first_hit(polygon, (a, b), (-1, -1))
    mu = abs(wedge((-1, -1), edge))
    shape = surface([1], 2, int(mu == 2), int(mu == 1))
    if shape.closed != (a < b + c and b < a + c):
        raise AssertionError(f"rp2 geometry disagrees with the triangle "
                             f"inequalities at {(a, b, c)}")
    if not shape.closed:
        return Expect(surface=shape, curve_lines=3)
    # Lift E1 + E2 + E3 under the form -I: P2 = -3 mod 4.
    p2 = -3 % 4
    return Expect(surface=shape, p2=p2, audin=(p2 - shape.chi) % 4 == 0,
                  curve_lines=3)


def visible_params(rng, klein: bool):
    width = F(rng.randint(2, 12), rng.choice((1, 2)))
    if klein:
        return width, width / 2 + F(rng.randint(1, 8), rng.choice((2, 3, 4)))
    return width, width / 2 * F(rng.randint(1, 10), 10)


def visible_expect(width, height) -> Expect:
    """The centred slope-1/2 segment: a Klein bottle iff height > width/2,
    otherwise it leaves through a horizontal edge or a corner."""
    if not height > width / 2:
        return Expect(error="DoesNotFit")
    centre = (width / 2, height / 2)
    shape = surface([], 0, 2, 0)
    ends = [(centre, (width, height / 2 + width / 4), (2, 1)),
            (centre, (F(0), height / 2 - width / 4), (-2, -1))]
    parities = sweep_parities(ends, width, height)
    c, p2, audin = rectangle_class(parities, shape.chi)
    return Expect(surface=shape, parities=parities, mod2=c, p2=p2,
                  audin=audin, curve_lines=2)


@dataclass(frozen=True)
class Item:
    kind: str
    text: str | None = None          # document text, for kinds read as text
    params: tuple = ()               # construction arguments (rp2, visible)
    lift: tuple | None = None        # integral lift where no sweeps exist
    expect: Expect = Expect()


# Soup composition, in items per 20.  Fixed so that every seed draws the
# same mix and only the shapes and sizes vary.
SOUP_MIX = (("tree", 8), ("rp2", 3), ("visible", 3), ("unbalanced", 2),
            ("crossing", 2), ("malformed", 2))


def soup_items(seed: int, count: int):
    rng = random.Random(seed)
    kinds = []
    for kind, share in SOUP_MIX:
        kinds += [kind] * (count * share // 20)
    kinds += ["tree"] * (count - len(kinds))
    items = []
    for i, kind in enumerate(kinds):
        # Sizes cycle rather than being drawn, so that the mix costs the
        # same on every seed.
        target = 1 + i % 8
        if kind == "tree":
            sk = random_tree(rng, crossed=False, target=target)
            items.append(Item(kind, text=sk.text(), expect=sk.expect()))
        elif kind == "crossing":
            sk = random_tree(rng, crossed=True, target=max(3, target))
            items.append(Item(kind, text=sk.text(),
                              expect=Expect(issues=frozenset({"embedding"}))))
        elif kind == "unbalanced":
            items.append(Item(kind, text=unbalanced_text(rng),
                              expect=Expect(issues=frozenset({"balancing"}))))
        elif kind == "malformed":
            text, line = malformed(rng, random_tree(rng, False, target).text())
            items.append(Item(kind, text=text,
                              expect=Expect(error="ParseError", error_line=line)))
        elif kind == "rp2":
            case = ("plane", "plane", "plane", "disc", "disc", "outside")[i % 6]
            params = rp2_params(rng, case)
            items.append(Item(kind, params=params, lift=(1, 1, 1),
                              expect=rp2_expect(*params)))
        else:
            params = visible_params(rng, klein=i % 10 < 7)
            items.append(Item(kind, params=params,
                              expect=visible_expect(*params)))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------
# Command lines
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    """One `troplag` invocation, or a pipe of two when feed is set, with its
    expected exit code and output."""

    argv: tuple
    feed: tuple | None = None        # argv whose stdout is this one's stdin
    stdin: str | None = None
    code: int = 0
    stdout: str | None = None        # exact expected output
    contains: tuple = ()             # lines expected in the output


def family_topology_text(ell: int) -> str:
    name, v = f"family_ell{ell}", 4 * ell
    chi = -20 * ell
    return "".join(f"curve {name}: {line}\n" for line in (
        f"vertices={v} edges={v - 1} ends={v + 2}",
        f"end kinds: disccap=0 crosscap={v + 2} collar=0",
        f"vertex multiplicities: m=5 x{v}",
        f"double points surgered = {8 * ell}",
        f"chi = {chi} (vertices {-v:+d}, caps +0, surgeries {-16 * ell:+d})",
        f"closed nonorientable surface, chi={chi}, "
        f"nonorientable genus k={20 * ell + 2}",
    ))


def _curve_names(text):
    return [line.split()[1] for line in text.splitlines()
            if line.startswith("curve ")]


def cli_commands(root: Path, seed: int):
    """The command mix: every report on the bundled figures against the
    pinned goldens, generator pipes, the threshold calculators on both
    sides, a check failure, and malformed input.  Commands that fail today
    are not in the mix but in KNOWN_DEFECTS."""
    rng = random.Random(seed)
    figures, golden = root / "figures", root / "tests" / "golden"
    cmds = []
    for name in FIGURES:
        path = f"figures/{name}.trop"
        text = (figures / f"{name}.trop").read_text(encoding="utf-8")
        cmds.append(Command(("validate", path), contains=tuple(
            f"curve {c}: valid" for c in _curve_names(text))))
        cmds.append(Command(("topology", path), stdout=(
            golden / f"{name}.topology.txt").read_text(encoding="utf-8")))
        cmds.append(Command(("render", path, "-o", "-"), stdout=(
            golden / f"{name}.svg").read_text(encoding="utf-8")))
    for name in ("fig2_klein", "fig3_family"):
        cmds.append(Command(("homology", f"figures/{name}.trop"), stdout=(
            golden / f"{name}.homology.txt").read_text(encoding="utf-8")))
    cmds.append(Command(("audin", "figures/fig2_klein.trop"), stdout=(
        golden / "fig2_klein.audin.txt").read_text(encoding="utf-8")))
    cmds.append(Command(("validate", "figures/invalid_unbalanced.trop"),
                        code=1, contains=("curve broken: INVALID",)))

    ell = rng.randint(1, 3)
    cmds.append(Command(("topology", "-"), feed=("gen-family", str(ell)),
                        stdout=family_topology_text(ell)))
    width, height = visible_params(rng, klein=True)
    c = visible_expect(width, height)
    cmds.append(Command(("homology", "-"),
                        feed=("gen-visible", str(width), str(height)),
                        contains=(
        f"curve visible: horizontal sweep parity = {c.parities[0]}",
        f"curve visible: vertical sweep parity = {c.parities[1]}",
        f"curve visible: mod2 class = ({c.mod2[0]},{c.mod2[1]}) = sphere_h")))
    for case in ("plane", "disc"):
        a, b, c3, _ = rp2_params(rng, case)
        ok = case == "plane"
        cmds.append(Command(("triangle", str(a), str(b), str(c3)),
                            code=0 if ok else 1,
                            contains=("satisfied: all three strict "
                                      "inequalities hold",) if ok else ()))
    lam = F(rng.randint(1, 400), rng.choice((1, 2, 3)))
    ell = next(e for e in range(1, 10 ** 6) if lam < 10 * e + 2)
    k = 2 if lam < 2 else 20 * ell + 2
    cmds.append(Command(("genus-bound", str(lam)), contains=tuple(
        [f"lambda = {lam}: nonorientable genus bound k = {k}, "])))
    above = 1 + F(rng.randint(1, 9), rng.choice((2, 4, 10)))
    below = F(rng.randint(1, 10), 10)
    cmds.append(Command(("squeeze", str(above)), code=0))
    cmds.append(Command(("squeeze", str(below)), code=1))

    # Input errors: each must exit 2 with a message, never a traceback.
    cmds.append(Command(("validate", "-"), code=2,
                        stdin="diagram rectangle width=1.5 height=2\n"))
    cmds.append(Command(("topology", "-"), code=2,
                        stdin="curve c\nvertex v (1,1)\n"))
    cmds.append(Command(("gen-family", "0"), code=2))
    rng.shuffle(cmds)
    return cmds


# Inputs on which troplag is known to be wrong, each with the answer it
# should give.  They are probed once per cli run, outside the measured mix,
# and the probes that still fail are reported by name (cli.known_defects).
KNOWN_DEFECTS = {
    # Exits 1 with an IndexError traceback from textio.parse_document.
    "empty polygon exits 2": Command(("validate", "-"),
                                     stdin="diagram polygon\n", code=2),
}
