"""Write tests/answer_corpus.json: seeded documents with every certified
fact about them, for test_acceptance.py::test_answer_corpus_replays to
replay.

    PYTHONPATH=src python tests/make_answer_corpus.py

A case names its source and, unless the source rebuilds it, the document
text.  The sources are the figures, trop_family(1..6), conftest
random_curve trees (seeded), rp2_curve and visible_segment with rational
parameters on both sides of their thresholds (a refusal is recorded as its
type and message), and copies of those documents with one number changed,
most of them invalid.  Per document the answers are the diagram's public
values, the sha256 of its SVG (rendered on a fresh parse, before any other
reading), and per curve: the validate lines and, for a valid curve, the
cap kinds, ChiBreakdown, SurfaceClass, the oracle's SurfaceClass, the
mod-2 class with its two default sweeps, and the audin lines (with the
all-ones lift where there is no class), each a value or a refusal.
Regenerate it only for an intended answer change, and name each changed
entry when doing so.
"""
import hashlib
import json
import random
import re
import sys
from fractions import Fraction as F
from pathlib import Path

from conftest import FIGURES, cut_segments, polygon_edges, random_curve
from troplag import (Document, IntVec, ParseError, RatPoint, TroplagError,
                     parse_document, rectangle, render_document, rp2_curve,
                     serialize_document, trop_family, visible_segment)
from troplag.reports import _audin_lines
from troplag.homology import SweepDirection, mod2_class, sweep_parity
from troplag.lattice import primitive_pair
from troplag.topology import (build_presentation, euler_breakdown,
                              oracle_classify)
from troplag.tropical import end_kinds, validate

CORPUS = Path(__file__).resolve().parent / "answer_corpus.json"
RANDOM_TREES = 48
MUTATIONS = 90

# (a, b, c, s) of rp2_curve: the plane (strict triangle inequalities), a
# disc (one strictly broken), outside (c > a + b), and the two equalities.
RP2_PARAMS = (
    ("1", "1", "4/3", "4"), ("3/2", "2", "5/2", "13"),
    ("2/3", "3/4", "1", "7"), ("5", "4", "3", "25"),
    ("1", "3", "3/2", "12"), ("7/2", "1", "2", "14"),
    ("1/2", "5/2", "1", "9"), ("2", "1/3", "4/3", "9"),
    ("1", "1", "3", "11"), ("1/2", "1/3", "1", "5"),
    ("1", "2", "3", "13"), ("1", "3", "2", "13"),
    ("2/3", "1/3", "1", "6"),
)
# (width, height) of the centred slope-1/2 segment: height > width/2 gives
# a Klein bottle; equality exits through a corner, below through a side.
VISIBLE_PARAMS = (
    ("4", "5/2"), ("7/2", "3"), ("2", "3/2"), ("11/2", "13/4"),
    ("9", "5"), ("4", "2"), ("7/2", "7/4"), ("5", "2"), ("6", "1/2"),
    ("3/2", "2/3"),
)


def refusal(err):
    return {"error": type(err).__name__, "message": str(err)}


def attempt(compute):
    """compute(), or the refusal of the TroplagError it raised."""
    try:
        return compute()
    except TroplagError as err:
        return refusal(err)


def edge_facts(a, b):
    """The edge from a to b as text: its ends, its primitive direction u
    and its lattice length t, with b = a + t*u."""
    u = IntVec(*primitive_pair(a, b))
    t = (b.x - a.x) / u.x if u.x else (b.y - a.y) / u.y
    return [str(a), str(b), str(u), str(t)]


def diagram_facts(diagram):
    """The diagram's public values, as text; each cut ends where
    exit_point finds its ray leaves the polygon."""
    return {
        "name": diagram.name, "kind": diagram.kind,
        "params": None if diagram.params is None else {
            key: str(value) for key, value in diagram.params.items()},
        "vertices": [str(v) for v in diagram.polygon_vertices],
        "edges": [edge_facts(a, b) for a, b in polygon_edges(diagram)],
        "bounds": [str(b) for b in diagram.bounds()],
        "nodes": [[str(n.position), str(n.cut_direction)]
                  for n in diagram.nodes],
        "cuts": [[str(a), str(b)] for a, b in cut_segments(diagram)],
        "homology": repr(tuple(diagram.homology)),
        "is_rectangle": diagram.is_rectangle,
    }


def curve_facts(doc, curve):
    diagram = doc.diagram
    report = validate(diagram, curve)
    facts = {"validate": report.lines()}
    if not report.passed:
        return facts
    facts["kinds"] = attempt(lambda: [k.value for k in
                                      end_kinds(diagram, curve)])
    facts["breakdown"] = attempt(lambda: repr(euler_breakdown(diagram,
                                                              curve)))
    facts["surface"] = attempt(
        lambda: repr(euler_breakdown(diagram, curve).surface_class()))
    facts["oracle"] = attempt(lambda: repr(oracle_classify(
        build_presentation(diagram, curve))))

    def mod2():
        cls = mod2_class(diagram, curve)
        return [str(cls), cls.label_sum(),
                [[s.direction.value, s.parity, str(s.witness_line_coordinate)]
                 for s in (sweep_parity(diagram, curve, direction)
                           for direction in SweepDirection)]]

    facts["mod2"] = attempt(mod2)
    facts["audin"] = attempt(lambda: list(_audin_lines(doc, curve, None)))
    rank = diagram.homology.rank
    if "error" in facts["mod2"] and rank:
        facts["audin_ones"] = attempt(
            lambda: list(_audin_lines(doc, curve, (1,) * rank)))
    return facts


def answers(text):
    """Every fact the corpus pins about one document."""
    try:
        doc = parse_document(text)
    except ParseError as err:
        return refusal(err)
    svg = attempt(lambda: hashlib.sha256(
        render_document(doc).encode("utf-8")).hexdigest())
    doc = parse_document(text)
    return {"diagram": diagram_facts(doc.diagram), "svg": svg,
            "curves": [curve_facts(doc, curve) for curve in doc.curves]}


def _document(diagram, curve):
    return serialize_document(Document(diagram, (curve,)))


def build(source):
    """The text of a source that rebuilds its document, or its refusal."""
    kind, *args = source
    if kind == "figure":
        return (FIGURES / args[0]).read_text(encoding="utf-8")
    if kind == "family":
        instance = trop_family(args[0])
        return _document(instance.diagram, instance.curve)
    if kind == "random":
        seed, max_vertices, size = args
        return _document(*random_curve(random.Random(seed), max_vertices,
                                       size))
    if kind == "rp2":
        return attempt(lambda: _document(*rp2_curve(*map(F, args))))
    if kind == "visible":
        width, height = map(F, args)

        def segment():
            diagram = rectangle(width, height)
            return _document(diagram, visible_segment(
                diagram, IntVec(2, 1), RatPoint(width / 2, height / 2)))
        return attempt(segment)
    raise ValueError(f"unknown source {kind!r}")


def sources():
    out = [("figure", path.name) for path in sorted(FIGURES.glob("*.trop"))]
    out += [("family", ell) for ell in range(1, 7)]
    out += [("random", seed, 1 + seed % 8, (24, 12, 9)[seed % 3])
            for seed in range(RANDOM_TREES)]
    out += [("rp2", *params) for params in RP2_PARAMS]
    out += [("visible", *params) for params in VISIBLE_PARAMS]
    return out


# A coordinate of a point or the value of a key=, after "(", "," or "=".
_NUMBER = re.compile(r"(?<=[(,=])-?[0-9]+(?:/[0-9]+)?")
_NUDGES = ("1/2", "-1/3", "1", "-1", "1/4", "2/3")


def mutate(text, rng):
    """text with one number of a diagram, vertex or end line moved by a
    small rational; directions and node indices are left as they are."""
    lines = text.split("\n")
    numbers = [(n, m) for n, line in enumerate(lines)
               if line.split()[:1] in (["diagram"], ["vertex"], ["end"])
               for word in re.finditer(r"\S+", line)
               if not word[0].startswith(("dir=", "node="))
               for m in _NUMBER.finditer(line, word.start(), word.end())]
    n, m = rng.choice(numbers)
    value = F(m[0]) + F(rng.choice(_NUDGES))
    lines[n] = lines[n][:m.start()] + str(value) + lines[n][m.end():]
    return "\n".join(lines)


def cases():
    built = []
    for source in sources():
        text = build(source)
        case = {"source": list(source)}
        if isinstance(text, dict):
            built.append({**case, "refusal": text})
            continue
        if source[0] != "figure":
            case["text"] = text
        built.append({**case, "answers": answers(text), "_text": text})
    rng = random.Random(26)
    bases = [case for case in built if "_text" in case]
    done = set()
    while len(done) < MUTATIONS:
        base = rng.choice(bases)
        new = mutate(base["_text"], rng)
        if new != base["_text"]:
            done.add(new)
    built += [{"source": ["mutation"], "text": text, "answers": answers(text)}
              for text in sorted(done)]
    for case in built:
        case.pop("_text", None)
    return built


def main():
    rows = [json.dumps(case, sort_keys=True) for case in cases()]
    CORPUS.write_text("[\n" + ",\n".join(rows) + "\n]\n", encoding="utf-8")
    print(f"{len(rows)} cases, {CORPUS.stat().st_size} bytes",
          file=sys.stderr)


if __name__ == "__main__":
    main()
