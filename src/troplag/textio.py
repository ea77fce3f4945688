"""The line-oriented text format for diagrams and curves.

    # comments run to end of line; blank lines are ignored
    diagram rectangle width=<rat> height=<rat>
    diagram xabc a=<rat> b=<rat> c=<rat> s=<rat>
    diagram polygon (<rat>,<rat>) ... ; node (<rat>,<rat>) cut=(<int>,<int>)
        ... ; basis <names> ; form <row-major ints>
        [; sweepclasses h=<ints> v=<ints>]
    curve <name>
    vertex <id> (<rat>,<rat>)
    edge <id> <from> <to>
    end <id> <from> dir=(<int>,<int>) [land=(<rat>,<rat>)] [node=<index>]

A line ends at CR LF, CR or LF only: any other break (VT, FF, U+001C to
U+001E, U+0085, U+2028, U+2029) is whitespace inside its line, as
str.split() and the patterns take it, and cannot end a comment.
Rationals are written exactly ("3", "22/7", "-4/3"); decimals are a syntax
error; a point is built from its digits, with no Fraction.  Edges and ends
have weight one: an edge may still say `weight=1`, and any other weight is
a syntax error at that token.  An end's <from> is a vertex id, or a point
literal for a standalone segment.  Exactly one of land= / node= must be
given.  Syntax errors carry line and column; errors in building a diagram
(a side of length zero, a non-primitive cut, an asymmetric form) point at
its kind token, and errors in building a curve (an unknown vertex, a
non-primitive direction) at its `curve` header; geometric errors (a
landing off the boundary, say) are deferred to validate().

A line's body (before any `#`) is matched whole by the one anchored
pattern its first word picks: for a rectangle or xabc line its kind's
(_diagram), whose rationals go to its builder, and in a curve block the
pattern of its element, whose row is appended when the id is new.  When
the pattern matches and int() takes every number there is no split.  Any
other line is split into words and kept as its number, body and words:
the polygon diagram and the curve headers are read word by word, and a
refused diagram or element line is read word by word to raise its error.
An error's column is where its word starts, plus len("key=") inside a
key=value word; a builder's refusal of a matched line points at its kind.

A curve block is read into rows, not records: vertex ids with their
reduced (X, Y, W) point triples, edges as (id, src id, dst id), and ends
as (id, source, (dx, dy), terminal), the source a vertex id or an anchor
triple and the terminal a node index or a landing triple.
TropicalCurve.of_rows turns them into the curve's columns at the end of
the block.  Serialization reads the columns back, so neither a parse, a
certification nor a serialization makes a record; the curve builds its
records only when a caller reads them.
"""
import re
import sys
from fractions import Fraction
from functools import cache, partial
from itertools import islice
from typing import NamedTuple

from .errors import TroplagError
from .diagram import (
    BaseDiagram,
    HomologyModel,
    InvalidDiagram,
    Node,
    rectangle,
    x_abc,
)
from .lattice import (IntVec, RatPoint, _DEN, _INT, _INTEGER, _RATIONAL,
                      point_text, reduced)
from .tropical import InvalidCurve, TropicalCurve


class ParseError(TroplagError):
    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class Document(NamedTuple):
    diagram: BaseDiagram
    curves: tuple[TropicalCurve, ...]


# A point's numerators and denominators, each denominator optional.
_PAIR = rf"\(({_INT})(?:/({_DEN}))?,({_INT})(?:/({_DEN}))?\)"
_POINT = _PAIR + r"\Z"
_ID = r"([A-Za-z_][A-Za-z0-9_.-]*)"
_NAME = _ID + r"\Z"
_WORD = r"\S+"  # a word of str.split(), with its offset
# The diagram kinds given by rationals: the builder and the keys in order.
_PARAMETRIC = {"rectangle": (rectangle, ("width", "height")),
               "xabc": (x_abc, ("a", "b", "c", "s"))}

# One pattern per element line, anchored at both ends; \s is the
# whitespace str.split() splits on.  An end's dir= and terminal come in
# either order: each lookahead finds its word among the last two.  Like the
# word patterns above, they are compiled in re's cache on first use.
_ELEMENTS = {
    "vertex": rf"\s*vertex\s+{_ID}\s+{_PAIR}\s*\Z",
    "edge": rf"\s*edge\s+{_ID}\s+{_ID}\s+{_ID}(?:\s+weight=({_INT}))?\s*\Z",
    "end": rf"\s*end\s+{_ID}\s+(?:{_ID}|{_PAIR})\s+"
           rf"(?=(?:\S+\s+)?dir=\(({_INT}),({_INT})\)(?:\s|\Z))"
           rf"(?=(?:\S+\s+)?(?:land={_PAIR}|node=({_INT}))(?:\s|\Z))"
           r"\S+\s+\S+\s*\Z",
}


@cache
def _matchers():
    """The element patterns' matchers, on the first parse."""
    return tuple(re.compile(p).match for p in _ELEMENTS.values())


@cache
def _diagram(kind):
    """The matcher of a whole line of kind (each key's numerator and
    denominator), compiled when a line of that kind first appears."""
    return re.compile(rf"\s*diagram\s+{kind}" + "".join(
        rf"\s+{key}=({_INT})(?:/({_DEN}))?" for key in _PARAMETRIC[kind][1])
        + r"\s*\Z").match


def _error(message: str, line, i: int = 0, skip: int = 0) -> ParseError:
    """The error at the i-th word of line, skip characters into it."""
    lineno, body, _ = line
    word = next(islice(re.finditer(_WORD, body), i, None))
    return ParseError(message, lineno, word.start() + 1 + skip)


def _read(pattern, message, build, text, line, i, skip=0):
    """build(match) of a word that pattern matches in full, refusing any
    other word with message and a number too long for int() at its place."""
    m = re.match(pattern, text)
    if m is None:
        raise _error(message.format(text), line, i, skip)
    try:
        return build(m)
    except ValueError:
        raise _error(f"a number has more than "
                     f"{sys.get_int_max_str_digits()} digits",
                     line, i, skip) from None


def _triple(xn, xd, yn, yd) -> tuple[int, int, int]:
    """The reduced (X, Y, W) of the point (xn/xd, yn/yd) of digit groups;
    None for xd or yd is 1."""
    if xd is None and yd is None:
        return int(xn), int(yn), 1
    xn, yn, xd, yd = int(xn), int(yn), int(xd or 1), int(yd or 1)
    return reduced(xn * yd, yn * xd, xd * yd)


# The word readers, called as reader(text, line, i, skip=0): the text of
# the i-th word of line, skip characters into the word.
_rational = partial(_read, _RATIONAL, "expected a rational like 3 or 22/7, "
                    "got {!r} (decimals are not allowed)",
                    lambda m: Fraction(*map(int, m[0].split("/"))))
_integer = partial(_read, _INTEGER, "expected an integer, got {!r}",
                   lambda m: int(m[0]))
_point = partial(_read, _POINT, "expected a point like (1,2/3), got {!r}",
                 lambda m: RatPoint.of(*_triple(*m.groups())))
_intvec = partial(_read, rf"\(({_INT}),({_INT})\)\Z",
                  "expected an integer vector like (2,-1), got {!r}",
                  lambda m: IntVec(int(m[1]), int(m[2])))
_name = partial(_read, _NAME, "expected a name, got {!r}", lambda m: m[0])
_intlist = partial(_read, rf"{_INT}(?:,{_INT})*\Z",
                   "expected comma-separated integers, got {!r}",
                   lambda m: tuple(map(int, m[0].split(","))))


def _keyvalue(line, i, key, read):
    """read applied to the value of the i-th word, which must be key=..."""
    text = line[2][i]
    prefix = key + "="
    if not text.startswith(prefix):
        raise _error(f"expected {key}=..., got {text!r}", line, i)
    return read(text[len(prefix):], line, i, len(prefix))


def _parse_polygon_diagram(line):
    words = line[2]
    cuts = [1, *(i for i, w in enumerate(words) if w == ";"), len(words)]
    sections = [range(a + 1, b) for a, b in zip(cuts, cuts[1:])]
    vertices = [_point(words[i], line, i) for i in sections[0]]
    if len(vertices) < 3:
        raise _error("polygon needs at least three vertices", line, 1)
    nodes = []
    basis = form = sweep_h = sweep_v = None
    given = set()
    for section in sections[1:]:
        if not section:
            raise _error("empty ';' section", line, 1)
        k = section[0]
        kind = words[k]
        if kind != "node" and kind in given:
            raise _error(f"{kind} given twice", line, k)
        given.add(kind)
        if kind == "node":
            if len(section) != 3:
                raise _error("node takes a position and cut=(dx,dy)", line, k)
            nodes.append(Node(_point(words[k + 1], line, k + 1),
                              _keyvalue(line, k + 2, "cut", _intvec)))
        elif kind == "basis":
            basis = tuple(_name(words[i], line, i) for i in section[1:])
        elif kind == "form":
            form = [_integer(words[i], line, i) for i in section[1:]]
        elif kind == "sweepclasses":
            if len(section) != 3:
                raise _error("sweepclasses takes h=... and v=...", line, k)
            sweep_h = _keyvalue(line, k + 1, "h", _intlist)
            sweep_v = _keyvalue(line, k + 2, "v", _intlist)
        else:
            raise _error(f"unknown diagram section {kind!r}", line, k)
    if basis is None:
        homology = HomologyModel((), ())
        if form is not None:
            raise _error("form given without basis", line, 1)
        if sweep_h is not None:
            raise _error("sweepclasses given without basis", line, 1)
    else:
        n = len(basis)
        if form is None or len(form) != n * n:
            raise _error(f"form must list {n}x{n} row-major integers",
                         line, 1)
        rows = tuple(tuple(form[i * n:(i + 1) * n]) for i in range(n))
        homology = HomologyModel(basis, rows,
                                 class_of_horizontal_sweep=sweep_h,
                                 class_of_vertical_sweep=sweep_v)
    return BaseDiagram(vertices, nodes, homology, name="polygon")


def _parse_diagram(line):
    words = line[2]
    if len(words) < 2:
        raise _error("diagram needs a kind", line)
    kind = words[1]
    if kind in _PARAMETRIC:
        build, keys = _PARAMETRIC[kind]
        if len(words) != 2 + len(keys):
            raise _error(" ".join(["diagram", kind,
                                   *(f"{key}=<rat>" for key in keys)]),
                         line, 1)
        return build(*(_keyvalue(line, i, key, _rational)
                       for i, key in enumerate(keys, start=2)))
    if kind == "polygon":
        return _parse_polygon_diagram(line)
    raise _error(f"unknown diagram kind {kind!r}", line, 1)


def parse_document(text: str) -> Document:
    """Parse a document; exact rationals only, duplicate ids rejected."""
    diagram = None
    curves = []
    # (header line, name, vertex ids, points, edges, ends) of the open
    # curve block, and its ids so far; seen is None outside a block.
    current = seen = None
    vertex, edge, end = _matchers()

    def flush():
        if current is not None:
            header, name, *rows = current
            try:
                curves.append(TropicalCurve.of_rows(name, *rows))
            except InvalidCurve as err:
                raise _error(str(err), header) from None

    # Only \r\n, \r and \n end a line (str.splitlines() ends more).
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0] if "#" in raw else raw
        # The first three letters of the first word pick the one pattern
        # tried (see the module docstring): lstrip() strips the \s that each
        # pattern starts with.  A diagram line's second word picks its kind.
        head = body.lstrip()[:3]
        try:
            if seen is None:
                words = (body.split(None, 2) if head == "dia"
                         and diagram is None else ())
                if len(words) > 1 and words[1] in _PARAMETRIC and (
                        m := _diagram(words[1])(body)):
                    n = m.groups()
                    diagram = _PARAMETRIC[words[1]][0](*[
                        Fraction(int(p), int(q)) if q else Fraction(int(p))
                        for p, q in zip(n[::2], n[1::2])])
                    continue
            elif head == "ver" and (m := vertex(body)):
                ident, xn, xd, yn, yd = m.groups()
                if ident not in seen:
                    points.append(_triple(xn, xd, yn, yd))
                    ids.append(ident)
                    seen.add(ident)
                    continue
            elif head == "edg" and (m := edge(body)):
                ident, src, dst, weight = m.groups()
                if ident not in seen and (weight is None or int(weight) == 1):
                    edges.append((ident, src, dst))
                    seen.add(ident)
                    continue
            elif head == "end" and (m := end(body)):
                (ident, name, axn, axd, ayn, ayd, dx, dy,
                 xn, xd, yn, yd, node) = m.groups()
                if ident not in seen:
                    ends.append((ident, name or _triple(axn, axd, ayn, ayd),
                                 (int(dx), int(dy)),
                                 int(node) if node is not None
                                 else _triple(xn, xd, yn, yd)))
                    seen.add(ident)
                    continue
        except ValueError:  # a number too long for int()
            pass
        except InvalidDiagram as err:  # at the kind, as by words
            raise _error(str(err), (lineno, body, body.split()), 1) from None
        words = body.split()
        if not words:
            continue
        line = (lineno, body, words)
        head = words[0]
        if head == "diagram":
            if diagram is not None:
                raise _error("only one diagram per document", line)
            try:
                diagram = _parse_diagram(line)
            except InvalidDiagram as err:
                # _parse_diagram rejects a missing kind
                raise _error(str(err), line, 1) from None
        elif head == "curve":
            if diagram is None:
                raise _error("curve before diagram", line)
            if len(words) != 2:
                raise _error("curve <name>", line)
            flush()
            ids, points, edges, ends, seen = [], [], [], [], set()
            current = (line, _name(words[1], line, 1), ids, points, edges,
                       ends)
        elif head in _ELEMENTS:
            if seen is None:
                raise _error(f"{head} outside a curve block", line)
            _refuse(line, seen)
        else:
            raise _error(f"unknown directive {head!r}", line)
    flush()
    if diagram is None:
        raise ParseError("document has no diagram", 1, 1)
    return Document(diagram, tuple(curves))


def _refuse(line, seen):
    """Raise the error in an element line that its pattern refused, or
    whose number int() refused: its words are read in order, as the
    format at the top of this module gives them, until one fails."""
    words = line[2]
    head = words[0]
    if len(words) < 2:
        raise _error(f"{head} needs an id", line)
    ident = _name(words[1], line, 1)
    if ident in seen:
        raise _error(f"duplicate id {ident!r}", line, 1)
    if head == "vertex":
        if len(words) != 3:
            raise _error("vertex <id> (<rat>,<rat>)", line)
        _point(words[2], line, 2)
    elif head == "edge":
        if len(words) not in (4, 5):
            raise _error("edge <id> <from> <to>", line)
        if len(words) == 5 and _keyvalue(line, 4, "weight", _integer) != 1:
            raise _error(f"edges have weight 1, got {words[4]!r}", line, 4)
        _name(words[2], line, 2)
        _name(words[3], line, 3)
    else:
        if len(words) != 5:
            raise _error("end <id> <from> dir=(<int>,<int>) "
                         "land=(<rat>,<rat>)|node=<index>", line)
        (_point if re.match(_POINT, words[2]) else _name)(words[2], line, 2)
        readers = {"dir": _intvec, "land": _point, "node": _integer}
        for i in (3, 4):
            key, sep, _ = words[i].partition("=")
            if not sep or key not in readers:
                raise _error(f"unknown end attribute {words[i]!r}", line, i)
            _keyvalue(line, i, key, readers[key])
        if words[3].startswith("dir=") == words[4].startswith("dir="):
            raise _error("end needs dir= and exactly one of land=/node=",
                         line)
    raise AssertionError(f"line {line[0]} passes every check but _ELEMENTS")


# -----------------------------------------------------------------------
# Serialization
# -----------------------------------------------------------------------

def _serialize_diagram(diagram: BaseDiagram) -> str:
    if diagram.kind in _PARAMETRIC:
        return " ".join(["diagram", diagram.kind,
                         *(f"{key}={diagram.params[key]}"
                           for key in _PARAMETRIC[diagram.kind][1])])
    parts = ["diagram polygon"]
    parts += [str(v) for v in diagram.polygon_vertices]
    for node in diagram.nodes:
        parts += [";", "node", str(node.position),
                  f"cut={node.cut_direction}"]
    homology = diagram.homology
    if homology.basis_labels:
        parts += [";", "basis", *homology.basis_labels]
        flat = [str(entry) for row in homology.intersection_form
                for entry in row]
        parts += [";", "form", *flat]
        if (homology.class_of_horizontal_sweep is not None
                and homology.class_of_vertical_sweep is not None):
            h = ",".join(str(c) for c in homology.class_of_horizontal_sweep)
            v = ",".join(str(c) for c in homology.class_of_vertical_sweep)
            parts += [";", "sweepclasses", f"h={h}", f"v={v}"]
    return " ".join(parts)


def _serialize_curve(curve: TropicalCurve):
    """The curve's lines, read from its columns."""
    ids = curve._ids
    sources = [*ids, *map(point_text, curve._anchors)]
    lines = [f"curve {curve.name or 'curve'}"]
    lines += map("vertex {} {}".format, ids, map(point_text, curve._points))
    lines += [f"edge {eid} {ids[s]} {ids[d]}"
              for eid, s, d, _ in curve._edge_rows]
    for eid, site, (dx, dy), t in curve._end_rows:
        t = f"node={t}" if isinstance(t, int) else f"land={point_text(t)}"
        lines.append(f"end {eid} {sources[site]} dir=({dx},{dy}) {t}")
    return lines


def serialize_document(doc: Document) -> str:
    """Serialize so that parse(serialize(doc)) equals doc."""
    lines = [_serialize_diagram(doc.diagram)]
    for curve in doc.curves:
        lines.extend(_serialize_curve(curve))
    return "\n".join(lines) + "\n"
