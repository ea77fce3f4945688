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

A curve block, from its header to the next header or the end of the
text, is read by one scan (findall) per element kind, from the newline
before each line of that kind to the one after it, and the groups become
rows in comprehensions.  The block is taken when the scans account for
every line that is not blank or a comment, int() takes every number and
TropicalCurve.of_rows takes the rows (it refuses a duplicate id); any
other block is walked line by line, with the same patterns and the words
of a refused line, to raise its first error: the groups of the lines
matched before it go to the row builder at once, and are read again line
by line only if it refuses them (a number too long for int(), a weight).
A rectangle or xabc line matched whole by its kind's pattern (_diagram)
goes to its builder; any other line is split into words and kept as its
number, body and words.
An error's column is where its word starts, plus len("key=") inside a
key=value word; a builder refuses a matched line at its kind.

The rows are plain tuples: vertex ids with their reduced (X, Y, W) point
triples, edges as (id, src id, dst id), and ends as (id, source, (dx,
dy), terminal), the source a vertex id or an anchor triple and the
terminal a node index or a landing triple.  Serialization reads the
curve's columns back.
"""
import re
import sys
from fractions import Fraction
from functools import cache, partial
from itertools import islice
from math import gcd
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
                      point_text)
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

# One pattern per element line, from the \n before it to the one after
# it; _S, \s but \n, is the whitespace str.split() splits a line on.  An
# end's dir= comes before its terminal or after it, with groups of each.
# _OTHER is any other line: its comment-free text, and the name of a curve
# header that names one.  All four are compiled on the first parse.
_S = r"[^\S\n]"
_TAIL = rf"{_S}*(?:#[^\n]*)?(?=\n)"
_DIR = rf"dir=\(({_INT}),({_INT})\)"
_TERMINAL = rf"(?:land={_PAIR}|node=({_INT}))"
_ELEMENTS = {
    "vertex": rf"\n{_S}*vertex{_S}+{_ID}{_S}+{_PAIR}{_TAIL}",
    "edge": rf"\n{_S}*edge{_S}+{_ID}{_S}+{_ID}{_S}+{_ID}"
            rf"(?:{_S}+weight=({_INT}))?{_TAIL}",
    "end": rf"\n{_S}*end{_S}+{_ID}{_S}+(?:{_ID}|{_PAIR}){_S}+(?:{_DIR}{_S}+"
           rf"{_TERMINAL}|{_TERMINAL}{_S}+{_DIR}){_TAIL}",
}
_OTHER = (rf"\n(?!{_S}*(?:vertex|edge|end)(?![^\s#]))"
          rf"(?=(?:{_S}*curve{_S}+{_ID}{_S}*(?![^#\n]))?)([^#\n]*)")


@cache
def _patterns():
    """The element patterns by kind, and _OTHER, on the first parse."""
    return ({kind: re.compile(p) for kind, p in _ELEMENTS.items()},
            re.compile(_OTHER))


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
    None or "" for xd or yd is 1.  A point with one denominator w, say
    (x/w, y), is (x, y * w, w) over gcd(x, w): one gcd of two ints."""
    if xd and yd:
        x, y, w = int(xn) * int(yd), int(yn) * int(xd), int(xd) * int(yd)
        g = gcd(x, y, w)
        return x // g, y // g, w // g
    if xd:
        x, w = int(xn), int(xd)
        g = gcd(x, w)
        return x // g, int(yn) * (w // g), w // g
    if yd:
        y, w = int(yn), int(yd)
        g = gcd(y, w)
        return int(xn) * (w // g), y // g, w // g
    return int(xn), int(yn), 1


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
    _, body, words = line
    if len(words) < 2:
        raise _error("diagram needs a kind", line)
    kind = words[1]
    try:
        if kind in _PARAMETRIC:
            build, keys = _PARAMETRIC[kind]
            try:
                if m := _diagram(kind)(body):
                    n = m.groups()
                    return build(*[
                        Fraction(int(p), int(q)) if q else Fraction(int(p))
                        for p, q in zip(n[::2], n[1::2])])
            except ValueError:  # a number too long for int()
                pass
            if len(words) != 2 + len(keys):
                raise _error(" ".join(["diagram", kind,
                                       *(f"{key}=<rat>" for key in keys)]),
                             line, 1)
            return build(*(_keyvalue(line, i, key, _rational)
                           for i, key in enumerate(keys, start=2)))
        if kind == "polygon":
            return _parse_polygon_diagram(line)
    except InvalidDiagram as err:
        raise _error(str(err), line, 1) from None
    raise _error(f"unknown diagram kind {kind!r}", line, 1)


def _rows(vertex=(), edge=(), end=()):
    """The rows of a curve block from the groups of its vertex, edge and
    end lines ("" for a group that took no text; an end's attributes in
    either order), or None if int() refuses a number or a weight is not 1."""
    try:
        edges = [(e, s, d) for e, s, d, w in edge if not w or int(w) == 1]
        if len(edges) == len(edge):
            return ([v[0] for v in vertex],
                    [_triple(x, xd, y, yd) if xd or yd else (int(x), int(y), 1)
                     for _, x, xd, y, yd in vertex],
                    edges,
                    [(e, s or _triple(a, b, c, d),
                      (int(dx + dx_), int(dy + dy_)), int(n + n_) if n or n_
                      else _triple(x + x_, xd + xd_, y + y_, yd + yd_))
                     for (e, s, a, b, c, d, dx, dy, x, xd, y, yd, n,
                          x_, xd_, y_, yd_, n_, dx_, dy_) in end])
    except ValueError:  # a number too long for int()
        pass
    return None


def _walk(t, pos, stop, lineno, block):
    """Raise the first error in the element lines of t from the newline at
    pos (line lineno) to stop: one outside a curve block (block false), or
    one its pattern, a repeated id, int() or a weight refuses.  The groups
    of the lines matched before the first line a pattern or an id refuses
    go to _rows at once; only if it refuses them are they read again, line
    by line, for the first line it refuses."""
    elements = _patterns()[0]
    seen, matched, refused = set(), [], None
    groups = {kind: [] for kind in elements}
    for lineno, raw in enumerate(t[pos + 1:stop].split("\n"), lineno):
        body = raw.split("#", 1)[0]
        words = body.split()
        if words and words[0] in elements:
            line = (lineno, body, words)
            if not block:
                raise _error(f"{words[0]} outside a curve block", line)
            m = elements[words[0]].match(f"\n{raw}\n")
            if not m or m[1] in seen:
                refused = line
                break
            seen.add(m[1])
            kind, found = words[0], m.groups("")
            groups[kind].append(found)
            matched.append((line, kind, found))
    if _rows(**groups) is None:  # the matched ids are distinct
        for line, kind, found in matched:
            if _rows(**{kind: [found]}) is None:
                _refuse(line, ())
    if refused:
        _refuse(refused, seen)


def parse_document(text: str) -> Document:
    """Parse a document; exact rationals only, duplicate ids rejected."""
    # Only \r\n, \r and \n end a line (str.splitlines() ends more): each
    # line of t starts at a \n, and the last one is followed by one.
    t = "\n" + text.replace("\r\n", "\n").replace("\r", "\n") + "\n"
    elements, other = _patterns()
    diagram = None
    curves = []
    # The open region starts at the \n of line first (a header's, or line
    # 1) and has others lines that are no element line; block is its
    # header's line and name, None before the first header.
    start, first, others, block = 0, 1, 0, None

    def close(stop, lines):
        """Read the region's element lines, lines of them before stop, into
        its curve; before the first header there must be none."""
        if block is None:
            if lines:
                _walk(t, start, stop, first, False)
            return
        found = [p.findall(t, start, stop + 1) for p in elements.values()]
        refusal = None
        if sum(map(len, found)) == lines and (rows := _rows(*found)):
            try:
                curves.append(TropicalCurve.of_rows(block[1], *rows))
                return
            except InvalidCurve as err:
                refusal = _error(str(err), block[0])
        _walk(t, start, stop, first, True)
        raise refusal or AssertionError(
            f"line {first}: the walk takes a block the scans refuse")

    for m in other.finditer(t, 0, len(t) - 1):
        name, body = m.groups()
        words = body.split()
        if not words:
            others += 1
            continue
        pos = m.start()
        n = t.count("\n", start, pos)
        line = (first + n, body, words)
        head = words[0]
        if head == "curve" and diagram is not None and len(words) == 2:
            close(pos, n - others)
            block = line, name or _name(words[1], line, 1)
        else:  # the diagram, or an error after those of the lines before
            if n != others:
                _walk(t, start, pos, first, block is not None)
            if head == "curve":
                raise _error("curve before diagram" if diagram is None
                             else "curve <name>", line)
            if head != "diagram":
                raise _error(f"unknown directive {head!r}", line)
            if diagram is not None:
                raise _error("only one diagram per document", line)
            diagram = _parse_diagram(line)
        start, first, others = pos, first + n, 1
    close(len(t) - 1, t.count("\n", start, len(t) - 1) - others)
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
