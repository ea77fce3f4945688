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
TropicalCurve takes the rows (it refuses a duplicate id).  A rectangle or
xabc line matched whole by its kind's pattern (_diagram) goes to its
builder, and a builder refuses it at its kind.

Only well-formed text is read here: refusal walks any other block to raise
its first error and reads any other diagram line word by word (polygon a
polygon line), and serialize_document loads writer.

The rows are plain tuples: vertex ids with their reduced (X, Y, W) point
triples, edges as (id, src id, dst id), and ends as (id, source, (dx,
dy), terminal), the source a vertex id or an anchor triple and the
terminal a node index or a landing triple.
"""
import re
from fractions import Fraction
from functools import cache
from itertools import islice
from math import gcd
from typing import NamedTuple

from . import _submodule
from .errors import TroplagError
from .diagram import BaseDiagram, InvalidDiagram, rectangle
from .lattice import _DEN, _INT
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
_ID = r"([A-Za-z_][A-Za-z0-9_.-]*)"
_WORD = r"\S+"  # a word of str.split(), with its offset


# The diagram kinds given by rationals: the builder and the keys in order.
_PARAMETRIC = {"rectangle": (rectangle, ("width", "height")),
               "xabc": (lambda *abcs: _submodule("nodes").x_abc(*abcs),
                        ("a", "b", "c", "s"))}

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


def _parse_diagram(line):
    """The diagram of a diagram line: a rectangle or xabc line matched
    whole by its kind's pattern goes to its builder, and any other line to
    refusal, which reads its words."""
    _, body, words = line
    kind = words[1] if len(words) > 1 else ""
    try:
        if kind in _PARAMETRIC:
            try:
                if m := _diagram(kind)(body):
                    n = m.groups()
                    return _PARAMETRIC[kind][0](*[
                        Fraction(int(p), int(q)) if q else Fraction(int(p))
                        for p, q in zip(n[::2], n[1::2])])
            except ValueError:  # a number too long for int()
                pass
        return _submodule("refusal")._read_diagram(line)
    except InvalidDiagram as err:
        raise _error(str(err), line, 1) from None


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
                _submodule("refusal")._walk(t, start, stop, first, False)
            return
        found = [p.findall(t, start, stop + 1) for p in elements.values()]
        refusal = None
        if sum(map(len, found)) == lines and (rows := _rows(*found)):
            try:
                curves.append(TropicalCurve(block[1], *rows))
                return
            except InvalidCurve as err:
                refusal = _error(str(err), block[0])
        _submodule("refusal")._walk(t, start, stop, first, True)
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
            block = (line, name
                     or _submodule("refusal")._name(words[1], line, 1))
        else:  # the diagram, or an error after those of the lines before
            if n != others:
                _submodule("refusal")._walk(t, start, pos, first,
                                            block is not None)
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


def serialize_document(doc: Document) -> str:
    """Serialize so that parse(serialize(doc)) equals doc (see writer)."""
    return _submodule("writer").serialize(doc)
