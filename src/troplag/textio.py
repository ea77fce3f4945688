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
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction
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
from .lattice import IntVec, RatPoint, _DEN, _INT, _INTEGER, _RATIONAL
from .tropical import (
    BoundaryTerminal,
    CurveEnd,
    InternalEdge,
    InvalidCurve,
    NodeTerminal,
    TropicalCurve,
    TropicalVertex,
)


class ParseError(TroplagError):
    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class Document(NamedTuple):
    diagram: BaseDiagram
    curves: tuple[TropicalCurve, ...]


# A point's numerators and denominators, each denominator optional.
_POINT = re.compile(rf"\(({_INT})(?:/({_DEN}))?,({_INT})(?:/({_DEN}))?\)\Z")
_INTPAIR = re.compile(rf"\(({_INT}),({_INT})\)\Z")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*\Z")


class _Token(NamedTuple):
    text: str
    line: int
    col: int


def _tokenize(text: str):
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = [_Token(m.group(0), lineno, m.start() + 1)
                  for m in re.finditer(r"\S+", body)]
        if tokens:
            lines.append(tokens)
    return lines


def _ints(tok: _Token, *digits: str) -> list[int]:
    """The ints spelled in tok; one too long for int() is refused at tok."""
    try:
        return [int(text) for text in digits]
    except ValueError:
        raise ParseError(f"a number has more than "
                         f"{sys.get_int_max_str_digits()} digits",
                         tok.line, tok.col) from None


def _rational(tok: _Token) -> Fraction:
    if not _RATIONAL.match(tok.text):
        raise ParseError(f"expected a rational like 3 or 22/7, got "
                         f"{tok.text!r} (decimals are not allowed)",
                         tok.line, tok.col)
    return Fraction(*_ints(tok, *tok.text.split("/")))


def _integer(tok: _Token) -> int:
    if not _INTEGER.match(tok.text):
        raise ParseError(f"expected an integer, got {tok.text!r}",
                         tok.line, tok.col)
    return _ints(tok, tok.text)[0]


def _point(tok: _Token) -> RatPoint:
    m = _POINT.match(tok.text)
    if not m:
        raise ParseError(f"expected a point like (1,2/3), got {tok.text!r}",
                         tok.line, tok.col)
    xn, xd, yn, yd = _ints(tok, *m.groups("1"))
    return RatPoint.of(xn * yd, yn * xd, xd * yd)


def _intvec(tok: _Token) -> IntVec:
    m = _INTPAIR.match(tok.text)
    if not m:
        raise ParseError(f"expected an integer vector like (2,-1), got "
                         f"{tok.text!r}", tok.line, tok.col)
    return IntVec(*_ints(tok, *m.groups()))


def _name(tok: _Token) -> str:
    if not _NAME.match(tok.text):
        raise ParseError(f"expected a name, got {tok.text!r}",
                         tok.line, tok.col)
    return tok.text


def _keyvalue(tok: _Token, key: str) -> _Token:
    prefix = key + "="
    if not tok.text.startswith(prefix):
        raise ParseError(f"expected {key}=..., got {tok.text!r}",
                         tok.line, tok.col)
    return _Token(tok.text[len(prefix):], tok.line, tok.col + len(prefix))


def _split_sections(tokens):
    sections = [[]]
    for tok in tokens:
        if tok.text == ";":
            sections.append([])
        else:
            sections[-1].append(tok)
    return sections


def _parse_polygon_diagram(head, tokens):
    sections = _split_sections(tokens)
    vertices = [_point(tok) for tok in sections[0]]
    if len(vertices) < 3:
        raise ParseError("polygon needs at least three vertices",
                         head.line, head.col)
    nodes = []
    basis = None
    form = None
    sweep_h = None
    sweep_v = None
    for section in sections[1:]:
        if not section:
            raise ParseError("empty ';' section", head.line, head.col)
        kind = section[0]
        if kind.text == "node":
            if len(section) != 3:
                raise ParseError("node takes a position and cut=(dx,dy)",
                                 kind.line, kind.col)
            nodes.append(Node(_point(section[1]),
                              _intvec(_keyvalue(section[2], "cut"))))
        elif kind.text == "basis":
            basis = tuple(_name(tok) for tok in section[1:])
        elif kind.text == "form":
            form = [_integer(tok) for tok in section[1:]]
        elif kind.text == "sweepclasses":
            if len(section) != 3:
                raise ParseError("sweepclasses takes h=... and v=...",
                                 kind.line, kind.col)
            sweep_h = _intlist(_keyvalue(section[1], "h"))
            sweep_v = _intlist(_keyvalue(section[2], "v"))
        else:
            raise ParseError(f"unknown diagram section {kind.text!r}",
                             kind.line, kind.col)
    if basis is None:
        homology = HomologyModel((), ())
        if form:
            raise ParseError("form given without basis", head.line, head.col)
    else:
        n = len(basis)
        if form is None or len(form) != n * n:
            raise ParseError(f"form must list {n}x{n} row-major integers",
                             head.line, head.col)
        rows = tuple(tuple(form[i * n:(i + 1) * n]) for i in range(n))
        homology = HomologyModel(basis, rows,
                                 class_of_horizontal_sweep=sweep_h,
                                 class_of_vertical_sweep=sweep_v)
    return BaseDiagram(vertices, nodes, homology, name="polygon")


def _intlist(tok: _Token) -> tuple[int, ...]:
    parts = tok.text.split(",")
    if not all(_INTEGER.match(part) for part in parts):
        raise ParseError(f"expected comma-separated integers, got "
                         f"{tok.text!r}", tok.line, tok.col)
    return tuple(_ints(tok, *parts))


def _parse_diagram(tokens):
    if len(tokens) < 2:
        raise ParseError("diagram needs a kind", tokens[0].line, tokens[0].col)
    kind = tokens[1]
    if kind.text == "rectangle":
        if len(tokens) != 4:
            raise ParseError("diagram rectangle width=<rat> height=<rat>",
                             kind.line, kind.col)
        return rectangle(_rational(_keyvalue(tokens[2], "width")),
                         _rational(_keyvalue(tokens[3], "height")))
    if kind.text == "xabc":
        if len(tokens) != 6:
            raise ParseError("diagram xabc a=<rat> b=<rat> c=<rat> s=<rat>",
                             kind.line, kind.col)
        return x_abc(_rational(_keyvalue(tokens[2], "a")),
                     _rational(_keyvalue(tokens[3], "b")),
                     _rational(_keyvalue(tokens[4], "c")),
                     _rational(_keyvalue(tokens[5], "s")))
    if kind.text == "polygon":
        return _parse_polygon_diagram(kind, tokens[2:])
    raise ParseError(f"unknown diagram kind {kind.text!r}",
                     kind.line, kind.col)


def parse_document(text: str) -> Document:
    """Parse a document; exact rationals only, duplicate ids rejected."""
    lines = _tokenize(text)
    diagram = None
    curves = []
    current = None  # (header token, name, vertices, edges, ends, seen ids)

    def flush():
        nonlocal current
        if current is not None:
            header, name, vertices, edges, ends, _ = current
            try:
                curves.append(TropicalCurve(vertices, edges, ends, name=name))
            except InvalidCurve as err:
                raise ParseError(str(err), header.line, header.col) from None
            current = None

    for tokens in lines:
        head = tokens[0]
        if head.text == "diagram":
            if diagram is not None:
                raise ParseError("only one diagram per document",
                                 head.line, head.col)
            try:
                diagram = _parse_diagram(tokens)
            except InvalidDiagram as err:
                kind = tokens[1]  # _parse_diagram rejects a missing kind
                raise ParseError(str(err), kind.line, kind.col) from None
        elif head.text == "curve":
            if diagram is None:
                raise ParseError("curve before diagram", head.line, head.col)
            if len(tokens) != 2:
                raise ParseError("curve <name>", head.line, head.col)
            flush()
            current = (head, _name(tokens[1]), [], [], [], set())
        elif head.text in ("vertex", "edge", "end"):
            if current is None:
                raise ParseError(f"{head.text} outside a curve block",
                                 head.line, head.col)
            _parse_element(tokens, current)
        else:
            raise ParseError(f"unknown directive {head.text!r}",
                             head.line, head.col)
    flush()
    if diagram is None:
        raise ParseError("document has no diagram", 1, 1)
    return Document(diagram, tuple(curves))


def _parse_element(tokens, current):
    head = tokens[0]
    _, _, vertices, edges, ends, seen = current
    ident = _name(tokens[1]) if len(tokens) > 1 else None
    if ident is None:
        raise ParseError(f"{head.text} needs an id", head.line, head.col)
    if ident in seen:
        raise ParseError(f"duplicate id {ident!r}", tokens[1].line,
                         tokens[1].col)
    seen.add(ident)
    if head.text == "vertex":
        if len(tokens) != 3:
            raise ParseError("vertex <id> (<rat>,<rat>)", head.line, head.col)
        vertices.append(TropicalVertex(ident, _point(tokens[2])))
        return
    if head.text == "edge":
        if len(tokens) not in (4, 5):
            raise ParseError("edge <id> <from> <to>", head.line, head.col)
        if len(tokens) == 5 and _integer(_keyvalue(tokens[4], "weight")) != 1:
            raise ParseError(f"edges have weight 1, got {tokens[4].text!r}",
                             tokens[4].line, tokens[4].col)
        edges.append(InternalEdge(ident, _name(tokens[2]), _name(tokens[3])))
        return
    # end <id> <from> dir=(..) land=(..)|node=N
    if len(tokens) != 5:
        raise ParseError("end <id> <from> dir=(<int>,<int>) "
                         "land=(<rat>,<rat>)|node=<index>",
                         head.line, head.col)
    source = (_point if _POINT.match(tokens[2].text) else _name)(tokens[2])
    direction = None
    terminal = None
    for tok in tokens[3:]:
        if tok.text.startswith("dir="):
            direction = _intvec(_keyvalue(tok, "dir"))
        elif tok.text.startswith("land="):
            terminal = BoundaryTerminal(_point(_keyvalue(tok, "land")))
        elif tok.text.startswith("node="):
            terminal = NodeTerminal(_integer(_keyvalue(tok, "node")))
        else:
            raise ParseError(f"unknown end attribute {tok.text!r}",
                             tok.line, tok.col)
    if direction is None or terminal is None:
        raise ParseError("end needs dir= and exactly one of land=/node=",
                         head.line, head.col)
    ends.append(CurveEnd(ident, source, direction, terminal))


# -----------------------------------------------------------------------
# Serialization
# -----------------------------------------------------------------------

def _serialize_diagram(diagram: BaseDiagram) -> str:
    if diagram.kind == "rectangle":
        p = diagram.params
        return f"diagram rectangle width={p['width']} height={p['height']}"
    if diagram.kind == "xabc":
        p = diagram.params
        return (f"diagram xabc a={p['a']} b={p['b']} c={p['c']} s={p['s']}")
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
    lines = [f"curve {curve.name or 'curve'}"]
    for v in curve.vertices:
        lines.append(f"vertex {v.id} {v.position}")
    for e in curve.edges:
        lines.append(f"edge {e.id} {e.src} {e.dst}")
    for e in curve.ends:
        if isinstance(e.terminal, NodeTerminal):
            terminal = f"node={e.terminal.node_index}"
        else:
            terminal = f"land={e.terminal.landing}"
        lines.append(f"end {e.id} {e.source} dir={e.direction} {terminal}")
    return lines


def serialize_document(doc: Document) -> str:
    """Serialize so that parse(serialize(doc)) equals doc."""
    lines = [_serialize_diagram(doc.diagram)]
    for curve in doc.curves:
        lines.extend(_serialize_curve(curve))
    return "\n".join(lines) + "\n"
