"""The refusal path of the text format, which parse_document loads only
for a block it refuses or a diagram line no pattern takes whole.  _walk
matches each element line of a refused block in place, and splits only
the refused line into words; _refuse reads those in order with the word
readers (which polygon uses too) until one fails, and the error's column
is where its word starts, plus len("key=") inside a key=value word.
"""
import re
import sys
from fractions import Fraction
from functools import partial

from .lattice import IntVec, RatPoint, _INT, _INTEGER, _RATIONAL
from .textio import (_ID, _PAIR, _PARAMETRIC, _S, _error, _patterns, _rows,
                     _triple)

_POINT = _PAIR + r"\Z"
_NAME = _ID + r"\Z"
# The newline before an element line, and the line's kind.
_HEAD = re.compile(rf"\n(?={_S}*(vertex|edge|end)(?![^\s#]))")


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


def _read_diagram(line):
    """The diagram of a line no pattern takes whole: a polygon, read by
    polygon, or one of rationals read word by word until one fails."""
    words = line[2]
    if len(words) < 2:
        raise _error("diagram needs a kind", line)
    kind = words[1]
    if kind == "polygon":
        from .polygon import _parse_polygon_diagram
        return _parse_polygon_diagram(line)
    if kind not in _PARAMETRIC:
        raise _error(f"unknown diagram kind {kind!r}", line, 1)
    build, keys = _PARAMETRIC[kind]
    if len(words) != 2 + len(keys):
        raise _error(" ".join(["diagram", kind,
                               *(f"{key}=<rat>" for key in keys)]), line, 1)
    return build(*(_keyvalue(line, i, key, _rational)
                   for i, key in enumerate(keys, start=2)))


def _line(t, pos, lineno, p):
    """The line of t from the newline at p, where pos is that of line
    lineno, as (number, body, words): its comment-free text and words."""
    body = t[p + 1:t.index("\n", p + 1)].split("#", 1)[0]
    return lineno + t.count("\n", pos, p), body, body.split()


def _walk(t, pos, stop, lineno, block):
    """Raise the first error in the element lines of t from the newline at
    pos (line lineno) to stop: one outside a curve block (block false), or
    the first line its pattern, a repeated id, int() or a weight refuses."""
    elements, seen = _patterns()[0], set()
    for head in _HEAD.finditer(t, pos, stop):
        p, kind = head.start(), head[1]
        if not block:
            raise _error(f"{kind} outside a curve block",
                         _line(t, pos, lineno, p))
        m = elements[kind].match(t, p)
        if not m or m[1] in seen or _rows(**{kind: [m.groups("")]}) is None:
            _refuse(_line(t, pos, lineno, p), seen)
        seen.add(m[1])


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
