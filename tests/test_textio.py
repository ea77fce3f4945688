import json
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from troplag import (
    Document,
    IntVec,
    ParseError,
    TroplagError,
    UnimodularAffineMap,
    parse_document,
    pt,
    rectangle,
    serialize_document,
    trop_family,
    visible_segment,
    x_abc,
)
from troplag import refusal, textio
from troplag.maps import transform_curve, transform_diagram
from conftest import (BUNDLED_DOCS, load_document, FIGURES, count_calls,
                      klein_as_polygon, random_curve, token_soups)

F = Fraction


def test_parse_fig1_left():
    doc = load_document("fig1_left.trop")
    assert doc.diagram.kind == "xabc"
    assert doc.diagram.params["c"] == F(4, 3)
    assert len(doc.curves) == 1
    curve = doc.curves[0]
    assert curve.name == "rp2"
    _, ids, _, _, ends = curve.rows()
    assert len(ids) == 1
    assert sum(isinstance(e[3], int) for e in ends) == 2


def test_parse_polygon_diagram_with_nodes():
    doc = load_document("fig1_right.trop")
    assert doc.diagram.kind == "polygon"
    assert len(doc.diagram.nodes) == 2
    assert doc.diagram.homology.basis_labels == ("E1", "E2", "E3")
    assert doc.diagram.homology.intersection_form[0] == (-1, 0, 0)


def test_parse_empty_curve_block():
    doc = parse_document("diagram rectangle width=4 height=2\ncurve empty\n")
    assert len(doc.curves) == 1
    assert doc.curves[0].is_empty


def test_decimals_are_syntax_errors():
    with pytest.raises(ParseError) as err:
        parse_document("diagram rectangle width=4 height=2\n"
                       "curve c\nvertex v1 (0.5,1)\n")
    assert err.value.line == 3


def test_duplicate_ids_rejected():
    with pytest.raises(ParseError) as err:
        parse_document("diagram rectangle width=4 height=2\ncurve c\n"
                       "vertex v (1,1)\nvertex v (2,1)\n")
    assert "duplicate" in str(err.value)


def test_error_carries_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_document("diagram rectangle width=4 hight=2\n")
    assert err.value.line == 1
    assert err.value.col == 27


# Two vertices joined by edge g, with two unit ends at each: weight 2 on g
# would balance it.
_WEIGHTED = ("diagram rectangle width=6 height=4\ncurve c\n"
             "vertex u (2,2)\nvertex w (4,2)\nedge g u w{weight}\n"
             "end a u dir=(-1,1) land=(0,4)\nend b u dir=(-1,-1) land=(0,0)\n"
             "end c w dir=(1,1) land=(6,4)\nend d w dir=(1,-1) land=(6,0)\n")


@pytest.mark.parametrize("weight", ["2", "0", "-1"])
def test_edge_weight_other_than_one_is_a_parse_error(weight):
    with pytest.raises(ParseError) as err:
        parse_document(_WEIGHTED.format(weight=f" weight={weight}"))
    assert (err.value.line, err.value.col) == (5, 12)
    assert str(err.value) == ("line 5, col 12: edges have weight 1, got "
                              f"'weight={weight}'")


def test_weight_one_edge_parses_as_no_weight():
    plain = parse_document(_WEIGHTED.format(weight=""))
    assert parse_document(_WEIGHTED.format(weight=" weight=1")) == plain
    assert "weight" not in serialize_document(plain)


def test_sweep_classes_need_a_basis():
    # As a form does: with no basis there is nothing for them to name.
    with pytest.raises(ParseError) as err:
        parse_document("diagram polygon (0,0) (4,0) (4,2) (0,2) ; "
                       "sweepclasses h=1,0 v=0,1\n")
    assert str(err.value) == "line 1, col 9: sweepclasses given without basis"


_POLYGON = "diagram polygon (0,0) (4,0) (4,2) (0,2) ; "


@pytest.mark.parametrize("sections, message", [
    ("basis A ; basis B ; form 0", "col 53: basis given twice"),
    ("basis A ; form 0 ; form 1", "col 62: form given twice"),
    ("basis A B ; form 0 1 1 0 ; sweepclasses h=1,0 v=0,1 ; "
     "sweepclasses h=0,1 v=1,0", "col 97: sweepclasses given twice"),
    ("form", "col 9: form given without basis"),
])
def test_polygon_sections_are_given_once(sections, message):
    # A repeated section would silently replace the earlier one, and an
    # empty form is still a form given without a basis.
    with pytest.raises(ParseError) as err:
        parse_document(_POLYGON + sections + "\n")
    assert str(err.value) == f"line 1, {message}"


def test_unknown_directive():
    with pytest.raises(ParseError):
        parse_document("diagram rectangle width=4 height=2\nvortex v (1,1)\n")


def test_element_outside_curve_block():
    with pytest.raises(ParseError):
        parse_document("diagram rectangle width=4 height=2\nvertex v (1,1)\n")


def test_two_diagrams_rejected():
    with pytest.raises(ParseError):
        parse_document("diagram rectangle width=4 height=2\n"
                       "diagram rectangle width=2 height=2\n")


@pytest.mark.parametrize("name", BUNDLED_DOCS)
def test_round_trip_bundled(name):
    text = (FIGURES / name).read_text(encoding="utf-8")
    doc = parse_document(text)
    again = parse_document(serialize_document(doc))
    assert again == doc


def test_round_trip_generated_documents():
    instance = trop_family(3)
    doc = Document(instance.diagram, (instance.curve,))
    assert parse_document(serialize_document(doc)) == doc
    diagram = rectangle(4, F(5, 2))
    seg = visible_segment(diagram, IntVec(2, 1), pt(2, F(5, 4)))
    doc2 = Document(diagram, (seg,))
    assert parse_document(serialize_document(doc2)) == doc2


def test_round_trip_transformed_diagrams():
    # A moved diagram is a polygon, named as one.
    documents = [Document(rectangle(4, 2), ()),
                 Document(x_abc(1, 1, F(4, 3), 4), ()),
                 load_document("fig1_right.trop")]
    for linear in (((1, 1), (0, 1)), ((0, -1), (1, 0))):
        m = UnimodularAffineMap(linear, pt(F(1, 2), -3))
        for doc in documents:
            moved = Document(transform_diagram(doc.diagram, m), tuple(
                transform_curve(c, m) for c in doc.curves))
            assert moved.diagram.name == "polygon"
            assert parse_document(serialize_document(moved)) == moved


def test_round_trip_sweep_classes():
    doc = parse_document(klein_as_polygon())
    homology = doc.diagram.homology
    assert homology.class_of_horizontal_sweep == (1, 0)
    assert homology.class_of_vertical_sweep == (0, 1)
    assert parse_document(serialize_document(doc)) == doc


@settings(derandomize=True, max_examples=300, deadline=None)
@given(token_soups)
def test_parse_raises_only_troplag_errors(text):
    try:
        parse_document(text)
    except TroplagError:
        pass


# Columns count from 1 at the start of the word the error is in, and from
# just after "key=" for an error in a key=value word; any run of Unicode
# whitespace separates words.  The line under test is line 4.  A number
# too long for int() is refused at its word, also in a line whose pattern
# matches, and a line ending or a trailing comment moves no column.
_PREFIX = "diagram rectangle width=4 height=2\ncurve c\nvertex v (1,1)\n"
_POINT_ERROR = "expected a point like (1,2/3), got {!r}"
_DIGITS = sys.get_int_max_str_digits()
_BIG = "9" * (_DIGITS + 1)
_TOO_LONG = f"a number has more than {_DIGITS} digits"


_ERROR_CASES = [
    ("vertex\tw  (1.5,1)", _POINT_ERROR.format("(1.5,1)"), 11),
    ("   edge e v w weight=2", "edges have weight 1, got 'weight=2'", 15),
    ("edge e v w\t weight=x", "expected an integer, got 'x'", 20),
    ("vertex w (1,x) # (1,1)", _POINT_ERROR.format("(1,x)"), 10),
    ("end a v dir=(1,0) # land=(0,1)", "end <id> <from> dir=(<int>,<int>) "
     "land=(<rat>,<rat>)|node=<index>", 1),
    ("vertex\u2003w\u00a0(1,2/0)", _POINT_ERROR.format("(1,2/0)"), 10),
    ("end\x1fa v dir=(1,0)\x1fland=(0,x)", _POINT_ERROR.format("(0,x)"), 24),
    ("end a v dir=(1,0/1) land=(0,1)", "expected an integer vector like "
     "(2,-1), got '(1,0/1)'", 13),
    ("end a v land=(0,1) dir=(0,x)", "expected an integer vector like "
     "(2,-1), got '(0,x)'", 24),
    ("  vertex  v (2,1)", "duplicate id 'v'", 11),
    ("edge v v w", "duplicate id 'v'", 6),
    ("end v v dir=(1,0) land=(4,1)", "duplicate id 'v'", 5),
    ("  end a v dir=(1,0) dir=(0,1)",
     "end needs dir= and exactly one of land=/node=", 3),
    ("end a v dir=(1,0) node=" + "9" * 5000, _TOO_LONG, 24),
    (f"vertex w ({_BIG},1)", _TOO_LONG, 10),
    (f"vertex w (1,1/{_BIG})", _TOO_LONG, 10),
    (f"end a ({_BIG},1) dir=(1,0) land=(4,1)", _TOO_LONG, 7),
    (f"end a v dir=(1,{_BIG}) land=(4,1)", _TOO_LONG, 13),
    (f"end a v dir=(1,0) land=(4,{_BIG})", _TOO_LONG, 24),
    (f"end a v dir=(1,0) node={_BIG}", _TOO_LONG, 24),
]


@pytest.mark.parametrize("line, message, col", _ERROR_CASES)
def test_error_columns(line, message, col):
    with pytest.raises(ParseError) as err:
        parse_document(_PREFIX + line + "\n")
    assert (err.value.line, err.value.col) == (4, col)
    assert str(err.value) == f"line 4, col {col}: {message}"


@pytest.mark.parametrize("ending", ["\r\n", " # note\n"])
@pytest.mark.parametrize("line, message, col", _ERROR_CASES)
def test_error_columns_after_crlf_or_comment(line, message, col, ending):
    with pytest.raises(ParseError) as err:
        parse_document((_PREFIX + line + "\n").replace("\n", ending))
    assert str(err.value) == f"line 4, col {col}: {message}"


# A diagram line is refused at its kind word (col 9 below) when a builder
# or BaseDiagram refuses it, and at the word otherwise, with the message,
# line and column recorded before rectangle and xabc lines were read by
# one pattern.  Each case is tried as line 1, as line 3 after a comment and
# a blank line with CRLF endings, and with a trailing comment.
_XABC = "x_abc(a={}, b={}, c={}, s={}): "
_RATIONAL_ERROR = ("expected a rational like 3 or 22/7, got {!r} "
                   "(decimals are not allowed)")
_SQUARE = "diagram polygon (0,0) (4,0) (4,4) (0,4)"
_DIAGRAM_ERROR_CASES = [
    ("diagram rectangle width=0 height=1",
     "rectangle sides must be positive", 9),
    ("\tdiagram rectangle width=4 height=-5/2",
     "rectangle sides must be positive", 10),
    ("diagram xabc a=0 b=1 c=1 s=4",
     "blow-up sizes a and b must be positive", 9),
    ("diagram xabc a=1 b=-1/2 c=1 s=4",
     "blow-up sizes a and b must be positive", 9),
    ("diagram xabc a=1 b=1 c=4 s=4", "chop size must satisfy 0 < c < s", 9),
    ("diagram xabc a=1 b=1 c=0 s=4", "chop size must satisfy 0 < c < s", 9),
    ("diagram xabc a=2 b=1 c=4/3 s=4", _XABC.format(2, 1, "4/3", 4)
     + "node at (2,0) is not strictly inside the polygon", 9),
    ("diagram xabc a=1 b=3 c=1 s=4", _XABC.format(1, 3, 1, 4)
     + "node at (-2,3) is not strictly inside the polygon", 9),
    ("diagram  xabc a=1 b=1 c=1 s=3", _XABC.format(1, 1, 1, 3)
     + "nodes must be at distinct positions", 10),
    ("diagram xabc a=3/2 b=3/2 c=1 s=4", _XABC.format("3/2", "3/2", 1, 4)
     + "cuts from nodes at (3/2,1) and (1,3/2) collide", 9),
    ("diagram polygon (0,0) (4,0) (0,0) (0,4)",
     "polygon vertices must be distinct", 9),
    ("diagram polygon (0,0) (0,4) (4,0)",
     "polygon vertices must be listed counterclockwise", 9),
    ("diagram polygon (0,0) (2,0) (4,0) (0,4)", "polygon must be strictly "
     "convex (vertices (0,0), (2,0), (4,0) are collinear)", 9),
    ("diagram polygon (0,0) (5,3) (-1,3) (4,0) (2,5)", "polygon must wind "
     "once counterclockwise (vertex (4,0) is not strictly left of the edge "
     "(0,0) to (5,3))", 9),
    (_SQUARE + " ; node (5,1) cut=(1,0)",
     "node at (5,1) is not strictly inside the polygon", 9),
    ("diagram polygon (0,0) (2,0) (2,2) (0,2) ; node (1,1) cut=(1,1)",
     "cut from node at (1,1) exits through the corner (2,2)", 9),
    (_SQUARE + " ; node (1,1) cut=(1,0) ; node (1,1) cut=(0,1)",
     "nodes must be at distinct positions", 9),
    (_SQUARE + " ; node (2,1) cut=(0,1) ; node (1,2) cut=(1,0)",
     "cuts from nodes at (2,1) and (1,2) collide", 9),
    (_SQUARE + " ; node (2,1) cut=(0,2)",
     "cut direction (0,2) is not primitive", 9),
    (_SQUARE + " ; basis A B ; form 0 1 0 0",
     "intersection form must be symmetric", 9),
    ("diagram rectangle width=4 hight=2",
     "expected height=..., got 'hight=2'", 27),
    ("diagram rectangle height=2 width=4",
     "expected width=..., got 'height=2'", 19),
    ("diagram xabc a=1 b=1 c=1 t=4", "expected s=..., got 't=4'", 26),
    ("diagram rectangle width=4",
     "diagram rectangle width=<rat> height=<rat>", 9),
    ("diagram rectangle width=4 height=2 depth=1",
     "diagram rectangle width=<rat> height=<rat>", 9),
    ("diagram xabc a=1 b=1 c=1",
     "diagram xabc a=<rat> b=<rat> c=<rat> s=<rat>", 9),
    ("diagram xabc a=1 b=1 c=1 s=4 t=5",
     "diagram xabc a=<rat> b=<rat> c=<rat> s=<rat>", 9),
    ("diagram rectangle width=1.5 height=2", _RATIONAL_ERROR.format("1.5"),
     25),
    ("diagram xabc a=1 b=1 c=0.5 s=4", _RATIONAL_ERROR.format("0.5"), 24),
    ("diagram rectangle width=4 height=2/0", _RATIONAL_ERROR.format("2/0"),
     34),
    (f"diagram rectangle width={_BIG} height=2", _TOO_LONG, 25),
    (f"diagram xabc a=1 b=1 c=1/{_BIG} s=4", _TOO_LONG, 24),
    ("diagram", "diagram needs a kind", 1),
    ("diagram square side=2", "unknown diagram kind 'square'", 9),
]


@pytest.mark.parametrize("lead, ending, lineno", [
    ("", "\n", 1), ("# header\n\n", "\r\n", 3), ("", " # note\n", 1)])
@pytest.mark.parametrize("line, message, col", _DIAGRAM_ERROR_CASES)
def test_diagram_line_errors(line, message, col, lead, ending, lineno):
    with pytest.raises(ParseError) as err:
        parse_document((lead + line + "\n").replace("\n", ending))
    assert (err.value.line, err.value.col) == (lineno, col)
    assert str(err.value) == f"line {lineno}, col {col}: {message}"


# A curve block with a line of each element form: vertices, an edge with
# weight=1, ends to a landing and to a node, and a standalone end from an
# anchor point.
_EACH_FORM = ("diagram rectangle width=6 height=4\ncurve c\n"
              "vertex u (2,2)\nvertex w (4,2)\nedge g u w weight=1\n"
              "end a u dir=(-1,1) land=(0,4)\nend d w dir=(1,-1) node=0\n"
              "end s (1,1/3) dir=(1,0) land=(6,1/3)\n")


# Before the element word of each element line: the \s that each element
# pattern starts with is the whitespace lstrip() strips, so the line is
# still read by its own pattern (the word path would end in _refuse).
@pytest.mark.parametrize("lead", ["", "\t", "\u00a0", "\u2003"])
@pytest.mark.parametrize("ending",
                         ["\r\n", " # note\n", "#\n", "\t# a # b\r\n"])
def test_line_ends_and_trailing_comments_parse_as_plain_text(ending, lead):
    plain = parse_document(_EACH_FORM)
    assert plain.curves[0]._end_rows[1:] == (("d", 1, (1, -1), 0),
                                             ("s", 2, (1, 0), (18, 1, 3)))
    text = "".join(lead + line if line.startswith(("vertex", "edge", "end"))
                   else line for line in _EACH_FORM.splitlines(True))
    assert text.count(lead) >= 6
    assert parse_document(text.replace("\n", ending)) == plain


# Only \r\n, \r and \n end a line.  Every other break that str.splitlines()
# ends a line at is whitespace inside its line: it neither ends a comment
# nor moves the line number of a later error.
@pytest.mark.parametrize("brk", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
def test_only_cr_and_lf_end_a_line(brk):
    assert len(f"a{brk}b".splitlines()) == 2
    plain = parse_document(_PREFIX + "end a v dir=(1,0) land=(4,1)\n")
    text = (_PREFIX.replace("curve c", f"curve c # note{brk}vertex w (2,1)")
            .replace("vertex v", f"vertex{brk}v")
            + f"end a v dir=(1,0){brk}land=(4,1){brk}\n")
    assert parse_document(text) == plain
    assert parse_document(text.replace("\n", "\r")) == plain
    with pytest.raises(ParseError) as err:
        parse_document(text + f"{brk}bogus\n")
    assert str(err.value) == "line 5, col 2: unknown directive 'bogus'"


def test_unicode_whitespace_separates_words():
    plain = parse_document(_PREFIX + "vertex w (3,1)\nedge e v w\n"
                           "end a v dir=(-1,0) land=(0,1)\n")
    spaced = parse_document(_PREFIX + "vertex\x1fw\u2003(3,1)\u00a0# c\n"
                            "\t edge e\tv  w\n"
                            "\u2003end a v dir=(-1,0)\u00a0land=(0,1)\n")
    assert spaced == plain


def test_parse_corpus_replays():
    """Every input of parse_corpus.json (see make_parse_corpus.py) gives
    the document or the error message, line and column recorded for it."""
    from make_parse_corpus import CORPUS, expand, outcome, text_of
    for case in map(expand, json.loads(CORPUS.read_text(encoding="utf-8"))):
        expected = {key: case[key] for key in ("doc", "error", "line", "col")
                    if key in case}
        assert outcome(text_of(case)) == expected, case


def test_fig3_matches_generator():
    # the committed family document stays in sync with trop_family(2)
    doc = load_document("fig3_family.trop")
    instance = trop_family(2)
    assert doc == Document(instance.diagram, (instance.curve,))


# A curve block is read by one scan per element kind.  A block the scans
# do not take is walked line by line (refusal._walk) only to raise its first
# error, so a valid document is never walked.  _BLANKS are the \s that do
# not end a line; _FORMS has the element forms random_curve does not make:
# an anchor end, an end to a node and a vertex at a rational point.
_BLANKS = "\t\v\f\x1c\x1d\x1e\x1f\x85\xa0\u2003\u2028"
_FORMS = ("curve forms\nvertex u (2,2)\nvertex w (9/2,2)\nedge g u w\n"
          "end a u dir=(-1,1) land=(0,4)\nend d w dir=(1,-1) node=0\n"
          "end s (1,1/3) dir=(1,0) land=(24,1/3)\n")


def _interleave(rng, lines):
    """The element lines in a random order that keeps each kind's order."""
    queues = {}
    for line in lines:
        queues.setdefault(line.split()[0], []).append(line)
    merged = []
    while queues:
        kind = rng.choice(sorted(queues))
        merged.append(queues[kind].pop(0))
        if not queues[kind]:
            del queues[kind]
    return merged


def _decorate(rng, text):
    """text, meaning the same, with every line decorated: whitespace around
    and between its words, a trailing comment, blank and comment lines
    between lines, a weight on an edge, an end's terminal before its dir=,
    the element kinds of a block interleaved, and CRLF or CR endings."""
    def blank():
        return "".join(rng.choices(_BLANKS, k=rng.randint(1, 3)))

    blocks = [[]]
    for line in text.splitlines():
        if line.startswith("curve"):
            blocks.append([line])
        else:
            blocks[-1].append(line)
    lines = []
    for block in blocks:
        lines += block[:1] + _interleave(rng, block[1:])
    out = []
    for line in lines:
        words = line.split(" ")
        if words[0] == "edge" and rng.random() < 0.5:
            words.append(rng.choice(["weight=1", "weight=01"]))
        if words[0] == "end" and rng.random() < 0.5:
            words[3], words[4] = words[4], words[3]
        line = words[0] + "".join(rng.choice([" ", blank()]) + word
                                  for word in words[1:])
        lead, trail, comment = rng.choice(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (1, 1, 1)])
        line = (blank() if lead else "") + line + (blank() if trail else "")
        if comment:
            line += rng.choice(["#", " #", blank() + "#"]) + rng.choice(
                ["", " note", " vertex q (1,1)", "# curve x", blank()])
        out.append(line)
        if rng.random() < 0.3:
            out.append(rng.choice(["", blank(), "#", blank() + "# x"]))
    return rng.choice(["\r\n", "\r"]).join(out) + rng.choice(["", "\r"])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(2, 3))
def test_decorated_documents_parse_as_plain_text(rng, blocks):
    curves = [random_curve(rng)[1] for _ in range(blocks)]
    plain = serialize_document(Document(rectangle(24, 24), tuple(curves)))
    plain += _FORMS
    text = _decorate(rng, plain)
    with pytest.MonkeyPatch.context() as monkeypatch:
        walks = count_calls(monkeypatch, refusal, "_walk")
        doc = parse_document(text)
        assert doc == parse_document(plain)
        assert walks == []
    assert len(doc.curves) == blocks + 1


def test_valid_documents_are_never_walked(monkeypatch):
    walks = count_calls(monkeypatch, refusal, "_walk")
    instance = trop_family(24)
    texts = [serialize_document(Document(instance.diagram, (instance.curve,)))]
    texts += [path.read_text(encoding="utf-8")
              for path in sorted(FIGURES.glob("*.trop"))]
    assert len(texts) == 8
    for text in texts:
        parse_document(text)
    assert walks == []
    with pytest.raises(ParseError):
        parse_document(_PREFIX + "vertex v (2,1)\n")
    assert len(walks) == 1


# The first error in document order wins, with the message, line and column
# recorded before blocks were read by scans.
_R = "diagram rectangle width=4 height=2\ncurve c\nvertex v (1,1)\n"
_FIRST_ERROR_CASES = [
    # two faults in one block
    (_R + "vertex w (1.5,1)\nedge e v w weight=2\n",
     4, 10, _POINT_ERROR.format("(1.5,1)")),
    (_R + "vertex w (3,1)\nedge e v w weight=2\nvertex x (1.5,1)\n",
     5, 12, "edges have weight 1, got 'weight=2'"),
    (_R + f"vertex w (1,{_BIG})\nvertex v (2,1)\n", 4, 10, _TOO_LONG),
    (_R + "vertex v (2,1)\nend a v dir=(1,0)\n", 4, 8, "duplicate id 'v'"),
    (_R + "edge e v x\nend a v dir=(1,0)\n", 5, 1,
     "end <id> <from> dir=(<int>,<int>) land=(<rat>,<rat>)|node=<index>"),
    # a duplicate across kinds
    (_R + "vertex a (2,1)\nend a a dir=(1,0) land=(4,1)\n",
     5, 5, "duplicate id 'a'"),
    (_R + "edge a v w\nvertex a (3,1)\nvertex w (2,1)\n",
     5, 8, "duplicate id 'a'"),
    # a diagram line inside a block, after a duplicate, in a refused block
    (_R + "diagram rectangle width=4 height=2\n",
     4, 1, "only one diagram per document"),
    (_R + "vertex v (2,1)\ndiagram rectangle width=4 height=2\n",
     4, 8, "duplicate id 'v'"),
    (_R + "edge e v x\ndiagram rectangle width=4 height=2\n",
     5, 1, "only one diagram per document"),
    # a fault in the second block
    (_R + "end a v dir=(1,0) land=(4,1)\ncurve d\nvertex v (1,1)\n"
     "end a v dir=(1,0) land=(4,x)\n", 7, 24, _POINT_ERROR.format("(4,x)")),
    (_R + "curve d\nvertex v (1,1)\nend v v dir=(1,0) land=(4,1)\n",
     6, 5, "duplicate id 'v'"),
    # a weight 0...01 longer than int() reads, and one it reads
    (_R + f"vertex w (2,1)\nedge e v w weight={'0' * _DIGITS}1\n",
     5, 19, _TOO_LONG),
    (_R + "vertex w (2,1)\nedge e v w weight=0001\nedge f v w weight=2\n",
     6, 12, "edges have weight 1, got 'weight=2'"),
    # a malformed next header after a block whose curve is refused: its
    # words are counted before the block's curve is built, its name after
    (_R + "edge e v x\ncurve a b\n", 5, 1, "curve <name>"),
    (_R + "edge e v x\ncurve\n", 5, 1, "curve <name>"),
    (_R + "edge e v x\ncurve 1x\n", 2, 1,
     "edge 'e' refers to unknown vertex 'x'"),
    (_R + "vertex v (2,1)\ncurve a b\n", 4, 8, "duplicate id 'v'"),
    (_R + "end a v dir=(2,2) land=(4,1)\n", 2, 1,
     "end 'a' direction (2,2) is not primitive"),
    # element lines outside a block come before a later fault
    ("diagram rectangle width=4 height=2\nvertex v (1,1)\nbogus\ncurve c\n",
     2, 1, "vertex outside a curve block"),
    ("vertex v (1,1)\ndiagram rectangle width=0 height=1\n",
     1, 1, "vertex outside a curve block"),
    ("vertex v (1,1)\ncurve c\n", 1, 1, "vertex outside a curve block"),
    (_R + f"end a v dir=(1,{_BIG}) land=(4,1)\nvertx q (1,1)\n",
     4, 13, _TOO_LONG),
]


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("text, line, col, message", _FIRST_ERROR_CASES)
def test_first_error_wins(text, line, col, message, ending):
    with pytest.raises(ParseError) as err:
        parse_document(text.replace("\n", ending))
    assert str(err.value) == f"line {line}, col {col}: {message}"


_NUMERATORS = st.integers(-10**30, 10**30)
_DENOMINATORS = st.one_of(st.just(""), st.integers(1, 10**30).map(str))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_NUMERATORS, _DENOMINATORS, _NUMERATORS, _DENOMINATORS)
def test_a_point_reads_as_the_reduced_triple_of_its_fractions(x, xd, y, yd):
    # With no denominator, one, or two: the triple of (x/xd, y/yd) over
    # the lcm of their denominators, as the Fractions reduce them.
    fx, fy = F(x, int(xd or 1)), F(y, int(yd or 1))
    w = fx.denominator * fy.denominator // gcd(fx.denominator, fy.denominator)
    assert textio._triple(str(x), xd, str(y), yd) == (
        fx.numerator * (w // fx.denominator),
        fy.numerator * (w // fy.denominator), w)
