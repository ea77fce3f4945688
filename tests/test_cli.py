import io
import os
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings

from troplag import (InvalidCurve, cli, homology, parse_document,
                     render_document, tropical)
from troplag.cli import main
from conftest import (FIGURES, GOLDEN, KLEIN_POLYGON_DIAGRAM,
                      count_calls, klein_as_polygon, token_soups)

TOPOLOGY_GOLDENS = ["fig1_left", "fig1_right", "fig2_klein", "fig3_family",
                    "fig4_squeeze", "fig5_cycle"]


def run(capsys, *argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PARSER_CASES = [["-h"], ["--version"], [], ["no-such-command"]] + [
    [command, *help] for command in cli._COMMANDS for help in (["-h"], [])]


@pytest.mark.parametrize("argv", PARSER_CASES,
                         ids=lambda argv: " ".join(argv) or "no-argument")
def test_parser_of_one_command_answers_as_the_full_parser(capsys, monkeypatch,
                                                          argv):
    # main builds only the subparser of the command argv[0] names, and all
    # ten for any other first word; either way its exit code, help, usage
    # and errors are those of the parser with all ten, as this
    # interpreter's argparse words them.  Each command alone misses a
    # required argument.
    build, built = cli._build_parser, []
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: (
        built.append(command) or build(command)))
    lazy = run(capsys, *argv)
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: build())
    assert lazy == run(capsys, *argv)
    assert built == [argv[0] if argv and argv[0] in cli._COMMANDS else None]
    assert lazy[0] == (0 if argv in (["-h"], ["--version"]) or argv[1:]
                       else 2)
    assert len(cli._COMMANDS) == 10


@pytest.mark.parametrize("name", TOPOLOGY_GOLDENS)
def test_topology_reports_match_goldens(capsys, name):
    code, out, _ = run(capsys, "topology", str(FIGURES / f"{name}.trop"))
    assert code == 0
    assert out == (GOLDEN / f"{name}.topology.txt").read_text()


@pytest.mark.parametrize("name", ["fig2_klein", "fig3_family", "fig5_cycle"])
def test_homology_reports_match_goldens(capsys, name):
    code, out, _ = run(capsys, "homology", str(FIGURES / f"{name}.trop"))
    assert code == 0
    assert out == (GOLDEN / f"{name}.homology.txt").read_text()


def test_audin_report_matches_golden(capsys):
    for name in ("fig2_klein", "fig5_cycle"):
        code, out, _ = run(capsys, "audin", str(FIGURES / f"{name}.trop"))
        assert code == 0
        assert out == (GOLDEN / f"{name}.audin.txt").read_text()


def test_audin_with_class_override(capsys):
    code, out, _ = run(capsys, "audin", str(FIGURES / "fig1_left.trop"),
                       "--class", "1,1,1")
    assert code == 0
    assert "P2 = 1, chi = 1" in out and "PASS" in out


def test_validate_all_bundled_documents(capsys):
    for name in TOPOLOGY_GOLDENS:
        code, out, _ = run(capsys, "validate", str(FIGURES / f"{name}.trop"))
        assert code == 0, out


def test_validate_failing_document_exits_1(capsys):
    code, out, _ = run(capsys, "validate",
                       str(FIGURES / "invalid_unbalanced.trop"))
    assert code == 1
    assert out == (GOLDEN / "invalid_unbalanced.validate.txt").read_text()


def test_validate_reports_an_end_to_a_missing_node(capsys, monkeypatch):
    # End x has no node, so it has no segment; the embedding defect is
    # between the segments before and after it.
    text = ("diagram rectangle width=4 height=4\ncurve k\n"
            "vertex v (1,2)\nvertex w (2,1)\n"
            "end a v dir=(-1,0) land=(0,2)\nend b v dir=(1,1) land=(3,4)\n"
            "end x v dir=(0,-1) node=0\nend c w dir=(0,1) land=(2,4)\n"
            "end d w dir=(1,-1) land=(3,0)\nend e w dir=(-1,0) land=(0,1)\n")
    code, out, _ = run(capsys, "validate", "-", stdin_text=text,
                       monkeypatch=monkeypatch)
    assert code == 1
    assert out.splitlines()[1:] == [
        "curve k: INVALID",
        "  - [end-terminal] x: no node with index 0",
        "  - [embedding] b: meets c at (2,3), which is not a shared endpoint",
        "  - [disconnected] k: underlying graph has 2 components"]


def test_topology_failing_document_exits_1(capsys):
    code, out, _ = run(capsys, "topology",
                       str(FIGURES / "invalid_unbalanced.trop"))
    assert code == 1


def test_audin_lists_the_issues_of_an_invalid_curve(capsys):
    path = str(FIGURES / "invalid_unbalanced.trop")
    _, validated, _ = run(capsys, "validate", path)
    code, out, _ = run(capsys, "audin", path)
    assert code == 1
    block = validated[validated.index("curve broken: INVALID"):]
    assert "  - [balancing] v:" in block
    assert out == block


def test_audin_refuses_a_surface_with_boundary(capsys, monkeypatch):
    # The congruence holds for closed Lagrangians; with --class there is
    # no sweep to refuse this annulus's collars first.
    text = ("diagram rectangle width=4 height=5/2\ncurve k\n"
            "end a (2,5/4) dir=(1,0) land=(4,5/4)\n"
            "end b (2,5/4) dir=(-1,0) land=(0,5/4)\n")
    code, out, err = run(capsys, "audin", "--class", "1,0", "-",
                         stdin_text=text, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == ("error: curve k: the Audin congruence is defined for "
                   "closed surfaces; this one has 2 boundary circles\n")


def test_report_that_fails_prints_none_of_its_lines(capsys):
    # The supplied lift has the wrong rank: pontryagin_square raises after
    # the "using supplied integral class" line was formed.
    code, out, err = run(capsys, "audin", str(FIGURES / "fig2_klein.trop"),
                         "--class", "1,1,1")
    assert code == 2
    assert out == ""
    assert "class vector has length 3" in err


# A curve header on line 2, then vertices a and b on lines 3 and 4.
CURVE_HEAD = ("diagram rectangle width=4 height=4\ncurve c\n"
              "vertex a (1,1)\nvertex b (2,2)\n")


@pytest.mark.parametrize("text, fragment", [
    pytest.param("diagram rectangle width=0.5 height=1\n", "decimals",
                 id="decimal"),
    pytest.param("diagram polygon\n",
                 "line 1, col 9: polygon needs at least three vertices",
                 id="empty-polygon"),
    pytest.param(CURVE_HEAD + "edge e a zz\n",
                 "line 2, col 1: edge 'e' refers to unknown vertex 'zz'",
                 id="unknown-vertex"),
    pytest.param(CURVE_HEAD + "edge e a b weight=0\n",
                 "line 5, col 12: edges have weight 1, got 'weight=0'",
                 id="zero-weight"),
    pytest.param(CURVE_HEAD + "end x a dir=(2,0) land=(0,1)\n",
                 "line 2, col 1: end 'x' direction (2,0) is not primitive",
                 id="nonprimitive-direction"),
    pytest.param(CURVE_HEAD + "end x a dir=(-1,0) dir=(-1,0) land=(0,1)\n",
                 "line 5, col 1: end <id> <from> dir=", id="repeated-dir"),
    pytest.param("diagram rectangle width=0 height=1\n",
                 "line 1, col 9: rectangle sides must be positive",
                 id="zero-width"),
    pytest.param("diagram polygon (0,0) (4,0) (4,4) (0,4) ; "
                 "node (2,2) cut=(2,0)\n",
                 "line 1, col 9: cut direction (2,0) is not primitive",
                 id="nonprimitive-cut"),
    pytest.param("diagram polygon (0,0) (4,0) (4,4) (0,4) ; "
                 "basis a b ; form 0 1 2 0\n",
                 "line 1, col 9: intersection form must be symmetric",
                 id="asymmetric-form"),
    # A convex pentagon's corners in star order: every turn is to the left,
    # but the boundary winds twice around the polygon.
    pytest.param("diagram polygon (0,0) (5,3) (-1,3) (4,0) (2,5)\n",
                 "line 1, col 9: polygon must wind once counterclockwise "
                 "(vertex (4,0) is not strictly left of the edge (0,0) to "
                 "(5,3))", id="star-polygon"),
    pytest.param("diagram rectangle width=\u0664 height=1\n",
                 "line 1, col 25: expected a rational like 3 or 22/7",
                 id="unicode-digit-width"),
    pytest.param(CURVE_HEAD + "end x a dir=(\u0662,1) land=(0,1)\n",
                 "line 5, col 13: expected an integer vector like (2,-1)",
                 id="unicode-digit-dir"),
    pytest.param("", "error: line 1, col 1: document has no diagram\n",
                 id="empty-document"),
    pytest.param("# a comment\n\n",
                 "error: line 1, col 1: document has no diagram\n",
                 id="comment-only-document"),
    pytest.param("diagram polygon (0,0) (4,0) (4,2) (0,2) ; ; basis A\n",
                 "line 1, col 9: empty ';' section", id="empty-section"),
    pytest.param("diagram polygon (0,0) (4,0) (4,2) (0,2) ; form 0 1 1 0\n",
                 "line 1, col 9: form given without basis",
                 id="form-without-basis"),
    pytest.param("diagram polygon (0,0) (4,0) (4,2) (0,2) ; basis A B ; "
                 "form 0 1 1 0 ; sweepclasses h=1,0\n",
                 "line 1, col 70: sweepclasses takes h=... and v=...",
                 id="sweepclasses-without-v"),
    pytest.param(CURVE_HEAD + "edge e a a\n",
                 "line 2, col 1: edge 'e' is a loop", id="loop-edge"),
    pytest.param(CURVE_HEAD + "vertex c (1,1)\nedge e a c\n",
                 "line 2, col 1: edge 'e' joins coincident vertices",
                 id="coincident-vertices"),
])
def test_malformed_document_exits_2(capsys, tmp_path, text, fragment):
    bad = tmp_path / "bad.trop"
    bad.write_text(text)
    code, _, err = run(capsys, "topology", str(bad))
    assert code == 2
    assert fragment in err


@pytest.mark.parametrize("argv, fragment", [
    pytest.param(("audin", str(FIGURES / "fig1_left.trop"), "--class", "x"),
                 "--class expects comma-separated integers, got 'x'",
                 id="class"),
    pytest.param(("audin", str(FIGURES / "fig1_left.trop"), "--class",
                  "1,,1"),
                 "--class expects comma-separated integers, got '1,,1'",
                 id="class-empty-part"),
    pytest.param(("gen-visible", "4", "3", "--direction", "x,1"),
                 "--direction expects 2 comma-separated integers, got 'x,1'",
                 id="direction"),
    pytest.param(("gen-visible", "4", "3", "--direction", "2,1,0"),
                 "--direction expects 2 comma-separated integers",
                 id="direction-count"),
    pytest.param(("gen-visible", "4", "3", "--direction", " 2_0,1"),
                 "--direction expects 2 comma-separated integers, "
                 "got ' 2_0,1'",
                 id="direction-not-format-integer"),
    pytest.param(("audin", str(FIGURES / "fig1_left.trop"), "--class",
                  " 1,1_0,1"),
                 "--class expects comma-separated integers, got ' 1,1_0,1'",
                 id="class-not-format-integer"),
    pytest.param(("gen-visible", "4", "3", "--direction", "\u0662,1"),
                 "--direction expects 2 comma-separated integers, "
                 "got '\u0662,1'",
                 id="direction-unicode-digit"),
    pytest.param(("gen-family", "\u0662"),
                 "L expects an integer, got '\u0662'",
                 id="family-unicode-digit"),
    pytest.param(("gen-family", " 1_0"), "L expects an integer, got ' 1_0'",
                 id="family-not-format-integer"),
    pytest.param(("gen-family", "1_0"), "L expects an integer, got '1_0'",
                 id="family-underscore"),
])
def test_malformed_integer_option_exits_2(capsys, argv, fragment):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert fragment in err


@pytest.mark.parametrize("anchor", ["1", "1,x", "1.5,1"])
def test_malformed_anchor_exits_2(capsys, anchor):
    code, out, err = run(capsys, "gen-visible", "4", "3", "--anchor", anchor)
    assert code == 2
    assert out == ""
    assert err == (f"error: --anchor expects 2 comma-separated rationals, "
                   f"got {anchor!r}\n")


def test_homology_refuses_an_end_without_a_cap_kind(capsys, monkeypatch):
    code, document, _ = run(capsys, "gen-visible", "8", "4",
                            "--direction", "4,1")
    assert code == 0
    code, _, err = run(capsys, "homology", "-", stdin_text=document,
                       monkeypatch=monkeypatch)
    assert code == 2
    assert err.startswith("error: curve visible: end 'plus' has mu = 4; ")


FOUR_VALENT = """diagram rectangle width=4 height=4
curve c
vertex v (2,2)
end e1 v dir=(2,1) land=(4,3)
end e2 v dir=(-2,-1) land=(0,1)
end e3 v dir=(1,2) land=(3,4)
end e4 v dir=(-1,-2) land=(1,0)
"""


def test_homology_refuses_a_curve_without_a_surface(capsys, tmp_path):
    # The four-valent vertex is balanced and the curve validates, but no
    # surface lies over it, so it has no class either.
    path = tmp_path / "four_valent.trop"
    path.write_text(FOUR_VALENT)
    assert run(capsys, "validate", str(path))[0] == 0
    for command in ("homology", "topology", "audin"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, ""), command
        assert err == "error: curve c: vertex 'v' has valence 4, expected 3\n"


@pytest.fixture
def digit_limit():
    """The most digits int() converts, set to the default while the test
    runs if the interpreter has the limit off."""
    limit = sys.get_int_max_str_digits()
    if limit:
        yield limit
        return
    sys.set_int_max_str_digits(4300)
    try:
        yield 4300
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("template, col", [
    ("diagram rectangle width={} height=3\n", 25),
    ("diagram polygon (0,0) (4,0) (4,1/{}) (0,4)\n", 29),
    (CURVE_HEAD + "end x a dir=(-{},0) land=(0,1)\n", 13),
    ("diagram polygon (0,0) (1,0) (0,1) ; basis a ; form {}\n", 52),
])
def test_overlong_number_in_a_document_exits_2(capsys, tmp_path,
                                                digit_limit, template, col):
    bad = tmp_path / "bad.trop"
    bad.write_text(template.format("1" * (digit_limit + 1)))
    code, out, err = run(capsys, "validate", str(bad))
    line = template.count("\n")
    assert (code, out) == (2, "")
    assert err == (f"error: line {line}, col {col}: a number has more than "
                   f"{digit_limit} digits\n")


@pytest.mark.parametrize("argv, option", [
    (("triangle", "1", "{}", "1"), "b"),
    (("gen-visible", "{}", "3"), "width"),
    (("gen-visible", "4", "3", "--direction", "2,{}"), "--direction"),
    (("gen-visible", "4", "3", "--anchor", "1/{},1"), "--anchor"),
    (("genus-bound", "{}"), "LAMBDA"),
    (("squeeze", "{}"), "I"),
    (("gen-family", "{}"), "L"),
    (("audin", str(FIGURES / "fig1_left.trop"), "--class", "{},1,1"),
     "--class"),
])
def test_overlong_number_option_exits_2(capsys, digit_limit, argv, option):
    ones = "1" * (digit_limit + 1)
    code, out, err = run(capsys, *(arg.format(ones) for arg in argv))
    assert (code, out) == (2, "")
    assert err == (f"error: {option} has a number with more than "
                   f"{digit_limit} digits\n")


@pytest.mark.parametrize("argv, quantity", [
    (("triangle", "1", "1", "{}"), "b+c"),
    (("triangle", "{}", "1", "1"), "c+a"),
    (("genus-bound", "{}"), "k"),
    (("genus-bound", "{}", "--threshold", "proof"), "k"),
    (("gen-visible", "4", "{}"), "curve visible"),  # a landing's y
])
def test_overlong_computed_number_exits_2(capsys, digit_limit, argv,
                                          quantity):
    # Every argument has as many digits as int() reads, and the named
    # quantity one more: nothing of the report is printed.
    nines = "9" * digit_limit
    code, out, err = run(capsys, *(arg.format(nines) for arg in argv))
    assert (code, out) == (2, "")
    assert err == (f"error: {quantity} has a number with more than "
                   f"{digit_limit} digits\n")


def test_homology_input_error_prints_no_header(capsys):
    # fig1 is no rectangle: the sweep refusal leaves stdout empty, as it
    # does for topology and audin.
    code, out, err = run(capsys, "homology", str(FIGURES / "fig1_left.trop"))
    assert code == 2
    assert out == ""
    assert err == ("error: curve rp2: sweep parities are defined for "
                   "node-free rectangle diagrams\n")


def test_homology_header_alone_without_curves(capsys, monkeypatch):
    code, out, _ = run(capsys, "homology", "-", monkeypatch=monkeypatch,
                       stdin_text=KLEIN_POLYGON_DIAGRAM + "\n")
    assert code == 0
    assert out == "basis: sphere_h, sphere_v\n"


def test_homology_reads_sweep_classes_of_a_polygon(capsys, monkeypatch):
    code, out, _ = run(capsys, "homology", "-", monkeypatch=monkeypatch,
                       stdin_text=klein_as_polygon())
    assert code == 0
    assert out == (GOLDEN / "fig2_klein.homology.txt").read_text()


def test_topology_names_a_closed_orientable_surface(capsys, monkeypatch):
    # Three disc caps on one m = 1 vertex: chi = -1 + 3 = 2.
    sphere = ("diagram polygon (-4,-3) (4,-3) (4,4) (-4,4) ; "
              "node (1,0) cut=(1,0) ; node (0,1) cut=(0,1) ; "
              "node (-1,-1) cut=(-1,-1)\n"
              "curve sphere\n"
              "vertex v (0,0)\n"
              "end a v dir=(1,0) node=0\n"
              "end b v dir=(0,1) node=1\n"
              "end c v dir=(-1,-1) node=2\n")
    code, out, _ = run(capsys, "topology", "-", monkeypatch=monkeypatch,
                       stdin_text=sphere)
    assert code == 0
    assert out.splitlines()[-1] == ("curve sphere: closed orientable "
                                    "surface, chi=2, genus g=0 (sphere)")


FUZZED_COMMANDS = (["validate", "-"], ["topology", "-"], ["homology", "-"],
                   ["audin", "-"], ["render", "-", "-o", "-"])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(token_soups)
def test_cli_never_raises_on_token_soups(text):
    for argv in FUZZED_COMMANDS:
        with mock.patch("sys.stdin", io.StringIO(text)), \
                redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)


def test_report_error_names_its_curve(capsys, tmp_path):
    # The first curve is reported in full; the empty second one stops the
    # run with an input error that says which curve it was.
    klein = (FIGURES / "fig2_klein.trop").read_text()
    doc = tmp_path / "two.trop"
    doc.write_text(klein + "curve hollow\n")
    _, alone, _ = run(capsys, "topology", str(FIGURES / "fig2_klein.trop"))
    code, out, err = run(capsys, "topology", str(doc))
    assert code == 2
    assert out == alone
    assert err == "error: curve hollow: the empty curve carries no surface\n"


def test_topology_report_takes_one_inventory(capsys, monkeypatch):
    # fig3_family has 8 vertices and 10 ends; the report reads m and the
    # cap kinds from one euler_breakdown instead of recomputing them.
    multiplicities = count_calls(monkeypatch, tropical, "vertex_multiplicity")
    end_kinds = count_calls(monkeypatch, tropical, "classify_end")
    code, _, _ = run(capsys, "topology", str(FIGURES / "fig3_family.trop"))
    assert code == 0
    assert len(multiplicities) == 8
    assert len(end_kinds) == 10


def test_homology_report_walks_the_curve_once(capsys, monkeypatch):
    # fig3_family has 10 ends; one mod2_class builds the curve's geometry
    # once and reads every end's cap kind once, for both sweeps.
    original = homology.geometry
    builds = []

    def counted(*args):
        builds.append(args)
        return original(*args)

    monkeypatch.setattr(homology, "geometry", counted)
    multiplicities = count_calls(monkeypatch, tropical, "end_multiplicity")
    code, out, _ = run(capsys, "homology", str(FIGURES / "fig3_family.trop"))
    assert code == 0
    assert out == (GOLDEN / "fig3_family.homology.txt").read_text()
    assert len(builds) == 1
    assert len(multiplicities) == 10


def test_semantically_invalid_diagram_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.trop"
    bad.write_text("diagram rectangle width=0 height=1\n")
    code, _, err = run(capsys, "topology", str(bad))
    assert code == 2


# A balanced curve whose edge g has weight 2 (two unit ends at each vertex
# balance it); edges carry weight one, so every command refuses it.
WEIGHT_TWO = ("diagram rectangle width=6 height=4\ncurve c\n"
              "vertex u (2,2)\nvertex w (4,2)\nedge g u w weight=2\n"
              "end a u dir=(-1,1) land=(0,4)\nend b u dir=(-1,-1) land=(0,0)\n"
              "end c w dir=(1,1) land=(6,4)\nend d w dir=(1,-1) land=(6,0)\n")


@pytest.mark.parametrize("argv", [("validate", "-"), ("topology", "-"),
                                  ("render", "-", "-o", "-")])
def test_weighted_edge_exits_2(capsys, monkeypatch, argv):
    code, out, err = run(capsys, *argv, monkeypatch=monkeypatch,
                         stdin_text=WEIGHT_TWO)
    assert (code, out) == (2, "")
    assert err == ("error: line 5, col 12: edges have weight 1, "
                   "got 'weight=2'\n")


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "topology", "no_such_file.trop")
    assert code == 2


def test_unknown_command_exits_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_triangle_command(capsys):
    code, out, _ = run(capsys, "triangle", "1", "1", "1")
    assert code == 0 and "satisfied" in out
    code, out, _ = run(capsys, "triangle", "1", "1", "3")
    assert code == 1
    assert "violated: c < a+b" in out
    code, out, _ = run(capsys, "triangle", "1", "2", "3")
    assert code == 1
    assert out == ("triangle inequalities for a=1, b=2, c=3:\n"
                   "  a < b+c: 1 < 5: satisfied\n"
                   "  b < c+a: 2 < 4: satisfied\n"
                   "  c < a+b: 3 < 3: VIOLATED\n"
                   "violated: c < a+b\n")
    code, out, _ = run(capsys, "triangle", "2/3", "5/3", "2/3")
    assert code == 1
    assert out == ("triangle inequalities for a=2/3, b=5/3, c=2/3:\n"
                   "  a < b+c: 2/3 < 7/3: satisfied\n"
                   "  b < c+a: 5/3 < 4/3: VIOLATED\n"
                   "  c < a+b: 2/3 < 7/3: satisfied\n"
                   "violated: b < c+a\n")


def test_gen_family_pipes_into_topology(capsys, monkeypatch):
    code, doc_text, _ = run(capsys, "gen-family", "2")
    assert code == 0
    code, out, _ = run(capsys, "topology", "-", stdin_text=doc_text,
                       monkeypatch=monkeypatch)
    assert code == 0
    assert "nonorientable genus k=42" in out


def test_gen_visible_pipes_into_topology(capsys, monkeypatch):
    code, doc_text, _ = run(capsys, "gen-visible", "4", "5/2")
    assert code == 0
    code, out, _ = run(capsys, "topology", "-", stdin_text=doc_text,
                       monkeypatch=monkeypatch)
    assert code == 0
    assert "(Klein bottle)" in out


def test_gen_visible_that_does_not_fit_exits_2(capsys):
    code, _, err = run(capsys, "gen-visible", "4", "2")
    assert code == 2
    assert "corner" in err or "does not fit" in err or "horizontal" in err


def test_gen_visible_refuses_a_unicode_digit(capsys):
    code, out, err = run(capsys, "gen-visible", "\u0664", "3")
    assert code == 2
    assert out == ""
    assert err == ("error: expected an exact rational like 3 or 22/7, "
                   "got '\u0664'\n")


def test_genus_bound_command(capsys):
    code, out, _ = run(capsys, "genus-bound", "3/2")
    assert code == 0 and "k = 2" in out and "Klein bottle" in out
    code, out, _ = run(capsys, "genus-bound", "5")
    assert code == 0 and "k = 22" in out and "ell = 1" in out
    code, out, _ = run(capsys, "genus-bound", "12")
    assert code == 0 and "k = 42" in out and "ell = 2" in out
    code, out, _ = run(capsys, "genus-bound", "11")
    assert "ell = 1" in out
    code, out, _ = run(capsys, "genus-bound", "11", "--threshold=proof")
    assert "ell = 2" in out


def test_squeeze_command(capsys):
    code, out, _ = run(capsys, "squeeze", "101/100")
    assert code == 0
    assert "(0,1/200)" in out and "(2,201/200)" in out
    code, out, _ = run(capsys, "squeeze", "1")
    assert code == 1 and "inessential" in out


@pytest.mark.parametrize("name", TOPOLOGY_GOLDENS)
def test_render_matches_golden_and_is_deterministic(capsys, tmp_path, name):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    assert run(capsys, "render", str(FIGURES / f"{name}.trop"),
               "-o", str(out1))[0] == 0
    assert run(capsys, "render", str(FIGURES / f"{name}.trop"),
               "-o", str(out2))[0] == 0
    first = out1.read_bytes()
    assert first == out2.read_bytes()
    assert first == (GOLDEN / f"{name}.svg").read_bytes()


@pytest.mark.parametrize("path", sorted(FIGURES.glob("*.trop")),
                         ids=lambda path: path.stem)
def test_render_is_well_formed_xml(capsys, path):
    code, out, _ = run(capsys, "render", str(path), "-o", "-")
    assert code == 0
    assert ET.fromstring(out.encode("utf-8")).tag.endswith("svg")


def test_render_to_stdout(capsys):
    code, out, _ = run(capsys, "render", str(FIGURES / "fig2_klein.trop"),
                       "-o", "-")
    assert code == 0
    assert out.startswith("<?xml") and "</svg>" in out


HUGE = "1" + "0" * 400


@pytest.mark.parametrize("text", [
    f"diagram rectangle width={HUGE} height=1\n",
    ("diagram rectangle width=4 height=5/2\ncurve c\n"
     f"vertex v ({HUGE},1)\nend a v dir=(-1,0) land=(0,1)\n"),
], ids=["huge-diagram", "huge-vertex"])
def test_render_out_of_svg_range_exits_2(capsys, monkeypatch, text):
    code, out, err = run(capsys, "render", "-", "-o", "-", stdin_text=text,
                         monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert err == "error: a coordinate is out of SVG range\n"


def test_render_error_names_its_curve(capsys, monkeypatch):
    text = ("diagram rectangle width=4 height=5/2\n"
            "curve good\nend a (2,5/4) dir=(2,1) land=(4,9/4)\n"
            "end b (2,5/4) dir=(-2,-1) land=(0,1/4)\n"
            "curve k\nvertex v (1,1)\nend a v dir=(-1,0) node=0\n")
    with pytest.raises(InvalidCurve,
                       match="^curve k: end 'a' refers to missing node 0$"):
        render_document(parse_document(text))
    code, out, err = run(capsys, "render", "-", "-o", "-", stdin_text=text,
                         monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == "error: curve k: end 'a' refers to missing node 0\n"


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    def boom(*args):
        raise RuntimeError("boom")
    monkeypatch.setattr(tropical, "validate", boom)
    code, _, err = run(capsys, "validate", str(FIGURES / "fig2_klein.trop"))
    assert code == 3
    assert err == "internal error: RuntimeError: boom\n"


def test_closed_stdout_exits_141_quietly(capsys, monkeypatch, tmp_path):
    # sink stands for the descriptor of a pipe whose reader has gone.
    sink = open(tmp_path / "sink", "wb")

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return sink.fileno()

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["topology", str(FIGURES / "fig3_family.trop")])
    monkeypatch.undo()
    assert code == 141
    assert capsys.readouterr().err == ""
    # The descriptor now leads to os.devnull, so a last flush is harmless.
    os.write(sink.fileno(), b"flushed at exit")
    sink.close()
    assert (tmp_path / "sink").read_bytes() == b""


def test_render_to_unwritable_path_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "render", str(FIGURES / "fig2_klein.trop"),
                       "-o", str(tmp_path))
    assert code == 2
    assert "cannot write" in err
