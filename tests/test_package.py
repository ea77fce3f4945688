"""The package's public names and what importing it loads.

`import troplag` loads no submodule; each public name is imported from its
submodule on first access.  The CLI loads only the modules its command
runs, which matters most where no bytecode is cached and every loaded
module is compiled from source on each start.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import troplag

FIGURES = Path(__file__).resolve().parent.parent / "figures"
# The subprocess imports troplag from wherever this test session found it.
PACKAGE_ROOT = str(Path(troplag.__file__).resolve().parent.parent)

EXPORTS = {
    "errors": ["TroplagError"],
    "lattice": ["DegenerateDirection", "IntVec", "RatPoint", "pt"],
    "maps": ["NonUnimodularMap", "UnimodularAffineMap"],
    "diagram": ["BaseDiagram", "HomologyModel", "InvalidDiagram",
                "LocationKind", "Node", "PointLocation", "UnsupportedDiagram",
                "rectangle"],
    "nodes": ["x_abc"],
    "tropical": ["EndKind", "InvalidCurve", "NonIntegralSelfIntersection",
                 "NonTrivalentVertex", "NotABoundaryEnd", "TropicalCurve",
                 "UnbalancedVertex", "UnsupportedEndMultiplicity",
                 "ValidationIssue", "ValidationReport", "check_balancing",
                 "classify_end", "end_multiplicity", "validate",
                 "vertex_double_points", "vertex_multiplicity"],
    "topology": ["CellComplex", "ChiBreakdown", "EmptyCurve",
                 "MalformedPresentation", "SurfaceClass",
                 "build_presentation", "classify", "euler_breakdown",
                 "oracle_classify", "surface_name"],
    "homology": ["InvalidClass", "Mod2Class", "NonGenericWitness",
                 "SweepDirection", "SweepParity", "UnsweepableCurve",
                 "audin_check", "mod2_class", "pontryagin_square",
                 "sweep_parity"],
    "constructions": ["DegenerateConstruction", "DoesNotFit",
                      "FamilyInstance", "GenusBound", "InvalidInput",
                      "SqueezeResult", "TriangleResult", "genus_bound",
                      "klein_threshold", "rp2_curve", "squeeze_check",
                      "triangle_check", "trop_family", "visible_segment"],
    "textio": ["Document", "ParseError", "parse_document",
               "serialize_document"],
    "render": ["render_document"],
}
NAMES = sorted([*EXPORTS, *(n for names in EXPORTS.values() for n in names)])
# What every command that reads or writes a document loads.
DOCUMENT_SET = ["troplag.cli", "troplag.diagram", "troplag.errors",
                "troplag.lattice", "troplag.textio", "troplag.tropical"]
# What `validate` loads; every document report loads at least these.
VALIDATE_SET = sorted(DOCUMENT_SET + ["troplag.reports"])
# The modules that hold code a rectangle report never runs: the other
# commands, the refusal path, the polygon reader, the writer, the maps, and
# x_abc with the ray exits.
MOVED = ["troplag.maps", "troplag.nodes", "troplag.numeric",
         "troplag.polygon", "troplag.refusal", "troplag.writer"]
KLEIN = str(FIGURES / "fig2_klein.trop")

# Prints, as its last line, the public names dir() misses on a fresh
# package and the troplag submodules loaded after each step.
STEPS = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("troplag."))

import troplag
not_in_dir = sorted(set(troplag.__all__) - set(dir(troplag)))
after_package = loaded()
import troplag.cli
after_cli = loaded()
code = troplag.cli.main(["validate", sys.argv[1]])
print(json.dumps([not_in_dir, after_package, after_cli, loaded(), code]))
"""

# Runs the command given as arguments and prints, as its last line, the
# troplag submodules loaded and the exit code.
COMMAND = """
import json, sys
import troplag.cli
code = troplag.cli.main(sys.argv[1:])
print(json.dumps([sorted(m for m in sys.modules if m.startswith("troplag.")),
                  code]))
"""

# Runs the command given as arguments and prints, as its last line, which
# of dataclasses and inspect (which loads ast, dis and tokenize) it
# loaded, and the exit code.
HEAVY = """
import json, sys
import troplag.cli
code = troplag.cli.main(sys.argv[1:])
print(json.dumps([sorted({"dataclasses", "inspect"} & set(sys.modules)),
                  code]))
"""


def _fresh_interpreter(script, *args):
    """The JSON on the last line script prints in a new interpreter."""
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT,
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_public_names_are_the_listed_ones():
    assert len(NAMES) == 82
    assert sorted(troplag.__all__) == NAMES


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_submodules_object(module):
    owner = getattr(troplag, module)
    assert owner is sys.modules[f"troplag.{module}"]
    for name in EXPORTS[module]:
        assert getattr(troplag, name) is getattr(owner, name)
        assert vars(troplag)[name] is getattr(owner, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from troplag import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == NAMES
    for name in NAMES:
        assert namespace[name] is getattr(troplag, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        troplag.no_such_name
    with pytest.raises(ImportError):
        exec("from troplag import no_such_name", {})


def test_imports_load_only_what_runs_and_dir_lists_every_name():
    not_in_dir, after_package, after_cli, after_validate, code = \
        _fresh_interpreter(STEPS, str(FIGURES / "fig2_klein.trop"))
    assert not_in_dir == []
    assert after_package == []
    assert after_cli == ["troplag.cli", "troplag.errors"]
    assert code == 0
    assert after_validate == VALIDATE_SET


@pytest.mark.parametrize("argv", [["triangle", "1", "1", "1"],
                                  ["genus-bound", "5"]])
def test_threshold_commands_load_no_geometry(argv):
    # The thresholds compare rationals: no diagram, curve or parser.
    loaded, code = _fresh_interpreter(COMMAND, *argv)
    assert code == 0
    assert loaded == ["troplag.cli", "troplag.constructions",
                      "troplag.errors", "troplag.lattice", "troplag.numeric"]


@pytest.mark.parametrize("argv, extra", [
    (["homology", KLEIN], ["homology", "reports"]),
    (["render", KLEIN, "-o", "-"], ["render", "reports"]),
    (["topology", KLEIN], ["reports", "topology"]),
    (["audin", KLEIN], ["homology", "reports", "topology"]),
    (["gen-family", "2"], ["constructions", "nodes", "numeric", "writer"]),
], ids=["homology", "render", "topology", "audin", "gen-family"])
def test_only_chi_commands_load_topology(argv, extra):
    # An end's cap kind is tropical.classify_end, so the sweeps and the
    # markers need no chi engine, and a family's expected surface is built
    # only when it is read; topology and audin print chi.
    loaded, code = _fresh_interpreter(COMMAND, *argv)
    assert code == 0
    assert loaded == sorted(DOCUMENT_SET + [f"troplag.{m}" for m in extra])


@pytest.mark.parametrize("argv", [
    ["validate", KLEIN], ["topology", KLEIN], ["homology", KLEIN],
    ["audin", KLEIN], ["render", KLEIN, "-o", "-"],
], ids=lambda argv: argv[0])
def test_rectangle_reports_load_no_moved_module(argv):
    # A rectangle document that parses runs none of the code moved out of
    # cli, textio, lattice, diagram and tropical.
    loaded, code = _fresh_interpreter(COMMAND, *argv)
    assert code == 0
    assert "troplag.reports" in loaded
    assert sorted(set(loaded) & set(MOVED)) == []


@pytest.mark.parametrize("text, argv, expected_code, own", [
    ("diagram rectangle width=1.5 height=2\n", ["validate"], 2,
     ["refusal"]),
    (None, ["validate", str(FIGURES / "fig1_right.trop")], 0,
     ["nodes", "polygon", "refusal"]),
    (None, ["gen-family", "2"], 0, ["nodes", "numeric", "writer"]),
], ids=["malformed", "polygon", "gen-family"])
def test_other_paths_load_their_own_modules(tmp_path, text, argv,
                                            expected_code, own):
    # Malformed input loads the refusal path, a polygon line the polygon
    # reader (with the word readers of refusal, and the ray exits for its
    # nodes' cuts), and gen-family the other commands and the writer.
    if text is not None:
        path = tmp_path / "malformed.trop"
        path.write_text(text, encoding="utf-8")
        argv = [*argv, str(path)]
    loaded, code = _fresh_interpreter(COMMAND, *argv)
    assert code == expected_code
    assert sorted(set(loaded) & set(MOVED)) == [f"troplag.{m}" for m in own]


@pytest.mark.parametrize("argv", [
    ["topology", str(FIGURES / "fig2_klein.trop")],
    ["gen-family", "2"],
    ["triangle", "1", "1", "1"],
])
def test_commands_load_no_dataclasses(argv):
    # The records are NamedTuples, so no command pays for @dataclass.
    assert _fresh_interpreter(HEAVY, *argv) == [[], 0]
