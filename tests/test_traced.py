"""The traced benchmark needs every function it fits a slope to called.

`bench/run.py --workload family --trace 1` wraps each function that
bench/spans.py traces, certifies the family at each rung of its ladder,
and reads each function's total time at each rung from the tracer's
counters (bench/workloads.py, Family.traced_round).  A function in
workloads.SLOPED that one certification never calls has no entry there,
and the traced run ends with a KeyError instead of a report.
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

from troplag import constructions, textio

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_one_certification_calls_every_sloped_function(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    certify, spans, workloads = (importlib.import_module(name) for name in
                                 ("certify", "spans", "workloads"))
    tracer = spans.Tracer()
    # As one rung of the traced family run: the construction checked
    # against the drawing, then its text parsed and certified in
    # certify.py's order.
    with tracer.installed():
        built = constructions.trop_family(2)
        text = textio.serialize_document(
            textio.Document(built.diagram, (built.curve,)))
        answer = certify.certify(textio.parse_document(text))
    (curve,) = answer.curves
    assert curve.oracle_agrees and curve.mod2 is not None
    assert sorted(set(workloads.SLOPED) - set(tracer.total_ns)) == []


# Runs `topology` on the Klein figure twice inside the tracer's block, in a
# fresh interpreter that has loaded every traced module (as the benchmark
# has) but not the module holding the command, which so first loads inside
# the block; then once outside.  Prints the call counts after each run.
TWICE = """
import contextlib, importlib, io, json, sys
import spans
from troplag import cli

for module, _ in spans.TRACED:
    importlib.import_module(f"troplag.{module}")
assert "troplag.reports" not in sys.modules
tracer, counts = spans.Tracer(), []

def run():
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["topology", sys.argv[1]]) == 0
    counts.append(dict(tracer.calls))

with tracer.installed():
    run()
    run()
run()
print(json.dumps(counts))
"""


def test_a_module_loaded_inside_the_block_keeps_no_wrapper():
    # A module that bound a traced function at its top, and was first
    # loaded inside the block, would bind the wrapper and keep it after the
    # block: each run inside would then count a different number of calls,
    # and the run outside would count some.
    package_root = str(Path(textio.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [str(BENCH), package_root,
                                         os.environ.get("PYTHONPATH")]))
    figure = BENCH.parent / "figures" / "fig2_klein.trop"
    result = subprocess.run(
        [sys.executable, "-c", TWICE, str(figure)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
    first, second, outside = json.loads(result.stdout.splitlines()[-1])
    assert {name: 2 * n for name, n in first.items()} == second
    assert outside == second
    assert first["cli.main"] == first["textio.parse_document"] == 1
    assert first["topology.euler_breakdown"] == 1
