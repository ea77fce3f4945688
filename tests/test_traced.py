"""The traced benchmark needs every function it fits a slope to called.

`bench/run.py --workload family --trace 1` wraps each function that
bench/spans.py traces, certifies the family at each rung of its ladder,
and reads each function's total time at each rung from the tracer's
counters (bench/workloads.py, Family.traced_round).  A function in
workloads.SLOPED that one certification never calls has no entry there,
and the traced run ends with a KeyError instead of a report.
"""
import importlib
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
