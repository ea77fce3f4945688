"""One certification end to end, and its comparison with the expectation.

Every call goes through a troplag module attribute, so the traced run's
wrappers see it.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass

from troplag import constructions, diagram, homology, lattice, render, textio
from troplag import topology, tropical

H = homology.SweepDirection.HORIZONTAL
V = homology.SweepDirection.VERTICAL

# render draws every edge and end as one line in the curve style, and
# nothing else with this stroke width.
CURVE_STROKE = 'stroke-width="2.5"'


@dataclass(frozen=True)
class CurveAnswer:
    issues: frozenset
    surface: tuple | None = None     # ordered as inputs.Surface
    oracle_agrees: bool = False
    breakdown_chi: int | None = None
    parities: tuple | None = None
    mod2: tuple | None = None
    p2: int | None = None
    audin: bool | None = None


@dataclass(frozen=True)
class Answer:
    curves: tuple
    curve_lines: int
    svg_bytes: int


def certify(doc, lift=None) -> Answer:
    """validate -> classify, euler_breakdown, oracle -> sweeps, mod2_class,
    P2, Audin (closed curves) -> render.  lift is the integral class used
    for P2 where the diagram has no sweep classes."""
    dg = doc.diagram
    curves = []
    for curve in doc.curves:
        report = tropical.validate(dg, curve)
        if not report.passed:
            curves.append(CurveAnswer(frozenset(i.code for i in report.issues)))
            continue
        sc = topology.classify(dg, curve)
        chi = topology.euler_breakdown(dg, curve).chi
        oracle = topology.oracle_classify(
            topology.build_presentation(dg, curve))
        parities = cls = p2 = audin = None
        integral = lift
        if sc.closed and dg.homology.class_of_horizontal_sweep is not None:
            parities = (homology.sweep_parity(dg, curve, H).parity,
                        homology.sweep_parity(dg, curve, V).parity)
            cls = integral = homology.mod2_class(dg, curve).coefficients
        if sc.closed and integral is not None:
            p2 = homology.pontryagin_square(dg.homology, integral)
            audin = homology.audin_check(p2, sc.euler_char)
        surface = (sc.closed, sc.orientable, sc.euler_char,
                   sc.nonorientable_genus, sc.orientable_genus,
                   sc.boundary_circles, sc.double_points_surgered)
        curves.append(CurveAnswer(frozenset(), surface, oracle == sc, chi,
                                  parities, cls, p2, audin))
    svg = render.render_document(doc)
    return Answer(tuple(curves), svg.count(CURVE_STROKE),
                  len(svg.encode("utf-8")))


def run_item(item):
    """Build, read and certify one item; returns its Answer, or the
    exception it raised."""
    try:
        if item.kind in ("rp2", "visible"):
            if item.kind == "rp2":
                dg, curve = constructions.rp2_curve(*item.params)
            else:
                width, height = item.params
                dg = diagram.rectangle(width, height)
                curve = constructions.visible_segment(
                    dg, lattice.IntVec(2, 1),
                    lattice.RatPoint(width / 2, height / 2))
            text = textio.serialize_document(textio.Document(dg, (curve,)))
        else:
            text = item.text
        return certify(textio.parse_document(text), item.lift)
    except Exception as err:  # scored by verdict(), never fatal to the run
        return err


def verdict(expect, outcome) -> str:
    """'ok'; 'failed' when an exception came where none (or another kind)
    was expected; 'wrong' when an answer contradicts the expectation."""
    if isinstance(outcome, Exception):
        if type(outcome).__name__ != expect.error:
            return "failed"
        line = getattr(outcome, "line", None)
        return "ok" if expect.error_line in (None, line) else "wrong"
    if expect.error is not None:
        return "wrong"
    (curve,) = outcome.curves
    if expect.issues:
        return "ok" if curve.issues == expect.issues else "wrong"
    s = expect.surface
    good = (not curve.issues and curve.surface == astuple(s)
            and curve.oracle_agrees and curve.breakdown_chi == s.chi
            and curve.parities == expect.parities
            and curve.mod2 == expect.mod2 and curve.p2 == expect.p2
            and curve.audin == expect.audin
            and outcome.curve_lines == expect.curve_lines)
    return "ok" if good else "wrong"
