import random
from collections import Counter
from fractions import Fraction

import pytest

from troplag import (
    BoundaryTerminal,
    CurveEnd,
    EmptyCurve,
    EndKind,
    IntVec,
    MalformedPresentation,
    Piece,
    PieceKind,
    SurfaceClass,
    SurfacePresentation,
    TropicalCurve,
    UnsupportedEndMultiplicity,
    audin_check,
    build_presentation,
    classify,
    classify_end,
    euler_breakdown,
    mod2_class,
    oracle_classify,
    parse_document,
    pontryagin_square,
    pt,
    rectangle,
    rp2_curve,
    serialize_document,
    surface_name,
    trop_family,
    validate,
    vertex_multiplicity,
    visible_segment,
)
from conftest import (BUNDLED_DOCS, load_document, random_curve,
                      random_unimodular_map)

F = Fraction


@pytest.fixture(scope="module")
def fig1_left():
    return rp2_curve(1, 1, F(4, 3), 4)


@pytest.fixture(scope="module")
def klein():
    diagram = rectangle(4, F(5, 2))
    return diagram, visible_segment(diagram, IntVec(2, 1), pt(2, F(5, 4)))


# -- classify_end -------------------------------------------------------

def test_node_terminal_is_disc_cap(fig1_left):
    diagram, curve = fig1_left
    cap = next(e for e in curve.ends if e.id == "cap_a")
    assert classify_end(diagram, cap) is EndKind.DISC_CAP


def test_mu2_is_cross_cap(klein):
    diagram, curve = klein
    assert [classify_end(diagram, e) for e in curve.ends] == [
        EndKind.CROSS_CAP, EndKind.CROSS_CAP]


def test_mu1_is_collar():
    doc = load_document("fig1_right.trop")
    curve = doc.curves[0]
    out = next(e for e in curve.ends if e.id == "out")
    assert classify_end(doc.diagram, out) is EndKind.COLLAR


def test_mu3_rejected():
    diagram = rectangle(9, 9)
    curve = TropicalCurve((), (), [
        CurveEnd("a", pt(3, 3), IntVec(3, 1), BoundaryTerminal(pt(9, 5))),
        CurveEnd("b", pt(3, 3), IntVec(-3, -1), BoundaryTerminal(pt(0, 2)))])
    assert validate(diagram, curve).passed
    with pytest.raises(UnsupportedEndMultiplicity):
        classify_end(diagram, curve.ends[0])


# -- euler characteristic ------------------------------------------------

def test_chi_klein_segment(klein):
    assert euler_breakdown(*klein).chi == 0


def test_chi_rp2(fig1_left):
    diagram, curve = fig1_left
    assert euler_breakdown(diagram, curve).chi == 1
    breakdown = euler_breakdown(diagram, curve)
    assert (breakdown.vertex_term, breakdown.cap_term,
            breakdown.surgery_term) == (-1, 2, 0)


def test_chi_family():
    instance = trop_family(1)
    assert euler_breakdown(instance.diagram, instance.curve).chi == -20
    breakdown = euler_breakdown(instance.diagram, instance.curve)
    assert (breakdown.vertex_term, breakdown.cap_term,
            breakdown.surgery_term) == (-4, 0, -16)


def test_chi_empty_curve_rejected():
    with pytest.raises(EmptyCurve):
        euler_breakdown(rectangle(2, 2), TropicalCurve(name="empty"))


# -- classify ------------------------------------------------------------

def test_classify_klein(klein):
    sc = classify(*klein)
    assert sc == SurfaceClass(orientable=False, euler_char=0,
                              boundary_circles=0, double_points_surgered=0)
    assert surface_name(sc) == "Klein bottle"


@pytest.mark.parametrize("orientable, chi, error", [
    (True, 1, MalformedPresentation),   # odd chi
    (True, 4, ValueError),              # orientable genus g = -1
    (False, 2, ValueError),             # nonorientable genus k = 0
])
def test_surface_class_rejects_impossible_closed_surfaces(orientable, chi,
                                                          error):
    with pytest.raises(error):
        SurfaceClass(orientable=orientable, euler_char=chi,
                     boundary_circles=0, double_points_surgered=0)


def test_classify_disc():
    doc = load_document("fig1_right.trop")
    sc = classify(doc.diagram, doc.curves[0])
    assert (sc.closed, sc.orientable, sc.euler_char, sc.boundary_circles) \
        == (False, True, 1, 1)
    assert sc.nonorientable_genus is None and sc.orientable_genus is None
    assert surface_name(sc) == "disc"


def test_classify_family_two_blocks():
    instance = trop_family(2)
    sc = classify(instance.diagram, instance.curve)
    assert sc.euler_char == -40
    assert sc.nonorientable_genus == 42
    assert sc.double_points_surgered == 16
    assert sc == instance.expected


def test_oracle_two_discs_plus_annulus_is_sphere():
    presentation = SurfacePresentation(
        (Piece(PieceKind.ANNULUS, ("l", "r")), Piece(PieceKind.DISC, ("a",)),
         Piece(PieceKind.DISC, ("b",))), (("l", "a"), ("r", "b")), 0)
    sc = oracle_classify(presentation)
    assert (sc.closed, sc.orientable, sc.euler_char, sc.orientable_genus) \
        == (True, True, 2, 0)


def test_chi_parity_invariant_on_bundled():
    for name in BUNDLED_DOCS:
        doc = load_document(name)
        for curve in doc.curves:
            chi = euler_breakdown(doc.diagram, curve).chi
            disccaps = sum(1 for e in curve.ends
                           if classify_end(doc.diagram, e) is EndKind.DISC_CAP)
            assert (chi - len(curve.vertices) - disccaps) % 2 == 0


# -- presentations -------------------------------------------------------

def test_presentation_klein(klein):
    presentation = build_presentation(*klein)
    kinds = Counter(p.kind for p in presentation.pieces)
    assert kinds == {PieceKind.ANNULUS: 1, PieceKind.MOBIUS: 2}
    assert len(presentation.gluings) == 2
    assert presentation.handles == 0


def test_presentation_rp2(fig1_left):
    presentation = build_presentation(*fig1_left)
    kinds = Counter(p.kind for p in presentation.pieces)
    assert kinds == {PieceKind.PANTS: 1, PieceKind.DISC: 2,
                     PieceKind.MOBIUS: 1}
    assert len(presentation.gluings) == 3


def test_presentation_family():
    instance = trop_family(1)
    presentation = build_presentation(instance.diagram, instance.curve)
    kinds = Counter(p.kind for p in presentation.pieces)
    assert kinds == {PieceKind.PANTS: 4, PieceKind.ANNULUS: 3,
                     PieceKind.MOBIUS: 6}
    assert presentation.handles == 8
    assert len(presentation.gluings) == 2 * 3 + 6


# -- oracle --------------------------------------------------------------

def test_oracle_disc_plus_mobius_is_rp2():
    sc = oracle_classify(SurfacePresentation(
        (Piece(PieceKind.DISC, ("a",)), Piece(PieceKind.MOBIUS, ("b",))),
        (("a", "b"),), 0))
    assert (sc.closed, sc.orientable, sc.euler_char,
            sc.nonorientable_genus) == (True, False, 1, 1)


def test_oracle_two_mobius_plus_annulus_is_klein():
    sc = oracle_classify(SurfacePresentation(
        (Piece(PieceKind.MOBIUS, ("a",)), Piece(PieceKind.MOBIUS, ("b",)),
         Piece(PieceKind.ANNULUS, ("l", "r"))),
        (("a", "l"), ("b", "r")), 0))
    assert (sc.closed, sc.euler_char, sc.nonorientable_genus) == (True, 0, 2)


def _malformed(label):
    """Each refusal of a malformed presentation: a maker that builds the
    presentation and the message it is refused with, for circles named by
    label("a"), label("b"), ..."""
    a, b, c, d = map(label, "abcd")
    disc, mobius = PieceKind.DISC, PieceKind.MOBIUS
    rp2 = (Piece(disc, (a,)), Piece(mobius, (b,)))
    return {
        "duplicate-label": (
            lambda: SurfacePresentation(
                (Piece(disc, (a,)), Piece(mobius, (a,))), (), 0),
            f"label {a!r} appears twice"),
        "unknown-label": (
            lambda: SurfacePresentation(rp2, ((a, c),), 0),
            f"gluing names unknown label {c!r}"),
        "glued-twice": (
            lambda: SurfacePresentation(rp2, ((a, b), (a, b)), 0),
            f"label {a!r} glued twice"),
        "glued-to-itself": (
            lambda: SurfacePresentation(
                (Piece(PieceKind.ANNULUS, (a, b)),), ((a, a),), 0),
            f"label {a!r} glued to itself"),
        "negative-handles": (
            lambda: SurfacePresentation(rp2, ((a, b),), -1),
            "negative handle count"),
        "no-pieces": (
            lambda: SurfacePresentation((), (), 0),
            "presentation has no pieces"),
        "disconnected": (
            lambda: SurfacePresentation(
                tuple(Piece(disc, (x,)) for x in (a, b, c, d)),
                ((a, b), (c, d)), 0),
            "presentation is disconnected"),
        "wrong-circle-count": (
            lambda: SurfacePresentation(
                (Piece(PieceKind.PANTS, (a, b)),), (), 0),
            f"pair-of-pants carries 3 boundary circles, got labels "
            f"{(a, b)}"),
    }


LABELINGS = {"str": str, "int": "abcd".index}


@pytest.mark.parametrize("fault, labeling", [
    (fault, labeling)
    for fault in _malformed(str) for labeling in LABELINGS], ids=str)
def test_oracle_refuses_malformed_presentations(fault, labeling):
    make, message = _malformed(LABELINGS[labeling])[fault]
    with pytest.raises(MalformedPresentation) as refusal:
        oracle_classify(make())
    assert str(refusal.value) == message


def _large_and_cyclic():
    instance = trop_family(200)
    cycle = load_document("fig5_cycle.trop")
    return [(instance.diagram, instance.curve),
            (cycle.diagram, cycle.curves[0])]


@pytest.mark.parametrize("diagram, curve", _large_and_cyclic(),
                         ids=["trop_family(200)", "fig5_cycle"])
def test_presentation_labels_circles_by_index(diagram, curve):
    presentation = build_presentation(diagram, curve)
    labels = [label for piece in presentation.pieces
              for label in piece.labels]
    assert labels == list(range(len(labels)))
    glued = Counter(label for pair in presentation.gluings for label in pair)
    assert set(glued.values()) == {1}
    assert oracle_classify(presentation) == classify(diagram, curve)


def assert_breakdown_is_the_inventory(diagram, curve, sc):
    breakdown = euler_breakdown(diagram, curve)
    assert breakdown.surface_class() == sc
    assert breakdown.multiplicities == tuple(
        vertex_multiplicity(curve, v.id) for v in curve.vertices)
    assert breakdown.end_kinds == tuple(
        classify_end(diagram, e) for e in curve.ends)


def test_engine_equals_oracle_on_bundled():
    for name in BUNDLED_DOCS:
        doc = load_document(name)
        for curve in doc.curves:
            sc = classify(doc.diagram, curve)
            assert oracle_classify(build_presentation(doc.diagram, curve)) == sc
            assert_breakdown_is_the_inventory(doc.diagram, curve, sc)


def test_engine_equals_oracle_on_random_curves():
    rng = random.Random(424242)
    for _ in range(60):
        diagram, curve = random_curve(rng)
        sc = classify(diagram, curve)
        assert oracle_classify(build_presentation(diagram, curve)) == sc
        assert_breakdown_is_the_inventory(diagram, curve, sc)


def test_classify_invariant_under_unimodular_maps(fig1_left):
    rng = random.Random(20250809)
    diagram, curve = fig1_left
    expected = classify(diagram, curve)
    for _ in range(20):
        m = random_unimodular_map(rng)
        d2, c2 = diagram.transform(m), curve.transform(m)
        assert validate(d2, c2).passed
        assert classify(d2, c2) == expected


def test_cycle_figure_answers():
    # The hexagon is one cycle: six vertices joined by six edges.
    doc = load_document("fig5_cycle.trop")
    diagram, (curve,) = doc.diagram, doc.curves
    assert len(curve.edges) == len(curve.vertices) == 6
    assert validate(diagram, curve).passed
    ms = {v.id: vertex_multiplicity(curve, v.id) for v in curve.vertices}
    assert Counter(ms.values()) == {3: 1, 5: 3, 7: 2}
    sc = classify(diagram, curve)
    assert (sc.closed, sc.orientable, sc.euler_char) == (True, False, -32)
    assert sc.nonorientable_genus == 34
    assert oracle_classify(build_presentation(diagram, curve)) == sc
    cls = mod2_class(diagram, curve)
    assert cls.coefficients == (1, 0)
    p2 = pontryagin_square(diagram.homology, cls.coefficients)
    assert p2 == 0 and audin_check(p2, sc.euler_char)
    assert parse_document(serialize_document(doc)) == doc
    rng = random.Random(5)
    for _ in range(20):
        m = random_unimodular_map(rng)
        d2, c2 = diagram.transform(m), curve.transform(m)
        assert validate(d2, c2).passed
        assert {v.id: vertex_multiplicity(c2, v.id)
                for v in c2.vertices} == ms
        assert all(classify_end(d2, e) is EndKind.CROSS_CAP for e in c2.ends)
        assert classify(d2, c2) == sc
        assert oracle_classify(build_presentation(d2, c2)) == sc
