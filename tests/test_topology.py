import gc
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from troplag import (
    CellComplex,
    EmptyCurve,
    EndKind,
    IntVec,
    MalformedPresentation,
    SurfaceClass,
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
    tropical,
    validate,
    vertex_multiplicity,
    visible_segment,
)
from troplag.maps import transform_curve, transform_diagram

from cellular import boundaries, integral_homology
from conftest import (BUNDLED_DOCS, curve_of, load_document, random_curve,
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
    cap = next(e for e in curve.rows()[4] if e[0] == "cap_a")
    assert classify_end(diagram, cap) is EndKind.DISC_CAP


def test_mu2_is_cross_cap(klein):
    diagram, curve = klein
    assert [classify_end(diagram, e) for e in curve.rows()[4]] == [
        EndKind.CROSS_CAP, EndKind.CROSS_CAP]


def test_mu1_is_collar():
    doc = load_document("fig1_right.trop")
    curve = doc.curves[0]
    out = next(e for e in curve.rows()[4] if e[0] == "out")
    assert classify_end(doc.diagram, out) is EndKind.COLLAR


def test_mu3_rejected():
    diagram = rectangle(9, 9)
    curve = curve_of((), (), [
        ("a", pt(3, 3), IntVec(3, 1), pt(9, 5)),
        ("b", pt(3, 3), IntVec(-3, -1), pt(0, 2))])
    assert validate(diagram, curve).passed
    with pytest.raises(UnsupportedEndMultiplicity):
        classify_end(diagram, curve.rows()[4][0])


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
        euler_breakdown(rectangle(2, 2), curve_of(name="empty"))


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


@pytest.mark.parametrize("orientable, chi, circles", [
    (True, -1, 3), (True, -1, 1), (True, -2, 2), (False, 0, 1)],
    ids=["pants", "punctured-torus", "twice-punctured-torus", "mobius-band"])
def test_surface_with_boundary_and_no_name(orientable, chi, circles):
    sc = SurfaceClass(orientable=orientable, euler_char=chi,
                      boundary_circles=circles, double_points_surgered=0)
    assert surface_name(sc) is None


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


# An anchor's annulus with a cap on each of its two circles: two node discs
# make a sphere, a disc and a degree-2 core RP^2, two such cores a Klein
# bottle; the torus is two annuli joined end to end.
SPHERE = CellComplex(0, (2,), (), (), (0, 0), (0, 0), ("a", "b"))
TORUS = CellComplex(0, (2, 2), (0, 0), (1, 1), (), (), ())


def test_oracle_two_discs_plus_annulus_is_sphere():
    sc = oracle_classify(SPHERE)
    assert (sc.closed, sc.orientable, sc.euler_char, sc.orientable_genus) \
        == (True, True, 2, 0)


def test_chi_parity_invariant_on_bundled():
    for name in BUNDLED_DOCS:
        doc = load_document(name)
        for curve in doc.curves:
            chi = euler_breakdown(doc.diagram, curve).chi
            disccaps = sum(1 for e in curve.rows()[4]
                           if classify_end(doc.diagram, e) is EndKind.DISC_CAP)
            assert (chi - len(curve.rows()[1]) - disccaps) % 2 == 0


# -- cell complexes ------------------------------------------------------

def test_presentation_klein(klein):
    assert build_presentation(*klein) == CellComplex(
        handles=0, valence=(2,), edge_src=(), edge_dst=(),
        end_site=(0, 0), end_degree=(2, 2), end_ids=("plus", "minus"))


def test_presentation_rp2(fig1_left):
    assert build_presentation(*fig1_left) == CellComplex(
        handles=0, valence=(3,), edge_src=(), edge_dst=(),
        end_site=(0, 0, 0), end_degree=(0, 0, 2),
        end_ids=("cap_a", "cap_b", "xcap"))


def test_presentation_family():
    instance = trop_family(1)
    cx = build_presentation(instance.diagram, instance.curve)
    assert cx.valence == (3, 3, 3, 3) and cx.handles == 8
    assert (cx.edge_src, cx.edge_dst) == ((0, 1, 2), (1, 2, 3))
    assert cx.end_site == (0, 1, 2, 3, 0, 3)
    assert cx.end_degree == (2,) * 6


def test_oracle_disc_plus_mobius_is_rp2():
    sc = oracle_classify(SPHERE._replace(end_degree=(0, 2)))
    assert (sc.closed, sc.orientable, sc.euler_char,
            sc.nonorientable_genus) == (True, False, 1, 1)


def test_oracle_two_mobius_plus_annulus_is_klein():
    sc = oracle_classify(SPHERE._replace(end_degree=(2, 2)))
    assert (sc.closed, sc.euler_char, sc.nonorientable_genus) == (True, 0, 2)


def test_oracle_counts_degree_one_cores_as_boundary():
    sc = oracle_classify(SPHERE._replace(end_degree=(1, 1), handles=1))
    assert (sc.orientable, sc.euler_char, sc.boundary_circles,
            sc.double_points_surgered) == (True, -2, 2, 1)


MALFORMED = {
    "no-sites": (CellComplex(0, (), (), (), (), (), ()),
                 "complex has no sites"),
    "site-out-of-range": (SPHERE._replace(end_site=(0, 1)),
                          "site 1 is not in range(1)"),
    "negative-site": (TORUS._replace(edge_dst=(1, -1)),
                      "site -1 is not in range(2)"),
    "disconnected": (CellComplex(0, (2, 2), (), (), (0, 0, 1, 1),
                                 (0, 0, 0, 0), tuple("abcd")),
                     "complex is disconnected"),
    "negative-handles": (SPHERE._replace(handles=-1),
                         "negative handle count"),
    "negative-degree": (SPHERE._replace(end_degree=(0, -1)),
                        "end 'b' has negative degree"),
    "valence-zero": (TORUS._replace(valence=(2, 0)),
                     "site 1 has no circles"),
    "valence-too-high": (SPHERE._replace(valence=(3,)),
                         "site 0 has valence 3, but 2 circles attach"),
    "valence-too-low": (TORUS._replace(valence=(2, 1)),
                        "site 1 has valence 1, but 2 circles attach"),
}


@pytest.mark.parametrize("fault", MALFORMED)
def test_oracle_refuses_malformed_complexes(fault):
    cx, message = MALFORMED[fault]
    with pytest.raises(MalformedPresentation) as refusal:
        oracle_classify(cx)
    assert str(refusal.value) == message


@pytest.mark.parametrize("mu", [3, 4, 7])
def test_oracle_refuses_a_core_of_degree_three_or_more(mu):
    with pytest.raises(UnsupportedEndMultiplicity) as refusal:
        oracle_classify(SPHERE._replace(end_degree=(1, mu)))
    assert str(refusal.value) == (
        f"end 'b' has mu = {mu}; only mu = 1 (collar) and mu = 2 "
        "(cross-cap) carry a surface meaning")


def test_mu3_curve_is_refused_by_the_oracle_as_by_the_engine():
    diagram = rectangle(9, 9)
    curve = curve_of((), (), [
        ("a", pt(3, 3), IntVec(3, 1), pt(9, 5)),
        ("b", pt(3, 3), IntVec(-3, -1), pt(0, 2))])
    cx = build_presentation(diagram, curve)
    assert cx.end_degree == (3, 3)
    with pytest.raises(UnsupportedEndMultiplicity) as oracle:
        oracle_classify(cx)
    with pytest.raises(UnsupportedEndMultiplicity) as engine:
        classify(diagram, curve)
    assert str(oracle.value) == str(engine.value)


def _large_and_cyclic():
    instance = trop_family(200)
    cycle = load_document("fig5_cycle.trop")
    return [(instance.diagram, instance.curve),
            (cycle.diagram, cycle.curves[0])]


@pytest.mark.parametrize("diagram, curve", _large_and_cyclic(),
                         ids=["trop_family(200)", "fig5_cycle"])
def test_presentation_reads_the_curve_columns(diagram, curve):
    cx = build_presentation(diagram, curve)
    assert cx.valence == tuple(map(len, curve._sites))
    assert list(zip(cx.edge_src, cx.edge_dst)) \
        == [(s, d) for _, s, d, _ in curve._edge_rows]
    assert list(zip(cx.end_ids, cx.end_site)) \
        == [(j, s) for j, s, _, _ in curve._end_rows]
    assert oracle_classify(cx) == classify(diagram, curve)


def test_complex_holds_nothing_the_collector_tracks():
    instance = trop_family(1000)
    cx = build_presentation(instance.diagram, instance.curve)
    gc.collect()
    assert [name for name, column in zip(cx._fields, cx)
            if gc.is_tracked(column)] == []


def _refuse(*args, **kwargs):
    raise AssertionError("the oracle read a cap kind")


def test_oracle_reads_no_cap_kind(monkeypatch):
    expected = [classify(doc.diagram, curve) for doc in map(
        load_document, BUNDLED_DOCS) for curve in doc.curves]
    for name in ("end_kinds", "classify_end"):
        original = getattr(tropical, name)
        for key, holder in list(sys.modules.items()):
            if key.split(".")[0] == "troplag" \
                    and vars(holder).get(name) is original:
                monkeypatch.setattr(holder, name, _refuse)
    docs = [load_document(name) for name in BUNDLED_DOCS]
    with pytest.raises(AssertionError):  # the engine does read them
        classify(docs[0].diagram, docs[0].curves[0])
    assert [oracle_classify(build_presentation(doc.diagram, curve))
            for doc in docs for curve in doc.curves] == expected


# -- the oracle against integral homology --------------------------------

def assert_homology_agrees(cx):
    """The Smith normal form of the cellulation agrees with the oracle: H0 is
    Z, the Betti numbers sum to chi without the handles, and a closed
    surface has H2 = Z exactly when orientable, and H1 torsion Z/2 when
    not; one with boundary has neither."""
    sc = oracle_classify(cx)
    _, d1, d2 = boundaries(cx)
    assert all(sum(x * col[k] for x, col in zip(row, d2)) == 0
               for row in d1 for k in range(len(d2[0]) if d2 else 0))
    h = integral_homology(cx)
    assert h.b0 == 1
    assert h.b0 - h.b1 + h.b2 == sc.euler_char + 2 * sc.double_points_surgered
    if sc.closed:
        assert (h.b2, h.torsion) == ((1, ()) if sc.orientable else (0, (2,)))
    else:
        assert (h.b2, h.torsion) == (0, ())
    return sc, h


def _homology_cases():
    cases = {"sphere": SPHERE, "torus": TORUS,
             "rp2": SPHERE._replace(end_degree=(0, 2)),
             "klein": SPHERE._replace(end_degree=(2, 2)),
             "collar": SPHERE._replace(end_degree=(1, 2))}
    for name in BUNDLED_DOCS:
        doc = load_document(name)
        for i, curve in enumerate(doc.curves):
            cases[f"{name}[{i}]"] = build_presentation(doc.diagram, curve)
    for ell in (1, 2, 3):
        instance = trop_family(ell)
        cases[f"trop_family({ell})"] = build_presentation(instance.diagram,
                                                          instance.curve)
    rng, closed = random.Random(3131), 0
    while closed < 4:
        diagram, curve = random_curve(rng)
        if classify(diagram, curve).closed:
            cases[f"closed random {closed}"] = build_presentation(diagram,
                                                                  curve)
            closed += 1
    return cases


HOMOLOGY_CASES = _homology_cases()


@pytest.mark.parametrize("case", HOMOLOGY_CASES)
def test_smith_normal_form_agrees_with_the_walk(case):
    assert_homology_agrees(HOMOLOGY_CASES[case])


def test_smith_normal_form_of_the_small_surfaces():
    homology = {name: integral_homology(HOMOLOGY_CASES[name])[:3]
                for name in ("sphere", "torus", "rp2", "klein", "collar")}
    assert homology == {"sphere": (1, 0, ()), "torus": (1, 2, ()),
                        "rp2": (1, 0, (2,)), "klein": (1, 1, (2,)),
                        "collar": (1, 1, ())}


@st.composite
def complexes(draw):
    """A connected complex on up to five sites: a random spanning tree and
    up to three more edges (loops too), and up to
    four ends of degree 0, 1 or 2 (one at least on a lone site, which
    would have no circles)."""
    n = draw(st.integers(1, 5))
    site = st.integers(0, n - 1)
    pairs = [(draw(st.integers(0, s - 1)), s) for s in range(1, n)]
    pairs += draw(st.lists(st.tuples(site, site), max_size=3))
    ends = draw(st.lists(st.tuples(site, st.integers(0, 2)),
                         min_size=int(n == 1), max_size=4))
    valence = Counter([s for pair in pairs for s in pair])
    valence.update(s for s, _ in ends)
    return CellComplex(
        draw(st.integers(0, 2)), tuple(valence[s] for s in range(n)),
        tuple(s for s, _ in pairs), tuple(d for _, d in pairs),
        tuple(s for s, _ in ends), tuple(mu for _, mu in ends),
        tuple(f"x{j}" for j in range(len(ends))))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(complexes())
def test_smith_normal_form_agrees_with_the_walk_on_random_complexes(cx):
    assert_homology_agrees(cx)


# -- the oracle against the engine ---------------------------------------

@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 2**32))
def test_oracle_equals_engine_on_random_curves_and_their_images(seed,
                                                                map_seed):
    diagram, curve = random_curve(random.Random(seed))
    m = random_unimodular_map(random.Random(map_seed))
    moved = transform_diagram(diagram, m), transform_curve(curve, m)
    assert validate(*moved).passed
    for d, c in ((diagram, curve), moved):
        assert oracle_classify(build_presentation(d, c)) == classify(d, c)


def assert_breakdown_is_the_inventory(diagram, curve, sc):
    breakdown = euler_breakdown(diagram, curve)
    assert breakdown.surface_class() == sc
    assert breakdown.multiplicities == tuple(
        vertex_multiplicity(curve, vid) for vid in curve.rows()[1])
    assert breakdown.end_kinds == tuple(
        classify_end(diagram, e) for e in curve.rows()[4])


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
        d2, c2 = transform_diagram(diagram, m), transform_curve(curve, m)
        assert validate(d2, c2).passed
        assert classify(d2, c2) == expected


def test_cycle_figure_answers():
    # The hexagon is one cycle: six vertices joined by six edges.
    doc = load_document("fig5_cycle.trop")
    diagram, (curve,) = doc.diagram, doc.curves
    _, ids, _, edges, _ = curve.rows()
    assert len(edges) == len(ids) == 6
    assert validate(diagram, curve).passed
    ms = {vid: vertex_multiplicity(curve, vid) for vid in ids}
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
        d2, c2 = transform_diagram(diagram, m), transform_curve(curve, m)
        assert validate(d2, c2).passed
        assert {vid: vertex_multiplicity(c2, vid)
                for vid in c2.rows()[1]} == ms
        assert all(classify_end(d2, e) is EndKind.CROSS_CAP
                   for e in c2.rows()[4])
        assert classify(d2, c2) == sc
        assert oracle_classify(build_presentation(d2, c2)) == sc
