import random
from fractions import Fraction

import pytest

from troplag import (
    DegenerateConstruction,
    Document,
    DoesNotFit,
    IntVec,
    InvalidCurve,
    InvalidInput,
    SweepDirection,
    audin_check,
    classify,
    end_multiplicity,
    genus_bound,
    klein_threshold,
    mod2_class,
    pontryagin_square,
    pt,
    rectangle,
    rp2_curve,
    serialize_document,
    squeeze_check,
    surface_name,
    sweep_parity,
    triangle_check,
    trop_family,
    validate,
    vertex_multiplicity,
    visible_segment,
)
from troplag.lattice import point_text
from conftest import FIGURES

F = Fraction


# -- visible_segment -----------------------------------------------------

def test_segment_through_corners_does_not_fit():
    diagram = rectangle(4, 2)
    with pytest.raises(DoesNotFit):
        visible_segment(diagram, IntVec(2, 1), pt(2, 1))


def test_segment_exiting_horizontally_does_not_fit():
    diagram = rectangle(4, 2)
    with pytest.raises(DoesNotFit):
        visible_segment(diagram, IntVec(2, 1), pt(2, F(9, 8)))


@pytest.mark.parametrize("direction", [IntVec(0, 1), IntVec(0, -3)])
def test_vertical_segment_exits_horizontally(direction):
    # A vertical line is refused as any line leaving through a horizontal
    # edge is.
    with pytest.raises(DoesNotFit,
                       match=r"\Athe line exits through a horizontal edge\Z"):
        visible_segment(rectangle(4, 2), direction, pt(1, 1))


def test_segment_in_taller_rectangle_is_klein_bottle():
    diagram = rectangle(4, F(5, 2))
    curve = visible_segment(diagram, IntVec(2, 1), pt(2, F(5, 4)))
    landings = sorted((point_text(e[3]) for e in curve.rows()[4]))
    assert landings == ["(0,1/4)", "(4,9/4)"]
    assert all(end_multiplicity(diagram, e) == 2 for e in curve.rows()[4])
    assert surface_name(classify(diagram, curve)) == "Klein bottle"


def test_segment_cylinder_picture():
    diagram = rectangle(2, F(3, 2))
    curve = visible_segment(diagram, IntVec(2, 1), pt(1, F(3, 4)))
    landings = sorted((point_text(e[3]) for e in curve.rows()[4]))
    assert landings == ["(0,1/4)", "(2,5/4)"]
    assert surface_name(classify(diagram, curve)) == "Klein bottle"


def test_segment_at_unit_height_does_not_fit():
    diagram = rectangle(2, 1)
    for numerator in (1, 2, 3):
        with pytest.raises(DoesNotFit):
            visible_segment(diagram, IntVec(2, 1), pt(1, F(numerator, 4)))


def test_mu1_segment_gives_annulus():
    # direction (1,1) into vertical edges has mu = 1 on both sides
    diagram = rectangle(2, 4)
    curve = visible_segment(diagram, IntVec(1, 1), pt(1, 2))
    sc = classify(diagram, curve)
    assert (sc.closed, sc.orientable, sc.boundary_circles) == (False, True, 2)
    assert surface_name(sc) == "annulus"


# -- klein_threshold -----------------------------------------------------

def test_klein_threshold_values():
    assert klein_threshold(3, 2)            # lambda = 3/2 < 2
    assert not klein_threshold(4, 2)        # lambda = 2, strict
    assert not klein_threshold(2, 1)        # unit cylinder boundary case
    assert klein_threshold(4, F(5, 2))


def test_klein_threshold_matches_segment_existence():
    rng = random.Random(3711)
    for _ in range(60):
        width = F(rng.randint(1, 40), rng.randint(1, 8))
        height = F(rng.randint(1, 40), rng.randint(1, 8))
        diagram = rectangle(width, height)
        anchor = pt(width / 2, height / 2)
        fits = klein_threshold(width, height)
        try:
            curve = visible_segment(diagram, IntVec(2, 1), anchor)
            built = True
            assert classify(diagram, curve).nonorientable_genus == 2
        except DoesNotFit:
            built = False
        assert built == fits


# -- rp2_curve and triangle inequalities ----------------------------------

def test_rp2_satisfied_instance():
    diagram, curve = rp2_curve(1, 1, F(4, 3), 4)
    assert validate(diagram, curve).passed
    xcap = next(e for e in curve.rows()[4] if e[0] == "xcap")
    assert xcap[3] == pt(F(2, 3), F(2, 3))
    assert end_multiplicity(diagram, xcap) == 2
    sc = classify(diagram, curve)
    assert surface_name(sc) == "projective plane"
    assert sc.euler_char == 1


def test_rp2_violated_instance_is_disc():
    diagram, curve = rp2_curve(F(2, 3), F(5, 3), F(2, 3), 5)
    sc = classify(diagram, curve)
    assert surface_name(sc) == "disc"
    out = next(e for e in curve.rows()[4] if e[0] == "xcap")
    assert out[3] == pt(0, 1)
    assert end_multiplicity(diagram, out) == 1


def test_rp2_exact_corner_hit_degenerates():
    # b - a = c lands exactly on the corner (0, c)
    with pytest.raises(DegenerateConstruction):
        rp2_curve(F(1, 2), F(3, 2), 1, 6)


def test_rp2_vertex_on_boundary_degenerates():
    # c = a + b puts the vertex on the chopped edge
    with pytest.raises(DegenerateConstruction):
        rp2_curve(1, 1, 2, 6)


def test_triangle_check_values():
    assert triangle_check(1, 1, 1).satisfied
    result = triangle_check(F(2, 3), F(5, 3), F(2, 3))
    assert result.violated == ("b < c+a",)
    boundary = triangle_check(1, 1, 2)
    assert boundary.violated == ("c < a+b",)
    with pytest.raises(InvalidInput):
        triangle_check(0, 1, 1)


def test_rp2_iff_triangle_inequalities():
    rng = random.Random(1234321)
    checked = degenerate = 0
    while checked < 80:
        a = F(rng.randint(1, 12), rng.randint(1, 4))
        b = F(rng.randint(1, 12), rng.randint(1, 4))
        c = F(rng.randint(1, 12), rng.randint(1, 4))
        s = 2 * (a + b) + c + 1
        satisfied = triangle_check(a, b, c).satisfied
        try:
            diagram, curve = rp2_curve(a, b, c, s)
            is_rp2 = surface_name(classify(diagram, curve)) \
                == "projective plane"
        except DegenerateConstruction:
            degenerate += 1
            continue
        except InvalidCurve:
            is_rp2 = False
        assert is_rp2 == satisfied, (a, b, c)
        checked += 1
    assert degenerate < checked


# -- trop_family ---------------------------------------------------------

@pytest.mark.parametrize("ell", range(1, 9))
def test_family_validates_and_matches_expected(ell):
    instance = trop_family(ell)
    assert validate(instance.diagram, instance.curve).passed
    assert classify(instance.diagram, instance.curve) == instance.expected
    assert instance.expected.nonorientable_genus == 20 * ell + 2
    h = sweep_parity(instance.diagram, instance.curve,
                     SweepDirection.HORIZONTAL)
    v = sweep_parity(instance.diagram, instance.curve,
                     SweepDirection.VERTICAL)
    assert (h.parity, v.parity) == (0, 1)
    p2 = pontryagin_square(instance.diagram.homology,
                           mod2_class(instance.diagram,
                                      instance.curve).coefficients)
    assert audin_check(p2, instance.expected.euler_char)


def test_family_counts_and_multiplicities():
    instance = trop_family(1)
    curve = instance.curve
    _, ids, _, edges, ends = curve.rows()
    assert (len(ids), len(edges), len(ends)) == (4, 3, 6)
    assert all(vertex_multiplicity(curve, vid) == 5 for vid in ids)
    instance2 = trop_family(2)
    assert tuple(map(len, instance2.curve.rows()[1:])) == (8, 8, 7, 10)


def test_family_down_end_coordinate():
    # balancing at the second bottom vertex forces the landing x = 13/2
    instance = trop_family(1)
    down = next(e for e in instance.curve.rows()[4] if e[0] == "down_c0")
    assert down[3] == pt(F(13, 2), 0)


def test_family_serializes_to_the_bundled_figure():
    instance = trop_family(2)
    text = serialize_document(Document(instance.diagram, (instance.curve,)))
    figure = (FIGURES / "fig3_family.trop").read_text(encoding="utf-8")
    assert text == "".join(line for line in figure.splitlines(keepends=True)
                           if not line.startswith("#"))


def test_family_rejects_bad_ell():
    with pytest.raises(InvalidInput):
        trop_family(0)


# -- genus_bound ---------------------------------------------------------

def test_genus_bound_values():
    assert genus_bound(F(3, 2)).witness_kind == "klein-bottle"
    assert genus_bound(F(3, 2)).k == 2
    b5 = genus_bound(5)
    assert (b5.k, b5.witness_kind, b5.ell) == (22, "family", 1)
    b12 = genus_bound(12)
    assert (b12.k, b12.witness_kind, b12.ell) == (42, "family", 2)


def test_genus_bound_threshold_conventions():
    assert genus_bound(11, threshold="statement").ell == 1
    assert genus_bound(11, threshold="proof").ell == 2
    with pytest.raises(InvalidInput):
        genus_bound(5, threshold="footnote")


def test_genus_bound_is_stepwise_constant():
    previous = None
    for tenth in range(21, 500):
        lam = F(tenth, 10)
        bound = genus_bound(lam)
        assert lam < 10 * bound.ell + 2
        if bound.ell > 1:
            assert lam >= 10 * (bound.ell - 1) + 2
        if previous is not None:
            assert bound.k in (previous, previous + 20)
        previous = bound.k


# -- squeeze_check -------------------------------------------------------

def test_squeeze_just_above_one():
    result = squeeze_check(F(101, 100))
    assert result.exists
    landings = sorted(point_text(e[3]) for e in result.witness.rows()[4])
    assert landings == ["(0,1/200)", "(2,201/200)"]
    assert validate(result.diagram, result.witness).passed
    assert classify(result.diagram,
                    result.witness).nonorientable_genus == 2


def test_squeeze_at_one_and_below():
    assert not squeeze_check(1).exists
    assert not squeeze_check(F(1, 2)).exists
    with pytest.raises(InvalidInput):
        squeeze_check(0)
