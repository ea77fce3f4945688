import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from troplag import (
    BaseDiagram,
    EndKind,
    HomologyModel,
    IntVec,
    InvalidClass,
    NonGenericWitness,
    RatPoint,
    SweepDirection,
    SweepParity,
    TroplagError,
    UnimodularAffineMap,
    UnsupportedDiagram,
    UnsupportedEndMultiplicity,
    UnsweepableCurve,
    audin_check,
    classify,
    classify_end,
    mod2_class,
    parse_document,
    pontryagin_square,
    pt,
    rectangle,
    rp2_curve,
    sweep_parity,
    trop_family,
    visible_segment,
    x_abc,
)
from troplag.homology import _solve
from troplag.maps import transform_curve, transform_diagram

from conftest import (FIGURES, curve_of, load_document, random_curve,
                      sweep_criticals)

F = Fraction


@pytest.fixture(scope="module")
def klein():
    diagram = rectangle(4, F(5, 2))
    return diagram, visible_segment(diagram, IntVec(2, 1), pt(2, F(5, 4)))


# -- sweep parities ------------------------------------------------------

def test_klein_segment_parities(klein):
    diagram, curve = klein
    vertical = sweep_parity(diagram, curve, SweepDirection.VERTICAL)
    horizontal = sweep_parity(diagram, curve, SweepDirection.HORIZONTAL)
    assert vertical.parity == 1      # |dot((2,1),(0,1))| = 1
    assert horizontal.parity == 0    # |dot((2,1),(1,0))| = 2


def test_family_parities_all_ell():
    for ell in range(1, 6):
        instance = trop_family(ell)
        v = sweep_parity(instance.diagram, instance.curve,
                         SweepDirection.VERTICAL)
        h = sweep_parity(instance.diagram, instance.curve,
                         SweepDirection.HORIZONTAL)
        assert (h.parity, v.parity) == (0, 1)


def test_empty_curve_parities():
    diagram = rectangle(4, 2)
    empty = curve_of(name="empty")
    for direction in SweepDirection:
        assert sweep_parity(diagram, empty, direction).parity == 0


def test_witness_position_independence(klein):
    diagram, curve = klein
    rng = random.Random(8881)
    for direction in SweepDirection:
        criticals = sweep_criticals(diagram, curve, direction)
        lo, hi = criticals[0], criticals[-1]
        base = sweep_parity(diagram, curve, direction).parity
        found = 0
        while found < 12:
            witness = F(rng.randint(1, 199), 200) * (hi - lo) + lo
            if witness in criticals:
                continue
            found += 1
            assert sweep_parity(diagram, curve, direction,
                                witness=witness).parity == base


def test_witness_independence_family():
    instance = trop_family(2)
    for direction, coords in ((SweepDirection.VERTICAL, (F(1), F(21))),
                              (SweepDirection.HORIZONTAL,
                               (F(1, 2), F(3, 2), F(5, 2)))):
        base = sweep_parity(instance.diagram, instance.curve, direction).parity
        for witness in coords:
            assert sweep_parity(instance.diagram, instance.curve, direction,
                                witness=witness).parity == base


def _closed_rectangle_curves():
    """(name, diagram, curve) for the curves of the figures, of
    trop_family(1..5) and of 1,500 seeded random_curve draws."""
    for path in sorted(FIGURES.glob("*.trop")):
        doc = load_document(path.name)
        for curve in doc.curves:
            yield path.name, doc.diagram, curve
    for ell in range(1, 6):
        instance = trop_family(ell)
        yield f"family {ell}", instance.diagram, instance.curve
    rng = random.Random(2021)
    for k in range(1500):
        yield f"random {k}", *random_curve(rng)


def test_sweep_parity_counts_the_ends_on_each_edge():
    # A line just inside an edge crosses only the ends landing on that
    # edge.  Each is a cross-cap, mu = 2 = the component of its primitive
    # direction u across the edge, so the component along the edge, which
    # is the end's weight |dot(u, t)| in the sweep, is odd.  So each
    # parity is the number of ends on either edge across its lines, mod 2.
    closed = 0
    for name, diagram, curve in _closed_rectangle_curves():
        if not diagram.is_rectangle or not all(
                classify_end(diagram, e) is EndKind.CROSS_CAP
                for e in curve.rows()[4]):
            continue
        closed += 1
        x0, y0, x1, y1 = diagram.bounds()
        landings = [RatPoint.of(*e[3]) for e in curve.rows()[4]]
        for direction, low, high, coordinate in (
                (SweepDirection.VERTICAL, x0, x1, lambda p: p.x),
                (SweepDirection.HORIZONTAL, y0, y1, lambda p: p.y)):
            counts = {sum(coordinate(p) == edge for p in landings) % 2
                      for edge in (low, high)}
            criticals = sweep_criticals(diagram, curve, direction)
            near_low = (criticals[0] + criticals[1]) / 2
            parities = {sweep_parity(diagram, curve, direction,
                                     witness=witness).parity
                        for witness in (None, near_low)}
            assert len(counts) == 1 and parities == counts, (name, direction)
    assert closed > 5


def _closed(diagram, curve) -> bool:
    """Whether the curve is closed in a node-free rectangle: swept."""
    return diagram.is_rectangle and all(
        classify_end(diagram, e) is EndKind.CROSS_CAP
        for e in curve.rows()[4])


def _assert_default_sweep_is_every_generic_sweep(diagram, curve):
    # The default sweep, its own witness given back, and a witness at the
    # midpoint of every gap between critical coordinates: one parity.
    for direction in SweepDirection:
        default = sweep_parity(diagram, curve, direction)
        assert sweep_parity(diagram, curve, direction,
                            default.witness_line_coordinate) == default
        criticals = sweep_criticals(diagram, curve, direction)
        assert default.witness_line_coordinate not in criticals
        for lo, hi in zip(criticals, criticals[1:]):
            witness = (lo + hi) / 2
            assert sweep_parity(diagram, curve, direction, witness) \
                == SweepParity(direction, default.parity, witness)


CLOSED_CASES = [
    (f"{path.name}:{curve.name}", doc.diagram, curve)
    for path in sorted(FIGURES.glob("*.trop"))
    for doc in [load_document(path.name)] for curve in doc.curves
    if _closed(doc.diagram, curve)] + [
    (f"trop_family({ell})", instance.diagram, instance.curve)
    for ell in range(1, 6) for instance in [trop_family(ell)]]


@pytest.mark.parametrize("diagram, curve", [case[1:] for case in CLOSED_CASES],
                         ids=[case[0] for case in CLOSED_CASES])
def test_default_sweep_is_the_sweep_at_every_gap(diagram, curve):
    _assert_default_sweep_is_every_generic_sweep(diagram, curve)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.integers(0, 2**32))
def test_default_sweep_is_the_sweep_at_every_gap_of_random_curves(seed):
    # About one random_curve in a hundred is closed: draw until one is.
    rng = random.Random(seed)
    for _ in range(2000):
        diagram, curve = random_curve(rng)
        if _closed(diagram, curve):
            break
    else:
        raise AssertionError("no closed random curve in 2000 draws")
    _assert_default_sweep_is_every_generic_sweep(diagram, curve)


def test_default_witness_is_largest_gap_midpoint(klein):
    diagram, curve = klein
    criticals = sweep_criticals(diagram, curve, SweepDirection.VERTICAL)
    assert criticals == [0, 2, 4]
    assert sweep_parity(diagram, curve, SweepDirection.VERTICAL
                        ).witness_line_coordinate == 1


def test_non_generic_witness_rejected(klein):
    diagram, curve = klein
    with pytest.raises(NonGenericWitness):
        sweep_parity(diagram, curve, SweepDirection.VERTICAL, witness=F(2))
    with pytest.raises(NonGenericWitness):
        sweep_parity(diagram, curve, SweepDirection.VERTICAL, witness=F(9))


def test_witness_is_exact(klein):
    # A float is refused as every other public number is; a 'p/q' string
    # and a Fraction give the same exact line.
    diagram, curve = klein
    with pytest.raises(TypeError, match="floating point"):
        sweep_parity(diagram, curve, SweepDirection.VERTICAL, witness=0.1)
    for witness in ("1/3", F(1, 3)):
        parity = sweep_parity(diagram, curve, SweepDirection.VERTICAL,
                              witness=witness)
        assert parity.witness_line_coordinate == F(1, 3)
        assert type(parity.witness_line_coordinate) is F


def test_sweep_requires_rectangle():
    diagram = x_abc(1, 1, F(4, 3), 4)
    with pytest.raises(UnsupportedDiagram):
        sweep_parity(diagram, curve_of(name="empty"),
                     SweepDirection.VERTICAL)


def test_sweep_requires_closed_curve():
    # a mu = 1 end landing on the bottom edge breaks vertical witness
    # independence, so sweeps refuse curves with boundary
    diagram = rectangle(6, 6)
    curve = curve_of((), (), (
        ("a", pt(3, 3), IntVec(0, 1), pt(3, 6)),
        ("b", pt(3, 3), IntVec(0, -1), pt(3, 0))))
    with pytest.raises(UnsweepableCurve):
        sweep_parity(diagram, curve, SweepDirection.VERTICAL)


def test_sweep_refuses_an_end_without_a_cap_kind():
    # both ends have mu = 4: even, but neither a collar nor a cross-cap,
    # so sweeps refuse the curve as topology does
    diagram = rectangle(8, 4)
    curve = visible_segment(diagram, IntVec(4, 1), pt(4, 2))
    for direction in SweepDirection:
        with pytest.raises(UnsupportedEndMultiplicity, match="mu = 4"):
            sweep_parity(diagram, curve, direction)


def test_sweep_refuses_an_end_at_a_node():
    # A rectangle has no node, so end x has no segment to sweep; its two
    # other ends are cross-caps, and without x the curve would read (0,0).
    doc = parse_document("diagram rectangle width=2 height=2\n"
                         "curve k\nvertex v (1,1)\n"
                         "end a v dir=(-2,1) land=(0,3/2)\n"
                         "end b v dir=(1,2) land=(3/2,2)\n"
                         "end x v dir=(1,-3) node=0\n")
    diagram, (curve,) = doc.diagram, doc.curves
    for direction in SweepDirection:
        with pytest.raises(TroplagError, match="end 'x'"):
            sweep_parity(diagram, curve, direction)
    with pytest.raises(TroplagError, match="end 'x'"):
        mod2_class(diagram, curve)


# -- mod-2 classes -------------------------------------------------------

def test_klein_class_is_horizontal_sphere(klein):
    cls = mod2_class(*klein)
    assert cls.coefficients == (1, 0)
    assert cls.label_sum() == "sphere_h"


def test_family_class_is_horizontal_sphere():
    instance = trop_family(1)
    assert mod2_class(instance.diagram, instance.curve).coefficients == (1, 0)


def test_empty_curve_class_is_zero():
    cls = mod2_class(rectangle(4, 2), curve_of(name="empty"))
    assert cls.coefficients == (0, 0)
    assert cls.label_sum() == "0"


@pytest.mark.parametrize("name", ["fig2_klein", "fig3_family", "fig5_cycle"])
def test_class_is_unchanged_by_the_maps_that_keep_a_rectangle(name):
    # The eight signed permutations, each with a translation; the four that
    # swap the axes also swap the horizontal and vertical sweep classes.
    doc = load_document(f"{name}.trop")
    signs = list(product((1, -1), repeat=2))
    for linear in ([((x, 0), (0, y)) for x, y in signs]
                   + [((0, x), (y, 0)) for x, y in signs]):
        m = UnimodularAffineMap(linear, pt(F(7, 3), -5))
        diagram = transform_diagram(doc.diagram, m)
        assert diagram.is_rectangle
        for curve in doc.curves:
            moved = transform_curve(curve, m)
            assert mod2_class(diagram, moved).coefficients \
                == mod2_class(doc.diagram, curve).coefficients == (1, 0)


def _sweep_cases():
    for name in ("fig2_klein", "fig3_family", "fig4_squeeze"):
        doc = load_document(f"{name}.trop")
        for curve in doc.curves:
            yield doc.diagram, curve
    rng = random.Random(2009)
    for _ in range(20):
        if rng.random() < 0.25:
            instance = trop_family(rng.randint(1, 3))
            yield instance.diagram, instance.curve
            continue
        # (2, y) lands with mu = 2 on both vertical edges when the line
        # through the centre clears the horizontal ones: height > |y| w/2
        y = rng.choice((-3, -1, 1, 3))
        width = F(rng.randint(1, 16), rng.choice((1, 2, 3)))
        height = abs(y) * width / 2 + F(rng.randint(1, 9), rng.choice((1, 4)))
        diagram = rectangle(width, height)
        yield diagram, visible_segment(diagram, IntVec(2, y),
                                       pt(width / 2, height / 2))


def test_class_is_solved_from_the_default_sweeps():
    # In the standard rectangle basis the class is (vertical parity,
    # horizontal parity) of the default sweeps.
    cases = list(_sweep_cases())
    assert len(cases) == 23
    for diagram, curve in cases:
        cls = mod2_class(diagram, curve)
        horizontal, vertical = (sweep_parity(diagram, curve, direction)
                                for direction in SweepDirection)
        assert cls.coefficients == (vertical.parity, horizontal.parity)


def ref_solve_mod2_2x2(matrix, rhs):
    """The 2x2 solve mod 2 that mod2_class used before it solved through
    HomologyModel.pairing."""
    a, b = matrix[0]
    c, d = matrix[1]
    det = (a * d - b * c) % 2
    if det == 0:
        return None
    x = (d * rhs[0] - b * rhs[1]) % 2
    y = (-c * rhs[0] + a * rhs[1]) % 2
    return (x, y)


def ref_mod2_class(homology, p_h, p_v):
    q = homology.intersection_form
    rows = [tuple(sum(sweep_vec[i] * q[i][j] for i in range(2)) % 2
                  for j in range(2))
            for sweep_vec in (homology.class_of_vertical_sweep,
                              homology.class_of_horizontal_sweep)]
    return ref_solve_mod2_2x2(rows, (p_v, p_h))


def test_solve_matches_the_2x2_formula_on_every_case():
    # Every symmetric form mod 2, each through several integer lifts, every
    # pair of sweep vectors and every pair of parities.
    vectors = list(product((0, 1), repeat=2))
    solved = refused = 0
    for a, b, d in product((-1, 0, 1, 2), repeat=3):
        for s_h, s_v in product(vectors, repeat=2):
            homology = HomologyModel(("A", "B"), ((a, b), (b, d)), s_h, s_v)
            for parities in product((0, 1), repeat=2):
                expected = ref_mod2_class(homology, *parities)
                if expected is None:
                    with pytest.raises(UnsupportedDiagram,
                                       match=r"\(singular pairing\)"):
                        _solve(homology, parities)
                    refused += 1
                else:
                    cls = _solve(homology, parities)
                    assert cls.coefficients == expected
                    assert [homology.pairing(cls.coefficients, s) % 2
                            for s in (s_h, s_v)] == list(parities)
                    solved += 1
    # Solvable: an invertible form mod 2 (32 of the 64) and two independent
    # sweep vectors (6 of the 16 pairs), under each of the 4 parity pairs.
    assert (solved, refused) == (32 * 6 * 4, 64 * 16 * 4 - 32 * 6 * 4)


@pytest.mark.parametrize("homology, message", [
    (HomologyModel(("A", "B"), ((0, 1), (1, 0))), "no sweep class vectors"),
    (HomologyModel(("A", "B"), ((0, 1), (1, 0)), (1, 0)),
     "no sweep class vectors"),
    (HomologyModel(("A", "B", "C"), ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                   (1, 0, 0), (0, 1, 0)), "only in a rank-2 basis"),
], ids=["no-vectors", "one-vector", "rank-3"])
def test_solve_refuses_a_basis_without_two_sweep_classes(homology, message):
    with pytest.raises(UnsupportedDiagram, match=message):
        _solve(homology, (1, 0))


def test_class_refuses_a_diagram_before_its_basis():
    # x_abc carries no sweep class vectors, but it has nodes, so the
    # rectangle refusal comes first, as the mod2_class docstring says.
    with pytest.raises(UnsupportedDiagram, match="node-free rectangle"):
        mod2_class(*rp2_curve(1, 1, F(4, 3), 4))


# -- Pontryagin squares --------------------------------------------------

def test_p2_on_product_form():
    form = rectangle(1, 1).homology
    assert pontryagin_square(form, (0, 1)) == 0
    assert pontryagin_square(form, (1, 1)) == 2


def test_p2_on_exceptional_form():
    form = x_abc(1, 1, F(4, 3), 4).homology
    assert pontryagin_square(form, (1, 1, 1)) == 1


def test_p2_lift_independence():
    rng = random.Random(5150)
    forms = [rectangle(1, 1).homology, x_abc(1, 1, F(4, 3), 4).homology]
    for form in forms:
        for _ in range(100):
            c = tuple(rng.randint(-6, 6) for _ in range(form.rank))
            d = tuple(rng.randint(-6, 6) for _ in range(form.rank))
            shifted = tuple(ci + 2 * di for ci, di in zip(c, d))
            assert pontryagin_square(form, c) == pontryagin_square(form, shifted)


def test_p2_dimension_mismatch():
    with pytest.raises(InvalidClass):
        pontryagin_square(rectangle(1, 1).homology, (1, 0, 0))


@pytest.mark.parametrize("entry", [F(1, 2), 1.0, True, "1"])
def test_p2_refuses_a_lift_that_is_not_integral(entry):
    with pytest.raises(InvalidClass) as refusal:
        pontryagin_square(rectangle(1, 1).homology, (1, entry))
    assert str(refusal.value) == f"integral lift required, got {entry!r}"


# -- Audin --------------------------------------------------------------

def test_audin_examples():
    assert audin_check(0, 0)        # Klein bottle in its class
    assert audin_check(1, 1)        # projective plane in E1+E2+E3
    assert not audin_check(0, -1)   # a k=3 surface cannot sit in a P2=0 class


def test_audin_on_closed_constructions(klein):
    diagram, curve = klein
    p2 = pontryagin_square(diagram.homology,
                           mod2_class(diagram, curve).coefficients)
    assert audin_check(p2, classify(diagram, curve).euler_char)
    for ell in range(1, 6):
        instance = trop_family(ell)
        p2 = pontryagin_square(
            instance.diagram.homology,
            mod2_class(instance.diagram, instance.curve).coefficients)
        assert audin_check(p2, -20 * ell)
