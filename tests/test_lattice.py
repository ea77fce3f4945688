import pickle
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from troplag import (
    DegenerateDirection,
    IntVec,
    InvalidDiagram,
    Mod2Class,
    Node,
    NonUnimodularMap,
    RatPoint,
    SweepDirection,
    SweepParity,
    UnimodularAffineMap,
    genus_bound,
    parse_document,
    pt,
    rectangle,
    triangle_check,
)
from troplag.lattice import (
    OVERLAP,
    between,
    displacement,
    point_text,
    primitive_direction,
    segment_contact,
    turn,
    within,
)

ints = st.integers(min_value=-10**6, max_value=10**6)
vecs = st.builds(IntVec, ints, ints)
nonzero_vecs = vecs.filter(lambda v: not v.is_zero)


def shear(a, b, c, d):
    return UnimodularAffineMap(((a, b), (c, d)), pt(0, 0))


# -- primitive --------------------------------------------------------

def test_primitive_reduces_gcd():
    assert IntVec(4, 2).primitive() == IntVec(2, 1)


def test_primitive_keeps_sign():
    assert IntVec(-3, -3).primitive() == IntVec(-1, -1)


def test_primitive_of_zero_raises():
    with pytest.raises(DegenerateDirection):
        IntVec(0, 0).primitive()


@given(nonzero_vecs)
def test_primitive_idempotent(v):
    assert v.primitive().primitive() == v.primitive()


# -- wedge -------------------------------------------------------------

def test_wedge_figure_vertex_directions():
    # directions at the multiplicity-5 family vertex
    assert IntVec(-2, 1).wedge(IntVec(3, 1)) == -5


def test_wedge_standard_basis():
    assert IntVec(1, 0).wedge(IntVec(0, 1)) == 1


def test_wedge_parallel():
    assert IntVec(2, 1).wedge(IntVec(4, 2)) == 0


@given(vecs, vecs)
def test_wedge_antisymmetric(u, v):
    assert u.wedge(v) == -v.wedge(u)


@given(vecs, vecs, st.sampled_from([(1, 1, 0, 1), (1, 0, 1, 1),
                                    (0, -1, 1, 0), (1, 0, 0, -1),
                                    (2, 1, 1, 1), (3, -2, -4, 3)]))
def test_wedge_abs_unimodular_invariant(u, v, entries):
    m = shear(*entries)
    assert abs(m.apply(u).wedge(m.apply(v))) == abs(u.wedge(v))


# -- rot90 -------------------------------------------------------------

def test_rot90_fiber_circle_of_slope_half_segment():
    assert IntVec(2, 1).rot90() == IntVec(-1, 2)


def test_rot90_basis():
    assert IntVec(1, 0).rot90() == IntVec(0, 1)


def test_rot90_twice_negates():
    v = IntVec(3, 5)
    assert v.rot90().rot90() == -v


def test_negation_and_rot90_are_int_vectors():
    for w in (-IntVec(3, -5), IntVec(3, -5).rot90()):
        assert type(w) is IntVec
        assert all(type(c) is int for c in w)
    assert -IntVec(3, -5) == IntVec(-3, 5)


@given(vecs, vecs)
def test_rot90_preserves_wedge(u, v):
    assert u.rot90().wedge(v.rot90()) == u.wedge(v)


# -- affine maps -------------------------------------------------------

def test_apply_identity_to_point():
    m = UnimodularAffineMap.identity()
    assert m.apply(pt(Fraction(7, 2), 1)) == pt(Fraction(7, 2), 1)


def test_apply_shear_to_vector():
    m = shear(1, 1, 0, 1)
    assert m.apply(IntVec(2, 1)) == IntVec(3, 1)


def test_apply_rotation_with_translation_to_point():
    m = UnimodularAffineMap(((0, -1), (1, 0)), pt(1, 0))
    assert m.apply(pt(0, 0)) == pt(1, 0)


def test_non_unimodular_rejected():
    with pytest.raises(NonUnimodularMap):
        shear(2, 0, 0, 1)


def test_inverse_roundtrip():
    m = UnimodularAffineMap(((2, 1), (1, 1)), pt(Fraction(3, 2), -1))
    inv = m.inverse()
    p = pt(Fraction(5, 3), Fraction(-7, 4))
    assert inv.apply(m.apply(p)) == p
    assert m.compose(inv).apply(p) == p


def test_floats_rejected():
    with pytest.raises(TypeError):
        pt(0.5, 1)
    with pytest.raises(TypeError):
        RatPoint(1, 0.5)
    with pytest.raises(TypeError):
        IntVec(1.0, 2)


# Each entry point that reads a rational from a caller's value: a point's
# coordinates, a rectangle's sides, the genus bound's lambda and the
# blow-up sizes.
RATIONAL_TAKERS = [
    lambda v: RatPoint(v, 1),
    lambda v: RatPoint(1, v),
    lambda v: rectangle(v, 2),
    lambda v: rectangle(2, v),
    lambda v: genus_bound(v),
    lambda v: triangle_check(v, 1, 1),
    lambda v: triangle_check(1, 1, v),
]


@pytest.mark.parametrize("take", RATIONAL_TAKERS)
@pytest.mark.parametrize("value", ["1.5", "1e1", "2.5", "1_0", "\u0664",
                                   " 3/2 ", "3/2 ", "+3", "3/-2", "1/0",
                                   "", True, False])
def test_strings_and_bools_the_format_refuses_are_refused(take, value):
    # Only an ASCII 'p' or 'p/q' string, as the document format spells a
    # rational, is read; a bool is not a number, as IntVec holds.
    with pytest.raises(TypeError, match=re.escape(repr(value))):
        take(value)


@pytest.mark.parametrize("take", RATIONAL_TAKERS)
def test_ascii_rational_strings_are_read(take):
    assert take("3/2") == take(Fraction(3, 2))
    assert take("007") == take(7)


# -- segment predicates ------------------------------------------------

def test_orientation_signs():
    assert turn((0, 0), (1, 0), (0, 1)) == 1
    assert turn((0, 0), (0, 1), (1, 0)) == -1
    assert turn((0, 0), (2, 2), (1, 1)) == 0


def test_on_segment_variants():
    a, b = (0, 0), (4, 2)
    assert within((2, 1), a, b)
    assert within(a, a, b)
    assert not between(a, a, b)
    assert not within((2, 2), a, b)
    assert not within((6, 3), a, b)


def test_segment_contact_cases():
    # int pairs in, and a contact as a reduced (X, Y, W) triple out
    # proper crossing
    assert segment_contact((0, 0), (2, 2), (0, 2), (2, 0)) == (1, 1, 1)
    # proper crossing between lattice points: (1/2, 1/2)
    assert segment_contact((0, 0), (1, 1), (0, 1), (1, 0)) == (1, 1, 2)
    # disjoint
    assert segment_contact((0, 0), (1, 0), (0, 1), (1, 1)) is None
    # shared endpoint
    assert segment_contact((0, 0), (1, 1), (1, 1), (2, 0)) == (1, 1, 1)
    # T-touch in the interior of the first segment
    assert segment_contact((0, 0), (2, 0), (1, 0), (1, 1)) == (1, 0, 1)
    # collinear overlap
    assert segment_contact((0, 0), (3, 0), (1, 0), (4, 0)) == OVERLAP
    # collinear touch at one point
    assert segment_contact((0, 0), (1, 0), (1, 0), (2, 0)) == (1, 0, 1)
    # collinear disjoint
    assert segment_contact((0, 0), (1, 0), (2, 0), (3, 0)) is None


def test_ratio_along():
    # displacement(a, b) is b - a as a lattice length along its primitive
    # direction
    assert displacement(pt(1, Fraction(1, 2)), pt(4, 2)) \
        == (IntVec(2, 1), Fraction(3, 2))
    assert displacement(pt(2, 1), pt(0, 0)) == (IntVec(-2, -1), 1)
    assert displacement(pt(0, Fraction(1, 3)), pt(0, Fraction(5, 6))) \
        == (IntVec(0, 1), Fraction(1, 2))
    with pytest.raises(DegenerateDirection):
        displacement(pt(Fraction(2, 4), 1), pt(Fraction(1, 2), 1))


def test_primitive_direction_of_rational_displacement():
    direction, _ = displacement(pt(1, 1), pt(Fraction(2, 3), Fraction(2, 3)))
    assert direction == IntVec(-1, -1)


def test_primitive_direction_reduces_the_difference():
    u = primitive_direction(pt(1, Fraction(1, 2)), pt(4, 2))
    assert u == IntVec(2, 1) and type(u) is IntVec
    assert primitive_direction(pt(0, 0), pt(6, -9)) == IntVec(2, -3)
    assert primitive_direction(pt(Fraction(1, 3), 0),
                               pt(Fraction(1, 3), Fraction(7, 5))) \
        == IntVec(0, 1)


def test_primitive_direction_points_from_a_to_b():
    a, b = pt(Fraction(5, 3), 2), pt(-1, Fraction(-2, 3))
    assert primitive_direction(a, b) == IntVec(-1, -1)
    assert primitive_direction(b, a) == IntVec(1, 1)
    assert primitive_direction(pt(3, 1), pt(0, 1)) == IntVec(-1, 0)


def test_primitive_direction_of_equal_points_raises():
    with pytest.raises(DegenerateDirection):
        primitive_direction(pt(2, 1), pt(2, 1))
    with pytest.raises(DegenerateDirection):
        primitive_direction(pt(Fraction(2, 4), 1), RatPoint.of(3, 6, 6))


@given(nonzero_vecs, ints, ints, st.integers(min_value=1, max_value=50),
       st.integers(min_value=1, max_value=50))
def test_displacement_is_the_primitive_direction_and_length(v, x, y, w, k):
    a = RatPoint.of(x, y, w)
    b = RatPoint.of(x * k + v.x * w, y * k + v.y * w, w * k)  # a + v/k
    u, t = displacement(a, b)
    assert u == primitive_direction(a, b) and u.is_primitive
    assert (b.x - a.x, b.y - a.y) == (t * u.x, t * u.y) and t > 0


# -- the point type ----------------------------------------------------

rationals = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**4)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30),
       st.integers(1, 10**30), st.integers(1, 10**6))
def test_point_text_is_the_fraction_text(X, Y, W, k):
    """point_text, which documents, messages and str(RatPoint) print by,
    writes each coordinate as str(Fraction) does, on reduced and
    unreduced triples."""
    for p in ((X, Y, W), (X * k, Y * k, W * k), RatPoint.of(X, Y, W)):
        assert point_text(p) == f"({Fraction(X, W)},{Fraction(Y, W)})"
    assert point_text((0, -3, 3)) == "(0,-1)"
    assert point_text((-6, 4, 4)) == "(-3/2,1)"


def _same(p, q):
    """p and q are one point, however each was built: equal, with equal
    hashes and one reduced triple."""
    assert p == q and hash(p) == hash(q)
    assert (p.X, p.Y, p.W) == (q.X, q.Y, q.W)
    assert p.W > 0 and gcd(p.X, p.Y, p.W) == 1


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rationals, rationals, st.integers(1, 50), st.sampled_from(
    [(1, 1), (2, 1), (-1, 3), (0, -1), (-2, -5), (1, 0)]),
    st.sampled_from([((1, 0), (0, 1)), ((0, -1), (1, 0)), ((2, 1), (1, 1)),
                     ((1, 0), (3, -1)), ((-3, 2), (-5, 3))]))
def test_every_route_builds_the_same_point(x, y, k, direction, linear):
    p = RatPoint(x, y)
    assert (p.x, p.y) == (x, y)
    assert type(p.x) is Fraction and type(p.y) is Fraction
    assert str(p) == f"({x},{y})"
    _same(p, pt(x, y))
    _same(p, pt(str(x), str(y)))
    _same(p, RatPoint.of(p.X * k, p.Y * k, p.W * k))

    # The parser, from unreduced digits.
    spelled = (f"({x.numerator * k}/{x.denominator * k},"
               f"{y.numerator * k}/{y.denominator * k})")
    doc = parse_document("diagram rectangle width=1 height=1\ncurve c\n"
                         f"vertex v {spelled}\n")
    assert doc.curves[0].rows()[2] == ((p.X, p.Y, p.W),)

    # Rectangle corners.
    w, h = abs(x) + 1, abs(y) + 1
    box = rectangle(w, h)
    for corner, (cx, cy) in zip(box.polygon_vertices,
                                [(0, 0), (w, 0), (w, h), (0, h)]):
        _same(corner, pt(cx, cy))

    # exit, against the least positive t at which the ray meets one of the
    # box's four lines.
    u = IntVec(*direction)
    origin = pt(w * Fraction(k, 51), h * Fraction(51 - k, 51))
    times = [bound / step for bound, step in (
        ((w - origin.x) if u.x > 0 else -origin.x, u.x),
        ((h - origin.y) if u.y > 0 else -origin.y, u.y)) if step]
    t = min(times)
    point, _ = box.exit(origin, u)
    _same(point, pt(origin.x + t * u.x, origin.y + t * u.y))

    # An affine map and its inverse.
    (a, b), (c, d) = linear
    shift = pt(y, x)
    m = UnimodularAffineMap(linear, shift)
    image = m.apply(p)
    _same(image, pt(a * x + b * y + y, c * x + d * y + x))
    inverse = m.inverse()
    det = a * d - b * c
    _same(inverse.translation,
          pt(-det * (d * y - b * x), -det * (-c * y + a * x)))
    _same(inverse.apply(image), p)
    _same(m.compose(inverse).apply(p), p)


def test_point_is_immutable():
    p = pt(Fraction(1, 2), 3)
    with pytest.raises(AttributeError):
        p.X = 2
    assert repr(p) == "RatPoint.of(1, 6, 2)"


def test_point_is_its_triple():
    p = pt(Fraction(1, 2), 3)
    assert p == (1, 6, 2) and hash(p) == hash((1, 6, 2))
    assert {p: "p"}[(1, 6, 2)] == "p"
    assert tuple(p) == (p.X, p.Y, p.W) == (1, 6, 2)
    copy = pickle.loads(pickle.dumps(p))
    assert type(copy) is RatPoint and copy == p and repr(copy) == repr(p)
    # No NamedTuple helpers that would build an unreduced triple, and no
    # field that can be set or deleted.
    assert not hasattr(p, "_replace") and not hasattr(p, "_make")
    for field in ("X", "Y", "W", "x", "y"):
        with pytest.raises(AttributeError):
            setattr(p, field, 4)
        with pytest.raises(AttributeError):
            delattr(p, field)
    assert p == (1, 6, 2)


# -- records ------------------------------------------------------------

def test_records_are_their_field_tuples():
    v = IntVec(2, -1)
    assert v == (2, -1) and hash(v) == hash((2, -1))
    assert repr(v) == "IntVec(x=2, y=-1)" and str(v) == "(2,-1)"
    with pytest.raises(AttributeError):
        v.x = 3
    # _replace and _make build through the checks, as the constructor does.
    with pytest.raises(TypeError):
        v._replace(x=1.5)
    with pytest.raises(NonUnimodularMap):
        shear(1, 0, 0, 1)._replace(linear=((2, 0), (0, 1)))
    with pytest.raises(InvalidDiagram):
        Node._make((pt(1, 1), IntVec(2, 0)))
    # Every field is checked as it is built, not where it is first read.
    for translation in [(1, 2), "ab", (1, 2, 0), (5,)]:
        with pytest.raises(TypeError, match="is not a RatPoint$"):
            UnimodularAffineMap(((1, 0), (0, 1)), translation)
        with pytest.raises(TypeError, match="is not a RatPoint$"):
            shear(1, 0, 0, 1)._replace(translation=translation)
    for position, direction in [(pt(1, 1), (0, 1)), ((1, 1, 1), IntVec(0, 1))]:
        with pytest.raises(TypeError, match="is not an? (RatPoint|IntVec)$"):
            Node(position, direction)
        with pytest.raises(TypeError, match="is not an? (RatPoint|IntVec)$"):
            Node(pt(1, 1), IntVec(0, 1))._replace(
                position=position, cut_direction=direction)


def _klein_class(witness):
    """The class (1,0) with both sweeps read at the given witness."""
    sweeps = tuple(SweepParity(d, 0, witness) for d in SweepDirection)
    return Mod2Class((1, 0), ("sphere_h", "sphere_v"), sweeps)


def test_mod2_classes_differing_only_in_sweeps_are_equal():
    a, b = _klein_class(Fraction(1, 2)), _klein_class(Fraction(1, 3))
    assert a.sweeps != b.sweeps
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != Mod2Class((0, 1), a.basis_labels, a.sweeps)


def test_records_survive_pickling():
    records = [IntVec(2, -1), Node(pt(Fraction(1, 2), 3), IntVec(0, 1)),
               rectangle(4, 3).homology, _klein_class(Fraction(1, 2))]
    for record in records:
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        assert copy == record and tuple(copy) == tuple(record)
