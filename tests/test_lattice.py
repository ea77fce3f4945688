from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from troplag import (
    DegenerateDirection,
    IntVec,
    NonUnimodularMap,
    RatVec,
    UnimodularAffineMap,
    pt,
)
from troplag.lattice import between, segment_contact, turn, within

ints = st.integers(min_value=-10**6, max_value=10**6)
vecs = st.builds(IntVec, ints, ints)
nonzero_vecs = vecs.filter(lambda v: not v.is_zero)


def shear(a, b, c, d):
    return UnimodularAffineMap(((a, b), (c, d)),
                               RatVec(Fraction(0), Fraction(0)))


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
    m = UnimodularAffineMap(((0, -1), (1, 0)), RatVec(Fraction(1), Fraction(0)))
    assert m.apply(pt(0, 0)) == pt(1, 0)


def test_non_unimodular_rejected():
    with pytest.raises(NonUnimodularMap):
        shear(2, 0, 0, 1)


def test_inverse_roundtrip():
    m = UnimodularAffineMap(((2, 1), (1, 1)), RatVec(Fraction(3, 2), Fraction(-1)))
    inv = m.inverse()
    p = pt(Fraction(5, 3), Fraction(-7, 4))
    assert inv.apply(m.apply(p)) == p
    assert m.compose(inv).apply(p) == p


def test_floats_rejected():
    with pytest.raises(TypeError):
        pt(0.5, 1)
    with pytest.raises(TypeError):
        IntVec(1.0, 2)


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
    # proper crossing
    assert segment_contact(pt(0, 0), pt(2, 2), pt(0, 2), pt(2, 0)) == pt(1, 1)
    # disjoint
    assert segment_contact(pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)) is None
    # shared endpoint
    assert segment_contact(pt(0, 0), pt(1, 1), pt(1, 1), pt(2, 0)) == pt(1, 1)
    # T-touch in the interior of the first segment
    assert segment_contact(pt(0, 0), pt(2, 0), pt(1, 0), pt(1, 1)) == pt(1, 0)
    # collinear overlap
    assert segment_contact(pt(0, 0), pt(3, 0), pt(1, 0), pt(4, 0)) == "overlap"
    # collinear touch at one point
    assert segment_contact(pt(0, 0), pt(1, 0), pt(1, 0), pt(2, 0)) == pt(1, 0)
    # collinear disjoint
    assert segment_contact(pt(0, 0), pt(1, 0), pt(2, 0), pt(3, 0)) is None


def test_ratio_along():
    delta = pt(4, 2) - pt(1, Fraction(1, 2))
    assert delta.ratio_along(IntVec(2, 1)) == Fraction(3, 2)
    assert delta.ratio_along(IntVec(1, 1)) is None
    assert (pt(0, 0) - pt(2, 1)).ratio_along(IntVec(2, 1)) == -1


def test_primitive_direction_of_rational_displacement():
    delta = pt(Fraction(2, 3), Fraction(2, 3)) - pt(1, 1)
    assert delta.primitive_direction() == IntVec(-1, -1)
