"""The repeating family of tropical curves with genus 20L + 2.

Each pattern block contributes four multiplicity-5 vertices (two double
points each) and four mu = 2 boundary ends; surgery at the double points
and the cross-caps at the boundary assemble a closed nonorientable surface
with chi = -20L.  The curve always represents the same mod-2 class (even
intersection with horizontal spheres, odd with vertical ones), and the
Audin congruence P2 = chi mod 4 holds for every L.
"""
from fractions import Fraction

from troplag import (
    SweepDirection,
    audin_check,
    classify,
    genus_bound,
    mod2_class,
    pontryagin_square,
    sweep_parity,
    trop_family,
    validate,
    vertex_multiplicity,
)

print(f"{'L':>2} {'rectangle':>12} {'V':>3} {'m':>3} {'dbl':>4} "
      f"{'chi':>6} {'k':>5} {'class':>9} {'Audin':>6}")
print("-" * 60)
for ell in range(1, 5):
    instance = trop_family(ell)
    assert validate(instance.diagram, instance.curve).passed
    sc = classify(instance.diagram, instance.curve)
    _, ids, *_ = instance.curve.rows()
    multiplicities = {vertex_multiplicity(instance.curve, vid) for vid in ids}
    cls = mod2_class(instance.diagram, instance.curve)
    p2 = pontryagin_square(instance.diagram.homology, cls.coefficients)
    verdict = "PASS" if audin_check(p2, sc.euler_char) else "FAIL"
    x1 = instance.diagram.bounds()[2]
    print(f"{ell:>2} {f'[0,{x1}]x[0,3]':>12} {len(ids):>3} "
          f"{multiplicities.pop():>3} {sc.double_points_surgered:>4} "
          f"{sc.euler_char:>6} {sc.nonorientable_genus:>5} "
          f"{cls.label_sum():>9} {verdict:>6}")

print()
print("sweep parities are witness-independent; for L = 2:")
instance = trop_family(2)
for direction in SweepDirection:
    parity = sweep_parity(instance.diagram, instance.curve, direction)
    print(f"  {direction.value}: parity {parity.parity} "
          f"(witness at {parity.witness_line_coordinate})")

print()
print("genus bounds by width (strict thresholds):")
for lam in ("3/2", "5", "11", "12", "25"):
    bound = genus_bound(Fraction(lam))
    witness = ("visible Klein bottle" if bound.witness_kind == "klein-bottle"
               else f"family (ell = {bound.ell})")
    print(f"  lambda = {lam:>4}: k <= {bound.k}  [witness: {witness}]")
