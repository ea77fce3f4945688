"""The visible Klein bottle and its width thresholds.

A slope-1/2 segment spanning a rectangle between its vertical edges lifts
to a Lagrangian Klein bottle: both ends collapse 2-to-1 (mu = 2
cross-caps).  The segment fits exactly when height > width/2, and over a
cylinder of interval length I the construction exists exactly when I > 1;
both thresholds are strict.
"""
from fractions import Fraction as F

from troplag import (
    DoesNotFit,
    IntVec,
    RatPoint,
    classify,
    klein_threshold,
    mod2_class,
    pt,
    rectangle,
    squeeze_check,
    surface_name,
    visible_segment,
)

print("slope-1/2 segment in [0,w] x [0,h]:")
for w, h in ((3, 2), (4, F(5, 2)), (4, 2), (2, 1), (2, F(3, 2))):
    fits = klein_threshold(w, h)
    line = f"  w={w}, h={h}: threshold says {'fits' if fits else 'does not fit'}"
    try:
        diagram = rectangle(w, h)
        curve = visible_segment(diagram, IntVec(2, 1), pt(F(w) / 2, F(h) / 2))
        sc = classify(diagram, curve)
        cls = mod2_class(diagram, curve)
        *_, (first, second) = curve.rows()
        line += (f"; built {surface_name(sc)} in class {cls.label_sum()}, "
                 f"ends at {RatPoint.of(*second[3])} and "
                 f"{RatPoint.of(*first[3])}")
    except DoesNotFit as err:
        line += f"; construction agrees ({err})"
    print(line)

print()
print("squeezing over a cylinder of interval length I (sphere area 2):")
for length in (F(3, 2), F(101, 100), F(1), F(1, 2)):
    result = squeeze_check(length)
    if result.exists:
        landings = [str(RatPoint.of(*landing))
                    for *_, landing in result.witness.rows()[4]]
        print(f"  I = {length}: Klein bottle exists, over the segment "
              f"between {landings[1]} and {landings[0]}")
    else:
        print(f"  I = {length}: none by visible construction "
              "(and no essential one at all in this range)")
