"""How the strict triangle inequalities govern the tropical projective plane.

Builds the one-vertex curve in the triple blow-up triangle for several
(a, b, c) and shows how the third end's escape route decides the surface:
a cross-cap on the chopped edge (projective plane) when all inequalities
hold, a mu = 1 collar on a leg (disc) when one fails.
"""
from fractions import Fraction as F

from troplag import (
    DegenerateConstruction,
    InvalidCurve,
    RatPoint,
    audin_check,
    classify,
    end_multiplicity,
    pontryagin_square,
    rp2_curve,
    surface_name,
    triangle_check,
)

CASES = [
    (F(1), F(1), F(4, 3)),    # all inequalities hold
    (F(2, 3), F(5, 3), F(2, 3)),  # b >= c + a fails
    (F(3), F(1), F(1)),       # a >= b + c fails
    (F(1), F(1), F(2)),       # boundary case c = a + b
]

print(f"{'a':>5} {'b':>5} {'c':>5}   triangle check        surface")
print("-" * 60)
for a, b, c in CASES:
    check = triangle_check(a, b, c)
    verdict = ("satisfied" if check.satisfied
               else "violated: " + ", ".join(check.violated))
    s = 2 * (a + b) + c + 1
    try:
        diagram, curve = rp2_curve(a, b, c, s)
        sc = classify(diagram, curve)
        outcome = surface_name(sc) or f"chi={sc.euler_char}"
        third = next(e for e in curve.rows()[4] if e[0] == "xcap")
        outcome += (f"  (third end lands at {RatPoint.of(*third[3])}, "
                    f"mu={end_multiplicity(diagram, third)})")
    except DegenerateConstruction as err:
        outcome = f"degenerate: {err}"
    except InvalidCurve:
        outcome = "no curve (vertex escapes the polygon)"
    print(f"{str(a):>5} {str(b):>5} {str(c):>5}   {verdict:<20}  {outcome}")

print()
print("The projective plane sits in the class E1+E2+E3:")
diagram, curve = rp2_curve(1, 1, F(4, 3), 4)
p2 = pontryagin_square(diagram.homology, (1, 1, 1))
chi = classify(diagram, curve).euler_char
print(f"  P2(E1+E2+E3) = {p2}, chi = {chi}, "
      f"congruence mod 4: {'PASS' if audin_check(p2, chi) else 'FAIL'}")
