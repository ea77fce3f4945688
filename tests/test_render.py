"""render's int coordinate texts against the Fraction formula they replaced.

The reference is the old body of _Frame.project: (p.x - x0) * SCALE + MARGIN
and (y1 - p.y) * SCALE + MARGIN in Fraction arithmetic, then float() and
two decimals.  render writes each distinct x and y of the diagram and of
each curve once, with _Frame.tables, from the int coordinate over the
plane's scale, a multiple of the point's own W.  They must print the same text on
seeded rationals of every size, over their own W and a multiple of it, and
refuse exactly the coordinates the reference cannot turn into a float.
"""
import random
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import pytest

from troplag import TroplagError, pt
from troplag.render import MARGIN, SCALE, _Frame


def reference_project(x0, y1, p):
    return (f"{float((p.x - x0) * SCALE + MARGIN):.2f}",
            f"{float((y1 - p.y) * SCALE + MARGIN):.2f}")


def texts(f, p, k=1):
    """The x and y texts of p, given over k times its W, as a curve's plane
    pairs are."""
    X, Y, W = (k * c for c in p)
    xs, ys = f.tables({X}, {Y}, W)
    return xs[X], ys[Y]


def frame(x0, y0, x1, y1):
    """The frame of a diagram whose corners have these bounds: _Frame reads
    them as ints on the diagram's scale S."""
    bounds = (x0, y0, x1, y1)
    S = lcm(*(v.denominator for v in bounds))
    return _Frame(SimpleNamespace(_scale=S, _box=tuple(
        v.numerator * (S // v.denominator) for v in bounds)))


def random_rational(rng):
    """A rational whose numerator and denominator are small, large or huge
    (up to 400 digits), so that its value is anything from tiny to far
    beyond float range."""
    digits = rng.choice([1, 3, 8, 17, 40, 320, 400])
    num = rng.randrange(-10 ** digits, 10 ** digits)
    den = rng.randrange(1, 10 ** rng.choice([1, 3, 8, 17, 40, 320, 400]))
    return Fraction(num, den)


def test_projection_matches_the_fraction_formula():
    rng = random.Random(20201)
    refused = printed = 0
    for _ in range(300):
        x0, y0 = random_rational(rng), random_rational(rng)
        x1 = x0 + abs(random_rational(rng)) % 1000 + 1
        y1 = y0 + abs(random_rational(rng)) % 1000 + 1
        try:
            f = frame(x0, y0, x1, y1)
        except TroplagError:
            continue
        for _ in range(20):
            p = pt(random_rational(rng), random_rational(rng))
            k = rng.choice([1, 1, 6, 10 ** 20])
            try:
                expected = reference_project(x0, y1, p)
            except OverflowError:
                with pytest.raises(TroplagError,
                                   match="a coordinate is out of SVG range"):
                    texts(f, p, k)
                refused += 1
            else:
                assert texts(f, p, k) == expected
                printed += 1
    assert refused >= 1000 and printed >= 1000


@pytest.mark.parametrize("x", [
    Fraction(1, 3), Fraction(-5, 2), Fraction(10 ** 400 + 1, 10 ** 400),
    Fraction(3 * 10 ** 300 + 7, 10 ** 299), Fraction(1, 10 ** 400),
    Fraction(2 ** 1100, 2 ** 1090 + 1), Fraction(7, 8) + Fraction(1, 800),
])
def test_projection_at_chosen_points(x):
    x0, y1 = Fraction(-7, 3), Fraction(10 ** 350 + 1, 10 ** 349)
    f = frame(x0, Fraction(0), Fraction(5), y1)
    p = pt(x, -x)
    for k in (1, 12, 10 ** 30):
        assert texts(f, p, k) == reference_project(x0, y1, p)


def test_frame_size_out_of_range_is_refused():
    with pytest.raises(TroplagError, match="a coordinate is out of SVG range"):
        frame(Fraction(0), Fraction(0), Fraction(10 ** 400), Fraction(1))
