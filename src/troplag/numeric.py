"""The commands that read numbers, not a document: triangle, gen-family,
gen-visible, genus-bound and squeeze (with _ for -), and the readers of
numbers given as arguments.  Each imports what it runs in its own body."""
import sys
from fractions import Fraction

from .errors import FAIL, PASS, TroplagError
from .lattice import _INTEGER, _RATIONAL


def _convert(parse, value, option: str):
    """parse(value) for the option or quantity named option; a number with
    too many digits to convert between int and str names it."""
    try:
        return parse(value)
    except ValueError:
        raise TroplagError(f"{option} has a number with more than "
                           f"{sys.get_int_max_str_digits()} digits") from None


def _parse_rational(text: str, option: str):
    if not _RATIONAL.match(text):
        raise TroplagError(
            f"expected an exact rational like 3 or 22/7, got {text!r}")
    return _convert(Fraction, text, option)


def _parse_values(text: str, option: str, kind: str, count=None):
    """The comma-separated values given to option, each of kind "integers"
    or "rationals" and spelled as the document format spells it; count, if
    set, is how many there must be."""
    pattern, parse = {"integers": (_INTEGER, int),
                      "rationals": (_RATIONAL, Fraction)}[kind]
    parts = text.split(",")
    if (not all(pattern.match(part) for part in parts)
            or count not in (None, len(parts))):
        how_many = "" if count is None else f"{count} "
        raise TroplagError(f"{option} expects {how_many}comma-separated "
                           f"{kind}, got {text!r}")
    return tuple(_convert(parse, part, option) for part in parts)


def triangle(args) -> int:
    from .constructions import triangle_check

    a, b, c = (_parse_rational(getattr(args, k), k) for k in "abc")
    result = triangle_check(a, b, c)
    lines = [f"triangle inequalities for a={a}, b={b}, c={c}:"]
    for label, lhs, rhs, holds in result.comparisons:
        left, right = label.split(" < ")
        lhs, rhs = _convert(str, lhs, left), _convert(str, rhs, right)
        status = "satisfied" if holds else "VIOLATED"
        lines.append(f"  {label}: {lhs} < {rhs}: {status}")
    if result.satisfied:
        lines.append("satisfied: all three strict inequalities hold")
    else:
        lines.append("violated: " + ", ".join(result.violated))
    print("\n".join(lines))
    return PASS if result.satisfied else FAIL


def gen_family(args) -> int:
    from .constructions import trop_family
    from .textio import Document, serialize_document

    if not _INTEGER.match(args.ell):
        raise TroplagError(f"L expects an integer, got {args.ell!r}")
    instance = trop_family(_convert(int, args.ell, "L"))
    doc = Document(instance.diagram, (instance.curve,))
    sys.stdout.write(serialize_document(doc))
    return PASS


def gen_visible(args) -> int:
    from .constructions import visible_segment
    from .diagram import rectangle
    from .lattice import IntVec, RatPoint
    from .textio import Document, serialize_document

    width = _parse_rational(args.width, "width")
    height = _parse_rational(args.height, "height")
    diagram = rectangle(width, height)
    direction = IntVec(*_parse_values(args.direction, "--direction",
                                      "integers", count=2))
    if args.anchor is None:
        anchor = RatPoint(width / 2, height / 2)
    else:
        anchor = RatPoint(*_parse_values(args.anchor, "--anchor", "rationals",
                                         count=2))
    curve = visible_segment(diagram, direction, anchor)
    # A landing can have more digits than the sides it was computed from.
    sys.stdout.write(_convert(serialize_document, Document(diagram, (curve,)),
                              f"curve {curve.name}"))
    return PASS


def genus_bound(args) -> int:
    from .constructions import _family_sides, genus_bound

    lam = _parse_rational(args.lam, "LAMBDA")
    bound = genus_bound(lam, threshold=args.threshold)
    # Of the numbers printed, only k = 20*ell + 2 can be too long for str():
    # ell and the width 10*ell + 2 are shorter, and lambda was read as text.
    k = _convert(str, bound.k, "k")
    if args.threshold != "statement":
        print(f"threshold convention: {args.threshold}")
    if bound.witness_kind == "klein-bottle":
        print(f"lambda = {lam}: nonorientable genus bound k = {k}, "
              "witness = visible Klein bottle (slope-1/2 segment)")
    else:
        width, height = _family_sides(bound.ell)
        print(f"lambda = {lam}: nonorientable genus bound k = {k}, "
              f"witness = tropical family (ell = {bound.ell}) in "
              f"[0,{width}]x[0,{height}]")
    return PASS


def squeeze(args) -> int:
    from .constructions import squeeze_check
    from .lattice import point_text

    length = _parse_rational(args.interval_length, "I")
    result = squeeze_check(length)
    if result.exists:
        # The witness's two end rows, (id, anchor, direction, landing).
        *_, ((_, _, (dx, dy), finish), (*_, start)) = result.witness.rows()
        x0, y0, x1, y1 = result.diagram.bounds()
        print(f"interval length = {length} > 1: visible Lagrangian Klein "
              "bottle exists")
        print(f"witness: segment from {point_text(start)} to "
              f"{point_text(finish)} with direction ({dx},{dy}) "
              f"in rectangle [{x0},{x1}]x[{y0},{y1}]")
        return PASS
    print(f"interval length = {length} <= 1: {result.note}")
    return FAIL
