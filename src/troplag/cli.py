"""Command-line interface.

Commands: validate, topology, homology, audin, triangle, gen-family,
gen-visible, genus-bound, squeeze, render.  A file argument of '-' reads
the document from stdin, so generators pipe into checkers:

    troplag gen-family 2 | troplag topology -

Exit codes: 0 pass/success, 1 check failure, 2 input error, 3 internal error,
141 stdout closed by its reader (128 + SIGPIPE, as `yes | head` reports).

Each command imports the modules it runs in its own body, so that `validate`,
say, never loads topology, homology, constructions or render.
"""
import argparse
import os
import sys

from .errors import TroplagError
from . import __version__

PASS, FAIL, INPUT_ERROR, INTERNAL_ERROR = 0, 1, 2, 3
BROKEN_PIPE = 141


def _read_document(path: str):
    from .textio import parse_document

    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as err:
            raise TroplagError(f"cannot read {path}: {err}") from None
    return parse_document(text)


def _convert(parse, value, option: str):
    """parse(value) for the option or quantity named option; a number with
    too many digits to convert between int and str names it."""
    try:
        return parse(value)
    except ValueError:
        raise TroplagError(f"{option} has a number with more than "
                           f"{sys.get_int_max_str_digits()} digits") from None


def _parse_rational(text: str, option: str):
    from fractions import Fraction
    from .lattice import _RATIONAL

    if not _RATIONAL.match(text):
        raise TroplagError(
            f"expected an exact rational like 3 or 22/7, got {text!r}")
    return _convert(Fraction, text, option)


def _parse_values(text: str, option: str, kind: str, count=None):
    """The comma-separated values given to option, each of kind "integers"
    or "rationals" and spelled as the document format spells it; count, if
    set, is how many there must be."""
    from fractions import Fraction
    from .lattice import _INTEGER, _RATIONAL

    pattern, parse = {"integers": (_INTEGER, int),
                      "rationals": (_RATIONAL, Fraction)}[kind]
    parts = text.split(",")
    if (not all(pattern.match(part) for part in parts)
            or count not in (None, len(parts))):
        how_many = "" if count is None else f"{count} "
        raise TroplagError(f"{option} expects {how_many}comma-separated "
                           f"{kind}, got {text!r}")
    return tuple(_convert(parse, part, option) for part in parts)


def _each_curve(doc, report, header=()) -> int:
    """Print each curve's INVALID block or, for a valid curve, the lines of
    report(doc, curve) -> (lines, code), the header going out with the first
    block (or alone, if there are no curves); return the worst exit code.
    An input error raised by a report stops the run, with nothing of that
    curve printed, and is re-raised with the curve's name in front."""
    from .tropical import validate

    code = PASS
    for curve in doc.curves:
        check = validate(doc.diagram, curve)
        if check.passed:
            try:
                lines, curve_code = report(doc, curve)
            except (TroplagError, ValueError) as err:
                raise TroplagError(f"curve {curve.name}: {err}") from None
        else:
            lines = ([f"curve {curve.name}: INVALID"]
                     + [f"  - {line}" for line in check.lines()])
            curve_code = FAIL
        print("\n".join([*header, *lines]))
        header = ()
        code = max(code, curve_code)
    for line in header:
        print(line)
    return code


# ---------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------

def _validate_lines(doc, curve):
    return [f"curve {curve.name}: valid"], PASS


def _topology_lines(doc, curve):
    from .topology import euler_breakdown, surface_name
    from .tropical import EndKind

    breakdown = euler_breakdown(doc.diagram, curve)
    multiplicities = sorted(breakdown.multiplicities)
    sc = breakdown.surface_class()

    lines = [f"curve {curve.name}: vertices={len(curve._ids)} "
             f"edges={len(curve._edge_rows)} ends={len(curve._end_rows)}"]
    lines.append(f"curve {curve.name}: end kinds: " + " ".join(
        f"{kind.value}={breakdown.end_kinds.count(kind)}" for kind in EndKind))
    grouped = ", ".join(f"m={m} x{multiplicities.count(m)}"
                        for m in sorted(set(multiplicities)))
    lines.append(f"curve {curve.name}: vertex multiplicities: "
                 f"{grouped or 'none'}")
    lines.append(f"curve {curve.name}: double points surgered = "
                 f"{sc.double_points_surgered}")
    lines.append(f"curve {curve.name}: chi = {sc.euler_char} "
                 f"(vertices {breakdown.vertex_term:+d}, "
                 f"caps {breakdown.cap_term:+d}, "
                 f"surgeries {breakdown.surgery_term:+d})")
    name = surface_name(sc)
    tag = f" ({name})" if name else ""
    if sc.closed and not sc.orientable:
        sentence = (f"closed nonorientable surface, chi={sc.euler_char}, "
                    f"nonorientable genus k={sc.nonorientable_genus}{tag}")
    elif sc.closed:
        sentence = (f"closed orientable surface, chi={sc.euler_char}, "
                    f"genus g={sc.orientable_genus}{tag}")
    else:
        orientability = "orientable" if sc.orientable else "nonorientable"
        sentence = (f"{orientability} surface with boundary, "
                    f"chi={sc.euler_char}, "
                    f"boundary circles={sc.boundary_circles}{tag}")
    lines.append(f"curve {curve.name}: {sentence}")
    return lines, PASS


def _homology_lines(doc, curve):
    from .homology import mod2_class

    cls = mod2_class(doc.diagram, curve)
    horizontal, vertical = cls.sweeps
    return [f"curve {curve.name}: horizontal sweep parity = "
            f"{horizontal.parity} (witness y = "
            f"{horizontal.witness_line_coordinate})",
            f"curve {curve.name}: vertical sweep parity = "
            f"{vertical.parity} (witness x = "
            f"{vertical.witness_line_coordinate})",
            f"curve {curve.name}: mod2 class = {cls} = {cls.label_sum()}"
            ], PASS


def _audin_lines(doc, curve, override):
    from .homology import audin_check, mod2_class, pontryagin_square
    from .topology import classify

    if override is not None:
        lift = override
        lines = [f"curve {curve.name}: using supplied integral class "
                 f"({','.join(str(c) for c in lift)})"]
    else:
        cls = mod2_class(doc.diagram, curve)
        lift = cls.coefficients
        lines = [f"curve {curve.name}: mod2 class = {cls} = "
                 f"{cls.label_sum()}"]
    p2 = pontryagin_square(doc.diagram.homology, lift)
    sc = classify(doc.diagram, curve)
    if not sc.closed:
        raise TroplagError("the Audin congruence is defined for closed "
                           f"surfaces; this one has {sc.boundary_circles} "
                           "boundary circles")
    ok = audin_check(p2, sc.euler_char)
    verdict = "PASS" if ok else "FAIL"
    lines.append(f"curve {curve.name}: P2 = {p2}, chi = {sc.euler_char}; "
                 f"residues mod 4: {p2} vs {sc.euler_char % 4}: {verdict}")
    return lines, PASS if ok else FAIL


def _cmd_validate(args) -> int:
    doc = _read_document(args.file)
    return _each_curve(doc, _validate_lines, [
        f"diagram: {doc.diagram.name}; curves: {len(doc.curves)}"])


def _cmd_topology(args) -> int:
    return _each_curve(_read_document(args.file), _topology_lines)


def _cmd_homology(args) -> int:
    doc = _read_document(args.file)
    labels = doc.diagram.homology.basis_labels
    return _each_curve(doc, _homology_lines,
                       ["basis: " + ", ".join(labels)] if labels else [])


def _cmd_audin(args) -> int:
    doc = _read_document(args.file)
    override = None
    if args.integral_class is not None:
        override = _parse_values(args.integral_class, "--class", "integers")
    return _each_curve(
        doc, lambda doc, curve: _audin_lines(doc, curve, override))


def _cmd_triangle(args) -> int:
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


def _cmd_gen_family(args) -> int:
    from .constructions import trop_family
    from .lattice import _INTEGER
    from .textio import Document, serialize_document

    if not _INTEGER.match(args.ell):
        raise TroplagError(f"L expects an integer, got {args.ell!r}")
    instance = trop_family(_convert(int, args.ell, "L"))
    doc = Document(instance.diagram, (instance.curve,))
    sys.stdout.write(serialize_document(doc))
    return PASS


def _cmd_gen_visible(args) -> int:
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


def _cmd_genus_bound(args) -> int:
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


def _cmd_squeeze(args) -> int:
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


def _cmd_render(args) -> int:
    from .render import render_document

    doc = _read_document(args.file)
    svg = render_document(doc)
    if args.output == "-":
        sys.stdout.write(svg)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(svg)
        except OSError as err:
            raise TroplagError(f"cannot write {args.output}: {err}") from None
        print(f"wrote {args.output} ({len(svg.encode('utf-8'))} bytes)")
    return PASS


_FILE = (("file",), {"help": "document path, or - for stdin"})

# Each command's name, then its function, summary and arguments, as
# add_argument takes them, in the order the help lists them.
_COMMANDS = {
    "validate": (_cmd_validate, "validate every curve in a document",
                 [_FILE]),
    "topology": (_cmd_topology, "surface class of every curve in a document",
                 [_FILE]),
    "homology": (_cmd_homology, "sweep parities and mod-2 class (rectangles)",
                 [_FILE]),
    "audin": (_cmd_audin, "check P2(class) = chi mod 4 for each curve", [
        _FILE, (("--class",), {
            "dest": "integral_class", "default": None,
            "metavar": "C1,C2,...",
            "help": "integral lift to use when the diagram has no sweep "
                    "classes (e.g. 1,1,1)"})]),
    "triangle": (_cmd_triangle, "check the strict triangle inequalities",
                 [(("a",), {}), (("b",), {}), (("c",), {})]),
    "gen-family": (_cmd_gen_family, "emit the genus 20L+2 family document",
                   [(("ell",), {"metavar": "L"})]),
    "gen-visible": (
        _cmd_gen_visible, "emit a visible-segment document in a rectangle", [
            (("width",), {}), (("height",), {}),
            (("--direction",), {"default": "2,1", "metavar": "DX,DY"}),
            (("--anchor",), {"default": None, "metavar": "X,Y",
                             "help": "defaults to the rectangle centre"})]),
    "genus-bound": (
        _cmd_genus_bound, "nonorientable genus bound at a given width", [
            (("lam",), {"metavar": "LAMBDA"}),
            (("--threshold",), {"choices": ("statement", "proof"),
                                "default": "statement"})]),
    "squeeze": (_cmd_squeeze, "visible Klein bottle existence over a cylinder",
                [(("interval_length",), {"metavar": "I"})]),
    "render": (_cmd_render, "render a document to SVG", [
        _FILE, (("-o", "--output"), {
            "required": True, "metavar": "FILE.svg",
            "help": "output path, or - for stdout"})]),
}


def _build_parser(command=None) -> argparse.ArgumentParser:
    """The parser with the subparser of command only, or of every command
    if command is None; a subparser's usage, help and errors are the same
    either way, since each names only its own prog."""
    parser = argparse.ArgumentParser(
        prog="troplag",
        description="Exact tropical curves in almost toric base diagrams: "
                    "validation, surface topology, mod-2 homology, "
                    "thresholds and SVG rendering.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in _COMMANDS if command is None else (command,):
        func, summary, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only the running command's subparser is built; any other first word
    # (-h, --version, a typo or none) gets all of them, for its message.
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS
                           else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help/--version.
        return INPUT_ERROR if exc.code not in (0, None) else PASS
    if not getattr(args, "func", None):
        parser.print_usage()
        return INPUT_ERROR
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader has gone, as in `troplag ... | head -1`: print nothing
        # more, and point stdout's descriptor at os.devnull so that the
        # flush at interpreter exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return BROKEN_PIPE
    except (TroplagError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return INPUT_ERROR
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return INTERNAL_ERROR


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
