"""The commands that read a document: validate, topology, homology, audin
and render, which cli.main calls with the parsed arguments for the exit
code.  Each imports what it runs in its own body."""
import sys

from .errors import FAIL, PASS, TroplagError


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
    from .homology import SweepDirection, mod2_class, sweep_parity

    cls = mod2_class(doc.diagram, curve)
    lines = []
    for direction, axis in zip(SweepDirection, "yx"):
        sweep = sweep_parity(doc.diagram, curve, direction)
        lines.append(f"curve {curve.name}: {direction.value} sweep parity = "
                     f"{sweep.parity} (witness {axis} = "
                     f"{sweep.witness_line_coordinate})")
    lines.append(f"curve {curve.name}: mod2 class = {cls} = "
                 f"{cls.label_sum()}")
    return lines, PASS


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


def validate(args) -> int:
    doc = _read_document(args.file)
    return _each_curve(doc, _validate_lines, [
        f"diagram: {doc.diagram.name}; curves: {len(doc.curves)}"])


def topology(args) -> int:
    return _each_curve(_read_document(args.file), _topology_lines)


def homology(args) -> int:
    doc = _read_document(args.file)
    labels = doc.diagram.homology.basis_labels
    return _each_curve(doc, _homology_lines,
                       ["basis: " + ", ".join(labels)] if labels else [])


def audin(args) -> int:
    doc = _read_document(args.file)
    override = None
    if args.integral_class is not None:
        from .numeric import _parse_values

        override = _parse_values(args.integral_class, "--class", "integers")
    return _each_curve(
        doc, lambda doc, curve: _audin_lines(doc, curve, override))


def render(args) -> int:
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
