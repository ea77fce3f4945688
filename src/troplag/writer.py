"""The writer of the text format: textio.serialize_document loads it on
its first call.  A curve is written from its columns."""
from .lattice import point_text
from .textio import _PARAMETRIC


def _serialize_diagram(diagram) -> str:
    if diagram.kind in _PARAMETRIC:
        return " ".join(["diagram", diagram.kind,
                         *(f"{key}={diagram.params[key]}"
                           for key in _PARAMETRIC[diagram.kind][1])])
    parts = ["diagram polygon"]
    parts += [str(v) for v in diagram.polygon_vertices]
    for node in diagram.nodes:
        parts += [";", "node", str(node.position),
                  f"cut={node.cut_direction}"]
    homology = diagram.homology
    if homology.basis_labels:
        parts += [";", "basis", *homology.basis_labels]
        flat = [str(entry) for row in homology.intersection_form
                for entry in row]
        parts += [";", "form", *flat]
        if (homology.class_of_horizontal_sweep is not None
                and homology.class_of_vertical_sweep is not None):
            h = ",".join(str(c) for c in homology.class_of_horizontal_sweep)
            v = ",".join(str(c) for c in homology.class_of_vertical_sweep)
            parts += [";", "sweepclasses", f"h={h}", f"v={v}"]
    return " ".join(parts)


def _serialize_curve(curve):
    """The curve's lines, read from its columns."""
    ids = curve._ids
    sources = [*ids, *map(point_text, curve._anchors)]
    lines = [f"curve {curve.name or 'curve'}"]
    lines += map("vertex {} {}".format, ids, map(point_text, curve._points))
    lines += [f"edge {eid} {ids[s]} {ids[d]}"
              for eid, s, d, _ in curve._edge_rows]
    for eid, site, (dx, dy), t in curve._end_rows:
        t = f"node={t}" if isinstance(t, int) else f"land={point_text(t)}"
        lines.append(f"end {eid} {sources[site]} dir=({dx},{dy}) {t}")
    return lines


def serialize(doc) -> str:
    """Serialize so that parse(serialize(doc)) equals doc."""
    lines = [_serialize_diagram(doc.diagram)]
    for curve in doc.curves:
        lines.extend(_serialize_curve(curve))
    return "\n".join(lines) + "\n"
