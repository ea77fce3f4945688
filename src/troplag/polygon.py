"""The polygon reader: a `diagram polygon` line, read word by word with
the word readers of refusal, into a BaseDiagram."""
from .diagram import BaseDiagram, HomologyModel, Node
from .refusal import (_error, _integer, _intlist, _intvec, _keyvalue, _name,
                      _point)


def _parse_polygon_diagram(line):
    words = line[2]
    cuts = [1, *(i for i, w in enumerate(words) if w == ";"), len(words)]
    sections = [range(a + 1, b) for a, b in zip(cuts, cuts[1:])]
    vertices = [_point(words[i], line, i) for i in sections[0]]
    if len(vertices) < 3:
        raise _error("polygon needs at least three vertices", line, 1)
    nodes = []
    basis = form = sweep_h = sweep_v = None
    given = set()
    for section in sections[1:]:
        if not section:
            raise _error("empty ';' section", line, 1)
        k = section[0]
        kind = words[k]
        if kind != "node" and kind in given:
            raise _error(f"{kind} given twice", line, k)
        given.add(kind)
        if kind == "node":
            if len(section) != 3:
                raise _error("node takes a position and cut=(dx,dy)", line, k)
            nodes.append(Node(_point(words[k + 1], line, k + 1),
                              _keyvalue(line, k + 2, "cut", _intvec)))
        elif kind == "basis":
            basis = tuple(_name(words[i], line, i) for i in section[1:])
        elif kind == "form":
            form = [_integer(words[i], line, i) for i in section[1:]]
        elif kind == "sweepclasses":
            if len(section) != 3:
                raise _error("sweepclasses takes h=... and v=...", line, k)
            sweep_h = _keyvalue(line, k + 1, "h", _intlist)
            sweep_v = _keyvalue(line, k + 2, "v", _intlist)
        else:
            raise _error(f"unknown diagram section {kind!r}", line, k)
    if basis is None:
        homology = HomologyModel((), ())
        if form is not None:
            raise _error("form given without basis", line, 1)
        if sweep_h is not None:
            raise _error("sweepclasses given without basis", line, 1)
    else:
        n = len(basis)
        if form is None or len(form) != n * n:
            raise _error(f"form must list {n}x{n} row-major integers",
                         line, 1)
        rows = tuple(tuple(form[i * n:(i + 1) * n]) for i in range(n))
        homology = HomologyModel(basis, rows,
                                 class_of_horizontal_sweep=sweep_h,
                                 class_of_vertical_sweep=sweep_v)
    return BaseDiagram(vertices, nodes, homology, name="polygon")
