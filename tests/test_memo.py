"""The per-curve memo: every fact a curve remembers equals the fact
computed afresh.

A curve keeps one memo slot, (diagram, facts), keyed on the diagram by
identity.  Each answer read through it is compared with the same answer on
a fresh parse_document(serialize_document(doc)) copy, one copy per
question, so no copy reads a fact another question stored.  A curve read
against several diagrams in turn must answer for each diagram, and a
refusal is never stored: it is raised again, the same, on every read.
"""
import gc
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from troplag import (
    BaseDiagram,
    Document,
    IntVec,
    RatPoint,
    SweepDirection,
    TroplagError,
    UnimodularAffineMap,
    build_presentation,
    classify,
    euler_breakdown,
    homology,
    mod2_class,
    oracle_classify,
    parse_document,
    pt,
    rectangle,
    render_document,
    rp2_curve,
    serialize_document,
    topology,
    sweep_parity,
    trop_family,
    tropical,
    validate,
    visible_segment,
)
from troplag.maps import transform_curve
from troplag.tropical import geometry

from conftest import (BUNDLED_DOCS, FIGURES, count_calls, curve_of,
                      load_document, random_curve, random_unimodular_map,
                      sweep_criticals)

H, V = SweepDirection.HORIZONTAL, SweepDirection.VERTICAL


def _outcome(question, diagram, curve):
    """question's answer, or the type and text of its refusal."""
    try:
        answer = question(diagram, curve)
    except TroplagError as err:
        return type(err), str(err)
    return tuple(answer) if isinstance(answer, tuple) else answer


def _first_gap_midpoint(diagram, curve, direction):
    criticals = sweep_criticals(diagram, curve, direction)
    return (criticals[0] + criticals[1]) / 2


QUESTIONS = {
    "validate": validate,
    "euler_breakdown": euler_breakdown,
    "classify": classify,
    "presentation": lambda d, c: oracle_classify(build_presentation(d, c)),
    "sweep H": lambda d, c: sweep_parity(d, c, H),
    "sweep V": lambda d, c: sweep_parity(d, c, V),
    "sweep H at a witness": lambda d, c: sweep_parity(
        d, c, H, _first_gap_midpoint(d, c, H)),
    "sweep V at a witness": lambda d, c: sweep_parity(
        d, c, V, _first_gap_midpoint(d, c, V)),
    "mod2_class": mod2_class,
    "render": lambda d, c: render_document(Document(d, (c,))),
}


def _fresh(diagram, curve):
    """A copy of diagram and curve with nothing remembered."""
    doc = parse_document(serialize_document(Document(diagram, (curve,))))
    return doc.diagram, doc.curves[0]


def _assert_memo_answers_fresh(diagram, curve):
    """Every question, asked twice of curve (the second time from its memo)
    in certification order, then in reverse, equals the fresh answer."""
    fresh = {name: _outcome(question, *_fresh(diagram, curve))
             for name, question in QUESTIONS.items()}
    for names in (list(QUESTIONS), list(QUESTIONS)[::-1]):
        for name in names:
            assert _outcome(QUESTIONS[name], diagram, curve) == fresh[name], \
                name


def _cases():
    for name in BUNDLED_DOCS + ["invalid_unbalanced.trop"]:
        doc = load_document(name)
        for curve in doc.curves:
            yield f"{name}:{curve.name}", doc.diagram, curve
    for ell in range(1, 6):
        instance = trop_family(ell)
        yield f"trop_family({ell})", instance.diagram, instance.curve
    rng = random.Random(2022)
    for k in range(12):
        diagram, curve = random_curve(rng)
        yield f"random_curve {k}", diagram, curve


CASES = list(_cases())


@pytest.mark.parametrize("diagram, curve", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_memo_answers_equal_fresh_answers(diagram, curve):
    _assert_memo_answers_fresh(diagram, curve)


def test_cached_plane_is_made_of_tuples():
    doc = load_document("fig3_family.trop")
    (curve,) = doc.curves
    scale, cuts, segments = geometry(doc.diagram, curve)
    assert geometry(doc.diagram, curve) is geometry(doc.diagram, curve)
    for part in (cuts, segments, *segments):
        assert type(part) is tuple


def test_coordinates_are_the_distinct_x_and_y_of_the_segments():
    # Both ends of each edge, and of each end to a landing or to a node of
    # the diagram, read from the rows, on the plane's scale; kept once.
    for name, diagram, curve in CASES:
        scale = geometry(diagram, curve)[0]
        _, ids, points, edges, ends = curve.rows()
        at = dict(zip(ids, points))
        nodes = [node.position for node in diagram.nodes]
        pairs = [(at[src], at[dst]) for _, src, dst in edges]
        for _, source, _, terminal in ends:
            if isinstance(terminal, int):
                if not 0 <= terminal < len(nodes):
                    continue  # a missing node: no segment
                terminal = nodes[terminal]
            pairs.append((at.get(source, source), terminal))
        expected = [{Fraction(p[k] * scale, p[2]) for pair in pairs
                     for p in pair} for k in (0, 1)]
        xs, ys = tropical.coordinates(diagram, curve)
        assert [xs, ys] == expected, name
        assert type(xs) is type(ys) is frozenset
        assert tropical.coordinates(diagram, curve)[0] is xs


# A segment through (7/2, 1) along (1,2), landing at (4,2) and at (3,0).
# (4,2) is on the right edge of rectangle(4,4) (a collar there), on the
# top edge of rectangle(6,2) and rectangle(19/3,2) (a cross-cap, so the
# lift is a closed Klein bottle), and a corner of rectangle(4,2) (refused).
# rectangle(19/3,2) also changes the plane's scale from 2 to 6.
SLANTED_ENDS = (
    ("up", pt(Fraction(7, 2), 1), (1, 2), pt(4, 2)),
    ("down", pt(Fraction(7, 2), 1), (-1, -2), pt(3, 0)))
DIAGRAMS = (rectangle(4, 4), rectangle(6, 2), rectangle(4, 2),
            rectangle(Fraction(19, 3), 2))


def test_one_curve_read_against_diagrams_in_turn():
    curve = curve_of(ends=SLANTED_ENDS, name="slanted")
    kinds = set()
    for diagram in DIAGRAMS * 2:
        _assert_memo_answers_fresh(diagram, curve)
        kinds.add(_outcome(tropical.end_kinds, diagram, curve))
        scale, _, segments = geometry(diagram, curve)
        assert scale == (6 if diagram is DIAGRAMS[3] else 2)
        # Each segment runs from its anchor to its landing, each point
        # times the plane's scale, as int pairs.
        assert len(segments) == len(SLANTED_ENDS)
        for (eid, start, finish, *_), end in zip(segments, SLANTED_ENDS):
            assert eid == end[0]
            for got, p in ((start, end[1]), (finish, end[3])):
                assert got == (p.x * scale, p.y * scale)
                assert all(type(v) is int for v in got)
    # Three diagrams answer differently: a collar, a closed surface and a
    # refusal.
    assert len(kinds) == 3


def test_a_refusal_is_raised_again_and_not_stored():
    # A vertex of valence two: no multiplicity, so no surface and no class.
    doc = parse_document(
        "diagram rectangle width=4 height=4\ncurve bent\nvertex v (2,2)\n"
        "end a v dir=(1,0) land=(4,2)\nend b v dir=(0,1) land=(2,4)\n")
    diagram, (curve,) = doc.diagram, doc.curves
    for question in (euler_breakdown, mod2_class, build_presentation,
                     tropical.multiplicities):
        with pytest.raises(TroplagError) as first:
            question(diagram, curve)
        with pytest.raises(TroplagError) as second:
            question(diagram, curve)
        assert type(first.value) is type(second.value)
        assert str(first.value) == str(second.value)
        assert "valence 2" in str(first.value)
    assert tropical.multiplicities not in curve._memo[1]


def test_sweeps_refuse_the_first_end_without_a_cap_kind():
    # End a is a collar and end b has mu = 3: the sweeps read every cap
    # kind before testing for cross-caps, so b's refusal comes first.
    doc = parse_document(
        "diagram rectangle width=8 height=4\ncurve two\n"
        "end a (4,2) dir=(1,0) land=(8,2)\n"
        "end b (4,2) dir=(-3,-1) land=(0,2/3)\n")
    diagram, (curve,) = doc.diagram, doc.curves
    for question in (QUESTIONS["sweep H"], mod2_class):
        for _ in range(2):
            kind, text = _outcome(question, diagram, curve)
            assert kind.__name__ == "UnsupportedEndMultiplicity"
            assert "mu = 3" in text


def test_transform_and_equality_ignore_the_memo():
    doc = load_document("fig2_klein.trop")
    (curve,) = doc.curves
    mod2_class(doc.diagram, curve)
    assert curve._memo is not None
    copy = _fresh(doc.diagram, curve)[1]
    assert copy._memo is None
    assert curve == copy
    moved = transform_curve(curve, UnimodularAffineMap.identity())
    assert moved._memo is None
    assert moved == curve


def _moved_rows(curve, m):
    """The rows of curve moved one by one: m.apply on each position,
    anchor, direction and landing."""
    def move(p):
        return m.apply(RatPoint.of(*p))

    name, ids, points, edges, ends = curve.rows()
    return name, ids, tuple(map(move, points)), edges, tuple(
        (eid, source if isinstance(source, str) else move(source),
         m.apply(IntVec(*u)), t if isinstance(t, int) else move(t))
        for eid, source, u, t in ends)


def _random_tree(seed):
    return random_curve(random.Random(seed))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(st.sampled_from([case[1:] for case in CASES]),
                 st.integers(0, 2**32).map(_random_tree)),
       st.integers(0, 2**32).map(
           lambda seed: random_unimodular_map(random.Random(seed))))
def test_transform_moves_the_columns_as_the_map_moves_each_row(case, m):
    # transform maps the columns and builds the moved curve from rows: its
    # rows are those moved one by one, its memo is empty, and each of its
    # points and directions is a plain tuple.
    diagram, curve = case
    validate(diagram, curve)
    moved = transform_curve(curve, m)
    assert moved.rows() == _moved_rows(curve, m)
    assert moved._memo is None
    landings = [t for *_, t in moved._end_rows if not isinstance(t, int)]
    directions = [u for *_, u, _ in moved._end_rows]
    for column in (moved._points, moved._anchors, landings, directions):
        assert {type(p) for p in column} <= {tuple}


def test_no_plane_segment_stays_tracked_by_the_collector():
    # A full collection untracks a tuple whose items are all untracked,
    # one nesting level per collection: the points and tokens first, then
    # the segment, so long as its direction is a plain pair and its tokens
    # are site indices and pairs of strings and ints (an anchor's too).
    instance = trop_family(24)
    visible = rectangle(5, 3)
    for diagram, curve in [(instance.diagram, instance.curve), (
            visible, visible_segment(visible, IntVec(2, 1),
                                     pt(Fraction(5, 2), Fraction(3, 2))))]:
        assert validate(diagram, curve).passed
        segments = geometry(diagram, curve)[2]
        gc.collect()
        gc.collect()
        assert [s[0] for s in segments if gc.is_tracked(s)] == []


def _certify(doc):
    for curve in doc.curves:
        assert validate(doc.diagram, curve).passed
        classify(doc.diagram, curve)
        oracle_classify(build_presentation(doc.diagram, curve))
        mod2_class(doc.diagram, curve)
    render_document(doc)


def _constructed(ell):
    instance = trop_family(ell)
    return Document(instance.diagram, (instance.curve,))


def test_tracked_objects_stay_flat_in_the_family_size():
    # A parsed, certified document keeps its columns and facts as plain
    # tuples of ints and strings, which the collector stops tracking, so
    # what stays tracked does not grow with the curve.  A constructed
    # curve is built from rows of plain tuples too, and keeps no more.
    texts = [serialize_document(_constructed(ell)) for ell in (1, 24, 1000)]
    _certify(parse_document(texts[0]))  # compiles the parser's patterns
    _certify(_constructed(1))
    tracked = []
    for build in (lambda: parse_document(texts[1]),
                  lambda: parse_document(texts[2]),
                  lambda: _constructed(1000)):
        gc.collect()
        gc.collect()
        before = len(gc.get_objects())
        doc = build()
        _certify(doc)
        gc.collect()
        gc.collect()
        tracked.append(len(gc.get_objects()) - before)
        del doc
    small, large, constructed = tracked
    assert constructed <= large <= small < 100, tracked


@pytest.mark.parametrize("diagram, curve", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_rows_equal_the_copys_rows(diagram, curve):
    # Figures are parsed, and trop_family and random_curve built from
    # rows; each is compared with its parse_document(serialize_document(...))
    # copy.
    copy = _fresh(diagram, curve)[1]
    for one, other in [(curve, copy), (copy, curve)]:
        assert one == other
        assert one.rows() == other.rows()
    moved = transform_curve(copy, UnimodularAffineMap.identity())
    assert moved == copy and copy == moved


def _count_points(monkeypatch, name):
    """The (X, Y, W) of each call of BaseDiagram.name, _locate or _inside."""
    calls, method = [], getattr(BaseDiagram, name)

    def counted(self, X, Y, W):
        calls.append((X, Y, W))
        return method(self, X, Y, W)

    monkeypatch.setattr(BaseDiagram, name, counted)
    return calls


def _count_builds(monkeypatch, key):
    """The curve of each build of the fact key, wherever a troplag module
    holds tropical._remember."""
    builds, remember = [], tropical._remember

    def counted(diagram, curve, fact, build):
        def counted_build():
            builds.append(curve)
            return build()
        return remember(diagram, curve, fact,
                        counted_build if fact is key else build)

    for name, module in list(sys.modules.items()):
        if name.startswith("troplag.") \
                and vars(module).get("_remember") is remember:
            monkeypatch.setattr(module, "_remember", counted)
    return builds


def test_one_certification_builds_each_fact_once(monkeypatch):
    doc = parse_document((FIGURES / "fig3_family.trop").read_text())
    diagram, (curve,) = doc.diagram, doc.curves
    planes = count_calls(monkeypatch, tropical, "_plane")
    coordinates = _count_builds(monkeypatch, tropical.coordinates)
    sweeps = _count_builds(monkeypatch, homology._sweep)
    kinds = count_calls(monkeypatch, tropical, "classify_end")
    breakdowns = count_calls(monkeypatch, topology, "ChiBreakdown")
    double_points = count_calls(monkeypatch, tropical, "vertex_double_points")
    contains = BaseDiagram.contains
    # validate tests each site against the edge lines by _inside, and
    # locates one by _locate only if that test fails; landing_locations
    # locates each landing by contains, which calls _locate.
    located = _count_points(monkeypatch, "_locate")
    tested = _count_points(monkeypatch, "_inside")
    assert validate(diagram, curve).passed
    classify(diagram, curve)
    euler_breakdown(diagram, curve)
    oracle_classify(build_presentation(diagram, curve))
    sweep_parity(diagram, curve, H)
    sweep_parity(diagram, curve, V)
    mod2_class(diagram, curve)
    render_document(doc)
    assert len(planes) == 1
    # The sweeps and render read one set of the plane's distinct x and y,
    # and both sweeps and the class one walk of the plane.
    assert coordinates == [curve]
    assert sweeps == [curve]
    # Each site is tested once and, strictly inside, never located; each
    # landing is located once, for the memo; all on the diagram's scale S.
    rows = curve._end_rows
    landings = [t for _, _, _, t in rows if not isinstance(t, int)]
    S = diagram._scale
    assert sorted(tested) == sorted([(X * S, Y * S, W)
                                     for X, Y, W in curve._points])
    assert sorted(located) == sorted([(X * S, Y * S, W)
                                      for X, Y, W in landings])
    assert len(tested) == len(curve._sites) == 8
    assert len(located) == len(landings) == 10
    # classify and euler_breakdown read one remembered ChiBreakdown, and
    # it and build_presentation one remembered handle count.
    assert len(breakdowns) == 1
    assert sorted(m for (m,) in double_points) == sorted(
        tropical.multiplicities(diagram, curve))
    assert len(double_points) == len(curve._ids) == 8
    # Once per end, on the row of the curve's end column that end_kinds
    # passes, with that landing's location from the memo; render's markers
    # read it there.
    per_end = [sum(1 for _, end, _ in kinds if end is row) for row in rows]
    assert per_end == [1] * len(rows) == [1] * 10
    assert [loc for _, _, loc in kinds] == [contains(diagram, t)
                                            for t in landings]


def test_a_default_sweep_reads_its_witness_from_the_walk(monkeypatch):
    # The walk finds each direction's largest gap once; a default sweep
    # after it scans no gap, and equals the sweep at the witness it gives.
    doc = load_document("fig3_family.trop")
    diagram, (curve,) = doc.diagram, doc.curves
    homology._sweep(diagram, curve)
    gaps = count_calls(monkeypatch, homology, "sub")
    for direction in (H, V):
        default = sweep_parity(diagram, curve, direction)
        assert sweep_parity(diagram, curve, direction,
                            default.witness_line_coordinate) == default
    assert gaps == []


def test_a_site_off_the_edge_lines_is_located(monkeypatch):
    # A vertex on the boundary fails the line test and is located there,
    # once; the one inside is tested and never located.
    doc = parse_document(
        "diagram rectangle width=4 height=4\ncurve c\nvertex in (2,2)\n"
        "vertex on (4,1)\nedge e in on\n")
    diagram, (curve,) = doc.diagram, doc.curves
    located = _count_points(monkeypatch, "_locate")
    tested = _count_points(monkeypatch, "_inside")
    report = validate(diagram, curve)
    assert [issue.element for issue in report.issues
            if issue.code == "vertex-position"] == ["on"]
    assert tested == [(2, 2, 1), (4, 1, 1)]
    assert located == [(4, 1, 1)]


def test_every_site_is_located_in_a_diagram_with_nodes(monkeypatch):
    # A node or a cut may hold a point inside every edge line.
    diagram, curve = rp2_curve(1, 1, Fraction(4, 3), 4)
    located = _count_points(monkeypatch, "_locate")
    tested = _count_points(monkeypatch, "_inside")
    assert validate(diagram, curve).passed
    S = diagram._scale
    assert tested == []
    sites = [(X * S, Y * S, W) for X, Y, W in curve._points + curve._anchors]
    assert sites and located[:len(sites)] == sites


def test_marker_of_an_end_without_a_cap_kind_is_a_small_circle():
    # Both ends of this segment have mu = 4, which has no cap kind.
    doc = parse_document(
        "diagram rectangle width=8 height=4\ncurve visible\n"
        "end plus (4,2) dir=(4,1) land=(8,3)\n"
        "end minus (4,2) dir=(-4,-1) land=(0,1)\n")
    with pytest.raises(TroplagError, match="mu = 4"):
        euler_breakdown(doc.diagram, doc.curves[0])
    svg = render_document(doc)
    assert svg.count('r="3.00"') == 2
    assert svg == render_document(parse_document(serialize_document(doc)))


def test_markers_keep_each_cap_kind_beside_an_end_without_one():
    # a lands on the top edge with mu = 2, b on the bottom edge with
    # mu = 3: end_kinds refuses the curve, and each end gets its own marker.
    doc = parse_document(
        "diagram rectangle width=8 height=4\ncurve mixed\n"
        "end a (4,2) dir=(1,2) land=(5,4)\n"
        "end b (4,2) dir=(-1,-3) land=(10/3,0)\n")
    with pytest.raises(TroplagError, match="mu = 3"):
        tropical.end_kinds(doc.diagram, doc.curves[0])
    svg = render_document(doc)
    assert svg.count("<circle") == 2
    assert ('<circle cx="280.00" cy="40.00" r="6.00" '
            'stroke="#cc0000" stroke-width="1.5" fill="none"/>'
            '<line x1="275.80" y1="35.80" x2="284.20" y2="44.20"') in svg
    assert '<circle cx="200.00" cy="232.00" r="3.00"' in svg


@pytest.mark.parametrize("question", [
    render_document,
    lambda doc: classify(doc.diagram, doc.curves[0]),
    lambda doc: mod2_class(doc.diagram, doc.curves[0]),
], ids=["render", "classify", "mod2_class"])
def test_cap_kinds_locate_only_the_landings(monkeypatch, question):
    # On a curve validate has not read, the cap kinds need each landing's
    # location and no vertex's.
    doc = load_document("fig3_family.trop")
    curve = doc.curves[0]
    located = []
    contains = BaseDiagram.contains

    def counted(self, p):
        located.append(p)
        return contains(self, p)

    monkeypatch.setattr(BaseDiagram, "contains", counted)
    question(doc)
    landings = [t for _, _, _, t in curve._end_rows if not isinstance(t, int)]
    assert sorted(located) == sorted(landings) and len(located) == 10


def test_a_certified_figure_makes_only_its_params_fractions():
    # Parsing, validating and rendering fig2_klein makes a Fraction for
    # each rectangle parameter and no other: the diagram is int columns.
    import sys

    codes = {getattr(Fraction, name).__code__
             for name in ("__new__", "_from_coprime_ints")
             if hasattr(Fraction, name)}
    made = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            made.append(frame.f_code.co_name)

    text = (FIGURES / "fig2_klein.trop").read_text(encoding="utf-8")
    sys.setprofile(profile)
    try:
        doc = parse_document(text)
        report = validate(doc.diagram, doc.curves[0])
        svg = render_document(doc)
    finally:
        sys.setprofile(None)
    assert report.passed and svg.endswith("</svg>\n")
    assert len(made) == len(doc.diagram.params) == 2
