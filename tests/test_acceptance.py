"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.  Every assertion is exact integer / rational equality; nothing
is approximate.
"""
import io
import random
import re
from fractions import Fraction

import pytest

from troplag import (
    DegenerateConstruction,
    InvalidCurve,
    SweepDirection,
    audin_check,
    classify,
    build_presentation,
    end_multiplicity,
    genus_bound,
    klein_threshold,
    mod2_class,
    oracle_classify,
    parse_document,
    pontryagin_square,
    pt,
    rectangle,
    render_document,
    rp2_curve,
    serialize_document,
    squeeze_check,
    surface_name,
    sweep_parity,
    triangle_check,
    trop_family,
    validate,
    vertex_multiplicity,
    x_abc,
)
from troplag.cli import main
from troplag.homology import critical_coordinates
from troplag.lattice import point_text

from conftest import (
    BUNDLED_DOCS,
    FIGURES,
    GOLDEN,
    load_document,
    random_curve,
    random_unimodular_map,
)

F = Fraction


def _passed(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}")


def _run_cli(capsys, *argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_criterion_1_figure_one_reproduction(capsys):
    code, out = _run_cli(capsys, "topology", str(FIGURES / "fig1_left.trop"))
    assert code == 0
    assert ("closed nonorientable surface, chi=1, nonorientable genus k=1 "
            "(projective plane)") in out
    code, out = _run_cli(capsys, "topology", str(FIGURES / "fig1_right.trop"))
    assert code == 0
    assert ("orientable surface with boundary, chi=1, boundary circles=1 "
            "(disc)") in out
    left = load_document("fig1_left.trop")
    sc = classify(left.diagram, left.curves[0])
    assert (sc.closed, sc.orientable, sc.euler_char,
            sc.nonorientable_genus) == (True, False, 1, 1)
    right = load_document("fig1_right.trop")
    sc = classify(right.diagram, right.curves[0])
    assert (sc.closed, sc.orientable, sc.euler_char,
            sc.boundary_circles) == (False, True, 1, 1)
    _passed(1, "left panel is the projective plane, right panel the disc")


def test_criterion_2_klein_bottles():
    for name, dims in (("fig2_klein.trop", (4, F(5, 2))),
                       ("fig4_squeeze.trop", (2, F(3, 2)))):
        doc = load_document(name)
        assert doc.diagram.bounds() == (0, 0) + dims
        curve = doc.curves[0]
        assert validate(doc.diagram, curve).passed
        assert [end_multiplicity(doc.diagram, e)
                for e in curve.rows()[4]] == [2, 2]
        sc = classify(doc.diagram, curve)
        assert (sc.closed, sc.orientable, sc.euler_char,
                sc.nonorientable_genus) == (True, False, 0, 2)
    _passed(2, "both visible segments classify as Klein bottles with "
               "mu = 2 ends")


def test_criterion_3_family_via_cli(capsys, monkeypatch):
    for ell in range(1, 6):
        code, doc_text = _run_cli(capsys, "gen-family", str(ell))
        assert code == 0
        code, out = _run_cli(capsys, "topology", "-", stdin_text=doc_text,
                             monkeypatch=monkeypatch)
        assert code == 0
        assert f"vertices={4 * ell} " in out
        assert f"vertex multiplicities: m=5 x{4 * ell}" in out
        assert f"double points surgered = {8 * ell}" in out
        assert f"crosscap={4 * ell + 2} " in out
        assert f"chi = {-20 * ell} " in out
        assert f"nonorientable genus k={20 * ell + 2}" in out
    _passed(3, "gen-family L | topology - reports the exact counts for "
               "L = 1..5")


def test_criterion_4_family_parities_two_witnesses():
    for ell in range(1, 6):
        instance = trop_family(ell)
        for direction, expected in ((SweepDirection.HORIZONTAL, 0),
                                    (SweepDirection.VERTICAL, 1)):
            criticals = critical_coordinates(instance.diagram,
                                             instance.curve, direction)
            first = (criticals[0] + criticals[1]) / 2
            last = (criticals[-2] + criticals[-1]) / 2
            assert first != last
            for witness in (first, last):
                parity = sweep_parity(instance.diagram, instance.curve,
                                      direction, witness=witness)
                assert parity.parity == expected, (ell, direction, witness)
    _passed(4, "horizontal parity 0 and vertical parity 1 at two "
               "independent witnesses, L = 1..5")


def test_criterion_5_pontryagin_squares():
    product_form = rectangle(1, 1).homology
    assert pontryagin_square(product_form, (0, 1)) == 0
    assert pontryagin_square(product_form, (1, 1)) == 2
    blowup_form = x_abc(1, 1, F(4, 3), 4).homology
    assert pontryagin_square(blowup_form, (1, 1, 1)) == 1
    rng = random.Random(515151)
    for _ in range(100):
        form = rng.choice((product_form, blowup_form))
        c = tuple(rng.randint(-9, 9) for _ in range(form.rank))
        d = tuple(rng.randint(-9, 9) for _ in range(form.rank))
        lift = tuple(ci + 2 * di for ci, di in zip(c, d))
        assert pontryagin_square(form, lift) == pontryagin_square(form, c)
    _passed(5, "P2 values match and are independent of the integral lift "
               "(100 random lifts)")


def test_criterion_6_audin_congruence():
    # bundled closed curves: fig1 left (class E1+E2+E3), fig2, family 1..5
    left = load_document("fig1_left.trop")
    p2 = pontryagin_square(left.diagram.homology, (1, 1, 1))
    chi = classify(left.diagram, left.curves[0]).euler_char
    assert audin_check(p2, chi)
    klein = load_document("fig2_klein.trop")
    p2 = pontryagin_square(klein.diagram.homology,
                           mod2_class(klein.diagram,
                                      klein.curves[0]).coefficients)
    assert audin_check(p2, classify(klein.diagram,
                                    klein.curves[0]).euler_char)
    for ell in range(1, 6):
        instance = trop_family(ell)
        p2 = pontryagin_square(
            instance.diagram.homology,
            mod2_class(instance.diagram, instance.curve).coefficients)
        assert audin_check(p2, -20 * ell)
    assert not audin_check(0, -1)
    _passed(6, "Audin congruence holds on every bundled closed curve and "
               "fails on (P2=0, chi=-1)")


def test_criterion_7_triangle_inequalities():
    assert triangle_check(1, 1, 1).satisfied
    assert not triangle_check(F(2, 3), F(5, 3), F(2, 3)).satisfied
    for equality_case in ((1, 1, 2), (1, 2, 1), (2, 1, 1),
                          (F(1, 2), F(1, 2), 1)):
        assert not triangle_check(*equality_case).satisfied
    rng = random.Random(777321)
    checked = degenerate = 0
    while checked < 200:
        a = F(rng.randint(1, 24), rng.randint(1, 6))
        b = F(rng.randint(1, 24), rng.randint(1, 6))
        c = F(rng.randint(1, 24), rng.randint(1, 6))
        s = 2 * (a + b) + c + 1
        satisfied = triangle_check(a, b, c).satisfied
        try:
            diagram, curve = rp2_curve(a, b, c, s)
            is_rp2 = surface_name(classify(diagram, curve)) \
                == "projective plane"
        except DegenerateConstruction:
            degenerate += 1
            continue
        except InvalidCurve:
            is_rp2 = False
        assert is_rp2 == satisfied, (a, b, c)
        checked += 1
    _passed(7, "projective plane iff strict triangle inequalities over "
               f"{checked} random triples ({degenerate} degenerate "
               "landings excluded)")


def test_criterion_8_thresholds():
    bound = genus_bound(F(3, 2))
    assert (bound.k, bound.witness_kind) == (2, "klein-bottle")
    bound = genus_bound(5)
    assert (bound.k, bound.witness_kind, bound.ell) == (22, "family", 1)
    bound = genus_bound(12)
    assert (bound.k, bound.witness_kind, bound.ell) == (42, "family", 2)
    assert genus_bound(11, threshold="statement").ell == 1
    assert genus_bound(11, threshold="proof").ell == 2
    assert not squeeze_check(1).exists
    result = squeeze_check(F(101, 100))
    assert result.exists
    landings = sorted(point_text(e[3]) for e in result.witness.rows()[4])
    assert landings == ["(0,1/200)", "(2,201/200)"]
    assert klein_threshold(3, 2)
    assert not klein_threshold(4, 2)  # lambda = 2 exactly: strict
    _passed(8, "genus bounds, proof-threshold shift at lambda=11, squeeze "
               "and Klein thresholds are strict")


def _bundled_pairs():
    pairs = []
    for name in BUNDLED_DOCS:
        doc = load_document(name)
        for curve in doc.curves:
            pairs.append((doc.diagram, curve))
    return pairs


def test_criterion_9_oracle_equivalence():
    for diagram, curve in _bundled_pairs():
        assert oracle_classify(build_presentation(diagram, curve)) \
            == classify(diagram, curve)
    rng = random.Random(909090)
    for index in range(500):
        diagram, curve = random_curve(rng, max_vertices=6)
        engine = classify(diagram, curve)
        oracle = oracle_classify(build_presentation(diagram, curve))
        assert engine == oracle, (index, engine, oracle)
    _passed(9, "engine and presentation oracle agree on all bundled curves "
               "and 500 random curves")


def test_criterion_10_unimodular_invariance():
    rng = random.Random(606060)
    pairs = _bundled_pairs()
    invalid = load_document("invalid_unbalanced.trop")
    for index in range(100):
        m = random_unimodular_map(rng)
        diagram, curve = pairs[index % len(pairs)]
        moved_diagram, moved_curve = diagram.transform(m), curve.transform(m)
        assert validate(moved_diagram, moved_curve).passed
        _, ids, _, _, ends = curve.rows()
        *_, moved_ends = moved_curve.rows()
        ms = {vid: vertex_multiplicity(curve, vid) for vid in ids}
        moved_ms = {vid: vertex_multiplicity(moved_curve, vid) for vid in ids}
        assert ms == moved_ms
        mus = {e[0]: end_multiplicity(diagram, e) for e in ends
               if not isinstance(e[3], int)}
        moved_mus = {e[0]: end_multiplicity(moved_diagram, e)
                     for e in moved_ends if not isinstance(e[3], int)}
        assert mus == moved_mus
        assert classify(moved_diagram, moved_curve) == classify(diagram, curve)
        # validation status is also preserved on a failing curve
        bad_diagram = invalid.diagram.transform(m)
        bad_curve = invalid.curves[0].transform(m)
        assert not validate(bad_diagram, bad_curve).passed
    _passed(10, "validation, m, mu, chi and surface class invariant under "
                "100 random unimodular maps")


def test_criterion_11_format_and_rendering():
    for name in BUNDLED_DOCS:
        text = (FIGURES / name).read_text(encoding="utf-8")
        doc = parse_document(text)
        assert parse_document(serialize_document(doc)) == doc
        svg_once = render_document(doc)
        svg_twice = render_document(parse_document(serialize_document(doc)))
        assert svg_once == svg_twice
        golden = (GOLDEN / name.replace(".trop", ".svg")).read_bytes()
        assert svg_once.encode("utf-8") == golden
    _passed(11, "round-trip parse/serialize and byte-identical SVG against "
                "committed goldens")


def test_answer_corpus_replays():
    """Every document of answer_corpus.json (see make_answer_corpus.py)
    rebuilds to the text recorded for it and gives the recorded answers:
    the diagram's public values, the SVG's sha256, and per curve the
    validate lines, cap kinds, chi terms, surface, oracle, mod-2 class and
    audin lines, or the same refusals."""
    import json

    from make_answer_corpus import CORPUS, answers, build
    for case in json.loads(CORPUS.read_text(encoding="utf-8")):
        kind, *_ = source = tuple(case["source"])
        text = case["text"] if kind == "mutation" else build(source)
        if "refusal" in case:
            assert text == case["refusal"], source
            continue
        assert case.get("text", text) == text, source
        assert answers(text) == case["answers"], source
