"""Count, don't time: every certification stage is linear in calls.

Each stage (build, parse, validate, classify, mod2_class, the oracle and
render) runs under sys.setprofile, on a fresh parse of a curve at two
sizes ten times apart, and the Python and C calls it makes ("call" and
"c_call" events) are counted.  A stage whose count grows more than 11
times is superlinear in calls: an all-pairs loop, say, grows about 100
times.  Counts do not depend on the host's speed, so the test is
deterministic.  Each count is taken after one warm-up round at the small
size, so a pattern compiled on a first call is not counted.

It runs on trop_family(100) and trop_family(1000), and on seeded random
caterpillar trees of 100 and 1,000 vertices: a spine of random directions
and lengths, with a cross-cap end at each vertex, whose coordinates and
directions follow no period, unlike the family's.  validate also runs on
an invalid row of 100 and 1,000 edges, each crossing the next, so that its
issue path is counted too.

What it cannot see is work inside one C call: a sort, `x in list`,
`list.index`, a big-int product, or a str.join.  Each counts as one event
however long it runs, so a quadratic `x in list` in a loop reads as
linear.  The timed L = 10^4 steps in CI still guard those.
"""
import random
import sys

import pytest

from troplag import (Document, TropicalCurve, homology, parse_document,
                     rectangle, render, serialize_document, topology,
                     tropical, trop_family)
from troplag.lattice import reduced

RATIO = 11


def caterpillar(n: int, seed: int) -> Document:
    """A valid curve of n (even) trivalent vertices in a rectangle of
    height 4.  The spine runs left to right in directions (dx, +-1),
    2 <= dx <= 5, rising to peaks at y in {2, 3} and falling to valleys at
    y in {1, 2}.  Each peak sends an end (ex, 2), each valley an end
    (ex, -2), ex = +-1, which turns the spine: every vertex is balanced and
    of odd multiplicity, and every end, the spine's two ends too, is a
    cross cap.  Peaks are at least 4 apart and an end leans by at most 1,
    so no two segments meet away from a vertex."""
    rng = random.Random(seed)
    ids, points, edges, ends = [], [], [], []
    x, y, dx, dy = 2, 2, 2, 1
    ends.append(("left", "v0", (-2, -1), (0, 1, 1)))
    for i in range(n):
        vid = f"v{i}"
        ids.append(vid)
        points.append((x, y, 1))
        if i:
            edges.append((f"e{i}", f"v{i - 1}", vid))
        # The spine must come back to dx = 2 by the last vertex.
        ex = rng.choice([e for e in (-1, 1) if 2 <= dx - e <= 5
                         and abs(dx - e - 2) <= n - 1 - i])
        # The end (ex, 2 * dy) reaches the top (y = 4) or the bottom
        # (y = 0) after (4 - y) / 2 or y / 2 of it.
        top = dy > 0
        reach = 4 - y if top else y
        ends.append((f"cap{i}", vid, (ex, 2 * dy),
                     reduced(2 * x + ex * reach, 8 if top else 0, 2)))
        dx, dy = dx - ex, -dy
        step = rng.choice([s for s in (1, 2) if 1 <= y + s * dy <= 3])
        if i < n - 1:
            x, y = x + step * dx, y + step * dy
    ends.append(("right", f"v{n - 1}", (2, dy), (x + 2, y + dy, 1)))
    curve = TropicalCurve(f"caterpillar{n}", ids, points, edges, ends)
    return Document(rectangle(x + 2, 4), (curve,))


def crossing_row(n: int) -> Document:
    """An invalid curve: a row of n lone edges, each crossing the next and
    no other.  Edge k runs over x in [2k+1, 2k+4], rising for even k and
    falling for odd k, so the boxes of k and k+1 overlap only for x in
    [2k+3, 2k+4], where the two edges cross."""
    ids, points, edges = [], [], []
    for k in range(n):
        low, high = (1, 3) if k % 2 == 0 else (3, 1)
        ids += [f"a{k}", f"b{k}"]
        points += [(2 * k + 1, low, 1), (2 * k + 4, high, 1)]
        edges.append((f"s{k}", f"a{k}", f"b{k}"))
    curve = TropicalCurve(f"row{n}", ids, points, edges, [])
    return Document(rectangle(2 * n + 4, 4), (curve,))


def family(ell: int) -> Document:
    instance = trop_family(ell)
    return Document(instance.diagram, (instance.curve,))


def oracle(diagram, curve):
    return topology.oracle_classify(
        topology.build_presentation(diagram, curve))


# Each stage on the first curve of a fresh parse of the document's text.
STAGES = {
    "validate": tropical.validate,
    "classify": topology.classify,
    "mod2_class": homology.mod2_class,
    "oracle": oracle,
}


def calls(stage, *args) -> int:
    """The "call" and "c_call" events of stage(*args)."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profile)
    try:
        stage(*args)
    finally:
        sys.setprofile(None)
    return count


def stage_calls(build, size):
    """Calls per stage on the document build(size), whose curve must
    validate and classify as the oracle does, so that no stage is counted
    on a refusal or an early exit."""
    counts = {"build": calls(build, size)}
    text = serialize_document(build(size))
    doc = parse_document(text)
    report = tropical.validate(doc.diagram, doc.curves[0])
    assert report.passed, str(report)
    assert (topology.classify(doc.diagram, doc.curves[0])
            == oracle(doc.diagram, doc.curves[0]))
    counts["parse"] = calls(parse_document, text)
    for name, stage in STAGES.items():
        doc = parse_document(text)
        counts[name] = calls(stage, doc.diagram, doc.curves[0])
    counts["render"] = calls(render.render_document, parse_document(text))
    return counts


@pytest.mark.parametrize("build, small, large", [
    (family, 100, 1000),
    (lambda n: caterpillar(n, seed=n), 100, 1000),
], ids=["trop_family", "caterpillar"])
def test_every_stage_is_linear_in_calls(build, small, large):
    stage_calls(build, small)
    before, after = stage_calls(build, small), stage_calls(build, large)
    ratios = {name: round(after[name] / before[name], 2) for name in before}
    assert not {name: r for name, r in ratios.items() if r > RATIO}, ratios


def test_issue_path_is_linear_in_calls():
    # The embeddedness issues are collected and sorted once: a row with
    # ten times the crossings takes at most RATIO times the calls.
    def validate_calls(n):
        text = serialize_document(crossing_row(n))
        doc = parse_document(text)
        issues = tropical.validate(doc.diagram, doc.curves[0]).issues
        assert sum(issue.code == "embedding" for issue in issues) == n - 1
        doc = parse_document(text)
        return calls(tropical.validate, doc.diagram, doc.curves[0])

    validate_calls(100)
    before, after = validate_calls(100), validate_calls(1000)
    assert after / before <= RATIO, (before, after)
