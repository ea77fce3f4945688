"""Write tests/parse_corpus.json: parser inputs with what parse_document
made of each, for test_textio.py::test_parse_corpus_replays to replay.

    PYTHONPATH=src python tests/make_parse_corpus.py

The inputs are drawn with fixed seeds.  A "soup" case is a conftest
token_soups example, the whole text.  A "mutation" case is a figures/*.trop
document with line "at" replaced by "text": one word replaced, dropped,
doubled or edited by a character, a separator changed to a tab, a run of
spaces or a Unicode space, or a number grown past
sys.get_int_max_str_digits() digits, inside land=, dir=, node= and
weight= too.  The outcome is {"doc": serialize_document(...)} or
{"error": str(err), "line": err.line, "col": err.col}.  In the file, that
over-long number is written as the marker {big} (see expand()), in inputs
and outcomes alike, and there is one case per line.

test_parse_corpus_replays is the check for a parser change: it replays
the committed file, whatever this script would draw today.  A rerun
writes the same file only while the hypothesis version and the string and
number constants of every loaded local module stay the same: hypothesis
also draws from the constants it collects from the modules in
sys.modules, so an edit to a literal anywhere in src/ can change the
drawn soups, and so the file, even where the parser keeps every outcome.
"""
import json
import random
import re
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings

from conftest import FIGURES, SOUP_TOKENS, token_soups
from troplag import ParseError, parse_document, serialize_document

CORPUS = Path(__file__).resolve().parent / "parse_corpus.json"
SOUP_EXAMPLES = 800
MUTATIONS_PER_FIGURE = 150
BIG = "9" * 4301  # one digit more than int() takes by default
MARKER = "{big}"

SEPARATORS = ("\t", "   ", " \t ", "\u2003", "\u00a0", "\x1f")
CHARS = "()-/,=.0123456789aZ_ #"
EXTRA = ("weight=1", "weight=01", "weight=-0", "dir=(1,0)", "land=(1,1)",
         "node=1", "node=-1", "(1,1)", "(0,1/2)", "(1,-1/3)", "(1,1/0)",
         "dir=(1,0/1)", "land=(1,2)x", "v.1", "a-b", "_x", "1x", "dir=",
         "land=", "node=", "weight=", "cut=(0,1)", "h=1,0", "width=4")


def expand(case):
    """A case as read from the file, with the marker spelled out."""
    return {key: value.replace(MARKER, BIG) if isinstance(value, str)
            else value for key, value in case.items()}


def text_of(case):
    """The document a case parses."""
    if "soup" in case:
        return case["soup"]
    lines = (FIGURES / case["figure"]).read_text(encoding="utf-8").split("\n")
    n = case["at"]
    return "\n".join(lines[:n - 1] + [case["text"]] + lines[n:])


def outcome(text):
    try:
        return {"doc": serialize_document(parse_document(text))}
    except ParseError as err:
        return {"error": str(err), "line": err.line, "col": err.col}


def soups():
    drawn = []

    @settings(derandomize=True, max_examples=SOUP_EXAMPLES, deadline=None,
              database=None, suppress_health_check=list(HealthCheck))
    @given(token_soups)
    def draw(text):
        drawn.append(text)

    draw()
    return list(dict.fromkeys(drawn))


def grow_number(word, rng):
    """word with one of its digit runs replaced by BIG, or None."""
    runs = list(re.finditer(r"[0-9]+", word))
    if not runs:
        return None
    run = rng.choice(runs)
    return word[:run.start()] + BIG + word[run.end():]


def mutate(line, rng):
    """line with one random edit, or None if the edit found no number."""
    words = line.split()
    i = rng.randrange(len(words))
    kind = rng.randrange(6)
    if kind == 0:
        words[i] = rng.choice(SOUP_TOKENS + EXTRA)
    elif kind == 1:
        del words[i]
    elif kind == 2:
        words.insert(i, words[i])
    elif kind == 3:
        w = words[i]
        at = rng.randrange(len(w) + 1)
        edit = rng.randrange(3)
        c = rng.choice(CHARS)
        if edit == 0:
            words[i] = w[:at] + c + w[at:]
        elif edit == 1:
            words[i] = w[:at] + w[at + 1:]
        else:
            words[i] = w[:at] + c + w[at + 1:]
    elif kind == 4:
        seps = [rng.choice(SEPARATORS) if rng.random() < 0.5 else " "
                for _ in words]
        lead = rng.choice(("", "  ", "\t"))
        tail = rng.choice(("", " ", "\t", "  # note", "\t#x"))
        return lead + "".join(s + w for s, w in zip(["", *seps], words)) + tail
    else:
        grown = grow_number(words[i], rng)
        if grown is None:
            return None
        words[i] = grown
    return " ".join(words)


def long_number_lines(line):
    """line with each number-bearing word grown, one at a time, plus a
    weight= and a node= that are too long."""
    words = line.split()
    out = []
    for i, w in enumerate(words):
        for run in re.finditer(r"[0-9]+", w):
            grown = w[:run.start()] + BIG + w[run.end():]
            out.append(" ".join(words[:i] + [grown] + words[i + 1:]))
    if words[0] == "edge":
        out.append(f"{line} weight={BIG}")
        out.append(f"{line} weight=-{BIG}")
    if words[0] == "end":
        out.append(" ".join(words[:4] + [f"node={BIG}"]))
    return out


def mutations():
    rng = random.Random(17)
    cases = []
    for path in sorted(FIGURES.glob("*.trop")):
        lines = path.read_text(encoding="utf-8").split("\n")
        live = [n for n, line in enumerate(lines, start=1)
                if line.split("#", 1)[0].split()]
        done = set()
        while len(done) < MUTATIONS_PER_FIGURE:
            n = rng.choice(live)
            new = mutate(lines[n - 1], rng)
            if new is not None:
                done.add((n, new))
        grown = {(n, new) for n in live
                 for new in long_number_lines(lines[n - 1])}
        picked = sorted(grown)
        rng.shuffle(picked)
        done.update(picked[:4])
        for n, new in sorted(done):
            case = {"figure": path.name, "at": n, "text": new}
            cases.append({**case, **outcome(text_of(case))})
    return cases


def main():
    cases = [{"soup": text, **outcome(text)} for text in soups()]
    cases += mutations()
    rows = (json.dumps({key: value.replace(BIG, MARKER)
                        if isinstance(value, str) else value
                        for key, value in case.items()}) for case in cases)
    CORPUS.write_text("[\n" + ",\n".join(rows) + "\n]\n", encoding="utf-8")
    errors = sum("error" in case for case in cases)
    print(f"{len(cases)} cases, {errors} errors, "
          f"{CORPUS.stat().st_size} bytes", file=sys.stderr)


if __name__ == "__main__":
    main()
