"""The three workloads and the loops that measure them.

family  one trop_family(L) document certified end to end, over and over.
soup    a seeded mix of small documents and constructions, valid and not.
cli     `python -m troplag.cli` commands as subprocesses, one pipe at a time.

Each runs as a closed loop with one client: the next item starts when the
previous one has been answered and checked.
"""
from __future__ import annotations

import bisect
import contextlib
import io
import os
import re
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from troplag import cli, constructions, textio

import certify
import inputs
import spans

FAMILY_ELL = 24                  # n = 8L+1 = 193 segments
FAMILY_LADDER = (6, 12, 24)
SOUP_ITEMS = 600
SPAWNS = 7                       # fresh interpreters per start-up figure
TIMEOUT_S = 60

# A shared host can change speed by up to 2x for a minute at a time under
# load from its other tenants.  So every run times a reference task, which
# troplag has no part in, at least every REF_EVERY_S between items, and
# scales each item's wall time to the nominal speed at which the reference
# takes its NOMINAL_S; raw figures are reported too.  Speed can change
# within seconds, so an item is scaled by the samples on either side of it.
REF_EVERY_S = 0.5
REFERENCE_NOMINAL_S = 0.006      # reference_task()
INTERPRETER_NOMINAL_S = 0.040    # a fresh `python -c pass`
_REFERENCE_SKETCH = inputs.family_sketch(2)

END_TO_END = (("setup_s", "s"), ("item_ms_p50", "ms"), ("items_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
# Functions the family ladder exercises at every size.
SLOPED = tuple(n for n in spans.NAMES if n not in (
    "constructions.rp2_curve", "constructions.visible_segment", "cli.main"))
PER_LAYER = (
    tuple((f"{n}_s", "s") for n in spans.NAMES)
    + tuple((f"{n}_calls", "count") for n in spans.NAMES)
    + tuple((f"{layer}.errors", "count") for layer in spans.LAYERS)
    + tuple((f"{n}.slope", "1") for n in SLOPED)
    + (("tropical.contact_hit_ratio", "ratio"), ("render.svg_bytes", "bytes"),
       ("cli.interpreter_s", "s"), ("cli.import_s", "s"),
       ("cli.known_defects", "count"), ("trace.overhead_ratio", "ratio")))

IMPORT = "import troplag, troplag.cli"
TIMED_IMPORT = ("import time; t = time.perf_counter(); "
                f"{IMPORT}; print(time.perf_counter() - t)")


def _env(root: Path):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def _spawn_once(root: Path, code: str):
    start = perf_counter()
    done = subprocess.run([sys.executable, "-c", code], cwd=root,
                          env=_env(root), capture_output=True, text=True,
                          timeout=TIMEOUT_S, check=True)
    return perf_counter() - start, done.stdout


def spawn(root: Path, code: str):
    """Wall seconds and output of SPAWNS fresh interpreters running code,
    after one unmeasured start that writes any missing bytecode."""
    return [_spawn_once(root, code) for _ in range(SPAWNS + 1)][1:]


def setup_seconds(root: Path):
    """Fresh `import troplag, troplag.cli` times, each scaled by the mean
    of the bare interpreter starts just before and after it."""
    _spawn_once(root, IMPORT)
    bare = [_spawn_once(root, "pass")[0]]
    raw, scaled = [], []
    for _ in range(SPAWNS):
        raw.append(_spawn_once(root, IMPORT)[0])
        bare.append(_spawn_once(root, "pass")[0])
        scaled.append(raw[-1] * 2 * INTERPRETER_NOMINAL_S
                      / (bare[-2] + bare[-1]))
    return raw, scaled


def reference_task():
    """Fixed pure-Python work from the benchmark's own code: exact segment
    tests, then writing, splitting and checking a small family drawing."""
    sketch = _REFERENCE_SKETCH
    sketch.crossed()
    for _ in range(3):
        re.findall(r"\S+", sketch.text())
        sketch.expect()


def _own_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class _InProcess:
    """Items certified in the benchmark's own process."""

    known_defects = {}
    run = staticmethod(certify.run_item)
    peak_rss_mb = staticmethod(_own_rss_mb)
    reference = staticmethod(reference_task)
    nominal_s = REFERENCE_NOMINAL_S

    @staticmethod
    def check(item, outcome):
        return certify.verdict(item.expect, outcome)


class Family(_InProcess):
    """Large-curve regime: the all-pairs embeddedness loop and the O(V*E)
    incidence scans dominate, so validation work shows here first."""

    def __init__(self, root, seed, small):
        # The family has no random parts; the seed changes nothing.
        self.ell = 2 if small else FAMILY_ELL
        self.ladder = (1, 2) if small else FAMILY_LADDER
        self.rungs = {ell: inputs.family_item(ell) for ell in self.ladder}
        self.items = [self.rungs[self.ell]]
        self.parsed = {ell: textio.parse_document(item.text)
                          for ell, item in self.rungs.items()}

    def warm_up(self):
        self.run(self.rungs[self.ladder[0]])

    def _built_matches(self, ell):
        """trop_family(ell) against the benchmark's own drawing."""
        try:
            built = constructions.trop_family(ell)
            text = textio.serialize_document(
                textio.Document(built.diagram, (built.curve,)))
        except Exception:  # scored as a failed item
            return "failed"
        ref = self.parsed[ell]
        s = self.rungs[ell].expect.surface
        same = (built.curve == ref.curves[0] and built.diagram == ref.diagram
                and text.count("\nend ") == 4 * ell + 2
                and (built.expected.euler_char, built.expected.nonorientable_genus,
                     built.expected.double_points_surgered)
                == (s.chi, s.k, s.double_points))
        return "ok" if same else "wrong"

    def traced_round(self, tracer, verdicts):
        sizes = {}
        for request, ell in enumerate(self.ladder):
            item = self.rungs[ell]
            tracer.reset()
            tracer.request = request
            with tracer.installed():
                start = perf_counter()
                outcome = self.run(item)
                traced_s = perf_counter() - start
                verdicts[self._built_matches(ell)] += 1
            verdicts[self.check(item, outcome)] += 1
            sizes[8 * ell + 1] = dict(tracer.total_ns)
        out = tracer.layer_metrics()
        out["render.svg_bytes"] = getattr(outcome, "svg_bytes", 0)
        start = perf_counter()
        verdicts[self.check(item, self.run(item))] += 1
        out["trace.overhead_ratio"] = traced_s / (perf_counter() - start)
        n = sorted(sizes)
        for name in SLOPED:
            out[f"{name}.slope"] = spans.slope(
                n, [sizes[k][name] / 1e9 for k in n])
        return out


class Soup(_InProcess):
    """Many small items: fixed costs per element (Fraction arithmetic,
    parsing, containment in polygons with nodes and cuts, object
    construction, validation's issue path) dominate, not embeddedness."""

    def __init__(self, root, seed, small):
        self.items = inputs.soup_items(seed, 20 if small else SOUP_ITEMS)

    def warm_up(self):
        for item in self.items[:20]:
            self.run(item)

    def traced_round(self, tracer, verdicts):
        tracer.reset()
        svg_bytes = 0
        with tracer.installed():
            start = perf_counter()
            for request, item in enumerate(self.items):
                tracer.request = request
                outcome = self.run(item)
                verdicts[self.check(item, outcome)] += 1
                svg_bytes += getattr(outcome, "svg_bytes", 0)
            traced_s = perf_counter() - start
        start = perf_counter()
        for item in self.items:
            verdicts[self.check(item, self.run(item))] += 1
        out = tracer.layer_metrics()
        out["render.svg_bytes"] = svg_bytes
        out["trace.overhead_ratio"] = traced_s / (perf_counter() - start)
        return out


class Cli:
    """Interpreter start, import, argparse and report formatting dominate;
    kernel changes should leave this workload alone."""

    def __init__(self, root, seed, small):
        # One command list is already small; small changes nothing.
        self.root = root
        self.env = _env(root)
        self.items = inputs.cli_commands(root, seed)

    nominal_s = INTERPRETER_NOMINAL_S
    known_defects = inputs.KNOWN_DEFECTS

    def warm_up(self):
        self.run(self.items[0])

    def reference(self):
        return _spawn_once(self.root, "pass")

    @staticmethod
    def peak_rss_mb():
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def run(self, cmd):
        """(exit code, stdout, stderr) of the command or pipe, or the
        exception that stopped it."""
        base = [sys.executable, "-m", "troplag.cli"]
        opts = dict(cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, text=True, encoding="utf-8")
        procs = []
        try:
            if cmd.feed is None:
                proc = subprocess.Popen(
                    base + list(cmd.argv), stdin=subprocess.PIPE
                    if cmd.stdin is not None else subprocess.DEVNULL, **opts)
                procs.append(proc)
                out, err = proc.communicate(cmd.stdin, timeout=TIMEOUT_S)
                return proc.returncode, out, err
            first = subprocess.Popen(base + list(cmd.feed),
                                     stdin=subprocess.DEVNULL, **opts)
            procs.append(first)
            second = subprocess.Popen(base + list(cmd.argv),
                                      stdin=first.stdout, **opts)
            procs.append(second)
            first.stdout.close()
            out, err = second.communicate(timeout=TIMEOUT_S)
            first.wait(timeout=TIMEOUT_S)
            return second.returncode, out, first.stderr.read() + err
        except subprocess.SubprocessError as err:
            return err
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                for stream in (proc.stdout, proc.stderr):
                    if stream is not None:
                        stream.close()

    @staticmethod
    def run_in_process(cmd):
        """The same command through cli.main with stdio redirected."""
        def main(argv, stdin_text):
            out, err = io.StringIO(), io.StringIO()
            saved, sys.stdin = sys.stdin, io.StringIO(stdin_text or "")
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(list(argv))
            finally:
                sys.stdin = saved
            return code, out.getvalue(), err.getvalue()
        try:
            stdin_text, err = cmd.stdin, ""
            if cmd.feed is not None:
                _, stdin_text, err = main(cmd.feed, None)
            code, out, more = main(cmd.argv, stdin_text)
            return code, out, err + more
        except Exception as err:  # scored as a failed item
            return err

    @staticmethod
    def check(cmd, outcome):
        if isinstance(outcome, Exception):
            return "failed"
        code, out, err = outcome
        if "Traceback" in err:
            return "failed"
        good = (code == cmd.code
                and (cmd.stdout is None or out == cmd.stdout)
                and all(line in out for line in cmd.contains)
                and (code != 2 or "error:" in err))
        return "ok" if good else "wrong"

    def traced_round(self, tracer, verdicts):
        tracer.reset()
        svg_bytes = 0
        with tracer.installed():
            start = perf_counter()
            for request, cmd in enumerate(self.items):
                tracer.request = request
                outcome = self.run_in_process(cmd)
                verdicts[self.check(cmd, outcome)] += 1
                if cmd.argv[0] == "render" and not isinstance(outcome, Exception):
                    svg_bytes += len(outcome[1].encode("utf-8"))
            traced_s = perf_counter() - start
        start = perf_counter()
        for cmd in self.items:
            verdicts[self.check(cmd, self.run_in_process(cmd))] += 1
        out = tracer.layer_metrics()
        out["render.svg_bytes"] = svg_bytes
        out["trace.overhead_ratio"] = traced_s / (perf_counter() - start)
        return out


WORKLOADS = {"family": Family, "soup": Soup, "cli": Cli}


def _defects_present(workload):
    """Names of the workload's known-defect probes that still fail; each
    runs once, outside the measured mix, and none counts as attempted."""
    return [name for name, item in workload.known_defects.items()
            if workload.check(item, workload.run(item)) != "ok"]


def _defect_line(workload, present):
    return (f"known defects, probed outside the measured mix: {len(present)} "
            f"of {len(workload.known_defects)} still present"
            + "".join(f"; {name}: FAILS" for name in present))


def _timed(task):
    start = perf_counter()
    task()
    return start, perf_counter() - start


def _measure(workload, seconds):
    """Items in order, cycling, until seconds have passed and every item
    has run once, with reference samples in between.  Returns raw and
    scaled item seconds, the verdicts and the reference samples."""
    items, runs, refs, verdicts = workload.items, [], [], Counter()
    start = perf_counter()
    while len(runs) < len(items) or perf_counter() - start < seconds:
        if not refs or perf_counter() - refs[-1][0] >= REF_EVERY_S:
            refs.append(_timed(workload.reference))
        item = items[len(runs) % len(items)]
        begin = perf_counter()
        outcome = workload.run(item)
        runs.append((begin, perf_counter() - begin))
        verdicts[workload.check(item, outcome)] += 1
    refs.append(_timed(workload.reference))
    starts = [t for t, _ in refs]
    scaled = []
    for begin, seconds_taken in runs:
        i = bisect.bisect(starts, begin)    # refs[i-1] before, refs[i] after
        local = (refs[i - 1][1] + refs[i][1]) / 2
        scaled.append(seconds_taken * workload.nominal_s / local)
    return [d for _, d in runs], scaled, verdicts, [d for _, d in refs]


def _p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def run(name, root: Path, seed: int, seconds: float, trace: bool,
        small: bool = False):
    """Measure one workload; returns (result object, report lines)."""
    if trace:
        return _traced(name, root, seed, seconds, small)
    setup_raw, setup = setup_seconds(root)
    workload = WORKLOADS[name](root, seed, small)
    workload.warm_up()
    raw, scaled, verdicts, refs = _measure(workload, seconds)
    values = {
        "setup_s": statistics.median(setup),
        "item_ms_p50": statistics.median(scaled) * 1000,
        "items_per_s": len(scaled) / sum(scaled),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    n = len(raw)
    notes = {
        "setup_s": f"median of {SPAWNS} fresh `{IMPORT}`; raw "
                   f"{statistics.median(setup_raw):.4f} s",
        "item_ms_p50": f"{n} samples; raw {statistics.median(raw) * 1000:.6g} ms",
        "items_per_s": f"raw {n / sum(raw):.6g} 1/s",
    }
    # The tail is reported but not bounded: see README.md.
    lines = [f"times scaled to nominal speed: reference median "
             f"{statistics.median(refs) * 1000:.3f} ms over {len(refs)} "
             f"samples, nominal {workload.nominal_s * 1000:.0f} ms",
             f"  {'(item_ms_p90)':<40} {_p90(scaled) * 1000:>14.6g} ms     "
             f"{n} samples; raw {_p90(raw) * 1000:.6g} ms"]
    if workload.known_defects:
        lines.append(_defect_line(workload, _defects_present(workload)))
    result, report = _result(name, seed, verdicts, END_TO_END, values, notes)
    return result, report[:1] + lines + report[1:]


def _traced(name, root, seed, seconds, small):
    workload = WORKLOADS[name](root, seed, small)
    workload.warm_up()
    tracer, rounds, verdicts = spans.Tracer(), [], Counter()
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        rounds.append(workload.traced_round(tracer, verdicts))
    tracer.write(Path(__file__).resolve().parent / "traces"
                 / f"{name}-seed{seed}.tsv")
    # Counts repeat exactly from round to round; keep them whole numbers.
    values = {key: (statistics.median_low if isinstance(rounds[0][key], int)
                    else statistics.median)(r[key] for r in rounds)
              for key in rounds[0]}
    values["cli.interpreter_s"] = statistics.median(
        t for t, _ in spawn(root, "pass"))
    values["cli.import_s"] = statistics.median(
        float(out) for _, out in spawn(root, TIMED_IMPORT))
    notes = {key: f"median of {len(rounds)} traced rounds" for key in values}
    notes["cli.interpreter_s"] = f"median of {SPAWNS} fresh `python -c pass`"
    notes["cli.import_s"] = f"median of {SPAWNS} fresh interpreters"
    if workload.known_defects:
        present = _defects_present(workload)
        values["cli.known_defects"] = len(present)
        notes["cli.known_defects"] = _defect_line(workload, present)
    for key, _ in PER_LAYER:
        if key not in values:
            values[key] = 0
            notes[key] = "not exercised by this workload"
    return _result(name, seed, verdicts, PER_LAYER, values, notes)


def _result(name, seed, verdicts, metrics, values, notes):
    attempted = sum(verdicts.values())
    failed = attempted - verdicts["ok"]
    lines = [f"{name} seed={seed}: attempted {attempted}, failed {failed} "
             f"(fail_ratio {failed / attempted:.4f}), wrong answers "
             f"{verdicts['wrong']}"]
    lines += [f"  {key:<40} {values[key]:>14.6g} {unit:<6} {notes.get(key, '')}"
              for key, unit in metrics]
    result = {"correct": verdicts["wrong"] == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {key: {"value": values[key], "unit": unit}
                          for key, unit in metrics}}
    return result, lines
