"""In-memory spans around troplag's public functions, for the traced run.

The benchmark wraps each function in TRACED wherever a troplag module
holds it (so `segment_contact` is seen both as imported into `tropical`
and into `diagram`), runs the work, and restores the originals.  A span
records its name, start, end, parent span and request; a function's self
time is its span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import importlib
import math
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

# (module, function) pairs; "Class.method" names a method.
TRACED = (
    ("textio", "parse_document"), ("textio", "serialize_document"),
    ("lattice", "segment_contact"), ("diagram", "BaseDiagram.contains"),
    ("tropical", "validate"), ("tropical", "check_balancing"),
    ("tropical", "vertex_multiplicity"), ("tropical", "end_multiplicity"),
    ("topology", "classify"), ("topology", "euler_breakdown"),
    ("topology", "build_presentation"), ("topology", "oracle_classify"),
    ("homology", "sweep_parity"), ("homology", "mod2_class"),
    ("homology", "pontryagin_square"),
    ("constructions", "trop_family"), ("constructions", "rp2_curve"),
    ("constructions", "visible_segment"),
    ("render", "render_document"), ("cli", "main"),
)
LAYERS = ("textio", "lattice", "diagram", "tropical", "topology", "homology",
          "constructions", "render", "cli")
NAMES = tuple(f"{module}.{function.split('.')[-1]}"
              for module, function in TRACED)


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []          # (span, parent, request, name, start, end)
        self.calls = Counter()
        self.self_ns = Counter()
        self.total_ns = Counter()
        self.errors = Counter()  # by layer
        self.contacts = 0        # segment_contact calls that found a contact
        self.request = 0
        self._stack = []         # [span id, ns covered by children]
        self._next = 0

    def _wrap(self, name, layer, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            span = tracer._next
            tracer._next += 1
            frame = [span, 0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer.calls[name] += 1
                tracer.total_ns[name] += duration
                tracer.self_ns[name] += duration - frame[1]
                tracer.spans.append((span, parent[0] if parent else -1,
                                     tracer.request, name, start, end))
            if name == "lattice.segment_contact" and result is not None:
                tracer.contacts += 1
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every TRACED function in every loaded troplag module for
        the duration of the block."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "troplag" or key.startswith("troplag.")]
        saved = []
        try:
            for (module, function), name in zip(TRACED, NAMES):
                owner = importlib.import_module(f"troplag.{module}")
                if "." in function:
                    cls_name, function = function.split(".")
                    owner = getattr(owner, cls_name)
                    holders = [owner]
                else:
                    holders = modules
                original = getattr(owner, function)
                wrapper = self._wrap(name, module, original)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            saved.append((holder, key, original))
                            setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, original in reversed(saved):
                setattr(holder, key, original)

    def layer_metrics(self) -> dict:
        """Per-layer numbers for the work traced since the last reset."""
        out = {}
        for name in NAMES:
            out[f"{name}_s"] = self.self_ns[name] / 1e9
            out[f"{name}_calls"] = self.calls[name]
        calls = self.calls["lattice.segment_contact"]
        out["tropical.contact_hit_ratio"] = self.contacts / calls if calls else 0.0
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tparent\trequest\tname\tstart_ns\tend_ns\n")
            for row in sorted(self.spans):
                handle.write("\t".join(map(str, row)) + "\n")


def slope(sizes, seconds) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))
