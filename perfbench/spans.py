"""Per-layer spans and counters, recorded from outside the ``revccs`` package.

``Tracer.install`` replaces the public functions of each layer, under every
name a ``revccs`` module binds them to, with wrappers that time them while
``enabled`` is set.  A span is (name, start, end, parent index); self time is
a span's duration minus the time its child spans cover.  Recursive calls of a
function already open count as calls but belong to the outer span.  The two
leaves called per triple or per configuration (``ConfStruct.extensions`` and
``causal_order``) are timed and counted without a span record, which would
cost memory per call.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, function, kind): "span" records a span, "leaf" only times it.
LAYERS = (
    ("cli", "main", "span"),
    ("syntax", "parse", "span"),
    ("syntax", "collapse", "span"),
    ("encoding", "encode_ccs", "span"),
    ("confstruct", "parallel", "span"),
    ("confstruct", "causal_order", "leaf"),
    ("equivalences", "hhpb", "span"),
    ("equivalences", "build_stratification", "span"),
    ("equivalences", "barbed_bf_bisim_terms", "span"),
    ("equivalences", "barbed_bf_bisim_structs", "span"),
    ("equivalences", "forward_strong_bisim", "span"),
    ("equivalences", "synthesize_context", "span"),
    ("rccs", "reachable_states", "span"),
)

# per-layer timings, as "<layer>.<field>" with field "s" (total time),
# "self_s" or "calls"
TIMED = (
    "cli.main.self_s", "syntax.parse.s", "syntax.collapse.s",
    "encoding.encode_ccs.s", "encoding.encode_ccs.calls",
    "confstruct.parallel.s", "confstruct.causal_order.s",
    "confstruct.causal_order.calls", "confstruct.extensions.s",
    "confstruct.extensions.calls", "equivalences.hhpb.self_s",
    "equivalences.build_stratification.s",
    "equivalences.barbed_bf_bisim_terms.self_s",
    "equivalences.forward_strong_bisim.s",
    "equivalences.synthesize_context.self_s",
    "equivalences.barbed_bf_bisim_structs.s",
    "equivalences.barbed_bf_bisim_structs.calls", "rccs.reachable_states.s",
)
COUNTED = ("confstruct.configs", "equivalences.synthesize_context.candidates",
           "rccs.states", "rccs.edges")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list = []          # [name, start, end, parent index]
        self.stack: list = []          # open frames: [child seconds, span index]
        self.open: Counter = Counter()
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # calls, s, self_s
        self.counts: Counter = Counter()
        self._encode = None

    def wrap(self, name, fn, record=True, before=None, after=None):
        totals = self.totals[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            totals[0] += 1
            if self.open[name]:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args)
            index = -1
            if record:
                index = len(self.spans)
                parent = self.stack[-1][1] if self.stack else -1
                self.spans.append([name, 0.0, 0.0, parent])
            frame = [0.0, index]
            self.stack.append(frame)
            self.open[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.open[name] -= 1
                self.stack.pop()
                duration = end - start
                totals[1] += duration
                totals[2] += duration - frame[0]
                if self.stack:
                    self.stack[-1][0] += duration
                if record:
                    self.spans[index][1:3] = [start, end]
            if after is not None:
                after(result)
            return result
        return wrapper

    def install(self) -> "Tracer":
        """Wrap every layer function under each name ``revccs`` binds it to."""
        from revccs import confstruct, encoding

        def count_configs(c1, c2, *_):
            self.counts["confstruct.configs"] += len(c1.configs) + len(c2.configs)

        def count_candidate(c1, c2, *_):
            count_configs(c1, c2)
            if self.open["equivalences.synthesize_context"]:
                self.counts["equivalences.synthesize_context.candidates"] += 1

        def count_graph(graph):
            self.counts["rccs.states"] += len(graph.nodes)
            self.counts["rccs.edges"] += len(graph.edges)

        hooks = {"hhpb": {"before": count_configs},
                 "barbed_bf_bisim_structs": {"before": count_candidate},
                 "reachable_states": {"after": count_graph}}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "revccs" or n.startswith("revccs."))]
        for mod_name, fn_name, kind in LAYERS:
            # a layer function the program no longer has reports zeros
            original = getattr(sys.modules.get(f"revccs.{mod_name}"), fn_name, None)
            if original is None:
                continue
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original,
                                record=kind == "span", **hooks.get(fn_name, {}))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        if hasattr(confstruct.ConfStruct, "extensions"):
            confstruct.ConfStruct.extensions = self.wrap(
                "confstruct.extensions", confstruct.ConfStruct.extensions,
                record=False)
        self._encode = getattr(encoding.encode_ccs, "__wrapped__", None)
        return self

    def metrics(self) -> dict:
        """The per-layer metrics of everything recorded so far."""
        out = {}
        for metric in TIMED:
            layer, field = metric.rsplit(".", 1)
            calls, seconds, self_s = self.totals[layer]
            out[metric] = {"s": seconds, "self_s": self_s, "calls": calls}[field]
        for metric in COUNTED:
            out[metric] = self.counts[metric]
        info = getattr(self._encode, "cache_info", None)
        ratio = 0.0
        if info is not None:
            hits, misses = info().hits, info().misses
            ratio = hits / (hits + misses) if hits + misses else 0.0
        out["encoding.encode_ccs.hit_ratio"] = ratio
        return out

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
