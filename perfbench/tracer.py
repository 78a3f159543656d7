"""Span tracer that wraps schurpos's public functions from outside the package.

Each traced function is replaced, on every schurpos module attribute that
holds it, by a wrapper. A span wrapper records (name, start, end, parent,
op) in memory and accumulates calls and self time, which is the span's
duration minus the time its child spans cover. A count wrapper only counts
calls, for functions called millions of times; their time stays in the
caller's self time. Nothing inside the package is changed.
"""

from __future__ import annotations

import json
import sys
import time
from collections.abc import Callable

SPAN, COUNT = "span", "count"

# (module, function, kind, modules whose binding is wrapped; None = all).
# as_partition is counted only where lr and diagrams look it up, so that
# validation inside partitions' own helpers is left out.
TRACED = (
    ("lr", "expand", SPAN, None),
    ("lr", "compare_vectors", SPAN, None),
    ("partitions", "as_partition", COUNT, ("lr", "diagrams")),
    ("diagrams", "ribbon_of", COUNT, None),
    ("diagrams", "enumerate_basic_skew", SPAN, None),
    ("poset", "build_poset", SPAN, None),
    ("poset", "compare_diagrams", SPAN, None),
    ("poset", "necessary_filter", SPAN, None),
    ("poset", "check_graded", SPAN, None),
    ("poset", "check_join_semilattice", SPAN, None),
    ("lattice", "leq_s_closed", SPAN, None),
    ("lattice", "meet", SPAN, None),
    ("lattice", "join", SPAN, None),
    ("lattice", "chain_rank", COUNT, None),
    ("lattice", "trim_report", SPAN, None),
    ("lattice", "covers", SPAN, None),
    ("lattice", "verify_fourcovers", SPAN, None),
    ("lattice", "verify_onlycovers", SPAN, None),
    ("lattice", "verify_bigdiff", SPAN, None),
    ("lattice", "verify_mflemma", SPAN, None),
    ("cli", "main", SPAN, None),
)

LAYERS = ("partitions", "diagrams", "lr", "poset", "lattice", "cli")
LABEL_OPS = ("lattice.leq_s_closed", "lattice.meet", "lattice.join")
VERIFY = tuple(f"lattice.{f}" for _, f, _, _ in TRACED if f.startswith("verify_"))

# Per-layer metrics and units, in report order; trace.overhead_s is added by
# the parent, which also times untraced samples.
METRICS = (
    ("lr.expand.calls", "count"),
    ("lr.expand.distinct_shapes", "count"),
    ("lr.expand.self_s", "s"),
    ("lr.fillings", "count"),
    ("lr.fillings_per_s", "1/s"),
    ("lr.compare_vectors.calls", "count"),
    ("lr.compare_vectors.self_s", "s"),
    ("partitions.as_partition.calls", "count"),
    ("poset.build_poset.calls", "count"),
    ("poset.build_poset.self_s", "s"),
    ("poset.classes", "count"),
    ("poset.hasse_edges", "count"),
    ("poset.compare_diagrams.calls", "count"),
    ("poset.compare_diagrams.self_s", "s"),
    ("poset.necessary_filter.calls", "count"),
    ("poset.necessary_filter.self_s", "s"),
    ("poset.filter_decided_ratio", "ratio"),
    ("poset.check_graded.self_s", "s"),
    ("poset.check_join_semilattice.self_s", "s"),
    ("diagrams.ribbon_of.calls", "count"),
    ("diagrams.enumerate_basic_skew.self_s", "s"),
    ("lattice.leq_s_closed.calls", "count"),
    ("lattice.meet.calls", "count"),
    ("lattice.join.calls", "count"),
    ("lattice.chain_rank.calls", "count"),
    ("lattice.label_ops.self_s", "s"),
    ("lattice.trim_report.self_s", "s"),
    ("lattice.covers.self_s", "s"),
    ("lattice.verify.instances", "count"),
    ("lattice.verify.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "B"),
    ("trace.wall_s", "s"),
    ("trace.uncovered_s", "s"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.missing: list[str] = []
        self.op = -1
        self.shapes: set = set()
        self.fillings = 0
        self.classes = 0
        self.hasse_edges = 0
        self.instances = 0
        self._stack: list[int] = []
        self._child: list[float] = []

    def install(self) -> None:
        """Rebind every traced function on the schurpos modules callers read."""
        modules = {
            name.rpartition(".")[2]: module
            for name, module in list(sys.modules.items())
            if name == "schurpos" or name.startswith("schurpos.")
        }
        observers = {
            "lr.expand": self._observe_expand,
            "poset.build_poset": self._observe_poset,
            **{name: self._observe_verify for name in VERIFY},
        }
        for home, func, kind, only in TRACED:
            name = f"{home}.{func}"
            original = getattr(modules.get(home), func, None)
            self.calls[name] = 0
            self.self_s[name] = 0.0
            if original is None:
                self.missing.append(name)
                continue
            if kind == SPAN:
                wrapper = self._span(name, original, observers.get(name))
            else:
                wrapper = self._count(name, original)
            for key, module in modules.items():
                if only is not None and key not in only:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _span(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        spans, stack, child = self.spans, self._stack, self._child
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                inner = child.pop()
                duration = end - start
                if child:
                    child[-1] += duration
                spans[index] = (nid, start, end, parent, self.op)
                calls[name] += 1
                self_s[name] += duration - inner
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_expand(self, args: tuple, vec) -> None:
        diagram = args[0]
        self.shapes.add((diagram.outer, diagram.inner))
        self.fillings += sum(c for _, c in vec.items())

    def _observe_poset(self, args: tuple, model) -> None:
        self.classes += len(model.classes)
        self.hasse_edges += len(model.hasse)

    def _observe_verify(self, args: tuple, report) -> None:
        self.instances += report.checked

    def layer_totals(self) -> dict[str, list]:
        """[self time, traced calls] of each layer."""
        totals = {layer: [0.0, 0] for layer in LAYERS}
        for name, value in self.self_s.items():
            layer = totals[name.partition(".")[0]]
            layer[0] += value
            layer[1] += self.calls[name]
        return totals

    def metrics(self, wall_s: float, output_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the traced section that took wall_s."""
        c, s = self.calls, self.self_s
        nid = {name: i for i, name in enumerate(self.names)}
        expanded = {span[3] for span in self.spans if span[0] == nid.get("lr.expand")}
        compares = [
            i for i, span in enumerate(self.spans) if span[0] == nid.get("poset.compare_diagrams")
        ]
        decided = sum(1 for i in compares if i not in expanded)
        values = {
            "lr.expand.calls": c["lr.expand"],
            "lr.expand.distinct_shapes": len(self.shapes),
            "lr.expand.self_s": s["lr.expand"],
            "lr.fillings": self.fillings,
            "lr.fillings_per_s": self.fillings / s["lr.expand"] if s["lr.expand"] else 0.0,
            "lr.compare_vectors.calls": c["lr.compare_vectors"],
            "lr.compare_vectors.self_s": s["lr.compare_vectors"],
            "partitions.as_partition.calls": c["partitions.as_partition"],
            "poset.build_poset.calls": c["poset.build_poset"],
            "poset.build_poset.self_s": s["poset.build_poset"],
            "poset.classes": self.classes,
            "poset.hasse_edges": self.hasse_edges,
            "poset.compare_diagrams.calls": c["poset.compare_diagrams"],
            "poset.compare_diagrams.self_s": s["poset.compare_diagrams"],
            "poset.necessary_filter.calls": c["poset.necessary_filter"],
            "poset.necessary_filter.self_s": s["poset.necessary_filter"],
            "poset.filter_decided_ratio": decided / len(compares) if compares else 0.0,
            "poset.check_graded.self_s": s["poset.check_graded"],
            "poset.check_join_semilattice.self_s": s["poset.check_join_semilattice"],
            "diagrams.ribbon_of.calls": c["diagrams.ribbon_of"],
            "diagrams.enumerate_basic_skew.self_s": s["diagrams.enumerate_basic_skew"],
            "lattice.leq_s_closed.calls": c["lattice.leq_s_closed"],
            "lattice.meet.calls": c["lattice.meet"],
            "lattice.join.calls": c["lattice.join"],
            "lattice.chain_rank.calls": c["lattice.chain_rank"],
            "lattice.label_ops.self_s": sum(s[name] for name in LABEL_OPS),
            "lattice.trim_report.self_s": s["lattice.trim_report"],
            "lattice.covers.self_s": s["lattice.covers"],
            "lattice.verify.instances": self.instances,
            "lattice.verify.self_s": sum(s[name] for name in VERIFY),
            "cli.main.calls": c["cli.main"],
            "cli.main.self_s": s["cli.main"],
            "cli.output_bytes": output_bytes,
            "trace.wall_s": wall_s,
            "trace.uncovered_s": wall_s - sum(s.values()),
        }
        return values

    def dump(self, path: str, origin: float) -> None:
        """Write the spans as JSON, times in seconds from origin."""
        rows = [
            [nid, round(start - origin, 7), round(end - origin, 7), parent, op]
            for nid, start, end, parent, op in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(
                {"names": self.names, "fields": ["name", "start", "end", "parent", "op"], "spans": rows},
                fh,
                separators=(",", ":"),
            )
