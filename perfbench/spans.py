"""Span tracing of the starurd layers, from outside the package.

`install` wraps every public function of each layer module in a span and
rebinds each wrapped name wherever a caller looks it up (for example
`starurd.assembler.matching_aurd` and `starurd.cli.construct`), so the
package runs unchanged apart from the wrappers.  A span records its name,
start, end and parent; counters are taken from arguments and results at the
same boundaries.  The model module is not wrapped: its constructors run
per edge, and a span per edge would swamp the work it measures.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = (
    "seeds",
    "blowup",
    "aurd",
    "filling",
    "assembler",
    "admissibility",
    "verifier",
    "serialize",
    "search",
    "cli",
)
# Classes whose construction is the blow-up layer's work.
BLOWUP_CLASSES = ("WeightedCycle", "WeightedOneFactor")


def _class_edges(cls) -> int:
    if cls.kind == "one_factor":
        return len(cls.blocks)
    return sum(len(getattr(block, "leaves", ())) for block in cls.blocks)


def _count_edges(key: str):
    def count(counts, args, result):
        counts[key] += sum(_class_edges(cls) for cls in result.classes)

    return count


def _count_verify(counts, args, result):
    counts["verifier.edges"] += sum(_class_edges(cls) for cls in args[0].classes)
    counts["verifier.violations"] += len(result.violations)


def _count_search(counts, args, result):
    counts["search.nodes"] += result.nodes_explored
    counts["search.budget_hits"] += result.status == "BUDGET_EXCEEDED"


# Counters taken at a span's boundary, keyed by span name.
COUNTERS = {
    "aurd.matching_aurd": _count_edges("aurd.edges"),
    "aurd.star_aurd": _count_edges("aurd.edges"),
    "aurd.weighted_one_factor_aurd": _count_edges("aurd.edges"),
    "filling.fill_odd": _count_edges("filling.edges"),
    "filling.fill_even": _count_edges("filling.edges"),
    "verifier.verify": _count_verify,
    "serialize.dumps": lambda c, a, r: c.update({"serialize.dumps_bytes": len(r)}),
    "serialize.loads": lambda c, a, r: c.update({"serialize.loads_bytes": len(a[0])}),
    "search.exhaustive_urd": _count_search,
}


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions and rebind them at every call site."""
    modules = [importlib.import_module(f"starurd.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, module in zip(LAYERS, modules):
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                wrappers[id(obj)] = tracer.wrap(f"{layer}.{attr}", obj)
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])

    blowup = modules[LAYERS.index("blowup")]
    classes = {id(getattr(blowup, name)): getattr(blowup, name) for name in BLOWUP_CLASSES}
    for cls in classes.values():
        cls.vertices = tracer.wrap("blowup.vertices", cls.vertices)
    for module in modules:
        if module is blowup:
            continue  # blowup's own isinstance checks need the real classes
        for attr, obj in list(vars(module).items()):
            if id(obj) in classes:
                setattr(module, attr, tracer.wrap(f"blowup.{attr}", obj))


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        clipped = sorted((max(spans[c][1], start), min(spans[c][2], end)) for c in children[index])
        for lo, hi in clipped:
            if hi > reach:
                covered += hi - max(lo, reach)
                reach = hi
        out.append(end - start - covered)
    return out


# Span name -> the per-layer time metric its self time adds to.
SELF_METRIC = {
    "aurd.matching_aurd": "aurd.matching_s",
    "aurd.star_aurd": "aurd.star_s",
    "aurd.weighted_one_factor_aurd": "aurd.bd_s",
    "serialize.dumps": "serialize.dumps_s",
    "serialize.to_dict": "serialize.dumps_s",
    "serialize.to_text": "serialize.dumps_s",
    "serialize.loads": "serialize.loads_s",
    "serialize.from_dict": "serialize.loads_s",
}
# Every other span adds to its layer's metric.
LAYER_METRIC = {
    "seeds": "seeds.time_s",
    "blowup": "blowup.time_s",
    "aurd": "aurd.other_s",
    "filling": "filling.time_s",
    "assembler": "assembler.self_s",
    "admissibility": "admissibility.time_s",
    "verifier": "verifier.time_s",
    "serialize": "serialize.other_s",
    "search": "search.time_s",
    "cli": "cli.self_s",
}
TIME_METRICS = sorted(set(SELF_METRIC.values()) | set(LAYER_METRIC.values()))


def unit(metric: str) -> str:
    """The unit of a per-layer metric, read from its name."""
    for suffix, name in (("_mb_per_s", "MB/s"), ("_per_s", "1/s"), ("us_per_edge", "us"),
                         ("_share", "share"), ("bytes", "B"), ("_s", "s")):
        if metric.endswith(suffix):
            return name
    return "count"


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(traced: list[dict], plain: list[dict], process_walls: list[float]) -> dict:
    """Per-layer metrics of one pass.

    traced and plain hold one shim record per operation, from the traced
    and the untraced pass of the same operations; process_walls are the
    untraced pass's process wall times.
    """
    out = dict.fromkeys(TIME_METRICS, 0.0)
    counts: Counter = Counter()
    construct_s = 0.0
    for record in traced:
        spans = record["spans"]
        counts.update(record["counts"])
        for span, self_s in zip(spans, self_times(spans)):
            name = span[0]
            out[SELF_METRIC.get(name) or LAYER_METRIC[name.split(".")[0]]] += self_s
            parent = span[3]
            if name.startswith("assembler.") and not (parent >= 0 and spans[parent][0].startswith("assembler.")):
                construct_s += span[2] - span[1]

    aurd_s = sum(out[name] for name in TIME_METRICS if name.startswith("aurd."))
    traced_s = sum(record["main_s"] for record in traced)
    plain_s = sum(record["main_s"] for record in plain)
    gc = [sum(record["gc"][gen] for record in plain) for gen in range(3)]
    dumps_mb = counts["serialize.dumps_bytes"] / 1e6
    loads_mb = counts["serialize.loads_bytes"] / 1e6
    out.update(
        {
            "aurd.edges": counts["aurd.edges"],
            "aurd.us_per_edge": _rate(aurd_s * 1e6, counts["aurd.edges"]),
            "filling.edges": counts["filling.edges"],
            "assembler.construct_s": construct_s,
            "verifier.edges": counts["verifier.edges"],
            "verifier.us_per_edge": _rate(out["verifier.time_s"] * 1e6, counts["verifier.edges"]),
            "verifier.violations": counts["verifier.violations"],
            "serialize.bytes": counts["serialize.dumps_bytes"] + counts["serialize.loads_bytes"],
            "serialize.dumps_mb_per_s": _rate(dumps_mb, out["serialize.dumps_s"]),
            "serialize.loads_mb_per_s": _rate(loads_mb, out["serialize.loads_s"]),
            "search.nodes": counts["search.nodes"],
            "search.nodes_per_s": _rate(counts["search.nodes"], out["search.time_s"]),
            "search.budget_hits": counts["search.budget_hits"],
            "model.gc_gen0": gc[0],
            "model.gc_gen1": gc[1],
            "model.gc_gen2": gc[2],
            "model.gc_collections": sum(gc),
            "cli.import_s": sum(record["import_s"] for record in plain),
            "cli.overhead_s": sum(process_walls) - plain_s,
            "trace.plain_s": plain_s,
            "trace.traced_s": traced_s,
            "trace.overhead_s": traced_s - plain_s,
            "trace.accounted_share": _rate(sum(out[name] for name in TIME_METRICS), traced_s),
        }
    )
    return out
