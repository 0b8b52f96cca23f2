"""Spans around the library's public entry points, recorded from outside.

`Tracer.install` swaps each traced function for a wrapper wherever a
`collsched` module binds it, and wraps the `FlowGraph` constructors and
runs on the class; `remove` puts the originals back.  Spans stay in
memory and are written out when the run ends.  A layer's self time is its
span time minus the max-flow runs under it.
"""

from __future__ import annotations

import json
import sys
import time

# Span name of each traced function.  Reversal and allreduce combination
# count as assembly: they build the delivered schedule from the assembled
# allgather, and allgather-only workloads never call them.
SPAN_OF = {
    "bottleneck_search": "optimality",
    "fixed_k_search": "optimality",
    "remove_switches": "splitting",
    "pack_spanning_trees": "packing",
    "assemble_allgather": "schedule.assemble",
    "reverse_for_reduce_scatter": "schedule.assemble",
    "combine_allreduce": "schedule.assemble",
    "prune_multicast": "schedule.prune",
    "prune_aggregation": "schedule.prune",
    "export": "schedule.export",
    "validate_schedule": "verify",
    "parse_topology": "topology.parse",
    "scale_capacities": "topology.scale",
    "generate": "pipeline",
}
FLOW_METHODS = ("run", "run_keep", "resume")
SOLVER_LAYERS = ("optimality", "splitting", "packing")

# name -> (unit, better) for every per-layer metric.
PER_LAYER = {
    "optimality.search_s": ("s", "lower"),
    "optimality.self_s": ("s", "lower"),
    "optimality.probes": ("count", "lower"),
    "optimality.flows": ("count", "lower"),
    "splitting.split_s": ("s", "lower"),
    "splitting.self_s": ("s", "lower"),
    "splitting.flows": ("count", "lower"),
    "splitting.builds": ("count", "lower"),
    "splitting.logical_arcs": ("count", "lower"),
    "splitting.emap_entries": ("count", "lower"),
    "packing.pack_s": ("s", "lower"),
    "packing.self_s": ("s", "lower"),
    "packing.flows": ("count", "lower"),
    "packing.builds": ("count", "lower"),
    "packing.mu_evals": ("count", "lower"),
    "packing.batches": ("count", "lower"),
    "maxflow.flows": ("count", "lower"),
    "maxflow.builds": ("count", "lower"),
    "maxflow.flow_s": ("s", "lower"),
    "maxflow.us_per_flow": ("us", "lower"),
    "maxflow.flows_per_build": ("flows/build", "higher"),
    "schedule.assemble_s": ("s", "lower"),
    "schedule.prune_s": ("s", "lower"),
    "schedule.export_s": ("s", "lower"),
    "schedule.paths": ("count", "lower"),
    "verify.validate_s": ("s", "lower"),
    "topology.parse_s": ("s", "lower"),
    "topology.scale_s": ("s", "lower"),
    "pipeline.generate_s": ("s", "lower"),
    "trace.overhead": ("share", "lower"),
}
COUNTERS = [name for name, (unit, _) in PER_LAYER.items() if unit == "count"]


def _counts(name: str, result) -> dict[str, int]:
    """Counters read off a traced call's return value."""
    if name in ("bottleneck_search", "fixed_k_search"):
        return {"probes": result.search_iterations}
    if name == "remove_switches":
        logical, emap = result
        return {
            "logical_arcs": len(logical.capacity),
            "emap_entries": sum(len(routes) for routes in emap.entries.values()),
        }
    if name == "pack_spanning_trees":
        return {"mu_evals": result.mu_evaluations, "batches": len(result.batches)}
    if name == "assemble_allgather":
        return {
            "paths": sum(len(e.paths) for rt in result.roots for b in rt.batches for e in b.edges)
        }
    return {}


class Tracer:
    """Records spans as [name, op, parent, start, end, counts, nested].

    `op` is the index of the op being compiled, set by the runner, so all
    spans of one op share it.  `nested` marks a span inside another of the
    same name (validate_schedule recursing into allreduce phases), which
    the totals skip.
    """

    def __init__(self, cs) -> None:
        self.cs = cs
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, counts=None):
        spans, stack, refusal = self.spans, self._stack, self.cs.NotEulerianAfterFloor

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            nested = any(spans[i][0] == name for i in stack)
            span = [name, self.op, parent, time.perf_counter(), None, None, nested]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except refusal as exc:
                # A refused fixed-k search still did its probes.
                if counts is not None and exc.result is not None:
                    span[5] = counts(exc.result)
                raise
            finally:
                stack.pop()
                span[4] = time.perf_counter()
            if counts is not None:
                span[5] = counts(result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "collsched" or n.startswith("collsched.")]
        for fname, span in SPAN_OF.items():
            original = getattr(self.cs, fname)
            wrapper = self._wrap(original, span, lambda r, f=fname: _counts(f, r))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)
        graph = self.cs.FlowGraph
        for method in FLOW_METHODS:
            self._set(graph, method, self._wrap(graph.__dict__[method], "maxflow.run"))
        self._set(graph, "__init__", self._wrap(graph.__dict__["__init__"], "maxflow.build"))
        from_arcs = graph.__dict__["from_arcs"].__func__
        self._set(graph, "from_arcs", classmethod(self._wrap(from_arcs, "maxflow.build")))

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _solver_layer(self, index: int) -> str | None:
        """Nearest optimality/splitting/packing span enclosing span `index`."""
        parent = self.spans[index][2]
        while parent is not None:
            if self.spans[parent][0] in SOLVER_LAYERS:
                return self.spans[parent][0]
            parent = self.spans[parent][2]
        return None

    def per_layer(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per pass over the workload's ops (all but
        trace.overhead, which needs the untraced run)."""
        busy: dict[str, float] = {}
        counts: dict[str, int] = {c: 0 for c in COUNTERS}
        flow_under: dict[str | None, float] = {}
        for i, (name, _, _, start, end, got, nested) in enumerate(self.spans):
            if nested:
                continue
            busy[name] = busy.get(name, 0.0) + (end - start)
            for key, value in (got or {}).items():
                layer = "schedule" if key == "paths" else name
                key = f"{layer}.{key}"
                counts[key] = counts.get(key, 0) + value
            if name.startswith("maxflow."):
                layer = self._solver_layer(i)
                kind = "flows" if name == "maxflow.run" else "builds"
                for key in (f"maxflow.{kind}", f"{layer}.{kind}"):
                    counts[key] = counts.get(key, 0) + 1
                if name == "maxflow.run":
                    flow_under[layer] = flow_under.get(layer, 0.0) + (end - start)
        flows, builds = counts["maxflow.flows"], counts["maxflow.builds"]
        flow_s = busy.get("maxflow.run", 0.0)
        out: dict[str, float] = {k: counts[k] / passes for k in COUNTERS}
        for layer, metric in (("optimality", "search_s"), ("splitting", "split_s"), ("packing", "pack_s")):
            out[f"{layer}.{metric}"] = busy.get(layer, 0.0) / passes
            out[f"{layer}.self_s"] = (busy.get(layer, 0.0) - flow_under.get(layer, 0.0)) / passes
        out.update({
            "maxflow.flow_s": flow_s / passes,
            "maxflow.us_per_flow": 1e6 * flow_s / flows if flows else 0.0,
            "maxflow.flows_per_build": flows / builds if builds else 0.0,
            "schedule.assemble_s": busy.get("schedule.assemble", 0.0) / passes,
            "schedule.prune_s": busy.get("schedule.prune", 0.0) / passes,
            "schedule.export_s": busy.get("schedule.export", 0.0) / passes,
            "verify.validate_s": busy.get("verify", 0.0) / passes,
            "topology.parse_s": busy.get("topology.parse", 0.0) / passes,
            "topology.scale_s": busy.get("topology.scale", 0.0) / passes,
            "pipeline.generate_s": busy.get("pipeline", 0.0) / passes,
        })
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, op, parent, start, end, got, nested) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": parent, "op": op, "name": name,
                    "start": round(start - origin, 9), "end": round(end - origin, 9),
                    **({"counts": got} if got else {}),
                }) + "\n")
