"""Physical collective schedules: assembly, reversal, pruning, serialization.

A schedule holds, per compute root, batches of identically-shaped spanning
trees (multiplicity = number of tree copies).  Each logical tree arc maps
to one or more physical node paths through removed switches; path
multiplicities partition the batch's copies in listed order, which is what
pruning and validation rely on to reason about individual copies.

Pruning never rewrites paths: elided hops are recorded separately as
(src, dst, multiplicity) annotations, keeping the original routing
reconstructible and making "usage after pruning <= before" a bookkeeping
identity rather than a recomputation.

A schedule describes itself: it carries the U, k, y, inv_x_star and
exactness it was built for, and validation checks it against those.  The
reversal and the BFS tree walk here are plain data transforms that the
validator shares; everything else it re-derives on its own.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial

from .errors import CollschedError, MismatchedForest
from .packing import Forest
from .splitting import EMap, PathExpander
from .topology import Topology, json_field, transpose

ALLGATHER = "allgather"
REDUCE_SCATTER = "reduce_scatter"
ALLREDUCE = "allreduce"


@dataclass(frozen=True)
class PathUse:
    """One physical route for part of a logical arc's tree copies."""

    path: tuple[str, ...]
    multiplicity: int


@dataclass(frozen=True)
class ScheduleEdge:
    src: str
    dst: str
    paths: tuple[PathUse, ...]


@dataclass(frozen=True)
class PrunedHop:
    """A physical hop elided for `multiplicity` tree copies."""

    src: str
    dst: str
    multiplicity: int


@dataclass(frozen=True)
class ScheduleBatch:
    multiplicity: int
    edges: tuple[ScheduleEdge, ...]
    pruned: tuple[PrunedHop, ...] = ()


@dataclass(frozen=True)
class RootTrees:
    root: str
    batches: tuple[ScheduleBatch, ...]


@dataclass(frozen=True)
class Schedule:
    collective: str
    num_compute: int
    k: int
    U: Fraction
    y: Fraction
    inv_x_star: Fraction
    roots: tuple[RootTrees, ...]
    phases: tuple["Schedule", ...] = ()
    # Whether the congestion bound inv_x_star/N is met with equality
    # (optimal pipeline) or only as an upper bound (fixed tree counts,
    # where capacity floors may leave slack).
    exact: bool = True


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def assemble_allgather(
    forest: Forest, emap: EMap, scaled: Topology, meta
) -> Schedule:
    """Expand every packed tree into physical paths and attach metadata.

    meta is an optimality result (unrestricted or fixed-k); its U, k, y,
    inv_x_star and exactness ride along in the schedule, which validation
    checks against.  Path expansion draws from one budget local to this
    call, so per-link usage stays within U*b_e by construction.
    """
    expander = PathExpander(emap, scaled)
    roots = []
    for root in forest.lt.compute_ids:
        batches = []
        for batch in forest.batches:
            if batch.root != root:
                continue
            if len(batch.members) != forest.lt.num_compute:
                raise CollschedError(f"batch rooted at {root} is incomplete")
            edges = tuple(
                ScheduleEdge(
                    src=u,
                    dst=v,
                    paths=tuple(
                        PathUse(path=p, multiplicity=m)
                        for p, m in expander.expand((u, v), batch.multiplicity)
                    ),
                )
                for u, v in batch.edges
            )
            batches.append(ScheduleBatch(multiplicity=batch.multiplicity, edges=edges))
        roots.append(RootTrees(root=root, batches=tuple(batches)))
    return Schedule(
        collective=ALLGATHER,
        num_compute=forest.lt.num_compute,
        k=meta.k,
        U=meta.U,
        y=meta.y,
        inv_x_star=meta.inv_x_star,
        roots=tuple(roots),
        exact=meta.exact,
    )


# ---------------------------------------------------------------------------
# Reversal and allreduce combination
# ---------------------------------------------------------------------------

def reverse_schedule(s: Schedule, collective: str) -> Schedule:
    """Every edge, physical path and pruned hop of s run backwards, relabelled
    as `collective`; the one reversal shared by generation and validation."""
    roots = tuple(
        RootTrees(
            root=rt.root,
            batches=tuple(
                ScheduleBatch(
                    multiplicity=b.multiplicity,
                    edges=tuple(
                        ScheduleEdge(
                            src=e.dst,
                            dst=e.src,
                            paths=tuple(
                                PathUse(tuple(reversed(p.path)), p.multiplicity)
                                for p in e.paths
                            ),
                        )
                        for e in b.edges
                    ),
                    pruned=tuple(
                        PrunedHop(h.dst, h.src, h.multiplicity) for h in b.pruned
                    ),
                )
                for b in rt.batches
            ),
        )
        for rt in s.roots
    )
    return replace(s, collective=collective, roots=roots)


def reverse_for_reduce_scatter(s: Schedule) -> Schedule:
    """Turn broadcast out-trees into aggregation in-trees: every edge and
    every physical path runs backwards, roots become sinks.  Usage of link
    (a, b) in the result equals the input's usage of (b, a), so on
    link-symmetric topologies the congestion time carries over unchanged.
    """
    if s.collective != ALLGATHER:
        raise CollschedError(f"can only reverse an allgather schedule, got {s.collective}")
    return reverse_schedule(s, REDUCE_SCATTER)


def combine_allreduce(rs: Schedule, ag: Schedule) -> Schedule:
    """Chain a reduce-scatter phase with an allgather phase.

    Both phases must come from the same packed forest (the reduce-scatter
    being the reversal of the allgather, pruning annotations aside); the
    combined time under the congestion model is the sum of the phases'.
    """
    if rs.collective != REDUCE_SCATTER:
        raise MismatchedForest(f"first phase must be reduce_scatter, got {rs.collective}")
    if ag.collective != ALLGATHER:
        raise MismatchedForest(f"second phase must be allgather, got {ag.collective}")
    meta_rs = (rs.num_compute, rs.k, rs.U, rs.y, rs.inv_x_star)
    meta_ag = (ag.num_compute, ag.k, ag.U, ag.y, ag.inv_x_star)
    if meta_rs != meta_ag:
        raise MismatchedForest(f"phase metadata disagrees: {meta_rs} vs {meta_ag}")

    def skeleton(sched: Schedule):
        return [
            (rt.root, [(b.multiplicity, b.edges) for b in rt.batches])
            for rt in sched.roots
        ]

    if skeleton(reverse_schedule(rs, ALLGATHER)) != skeleton(ag):
        raise MismatchedForest("phases do not reverse the same tree forest")
    return Schedule(
        collective=ALLREDUCE,
        num_compute=ag.num_compute,
        k=ag.k,
        U=ag.U,
        y=ag.y,
        inv_x_star=ag.inv_x_star,
        roots=(),
        phases=(rs, ag),
        exact=rs.exact and ag.exact,
    )


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------

def bfs_edges(root: str, batch: ScheduleBatch) -> list[ScheduleEdge] | None:
    """Batch edges in BFS order from the root, children in sorted order, or
    None when the edges do not form one tree reached from the root."""
    children: dict[str, list[str]] = {}
    by_pair: dict[tuple[str, str], ScheduleEdge] = {}
    for e in batch.edges:
        children.setdefault(e.src, []).append(e.dst)
        by_pair[(e.src, e.dst)] = e
    order: list[ScheduleEdge] = []
    seen = {root}
    queue = [root]
    for node in queue:  # the list grows under the loop: a FIFO with a head index
        for child in sorted(children.get(node, ())):
            if child in seen:
                return None
            seen.add(child)
            order.append(by_pair[(node, child)])
            queue.append(child)
    return order if len(order) == len(batch.edges) else None


def spans_cover(spans, lo: int, hi: int) -> bool:
    """True iff every tree copy in [lo, hi) lies in `spans`, a list of
    disjoint half-open copy intervals merged by `spans_add`."""
    return hi <= lo or any(a <= lo and hi <= b for a, b in spans)


def spans_add(spans, lo: int, hi: int) -> list[tuple[int, int]]:
    """`spans` plus the copies [lo, hi), merged with every interval they
    overlap or touch, so memory grows with paths, not with copies."""
    if hi <= lo:
        return spans
    kept = []
    for a, b in spans:
        if b < lo or hi < a:
            kept.append((a, b))
        else:
            lo, hi = min(a, lo), max(b, hi)
    kept.append((lo, hi))
    return kept


def _prune(s: Schedule, t: Topology) -> Schedule:
    capable = {node.id for node in t.nodes if node.multicast}
    if not capable:
        return s
    new_roots = []
    for rt in s.roots:
        new_batches = []
        for batch in rt.batches:
            pruned: list[PrunedHop] = []
            # copies of this batch that a capable switch has already carried
            charged: dict[str, list[tuple[int, int]]] = {}
            order = bfs_edges(rt.root, batch)
            if order is None:
                raise CollschedError(f"batch edges rooted at {rt.root} do not form a tree")
            for edge in order:
                hi = 0
                for pu in edge.paths:
                    lo, hi = hi, hi + pu.multiplicity
                    path = pu.path
                    cut = 0  # index to keep the path from
                    for idx in range(len(path) - 2, 0, -1):
                        w = path[idx]
                        if w in capable and spans_cover(charged.get(w, ()), lo, hi):
                            cut = idx
                            break
                    for hop_i in range(cut):
                        pruned.append(
                            PrunedHop(path[hop_i], path[hop_i + 1], pu.multiplicity)
                        )
                    for idx in range(max(cut, 1), len(path) - 1):
                        w = path[idx]
                        if w in capable:
                            charged[w] = spans_add(charged.get(w, []), lo, hi)
            new_batches.append(
                ScheduleBatch(
                    multiplicity=batch.multiplicity,
                    edges=batch.edges,
                    pruned=tuple(pruned),
                )
            )
        new_roots.append(RootTrees(root=rt.root, batches=tuple(new_batches)))
    return replace(s, roots=tuple(new_roots))


def prune_multicast(s: Schedule, t: Topology) -> Schedule:
    """Elide sends made redundant by switch multicast.

    Trees are walked in BFS order from the root (children sorted); once a
    tree copy's data has crossed a multicast-capable switch, later paths of
    the same copy entering that switch drop the hops before it — the switch
    fans out instead.  Only whole path entries are elided (a path's copies
    must all be covered); hops after the switch are kept, so delivery and
    the congestion bottleneck are untouched.
    """
    if s.collective != ALLGATHER:
        raise CollschedError(f"multicast pruning applies to allgather, got {s.collective}")
    return _prune(s, t)


def prune_aggregation(s: Schedule, t: Topology) -> Schedule:
    """Mirror of `prune_multicast` for reduce-scatter: s run backwards is
    an allgather on `transpose(t)`, whose multicast switches are t's
    aggregating ones; that view is pruned and reversed again."""
    if s.collective != REDUCE_SCATTER:
        raise CollschedError(
            f"aggregation pruning applies to reduce_scatter, got {s.collective}"
        )
    pruned = _prune(reverse_schedule(s, ALLGATHER), transpose(t))
    return reverse_schedule(pruned, REDUCE_SCATTER)


# ---------------------------------------------------------------------------
# Usage accounting (shared by exports and verify.congestion_time; the
# validator recomputes its own)
# ---------------------------------------------------------------------------

def _usage(batches) -> dict[tuple[str, str], int]:
    usage: dict[tuple[str, str], int] = {}
    for batch in batches:
        for edge in batch.edges:
            for pu in edge.paths:
                for a, b in zip(pu.path, pu.path[1:]):
                    usage[(a, b)] = usage.get((a, b), 0) + pu.multiplicity
        for hop in batch.pruned:
            usage[(hop.src, hop.dst)] = usage.get((hop.src, hop.dst), 0) - hop.multiplicity
    return usage


def link_usage(s: Schedule) -> dict[tuple[str, str], int]:
    """Tree-copy units carried per physical link, pruning applied."""
    if s.collective == ALLREDUCE:
        raise CollschedError("allreduce phases must be accounted separately")
    usage = _usage(b for rt in s.roots for b in rt.batches)
    return {pair: units for pair, units in usage.items() if units != 0}


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def fraction_text(f) -> str:
    """The canonical 'p/q' text of a rational (integers included)."""
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


_field = partial(json_field, error=CollschedError)


def _parse_frac(doc: dict, key: str) -> Fraction:
    """doc[key] as `fraction_text` writes it: ASCII digits, an optional
    leading minus, one slash.  `int` alone would also take signs,
    underscores, spaces and non-ASCII digits."""
    text = _field(doc, key, str)
    num, _, den = text.partition("/")
    if re.fullmatch(r"-?[0-9]+/[0-9]+", text) and int(den):
        return Fraction(int(num), int(den))
    raise CollschedError(f"{key!r} must be a 'p/q' rational, got {text!r}")


def _node_path(doc: dict) -> tuple[str, ...]:
    path = _field(doc, "path", list)
    if not all(isinstance(v, str) for v in path):
        raise CollschedError(f"path {path!r} must list node ids")
    return tuple(path)


def _schedule_dict(s: Schedule) -> dict:
    doc = {
        "collective": s.collective,
        "num_compute_nodes": s.num_compute,
        "trees_per_root": s.k,
        "optimal_inv_x": fraction_text(s.inv_x_star),
        "tree_bandwidth": fraction_text(s.y),
        "scale_U": fraction_text(s.U),
        "exact_bound": s.exact,
    }
    if s.collective == ALLREDUCE:
        doc["phases"] = [_schedule_dict(p) for p in s.phases]
        return doc
    doc["roots"] = [
        {
            "root": rt.root,
            "batches": [
                {
                    "multiplicity": b.multiplicity,
                    "edges": [
                        {
                            "src": e.src,
                            "dst": e.dst,
                            "paths": [
                                {"path": list(p.path), "multiplicity": p.multiplicity}
                                for p in e.paths
                            ],
                        }
                        for e in b.edges
                    ],
                    "pruned": [
                        {"src": h.src, "dst": h.dst, "multiplicity": h.multiplicity}
                        for h in b.pruned
                    ],
                }
                for b in rt.batches
            ],
        }
        for rt in s.roots
    ]
    return doc


def _schedule_from_dict(doc) -> Schedule:
    collective = _field(doc, "collective", str)
    if collective not in (ALLGATHER, REDUCE_SCATTER, ALLREDUCE):
        raise CollschedError(f"unknown collective {collective!r}")
    common = dict(
        collective=collective,
        num_compute=_field(doc, "num_compute_nodes", int),
        k=_field(doc, "trees_per_root", int),
        U=_parse_frac(doc, "scale_U"),
        y=_parse_frac(doc, "tree_bandwidth"),
        inv_x_star=_parse_frac(doc, "optimal_inv_x"),
        exact=_field(doc, "exact_bound", bool, True),
    )
    if collective == ALLREDUCE:
        phases = _field(doc, "phases", list)
        # Checked before recursing, so phases never nest.
        if [_field(p, "collective", str) for p in phases] != [REDUCE_SCATTER, ALLGATHER]:
            raise CollschedError("allreduce schedules carry a reduce_scatter then an allgather phase")
        return Schedule(roots=(), phases=tuple(map(_schedule_from_dict, phases)), **common)
    roots = tuple(
        RootTrees(
            root=_field(rd, "root", str),
            batches=tuple(
                ScheduleBatch(
                    multiplicity=_field(bd, "multiplicity", int),
                    edges=tuple(
                        ScheduleEdge(
                            src=_field(ed, "src", str),
                            dst=_field(ed, "dst", str),
                            paths=tuple(
                                PathUse(_node_path(pd), _field(pd, "multiplicity", int))
                                for pd in _field(ed, "paths", list)
                            ),
                        )
                        for ed in _field(bd, "edges", list)
                    ),
                    pruned=tuple(
                        PrunedHop(
                            _field(hd, "src", str),
                            _field(hd, "dst", str),
                            _field(hd, "multiplicity", int, 1),
                        )
                        for hd in _field(bd, "pruned", list, [])
                    ),
                )
                for bd in _field(rd, "batches", list)
            ),
        )
        for rd in _field(doc, "roots", list)
    )
    return Schedule(roots=roots, **common)


def parse_schedule(text: str) -> Schedule:
    """Inverse of `export(s, "json")`; field-for-field reconstruction.
    Every field must have the JSON type the export writes."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise CollschedError(f"schedule is not valid JSON: {exc}") from None
    return _schedule_from_dict(doc)


def _dot(s: Schedule) -> str:
    if s.collective == ALLREDUCE:
        return "".join(_dot(p) for p in s.phases)
    lines: list[str] = []
    for rt in s.roots:
        if not rt.batches:
            continue
        batch = rt.batches[0]
        usage = _usage((batch,))
        name = _dot_quote(f"{s.collective}_{rt.root}")
        label = _dot_quote(f"root {rt.root}, multiplicity {batch.multiplicity}")
        lines.append(f"digraph {name} {{")
        lines.append(f"  label={label};")
        for a, b in sorted(pair for pair, units in usage.items() if units > 0):
            lines.append(f"  {_dot_quote(a)} -> {_dot_quote(b)};")
        lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_quote(text: str) -> str:
    """A DOT quoted string holding `text`, with \\ and " escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export(s: Schedule, format: str) -> str:
    """Serialize a schedule: "json" is canonical and round-trips through
    `parse_schedule`; "dot" renders each root's first batch (one digraph
    per rendered tree, pruning applied) for human inspection."""
    if format == "json":
        return json.dumps(_schedule_dict(s), indent=2) + "\n"
    if format == "dot":
        return _dot(s)
    raise CollschedError(f"unknown export format {format!r}")
