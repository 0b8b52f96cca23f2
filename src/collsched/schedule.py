"""Physical collective schedules: assembly, reversal, pruning, serialization.

A schedule holds, per compute root, batches of identically-shaped spanning
trees (multiplicity = number of tree copies).  Each logical tree arc maps
to one or more physical node paths through removed switches; path
multiplicities partition the batch's copies in listed order, which is what
pruning and validation rely on to reason about individual copies.

Path uses are interned: within one assembly, one reversal and one pruning,
equal (route, units) pairs share one `PathUse`.  They are frozen, so
sharing is safe, and a phase of a fat-tree allreduce holds far fewer
distinct routes than path uses, so work done per route is done once.

Pruning rewrites paths: a path whose copies a multicast switch on it
already carries keeps only its suffix from that switch, so every path
lists exactly the hops it sends.  Reversal, usage, export and the DOT view
need no pruning code, and only the validator's path-start rule knows that
a path may begin at a switch rather than at its edge's tail.

A schedule describes itself: it carries the U, k, y, inv_x_star and
exactness it was built for, and the search's witness cut S that certifies
the bound, and validation checks it against those.  The reversal and the
BFS tree walk here are plain data transforms that the validator shares;
everything else it re-derives on its own.

The schedule file is one compact JSON document, written by the C encoder
with no whitespace: metadata fields and the witness as a sorted id list,
roots and batches as objects, and each edge as an array (see `export`).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import attrgetter

from .errors import CollschedError
from .packing import Forest
from .splitting import EMap, PathExpander
from .topology import _REQUIRED, Topology, json_field, json_fields, transpose

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
class ScheduleBatch:
    multiplicity: int
    edges: tuple[ScheduleEdge, ...]


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
    # The search's witness cut S, which proves inv_x_star (or, for fixed
    # k, U) optimal from the topology alone; see `validate_schedule`.
    witness: frozenset[str] = frozenset()


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def assemble_allgather(
    forest: Forest, emap: EMap, scaled: Topology, meta
) -> Schedule:
    """Expand every packed tree into physical paths and attach metadata.

    meta is an optimality result (unrestricted or fixed-k); its U, k, y,
    inv_x_star, exactness and witness cut ride along in the schedule,
    which validation checks against.  Path expansion draws from one budget
    local to this call, so per-link usage stays within U*b_e by
    construction.  Equal (path, units) pairs share one `PathUse`.
    """
    expander = PathExpander(emap, scaled)
    uses: dict[tuple[tuple[str, ...], int], PathUse] = {}
    by_root: dict[str, list] = {}
    for batch in forest.batches:
        by_root.setdefault(batch.root, []).append(batch)
    roots = []
    for root in forest.lt.compute_ids:
        batches = []
        for batch in by_root.get(root, ()):
            if len(batch.members) != forest.lt.num_compute:
                raise CollschedError(f"batch rooted at {root} is incomplete")
            edges = []
            for u, v in batch.edges:
                paths = tuple([
                    _interned(uses, p, m) for p, m in expander.expand((u, v), batch.multiplicity)
                ])
                edges.append(ScheduleEdge(u, v, paths))
            batches.append(ScheduleBatch(batch.multiplicity, tuple(edges)))
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
        witness=meta.witness,
    )


def _interned(uses: dict, path: tuple[str, ...], multiplicity: int) -> PathUse:
    """The one `PathUse` of (path, multiplicity) in `uses`, made on first
    sight."""
    pu = uses.get((path, multiplicity))
    if pu is None:
        pu = uses[(path, multiplicity)] = PathUse(path, multiplicity)
    return pu


# ---------------------------------------------------------------------------
# Reversal and allreduce combination
# ---------------------------------------------------------------------------

def reverse_schedule(s: Schedule, collective: str) -> Schedule:
    """Every edge and physical path of s run backwards, relabelled as
    `collective`; the one reversal shared by generation and validation.
    Equal path uses of s share one reversed `PathUse`."""
    uses: dict[tuple[tuple[str, ...], int], PathUse] = {}
    roots = tuple([
        RootTrees(rt.root, tuple([
            ScheduleBatch(b.multiplicity, tuple([
                ScheduleEdge(e.dst, e.src, tuple([
                    _interned(uses, pu.path[::-1], pu.multiplicity) for pu in e.paths
                ]))
                for e in b.edges
            ]))
            for b in rt.batches
        ]))
        for rt in s.roots
    ])
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

    The phases must be a reduce-scatter then an allgather with the same
    metadata and witness cut; their forests may differ, since the
    validator judges each phase on its own.  The combined time under the
    congestion model is the sum of the phases'.
    """
    if rs.collective != REDUCE_SCATTER:
        raise CollschedError(f"first phase must be reduce_scatter, got {rs.collective}")
    if ag.collective != ALLGATHER:
        raise CollschedError(f"second phase must be allgather, got {ag.collective}")
    meta_rs = (rs.num_compute, rs.k, rs.U, rs.y, rs.inv_x_star, sorted(rs.witness))
    meta_ag = (ag.num_compute, ag.k, ag.U, ag.y, ag.inv_x_star, sorted(ag.witness))
    if meta_rs != meta_ag:
        raise CollschedError(f"phase metadata disagrees: {meta_rs} vs {meta_ag}")
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
        witness=ag.witness,
    )


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------

_dst = attrgetter("dst")


def bfs_edges(root: str, batch: ScheduleBatch) -> list[ScheduleEdge] | None:
    """Batch edges in BFS order from the root, children in sorted order, or
    None when the edges do not form one tree reached from the root."""
    children: dict[str, list[ScheduleEdge]] = {}
    for e in batch.edges:
        kids = children.get(e.src)
        if kids is None:
            children[e.src] = [e]
        else:
            kids.append(e)
    order: list[ScheduleEdge] = []
    seen = {root}
    queue = [root]
    for node in queue:  # the list grows under the loop: a FIFO with a head index
        kids = children.get(node)
        if kids is None:
            continue
        if len(kids) > 1:
            kids.sort(key=_dst)
        for e in kids:
            if e.dst in seen:
                return None
            seen.add(e.dst)
            order.append(e)
            queue.append(e.dst)
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


def prune_multicast(s: Schedule, t: Topology) -> Schedule:
    """Elide sends made redundant by switch multicast.

    Trees are walked in BFS order from the root (children sorted); once a
    tree copy's data has crossed a multicast-capable switch, a later path
    of the same copy through that switch keeps only its suffix from there
    on (from the last such switch on it) — the switch fans out instead.
    Only whole path entries are cut (a path's copies must all be covered);
    the hops after the switch are kept, so delivery and the congestion
    bottleneck are untouched.
    """
    if s.collective != ALLGATHER:
        raise CollschedError(f"multicast pruning applies to allgather, got {s.collective}")
    capable = {node.id for node in t.nodes if node.multicast}
    if not capable:
        return s
    # Per route, its multicast-capable interior as (index, switch), last
    # first; and the cut path uses, interned per (suffix, units).
    marks: dict[tuple[str, ...], list[tuple[int, str]]] = {}
    suffixes: dict[tuple[tuple[str, ...], int], PathUse] = {}
    new_roots = []
    for rt in s.roots:
        new_batches = []
        for batch in rt.batches:
            # copies of this batch that a capable switch has already carried
            charged: dict[str, list[tuple[int, int]]] = {}
            order = bfs_edges(rt.root, batch)
            if order is None:
                raise CollschedError(f"batch edges rooted at {rt.root} do not form a tree")
            cut: dict[tuple[str, str], ScheduleEdge] = {}
            for edge in order:
                hi = 0
                paths = []
                edge_cut = False
                for pu in edge.paths:
                    lo, hi = hi, hi + pu.multiplicity
                    path = pu.path
                    crossed = marks.get(path)
                    if crossed is None:
                        crossed = marks[path] = [
                            (idx, path[idx]) for idx in range(len(path) - 2, 0, -1)
                            if path[idx] in capable
                        ]
                    for n, (idx, w) in enumerate(crossed):
                        if spans_cover(charged.get(w, ()), lo, hi):
                            pu = _interned(suffixes, path[idx:], pu.multiplicity)
                            edge_cut = True
                            crossed = crossed[:n]
                            break
                    for _, w in crossed:
                        charged[w] = spans_add(charged.get(w, []), lo, hi)
                    paths.append(pu)
                if edge_cut:
                    cut[(edge.src, edge.dst)] = ScheduleEdge(edge.src, edge.dst, tuple(paths))
            if cut:
                edges = tuple(cut.get((e.src, e.dst), e) for e in batch.edges)
                batch = ScheduleBatch(batch.multiplicity, edges)
            new_batches.append(batch)
        new_roots.append(RootTrees(root=rt.root, batches=tuple(new_batches)))
    return replace(s, roots=tuple(new_roots))


def prune_aggregation(s: Schedule, t: Topology) -> Schedule:
    """Mirror of `prune_multicast` for reduce-scatter: s run backwards is
    an allgather on `transpose(t)`, whose multicast switches are t's
    aggregating ones; that view is pruned and reversed again."""
    if s.collective != REDUCE_SCATTER:
        raise CollschedError(
            f"aggregation pruning applies to reduce_scatter, got {s.collective}"
        )
    pruned = prune_multicast(reverse_schedule(s, ALLGATHER), transpose(t))
    return reverse_schedule(pruned, REDUCE_SCATTER)


# ---------------------------------------------------------------------------
# Usage accounting (shared by `link_usage` and the DOT export; the
# validator recomputes its own)
# ---------------------------------------------------------------------------

def _usage(batches) -> dict[tuple[str, str], int]:
    usage: dict[tuple[str, str], int] = {}
    for batch in batches:
        for edge in batch.edges:
            for pu in edge.paths:
                for a, b in zip(pu.path, pu.path[1:]):
                    usage[(a, b)] = usage.get((a, b), 0) + pu.multiplicity
    return usage


def link_usage(s: Schedule) -> dict[tuple[str, str], int]:
    """Tree-copy units carried per physical link."""
    if s.collective == ALLREDUCE:
        raise CollschedError("allreduce phases must be accounted separately")
    return _usage(b for rt in s.roots for b in rt.batches)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def fraction_text(f) -> str:
    """The canonical 'p/q' text of a rational (integers included)."""
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


def _parse_frac(text: str, key: str, where: str) -> Fraction:
    """`text`, field `key` in `where`, as `fraction_text` writes it: ASCII
    digits, an optional leading minus, one slash.  `int` alone would also
    take signs, underscores, spaces and non-ASCII digits."""
    num, _, den = text.partition("/")
    if re.fullmatch(r"-?[0-9]+/[0-9]+", text):
        try:
            num, den = int(num), int(den)
        except ValueError:  # longer than Python's int-from-string digit limit
            raise CollschedError(f"{key!r} has too many digits ({len(text)}) in {where}") from None
        if den:
            return Fraction(num, den)
    raise CollschedError(f"{key!r} must be a 'p/q' rational, got {text!r}, in {where}")


def _at(place) -> str:
    """A place: text, or (batch place, edge index)."""
    return place if type(place) is str else f"edge {place[1]} of {place[0]}"


def _array(item, kinds: tuple[type, ...], form: str, place) -> list:
    """item as a JSON array of len(kinds) values of those JSON types (a
    boolean is never an integer)."""
    if not (
        isinstance(item, list)
        and len(item) == len(kinds)
        and all(
            isinstance(v, k) and not (k is int and isinstance(v, bool))
            for v, k in zip(item, kinds)
        )
    ):
        raise CollschedError(f"expected {form}, got {item!r:.80}, in {_at(place)}")
    return item


def _path_use(item, place) -> PathUse:
    path, multiplicity = _array(item, (list, int), "a path [[ids...], multiplicity]", place)
    if len(path) < 2 or not all(isinstance(v, str) for v in path):
        raise CollschedError(f"path {path!r:.80} must list at least 2 node ids, in {_at(place)}")
    return PathUse(tuple(path), multiplicity)


def _edge(item, place) -> ScheduleEdge:
    src, dst, paths = _array(item, (str, str, list), "an edge [src, dst, [paths...]]", place)
    return ScheduleEdge(src, dst, tuple([_path_use(p, place) for p in paths]))


_BATCH_FIELDS = {"multiplicity": (int, _REQUIRED), "edges": (list, _REQUIRED)}
_ROOT_FIELDS = {"root": (str, _REQUIRED), "batches": (list, _REQUIRED)}


def _batch(item, where: str) -> ScheduleBatch:
    multiplicity, edges = json_fields(item, _BATCH_FIELDS, where, CollschedError)
    edges = [_edge(e, (where, i)) for i, e in enumerate(edges)]
    return ScheduleBatch(multiplicity, tuple(edges))


def _root(item, index: int, phase: str) -> RootTrees:
    name = lambda values: f"root {values[0]!r} in {phase}" if values else f"root {index} in {phase}"
    root, batches = json_fields(item, _ROOT_FIELDS, name, CollschedError)
    where = name((root,))
    return RootTrees(root, tuple(_batch(b, f"batch {i} of {where}") for i, b in enumerate(batches)))


def _witness(ids: list, where: str) -> frozenset[str]:
    if not all(isinstance(v, str) for v in ids) or ids != sorted(set(ids)):
        raise CollschedError(
            f"'witness' must be a sorted list of distinct node ids, got {ids!r:.80}, in {where}"
        )
    return frozenset(ids)


def _schedule_dict(s: Schedule) -> dict:
    doc = {
        "collective": s.collective,
        "num_compute_nodes": s.num_compute,
        "trees_per_root": s.k,
        "optimal_inv_x": fraction_text(s.inv_x_star),
        "tree_bandwidth": fraction_text(s.y),
        "scale_U": fraction_text(s.U),
        "exact_bound": s.exact,
        "witness": sorted(s.witness),
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
                        [e.src, e.dst, [[p.path, p.multiplicity] for p in e.paths]]
                        for e in b.edges
                    ],
                }
                for b in rt.batches
            ],
        }
        for rt in s.roots
    ]
    return doc


_META_FIELDS = {
    "collective": (str, _REQUIRED),
    "num_compute_nodes": (int, _REQUIRED),
    "trees_per_root": (int, _REQUIRED),
    "optimal_inv_x": (str, _REQUIRED),
    "tree_bandwidth": (str, _REQUIRED),
    "scale_U": (str, _REQUIRED),
    "exact_bound": (bool, True),
    "witness": (list, _REQUIRED),
}
_TREES_FIELDS = {**_META_FIELDS, "roots": (list, _REQUIRED)}
# By collective: an allreduce holds its two phases in place of roots.
_SCHEDULE_FIELDS = {
    ALLGATHER: _TREES_FIELDS,
    REDUCE_SCATTER: _TREES_FIELDS,
    ALLREDUCE: {**_META_FIELDS, "phases": (list, _REQUIRED)},
}


def _schedule_from_dict(doc, where: str = "the schedule") -> Schedule:
    collective = json_field(doc, "collective", str, error=CollschedError, where=where)
    if collective not in _SCHEDULE_FIELDS:
        raise CollschedError(f"unknown collective {collective!r}")
    _, num_compute, k, inv_x_star, y, U, exact, witness, body = json_fields(
        doc, _SCHEDULE_FIELDS[collective], where, CollschedError
    )
    U = _parse_frac(U, "scale_U", where)
    y = _parse_frac(y, "tree_bandwidth", where)
    inv_x_star = _parse_frac(inv_x_star, "optimal_inv_x", where)
    witness = _witness(witness, where)
    roots, phases = (), ()
    if collective == ALLREDUCE:
        # Checked before recursing, so phases never nest.
        collectives = [
            json_field(p, "collective", str, error=CollschedError, where=f"phase {i} of {where}")
            for i, p in enumerate(body)
        ]
        if collectives != [REDUCE_SCATTER, ALLGATHER]:
            raise CollschedError("allreduce schedules carry a reduce_scatter then an allgather phase")
        phases = tuple(_schedule_from_dict(p, f"the {c} phase") for p, c in zip(body, collectives))
    else:
        roots = tuple(_root(item, i, where) for i, item in enumerate(body))
    return Schedule(collective, num_compute, k, U, y, inv_x_star, roots, phases, exact, witness)


def parse_schedule(text: str) -> Schedule:
    """Inverse of `export(s, "json")`; field-for-field reconstruction.

    Every field must have the JSON type the export writes: each
    edge a [src, dst, [[path, multiplicity], ...]] array whose paths list
    at least 2 ids, and the witness a sorted list of distinct ids.  Each
    object (document, phase, root, batch) is read by `json_fields`, so a
    field the export does not write is refused, naming it, where it is and
    the fields known there, and a misspelt one is never read as absent.
    Files in earlier layouts are refused like any malformed file: the
    indented one has no witness, and the compact one whose batches listed
    pruned hops has an unknown field 'pruned'.
    """
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
        name = _dot_quote(f"{s.collective}_{rt.root}")
        label = _dot_quote(f"root {rt.root}, multiplicity {batch.multiplicity}")
        lines.append(f"digraph {name} {{")
        lines.append(f"  label={label};")
        for a, b in sorted(_usage((batch,))):
            lines.append(f"  {_dot_quote(a)} -> {_dot_quote(b)};")
        lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_quote(text: str) -> str:
    """A DOT quoted string holding `text`, with \\ and " escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export(s: Schedule, format: str) -> str:
    """Serialize a schedule: "json" is canonical and round-trips through
    `parse_schedule`; "dot" renders each root's first batch (one digraph
    per rendered tree, the hops its paths send) for human inspection.

    The JSON is one line with no whitespace between tokens, so CPython's C
    encoder writes it (`indent` would fall back to the pure-Python one):
    the metadata, the witness cut as a sorted id list, then per root its
    batches, with each edge as [src, dst, [[path, multiplicity], ...]].
    The README's "Schedule format" section has an example."""
    if format == "json":
        # The document is a tree built afresh here, so the encoder's cycle
        # check would only cost time.
        doc = _schedule_dict(s)
        return json.dumps(doc, separators=(",", ":"), check_circular=False) + "\n"
    if format == "dot":
        return _dot(s)
    raise CollschedError(f"unknown export format {format!r}")
