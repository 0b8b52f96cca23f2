"""Network model: compute/switch nodes joined by integer-bandwidth links.

A topology is a directed capacitated graph.  Compute nodes produce and consume
data; switch nodes only forward (optionally with in-network multicast or
aggregation support).  Bandwidths are abstract positive integers — callers
with rational bandwidths must pre-scale them, which keeps every downstream
computation exact.

The whole pipeline assumes (and `validate` checks) that the graph is
Eulerian — every node's total ingress bandwidth equals its total egress
bandwidth — and that every compute node can reach every other compute node.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable

from .errors import CollschedError, InvalidTopology, Overflow, TopologyFormatError

# Every flow graph's capacities (scaled links, cleared-denominator auxiliary
# arcs and the run limits derived from them) sum to at most this, so no flow
# value leaves signed 64-bit magnitude.  Exceeding the budget is a hard error.
CAPACITY_BUDGET = 2**63 - 1

COMPUTE = "compute"
SWITCH = "switch"


@dataclass(frozen=True)
class Node:
    """One vertex: a compute endpoint or a forwarding switch."""

    id: str
    kind: str
    multicast: bool = False
    aggregation: bool = False


@dataclass(frozen=True)
class Link:
    """A directed link with positive integer bandwidth.

    Parallel links between the same ordered pair are merged (bandwidths
    summed) at construction time; multiplicity is expressed by bandwidth.
    """

    src: str
    dst: str
    bandwidth: int


@dataclass(frozen=True)
class Violation:
    """One validation failure.  Violations are data, not exceptions."""

    kind: str  # NotEulerian | Unreachable | TooFewComputeNodes
    subject: str
    detail: str = ""

    def __str__(self):
        return f"{self.kind}({self.subject})" + (f": {self.detail}" if self.detail else "")


@dataclass(frozen=True)
class TopologyReport:
    ok: bool
    violations: tuple[Violation, ...]


class Topology:
    """Immutable directed capacitated graph of compute and switch nodes.

    Construction enforces structural sanity (unique ids, known endpoints,
    positive integer bandwidths, no self-loops, capability flags only on
    switches).  Semantic validity (Eulerian, reachability, >= 2 compute
    nodes) is checked separately by `validate` so that a report of all
    violations can be produced instead of failing on the first.
    """

    def __init__(self, nodes: Iterable[Node], links: Iterable[Link]):
        nodes = tuple(nodes)
        seen = set()
        for n in nodes:
            if n.id in seen:
                raise TopologyFormatError(f"duplicate node id {n.id!r}")
            if not n.id:
                raise TopologyFormatError("empty node id")
            seen.add(n.id)
            if n.kind not in (COMPUTE, SWITCH):
                raise TopologyFormatError(f"node {n.id!r} has unknown kind {n.kind!r}")
            if n.kind == COMPUTE and (n.multicast or n.aggregation):
                raise TopologyFormatError(
                    f"compute node {n.id!r} cannot carry switch capability flags"
                )

        merged: dict[tuple[str, str], int] = {}
        for l in links:
            if not isinstance(l.bandwidth, int) or isinstance(l.bandwidth, bool) or l.bandwidth < 1:
                raise TopologyFormatError(
                    f"link {l.src}->{l.dst} bandwidth {l.bandwidth!r} is not a positive integer"
                )
            if l.src not in seen or l.dst not in seen:
                raise TopologyFormatError(f"link {l.src}->{l.dst} references an undeclared node")
            if l.src == l.dst:
                raise TopologyFormatError(f"self-loop link on {l.src!r}")
            merged[(l.src, l.dst)] = merged.get((l.src, l.dst), 0) + l.bandwidth

        self.nodes: tuple[Node, ...] = nodes
        self.links: tuple[Link, ...] = tuple(
            Link(s, d, bw) for (s, d), bw in sorted(merged.items())
        )

        self.node_by_id: dict[str, Node] = {n.id: n for n in nodes}
        self.compute_ids: tuple[str, ...] = tuple(
            sorted(n.id for n in nodes if n.kind == COMPUTE)
        )
        self.switch_ids: tuple[str, ...] = tuple(
            sorted(n.id for n in nodes if n.kind == SWITCH)
        )
        self.num_compute: int = len(self.compute_ids)

        self.capacity: dict[tuple[str, str], int] = dict(merged)
        self.out_adj: dict[str, list[tuple[str, int]]] = {n.id: [] for n in nodes}
        self.in_bw: dict[str, int] = {n.id: 0 for n in nodes}
        self.out_bw: dict[str, int] = {n.id: 0 for n in nodes}
        for l in self.links:
            self.out_adj[l.src].append((l.dst, l.bandwidth))
            self.out_bw[l.src] += l.bandwidth
            self.in_bw[l.dst] += l.bandwidth

    # -- identity ----------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, Topology)
            and self.nodes == other.nodes
            and self.links == other.links
        )

    def __hash__(self):
        return hash((self.nodes, self.links))

    def __repr__(self):
        return (
            f"Topology({self.num_compute} compute, "
            f"{len(self.switch_ids)} switch, {len(self.links)} links)"
        )

    # -- small helpers used throughout the pipeline -------------------------
    def is_compute(self, node_id: str) -> bool:
        return self.node_by_id[node_id].kind == COMPUTE


# ---------------------------------------------------------------------------
# Parsing / serialization
# ---------------------------------------------------------------------------

_REQUIRED = object()
_JSON_TYPE = {str: "string", int: "integer", bool: "boolean", list: "array"}


def json_field(obj, key: str, kind: type, default=_REQUIRED, error=TopologyFormatError, *, where):
    """obj[key], raising `error` unless obj is a JSON object and the value a
    JSON `kind` (a boolean is never an integer); `default` when absent.
    Every message names `where` obj is: a string, or a function without
    arguments that makes one, called only for a message."""
    if not isinstance(obj, dict):
        raise error(f"{_place(where)} must be a JSON object holding {key!r}, got {obj!r:.80}")
    if key not in obj:
        if default is _REQUIRED:
            raise error(f"missing field {key!r} in {_place(where)}")
        return default
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise error(
            f"field {key!r} must be a JSON {_JSON_TYPE[kind]}, got {value!r:.80}, in {_place(where)}"
        )
    return value


def _place(where) -> str:
    return where() if callable(where) else where


def json_fields(obj, fields: dict, where, error=TopologyFormatError) -> list:
    """The values of `fields` (key -> (JSON kind, default)) in obj, read in
    order through `json_field`.  A key of obj that `fields` does not hold
    raises `error` naming the first such key, `where` obj is and the known
    keys.  `where` is a string, or a function of the values read so far
    that makes one, called only for a message: a missing or mistyped field
    is reported with the values read before it, so a function falls back
    on the object's index when the field that names it is the bad one."""
    values = []
    place = (lambda: where(values)) if callable(where) else where
    for key, (kind, default) in fields.items():
        values.append(json_field(obj, key, kind, default, error, where=place))
    if not obj.keys() <= fields.keys():
        unknown = min(obj.keys() - fields.keys())
        raise error(f"{_place(place)} has unknown field {unknown!r} (known: {', '.join(fields)})")
    return values


_TOPOLOGY_FIELDS = {"nodes": (list, _REQUIRED), "links": (list, _REQUIRED)}
# In the order of Node's and Link's fields, which the values fill.
_NODE_FIELDS = {
    "id": (str, _REQUIRED),
    "kind": (str, _REQUIRED),
    "multicast": (bool, False),
    "aggregation": (bool, False),
}
_LINK_FIELDS = {"src": (str, _REQUIRED), "dst": (str, _REQUIRED), "bandwidth": (int, _REQUIRED)}


def parse_topology(text: str) -> Topology:
    """Parse the canonical JSON topology document.

    Format (field order irrelevant)::

        { "nodes": [ {"id": "c11", "kind": "compute"},
                     {"id": "w1", "kind": "switch",
                      "multicast": true, "aggregation": false} ],
          "links": [ {"src": "c11", "dst": "w1", "bandwidth": 10} ] }

    Every field must have its JSON type: ids and kinds are strings,
    capability flags booleans (missing ones default to false), bandwidths
    integers >= 1.  Each object is read by `json_fields`, so a field not
    shown above is refused, naming it and the node or link it is in, and
    a misspelt flag is never silently read as false.  Parallel links are
    merged with summed bandwidth.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise TopologyFormatError(f"not valid JSON: {e}") from None
    node_entries, link_entries = json_fields(doc, _TOPOLOGY_FIELDS, "the topology document")
    # Where node or link i is, from the fields read: its index until they name it.
    node_where = lambda i: lambda v: f"node {v[0]!r}" if v else f"node {i}"
    link_where = lambda i: lambda v: f"link {v[0]}->{v[1]}" if len(v) > 1 else f"link {i}"
    nodes = [Node(*json_fields(e, _NODE_FIELDS, node_where(i))) for i, e in enumerate(node_entries)]
    links = [Link(*json_fields(e, _LINK_FIELDS, link_where(i))) for i, e in enumerate(link_entries)]
    return Topology(nodes, links)


def serialize_topology(t: Topology) -> str:
    """Inverse of `parse_topology`: parse(serialize(t)) == t, field for field."""
    nodes = []
    for n in t.nodes:
        entry = {"id": n.id, "kind": n.kind}
        if n.kind == SWITCH:
            entry["multicast"] = n.multicast
            entry["aggregation"] = n.aggregation
        nodes.append(entry)
    links = [
        {"src": l.src, "dst": l.dst, "bandwidth": l.bandwidth} for l in t.links
    ]
    return json.dumps({"nodes": nodes, "links": links}, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(t: Topology) -> TopologyReport:
    """Check the semantic invariants; return all violations found.

    - at least 2 compute nodes;
    - Eulerian: per node, total ingress bandwidth == total egress bandwidth;
    - every compute node reachable from every other via directed links.
    """
    violations: list[Violation] = []

    if t.num_compute < 2:
        violations.append(
            Violation("TooFewComputeNodes", "topology", f"{t.num_compute} compute node(s)")
        )

    for n in t.nodes:
        if t.in_bw[n.id] != t.out_bw[n.id]:
            violations.append(
                Violation(
                    "NotEulerian",
                    n.id,
                    f"ingress {t.in_bw[n.id]} != egress {t.out_bw[n.id]}",
                )
            )

    # Directed reachability between compute nodes.  N is small relative to
    # |E|, so one BFS per compute node is fine.  Each offending node is
    # reported once, with one witness start it cannot be reached from.
    unreachable: dict[str, str] = {}
    for start in t.compute_ids:
        seen = {start}
        queue = [start]
        for u in queue:
            for v, _bw in t.out_adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        for c in t.compute_ids:
            if c not in seen:
                unreachable.setdefault(c, start)
    for c in sorted(unreachable):
        violations.append(
            Violation("Unreachable", c, f"not reachable from {unreachable[c]}")
        )

    return TopologyReport(ok=not violations, violations=tuple(violations))


def require_valid(t: Topology) -> None:
    """Raise InvalidTopology when `validate` reports violations."""
    report = validate(t)
    if not report.ok:
        raise InvalidTopology(report.violations)


def require_tree_count(k) -> None:
    """Raise CollschedError unless k, a number of trees per root, is an
    int >= 1 (a bool is not)."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise CollschedError(f"tree count k must be an int >= 1, got {k!r}")


def transpose(t: Topology) -> Topology:
    """The arc-reversed network.  Multicast and aggregation swap, because
    a fan-out on t is a fan-in on its transpose; a reduction on t is an
    allgather on `transpose(t)` run backwards.  Transposing twice gives t
    back."""
    nodes = [replace(n, multicast=n.aggregation, aggregation=n.multicast) for n in t.nodes]
    return Topology(nodes, [Link(l.dst, l.src, l.bandwidth) for l in t.links])


# ---------------------------------------------------------------------------
# Capacity scaling
# ---------------------------------------------------------------------------

def scale_capacities(t: Topology, U: Fraction | int) -> Topology:
    """The network switch removal works on: every bandwidth b_e replaced by
    floor(U*b_e), and links that floor to 0 dropped.

    This is the one scaling rule for both searches' results, and the
    validator's per-link limit.  For a `bottleneck_search` result
    `optimality.derive_schedule_params` makes every U*b_e integral, so the
    floor rounds nothing and the Eulerian property survives; for a
    `fixed_k_search` result the floors may unbalance a node, and switch
    removal refuses an unbalanced switch.  Raises CollschedError if U <= 0 and Overflow if the
    total capacity leaves the 63-bit budget.
    """
    U = Fraction(U)
    if U <= 0:
        raise CollschedError(f"scale factor must be positive, got {U}")
    num, den = U.numerator, U.denominator
    scaled_links = [Link(l.src, l.dst, num * l.bandwidth // den) for l in t.links]
    total = sum(l.bandwidth for l in scaled_links)
    if total > CAPACITY_BUDGET:
        raise Overflow(f"total scaled capacity {total} exceeds the 63-bit budget")
    return Topology(t.nodes, [l for l in scaled_links if l.bandwidth > 0])


# ---------------------------------------------------------------------------
# Synthetic families
# ---------------------------------------------------------------------------

_COUNT = (int, _REQUIRED)  # a count or a bandwidth
_FAMILY_FIELDS = {
    "boxes": dict.fromkeys(("boxes", "gpus_per_box", "intra", "inter"), _COUNT),
    "ring": {"n": _COUNT, "bw": _COUNT, "bidirectional": (bool, False)},
    "fat-tree": {
        "pods": _COUNT,
        "gpus": _COUNT,
        "spines": (int, None),  # None: one spine per pod
        "leaf_bw": _COUNT,
        "spine_bw": _COUNT,
    },
}


def synth_topology(family: str, **params) -> Topology:
    """Deterministically generate a topology from a named family.

    Families:

    - ``boxes``: `boxes` boxes of `gpus_per_box` GPUs.  Every GPU has a
      bidirectional link of bandwidth `intra` to its box switch (w1..wB) and
      a bidirectional link of bandwidth `inter` to one global switch (w0).
    - ``ring``: `n` compute nodes c1..cn in a cycle of bandwidth `bw`;
      `bidirectional=True` adds the reverse cycle.
    - ``fat-tree``: two tiers.  `gpus` compute nodes split evenly over
      `pods` leaf switches (bandwidth `leaf_bw` per GPU, bidirectional) and
      `spines` spine switches each connected to every leaf (bandwidth
      `spine_bw`, bidirectional).

    Identical parameters always produce the identical topology (the
    invariant tests serialize and compare).  All families pass `validate`.
    The parameters are read by `json_fields`: counts and bandwidths must be
    ints and `bidirectional` a bool, and a parameter of another type, a
    missing one or one the family does not take (named, with the ones it
    does) raises TopologyFormatError, and so do an unknown family and an
    out-of-range value.
    """
    if family not in _FAMILY_FIELDS:
        raise TopologyFormatError(f"unsupported topology family {family!r}")
    values = json_fields(params, _FAMILY_FIELDS[family], f"topology family {family!r}")

    if family == "boxes":
        boxes, gpus, intra, inter = values
        if boxes < 1 or gpus < 1 or boxes * gpus < 2:
            raise TopologyFormatError("boxes family needs at least 2 compute nodes")
        if intra < 1 or inter < 1:
            raise TopologyFormatError("bandwidths must be >= 1")
        nodes = [Node("w0", SWITCH)]
        links = []
        for b in range(1, boxes + 1):
            nodes.append(Node(f"w{b}", SWITCH))
            for g in range(1, gpus + 1):
                c = f"c{b}_{g}"
                nodes.append(Node(c, COMPUTE))
                links += [
                    Link(c, f"w{b}", intra),
                    Link(f"w{b}", c, intra),
                    Link(c, "w0", inter),
                    Link("w0", c, inter),
                ]
        return Topology(nodes, links)

    if family == "ring":
        n, bw, bidirectional = values
        if n < 2:
            raise TopologyFormatError("ring needs at least 2 nodes")
        if bw < 1:
            raise TopologyFormatError("bandwidths must be >= 1")
        nodes = [Node(f"c{i}", COMPUTE) for i in range(1, n + 1)]
        links = [
            Link(f"c{i}", f"c{i % n + 1}", bw) for i in range(1, n + 1)
        ]
        if bidirectional:
            links += [
                Link(f"c{i % n + 1}", f"c{i}", bw) for i in range(1, n + 1)
            ]
        return Topology(nodes, links)

    # fat-tree
    pods, gpus, spines, leaf_bw, spine_bw = values
    if spines is None:
        spines = pods
    if pods < 1 or gpus < 2 or gpus % pods:
        raise TopologyFormatError("fat-tree needs gpus >= 2 divisible by pods")
    if spines < 1 or leaf_bw < 1 or spine_bw < 1:
        raise TopologyFormatError("bandwidths and spine count must be >= 1")
    per_pod = gpus // pods
    nodes = [Node(f"s{j}", SWITCH) for j in range(1, spines + 1)]
    links = []
    for p in range(1, pods + 1):
        leaf = f"l{p}"
        nodes.append(Node(leaf, SWITCH))
        for i in range(1, per_pod + 1):
            c = f"c{p}_{i}"
            nodes.append(Node(c, COMPUTE))
            links += [Link(c, leaf, leaf_bw), Link(leaf, c, leaf_bw)]
        for j in range(1, spines + 1):
            links += [Link(leaf, f"s{j}", spine_bw), Link(f"s{j}", leaf, spine_bw)]
    return Topology(nodes, links)
