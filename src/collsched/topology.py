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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import (
    DuplicateNodeId,
    MalformedDocument,
    NonIntegerBandwidth,
    NonIntegralScale,
    Overflow,
    TopologyFormatError,
    UnknownEndpoint,
    UnknownNodeKind,
)

# All materialized capacities (including cleared-denominator auxiliary
# capacities and the infinity sentinel built from their sum) must stay within
# signed 64-bit magnitude.  Exceeding the budget is a hard error.
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
                raise DuplicateNodeId(f"duplicate node id {n.id!r}")
            if not n.id:
                raise MalformedDocument("empty node id")
            seen.add(n.id)
            if n.kind not in (COMPUTE, SWITCH):
                raise UnknownNodeKind(f"node {n.id!r} has unknown kind {n.kind!r}")
            if n.kind == COMPUTE and (n.multicast or n.aggregation):
                raise MalformedDocument(
                    f"compute node {n.id!r} cannot carry switch capability flags"
                )

        merged: dict[tuple[str, str], int] = {}
        for l in links:
            if not isinstance(l.bandwidth, int) or isinstance(l.bandwidth, bool) or l.bandwidth < 1:
                raise NonIntegerBandwidth(
                    f"link {l.src}->{l.dst} bandwidth {l.bandwidth!r} is not a positive integer"
                )
            if l.src not in seen or l.dst not in seen:
                raise UnknownEndpoint(f"link {l.src}->{l.dst} references an undeclared node")
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
        self.in_adj: dict[str, list[tuple[str, int]]] = {n.id: [] for n in nodes}
        self.in_bw: dict[str, int] = {n.id: 0 for n in nodes}
        self.out_bw: dict[str, int] = {n.id: 0 for n in nodes}
        for l in self.links:
            self.out_adj[l.src].append((l.dst, l.bandwidth))
            self.in_adj[l.dst].append((l.src, l.bandwidth))
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
    def min_compute_in_bw(self) -> int:
        return min(self.in_bw[c] for c in self.compute_ids)

    def is_compute(self, node_id: str) -> bool:
        return self.node_by_id[node_id].kind == COMPUTE


# ---------------------------------------------------------------------------
# Parsing / serialization
# ---------------------------------------------------------------------------

_REQUIRED = object()
_JSON_TYPE = {str: "string", int: "integer", bool: "boolean", list: "array"}


def json_field(obj, key: str, kind: type, default=_REQUIRED, error=MalformedDocument):
    """obj[key], raising `error` unless obj is a JSON object and the value a
    JSON `kind` (a boolean is never an integer); `default` when absent."""
    if not isinstance(obj, dict):
        raise error(f"expected a JSON object holding {key!r}, got {obj!r:.80}")
    if key not in obj:
        if default is _REQUIRED:
            raise error(f"missing field {key!r} in {obj!r:.80}")
        return default
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise error(f"field {key!r} must be a JSON {_JSON_TYPE[kind]}, got {value!r:.80}")
    return value


def parse_topology(text: str) -> Topology:
    """Parse the canonical JSON topology document.

    Format (field order irrelevant)::

        { "nodes": [ {"id": "c11", "kind": "compute"},
                     {"id": "w1", "kind": "switch",
                      "multicast": true, "aggregation": false} ],
          "links": [ {"src": "c11", "dst": "w1", "bandwidth": 10} ] }

    Every field must have its JSON type: ids and kinds are strings,
    capability flags booleans (missing ones default to false), bandwidths
    integers >= 1.  Parallel links are merged with summed bandwidth.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise MalformedDocument(f"not valid JSON: {e}") from None
    nodes = [
        Node(
            id=json_field(entry, "id", str),
            kind=json_field(entry, "kind", str),
            multicast=json_field(entry, "multicast", bool, False),
            aggregation=json_field(entry, "aggregation", bool, False),
        )
        for entry in json_field(doc, "nodes", list)
    ]
    links = [
        Link(
            src=json_field(entry, "src", str),
            dst=json_field(entry, "dst", str),
            bandwidth=json_field(entry, "bandwidth", int, error=NonIntegerBandwidth),
        )
        for entry in json_field(doc, "links", list)
    ]
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
    from .errors import InvalidTopology

    report = validate(t)
    if not report.ok:
        raise InvalidTopology(report.violations)


# ---------------------------------------------------------------------------
# Capacity scaling
# ---------------------------------------------------------------------------

def scale_capacities(t: Topology, U: Fraction | int) -> Topology:
    """The network switch removal works on: every bandwidth multiplied by
    U, requiring exact integer results.

    U normally comes from `optimality.derive_schedule_params`, which
    guarantees integrality.  The Eulerian property survives scaling by a
    constant.  Raises NonIntegralScale if some U*b_e is fractional and
    Overflow if any capacity leaves the 63-bit budget.
    """
    U = Fraction(U)
    if U <= 0:
        raise NonIntegralScale(f"scale factor must be positive, got {U}")
    scaled_links = []
    for l in t.links:
        c = U * l.bandwidth
        if c.denominator != 1:
            raise NonIntegralScale(f"U*b = {U}*{l.bandwidth} is not an integer on {l.src}->{l.dst}")
        c = int(c)
        if c > CAPACITY_BUDGET:
            raise Overflow(f"capacity {c} on {l.src}->{l.dst} exceeds the 63-bit budget")
        scaled_links.append(Link(l.src, l.dst, c))
    total = sum(l.bandwidth for l in scaled_links)
    if total + 1 > CAPACITY_BUDGET:
        raise Overflow(f"total scaled capacity {total} exceeds the 63-bit budget")
    return Topology(t.nodes, scaled_links)


# ---------------------------------------------------------------------------
# Synthetic families
# ---------------------------------------------------------------------------

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
    Counts and bandwidths must be ints and `bidirectional` a bool; a
    parameter of another type, a missing one or one the family does not
    take raises TopologyFormatError, and an out-of-range value ValueError.
    """
    known = {
        "boxes": {"boxes", "gpus_per_box", "intra", "inter"},
        "ring": {"n", "bw", "bidirectional"},
        "fat-tree": {"pods", "gpus", "spines", "leaf_bw", "spine_bw"},
    }
    if family not in known:
        raise ValueError(f"unsupported topology family {family!r}")
    unknown = sorted(set(params) - known[family])
    if unknown:
        raise TopologyFormatError(f"{family} takes no parameter {', '.join(unknown)}")

    def param(key: str, kind: type = int, default=_REQUIRED):
        return json_field(params, key, kind, default, error=TopologyFormatError)

    if family == "boxes":
        boxes = param("boxes")
        gpus = param("gpus_per_box")
        intra = param("intra")
        inter = param("inter")
        if boxes < 1 or gpus < 1 or boxes * gpus < 2:
            raise ValueError("boxes family needs at least 2 compute nodes")
        if intra < 1 or inter < 1:
            raise ValueError("bandwidths must be >= 1")
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
        n = param("n")
        bw = param("bw")
        bidirectional = param("bidirectional", bool, False)
        if n < 2:
            raise ValueError("ring needs at least 2 nodes")
        if bw < 1:
            raise ValueError("bandwidths must be >= 1")
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
    pods = param("pods")
    gpus = param("gpus")
    spines = param("spines", int, pods)
    leaf_bw = param("leaf_bw")
    spine_bw = param("spine_bw")
    if pods < 1 or gpus < 2 or gpus % pods:
        raise ValueError("fat-tree needs gpus >= 2 divisible by pods")
    if spines < 1 or leaf_bw < 1 or spine_bw < 1:
        raise ValueError("bandwidths and spine count must be >= 1")
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
