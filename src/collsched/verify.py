"""Independent verification oracles.

Everything here deliberately re-derives results without leaning on the
modules it checks: the bottleneck oracle enumerates every cut instead of
running flows, and the schedule validator recomputes tree structure, link
usage and delivery from the serialized schedule alone, and the value of
the schedule's witness cut from the topology alone; a schedule's time is
the validator's `achieved_T_comm`.  Path uses may be interned, one
`PathUse` standing for many occurrences, so the validator checks each
distinct route once per call (interior all switches, links present,
multicast switches crossed) and still reports each violation at every
occurrence, in walk order; no table is shared with the assembler.  Agreement between this module and the
pipeline is the package's core evidence of correctness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import CollschedError
from .schedule import (
    ALLGATHER,
    ALLREDUCE,
    REDUCE_SCATTER,
    Schedule,
    bfs_edges,
    fraction_text,
    reverse_schedule,
    spans_add,
    spans_cover,
)
from .topology import COMPUTE, SWITCH, Link, Node, Topology, transpose

BRUTE_FORCE_VERTEX_LIMIT = 22


@dataclass(frozen=True)
class CutWitness:
    """A maximizing cut: ratio = compute_count / exit_bandwidth."""

    S: frozenset[str]
    compute_count: int
    exit_bandwidth: int
    ratio: Fraction


def brute_force_bottleneck(t: Topology) -> tuple[Fraction, CutWitness]:
    """Exact bottleneck ratio by enumerating all nonempty proper vertex
    subsets not containing every compute node (subsets with zero exit
    bandwidth cannot occur on validated inputs and are skipped).

    The witness is the maximizer with the fewest vertices, ties broken by
    the lexicographically smallest sorted id tuple.  Subsets walk in
    Gray-code order so the exit bandwidth updates incrementally.
    """
    n = len(t.nodes)
    if n > BRUTE_FORCE_VERTEX_LIMIT:
        raise CollschedError(f"{n} vertices exceed the 2^{BRUTE_FORCE_VERTEX_LIMIT} budget")
    ids = sorted(node.id for node in t.nodes)
    index = {v: i for i, v in enumerate(ids)}
    num_compute = t.num_compute
    is_compute = [t.is_compute(v) for v in ids]
    out_arcs: list[list[tuple[int, int]]] = [[] for _ in ids]
    in_arcs: list[list[tuple[int, int]]] = [[] for _ in ids]
    for (a, b), bw in t.capacity.items():
        out_arcs[index[a]].append((index[b], bw))
        in_arcs[index[b]].append((index[a], bw))

    inside = bytearray(n)
    size = 0
    computes_in = 0
    exit_bw = 0
    best: tuple[int, int, int, int] | None = None  # (count, exit_bw, size, mask)
    best_ids: tuple[str, ...] | None = None
    mask = 0
    for step in range(1, 1 << n):
        v = (step & -step).bit_length() - 1
        if inside[v]:
            inside[v] = 0
            mask ^= 1 << v
            size -= 1
            if is_compute[v]:
                computes_in -= 1
            for j, bw in out_arcs[v]:
                if not inside[j]:
                    exit_bw -= bw
            for j, bw in in_arcs[v]:
                if inside[j]:
                    exit_bw += bw
        else:
            for j, bw in out_arcs[v]:
                if not inside[j]:
                    exit_bw += bw
            for j, bw in in_arcs[v]:
                if inside[j]:
                    exit_bw -= bw
            inside[v] = 1
            mask ^= 1 << v
            size += 1
            if is_compute[v]:
                computes_in += 1
        if size == n or computes_in == num_compute or computes_in == 0 or exit_bw == 0:
            continue
        if best is None:
            better = True
        else:
            lhs = computes_in * best[1]
            rhs = best[0] * exit_bw
            if lhs != rhs:
                better = lhs > rhs
            elif size != best[2]:
                better = size < best[2]
            else:
                if best_ids is None:
                    best_ids = tuple(
                        sorted(ids[i] for i in range(n) if best[3] >> i & 1)
                    )
                candidate = tuple(sorted(ids[i] for i in range(n) if mask >> i & 1))
                better = candidate < best_ids
        if better:
            best = (computes_in, exit_bw, size, mask)
            best_ids = None
    if best is None:
        raise CollschedError("no cut with positive exit bandwidth exists")
    count, bw, _, mask = best
    members = frozenset(ids[i] for i in range(n) if mask >> i & 1)
    ratio = Fraction(count, bw)
    return ratio, CutWitness(
        S=members, compute_count=count, exit_bandwidth=bw, ratio=ratio
    )


# ---------------------------------------------------------------------------
# Random test topologies
# ---------------------------------------------------------------------------

def random_eulerian_topology(seed: int, max_nodes: int = 12) -> Topology:
    """Deterministic random topology that always validates.

    Balance comes for free by superposing directed cycles: one cycle over
    every vertex (which also guarantees strong connectivity), then a few
    shorter ones, with weights capped so no link exceeds bandwidth 8.
    Roughly a quarter of the vertices become switches (at least two stay
    compute), with random multicast/aggregation capabilities.
    """
    rng = random.Random(seed)
    n = rng.randint(4, max(4, max_nodes))
    is_switch = [rng.random() < 0.25 for _ in range(n)]
    if sum(1 for s in is_switch if not s) < 2:
        for i in rng.sample(range(n), 2):
            is_switch[i] = False
    nodes = []
    for i in range(n):
        if is_switch[i]:
            nodes.append(
                Node(
                    id=f"w{i}",
                    kind=SWITCH,
                    multicast=rng.random() < 0.5,
                    aggregation=rng.random() < 0.5,
                )
            )
        else:
            nodes.append(Node(id=f"c{i}", kind=COMPUTE))
    name = [node.id for node in nodes]

    weights: dict[tuple[int, int], int] = {}

    def add_cycle(order: list[int]) -> None:
        arcs = [(order[i], order[(i + 1) % len(order)]) for i in range(len(order))]
        headroom = min(8 - weights.get(arc, 0) for arc in arcs)
        if headroom < 1:
            return
        w = rng.randint(1, headroom)
        for arc in arcs:
            weights[arc] = weights.get(arc, 0) + w

    base = list(range(n))
    rng.shuffle(base)
    add_cycle(base)
    for _ in range(rng.randint(1, 3)):
        length = rng.randint(2, n)
        add_cycle(rng.sample(range(n), length))
    links = [
        Link(src=name[a], dst=name[b], bandwidth=w)
        for (a, b), w in sorted(weights.items())
    ]
    return Topology(nodes=nodes, links=links)


# ---------------------------------------------------------------------------
# Schedule validation
# ---------------------------------------------------------------------------

NOT_SPANNING = "NotSpanning"
NOT_A_TREE = "NotATree"
WRONG_ROOT_COUNT = "WrongRootCount"
CAPACITY_EXCEEDED = "CapacityExceeded"
DELIVERY_GAP = "DeliveryGap"
METADATA_MISMATCH = "MetadataMismatch"
UNCERTIFIED_BOUND = "UncertifiedBound"

# What a schedule claims about the search result it realizes.
CLAIMS = ("inv_x_star", "U", "k", "y", "exact", "witness")


@dataclass(frozen=True)
class ScheduleViolation:
    kind: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[ScheduleViolation, ...]
    achieved_T_comm: Fraction
    bound_T_comm: Fraction

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"kind": v.kind, "detail": v.detail} for v in self.violations
            ],
            "achieved_T_comm": fraction_text(self.achieved_T_comm),
            "bound_T_comm": fraction_text(self.bound_T_comm),
        }


def _mismatches(s, reference, fields, label: str) -> list[ScheduleViolation]:
    def text(value):
        return sorted(value) if isinstance(value, frozenset) else value

    return [
        ScheduleViolation(
            METADATA_MISMATCH,
            f"{label}: {name} is {text(getattr(reference, name))}, "
            f"schedule claims {text(getattr(s, name))}",
        )
        for name in fields
        if getattr(s, name) != getattr(reference, name)
    ]


def certificate_violations(s, t: Topology) -> list[ScheduleViolation]:
    """Whether the witness cut S proves the schedule's bound optimal on t.

    s is a `Schedule`, or anything else carrying its witness, exact,
    inv_x_star, U and k (a search result).  S must be a set of t's nodes
    missing some compute node.  An exact schedule needs |S ∩ C| / B+(S) =
    inv_x_star: no schedule beats the time S forces, and validation shows
    this one meets it.  A fixed-k schedule needs
    sum(ceil(U*b_e) - 1) < k*|S ∩ C| <= sum(floor(U*b_e)) over S's exit
    links: below U the floored exits of S cannot carry k trees per root
    inside S, so U is the least scale with k trees.  Empty when S
    certifies the bound.
    """

    def fail(detail: str) -> list[ScheduleViolation]:
        return [ScheduleViolation(UNCERTIFIED_BOUND, f"witness {sorted(s.witness)}: {detail}")]

    S = s.witness
    unknown = sorted(S - t.node_by_id.keys())
    if unknown:
        return fail(f"{', '.join(unknown)} not in the topology")
    inside = sum(1 for c in t.compute_ids if c in S)
    if inside == t.num_compute:
        return fail("holds every compute node")
    exits = [bw for (a, b), bw in t.capacity.items() if a in S and b not in S]
    if s.exact:
        if not exits or Fraction(inside, sum(exits)) != s.inv_x_star:
            return fail(f"|S ∩ C| / B+(S) is {inside}/{sum(exits)}, not inv_x_star {s.inv_x_star}")
        return []
    U = Fraction(s.U)
    p, q = U.numerator, U.denominator
    below = sum(-(-p * b // q) - 1 for b in exits)
    floored = sum(p * b // q for b in exits)
    if not below < s.k * inside <= floored:
        return fail(
            f"U = {U} is not the least scale at which its exits carry k*|S ∩ C| = "
            f"{s.k * inside} (floors sum to {floored}, {below} just below U)"
        )
    return []


def _validate_gather_batch(
    root: str,
    batch,
    t: Topology,
    sets: tuple[set[str], set[str], set[str]],
    violations: list[ScheduleViolation],
    carried: dict[tuple[str, ...], int],
    routes: dict[tuple[str, ...], tuple],
) -> None:
    """Check one batch rooted at `root`, adding to `violations` and to
    `carried`, the units per route of the paths that pass; `sets` holds
    t's compute nodes, switches and multicast switches, and `routes` each
    route's checks (see `_route_checks`), kept across the batches of one
    call."""
    computes, switch_ids, capable = sets
    where = f"batch rooted at {root}"
    if batch.multiplicity < 1:
        violations.append(
            ScheduleViolation(WRONG_ROOT_COUNT, f"{where} has multiplicity {batch.multiplicity}")
        )
        return

    # -- logical tree shape
    parent: dict[str, str] = {}
    shape_ok = True
    for e in batch.edges:
        if e.src not in computes or e.dst not in computes:
            violations.append(
                ScheduleViolation(NOT_A_TREE, f"{where}: edge {e.src}->{e.dst} leaves the compute set")
            )
            shape_ok = False
            continue
        if e.dst == root:
            violations.append(ScheduleViolation(NOT_A_TREE, f"{where}: root receives an edge"))
            shape_ok = False
        if e.dst in parent:
            violations.append(
                ScheduleViolation(NOT_A_TREE, f"{where}: {e.dst} has two parents")
            )
            shape_ok = False
        parent[e.dst] = e.src
    covered = set(parent) | {root}
    if covered != computes:
        missing = sorted(computes - covered)
        violations.append(
            ScheduleViolation(NOT_SPANNING, f"{where}: no edge reaches {', '.join(missing)}")
        )
        shape_ok = False
    order = bfs_edges(root, batch) if shape_ok else None
    if shape_ok and order is None:
        violations.append(
            ScheduleViolation(NOT_A_TREE, f"{where}: edges contain a cycle")
        )

    # -- physical paths, walked in BFS order.  A path ends at its edge's
    # head and starts at its tail, or at a multicast-capable switch that
    # already carried all its copies (pruning cut the hops before it).
    # Only paths that pass charge the capable switches they cross.
    charged: dict[str, list[tuple[int, int]]] = {}
    for e in batch.edges if order is None else order:
        hi = 0
        for pu in e.paths:
            if pu.multiplicity < 1:
                violations.append(
                    ScheduleViolation(DELIVERY_GAP, f"{where}: non-positive path multiplicity on {e.src}->{e.dst}")
                )
                continue
            lo, hi = hi, hi + pu.multiplicity
            p = pu.path
            if len(p) < 2 or p[-1] != e.dst:
                violations.append(
                    ScheduleViolation(DELIVERY_GAP, f"{where}: path {list(p)} does not end at {e.dst}")
                )
                continue
            if p[0] != e.src and not (p[0] in capable and spans_cover(charged.get(p[0], ()), lo, hi)):
                violations.append(
                    ScheduleViolation(
                        DELIVERY_GAP,
                        f"{where}: path {list(p)} starts neither at {e.src} nor at a "
                        "multicast switch already carrying its copies",
                    )
                )
                continue
            checks = routes.get(p)
            if checks is None:
                checks = routes[p] = _route_checks(p, t, switch_ids, capable)
            bad, missing, crossed = checks
            if bad:
                violations.append(
                    ScheduleViolation(DELIVERY_GAP, f"{where}: path interior {bad} is not all switches")
                )
            for a, b in missing:
                violations.append(
                    ScheduleViolation(CAPACITY_EXCEEDED, f"{where}: no physical link {a}->{b}")
                )
            carried[p] = carried.get(p, 0) + pu.multiplicity
            for w in crossed:
                charged[w] = spans_add(charged.get(w, []), lo, hi)
        if hi != batch.multiplicity:
            violations.append(
                ScheduleViolation(
                    DELIVERY_GAP,
                    f"{where}: edge {e.src}->{e.dst} carries {hi} of {batch.multiplicity} copies",
                )
            )


def _route_checks(
    p: tuple[str, ...], t: Topology, switch_ids: set[str], capable: set[str]
) -> tuple[list[str], list[tuple[str, str]], list[str]]:
    """A route's interior nodes that are not switches, its hops with no
    physical link, both in path order, and the multicast switches it
    crosses."""
    interior = p[1:-1]
    return (
        [v for v in interior if v not in switch_ids],
        [hop for hop in zip(p, p[1:]) if hop not in t.capacity],
        [w for w in interior if w in capable],
    )


def _validate_oriented(
    s: Schedule, t: Topology
) -> tuple[list[ScheduleViolation], Fraction, Fraction]:
    """Violations, achieved time and bound of an allgather-oriented
    schedule on t, judged against the schedule's own U and inv_x_star;
    its tree bandwidth y must be 1/U and inv_x_star must be U/k (checked
    as U*y = 1 and inv_x_star*k = U, so U = 0 and k = 0 are safe)."""
    violations: list[ScheduleViolation] = []
    if s.U * s.y != 1:
        violations.append(
            ScheduleViolation(METADATA_MISMATCH, f"y is {s.y}, but 1/U is 1/({s.U})")
        )
    if s.inv_x_star * s.k != s.U:
        violations.append(
            ScheduleViolation(
                METADATA_MISMATCH, f"inv_x_star is {s.inv_x_star}, but U/k is ({s.U})/{s.k}"
            )
        )
    computes = set(t.compute_ids)
    n = len(computes)
    if n < 1 or s.k < 1:
        violations.append(
            ScheduleViolation(WRONG_ROOT_COUNT, f"{s.k} trees per root over {n} compute nodes")
        )
        return violations, Fraction(0), Fraction(0)
    bound = Fraction(s.inv_x_star) / n
    if s.num_compute != n:
        violations.append(
            ScheduleViolation(
                WRONG_ROOT_COUNT, f"schedule says {s.num_compute} compute nodes, topology has {n}"
            )
        )
    roots = [rt.root for rt in s.roots]
    if sorted(roots) != sorted(computes):
        violations.append(
            ScheduleViolation(
                WRONG_ROOT_COUNT,
                f"roots {sorted(roots)} differ from compute nodes {sorted(computes)}",
            )
        )
    # Each route is checked once per call and its violations reported at
    # every occurrence; its links are charged once, with its total units.
    carried: dict[tuple[str, ...], int] = {}
    routes: dict[tuple[str, ...], tuple] = {}
    sets = computes, set(t.switch_ids), {v.id for v in t.nodes if v.multicast}
    for rt in s.roots:
        total = sum(b.multiplicity for b in rt.batches)
        if total != s.k:
            violations.append(
                ScheduleViolation(
                    WRONG_ROOT_COUNT, f"root {rt.root} has {total} trees, expected {s.k}"
                )
            )
        for batch in rt.batches:
            _validate_gather_batch(rt.root, batch, t, sets, violations, carried, routes)
    usage: dict[tuple[str, str], int] = {}
    for p, units in carried.items():
        for hop in zip(p, p[1:]):
            if hop in t.capacity:
                usage[hop] = usage.get(hop, 0) + units
    num, den = Fraction(s.U).numerator, Fraction(s.U).denominator
    achieved = Fraction(0)
    for (a, b), units in sorted(usage.items()):
        bw = t.capacity[(a, b)]
        limit = (num * bw) // den
        if units > limit:
            violations.append(
                ScheduleViolation(
                    CAPACITY_EXCEEDED, f"link {a}->{b} carries {units} > {limit} tree units"
                )
            )
        load = Fraction(units, n * s.k * bw)
        if load > achieved:
            achieved = load
    return violations, achieved, bound


def _validate_collective(
    s: Schedule, t: Topology
) -> tuple[list[ScheduleViolation], Fraction, Fraction]:
    """Violations, achieved time and bound of s on t by collective: a
    reduce-scatter as its reversed allgather view on `transpose(t)`, an
    allreduce as its two phases, whose claims must equal its own."""
    if s.collective == ALLREDUCE and [p.collective for p in s.phases] == [REDUCE_SCATTER, ALLGATHER]:
        violations: list[ScheduleViolation] = []
        achieved = bound = Fraction(0)
        for phase in s.phases:
            label = f"{phase.collective} phase"
            violations += _mismatches(phase, s, ("num_compute",) + CLAIMS, label)
            found, phase_achieved, phase_bound = _validate_collective(phase, t)
            violations += (ScheduleViolation(v.kind, f"{label}: {v.detail}") for v in found)
            achieved += phase_achieved
            bound += phase_bound
        return violations, achieved, bound
    if s.collective == REDUCE_SCATTER:
        found, achieved, bound = _validate_oriented(
            reverse_schedule(s, ALLGATHER), transpose(t)
        )
        return [ScheduleViolation(v.kind, f"reversed view: {v.detail}") for v in found], achieved, bound
    if s.collective == ALLGATHER:
        return _validate_oriented(s, t)
    if s.collective == ALLREDUCE:
        detail = "allreduce must hold a reduce_scatter phase then an allgather phase"
    else:
        detail = f"unknown collective {s.collective!r}"
    return [ScheduleViolation(WRONG_ROOT_COUNT, detail)], Fraction(0), Fraction(0)


def validate_schedule(s: Schedule, t: Topology, expected=None) -> ValidationReport:
    """From-scratch check of a schedule against a topology and its own claims.

    Recomputes tree structure, per-root tree counts, physical path
    integrity and delivery (each path ends at its edge's head and starts
    at its tail, or at a multicast switch that already carried every copy
    the path takes, as pruning leaves it), per-link capacity against
    floor(U*b_e), and the achieved congestion time versus the bound
    inv_x_star/N — with equality demanded when the schedule claims
    exactness, and <= for fixed tree counts.  The schedule's witness cut
    must certify that bound on t, from t alone (`UncertifiedBound`
    otherwise), so an "ok" exact schedule is optimal and an "ok" fixed-k
    one has the least U for its k.  U, inv_x_star, exactness and the
    witness are the schedule's own; a given `expected` search result must
    match every one of its CLAIMS.  Reduce-scatter schedules are checked
    as their reversed allgather view against `transpose(t)`; allreduce
    phases are checked individually against their own claims, which must
    equal the schedule's, and their times summed.  Violations are data,
    not errors.
    """
    violations = [] if expected is None else _mismatches(s, expected, CLAIMS, "expected")
    violations += certificate_violations(s, t)
    found, achieved, bound = _validate_collective(s, t)
    violations += found
    time_ok = achieved == bound if s.exact else achieved <= bound
    return ValidationReport(
        ok=not violations and time_ok,
        violations=tuple(violations),
        achieved_T_comm=achieved,
        bound_T_comm=bound,
    )
