"""Exact throughput optimality of allgather on a validated topology.

The optimal per-unit communication time ratio is

    inv_x_star  =  max over cuts S ⊂ V, S not ⊇ all compute nodes
                   of  |S ∩ compute| / B+(S)

where B+(S) is the total bandwidth leaving S.  With k trees per root and
capacities floored to floor(U*b_e), the analogue is the least scale U_star
at which every cut's floored exit capacity reaches k*|S ∩ compute|.

Both are found by one Newton (Dinkelbach) iteration over cuts instead of
enumerating them.  A probe at value v adds an auxiliary source feeding every
compute node and asks whether every compute node receives N times the
source's per-node supply.  If some node falls short, the source side of its
min cut (minus the auxiliary source) is a cut S whose own value exceeds v,
and the search jumps there.  The first probe that succeeds is exactly the
optimum, and the last S is a witness cut that attains it.  Every value
probed is the value of a real cut, so no interval and no rounding are
involved.  Each jump strictly raises the value over a finite set of cuts,
and for the ratio Radzik (1992) bounds the jumps strongly polynomially.

All arithmetic is exact rationals; no floating point enters the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CollschedError, NotEulerianAfterFloor, Overflow
from .maxflow import FlowGraph, fresh_name
from .topology import CAPACITY_BUDGET, Topology, require_valid


@dataclass(frozen=True)
class OptimalityResult:
    """Outcome of the unrestricted optimality search.

    inv_x_star: exact optimal ratio (per-unit time is inv_x_star / N);
    U: capacity scale factor (U*b_e is integral for every link);
    k: number of spanning trees per compute root;
    y: bandwidth carried by each tree (y = 1/U, and k*y = 1/inv_x_star);
    witness: a cut S missing some compute node with
    |S ∩ compute| / B+(S) = inv_x_star;
    search_iterations: the number of feasibility probes.
    """

    inv_x_star: Fraction
    U: Fraction
    k: int
    y: Fraction
    search_iterations: int
    witness: frozenset[str]

    # The congestion bound inv_x_star/N is met with equality by generated
    # schedules; fixed-k results override this.
    @property
    def exact(self) -> bool:
        return True


@dataclass(frozen=True)
class FixedKResult:
    """Outcome of the tree-count-restricted search.

    U_star is the minimal scale such that k trees per root exist in the
    graph with capacities floor(U_star*b_e); achieved_inv_throughput =
    U_star/k is the corresponding per-unit time ratio (>= the unrestricted
    inv_x_star, within 1/(k*min b_e) of it).  witness is a cut S missing
    some compute node whose floored exit capacity first reaches
    k*|S ∩ compute| at U_star.
    """

    k: int
    U_star: Fraction
    achieved_inv_throughput: Fraction
    floored_capacities: dict[tuple[str, str], int]
    search_iterations: int
    witness: frozenset[str]

    # Uniform metadata interface shared with OptimalityResult so the
    # schedule assembly and validator can consume either.
    @property
    def inv_x_star(self) -> Fraction:
        return self.achieved_inv_throughput

    @property
    def U(self) -> Fraction:
        return self.U_star

    @property
    def y(self) -> Fraction:
        return 1 / self.U_star

    @property
    def exact(self) -> bool:
        # Capacity floors can leave the realized congestion strictly below
        # U_star/(N*k), so the bound is an upper bound, not an identity.
        return False


# ---------------------------------------------------------------------------
# The cut-jumping search
# ---------------------------------------------------------------------------

def _cut_search(t: Topology, cut_value, probe_capacities):
    """Jump from cut to cut until a probe succeeds.

    cut_value(S) is the least value at which cut S no longer binds.
    probe_capacities(v) returns (capacity of each link, supply): v is
    feasible iff an auxiliary source with a `supply` arc to each compute
    node can send N * supply to every compute node.  Returns
    (optimal value, witness cut, number of probes).
    """
    source = fresh_name("s", t.node_by_id)
    vertices = [node.id for node in t.nodes] + [source]
    # Start from the cut that leaves out the compute node with the least
    # in-bandwidth; sinks are tried most-recently-failed first.
    sinks = list(t.compute_ids)
    least = min(sinks, key=lambda c: t.in_bw[c])
    witness = frozenset(node.id for node in t.nodes if node.id != least)
    value = cut_value(witness)
    probes = 0
    while True:
        probes += 1
        caps, supply = probe_capacities(value)
        arcs = [(a, b, c) for (a, b), c in caps.items() if c > 0]
        arcs += [(source, c, supply) for c in t.compute_ids]
        g = FlowGraph(vertices, arcs)
        target = t.num_compute * supply
        for i, sink in enumerate(sinks):
            res, _ = g.run_keep(source, sink, limit=target)
            if res.value < target:
                sinks.insert(0, sinks.pop(i))
                cut = res.source_side - {source}
                break
        else:
            return value, witness, probes
        jump = cut_value(cut)
        if jump <= value:
            # Theory guarantees the failing cut's own value exceeds the
            # probe; anything else means an exactness bug.
            raise CollschedError(
                f"min cut {sorted(cut)} does not raise the search value past {value}"
            )
        value, witness = jump, cut


def _compute_count(t: Topology, S) -> int:
    return sum(1 for c in t.compute_ids if c in S)


def _exit_bandwidths(t: Topology, S) -> list[int]:
    return [l.bandwidth for l in t.links if l.src in S and l.dst not in S]


# ---------------------------------------------------------------------------
# Unrestricted optimality search
# ---------------------------------------------------------------------------

def bottleneck_search(t: Topology) -> OptimalityResult:
    """Compute the exact optimal ratio inv_x_star plus (U, k, y) and a
    witness cut attaining it.

    A probe at ratio p/q gives each compute node an auxiliary arc of
    x = q/p, with every capacity multiplied by p to keep the graph
    integral; it is feasible iff p/q >= inv_x_star.
    """
    require_valid(t)

    def ratio(S) -> Fraction:
        return Fraction(_compute_count(t, S), sum(_exit_bandwidths(t, S)))

    def capacities(inv: Fraction):
        p = inv.numerator
        return {(l.src, l.dst): l.bandwidth * p for l in t.links}, inv.denominator

    inv, witness, probes = _cut_search(t, ratio, capacities)
    bandwidths = [link.bandwidth for link in t.links]
    U, k, y = derive_schedule_params(inv, bandwidths)
    return OptimalityResult(
        inv_x_star=inv, U=U, k=k, y=y, search_iterations=probes, witness=witness
    )


def derive_schedule_params(
    inv_x_star: Fraction, bandwidths
) -> tuple[Fraction, int, Fraction]:
    """Smallest (U, k, y) realizing the ratio: with inv_x_star = p/q in
    lowest terms and g = gcd(q, all bandwidths), U = p/g, k = q/g, y = g/p.

    U*b_e is then integral for every link, k = U/inv_x_star is the minimum
    integer tree count admitting such a scale, and each tree carries y.
    """
    inv = Fraction(inv_x_star)
    p, q = inv.numerator, inv.denominator
    g = q
    for b in bandwidths:
        g = math.gcd(g, b)
        if g == 1:
            break
    U = Fraction(p, g)
    k = q // g
    y = Fraction(g, p)
    return U, k, y


# ---------------------------------------------------------------------------
# Fixed tree-count search
# ---------------------------------------------------------------------------

def _floored_caps(t: Topology, U: Fraction) -> dict[tuple[str, str], int]:
    num, den = U.numerator, U.denominator
    return {
        (l.src, l.dst): (num * l.bandwidth) // den for l in t.links
    }


def _least_floor_scale(bandwidths: list[int], target: int) -> Fraction:
    """Least U with sum(floor(U*b)) >= target.

    The sum never exceeds U*sum(b), so U starts at target/sum(b), where it
    falls short by fewer than len(bandwidths) units; each step moves to the
    next breakpoint j/b and gains at least one unit.
    """
    U = Fraction(target, sum(bandwidths))
    while sum(U.numerator * b // U.denominator for b in bandwidths) < target:
        U = min(Fraction(U.numerator * b // U.denominator + 1, b) for b in bandwidths)
    return U


def fixed_k_search(t: Topology, k: int) -> FixedKResult:
    """Minimal scale U_star such that k trees per root exist with capacities
    floor(U_star*b_e); the achieved ratio U_star/k is within 1/(k*min b_e)
    of the unrestricted optimum and non-increasing when k doubles.

    A cut S binds until its floored exit capacity reaches k*|S ∩ compute|,
    so U_star is the largest of the cuts' least such scales.

    Raises NotEulerianAfterFloor — with the finished result attached as
    ``exc.result`` — when the floored capacities are not balanced at every
    node, in which case no schedule can be realized for this k even though
    U_star itself is well-defined.
    """
    require_valid(t)
    if k < 1:
        raise CollschedError(f"tree count must be >= 1, got {k}")

    max_b = max(l.bandwidth for l in t.links)

    def least_scale(S) -> Fraction:
        return _least_floor_scale(_exit_bandwidths(t, S), k * _compute_count(t, S))

    def capacities(U: Fraction):
        if U.numerator * max_b > CAPACITY_BUDGET:
            raise Overflow("probe scale exceeds the capacity budget")
        return _floored_caps(t, U), k

    U_star, witness, probes = _cut_search(t, least_scale, capacities)
    floored = _floored_caps(t, U_star)
    result = FixedKResult(
        k=k,
        U_star=U_star,
        achieved_inv_throughput=U_star / k,
        floored_capacities=floored,
        search_iterations=probes,
        witness=witness,
    )
    balance: dict[str, int] = {node.id: 0 for node in t.nodes}
    for (a, b), c in floored.items():
        balance[a] -= c
        balance[b] += c
    unbalanced = sorted(node for node, d in balance.items() if d != 0)
    if unbalanced:
        raise NotEulerianAfterFloor(
            f"floored capacities for k={k} are unbalanced at {', '.join(unbalanced)}",
            result=result,
        )
    return result
