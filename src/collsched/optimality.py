"""Exact throughput optimality of allgather on a validated topology.

The optimal per-unit communication time ratio is

    inv_x_star  =  max over cuts S ⊂ V, S not ⊇ all compute nodes
                   of  |S ∩ compute| / B+(S)

where B+(S) is the total bandwidth leaving S.  With k trees per root and
capacities floored to floor(U*b_e), the analogue is the least scale U at
which every cut's floored exit capacity reaches k*|S ∩ compute|.

Both searches return an `OptimalityResult`: k trees per root, each
carrying y = 1/U, on `scale_capacities(t, U)`.  `bottleneck_search` picks
the least U making every U*b_e integral, so there the floor rounds nothing
and the schedule meets inv_x_star exactly; `fixed_k_search` takes k as
given, and the floors make U/k an upper bound.

Both are found by one Newton (Dinkelbach) iteration over cuts instead of
enumerating them.  A probe at value v adds an auxiliary source feeding every
compute node and asks whether every compute node receives N times the
source's per-node supply.  If some node falls short, the source side of its
min cut (minus the auxiliary source) is a cut S whose own value exceeds v,
and the search jumps there; a probe's nodes share one residual state
(`maxflow.short_sink`).  The first probe that succeeds is exactly the
optimum, and the last S is a witness cut that attains it.  Every value probed is
the value of a real cut, so no interval and no rounding are involved.
Each jump strictly raises the value over a finite set of cuts, and for the
ratio Radzik (1992) bounds the jumps strongly polynomially.

All arithmetic is exact rationals; no floating point enters the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CollschedError
from .maxflow import short_sink, source_network
from .topology import Topology, require_tree_count, require_valid


@dataclass(frozen=True)
class OptimalityResult:
    """Outcome of either search: k trees per compute root, each carrying
    y = 1/U, on the network `scale_capacities(t, U)` (every b_e scaled to
    floor(U*b_e)).

    inv_x_star: per-unit time ratio of the schedule (its time is
    inv_x_star / N), U/k;
    U: capacity scale factor;
    k: number of spanning trees per compute root;
    y: bandwidth carried by each tree, 1/U;
    exact: whether inv_x_star is the unrestricted optimum met with
    equality.  `bottleneck_search` sets it, and there U*b_e is integral on
    every link.  `fixed_k_search` does not: the floors can leave the
    realized congestion below U/(N*k), so the ratio is an upper bound;
    witness: a cut S missing some compute node that attains the value —
    |S ∩ compute| / B+(S) = inv_x_star, or for fixed k the cut whose
    floored exit capacity first reaches k*|S ∩ compute| at U;
    search_iterations: the number of feasibility probes.
    """

    inv_x_star: Fraction
    U: Fraction
    k: int
    y: Fraction
    exact: bool
    witness: frozenset[str]
    search_iterations: int

    @property
    def U_star(self) -> Fraction:
        """U under the name the benchmark harness reads from the search
        result a refused fixed-k generation carries."""
        return self.U


# ---------------------------------------------------------------------------
# The cut-jumping search
# ---------------------------------------------------------------------------

def _cut_search(t: Topology, cut_value, probe):
    """Jump from cut to cut until a probe succeeds.

    cut_value(S) is the least value at which cut S no longer binds.
    probe(v) returns (scale, supply): v is feasible iff every compute node
    can receive the demand of `source_network(t, caps, supply)`, caps
    being floor(scale*b_e) on each link.  Returns (optimal value, witness
    cut, number of probes).

    A probe is one Hao-Orlin pass over the sinks (`short_sink`), whose
    failing sink and cut are those of a fresh flow per sink.
    """
    # Start from the cut that leaves out the compute node with the least
    # in-bandwidth; sinks are tried most-recently-failed first.
    sinks = list(t.compute_ids)
    least = min(sinks, key=lambda c: t.in_bw[c])
    witness = frozenset(node.id for node in t.nodes if node.id != least)
    value = cut_value(witness)
    probes = 0
    while True:
        probes += 1
        scale, supply = probe(value)
        p, q = scale.numerator, scale.denominator
        caps = {(l.src, l.dst): p * l.bandwidth // q for l in t.links}
        g, source, target = source_network(t, caps, supply)
        short = short_sink(g, source, sinks, target)
        if short is None:
            return value, witness, probes
        sink, side = short
        sinks.remove(sink)
        sinks.insert(0, sink)
        cut = side - {source}
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

    inv, witness, probes = _cut_search(t, ratio, lambda v: (v.numerator, v.denominator))
    bandwidths = [link.bandwidth for link in t.links]
    U, k, y = derive_schedule_params(inv, bandwidths)
    return OptimalityResult(
        inv_x_star=inv, U=U, k=k, y=y, exact=True, witness=witness, search_iterations=probes
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


def fixed_k_search(t: Topology, k: int) -> OptimalityResult:
    """Least scale U such that k trees per root exist on
    `scale_capacities(t, U)`, whose capacities are floor(U*b_e).

    The result has that U, the given k, y = 1/U, inv_x_star = U/k and
    exact = False.  The ratio U/k is within 1/(k*min b_e) of the
    unrestricted optimum and non-increasing when k doubles.  A cut S binds
    until its floored exit capacity reaches k*|S ∩ compute|, so U is the
    largest of the cuts' least such scales, and the witness is a cut
    attaining it.

    The floors may leave a node's in- and out-capacity unequal.  U is
    well-defined all the same, and the search returns it for every k: tree
    packing needs only the cut condition, and `remove_switches` refuses
    the floors it cannot split.  Raises CollschedError unless k is an int
    >= 1.
    """
    require_valid(t)
    require_tree_count(k)

    def least_scale(S) -> Fraction:
        return _least_floor_scale(_exit_bandwidths(t, S), k * _compute_count(t, S))

    U, witness, probes = _cut_search(t, least_scale, lambda U: (U, k))
    return OptimalityResult(
        inv_x_star=U / k, U=U, k=k, y=1 / U, exact=False, witness=witness, search_iterations=probes
    )
