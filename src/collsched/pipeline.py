"""End-to-end schedule generation: search, split, pack, assemble, prune.

The reduce-scatter schedule is the mechanical reversal of the allgather
trees (in-trees aggregating at each root); allreduce chains both phases
over the same forest.  On topologies whose links all have an equal-
bandwidth reverse twin this preserves validity and optimality; on
merely-Eulerian asymmetric networks the reversed phase can overdraw
individual links, which self-validation reports honestly rather than
papering over.
"""

from __future__ import annotations

from .errors import CollschedError
from .optimality import bottleneck_search, fixed_k_search
from .packing import pack_spanning_trees
from .schedule import (
    ALLGATHER,
    ALLREDUCE,
    REDUCE_SCATTER,
    Schedule,
    assemble_allgather,
    combine_allreduce,
    prune_aggregation,
    prune_multicast,
    reverse_for_reduce_scatter,
)
from .splitting import remove_switches
from .topology import Link, Topology, require_valid, scale_capacities

COLLECTIVES = (ALLGATHER, REDUCE_SCATTER, ALLREDUCE)


def _scaled_for_fixed_k(t: Topology, meta) -> Topology:
    floored = sorted(meta.floored_capacities.items())
    return Topology(t.nodes, [Link(a, b, c) for (a, b), c in floored if c > 0])


def generate(
    t: Topology,
    collective: str = ALLGATHER,
    fixed_k: int | None = None,
    prune: bool = True,
):
    """Produce a schedule for the collective on a validated topology.

    Returns (schedule, meta) where meta is the optimality search result
    (fixed-k variant when `fixed_k` is given — NotEulerianAfterFloor
    propagates if the floored capacities cannot be balanced).  The schedule
    carries meta's U, k, y, inv_x_star and exactness itself, so it validates
    on its own; meta adds what only the search knows, and passed as
    `validate_schedule`'s `expected` it cross-checks those claims.  With
    `prune`, multicast/aggregation elision runs when the topology declares
    capable switches.  Switch removal and packing both take a plain
    Topology (t scaled by U, or floored for fixed k, then its compute-only
    remainder) and the tree count k as an argument.
    """
    if collective not in COLLECTIVES:
        raise CollschedError(f"unknown collective {collective!r}")
    require_valid(t)
    if fixed_k is not None:
        meta = fixed_k_search(t, fixed_k)
        scaled = _scaled_for_fixed_k(t, meta)
    else:
        meta = bottleneck_search(t)
        scaled = scale_capacities(t, meta.U)
    logical, emap = remove_switches(scaled, meta.k)
    forest = pack_spanning_trees(logical, meta.k)
    ag = assemble_allgather(forest, emap, scaled, meta)
    if collective == ALLGATHER:
        return (prune_multicast(ag, t) if prune else ag), meta
    if collective == REDUCE_SCATTER:
        rs = reverse_for_reduce_scatter(ag)
        return (prune_aggregation(rs, t) if prune else rs), meta
    ag_final = prune_multicast(ag, t) if prune else ag
    rs = reverse_for_reduce_scatter(ag)
    rs_final = prune_aggregation(rs, t) if prune else rs
    return combine_allreduce(rs_final, ag_final), meta
