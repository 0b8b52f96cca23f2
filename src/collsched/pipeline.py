"""End-to-end schedule generation: search, split, pack, assemble, prune.

An allgather is the packed forest of broadcast trees, pruned for the
topology's multicast switches.  A reduce-scatter is an allgather on the
transposed network run backwards: the same trees, pruned for multicast on
`transpose(t)` (whose multicast switches are t's aggregating ones), then
reversed into in-trees aggregating at each root.  An allreduce chains that
reduce-scatter with the allgather.  Nothing but the switches' `multicast`
and `aggregation` flags turns pruning on: on a network without them,
pruning changes nothing.  Pruning reads only the multicast set, so when
t's aggregating switches are exactly its multicast ones, the allgather
pruned for t serves both phases: `generate` prunes once and builds no
transpose.

On topologies whose links all have an equal-bandwidth reverse twin the
reversal preserves validity and optimality; on merely-Eulerian asymmetric
networks the reversed phase can overdraw individual links, which
self-validation reports honestly rather than papering over.
"""

from __future__ import annotations

from .errors import CollschedError, NotEulerianAfterFloor
from .optimality import bottleneck_search, fixed_k_search
from .packing import pack_spanning_trees
from .schedule import (
    ALLGATHER,
    ALLREDUCE,
    REDUCE_SCATTER,
    assemble_allgather,
    combine_allreduce,
    prune_multicast,
    reverse_for_reduce_scatter,
)
from .splitting import remove_switches
from .topology import Topology, scale_capacities, transpose

COLLECTIVES = (ALLGATHER, REDUCE_SCATTER, ALLREDUCE)


def generate(t: Topology, collective: str = ALLGATHER, fixed_k: int | None = None):
    """Produce a schedule for the collective on a validated topology.

    Returns (schedule, meta) where meta is the search result:
    `bottleneck_search(t)`, or `fixed_k_search(t, fixed_k)` when a tree
    count is given.  Either way the rest is one path: t scaled by
    `scale_capacities(t, meta.U)`, switch removal and packing for meta.k
    trees per root, assembly and pruning.  Switch removal refuses a
    fixed-k floor that leaves some switch with in != out; its
    NotEulerianAfterFloor propagates with meta as ``result``.  The
    schedule carries meta's U, k, y, inv_x_star, exactness and witness
    cut itself, so it validates, and certifies its bound, on its own;
    passed as `validate_schedule`'s `expected`, meta cross-checks those
    claims.
    """
    if collective not in COLLECTIVES:
        raise CollschedError(f"unknown collective {collective!r}")
    meta = bottleneck_search(t) if fixed_k is None else fixed_k_search(t, fixed_k)
    scaled = scale_capacities(t, meta.U)
    try:
        logical, emap = remove_switches(scaled, meta.k)
    except NotEulerianAfterFloor as exc:
        exc.result = meta
        raise
    forest = pack_spanning_trees(logical, meta.k)
    ag = assemble_allgather(forest, emap, scaled, meta)
    if collective == ALLGATHER:
        return prune_multicast(ag, t), meta
    # Pruning reads only the multicast set, and transpose(t)'s is t's
    # aggregation set: when the two match, one prune serves both phases.
    same = {n.id for n in t.nodes if n.aggregation} == {n.id for n in t.nodes if n.multicast}
    fanned_in = prune_multicast(ag, t if same else transpose(t))
    rs = reverse_for_reduce_scatter(fanned_in)
    if collective == REDUCE_SCATTER:
        return rs, meta
    return combine_allreduce(rs, fanned_in if same else prune_multicast(ag, t)), meta
