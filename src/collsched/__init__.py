"""Throughput-optimal schedules for allgather, reduce-scatter and allreduce.

Given a network topology (compute nodes and switches joined by directed
links with integer bandwidths), this package finds the best achievable
communication time for the collective, then constructs a schedule — a
forest of spanning trees rooted at every compute node — that attains it.
Switches are eliminated by provably lossless edge splitting, trees are
grown by maximum-flow guided packing, and the result can be pruned for
multicast/aggregation-capable switches, serialized, and independently
validated.
"""

from .errors import (
    CapacityExhausted,
    CollschedError,
    InvalidTopology,
    NoAddableEdge,
    NotEulerianAfterFloor,
    Overflow,
    StuckSplit,
    TopologyFormatError,
)
from .maxflow import FlowGraph
from .optimality import (
    OptimalityResult,
    bottleneck_search,
    derive_schedule_params,
    fixed_k_search,
)
from .packing import Forest, TreeBatch, pack_spanning_trees
from .pipeline import generate
from .schedule import (
    ALLGATHER,
    ALLREDUCE,
    REDUCE_SCATTER,
    PathUse,
    RootTrees,
    Schedule,
    ScheduleBatch,
    ScheduleEdge,
    assemble_allgather,
    combine_allreduce,
    export,
    link_usage,
    parse_schedule,
    prune_aggregation,
    prune_multicast,
    reverse_for_reduce_scatter,
)
from .splitting import EMap, remove_switches
from .topology import (
    COMPUTE,
    SWITCH,
    Link,
    Node,
    Topology,
    TopologyReport,
    parse_topology,
    scale_capacities,
    serialize_topology,
    synth_topology,
    validate,
)
from .verify import (
    CutWitness,
    ScheduleViolation,
    ValidationReport,
    brute_force_bottleneck,
    random_eulerian_topology,
    validate_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "ALLGATHER",
    "ALLREDUCE",
    "REDUCE_SCATTER",
    "COMPUTE",
    "SWITCH",
    "CapacityExhausted",
    "CollschedError",
    "CutWitness",
    "EMap",
    "FlowGraph",
    "Forest",
    "InvalidTopology",
    "Link",
    "NoAddableEdge",
    "NotEulerianAfterFloor",
    "Node",
    "OptimalityResult",
    "Overflow",
    "PathUse",
    "RootTrees",
    "Schedule",
    "ScheduleBatch",
    "ScheduleEdge",
    "ScheduleViolation",
    "StuckSplit",
    "Topology",
    "TopologyFormatError",
    "TopologyReport",
    "TreeBatch",
    "ValidationReport",
    "assemble_allgather",
    "bottleneck_search",
    "brute_force_bottleneck",
    "combine_allreduce",
    "derive_schedule_params",
    "export",
    "fixed_k_search",
    "generate",
    "link_usage",
    "pack_spanning_trees",
    "parse_schedule",
    "parse_topology",
    "prune_aggregation",
    "prune_multicast",
    "random_eulerian_topology",
    "remove_switches",
    "reverse_for_reduce_scatter",
    "scale_capacities",
    "serialize_topology",
    "synth_topology",
    "validate",
    "validate_schedule",
]
