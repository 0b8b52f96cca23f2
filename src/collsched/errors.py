"""Exception types shared across the package.

Everything raised on purpose derives from CollschedError so callers (and the
CLI) can distinguish expected failures from genuine bugs.  Validation of
topologies and schedules does NOT raise — violations are returned as data —
but operations whose preconditions are broken do.
"""


class CollschedError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# Topology parsing / construction
# ---------------------------------------------------------------------------

class TopologyFormatError(CollschedError):
    """The topology document is structurally unusable."""


class MalformedDocument(TopologyFormatError):
    """Not valid JSON, or the top-level shape is wrong."""


class UnknownNodeKind(TopologyFormatError):
    """A node's "kind" is neither "compute" nor "switch"."""


class DuplicateNodeId(TopologyFormatError):
    """Two nodes share an id."""


class UnknownEndpoint(TopologyFormatError):
    """A link references a node id that was never declared."""


class NonIntegerBandwidth(TopologyFormatError):
    """A link bandwidth is not a positive JSON integer."""


class InvalidTopology(CollschedError):
    """An operation that requires a validated topology got an invalid one.

    Carries the list of Violation records under ``self.violations``.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        summary = "; ".join(str(v) for v in self.violations) or "invalid topology"
        super().__init__(summary)


# ---------------------------------------------------------------------------
# Arithmetic / capacity budget
# ---------------------------------------------------------------------------

class Overflow(CollschedError):
    """A capacity (or a sum of capacities) exceeds the signed 64-bit budget.

    All algorithms work in exact integers; rather than silently degrade we
    refuse inputs whose cleared-denominator capacities leave the budget.
    """


class NonIntegralScale(CollschedError):
    """Scaling a topology by U left a non-integer capacity U*b_e."""


class NotEulerianAfterFloor(CollschedError):
    """The capacity-floored graph of a fixed tree-count search is not
    Eulerian, so switch removal (and hence schedule realization) is
    impossible for that tree count.

    The completed search result is still available as ``self.result``.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


# ---------------------------------------------------------------------------
# Switch removal / path recovery
# ---------------------------------------------------------------------------

class StuckSplit(CollschedError):
    """An egress arc of a switch could not be fully consumed by any ingress
    pairing.  Theory guarantees this never happens when the preconditions
    hold, so this indicates an upstream bug (reported, never retried)."""

    def __init__(self, switch, egress_head, remaining):
        self.switch = switch
        self.egress_head = egress_head
        self.remaining = remaining
        super().__init__(
            f"cannot consume egress ({switch} -> {egress_head}); "
            f"{remaining} capacity units stuck"
        )


class CapacityExhausted(CollschedError):
    """A path expansion requested more capacity for a logical edge than the
    physical topology (direct arc plus recovery-table entries) can still
    provide.  Signals a packing/recovery inconsistency."""


# ---------------------------------------------------------------------------
# Tree packing
# ---------------------------------------------------------------------------

class NoAddableEdge(CollschedError):
    """No frontier arc of an incomplete tree batch admits a positive
    multiplicity.  Theory guarantees progress, so this is an upstream bug."""

    def __init__(self, root, members, frontier):
        self.root = root
        self.members = sorted(members)
        self.frontier = list(frontier)
        super().__init__(
            f"tree batch rooted at {root} cannot grow past {len(self.members)} "
            f"vertices; frontier arcs tried: {self.frontier}"
        )


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

class MismatchedForest(CollschedError):
    """Two schedules that must come from the same packed forest do not."""


class TooLarge(CollschedError):
    """The exhaustive cut enumeration budget (2^|V|) would be exceeded."""
