"""Exception types shared across the package.

Everything raised on purpose derives from CollschedError so callers (and the
CLI) can distinguish expected failures from genuine bugs.  Validation of
topologies and schedules does NOT raise — violations are returned as data —
but operations whose preconditions are broken do.

A subclass exists where it carries state for the caller (InvalidTopology,
NotEulerianAfterFloor, StuckSplit, NoAddableEdge) or names a failure of its
own kind (Overflow, CapacityExhausted).  Every other failure raises its
parent class, with a message that says what went wrong.
"""


class CollschedError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# Topology parsing / construction
# ---------------------------------------------------------------------------

class TopologyFormatError(CollschedError):
    """The topology document is structurally unusable: not valid JSON, a
    wrong shape or field type, an unknown field, node kind or endpoint, a
    duplicate node id, or a bandwidth that is not a positive integer.  The
    message names which."""


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


class NotEulerianAfterFloor(CollschedError):
    """A switch of the capacity-floored network of a fixed tree-count
    search has unequal in- and out-capacity, which switch removal cannot
    split.  The floor is refused, though a schedule for that tree count
    may well exist (ROADMAP item 2).

    `generate` attaches the search result as ``self.result``;
    `remove_switches` itself raises with None there.
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
