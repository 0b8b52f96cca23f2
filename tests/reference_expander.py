"""The recursive path expander that `splitting.PathExpander` replaced,
kept as a reference: each call walks the arc's direct capacity and then
its EMap entries by switch id, expanding both sub-arcs of every entry it
draws from and stitching their paths end to end.  The cursor expander
must return what this one returns, call for call, and raise where it
raises."""

from collsched.errors import CapacityExhausted, CollschedError


class ReferenceExpander:
    def __init__(self, emap, scaled) -> None:
        self._direct = dict(scaled.capacity)
        self._via = {pair: dict(ws) for pair, ws in emap.entries.items()}

    def expand(self, edge, multiplicity):
        if multiplicity <= 0:
            raise CollschedError("multiplicity must be positive")
        remaining = multiplicity
        out = []
        direct = min(self._direct.get(edge, 0), remaining)
        if direct > 0:
            self._direct[edge] -= direct
            out.append((edge, direct))
            remaining -= direct
        via = self._via.get(edge, {})
        for w in sorted(via):
            if remaining == 0:
                break
            take = min(via[w], remaining)
            if take == 0:
                continue
            u, t = edge
            left = self.expand((u, w), take)
            right = self.expand((w, t), take)
            via[w] -= take
            out.extend(stitch(left, right))
            remaining -= take
        if remaining > 0:
            raise CapacityExhausted(
                f"logical arc {edge} lacks {remaining} of {multiplicity} units"
            )
        return out


def stitch(left, right):
    """Pair two path decompositions of equal total units end to end."""
    out = []
    i = j = 0
    lneed = left[0][1] if left else 0
    rneed = right[0][1] if right else 0
    while i < len(left) and j < len(right):
        take = min(lneed, rneed)
        out.append((left[i][0] + right[j][0][1:], take))
        lneed -= take
        rneed -= take
        if lneed == 0:
            i += 1
            lneed = left[i][1] if i < len(left) else 0
        if rneed == 0:
            j += 1
            rneed = right[j][1] if j < len(right) else 0
    return out
