"""Elide redundant switch hops on multicast- and aggregation-capable fabrics.

Tree edges are routed over physical links, so several tree paths may carry
the same data unit into the same switch.  If the switch can multicast
(allgather) or aggregate (reduce-scatter), only one copy needs to cross the
shared upstream hop; the rest are pruned.  Pruning never changes what is
delivered or the finishing time — it only frees link budget.  Only the
switches' capability flags turn pruning on: the same wiring without them
compiles to the unpruned schedule.
"""

import dataclasses

from collsched import (
    Topology,
    generate,
    link_usage,
    synth_topology,
    validate_schedule,
)

base = synth_topology("boxes", boxes=2, gpus_per_box=4, intra=10, inter=1)

# Same wiring, but every switch can replicate and reduce in-flight data.
smart = Topology(
    [
        dataclasses.replace(nd, multicast=True, aggregation=True)
        if nd.kind == "switch"
        else nd
        for nd in base.nodes
    ],
    base.links,
)

plain, meta = generate(base)
pruned, _ = generate(smart)

before = link_usage(plain)
after = link_usage(pruned)
saved = sum(before.values()) - sum(after.values())
print(f"hop units before pruning: {sum(before.values())}")
print(f"hop units after pruning:  {sum(after.values())}  ({saved} elided)")

print("\nbusiest links (units before -> after):")
for pair in sorted(before, key=before.get, reverse=True)[:5]:
    a, b = pair
    print(f"  {a:5s} -> {b:5s}  {before[pair]:3d} -> {after.get(pair, 0):3d}")

report = validate_schedule(pruned, smart, meta)
same_time = report.achieved_T_comm == validate_schedule(plain, smart).achieved_T_comm
print(f"\npruned schedule still valid: {report.ok}")
print(f"finishing time unchanged:    {same_time}")

# A pruned path keeps only its hops from the switch that fans it out, so
# it starts there instead of at its edge's tail.  Without the capability
# nothing is elided and every path starts at its tail.
def starts_at_tails(s):
    return all(
        p.path[0] == e.src for rt in s.roots for b in rt.batches for e in b.edges for p in e.paths
    )


print(f"\npaths cut at a multicast switch: {not starts_at_tails(pruned)}")
print(f"no-capability fabric unpruned:   {starts_at_tails(plain)}")
