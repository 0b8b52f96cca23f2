"""Find the exact throughput ceiling of a network and the cut that causes it.

For an allgather over N compute nodes, no schedule can finish faster than
the tightest sparsest-cut ratio 1/x* allows: take any vertex set S that
misses at least one compute node; the computes inside S must ship their
data out through S's exit links, so time-per-unit is at least
|S ∩ computes| / exit-bandwidth(S).  `bottleneck_search` finds the worst
such ratio exactly (as a Fraction) with max-flow probes: a probe that fails
names a cut with a higher ratio, the search jumps to that ratio, and the
first probe that succeeds proves the last cut optimal.  That cut comes
back as the result's witness for a network of any size.
`brute_force_bottleneck` enumerates every cut (up to 22 vertices) and is
the independent oracle used throughout the test suite.
"""

from collsched import (
    bottleneck_search,
    brute_force_bottleneck,
    derive_schedule_params,
    synth_topology,
)

# Two boxes of four GPUs: fast links inside a box, one slow uplink each.
t = synth_topology("boxes", boxes=2, gpus_per_box=4, intra=10, inter=1)

res = bottleneck_search(t)
print(f"1/x* = {res.inv_x_star}  (found in {res.search_iterations} probes)")
print(f"bottleneck cut S = {sorted(res.witness)}")
print(f"schedule shape: k = {res.k} trees per root, y = {res.y} per tree,")
print(f"bandwidth scale U = {res.U}")

oracle, witness = brute_force_bottleneck(t)
print(f"\nexhaustive enumeration agrees: {oracle == res.inv_x_star}")
print(f"its fewest-vertex witness S = {sorted(witness.S)}")
print(
    f"  {witness.compute_count} computes exit over bandwidth "
    f"{witness.exit_bandwidth} -> ratio {witness.ratio}"
)

# The same derivation works for any rational bound and link profile:
U, k, y = derive_schedule_params(oracle, [l.bandwidth for l in t.links])
print(f"\nparams re-derived from the ratio alone: U={U}, k={k}, y={y}")

# On a ring, the bound comes from the long way around.
ring = synth_topology("ring", n=8, bw=1)
res = bottleneck_search(ring)
oracle, witness = brute_force_bottleneck(ring)
print(f"\nring(8): 1/x* = {res.inv_x_star}, witness S = {sorted(witness.S)}")

# Eight boxes have 41 vertices, beyond enumeration; the search still names
# the cut: everything but one box, whose four GPUs hang off 1-wide uplinks.
boxes = synth_topology("boxes", boxes=8, gpus_per_box=4, intra=8, inter=1)
res = bottleneck_search(boxes)
left_out = sorted(v.id for v in boxes.nodes if v.id not in res.witness)
print(f"\nboxes(8x4): 1/x* = {res.inv_x_star}, S leaves out {left_out}")
