"""Generate bound-achieving schedules for allgather, reduce-scatter, allreduce.

`generate` runs the full pipeline: find the throughput bound, scale
bandwidths to integers, dissolve switches into logical compute-to-compute
capacity, pack k spanning out-trees per root into that capacity, and route
each tree edge back over the physical links.  The result always achieves
the bound exactly — `validate_schedule` replays every tree against the raw
topology and checks delivered units, link budgets, and the clock.
"""

from fractions import Fraction

from collsched import export, generate, synth_topology, validate_schedule

t = synth_topology("boxes", boxes=2, gpus_per_box=4, intra=10, inter=1)
n = t.num_compute

for collective in ("allgather", "reduce_scatter", "allreduce"):
    s, meta = generate(t, collective=collective)
    report = validate_schedule(s, t, meta)
    print(
        f"{collective:15s} T_comm = {report.achieved_T_comm} per unit "
        f"(bound {Fraction(meta.inv_x_star, n)}"
        f"{' per phase' if collective == 'allreduce' else ''}), "
        f"valid: {report.ok}"
    )

# Inspect the allgather forest: one root per compute node, k trees each.
s, meta = generate(t)
root = s.roots[0]
print(f"\nroot {root.root}: {len(root.batches)} tree batch(es)")
batch = root.batches[0]
print(f"  multiplicity {batch.multiplicity}, {len(batch.edges)} edges")
for e in batch.edges[:4]:
    hops = " ".join("->".join(p.path) for p in e.paths)
    print(f"    {e.src} -> {e.dst} via {hops}")
print("    ...")

# Schedules serialize to JSON (machine exchange) and DOT (inspection).
doc = export(s, "json")
print(f"\nJSON export: {len(doc)} bytes, starts {doc[:60]!r}")
dot = export(s, "dot")
print(f"DOT export:  {dot.count('digraph')} digraphs, one per root")
