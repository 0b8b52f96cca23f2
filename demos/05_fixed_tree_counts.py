"""Trade schedule size against throughput with a fixed tree count.

The exact bound may need many trees per root (k up to the largest link
bandwidth), and every tree costs real resources on a GPU: queue pairs,
kernel slots, synchronization.  `fixed_k_search` caps the forest at k trees
per root and finds the best achievable time under that cap by flooring
each scaled capacity to a multiple of the per-tree bandwidth.  The result
is within 1/(k * min_bandwidth) of optimal and can only improve when k
doubles, so a handful of trees is usually enough.
"""

from collsched import bottleneck_search, fixed_k_search, generate, synth_topology

t = synth_topology("boxes", boxes=3, gpus_per_box=2, intra=7, inter=3)
opt = bottleneck_search(t)
min_b = min(l.bandwidth for l in t.links)
print(f"unconstrained optimum: 1/x* = {opt.inv_x_star} with k = {opt.k} trees/root\n")

print(" k   achieved    gap        guarantee")
for k in (1, 2, 4, 8):
    res = fixed_k_search(t, k)
    gap = res.inv_x_star - opt.inv_x_star
    bound = f"1/{k * min_b}"
    print(f" {k}   {str(res.inv_x_star):9s}  {str(gap):9s}  <= {bound}")

# A fixed-k result feeds straight into schedule generation.
s, meta = generate(t, fixed_k=2)
print(f"\nfixed_k=2 schedule: {s.k} trees per root, exact bound: {meta.exact}")
print(f"roots x trees = {len(s.roots)} x {s.k}")
