"""A fixed yardstick for the speed of the machine at the moment.

The benchmark runs on shared machines whose speed for plain Python swings
by up to 50 % over tens of seconds as other tenants come and go.  Each
timed op is scaled by the calibration rounds measured just before and
after it: a max flow by Dinic's algorithm, in plain Python, on a fixed
graph.  It does the same kind of work as the compiler (whose time is
mostly max flow), but it is the benchmark's own code, so no change to the
library moves it.
"""

from __future__ import annotations

import gc
import random
import time

# A round takes about this long on a quiet 2-vCPU Xeon sandbox; scaled
# times are in seconds on a machine where it takes exactly this long.
REFERENCE_ROUND_S = 0.007


def _grid(n: int = 14, seed: int = 7):
    """n x n grid with random capacities both ways, a source feeding the
    first column and a sink draining the last."""
    rng = random.Random(seed)
    arcs = []
    for v in range(n * n):
        for w in (v + 1, v + n, v + n + 1, v - n + 1):
            if 0 <= w < n * n:
                arcs += [(v, w, rng.randint(1, 9)), (w, v, rng.randint(1, 9))]
    source, sink = n * n, n * n + 1
    for r in range(n):
        arcs += [(source, r * n, 20), (r * n + n - 1, sink, 20)]
    return n * n + 2, arcs, source, sink


SIZE, ARCS, SOURCE, SINK = _grid()


def _max_flow() -> int:
    to, cap, adj = [], [], [[] for _ in range(SIZE)]
    for a, b, c in ARCS:
        adj[a].append(len(to))
        to.append(b)
        cap.append(c)
        adj[b].append(len(to))
        to.append(a)
        cap.append(0)
    flow = 0
    while True:
        level = [-1] * SIZE
        level[SOURCE] = 0
        queue = [SOURCE]
        for v in queue:
            for e in adj[v]:
                if cap[e] and level[to[e]] < 0:
                    level[to[e]] = level[v] + 1
                    queue.append(to[e])
        if level[SINK] < 0:
            return flow
        nxt = [0] * SIZE

        def push(v: int, f: int) -> int:
            if v == SINK:
                return f
            while nxt[v] < len(adj[v]):
                e = adj[v][nxt[v]]
                if cap[e] and level[to[e]] == level[v] + 1:
                    got = push(to[e], min(f, cap[e]))
                    if got:
                        cap[e] -= got
                        cap[e ^ 1] += got
                        return got
                nxt[v] += 1
            return 0

        while f := push(SOURCE, 1 << 60):
            flow += f


def calibration_round() -> float:
    """Seconds one round takes now, with the garbage collector held off so
    that collecting the compiler's garbage is not charged to the round."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _max_flow()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
