"""Matching-kernel and online-simulation benchmarks (machine-readable).

Measures the array-native matching stack against a faithful port of the
**pre-PR ("legacy") kernels** — Python-tuple edge lists, per-call
adjacency dicts, float-distance Hopcroft–Karp, O(Δ) first-free color
scans, and the per-round rebuild-everything simulator loop — so the
speedup of the incremental engine is quantified, not asserted.

Two ways to run:

* As a script (no pytest-benchmark needed; what CI's bench-smoke uses)::

      PYTHONPATH=src python benchmarks/bench_matching.py --json-out
      PYTHONPATH=src python benchmarks/bench_matching.py --quick --json-out

  Writes ``BENCH_matching.json`` with ops/sec per kernel per size
  (including the max-weight kernel behind MinRTime/MaxWeight), the
  legacy-vs-new MaxCard simulation throughput at n≈2000 flows, solo
  MinRTime and MaxWeight simulation times, and the cold-vs-warm BFS
  phase counts on a churn-heavy instance (asserted: warm must do
  strictly fewer phases).

* Under pytest-benchmark (interactive profiling)::

      PYTHONPATH=src pytest benchmarks/bench_matching.py --benchmark-only \
          --json-out

  The ``--json-out`` flag (added by ``benchmarks/conftest.py``) writes
  the same JSON schema from the pytest-benchmark timings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import deque

import numpy as np

from repro.core.metrics import ScheduleMetrics
from repro.core.schedule import Schedule
from repro.matching.bipartite import BipartiteMultigraph
from repro.matching.edge_coloring import edge_color_bipartite
from repro.matching.hopcroft_karp import max_cardinality_matching
from repro.matching.weight_matching import max_weight_matching_arrays
from repro.online.policies import MaxCardPolicy, make_policy
from repro.online.simulator import simulate
from repro.workloads.synthetic import (
    churn_heavy_workload,
    poisson_uniform_workload,
)

# ---------------------------------------------------------------------------
# Legacy (pre-PR) kernels, ported verbatim for comparison
# ---------------------------------------------------------------------------

_INF = float("inf")


def legacy_hopcroft_karp(n_left, n_right, edges):
    """The seed repo's Hopcroft–Karp: per-call adjacency, float layers."""
    adj = [[] for _ in range(n_left)]
    for eid, (u, v) in enumerate(edges):
        adj[u].append((v, eid))
    match_left = [-1] * n_left
    match_right = [-1] * n_right
    edge_left = [-1] * n_left
    dist = [0.0] * n_left

    def bfs():
        queue = deque()
        for u in range(n_left):
            if match_left[u] == -1:
                dist[u] = 0.0
                queue.append(u)
            else:
                dist[u] = _INF
        found = False
        while queue:
            u = queue.popleft()
            for v, _eid in adj[u]:
                w = match_right[v]
                if w == -1:
                    found = True
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(root):
        stack = [[root, 0]]
        path = []
        while stack:
            frame = stack[-1]
            u, idx = frame
            advanced = False
            while idx < len(adj[u]):
                v, eid = adj[u][idx]
                idx += 1
                frame[1] = idx
                w = match_right[v]
                if w == -1:
                    path.append((u, v, eid))
                    for pu, pv, peid in path:
                        match_left[pu] = pv
                        match_right[pv] = pu
                        edge_left[pu] = peid
                    return True
                if dist[w] == dist[u] + 1:
                    path.append((u, v, eid))
                    stack.append([w, 0])
                    advanced = True
                    break
            if not advanced:
                dist[u] = _INF
                stack.pop()
                if path:
                    path.pop()
        return False

    while bfs():
        for u in range(n_left):
            if match_left[u] == -1:
                dfs(u)
    return {u: edge_left[u] for u in range(n_left) if match_left[u] != -1}


def legacy_edge_color(graph):
    """The seed repo's König coloring: O(Δ) first-free scans."""
    delta = graph.max_degree()
    n_edges = graph.n_edges
    colors = np.full(n_edges, -1, dtype=np.int64)
    if n_edges == 0:
        return colors
    left_slot = [[-1] * delta for _ in range(graph.n_left)]
    right_slot = [[-1] * delta for _ in range(graph.n_right)]

    def first_free(slots):
        for c, eid in enumerate(slots):
            if eid == -1:
                return c
        raise AssertionError

    def flip(start_right, alpha, beta):
        path_edges = []
        side_right = True
        vertex = start_right
        color = alpha
        while True:
            slots = right_slot[vertex] if side_right else left_slot[vertex]
            eid = slots[color]
            if eid == -1:
                break
            path_edges.append(eid)
            u2, v2 = graph.edges[eid]
            vertex = u2 if side_right else v2
            side_right = not side_right
            color = beta if color == alpha else alpha
        for eid in path_edges:
            u2, v2 = graph.edges[eid]
            c = int(colors[eid])
            left_slot[u2][c] = -1
            right_slot[v2][c] = -1
        for eid in path_edges:
            u2, v2 = graph.edges[eid]
            c = int(colors[eid])
            new_c = beta if c == alpha else alpha
            colors[eid] = new_c
            left_slot[u2][new_c] = eid
            right_slot[v2][new_c] = eid

    for eid, (u, v) in enumerate(graph.edges):
        alpha = first_free(left_slot[u])
        beta = first_free(right_slot[v])
        if left_slot[u][beta] == -1:
            colors[eid] = beta
            left_slot[u][beta] = eid
            right_slot[v][beta] = eid
            continue
        if right_slot[v][alpha] == -1:
            colors[eid] = alpha
            left_slot[u][alpha] = eid
            right_slot[v][alpha] = eid
            continue
        flip(v, alpha, beta)
        colors[eid] = alpha
        left_slot[u][alpha] = eid
        right_slot[v][alpha] = eid
    return colors


def legacy_simulate_maxcard(instance):
    """The seed repo's simulator loop + MaxCard: rebuild G_t every round."""
    n = instance.num_flows
    sw = instance.switch
    max_rounds = 2 * instance.horizon_bound() + 1
    by_release = instance.flows_by_release()
    assignment = np.full(n, -1, dtype=np.int64)
    waiting = {}
    scheduled = 0
    queue_history = []
    t = 0
    while scheduled < n:
        if t >= max_rounds:
            raise RuntimeError("exceeded")
        for flow in by_release.get(t, ()):
            waiting[flow.fid] = flow
        queue_history.append(len(waiting))
        if waiting:
            flows = list(waiting.values())
            matching = legacy_hopcroft_karp(
                sw.num_inputs, sw.num_outputs,
                [(f.src, f.dst) for f in flows],
            )
            chosen = [flows[eid].fid for eid in matching.values()]
            in_load, out_load, seen = {}, {}, set()
            for fid in chosen:
                if fid in seen:
                    raise RuntimeError("dup")
                seen.add(fid)
                f = waiting[fid]
                in_load[f.src] = in_load.get(f.src, 0) + f.demand
                out_load[f.dst] = out_load.get(f.dst, 0) + f.demand
            for p, load in in_load.items():
                assert load <= sw.input_capacity(p)
            for q, load in out_load.items():
                assert load <= sw.output_capacity(q)
            for fid in chosen:
                assignment[fid] = t
                del waiting[fid]
            scheduled += len(chosen)
        t += 1
    schedule = Schedule(instance, assignment)
    return schedule, ScheduleMetrics.of(schedule), np.asarray(queue_history)


# ---------------------------------------------------------------------------
# Workloads and timing helpers
# ---------------------------------------------------------------------------


def _random_graph(m, n_edges, seed=0):
    rng = np.random.default_rng(seed)
    g = BipartiteMultigraph(m, m)
    g.add_edges(
        rng.integers(0, m, size=n_edges), rng.integers(0, m, size=n_edges)
    )
    return g


def _weighted_pairs(m, n_edges, seed=0):
    """Distinct random port pairs with integer weights, the shape of the
    simulator's per-round pair view for MinRTime/MaxWeight."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(m * m, size=n_edges, replace=False)
    weights = rng.integers(1, 40, size=n_edges).astype(float)
    return cells // m, cells % m, weights


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _best_per_call(fn, calls, repeats):
    """Best-of-``repeats`` seconds per call over ``calls`` back-to-back
    calls, for kernels too fast to time one call at a time."""
    return _best_of(lambda: [fn() for _ in range(calls)], repeats) / calls


def run_benchmarks(quick=False):
    """Time every kernel; returns the BENCH_matching.json payload."""
    repeats = 3 if quick else 7
    results = {"kernels": {}, "maxcard_simulation": {}, "warm_start": {}}

    def record(kernel, size, seconds):
        results["kernels"].setdefault(kernel, {})[size] = {
            "seconds": seconds,
            "ops_per_sec": (1.0 / seconds) if seconds > 0 else float("inf"),
        }

    # --- Hopcroft–Karp (graph entry) vs the legacy kernel ---------------
    for m, n_edges in [(150, 600), (150, 2400)]:
        g = _random_graph(m, n_edges, seed=0)
        edges = list(g.edges)
        size = f"{m}x{m}/{n_edges}e"
        record(
            "hopcroft_karp", size,
            _best_of(lambda: max_cardinality_matching(g), repeats),
        )
        record(
            "hopcroft_karp_legacy", size,
            _best_of(lambda: legacy_hopcroft_karp(m, m, edges), repeats),
        )

    # --- Max-weight matching (one MinRTime/MaxWeight round) -------------
    for m, n_edges, calls in [(12, 60, 200), (150, 2400, 5)]:
        us, vs, w = _weighted_pairs(m, n_edges, seed=4)
        record(
            "max_weight", f"{m}x{m}/{n_edges}e",
            _best_per_call(
                lambda: max_weight_matching_arrays(m, m, us, vs, w),
                calls, repeats,
            ),
        )

    # --- König edge coloring vs the legacy O(Δ)-scan kernel -------------
    for m, n_edges in [(64, 512), (64, 2048)]:
        g = _random_graph(m, n_edges, seed=2)
        size = f"{m}x{m}/{n_edges}e"
        record(
            "edge_coloring", size,
            _best_of(lambda: edge_color_bipartite(g), repeats),
        )
        record(
            "edge_coloring_legacy", size,
            _best_of(lambda: legacy_edge_color(g), repeats),
        )

    # --- MaxCard online simulation at n≈2000 flows ----------------------
    inst = poisson_uniform_workload(16, 100, 20, seed=3)
    legacy_s = _best_of(lambda: legacy_simulate_maxcard(inst), repeats)
    new_s = _best_of(lambda: simulate(inst, MaxCardPolicy()), repeats)
    # Equivalence guard: the two paths must agree byte for byte.
    legacy_sched, _, legacy_hist = legacy_simulate_maxcard(inst)
    res = simulate(inst, MaxCardPolicy())
    assert (res.schedule.assignment == legacy_sched.assignment).all()
    assert (res.queue_history == legacy_hist).all()
    results["maxcard_simulation"] = {
        "num_flows": int(inst.num_flows),
        "ports": 16,
        "legacy_seconds": legacy_s,
        "new_seconds": new_s,
        "legacy_sims_per_sec": 1.0 / legacy_s,
        "new_sims_per_sec": 1.0 / new_s,
        "speedup": legacy_s / new_s,
        "byte_identical": True,
    }
    record("maxcard_simulation_n2000", "legacy", legacy_s)
    record("maxcard_simulation_n2000", "new", new_s)

    # --- Solo MinRTime / MaxWeight simulations (unit capacity) ----------
    inst = poisson_uniform_workload(24, 24, 40, seed=5)
    for name in ("MinRTime", "MaxWeight"):
        record(
            "weight_simulation_24p_load1_T40", name,
            _best_of(lambda: simulate(inst, make_policy(name)), repeats),
        )

    # --- Warm start: fewer BFS phases on a churn-heavy instance ---------
    churn = churn_heavy_workload(gadgets=4, copies=10 if quick else 40)
    cold = simulate(churn, MaxCardPolicy(warm_start=False))
    warm = simulate(churn, MaxCardPolicy(warm_start=True))
    results["warm_start"] = {
        "instance": f"churn_heavy(gadgets=4, copies={10 if quick else 40})",
        "cold_bfs_phases": int(cold.stats["bfs_phases"]),
        "warm_bfs_phases": int(warm.stats["bfs_phases"]),
        "cold_rounds": int(cold.rounds),
        "warm_rounds": int(warm.rounds),
    }
    assert warm.stats["bfs_phases"] < cold.stats["bfs_phases"], (
        "warm-started simulation must perform fewer BFS phases than "
        "cold per-round solving on the churn-heavy instance"
    )
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json-out",
        nargs="?",
        const="BENCH_matching.json",
        default=None,
        help="write machine-readable results (default: BENCH_matching.json)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer repeats / smaller warm-start instance (CI smoke mode)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="fail unless the MaxCard simulation speedup reaches this",
    )
    args = parser.parse_args(argv)
    results = run_benchmarks(quick=args.quick)

    sim = results["maxcard_simulation"]
    print(
        f"MaxCard simulation (n={sim['num_flows']}): "
        f"legacy {sim['legacy_seconds'] * 1e3:.1f} ms, "
        f"new {sim['new_seconds'] * 1e3:.1f} ms, "
        f"speedup {sim['speedup']:.2f}x (byte-identical)"
    )
    ws = results["warm_start"]
    print(
        f"Warm start on {ws['instance']}: "
        f"cold {ws['cold_bfs_phases']} BFS phases, "
        f"warm {ws['warm_bfs_phases']} BFS phases"
    )
    for kernel, sizes in results["kernels"].items():
        for size, cell in sizes.items():
            print(f"{kernel:28s} {size:12s} {cell['ops_per_sec']:10.1f} ops/s")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
        print(f"wrote {args.json_out}")
    if args.min_speedup is not None and sim["speedup"] < args.min_speedup:
        print(
            f"FAIL: speedup {sim['speedup']:.2f}x < required "
            f"{args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


# ---------------------------------------------------------------------------
# pytest-benchmark entry points (interactive profiling)
# ---------------------------------------------------------------------------

try:  # pragma: no cover - pytest plumbing
    import pytest
except ImportError:  # pragma: no cover
    pytest = None

if pytest is not None:

    @pytest.mark.parametrize("m,edges", [(150, 600), (150, 2400)])
    def test_bench_hopcroft_karp_new(benchmark, record_ops, m, edges):
        g = _random_graph(m, edges)
        benchmark(lambda: max_cardinality_matching(g))
        record_ops(benchmark, "hopcroft_karp", f"{m}x{m}/{edges}e")

    @pytest.mark.parametrize("m,edges", [(150, 600), (150, 2400)])
    def test_bench_hopcroft_karp_legacy(benchmark, record_ops, m, edges):
        g = _random_graph(m, edges)
        pairs = list(g.edges)
        benchmark(lambda: legacy_hopcroft_karp(m, m, pairs))
        record_ops(benchmark, "hopcroft_karp_legacy", f"{m}x{m}/{edges}e")

    @pytest.mark.parametrize("m,edges", [(64, 512), (64, 2048)])
    def test_bench_edge_coloring_new(benchmark, record_ops, m, edges):
        g = _random_graph(m, edges, seed=2)
        benchmark(lambda: edge_color_bipartite(g))
        record_ops(benchmark, "edge_coloring", f"{m}x{m}/{edges}e")

    @pytest.mark.parametrize("m,edges", [(64, 512), (64, 2048)])
    def test_bench_edge_coloring_legacy(benchmark, record_ops, m, edges):
        g = _random_graph(m, edges, seed=2)
        benchmark(lambda: legacy_edge_color(g))
        record_ops(benchmark, "edge_coloring_legacy", f"{m}x{m}/{edges}e")

    @pytest.mark.parametrize("m,edges", [(12, 60), (150, 2400)])
    def test_bench_max_weight(benchmark, record_ops, m, edges):
        us, vs, w = _weighted_pairs(m, edges, seed=4)
        benchmark(lambda: max_weight_matching_arrays(m, m, us, vs, w))
        record_ops(benchmark, "max_weight", f"{m}x{m}/{edges}e")

    @pytest.mark.parametrize("name", ["MinRTime", "MaxWeight"])
    def test_bench_weight_simulation(benchmark, record_ops, name):
        inst = poisson_uniform_workload(24, 24, 40, seed=5)
        benchmark.pedantic(
            lambda: simulate(inst, make_policy(name)), rounds=3, iterations=1
        )
        record_ops(benchmark, "weight_simulation_24p_load1_T40", name)

    def test_bench_maxcard_simulation_new(benchmark, record_ops):
        inst = poisson_uniform_workload(16, 100, 20, seed=3)
        benchmark.pedantic(
            lambda: simulate(inst, MaxCardPolicy()), rounds=3, iterations=1
        )
        record_ops(benchmark, "maxcard_simulation_n2000", "new")

    def test_bench_maxcard_simulation_legacy(benchmark, record_ops):
        inst = poisson_uniform_workload(16, 100, 20, seed=3)
        benchmark.pedantic(
            lambda: legacy_simulate_maxcard(inst), rounds=3, iterations=1
        )
        record_ops(benchmark, "maxcard_simulation_n2000", "legacy")

    def test_bench_maxcard_simulation_warm(benchmark, record_ops):
        inst = poisson_uniform_workload(16, 100, 20, seed=3)
        benchmark.pedantic(
            lambda: simulate(inst, MaxCardPolicy(warm_start=True)),
            rounds=3, iterations=1,
        )
        record_ops(benchmark, "maxcard_simulation_n2000", "warm")


if __name__ == "__main__":
    sys.exit(main())
