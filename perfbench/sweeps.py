"""The two sweep workloads: ``fig-lp`` (LP-bound cells) and ``fig-sim``.

A workload is a fixed list of small sweeps ("parts"), each with its own
seed derived from the workload seed.  Every part
drives the public ``run_sweep(ExperimentConfig, ...)`` entry point with
the serial executor and no ``cache_dir``, and the in-process LP bound
memo is cleared before each one, so every repetition of a part is a
cold sweep of identical inputs.  One operation is one part; short parts
give several runs of each part per window, and a part's fastest runs
(its 10th percentile) ride out the host's second-to-second speed swings.
"""

from __future__ import annotations

import math
import time
from statistics import median

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_sweep
from repro.lp.bounds import clear_bound_caches
from repro.utils.rng import derive_seed

import layers
from layers import p10

POLICIES = ("MaxCard", "MinRTime", "MaxWeight")

#: Workload definitions: one sweep of ``config`` per entry of ``parts``,
#: which overrides some of its fields.  fig-lp keeps every cell within
#: the LP round limit, so LP (1)-(4) and LP (19)-(21) are solved for
#: every trial; its parts differ only in their seeds.  fig-sim keeps only
#: long-T cells past the LP limit, with LP bounds off; each part is one
#: cell.  Two or more trials per cell keep the trial-batched engine on.
SPECS = {
    "fig-lp": dict(
        config=dict(
            num_ports=4,
            load_ratios=(2.0,),
            generation_rounds=(10, 12),
            trials=2,
            lp_round_limit=12,
            policies=POLICIES,
        ),
        parts=[{}] * 10,
        lp=True,
    ),
    "fig-sim": dict(
        config=dict(
            num_ports=12,
            trials=2,
            lp_round_limit=0,
            policies=POLICIES,
        ),
        parts=[
            dict(load_ratios=(load,), generation_rounds=(rounds,))
            for load in (1 / 3, 1.0, 2.0, 4.0)
            for rounds in (20, 40)
        ],
        lp=False,
    ),
}

#: Small fixed-seed sweep run during set-up, so lazy imports and
#: first-call costs are paid before the timed window.  Its LP optima are
#: checked against ``reference.json`` on every run, whatever ``--seed``.
ANCHOR = dict(
    num_ports=4, load_ratios=(1.0,), generation_rounds=(8,), trials=3,
    lp_round_limit=8, policies=POLICIES, seed=0,
)

REL_TOL = 1e-6


def part_configs(name: str, seed: int) -> list:
    spec = SPECS[name]
    return [
        ExperimentConfig(seed=derive_seed(seed, part),
                         **dict(spec["config"], **overrides))
        for part, overrides in enumerate(spec["parts"])
    ]


def cell_rows(result) -> list:
    """Every cell of a sweep as plain, exactly comparable values."""
    rows = []
    for (mean, rounds), cell in sorted(result.cells.items()):
        rows.append({
            "M": mean,
            "T": rounds,
            "num_flows_mean": cell.num_flows_mean,
            "avg": dict(sorted(cell.avg_response.items())),
            "max": dict(sorted(cell.max_response.items())),
            "lp_avg_bound": cell.lp_avg_bound,
            "lp_max_bound": cell.lp_max_bound,
        })
    return rows


def reference_rows(rows: list) -> list:
    """The part of each cell that no solver tie-breaking can change:
    the generated flow count and the two LP optima."""
    return [
        {k: row[k] for k in ("M", "T", "num_flows_mean",
                             "lp_avg_bound", "lp_max_bound")}
        for row in rows
    ]


def check_rows(rows: list, trials: int, lp: bool, reference) -> list:
    """Output checks for one sweep; returns a list of failure messages."""
    problems = []
    for row in rows:
        where = f"M={row['M']:g} T={row['T']}"
        for policy in POLICIES:
            avg, mx = row["avg"].get(policy), row["max"].get(policy)
            if avg is None or mx is None:
                problems.append(f"{where}: {policy} missing")
                continue
            if not (1.0 <= avg <= mx):
                problems.append(f"{where}: {policy} avg {avg} max {mx}")
            if lp:
                if avg < row["lp_avg_bound"] * (1 - REL_TOL):
                    problems.append(f"{where}: {policy} avg below LP (1)-(4)")
                if mx < row["lp_max_bound"]:
                    problems.append(f"{where}: {policy} max below rho*")
        if lp:
            if row["lp_avg_bound"] is None or row["lp_max_bound"] is None:
                problems.append(f"{where}: LP bound missing")
                continue
            rho_total = row["lp_max_bound"] * trials
            if abs(rho_total - round(rho_total)) > 1e-9:
                problems.append(f"{where}: rho* is not integral")
            if not row["lp_avg_bound"] > 0.0:
                problems.append(f"{where}: LP (1)-(4) bound not positive")
        elif row["lp_avg_bound"] is not None or row["lp_max_bound"] is not None:
            problems.append(f"{where}: LP bound computed past the LP limit")
    if reference is not None:
        got = reference_rows(rows)
        if len(got) != len(reference):
            problems.append("cell count differs from the reference")
        for have, want in zip(got, reference):
            where = f"M={want['M']:g} T={want['T']}"
            if (have["M"], have["T"]) != (want["M"], want["T"]):
                problems.append(f"{where}: cell order differs")
            if have["num_flows_mean"] != want["num_flows_mean"]:
                problems.append(f"{where}: flow count differs")
            if have["lp_max_bound"] != want["lp_max_bound"]:
                problems.append(f"{where}: rho* differs from the reference")
            a, b = have["lp_avg_bound"], want["lp_avg_bound"]
            if (a is None) != (b is None) or (
                a is not None and abs(a - b) > REL_TOL * max(abs(b), 1.0)
            ):
                problems.append(f"{where}: LP (1)-(4) differs from reference")
    return problems


def ratio_geomeans(parts: list) -> tuple:
    """Geometric means over (LP cell, policy) of heuristic / bound."""
    logs_avg, logs_max = [], []
    for row in (row for rows in parts for row in rows):
        if row["lp_avg_bound"] is None:
            continue
        for policy in POLICIES:
            logs_avg.append(math.log(row["avg"][policy] / row["lp_avg_bound"]))
            logs_max.append(math.log(row["max"][policy] / row["lp_max_bound"]))
    if not logs_avg:
        return 0.0, 0.0
    return (math.exp(sum(logs_avg) / len(logs_avg)),
            math.exp(sum(logs_max) / len(logs_max)))


def anchor_rows() -> list:
    return cell_rows(
        run_sweep(ExperimentConfig(**ANCHOR), compute_lp_bounds=True)
    )


class SweepBench:
    """One sweep workload: set-up, a timed window of parts, checks."""

    def __init__(self, name: str, seed: int, reference, anchor_reference):
        spec = SPECS[name]
        self.lp = spec["lp"]
        self.trials = spec["config"]["trials"]
        self.configs = part_configs(name, seed)
        self.reference = reference or [None] * len(self.configs)
        self.anchor_reference = anchor_reference
        self.anchor_problems = []

    def setup(self, probe: bool = False) -> None:
        clear_bound_caches()
        self.anchor_problems = check_rows(
            anchor_rows(), ANCHOR["trials"], True, self.anchor_reference
        )
        clear_bound_caches()

    def close(self) -> None:
        pass

    def _sweep(self, config):
        clear_bound_caches()
        t0 = time.perf_counter()
        result = run_sweep(config, compute_lp_bounds=self.lp, executor="serial")
        return result, time.perf_counter() - t0

    def run(self, seconds: float, trace: bool, between) -> dict:
        """Run the parts in turn until ``seconds`` of operations have
        passed, and at least two passes.  With ``trace``, each part
        alternates between plain and traced runs, so slow host drift
        hits both alike.  ``between(progress)`` is called between
        operations, outside the measured time."""
        clock = layers.LayerClock()
        targets = layers.sweep_targets() if trace else []
        n = len(self.configs)
        plain = [[] for _ in range(n)]
        traced = [[] for _ in range(n)]
        snaps = [[] for _ in range(n)]
        first_rows = [None] * n
        # The anchor sweep of set-up counts as one checked operation.
        problems = [[f"anchor: {p}" for p in self.anchor_problems]]
        measured = 0.0
        passes = 0
        while passes < (4 if trace else 2) or measured < seconds:
            for part, config in enumerate(self.configs):
                between(measured / seconds)
                if trace and (passes + part) % 2 == 1:
                    clock.reset()
                    clock.install(targets)
                    try:
                        result, dt = clock.timed(
                            "api.runner", self._sweep, config
                        )
                    finally:
                        clock.uninstall()
                    traced[part].append(dt)
                    snaps[part].append(clock.snapshot())
                else:
                    result, dt = self._sweep(config)
                    plain[part].append(dt)
                measured += dt
                rows = cell_rows(result)
                found = [f"part {part}: {p}" for p in check_rows(
                    rows, self.trials, self.lp, self.reference[part]
                )]
                if first_rows[part] is None:
                    first_rows[part] = rows
                elif rows != first_rows[part]:
                    found.append(f"part {part}: differs from its first run")
                problems.append(found)
            passes += 1
        part_s = [p10(times) for times in plain]
        out = {
            "p10_s": sum(part_s) / n,
            "p50_s": sum(median(times) for times in plain) / n,
            "ops_per_s": sum(map(len, plain)) / sum(map(sum, plain)),
            "attempted": len(problems),
            "failed": sum(1 for p in problems if p),
            "problems": [m for p in problems for m in p][:20],
        }
        if trace:
            out["layers"] = self._layer_metrics(
                snaps, traced, part_s, first_rows
            )
            trace_problems = self._trace_problems(snaps)
            out["problems"] += trace_problems
            out["failed"] += bool(trace_problems)
        return out

    def _trace_problems(self, snaps: list) -> list:
        problems = []
        for part, runs in enumerate(snaps):
            solves = [run["calls"].get("lp.solve", 0) for run in runs]
            if self.lp and (min(solves) <= 0 or len(set(solves)) != 1):
                problems.append(f"part {part}: LP solve counts per run "
                                f"not equal and > 0: {solves}")
            if not self.lp and max(solves) != 0:
                problems.append(f"part {part}: LP solves on a sweep without "
                                f"LP bounds: {solves}")
        return problems

    def _layer_metrics(self, snaps, traced, part_s, rows) -> dict:
        """Per-layer figures for one pass over all parts: each part's
        median over its traced runs, summed over parts."""

        def per_pass(table, name, default=0.0):
            return sum(median(run[table].get(name, default) for run in runs)
                       for runs in snaps)

        def self_s(name):
            return per_pass("self_s", name)

        def calls(name):
            return per_pass("calls", name, 0)

        def events(name):
            return per_pass("events", name, 0)

        bounds_calls = calls("lp.art_bound") + calls("lp.mrt_bound")
        merged = events("online.trials_merged")
        solo = events("online.trials_solo")
        avg_ratio, max_ratio = ratio_geomeans(rows)
        wall = sum(median(times) for times in traced)
        below_runner = sum(
            median(sum(run["self_s"].values()) - run["self_s"]["api.runner"]
                   for run in runs)
            for runs in snaps
        )
        m = {
            "lp.art_bound_s": self_s("lp.art_bound"),
            "lp.art_bound_calls": calls("lp.art_bound"),
            "lp.mrt_bound_s": self_s("lp.mrt_bound"),
            "lp.mrt_bound_calls": calls("lp.mrt_bound"),
            "lp.solve_s": self_s("lp.solve"),
            "lp.solve_calls": calls("lp.solve"),
            "lp.probe_self_s": self_s("lp.probe"),
            "lp.probe_feasible_s": per_pass("events_s", "lp.probe_feasible"),
            "lp.probe_feasible_count": events("lp.probe_feasible"),
            "lp.probe_infeasible_s": per_pass("events_s", "lp.probe_infeasible"),
            "lp.probe_infeasible_count": events("lp.probe_infeasible"),
            "lp.solves_per_bound": (
                calls("lp.solve") / bounds_calls if bounds_calls else 0.0
            ),
            "lp.vars_max": max(run["maxima"].get("lp.vars", 0.0)
                               for runs in snaps for run in runs),
            "matching.max_weight_s": self_s("matching.max_weight"),
            "matching.max_weight_calls": calls("matching.max_weight"),
            "matching.hk_s": self_s("matching.hk"),
            "matching.hk_calls": calls("matching.hk"),
            "online.merged_share": (
                merged / (merged + solo) if merged + solo else 0.0
            ),
            "online.avg_vs_lp": avg_ratio,
            "online.max_vs_lp": max_ratio,
            "workloads.generate_s": self_s("workloads.generate"),
            "workloads.generate_calls": calls("workloads.generate"),
            "api.runner_self_s": self_s("api.runner"),
            "trace.wall_s": wall,
            # Share of the sweep that a layer below the runner claims.
            "trace.coverage_share": below_runner / wall,
            # Traced and plain runs of the same parts, interleaved.
            "trace_overhead_share":
                sum(p10(times) for times in traced) / sum(part_s) - 1.0,
        }
        for policy in POLICIES:
            m[f"online.solve_s.{policy}"] = self_s(f"online.solve.{policy}")
        return m
