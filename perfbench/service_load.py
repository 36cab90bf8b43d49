"""The ``service`` workload: an in-process solve service under a closed loop.

The window is a row of ``SEGMENTS`` segments.  Each starts a
:class:`repro.service.ServiceThread` with one worker process on a fresh,
empty result store, warms it up outside the measured time, and runs
``CLIENTS`` client threads for its share of the window.  Each client
loops: submit one instance it has not submitted before (a cache miss,
solved by the worker), then ``HITS_PER_MISS`` repeats of instances it
already solved (cache hits answered from the store).  Every segment
sends the same requests, taken from instances generated during set-up.
One operation is one client cycle of a miss and its hits; every request
is checked after its segment.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import shutil
import tempfile
import threading
import time
from statistics import median, quantiles

from repro.api.registry import get_solver
from repro.service import ServiceClient, ServiceError, ServiceThread, parse_metric
from repro.utils.rng import derive_seed
from repro.verify import check_record
from repro.workloads.synthetic import poisson_uniform_workload

import layers
from layers import p10

SOLVER = "MaxWeight"
PORTS, LOAD, ROUNDS = 16, 1.0, 10
CLIENTS = 2
HITS_PER_MISS = 3
#: Segments per run; with tracing, every other one is traced.
SEGMENTS = 6
#: ``between`` calls in each gap before a segment.
GAP_CALLS = 8
#: Instances generated during set-up, enough for a segment of 10 s;
#: clients generate more on demand.
PREGENERATED = 256
#: Misses re-solved directly, outside the service, after the window.
DIRECT_SOLVES = 16
WARMUP_INDEX = 10**9
METRIC_KEYS = ("average_response", "max_response", "total_response")


def p90(values) -> float:
    return quantiles(values, n=10, method="inclusive")[8]


def worker_peak_mb() -> float:
    """Largest peak resident memory of this process's live worker
    processes (Linux ``VmHWM``; 0 where ``/proc`` is unavailable)."""
    peak = 0.0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) / 1024.0)
        except OSError:
            pass
    return peak


class InstancePool:
    """Seeded instances by index: entry ``i`` is the same for a seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self._items = {}
        self._lock = threading.Lock()

    def get(self, index: int):
        with self._lock:
            item = self._items.get(index)
        if item is None:
            inst = poisson_uniform_workload(
                PORTS, LOAD * PORTS, ROUNDS, seed=derive_seed(self.seed, index)
            )
            item = (inst, inst.to_dict(), inst.digest())
            with self._lock:
                self._items.setdefault(index, item)
        return item


class ServiceBench:
    """The service workload: set-up, timed closed-loop segments, checks."""

    def __init__(self, seed: int, reference, scratch_root: str):
        self.seed = seed
        self.reference = reference
        self.scratch_root = scratch_root
        self.pool = InstancePool(seed)
        self.store_dir = None
        self.service = None

    def setup(self, probe: bool = False) -> None:
        """Generate the inputs.  A set-up probe also starts the service,
        as every segment does; the warm-up solve, which waits out the
        worker's poll interval, stays outside the timed set-up."""
        for index in range(PREGENERATED):
            self.pool.get(index)
        if probe:
            self._start()

    def _start(self) -> None:
        os.makedirs(self.scratch_root, exist_ok=True)
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=self.scratch_root)
        self.service = ServiceThread(self.store_dir, workers=1).start()

    def _warm_up(self) -> None:
        # One solve and one hit of an instance whose index no client
        # reaches.
        client = ServiceClient(self.service.address)
        _, payload, _ = self.pool.get(WARMUP_INDEX)
        client.solve(SOLVER, instance=payload)
        client.solve(SOLVER, instance=payload)

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None

    # -- the closed loop -----------------------------------------------

    def _client(self, cid: int, deadline: float, log: list, cycles: list):
        try:
            self._loop(cid, deadline, log, cycles)
        except Exception as exc:
            # Counted as one failed request rather than a silently
            # shorter log.
            log.append(("error", -1, 0.0, None, f"client {cid}: {exc!r}"))

    def _loop(self, cid: int, deadline: float, log: list, cycles: list):
        client = ServiceClient(self.service.address)
        rng = random.Random(derive_seed(self.seed, 1_000_000 + cid))
        solved = []
        # Clients take interleaved indices, so no instance is sent twice
        # as a miss.
        index = cid - CLIENTS
        while time.perf_counter() < deadline:
            index += CLIENTS
            plan = [("miss", index)]
            # Hits repeat instances this client already has answers for.
            for _ in range(HITS_PER_MISS):
                plan.append(("hit", rng.choice(solved + [index])))
            cycle_s = 0.0
            for kind, idx in plan:
                _, payload, _ = self.pool.get(idx)
                t0 = time.perf_counter()
                try:
                    response = client.solve(SOLVER, instance=payload)
                    error = None
                except ServiceError as exc:
                    response, error = None, f"{exc.code}: {exc}"
                dt = time.perf_counter() - t0
                cycle_s += dt
                log.append((kind, idx, dt, response, error))
            cycles.append(cycle_s)
            solved.append(index)

    def _window(self, seconds: float) -> tuple:
        """``(requests, cycle seconds)`` of all clients."""
        logs = [[] for _ in range(CLIENTS)]
        cycles = [[] for _ in range(CLIENTS)]
        deadline = time.perf_counter() + seconds
        threads = [
            threading.Thread(target=self._client,
                             args=(cid, deadline, logs[cid], cycles[cid]))
            for cid in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return ([entry for log in logs for entry in log],
                [c for each in cycles for c in each])

    # -- checks --------------------------------------------------------

    def _check(self, log: list) -> list:
        """Failure messages for every request of one segment that did
        not pass."""
        problems = []
        miss_reports = {}
        for kind, idx, _, response, error in log:
            if kind == "miss" and response is not None:
                miss_reports[idx] = response.report
        for kind, idx, _, response, error in log:
            where = f"{kind} #{idx}"
            if response is None:
                problems.append(f"{where}: {error}")
                continue
            _, _, digest = self.pool.get(idx)
            want_source = "solved" if kind == "miss" else "cache"
            if response.digest != digest:
                problems.append(f"{where}: digest mismatch")
            elif response.source != want_source:
                problems.append(f"{where}: source {response.source}")
            elif not check_record(response.report).ok:
                problems.append(f"{where}: record failed check_record")
            elif kind == "hit" and idx in miss_reports and (
                response.report["metrics"] != miss_reports[idx]["metrics"]
            ):
                problems.append(f"{where}: hit differs from its solve")
        return problems

    def _reference_problems(self) -> list:
        if self.reference is None:
            return []
        digests = [self.pool.get(i)[2]
                   for i in range(len(self.reference["digests"]))]
        if digests != self.reference["digests"]:
            return ["generated instances differ from the reference"]
        return []

    def _direct(self, log: list) -> tuple:
        """Solve the first misses outside the service: (seconds, problems)."""
        solver = get_solver(SOLVER)
        times, problems = [], []
        misses = [e for e in log if e[0] == "miss" and e[3] is not None]
        for _, idx, _, response, _ in misses[:DIRECT_SOLVES]:
            inst, _, _ = self.pool.get(idx)
            t0 = time.perf_counter()
            report = solver.solve(inst)
            times.append(time.perf_counter() - t0)
            direct = report.metrics.to_dict()
            served = response.report["metrics"]
            if any(direct[k] != served[k] for k in METRIC_KEYS):
                problems.append(f"miss #{idx}: served metrics differ from a direct solve")
        return times, problems

    def run(self, seconds: float, trace: bool, between) -> dict:
        """Run the segments; ``between(progress)`` is called before each
        one, ``GAP_CALLS`` times, outside the measured time.  With ``trace``, every other
        segment runs with the layer wrappers installed, so plain and
        traced segments see the same requests and the same host drift."""
        clock = layers.LayerClock()
        plain_log, plain_cycles, traced_cycles, measured = [], [], [], 0.0
        traced_log, polls, counters = [], [], []
        problems = self._reference_problems()
        worker_mb = 0.0
        for k in range(SEGMENTS):
            # A sweep run has a gap before each of its ~40 operations;
            # the service has one per segment, so it fills each more.
            for _ in range(GAP_CALLS):
                between(k / SEGMENTS)
            traced = trace and k % 2 == 1
            jobs = {}
            self._start()
            try:
                self._warm_up()
                if traced:
                    clock.install(layers.service_targets(
                        lambda key, end: jobs.setdefault(key, {}).update(
                            enqueued=end),
                        lambda key, outcome, now: jobs.setdefault(key, {}).update(
                            settled=now,
                            solve=(outcome.get("timings") or {}).get("solve")),
                    ))
                before = ServiceClient(self.service.address).metrics()
                t0 = time.perf_counter()
                try:
                    log, cycles = self._window(seconds / SEGMENTS)
                finally:
                    elapsed = time.perf_counter() - t0
                    clock.uninstall()
                # The metrics registry is process-wide, so its counters
                # run on across segments: keep each segment's increment.
                counters.append(
                    (before, ServiceClient(self.service.address).metrics())
                )
                worker_mb = max(worker_mb, worker_peak_mb())
            finally:
                self.close()
            problems += self._check(log)
            if traced:
                traced_cycles += cycles
                traced_log += log
                polls += [
                    j["settled"] - j["enqueued"] - j["solve"]
                    for j in jobs.values()
                    if "enqueued" in j and "settled" in j
                    and j.get("solve") is not None
                ]
            else:
                plain_cycles += cycles
                plain_log += log
                measured += elapsed
        direct_s, direct_problems = self._direct(plain_log)
        problems += direct_problems
        attempted = len(plain_log) + len(traced_log)
        out = {
            "p10_s": p10(plain_cycles),
            "p50_s": median(plain_cycles),
            "ops_per_s": len(plain_cycles) / measured,
            "worker_rss_mb": worker_mb,
            "failed": min(len(problems), attempted),
            "problems": problems[:20],
            "attempted": attempted,
        }
        if trace:
            out["layers"] = self._layer_metrics(
                plain_log, len(traced_log), clock.snapshot(), polls,
                counters, direct_s, p10(traced_cycles) / p10(plain_cycles),
            )
        return out

    def _layer_metrics(self, log, requests, snap, polls, counters, direct_s,
                       slowdown) -> dict:
        def lat(kind):
            return [e[2] for e in log if e[0] == kind]

        miss, hit = lat("miss"), lat("hit")
        requests = max(requests, 1)
        solve_s = median(direct_s) if direct_s else 0.0
        miss_p50, hit_p50 = median(miss), median(hit)
        poll_wait = median(polls) if polls else 0.0
        events = snap["events"]
        lookups = events.get("api.store_found", 0) + events.get("api.store_missing", 0)

        def per_request(table, name):
            return snap[table].get(name, 0) / requests

        def counter(name, **labels):
            return sum(
                (parse_metric(after, name, **labels) or 0.0)
                - (parse_metric(before, name, **labels) or 0.0)
                for before, after in counters
            )

        return {
            "api.store_refresh_s": per_request("self_s", "api.store_refresh"),
            "api.store_refresh_calls": per_request("calls", "api.store_refresh"),
            "api.store_get_s": per_request("self_s", "api.store_get"),
            "api.store_get_calls": per_request("calls", "api.store_get"),
            "api.store_hit_share": (
                events.get("api.store_found", 0) / lookups if lookups else 0.0
            ),
            "service.materialize_s": per_request("self_s", "service.materialize"),
            "service.materialize_calls": per_request("calls", "service.materialize"),
            "service.miss_p50_s": miss_p50,
            "service.miss_p90_s": p90(miss),
            "service.hit_p50_s": hit_p50,
            "service.hit_p90_s": p90(hit),
            "service.solve_s": solve_s,
            "service.wait_s": miss_p50 - solve_s - hit_p50,
            "service.poll_wait_s": poll_wait,
            "service.enqueued_total": counter("repro_enqueued_total",
                                              solver=SOLVER),
            "service.coalesced_total": counter("repro_coalesced_total"),
            # A miss decomposed into directly measured parts: the solve,
            # the broker-observed queue and reaper wait, and the request
            # path a hit also pays.
            "trace.coverage_share": (
                (solve_s + poll_wait + hit_p50) / miss_p50 if miss_p50 else 0.0
            ),
            "trace.wall_s": miss_p50,
            # Client cycle p10, traced over plain segments.
            "trace_overhead_share": slowdown - 1.0,
        }
