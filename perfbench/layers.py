"""Per-layer self-time accounting from wrappers around layer entry points.

The traced benchmark run patches a fixed list of public functions and
methods (see ``sweep_targets`` / ``service_targets``) with timing
wrappers.  Each wrapper opens a span on a thread-local stack; when it
closes, the span's *self* time (its duration minus the time of the
wrapped calls nested inside it) is added to its layer.  Self times of all
layers therefore add up to the wall time spent inside wrapped calls,
without double counting.

A call nested directly inside a call of the same layer (for example a
generator that calls another generator) adds its time but not a call,
so ``calls`` counts entries into the layer.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from statistics import quantiles
from typing import Callable, Dict, List, Tuple


def p10(values) -> float:
    """10th percentile, interpolated between samples."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return quantiles(values, n=10, method="inclusive")[0]


class LayerClock:
    """Thread-safe self-time and call counters keyed by layer name."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Inclusive seconds and counts of classified events (for
        #: example LP probes split by their answer).
        self.events_s: Dict[str, float] = defaultdict(float)
        self.events: Dict[str, int] = defaultdict(int)
        self.maxima: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- accounting ----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` as one span of layer ``name``."""
        stack = self._stack()
        reentrant = bool(stack) and stack[-1][0] == name
        frame = [name, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += dt
            with self._lock:
                self.self_s[name] += dt - frame[1]
                if not reentrant:
                    self.calls[name] += 1

    def event(self, name: str, seconds: float) -> None:
        with self._lock:
            self.events_s[name] += seconds
            self.events[name] += 1

    def note_max(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.maxima[name]:
                self.maxima[name] = value

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "events_s": dict(self.events_s),
                "events": dict(self.events),
                "maxima": dict(self.maxima),
            }

    def reset(self) -> None:
        with self._lock:
            for table in (self.self_s, self.calls, self.events_s,
                          self.events, self.maxima):
                table.clear()

    # -- patching ------------------------------------------------------

    def install(self, targets) -> None:
        """Patch every ``(owner, attr, make_wrapper)`` in ``targets``;
        ``make_wrapper(clock, original)`` returns the replacement."""
        if self._patches:
            raise RuntimeError("layer wrappers are already installed")
        for owner, attr, make in targets:
            # A method a class inherits is overridden on the class and
            # removed again on uninstall, leaving its base untouched.
            saved = (
                owner.__dict__.get(attr, _INHERITED)
                if isinstance(owner, type)
                else getattr(owner, attr)
            )
            self._patches.append((owner, attr, saved))
            setattr(owner, attr, make(self, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)


_INHERITED = object()


def plain(name: str):
    """Wrapper factory: every call is one span of layer ``name``."""

    def make(clock: LayerClock, original):
        def wrapper(*args, **kwargs):
            return clock.timed(name, original, *args, **kwargs)

        return wrapper

    return make


def _lp_solve(clock: LayerClock, original):
    def wrapper(lp, *args, **kwargs):
        clock.note_max("lp.vars", float(lp.num_vars))
        return clock.timed("lp.solve", original, lp, *args, **kwargs)

    return wrapper


def _lp_probe(clock: LayerClock, original):
    # Only probes that reach the LP backend count; answers served from
    # the oracle's per-rho memo stay in the caller's self time.
    def wrapper(oracle, rho):
        before = oracle.solves
        t0 = time.perf_counter()
        feasible = clock.timed("lp.probe", original, oracle, rho)
        if oracle.solves != before:
            answer = "feasible" if feasible else "infeasible"
            clock.event(f"lp.probe_{answer}", time.perf_counter() - t0)
        return feasible

    return wrapper


def _policy_solve(clock: LayerClock, original):
    def wrapper(solver, instance, *args, **kwargs):
        clock.event("online.trials_solo", 0.0)
        return clock.timed(
            f"online.solve.{solver.name}", original, solver, instance,
            *args, **kwargs,
        )

    return wrapper


def _policy_solve_batch(clock: LayerClock, original):
    def wrapper(solver, instances, *args, **kwargs):
        for _ in instances:
            clock.event("online.trials_merged", 0.0)
        return clock.timed(
            f"online.solve.{solver.name}", original, solver, instances,
            *args, **kwargs,
        )

    return wrapper


def _store_lookup(name: str):
    def make(clock: LayerClock, original):
        def wrapper(store, *args, **kwargs):
            record = clock.timed(name, original, store, *args, **kwargs)
            clock.event(
                "api.store_found" if record is not None else "api.store_missing",
                0.0,
            )
            return record

        return wrapper

    return make


def sweep_targets() -> list:
    """Layer entry points a Figure 6/7 sweep runs through."""
    import repro.api.runner as runner
    import repro.art.lp_relaxation as art_lp
    import repro.lp.bounds as bounds
    import repro.online.batch as batch
    import repro.online.policies as policies
    import repro.workloads.synthetic as synthetic
    from repro.api.adapters import PolicySolver

    return [
        (runner, "poisson_uniform_workload", plain("workloads.generate")),
        (synthetic, "_poisson_uniform_on", plain("workloads.generate")),
        (bounds, "art_lower_bound", plain("lp.art_bound")),
        (bounds, "mrt_lower_bound", plain("lp.mrt_bound")),
        (bounds, "solve_lp", _lp_solve),
        (art_lp, "solve_lp", _lp_solve),
        (bounds.LPBoundOracle, "is_feasible", _lp_probe),
        (PolicySolver, "solve", _policy_solve),
        (PolicySolver, "solve_batch", _policy_solve_batch),
        (policies, "max_weight_matching", plain("matching.max_weight")),
        (policies, "max_cardinality_matching", plain("matching.hk")),
        (policies, "max_cardinality_matching_adjacency", plain("matching.hk")),
        (batch, "max_cardinality_matching_batch", plain("matching.hk")),
    ]


def service_targets(on_enqueue, on_settle) -> list:
    """Layer entry points on the service's in-process request path.

    ``on_enqueue(key, end_time)`` and ``on_settle(key, outcome, time)``
    observe a job entering the work queue and its outcome reaching the
    broker, which brackets the worker's poll wait and solve.
    """
    import repro.service.broker as broker
    from repro.api.store import ResultStore
    from repro.service.jobs import JobQueue

    def enqueue(clock, original):
        def wrapper(queue, job):
            try:
                return original(queue, job)
            finally:
                on_enqueue(job.key, time.perf_counter())

        return wrapper

    def settle(clock, original):
        def wrapper(self, key, outcome):
            on_settle(key, outcome, time.perf_counter())
            return original(self, key, outcome)

        return wrapper

    return [
        (broker, "_materialize", plain("service.materialize")),
        (ResultStore, "refresh", plain("api.store_refresh")),
        (ResultStore, "lookup", _store_lookup("api.store_get")),
        (JobQueue, "enqueue", enqueue),
        (broker.SolveBroker, "_settle", settle),
    ]
