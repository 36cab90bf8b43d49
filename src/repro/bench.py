"""``repro bench`` — committed, machine-normalized benchmark snapshots.

The script-mode benchmark suites (``benchmarks/bench_*.py`` modules
exposing ``main(argv)`` with ``--json-out``) measure wall-clock seconds,
which are meaningless across machines.  This runner makes their output
committable: it first times a fixed, dependency-free **baseline op** on
the current machine, then rewrites every ``*_seconds`` measurement with
a sibling ``*_vs_baseline`` ratio (suite seconds / baseline seconds).
Two snapshots taken on different hardware then disagree only where the
*relative* cost of a kernel changed — which is exactly the perf history
an in-tree ``BENCH_*.json`` trajectory is for.

Snapshot envelope (one file per suite, ``BENCH_<suite>.json``)::

    {
      "schema_version": 1,
      "suite": "matching",
      "quick": true,
      "baseline_op": {"seconds": ..., "repeats": ..., "description": ...},
      "results": {... suite payload, ``*_vs_baseline`` fields added ...}
    }

Raw seconds are kept alongside the ratios — they are useful locally —
but diffs of committed snapshots should be read through the
``*_vs_baseline`` fields.
"""

from __future__ import annotations

import importlib.util
import json
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Envelope format stamp.
SNAPSHOT_SCHEMA_VERSION = 1

#: ``--check`` fails when a fresh ``*_vs_baseline`` ratio exceeds the
#: committed one by more than this fraction.
REGRESSION_THRESHOLD = 0.20

#: Max fresh runs per suite in ``--check``.  A regression must survive
#: every rerun (the per-ratio *minimum* of the fresh runs is compared,
#: best-of-N being the standard way to time): one noisy scheduling
#: hiccup in a millisecond-scale measurement cannot fail the gate, a
#: real slowdown reproduces in all runs and still does.
CHECK_RETRIES = 3

#: Best-of repeats for the baseline op.
BASELINE_REPEATS = 5

#: Work size of the baseline op.  Chosen so one run lands in the
#: hundreds-of-microseconds range on commodity hardware: long enough to
#: time stably, short enough that calibration is free.
BASELINE_SIZE = 20_000

BASELINE_DESCRIPTION = (
    f"best of {BASELINE_REPEATS}: pure-python loop of {BASELINE_SIZE} "
    "multiply-mod-accumulate steps (fixed work, no numpy, no allocation)"
)


def baseline_op() -> int:
    """The calibrated unit of work: a fixed pure-python arithmetic loop.

    Deliberately interpreter-bound (no numpy): the suites' hot loops are
    a mix of python orchestration and array kernels, and the python
    interpreter's speed is the machine property that dominates
    cross-machine variance in this repo's benchmarks.
    """
    acc = 1
    for i in range(1, BASELINE_SIZE):
        acc = (acc * i + 17) % 1_000_003
    return acc


def calibrate(repeats: int = BASELINE_REPEATS) -> float:
    """Best-of-``repeats`` seconds for one :func:`baseline_op` run."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        baseline_op()
        best = min(best, time.perf_counter() - t0)
    return best


def normalize(payload, baseline_seconds: float):
    """Add ``<stem>_vs_baseline`` next to every ``*_seconds`` field.

    Walks the payload recursively; a plain ``"seconds"`` key gets
    ``"vs_baseline"``.  Non-finite and non-numeric values are left
    alone.  Returns the payload (mutated in place for dicts/lists).
    """
    if isinstance(payload, dict):
        for key in list(payload):
            value = payload[key]
            if (
                key.endswith("seconds")
                and isinstance(value, (int, float))
                and not isinstance(value, bool)
                and value == value  # not NaN
                and value not in (float("inf"), float("-inf"))
            ):
                stem = key[: -len("seconds")].rstrip("_")
                ratio_key = f"{stem}_vs_baseline" if stem else "vs_baseline"
                payload[ratio_key] = round(value / baseline_seconds, 4)
            else:
                normalize(value, baseline_seconds)
    elif isinstance(payload, list):
        for item in payload:
            normalize(item, baseline_seconds)
    return payload


def _seconds_keys(payload, prefix: str = "") -> List[Tuple[str, str]]:
    """Every ``*seconds`` measurement key in ``payload``: ``(path, key)``.

    Mirrors :func:`normalize`'s walk exactly, so anything that would
    grow a ``_vs_baseline`` sibling is listed.
    """
    found: List[Tuple[str, str]] = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            path = f"{prefix}.{key}" if prefix else key
            if key.endswith("seconds"):
                found.append((path, key))
            else:
                found.extend(_seconds_keys(payload[key], path))
    elif isinstance(payload, list):
        for i, item in enumerate(payload):
            found.extend(_seconds_keys(item, f"{prefix}[{i}]"))
    return found


def assert_canonical_seconds(results, suite: str) -> None:
    """Fail loudly when a suite emits a non-canonical ``*_seconds`` key.

    Every timing field that lands in a committed snapshot must come
    from the canonical vocabulary
    (:data:`repro.obs.metrics.BENCH_SECONDS_KEYS`) — otherwise ad-hoc
    names accrete in ``BENCH_*.json`` diffs, and cross-suite tooling
    (dashboards, the regression gate's path matching) silently splits
    one phase across several spellings.  Extend the frozen set in
    ``repro/obs/metrics.py`` deliberately when a suite genuinely needs
    a new measurement name.
    """
    from repro.obs.metrics import BENCH_SECONDS_KEYS, is_canonical_seconds_key

    unknown = sorted(
        {
            f"{path} (key {key!r})"
            for path, key in _seconds_keys(results)
            if not is_canonical_seconds_key(key)
        }
    )
    if unknown:
        raise RuntimeError(
            f"benchmark suite {suite!r} emitted non-canonical timing "
            f"key(s): {', '.join(unknown)}; allowed names are "
            f"{sorted(BENCH_SECONDS_KEYS)} — add the new name to "
            "BENCH_SECONDS_KEYS in src/repro/obs/metrics.py if it is "
            "intentional"
        )


def discover_suites(bench_dir: "str | Path") -> Dict[str, Path]:
    """Script-mode suites: ``bench_*.py`` files whose source defines
    ``main(``.  (A source scan, not an import — the pytest-benchmark
    only modules must not be imported just to be rejected.)"""
    suites = {}
    for path in sorted(Path(bench_dir).glob("bench_*.py")):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            continue
        if "\ndef main(" in text and "--json-out" in text:
            suites[path.stem[len("bench_"):]] = path
    return suites


def _load_suite(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(f"repro_bench_{name}", path)
    if spec is None or spec.loader is None:  # pragma: no cover - defensive
        raise RuntimeError(f"cannot load benchmark suite {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_suite(
    name: str,
    path: Path,
    out_dir: Path,
    baseline_seconds: float,
    quick: bool = True,
) -> Path:
    """Run one suite and write its normalized ``BENCH_<name>.json``.

    The suite's own ``main`` writes its raw payload to a scratch file
    (so this runner composes with any script that honours
    ``--json-out PATH``); a non-zero suite exit — a failed in-suite
    assertion like a speedup floor — propagates as ``RuntimeError``.
    """
    module = _load_suite(name, path)
    raw_path = out_dir / f".bench-raw-{name}.json"
    argv: List[str] = ["--json-out", str(raw_path)]
    if quick:
        argv.append("--quick")
    rc = module.main(argv)
    if rc:
        raise RuntimeError(f"benchmark suite {name!r} failed with exit {rc}")
    try:
        results = json.loads(raw_path.read_text(encoding="utf-8"))
    finally:
        raw_path.unlink(missing_ok=True)
    assert_canonical_seconds(results, name)
    snapshot = {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "suite": name,
        "quick": quick,
        "baseline_op": {
            "seconds": baseline_seconds,
            "repeats": BASELINE_REPEATS,
            "description": BASELINE_DESCRIPTION,
        },
        "results": normalize(results, baseline_seconds),
    }
    out_path = out_dir / f"BENCH_{name}.json"
    out_path.write_text(
        json.dumps(snapshot, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return out_path


def collect_ratios(payload, prefix: str = "") -> Dict[str, float]:
    """Every ``*_vs_baseline`` ratio in ``payload``, keyed by JSON path.

    The comparison domain of ``--check``: paths are stable across runs
    of the same suite (dict keys sorted, list positions indexed), so a
    committed and a fresh snapshot line up field by field.
    """
    ratios: Dict[str, float] = {}
    if isinstance(payload, dict):
        for key in sorted(payload):
            path = f"{prefix}.{key}" if prefix else key
            value = payload[key]
            if key == "vs_baseline" or key.endswith("_vs_baseline"):
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    ratios[path] = float(value)
            else:
                ratios.update(collect_ratios(value, path))
    elif isinstance(payload, list):
        for i, item in enumerate(payload):
            ratios.update(collect_ratios(item, f"{prefix}[{i}]"))
    return ratios


def check_suite(
    name: str,
    path: Path,
    committed_path: Path,
    baseline_seconds: float,
    threshold: float = REGRESSION_THRESHOLD,
) -> Tuple[List[Tuple[str, float, float]], int]:
    """Compare a fresh run of one suite against its committed snapshot.

    The suite is re-run in the committed snapshot's own ``quick`` mode
    into a temporary directory (the committed file is never touched);
    every ``*_vs_baseline`` ratio present in both snapshots is compared.
    A candidate regression must survive up to :data:`CHECK_RETRIES`
    fresh runs — the per-ratio minimum across runs is what is compared,
    so scheduling noise in millisecond-scale measurements cannot fail
    the gate.  Returns ``(regressions, compared, missing)``: each
    regression is ``(json_path, committed_ratio, fresh_ratio)`` with the
    fresh ratio more than ``threshold`` above the committed one;
    ``missing`` lists committed ratios that no fresh run produced.
    """
    committed = json.loads(committed_path.read_text(encoding="utf-8"))
    old = collect_ratios(committed.get("results", {}))
    best: Dict[str, float] = {}
    regressions: List[Tuple[str, float, float]] = []
    shared: List[str] = []
    for attempt in range(CHECK_RETRIES):
        with tempfile.TemporaryDirectory() as tmp:
            fresh_path = run_suite(
                name,
                path,
                Path(tmp),
                baseline_seconds,
                quick=bool(committed.get("quick", True)),
            )
            fresh = json.loads(fresh_path.read_text(encoding="utf-8"))
        new = collect_ratios(fresh.get("results", {}))
        for ratio_path, value in new.items():
            if ratio_path not in best or value < best[ratio_path]:
                best[ratio_path] = value
        shared = sorted(set(old) & set(best))
        regressions = [
            (ratio_path, old[ratio_path], best[ratio_path])
            for ratio_path in shared
            if old[ratio_path] > 0
            and best[ratio_path] > old[ratio_path] * (1 + threshold)
        ]
        if not regressions:
            break
        if attempt < CHECK_RETRIES - 1:
            print(
                f"{len(regressions)} candidate regression(s); rerunning "
                "to confirm"
            )
    missing = sorted(set(old) - set(best))
    return regressions, len(shared), missing


def run_check(suites: Dict[str, Path], out_dir: Path) -> int:
    """The ``--check`` regression gate over every committed snapshot.

    Suites without a committed ``BENCH_<name>.json`` in ``out_dir`` are
    skipped with a note (a brand-new suite must not fail the gate before
    its first snapshot lands); with no committed snapshot at all there
    is nothing to guard and that *is* an error.  Exit status 1 on any
    ``*_vs_baseline`` regression beyond :data:`REGRESSION_THRESHOLD`
    and on any committed ratio missing from the fresh run.
    """
    to_check = {
        name: (path, out_dir / f"BENCH_{name}.json")
        for name, path in suites.items()
        if (out_dir / f"BENCH_{name}.json").is_file()
    }
    if not to_check:
        raise SystemExit(
            f"error: no committed BENCH_*.json snapshots in {out_dir} to "
            "check against; run `repro bench` and commit the snapshots first"
        )
    skipped = sorted(set(suites) - set(to_check))
    for name in skipped:
        print(f"note: suite {name!r} has no committed snapshot; skipped")
    baseline_seconds = calibrate()
    print(
        f"baseline op: {baseline_seconds * 1e6:.0f} us "
        f"({BASELINE_DESCRIPTION})"
    )
    failed = False
    for name, (path, committed_path) in to_check.items():
        print(f"\n=== check {name} ({committed_path.name}) ===")
        try:
            regressions, compared, missing = check_suite(
                name, path, committed_path, baseline_seconds
            )
        except RuntimeError as exc:
            raise SystemExit(f"error: {exc}")
        failed = failed or bool(regressions or missing)
        for ratio_path, before, after in regressions:
            print(
                f"REGRESSION {ratio_path}: {before:.4f} -> {after:.4f} "
                f"(+{(after / before - 1) * 100:.0f}%, limit "
                f"+{REGRESSION_THRESHOLD * 100:.0f}%)"
            )
        for ratio_path in missing:
            print(f"MISSING {ratio_path}: committed, absent from fresh run")
        print(
            f"{compared} ratio(s) compared, {len(regressions)} "
            f"regression(s), {len(missing)} missing"
        )
    if failed:
        print("\nbench check FAILED — see regressions above")
        return 1
    print("\nbench check passed")
    return 0


def main(args) -> int:
    """``repro bench`` entry point (argparse namespace from __main__)."""
    bench_dir = Path(args.bench_dir)
    if not bench_dir.is_dir():
        raise SystemExit(f"error: benchmark dir {args.bench_dir!r} not found")
    suites = discover_suites(bench_dir)
    if not suites:
        raise SystemExit(
            f"error: no script-mode bench_*.py suites in {args.bench_dir!r}"
        )
    selected: Optional[List[str]] = (
        [s for s in args.only.split(",") if s] if args.only else None
    )
    if selected:
        unknown = sorted(set(selected) - set(suites))
        if unknown:
            raise SystemExit(
                f"error: unknown suite(s) {unknown}; available: "
                f"{sorted(suites)}"
            )
        suites = {name: suites[name] for name in selected}
    out_dir = Path(args.out_dir)
    if getattr(args, "check", False):
        return run_check(suites, out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    baseline_seconds = calibrate()
    print(
        f"baseline op: {baseline_seconds * 1e6:.0f} us "
        f"({BASELINE_DESCRIPTION})"
    )
    written = []
    for name, path in suites.items():
        print(f"\n=== {name} ({path.name}) ===")
        try:
            out_path = run_suite(
                name, path, out_dir, baseline_seconds, quick=args.quick
            )
        except RuntimeError as exc:
            raise SystemExit(f"error: {exc}")
        written.append(out_path)
        print(f"snapshot: {out_path}")
    print(
        f"\n{len(written)} snapshot(s) written; commit them to extend the "
        "perf history"
    )
    return 0
