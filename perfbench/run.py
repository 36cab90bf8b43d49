#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the Figure 6/7 sweeps and the
solve service.

Run from the repository root::

    python3 perfbench/run.py --workload fig-lp --seed 2020 --seconds 24 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, measured with no instrumentation;
``--trace 1`` reports the per-layer metrics from operations run with
timing wrappers installed around each layer's entry points (see
``layers.py``), alternating with plain ones, and also writes them to
``.perfbench_out/<workload>-seed<seed>.json``.
``python3 perfbench/diff.py A.json B.json`` prints the per-layer deltas
between two such files.  Metric names and units come from
``BENCHMARK.json``.

Workloads (each built so that one layer does most of the work):

* ``fig-lp`` -- sweep cells within the LP round limit, so every trial
  solves LP (1)-(4) and the binary-searched LP (19)-(21).  Layer: ``lp``.
* ``fig-sim`` -- long-T cells past the LP limit, LP bounds off.
  Layers: ``matching`` and ``online``.  Predicts no change for ``lp`` work.
* ``service`` -- in-process solve service, one worker process, a closed
  loop of two client threads; each sends one new instance (a miss),
  then three repeats (store hits).  Layers: ``service``, ``api.store``.

A sweep workload is a fixed list of small sweeps ("parts"), each with
its own seed derived from ``--seed``; the window runs the parts in turn,
over and over.  The service window is a row of segments, each against a
freshly started service with an empty store and the same requests.

End-to-end metrics (every workload reports each of them):

* ``setup_s`` -- median over fresh processes, spread over the run, of
  the time from the start of the process to the end of its set-up:
  imports, input generation, and the fixed-seed anchor sweep (sweeps) or
  the service start (service).
* ``p10_rel`` -- 10th-percentile latency of one operation, over the
  10th-percentile latency of a fixed calibration kernel timed between
  the operations (``calibrate.py``).  The operation latency is, on
  fig-lp and fig-sim, each part's 10th percentile over its runs,
  averaged over the parts; on service, the 10th percentile over all
  client cycles (one miss and its three hits).  On a shared 2-core host
  the speed this process gets swings by 30-40% from minute to minute; a
  median follows that swing, the fast end of the distribution less so,
  and the ratio to the kernel cancels most of the rest.
* ``peak_rss_mb`` -- peak resident memory: the benchmark process, plus
  on service the largest peak of the worker process.
* ``ok_share`` -- operations completed and passing the output checks,
  over operations attempted.

The raw latencies (on sweeps averaged over the parts, like ``p10_rel``)
and the throughput of the plain operations are
per-layer metrics (``e2e.p10_s``, ``e2e.p50_s``, ``e2e.ops_per_s``, with
the kernel's own ``host.calibration_s``): they carry no bound, because
host drift moves them more than any bound allows.  A trace-0 run prints
the raw ``p10_s`` and the kernel time on the line before its result.

Which end-to-end metric each per-layer metric should move (sweep
figures are per pass over all parts, service figures per request):

* ``lp.*`` -- ``p10_rel`` on fig-lp; nothing on fig-sim or service.
* ``matching.*`` -- ``p10_rel`` on fig-sim (the bulk of its time), on
  service (each miss is one MaxWeight solve), and on fig-lp only
  slightly.
* ``online.solve_s.*``, ``online.merged_share`` -- ``p10_rel`` on fig-sim.
* ``workloads.generate_*`` -- under 1% of ``p10_rel`` on every workload.
* ``api.runner_self_s`` -- sweep time no layer below claims; ``p10_rel``.
* ``api.store_*``, ``service.materialize_*`` -- ``p10_rel`` on service,
  through the three hits of each cycle.
* ``service.wait_s``, ``service.poll_wait_s``, ``service.solve_s`` --
  ``service.miss_p50_s`` and ``p10_rel`` on service.

Seeds: ``--seed`` picks every generated input; the default is 2020 and
4242 is held out for confirming later claims.  For these two seeds the
LP optima and flow counts must match ``reference.json`` exactly (rho*)
or to 1e-6 relative (LP (1)-(4)); so must those of the small fixed-seed
anchor sweep that every sweep run performs during set-up.
``make_reference.py`` rewrites that file; run it only when a workload's
definition changes.
"""

import os
import sys
import time

_START = time.perf_counter()
# One BLAS/OpenMP thread, set before numpy is first imported: the sweep
# is serial and the service has one worker, so busy processes <= nproc.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import Calibration  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 2020
HELD_OUT_SEED = 4242
WORKLOADS = ("fig-lp", "fig-sim", "service")
#: Fresh set-up processes per run; their median is ``setup_s``.
SETUP_PROBES = 5


def metric_units() -> tuple:
    """``(end_to_end, per_layer)``: metric name -> unit, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def make_bench(workload: str, seed: int):
    with open(HERE / "reference.json") as fh:
        references = json.load(fh)
    reference = references[workload].get(str(seed))
    if workload == "service":
        import service_load

        return service_load.ServiceBench(seed, reference, str(OUT_DIR / "tmp"))
    import sweeps

    return sweeps.SweepBench(workload, seed, reference, references["anchor"])


class SetupProbes:
    """Set-up times of fresh processes, taken between timed operations.

    Every sample is timed the same way: a new interpreter runs this
    script with ``--setup-probe`` and reports the time from its start to
    the end of the workload's set-up.  ``between(progress)`` takes
    probes so that they spread evenly over the window.
    """

    def __init__(self, args, count: int):
        self.args = args
        self.count = count
        self.samples = []

    def _probe(self) -> None:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             self.args.workload, "--seed", str(self.args.seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        self.samples.append(
            float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
        )

    def between(self, progress: float) -> None:
        while len(self.samples) < min(self.count,
                                      math.floor(self.count * progress)):
            self._probe()

    def finish(self) -> float:
        self.between(1.0)
        return statistics.median(self.samples)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        bench = make_bench(args.workload, args.seed)
        try:
            bench.setup(probe=True)
            elapsed = time.perf_counter() - _START
        finally:
            bench.close()
        print(json.dumps({"setup_s": elapsed}))
        return 0

    end_to_end, per_layer = metric_units()
    # Set-up time is an end-to-end metric; a traced run does not report it.
    probes = SetupProbes(args, 0 if args.trace else SETUP_PROBES)
    calibration = Calibration()

    def between(progress: float) -> None:
        probes.between(progress)
        calibration.sample()

    bench = make_bench(args.workload, args.seed)
    try:
        bench.setup()
        result = bench.run(args.seconds, trace=bool(args.trace),
                           between=between)
    finally:
        bench.close()

    env = environment()
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "env": env, "p10_s": result["p10_s"],
                      "calibration_p10_s": calibration.p10()}))
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = result["attempted"]
    failed = result["failed"]
    if args.trace:
        layers = dict(result["layers"], **{
            "e2e.p10_s": result["p10_s"],
            "e2e.p50_s": result["p50_s"],
            "e2e.ops_per_s": result["ops_per_s"],
            "host.calibration_s": calibration.p10(),
        })
        metrics = {name: float(layers.get(name, 0.0)) for name in per_layer}
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{args.workload}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "env": env, "metrics": metrics}, fh, indent=1,
                      sort_keys=True)
        print(f"per-layer metrics written to {path}", file=sys.stderr)
        units = per_layer
    else:
        own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": probes.finish(),
            "p10_rel": result["p10_s"] / calibration.p10(),
            "peak_rss_mb": own_mb + result.get("worker_rss_mb", 0.0),
            "ok_share": (attempted - failed) / attempted,
        }
        units = end_to_end
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
