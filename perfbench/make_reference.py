#!/usr/bin/env python3
"""Rewrite ``reference.json``: the tie-break-free outputs of each workload
for the default and held-out seeds.

Each sweep part and the set-up anchor sweep record, per cell, the mean
flow count and the two LP optima (rho* of LP (19)-(21), the optimum of
LP (1)-(4)); the service records the digests of the first generated
instances.  Run from the repository root, only when a workload's
definition changes::

    python3 perfbench/make_reference.py
"""

import json
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import service_load  # noqa: E402
import sweeps  # noqa: E402
from repro.experiments.harness import run_sweep  # noqa: E402
from repro.lp.bounds import clear_bound_caches  # noqa: E402

SERVICE_DIGESTS = 4


def main() -> int:
    clear_bound_caches()
    reference = {"anchor": sweeps.reference_rows(sweeps.anchor_rows())}
    for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
        for name, spec in sweeps.SPECS.items():
            parts = []
            for config in sweeps.part_configs(name, seed):
                clear_bound_caches()
                rows = sweeps.cell_rows(
                    run_sweep(config, compute_lp_bounds=spec["lp"])
                )
                problems = sweeps.check_rows(
                    rows, spec["config"]["trials"], spec["lp"], None
                )
                if problems:
                    raise SystemExit(f"{name} seed {seed}: {problems}")
                parts.append(sweeps.reference_rows(rows))
            reference.setdefault(name, {})[str(seed)] = parts
        pool = service_load.InstancePool(seed)
        reference.setdefault("service", {})[str(seed)] = {
            "digests": [pool.get(i)[2] for i in range(SERVICE_DIGESTS)]
        }
    with open(HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
