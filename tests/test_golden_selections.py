"""Golden MinRTime/MaxWeight selections.

Both heuristics solve one maximum-weight matching per round, and when
several matchings tie for the maximum the selection is the solver's tie
choice (see :mod:`repro.matching.weight_matching`).  No other test pins
those choices, so this one hashes the assignments and queue histories of
a few fixed-seed, unit-capacity runs and checks the solo, streamed and
trial-batched engines against the same digest.  A solver upgrade or a
kernel edit that changes a tie choice fails here; update the digests
deliberately, in their own commit, and record the change in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from repro.online.batch import simulate_batch
from repro.online.policies import make_policy
from repro.online.simulator import simulate, simulate_stream
from repro.scenarios import build_stream

PORTS = 12
HORIZON = 20
#: (load, seed) cells; the mean arrivals per round is ``load * PORTS``.
CELLS = [(1, 2020), (1, 4242), (4, 2020), (4, 4242)]

GOLDEN = {
    "MinRTime": (
        "ef4b758cae45a04c6c60d6a880dc04fceaadbe8019d59b7bcc70d92ecc222267"
    ),
    "MaxWeight": (
        "b276720ce1e05728ab14f2cfe49f7d5d97398562d40b6fc238dc12a416db0f08"
    ),
}


def _streams():
    return [
        build_stream(
            f"paper-default:ports={PORTS},mean={load * PORTS},"
            f"horizon={HORIZON}",
            seed=seed,
        )
        for load, seed in CELLS
    ]


def _digest(runs):
    """sha256 over each run's assignment and queue history (int64)."""
    h = hashlib.sha256()
    for assignment, queue_history in runs:
        for arr in (assignment, queue_history):
            arr = np.ascontiguousarray(arr, dtype=np.int64)
            h.update(len(arr).to_bytes(8, "little"))
            h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("policy", sorted(GOLDEN))
class TestGoldenSelections:
    def test_solo_simulate(self, policy):
        runs = []
        for stream in _streams():
            res = simulate(stream.materialize(), make_policy(policy))
            runs.append((res.schedule.assignment, res.queue_history))
        assert _digest(runs) == GOLDEN[policy]

    def test_simulate_stream(self, policy):
        runs = []
        for stream in _streams():
            res = simulate_stream(
                stream, make_policy(policy),
                record_schedule=True, record_queue_history=True,
            )
            runs.append((res.assignment, res.queue_history))
        assert _digest(runs) == GOLDEN[policy]

    def test_batched_engine(self, policy):
        instances = [stream.materialize() for stream in _streams()]
        results = simulate_batch(
            instances, [make_policy(policy) for _ in instances]
        )
        runs = [(r.schedule.assignment, r.queue_history) for r in results]
        assert _digest(runs) == GOLDEN[policy]
