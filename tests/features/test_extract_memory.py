"""Memory pin for batched lane extraction.

``extract_many`` writes every channel straight into each lane's
preallocated matrix and filters the AR(1) columns in place through a
bounded scan scratch.  So building a fleet's lanes may allocate, at its
peak, the matrices it returns plus a few MB, not a second copy of every
lane's columns.
"""

import tracemalloc
from types import SimpleNamespace

from repro.data import build_experiment_data
from repro.harness import build_fleet_lanes
from repro.harness.tasks import get_task

#: Transient allocations allowed on top of the returned matrices: the
#: 3 MiB scan scratch and its per-group Python lists (measured ~3.8 MiB).
SCRATCH_BOUND_BYTES = 5 * 2**20


def test_build_fleet_lanes_peak_is_matrices_plus_scratch():
    data = build_experiment_data(get_task("TA10").spec(0.08), seed=0, max_records=20)
    experiment = SimpleNamespace(data=data)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lanes = build_fleet_lanes(experiment, 64)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # Lane 0 reuses the experiment's test features, built before tracing.
    built = sum(lane.features.values.nbytes for lane in lanes[1:])
    assert built > 3 * SCRATCH_BOUND_BYTES  # the pin has something to bite on
    assert peak <= built + SCRATCH_BOUND_BYTES, (
        f"peak {peak / 2**20:.1f} MiB for {built / 2**20:.1f} MiB of matrices"
    )
