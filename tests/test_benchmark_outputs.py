"""The benchmark's output checks, run once: each workload's seed-0 batch
(the warm-up jobs, then one pass of the timed jobs) must match the
independent references of ``perfbench/refs.py`` and the output digests
recorded in ``perfbench/digests.json``.  A job that fails here is counted
as failed by every benchmark run of that seed.

The harness is only read: its inputs are written under ``tmp_path``, and
it is imported without writing bytecode next to it.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("long_cycles", "short_walks", "small_extremal")


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(PERFBENCH))
    dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import tracing
        import worker
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
        sys.path.remove(str(PERFBENCH))
    assert workloads.WORKLOADS == WORKLOADS
    return tracing, worker, workloads


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_jobs_pass_their_checks(harness, workload, tmp_path):
    tracing, worker, workloads = harness
    batch = workloads.build(workload, 0, tmp_path)
    tally = worker.Tally(worker.recorded_digests(workload, 0))
    assert set(tally.recorded) == {job.id for job in batch.warmups + batch.jobs}
    null = tracing.NullTracer()
    for job in batch.warmups:
        worker.execute(job, null, tally, workloads.FAMILIES)
    worker.run_pass(batch.jobs, null, tally, workloads.FAMILIES)
    assert tally.attempted == len(batch.warmups) + len(batch.jobs) > 0
    assert tally.failed == 0, tally.failures
