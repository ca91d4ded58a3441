"""Self-test of the benchmark's checks: a corrupted expected value must
count as a failed job.

Runs the warm-up jobs of every workload (small inputs, a second or two in
all) three times:

1. as they are: no job may fail;
2. with the expected value of each job's first comparison corrupted:
   every job must fail;
3. with a wrong recorded output digest for one job: exactly that job
   must fail.

Usage, from the repository root: ``python3 perfbench/selftest.py``.
Exits 1 when any of these does not hold.  Failed comparisons are listed
on stderr, as in a benchmark run.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402
from worker import Tally, run_pass  # noqa: E402


def corrupting(family: workloads.Family) -> workloads.Family:
    def check(job, out):
        checks = family.check(job, out)
        return [checks[0].corrupted()] + checks[1:]

    return workloads.Family(family.run, check)


def tally_of(jobs, families, recorded=None) -> Tally:
    tally = Tally(recorded or {})
    run_pass(jobs, NullTracer(), tally, families)
    return tally


def main() -> int:
    workdir = ROOT / ".bench_out" / f"selftest-{os.getpid()}"
    try:
        jobs = [job for name in workloads.WORKLOADS
                for job in workloads.build(name, 0, workdir / name).warmups]
        plain = tally_of(jobs, workloads.FAMILIES)
        corrupted = tally_of(jobs, {name: corrupting(f) for name, f in workloads.FAMILIES.items()})
        victim = jobs[0].id
        digest = tally_of(jobs, workloads.FAMILIES, {victim: "0" * 16})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [
        ("unchanged checks pass", plain.failed == 0),
        ("every corrupted expected value fails its job", corrupted.failed == len(jobs)),
        ("a wrong recorded digest fails exactly its job",
         digest.failed == 1 and digest.failures[0].startswith(victim + ":")),
    ]
    for label, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
    print(f"{len(jobs)} jobs; failed: plain {plain.failed}, corrupted {corrupted.failed}, "
          f"digest {digest.failed}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
