"""Record the output digest of every job for the default seeds.

A digest covers only exact outputs fixed by the mathematics (counts,
flags, exact densities), so every correct version of dicycles reproduces
it; runs on these seeds then compare each job's outputs against it.
Re-record only when the batches in ``workloads.py`` change, and never to
make a failing run pass.

Usage, from the repository root: ``python3 perfbench/record_digests.py``
(one pass per workload and seed, a few minutes).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402
from worker import DIGESTS, Tally, run_pass  # noqa: E402

DEFAULT_SEEDS = range(10)


def main() -> int:
    workdir = ROOT / ".bench_out" / f"digests-{os.getpid()}"
    table: dict[str, dict[str, dict[str, str]]] = {}
    try:
        for name in workloads.WORKLOADS:
            for seed in DEFAULT_SEEDS:
                batch = workloads.build(name, seed, workdir / f"{name}-{seed}")
                tally = Tally({})
                run_pass(batch.warmups + batch.jobs, NullTracer(), tally, workloads.FAMILIES)
                if tally.failed:
                    print(f"{name} seed {seed}: {tally.failed} jobs failed; nothing recorded",
                          file=sys.stderr)
                    return 1
                table.setdefault(name, {})[str(seed)] = tally.seen
                print(f"{name} seed {seed}: {len(tally.seen)} jobs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
