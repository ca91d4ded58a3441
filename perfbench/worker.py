"""One fresh benchmark process.

Imports dicycles from ``src/`` next to this directory, builds the seeded
batch, runs one untimed warm-up job of each family, and reports the
moment it became ready.  Unless ``--setup-only`` is given it then runs
the batch again and again, one job at a time, for ``--seconds``: with
``--trace 1`` untraced and traced passes alternate.  It prints one JSON
object on stdout; ``run.py`` starts it and turns that into metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import signal
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from refs import eq
from tracing import CHECK, JOB, PASS, NullTracer, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
MAX_REPORTED_FAILURES = 20


def _canonical(value):
    """Exact outputs as JSON values; a float here is a bug in the family."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    raise TypeError(f"{type(value).__name__} output outside a '_' key")


def output_digest(out: dict) -> str:
    exact = {k: _canonical(v) for k, v in sorted(out.items()) if not k.startswith("_")}
    return hashlib.sha256(json.dumps(exact, sort_keys=True).encode()).hexdigest()[:16]


class Tally:
    """Attempted and failed jobs, and the digest each job first produced."""

    def __init__(self, recorded: dict[str, str]):
        self.recorded = recorded
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(message)
            print(f"perfbench: {message}", file=sys.stderr)


def execute(job, tracer, tally: Tally, families) -> float:
    """Run one job, then check it; returns the job's latency in seconds.

    The latency covers the program calls only.  The checks, including the
    output digest against the recorded one (or against the first pass),
    run after the timer stops; any miss counts the job as failed.
    """
    family = families[job.family]
    tally.attempted += 1
    tracer.job = job.id
    start = perf_counter()
    try:
        with tracer.span(JOB):
            out = family.run(job, tracer)
    except Exception as exc:  # one broken job must not stop the batch
        latency = perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        tally.fail(f"{job.id} raised {type(exc).__name__}: {exc}")
        return latency
    latency = perf_counter() - start
    with tracer.span(CHECK):
        try:
            checks = family.check(job, out)
            digest = output_digest(out)
        except Exception as exc:  # a check that cannot run is a failed check
            traceback.print_exc(file=sys.stderr)
            tally.fail(f"{job.id} check raised {type(exc).__name__}: {exc}")
            return latency
        first = tally.seen.setdefault(job.id, digest)
        expected = tally.recorded.get(job.id, first)
        checks.append(eq("output digest", digest, expected))
        misses = [c for c in checks if not c.ok()]
    if misses:
        tally.fail(f"{job.id}: " + "; ".join(c.describe() for c in misses))
    return latency


def run_pass(jobs, tracer, tally: Tally, families) -> tuple[float, list[float]]:
    """One pass over the batch: its wall time and each job's latency."""
    start = perf_counter()
    with tracer.span(PASS):
        latencies = [execute(job, tracer, tally, families) for job in jobs]
    return perf_counter() - start, latencies


def recorded_digests(workload: str, seed: int) -> dict[str, str]:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed), {})


def _versions() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    # on SIGTERM, unwind so that the input files are removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import workloads
    imported = perf_counter()

    workdir = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        batch = workloads.build(args.workload, args.seed, workdir)
        built = perf_counter()
        tally = Tally(recorded_digests(args.workload, args.seed))
        null = NullTracer()
        warm = {job.family: execute(job, null, tally, workloads.FAMILIES) for job in batch.warmups}
        result = {
            "ready": time.monotonic(),
            "setup_parts_s": {"import": imported - t0, "build": built - imported,
                              "warmup": perf_counter() - built},
            "warmup_s": warm,
        }
        if not args.setup_only:
            result.update(_measure(args, batch, tally, workloads.FAMILIES))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  versions=_versions())
    print(json.dumps(result))
    return 0


def _measure(args, batch, tally, families) -> dict:
    """Passes over the batch until the next one would end after
    ``--seconds`` (at least two of each kind that the mode runs)."""
    jobs = batch.jobs
    tracer = Tracer()
    null = NullTracer()
    walls, traced_walls, latencies = [], [], []
    start = perf_counter()
    while True:
        tracing = args.trace == 1 and len(walls) > len(traced_walls)
        wall, lat = run_pass(jobs, tracer if tracing else null, tally, families)
        if tracing:
            traced_walls.append(wall)
        else:
            walls.append(wall)
            latencies.extend(lat)
        enough = len(walls) >= 2 and (args.trace == 0 or len(traced_walls) >= 2)
        if enough and perf_counter() - start + wall > args.seconds:
            break
    out = {
        "walls": walls,
        "latencies_s": latencies,
        "jobs_per_pass": len(jobs),
        "families": {f: sum(1 for j in jobs if j.family == f) for f in families
                     if any(j.family == f for j in jobs)},
        "job_digests": dict(tally.seen),
        "digests_recorded": bool(tally.recorded),
        "threshold_512_s": [x for job, x in zip(jobs * len(walls), latencies)
                            if job.family == "threshold" and job.params["resolution"] == 512
                            and job.params["expect"] == "band"],
    }
    if args.trace == 1:
        out["traced_walls"] = traced_walls
        out["layers"] = layer_metrics(tracer.spans)
        trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        out["trace_file"] = str(trace_path.relative_to(ROOT))
    return out


if __name__ == "__main__":
    sys.exit(main())
