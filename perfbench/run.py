"""dicycles benchmark: seeded verification workloads, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload long_cycles --seed 1 --seconds 30 --trace 0

Each run starts fresh worker processes one after another, never two at
once: the measuring one, which sets up (import, build the seeded batch,
warm up) and runs the batch as a closed loop with one client for
``--seconds``, between ``SETUPS // 2`` before and ``SETUPS // 2`` after
that only set up.  ``setup_s`` is the median set-up time of all of them,
measured from process start; spreading them over the run averages the
host's changes of speed, as the measuring worker's passes do.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics from the traced passes
(the spans are written under ``.bench_out/``).  The line before it is the
provenance block: machine, versions, seed, deterministic outputs and
timing details.  A job whose outputs fail a check counts in ``failed``.
Exits 2 without a result when ``src/dicycles`` is not next to this
directory, and 1 when a worker dies or overruns.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the names in workloads.WORKLOADS; this process does not import dicycles
WORKLOADS = ("long_cycles", "short_walks", "small_extremal")
SETUPS = 9
# the whole run, set-ups and measuring worker, must end within this
BUDGET_S = 170.0
# BLAS runs on one thread: one client, and at most nproc threads in all
THREAD_ENV = {name: "1" for name in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}


class WorkerError(RuntimeError):
    pass


def _worker(args, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Run one worker to completion; returns (set-up seconds, its report)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker overran the run's time budget") from None
    finally:
        if proc.poll() is None:  # overrun, or this process is being stopped
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no report")
    report = json.loads(lines[-1])
    return report["ready"] - spawned, report


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, q a multiple of 10, by linear interpolation."""
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "dicycles" / "__init__.py").is_file():
        print(f"perfbench: no dicycles sources at {ROOT / 'src' / 'dicycles'}", file=sys.stderr)
        return 2

    # a stopped run stops its worker too (see _worker's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + BUDGET_S
    try:
        setups = [_worker(args, deadline, setup_only=True)[0] for _ in range(SETUPS // 2)]
        setup, report = _worker(args, deadline, setup_only=False)
        setups.append(setup)
        setups += [_worker(args, deadline, setup_only=True)[0] for _ in range(SETUPS // 2)]
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    digests = report["job_digests"]
    batch_digest = hashlib.sha256("".join(f"{k}:{v}\n" for k, v in sorted(digests.items()))
                                  .encode()).hexdigest()
    attempted, failed = report["attempted"], report["failed"]
    provenance = {
        "machine": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                    **report["versions"]},
        "run": {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "git_commit": _git_commit(), "closed_loop_clients": 1,
                "exhaustive_threads": 1},
        "deterministic": {"jobs_per_pass": report["jobs_per_pass"], "families": report["families"],
                          "output_digest": batch_digest,
                          "digests_recorded_for_seed": report["digests_recorded"]},
        "timing": {"setup_s": setups, "setup_parts_s": report["setup_parts_s"],
                   "warmup_s": report["warmup_s"], "pass_walls_s": report["walls"]},
        "failures": report["failures"],
    }
    if args.trace == 1:
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in report["layers"].items()}
        overhead = statistics.median(report["traced_walls"]) - statistics.median(report["walls"])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        provenance["timing"].update(traced_pass_walls_s=report["traced_walls"],
                                    trace_file=report["trace_file"])
    else:
        lat_ms = [x * 1000.0 for x in report["latencies_s"]]
        p90 = _quantile(lat_ms, 90)
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(report["walls"]), "s"),
            "job_p50_ms": (statistics.median(lat_ms), "ms"),
            "job_p90_ms": (p90, "ms"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
        beyond = sum(1 for x in lat_ms if x > p90)
        provenance["timing"].update(job_samples=len(lat_ms), job_samples_beyond_p90=beyond)
        if report["warmup_s"].get("threshold") is not None and report["threshold_512_s"]:
            provenance["timing"]["threshold_density_512_s"] = {
                "cold": report["warmup_s"]["threshold"],
                "warm_median": statistics.median(report["threshold_512_s"])}
        print(f"perfbench {args.workload} seed={args.seed}: " + "  ".join(
            f"{name}={v:.6g} {u}" for name, (v, u) in values.items())
            + f"  failed_frac={failed / attempted:.6g} ({failed}/{attempted})"
            + f"  job samples={len(lat_ms)} ({beyond} beyond p90)")
    print(json.dumps(provenance, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    stat = name.rsplit(".", 1)[-1]
    if stat in ("calls", "failed"):
        return "count"
    if stat == "share":
        return "fraction"
    if stat == "busy_s":
        return "s"
    return "1/s"


if __name__ == "__main__":
    sys.exit(main())
