"""graft benchmark: one workload per process, seeded inputs, checked outputs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload transfer-1200 --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones (task_s, setup_s, peak_rss_mb, combined_f1); with
``--trace 1`` they are the per-layer ones, and the spans go to
``perfbench/out/``. ``--workload all`` runs every workload, each in a process
of its own, and prints one summary line per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("transfer-1200", "mu-grid", "ingest-snapshots")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads() -> int:
    """Pin BLAS to the cores this process may use; must run before numpy loads."""
    n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(n)
    return n


def load_program() -> int:
    """Pin BLAS threads, then import graft from this checkout's ``src``.

    Returns the BLAS thread count, or 0 when this is not a source checkout.
    """
    threads = blas_threads()
    if not (ROOT / "src" / "graft" / "__init__.py").is_file():
        print(f"graft sources not found under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 0
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import graft

    if Path(graft.__file__).resolve().parent != ROOT / "src" / "graft":
        print(f"imported graft from {graft.__file__}, not from this checkout", file=sys.stderr)
        return 0
    return threads


def run_all(args) -> int:
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        print(f"{name}: {lines[-1] if lines else '(no result)'}", flush=True)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    start = time.perf_counter()
    threads = load_program()
    if not threads:
        return 2
    import resource

    import checks
    import workloads
    from spans import Tracer, allocation_peaks

    import_s = time.perf_counter() - start

    workload = workloads.WORKLOADS[args.workload]
    tracer = Tracer(args.seed) if args.trace else None
    st, tally, setup_s, rounds = workloads.run(workload, args.seed, args.seconds, tracer)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  blas_threads {threads}  "
          f"rounds {rounds}  tasks {len(tally.task_s)}  attempted {tally.attempted}  failed {tally.failed}")
    task_s = statistics.median(tally.task_s) if tally.task_s else 0.0
    print(f"task_s {task_s:.4f} s (median of {len(tally.task_s)}: "
          + ", ".join(f"{t:.3f}" for t in tally.task_s) + ")")
    if workload.name != "ingest-snapshots":
        print(f"{workload.task_alias} {task_s:.4f} s")
    elif task_s:
        print(f"events_per_s {len(st['stream'].lines) / task_s:.1f} events/s")

    if tracer is None:
        quality = statistics.fmean(tally.quality) if tally.quality else 0.0
        metrics = {
            "task_s": (task_s, "s"),
            "setup_s": (import_s + setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "combined_f1": (quality, "ratio"),
        }
    else:
        source = workload.spot_source(st)
        if source is not None:
            spot = [p for types, rows, got in tracer.hop_samples
                    for p in checks.hop_rows_problems(source, types, rows, got)]
            print(f"meta-path spot check: {len(tracer.hop_samples)} paths, "
                  f"{sum(len(r) for _, r, _ in tracer.hop_samples)} rows, {len(spot)} problems")
            if spot or not tracer.hop_samples:
                print("\n".join(spot) or "no hop matrices captured", file=sys.stderr)
                tally.wrong += 1
                tally.failed = min(tally.failed + 1, tally.attempted)
        peaks: dict[str, float] = {}
        with allocation_peaks(peaks):
            workload.alloc_pass(st)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        spans = out / f"spans-{workload.name}-seed{args.seed}.json"
        tracer.write(spans)
        print(f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
        metrics = tracer.layer_metrics(peaks)

    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
