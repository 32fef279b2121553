"""Repository benchmark: simulator throughput and job-service latency.

Run from the repository root::

    python3 perfbench/run.py --workload sim-matrix --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same work again with per-layer spans installed
and reports the per-layer metrics instead. CPU-bound timings are put on
the scale of a reference host by a host-speed probe (``hostspeed.py``),
because the speed of a shared host drifts from run to run; the report
also shows them as measured. The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Everything above it is a human-readable report: every metric by name
and unit, the workload-specific figures (per-cell rates, suite wall
time, cached/cold/coalesced service latencies), the error rate and the
environment. Metric names, units and which end-to-end metric each layer
metric should move are listed in ``perfbench/metrics.json``.

``--record-reference`` rewrites ``perfbench/reference/`` from the
current checkout: do that only on a commit whose outputs are known good.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("sim-matrix", "suite-sweep", "service-mix")

#: Environment knobs that change what the program does; a benchmark run
#: never inherits them.
PINNED_ENV = ("REPRO_SANITIZE", "REPRO_FAULT_PLAN", "REPRO_CHECKPOINT_DIR",
              "REPRO_CACHE", "REPRO_CACHE_BUDGET", "REPRO_JOBS", "REPRO_READS",
              "REPRO_BENCHMARKS", "REPRO_RETRIES", "REPRO_TIMEOUT",
              "REPRO_KEEP_GOING", "REPRO_CHECKPOINT_EVERY")


def load_metric_map() -> dict:
    with open(HERE / "metrics.json") as handle:
        return json.load(handle)


def pin_environment() -> list:
    """Drop the program's behaviour knobs; point imports at ``src``."""
    cleared = [name for name in PINNED_ENV if os.environ.pop(name, None)
               is not None]
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    return cleared


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run_workload(args, tmp: Path) -> int:
    import hostspeed
    import stats

    metric_map = load_metric_map()
    tally = stats.Tally()
    with hostspeed.Probe() as probe:
        if args.workload == "sim-matrix":
            import simwork
            out = simwork.sim_matrix(args.seed, args.seconds,
                                     bool(args.trace), tally, probe)
        elif args.workload == "suite-sweep":
            import simwork
            out = simwork.suite_sweep(args.seed, args.seconds,
                                      bool(args.trace), tally, tmp, probe)
        else:
            import service_mix
            out = service_mix.service_mix(args.seed, args.seconds,
                                          bool(args.trace), tally, tmp,
                                          probe)

    if args.trace:
        table = metric_map["per_layer"]
        # A layer the workload does not exercise reports 0.
        metrics = {name: float(out["layers"].get(name, 0.0))
                   for name in table}
    else:
        table = metric_map["end_to_end"]
        metrics = {name: float(out["metrics"][name]) for name in table}
    stats.check_names(metrics)

    print(f"== perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} ==")
    print(f"python {platform.python_version()}  nproc {os.cpu_count()}  "
          f"platform {platform.platform()}")
    for note in out.get("notes", ()):
        print(f"note: {note}")
    for name, value in metrics.items():
        print(f"{name:<28} {_fmt(value):>14} {table[name]['unit']}")
    for name, (value, unit) in out.get("report", {}).items():
        print(f"{name:<44} {_fmt(value):>14} {unit}")
    print(f"{'error_rate':<28} {_fmt(tally.error_rate):>14} ratio "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for reason in tally.reasons:
        print(f"FAILED: {reason}")
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {name: {"value": value, "unit": table[name]["unit"]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def record_references(tmp: Path) -> int:
    import outputs
    import simwork

    matrix, suite = {}, {}
    for offset in range(outputs.SIM_SEED_POOL):
        seed = outputs.SIM_SEED_BASE + offset
        matrix[str(seed)] = simwork.record_matrix(seed)
        suite[str(seed)] = simwork.record_suite(seed, tmp)
        print(f"recorded simulation seed {seed}", file=sys.stderr)
    print(outputs.write_reference("sim-matrix", matrix))
    print(outputs.write_reference("suite-sweep", suite))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Simulator and service benchmark (see module docstring).")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite perfbench/reference/ from this checkout")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    cleared = pin_environment()
    if cleared:
        print(f"perfbench: cleared {', '.join(cleared)} for this run",
              file=sys.stderr)
    tmp = ROOT / ".perfbench_tmp" / f"{os.getpid()}-{int(time.time())}"
    tmp.mkdir(parents=True)
    try:
        if args.record_reference:
            return record_references(tmp)
        return run_workload(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
