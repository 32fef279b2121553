"""Throughput gate: perfbench's sim-matrix against a committed baseline.

    python3 benchmarks/perf_gate.py           # compare with the baseline
    python3 benchmarks/perf_gate.py --record  # rewrite the baseline

Runs ``perfbench/run.py --workload sim-matrix`` with this interpreter and
checks the host-scaled ``sim_reads_per_s`` and ``cpu_ms_per_kread``
against ``benchmarks/perf_baseline.json``, each within the ``bound``
that ``BENCHMARK.json`` fixes for it. Exit 0 when both are within
bounds; 1 on a regression past a bound or a failed run (``correct:
false`` or ``failed > 0``); 2, before running anything, when the
baseline is missing or unreadable or was recorded with another
workload, seed, seconds, Python minor version or benchmark contract.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "benchmarks" / "perf_baseline.json"
RUN = {"workload": "sim-matrix", "seed": 1, "seconds": 10.0}
GATED = ("sim_reads_per_s", "cpu_ms_per_kread")


def current_keys() -> dict:
    """What a baseline must match to be compared with a run here: the
    run, the Python minor version and a sha256 over ``BENCHMARK.json``
    and the ``perfbench/*.py`` sources (the benchmark contract)."""
    digest = hashlib.sha256()
    for path in [ROOT / "BENCHMARK.json",
                 *sorted((ROOT / "perfbench").glob("*.py"))]:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {**RUN, "python": "%d.%d" % sys.version_info[:2],
            "contract": digest.hexdigest()}


def load_baseline(keys: dict):
    """``(baseline, None)``, or ``(None, why)`` when the baseline cannot
    be compared with a run whose keys are ``keys``."""
    try:
        baseline = json.loads(BASELINE.read_text())
        if not all(baseline["metrics"][name] > 0 for name in GATED):
            raise ValueError("non-positive metric")
    except (OSError, ValueError, TypeError, KeyError) as exc:
        return None, f"no readable baseline at {BASELINE} ({exc!r})"
    for key, value in keys.items():
        if baseline.get(key) != value:
            return None, (f"baseline {key} is {baseline.get(key)!r}, this "
                          f"run's is {value!r}; re-record with --record")
    return baseline, None


def run_failure(report: dict):
    """Why the run's own outputs fail, or ``None`` when they pass."""
    if report.get("correct") is True and report.get("failed") == 0:
        return None
    return (f"FAIL run: correct={report.get('correct')} "
            f"failed={report.get('failed')}")


def verdict(report: dict, baseline: dict):
    """Exit code and one line per check of a run against the baseline's
    metrics."""
    failure = run_failure(report)
    if failure:
        return 1, [failure]
    table = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    code, lines = 0, []
    for metric in (m for m in table if m["name"] in GATED):
        name, bound = metric["name"], metric["bound"]
        value, base = report["metrics"][name]["value"], baseline[name]
        change = (value - base) / base
        ok = (-change if metric["better"] == "higher" else change) <= bound
        code = code if ok else 1
        lines.append(f"{'ok  ' if ok else 'FAIL'} {name}: {value:.6g} vs "
                     f"baseline {base:.6g} ({change:+.1%}, "
                     f"{metric['better']} is better, bound {bound:.0%})")
    return code, lines


def run_perfbench() -> dict:
    """Run the gated workload; its report is the last line of stdout."""
    argv = [sys.executable, "perfbench/run.py", "--trace", "0"]
    for key, value in RUN.items():
        argv += [f"--{key}", str(value)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    print(proc.stdout, end="")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"correct": False, "failed": None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite the baseline from this checkout")
    args = parser.parse_args(argv)
    keys = current_keys()
    if args.record:
        report = run_perfbench()
        failure = run_failure(report)
        if failure:
            print(failure)
            return 1
        metrics = {name: report["metrics"][name]["value"] for name in GATED}
        BASELINE.write_text(json.dumps({**keys, "metrics": metrics},
                                       indent=1) + "\n")
        print(f"recorded {BASELINE}")
        return 0
    baseline, reason = load_baseline(keys)
    if reason:
        print(f"perf gate refused: {reason}", file=sys.stderr)
        return 2
    code, lines = verdict(run_perfbench(), baseline["metrics"])
    print(*lines, sep="\n")
    print(f"perf gate: {'FAIL' if code else 'ok'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
