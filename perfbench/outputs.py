"""Output checks: canonical result records, recorded references, and the
paper-model figures computed from a workload's results.

A reference file holds, per simulation seed, every ``SimResult`` (and,
for the suite, every rendered table) that the workload produced at the
commit that recorded it. A run compares field for field; any difference
is a failed operation.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Simulation seeds the benchmark seed maps onto. References exist for
#: each, so any ``--seed`` is checkable.
SIM_SEED_BASE = 42
SIM_SEED_POOL = 8


def sim_seed(seed: int) -> int:
    return SIM_SEED_BASE + seed % SIM_SEED_POOL


def record(result) -> dict:
    """A ``SimResult`` as plain JSON data (tuples become lists)."""
    return json.loads(json.dumps(dataclasses.asdict(result)))


def spec_id(spec) -> str:
    """A readable identity for a ``RunSpec`` that is stable across commits."""
    parts = [spec.label, spec.runner,
             json.dumps(spec.overrides, default=str),
             json.dumps(spec.params, default=str)]
    return "|".join(parts)


def diff_fields(got: Mapping, want: Mapping) -> List[str]:
    """Names of the fields whose values differ (or exist on one side)."""
    return sorted(name for name in set(got) | set(want)
                  if got.get(name, _MISSING) != want.get(name, _MISSING))


_MISSING = object()


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    with open(path) as handle:
        return json.load(handle)


def write_reference(workload: str, data: dict) -> Path:
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    path = REFERENCE_DIR / f"{workload}.json"
    path.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    return path


def check_records(tally, got: Mapping[str, dict],
                  want: Optional[Mapping[str, dict]], what: str) -> None:
    """Count one operation per record; mismatches and gaps fail."""
    if want is None:
        tally.fail(f"{what}: no reference recorded for this seed")
        return
    for key, record_got in got.items():
        expected = want.get(key)
        if expected is None:
            tally.fail(f"{what} {key}: not in the reference")
            continue
        fields = diff_fields(record_got, expected)
        tally.check(not fields, f"{what} {key}: fields differ: {fields}")
    missing = sorted(set(want) - set(got))
    if missing:
        tally.fail(f"{what}: {len(missing)} reference entries not produced, "
                   f"e.g. {missing[0]}")


def model_metrics(records: Iterable[dict]) -> Dict[str, float]:
    """Simulated RL-vs-DDR3 figures over the benchmarks a workload ran.

    ``model_rl_speedup`` is the sum-of-IPC of ``rl`` over ``ddr3`` on the
    same benchmarks (PAPER.md reports 1.129 over the full suite);
    ``model_rl_critical_cycles`` is the demand-read-weighted mean
    critical-word latency on ``rl``, in CPU cycles. Only default runs
    (no variant, runner or overrides) count.
    """
    ipc: Dict[tuple, float] = {}
    critical: Dict[str, tuple] = {}
    for rec in records:
        if rec["memory"] not in ("ddr3", "rl"):
            continue
        ipc[(rec["memory"], rec["benchmark"])] = sum(rec["per_core_ipc"])
        if rec["memory"] == "rl":
            critical[rec["benchmark"]] = (
                rec["avg_critical_latency"] * rec["demand_reads"],
                rec["demand_reads"])
    benches = sorted(b for b in critical if ("ddr3", b) in ipc)
    reads = sum(critical[b][1] for b in benches)
    if not reads:
        raise ValueError("no rl/ddr3 result pair to compute model metrics")
    return {
        "model_rl_speedup": (sum(ipc[("rl", b)] for b in benches)
                             / sum(ipc[("ddr3", b)] for b in benches)),
        "model_rl_critical_cycles": sum(critical[b][0] for b in benches) / reads,
    }


def is_default_spec(spec) -> bool:
    return not (spec.variant or spec.runner or spec.overrides or spec.params
                or spec.base is not None)
