"""The two in-process workloads: ``sim-matrix`` and ``suite-sweep``.

Both are closed loops: the next cell (or suite pass) starts when the
previous one returns. Every ``SimResult`` and rendered table is checked
field for field against the recorded reference for the run's simulation
seed. Timings are put on the reference host's scale by host-speed
probes taken between cells, passes and set-ups (see ``hostspeed``).
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import hostspeed
import outputs
import tracer as tracing

MATRIX_MEMORIES = ("ddr3", "rl", "hmc_cwf")
MATRIX_BENCHMARKS = ("mcf", "leslie3d")
MATRIX_READS = 4000

SUITE_BENCHMARKS = ("mcf", "leslie3d", "lbm", "omnetpp")
SUITE_READS = 300
SUITE_JOBS = 2

SETUP_REPEATS = 9

_SETUP_MATRIX = (
    "import repro.sim.system\n"
    "from repro.workloads.registry import create_workload\n"
    f"for name in {MATRIX_BENCHMARKS!r}: create_workload(name)\n")

_SETUP_SUITE = (
    "from repro.experiments import ALL_EXPERIMENTS, ExperimentConfig, "
    "suite_specs\n"
    f"config = ExperimentConfig(target_dram_reads={SUITE_READS}, "
    f"benchmarks={SUITE_BENCHMARKS!r}, cache_dir=None)\n"
    "suite_specs(list(ALL_EXPERIMENTS), config)\n")


def time_setup(code: str, probe, repeats: int = SETUP_REPEATS) -> float:
    """Median wall time of fresh interpreters running ``code``, each on
    the reference scale of the probes on either side of it."""
    probes = [probe()]
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        elapsed = time.perf_counter() - start
        probes.append(probe())
        samples.append(hostspeed.at_reference(elapsed, probes[-2:]))
    return statistics.median(samples)


def _room_for_another(start: float, seconds: float, done: int) -> bool:
    """Whether one more pass of average length still ends in time."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def _cpu_seconds(children: bool) -> float:
    t = os.times()
    total = t.user + t.system
    if children:
        total += t.children_user + t.children_system
    return total


def _peak_rss_mb(children: bool) -> float:
    import resource
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


# ---------------------------------------------------------------------------
# sim-matrix
# ---------------------------------------------------------------------------


def _matrix_pass(seed: int, cells: List[dict],
                 probe=None) -> Dict[str, dict]:
    """One pass over the matrix. With a ``probe``, each cell also gets
    the host-speed ``factor`` of the probes on either side of it."""
    from repro.sim.config import SimConfig
    from repro.sim.system import run_benchmark

    results = {}
    probes = [probe()] if probe else []
    for memory in MATRIX_MEMORIES:
        for bench in MATRIX_BENCHMARKS:
            config = SimConfig(memory=memory, target_dram_reads=MATRIX_READS,
                               seed=seed)
            wall0, cpu0 = time.perf_counter(), time.process_time()
            result = run_benchmark(bench, config)
            cell = {"cell": f"{bench}/{memory}",
                    "wall": time.perf_counter() - wall0,
                    "cpu": time.process_time() - cpu0,
                    "reads": result.dram_reads}
            if probe:
                probes.append(probe())
                cell["factor"] = hostspeed.factor(probes[-2:])
            cells.append(cell)
            results[f"{bench}/{memory}"] = outputs.record(result)
    return results


def record_matrix(seed: int) -> Dict[str, dict]:
    return _matrix_pass(seed, [])


def sim_matrix(seed: int, seconds: float, trace: bool, tally,
               probe) -> dict:
    sim_seed = outputs.sim_seed(seed)
    reference = outputs.load_reference("sim-matrix").get(str(sim_seed))
    cells: List[dict] = []
    passes: List[Dict[str, dict]] = []
    out: dict = {"notes": [
        f"simulation seed {sim_seed}; {MATRIX_READS} reads per cell",
        "the process-global prewarm memo (sim/system.py _PREWARM_CACHE) "
        "starts empty: the first cell of each benchmark pays the full "
        "L2 prewarm, later passes replay it",
        "model_rl_speedup covers a 2-benchmark subset (mcf, leslie3d); "
        "PAPER.md reports 1.129 over the full suite"]}
    if trace:
        passes.append(_matrix_pass(sim_seed, []))  # warm-up, untraced
        plain: List[dict] = []
        passes.append(_matrix_pass(sim_seed, plain))
        tr = tracing.Tracer()
        tracing.install(tr)
        traced: List[dict] = []
        passes.append(_matrix_pass(sim_seed, traced))
        tally.check(passes[-1] == passes[-2],
                    "traced SimResults differ from untraced ones")
        layers = tracing.layer_metrics(tr.snapshot())
        layers["trace.overhead_ratio"] = (sum(c["wall"] for c in traced)
                                          / sum(c["wall"] for c in plain))
        out["layers"] = layers
        for result in passes:
            outputs.check_records(tally, result, reference, "cell")
        return out

    setup_s = time_setup(_SETUP_MATRIX, probe)
    start = time.perf_counter()
    while len(passes) < 2 or _room_for_another(start, seconds, len(passes)):
        passes.append(_matrix_pass(sim_seed, cells, probe))
    for result in passes:
        outputs.check_records(tally, result, reference, "cell")
    per_pass = len(MATRIX_MEMORIES) * len(MATRIX_BENCHMARKS)
    chunks = [cells[i:i + per_pass] for i in range(0, len(cells), per_pass)]
    raw_walls = [sum(c["wall"] for c in chunk) for chunk in chunks]
    walls = [sum(c["wall"] / c["factor"] for c in chunk) for chunk in chunks]
    cpus = [sum(c["cpu"] / c["factor"] for c in chunk) for chunk in chunks]
    reads = sum(c["reads"] for c in chunks[0])
    by_cell: Dict[str, List[float]] = {}
    for c in cells:
        by_cell.setdefault(c["cell"], []).append(c["reads"] / c["wall"])
    # Medians over passes of times on the reference scale.
    out["metrics"] = {
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(children=False),
        "sim_reads_per_s": reads / statistics.median(walls),
        "cpu_ms_per_kread": 1e3 * statistics.median(cpus) / (reads / 1e3),
        "latency_p50_s": statistics.median(walls),
        **outputs.model_metrics(passes[0].values()),
    }
    out["report"] = {f"cell {name} reads/s (as measured)":
                     (statistics.median(rates), "1/s")
                     for name, rates in sorted(by_cell.items())}
    out["report"].update(_scale_report(raw_walls, walls,
                                       [c["factor"] for c in cells]))
    return out


def _scale_report(raw_walls: List[float], walls: List[float],
                  factors: List[float]) -> dict:
    """The pass walls as measured and on the reference scale."""
    return {
        "pass walls (as measured)": (
            " ".join(f"{w:.3f}" for w in raw_walls), "s"),
        "pass walls (reference)": (
            " ".join(f"{w:.3f}" for w in walls), "s"),
        "host slowdown median": (statistics.median(factors), "x"),
    }


# ---------------------------------------------------------------------------
# suite-sweep
# ---------------------------------------------------------------------------


def _suite_config(sim_seed: int, cache_dir: Path):
    from repro.experiments import ExperimentConfig
    return ExperimentConfig(target_dram_reads=SUITE_READS,
                            benchmarks=SUITE_BENCHMARKS,
                            cache_dir=str(cache_dir), seed=sim_seed,
                            jobs=min(SUITE_JOBS, os.cpu_count() or 1))


def _suite_pass(sim_seed: int, cache_dir: Path) -> dict:
    """One cold suite: every spec resolved on an empty store, every
    table rendered."""
    from repro.experiments import ALL_EXPERIMENTS, ParallelExecutor, suite_specs

    config = _suite_config(sim_seed, cache_dir)
    cpu0 = _cpu_seconds(children=True)
    start = time.perf_counter()
    specs = suite_specs(list(ALL_EXPERIMENTS), config)
    executor = ParallelExecutor(config)
    results = executor.run(specs)
    tables = {key: ALL_EXPERIMENTS[key](config, results=results).format()
              for key in ALL_EXPERIMENTS}
    wall = time.perf_counter() - start
    cpu = _cpu_seconds(children=True) - cpu0  # workers are reaped by now
    shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "wall": wall,
        "cpu": cpu,
        "hits": executor.cache.stats()["hits"],
        "results": {outputs.spec_id(s): outputs.record(r)
                    for s, r in results.items()},
        "model": [outputs.record(r) for s, r in results.items()
                  if outputs.is_default_spec(s)],
        "tables": tables,
    }


def record_suite(seed: int, tmp: Path) -> dict:
    done = _suite_pass(seed, tmp / "record")
    return {"results": done["results"], "tables": done["tables"]}


def suite_sweep(seed: int, seconds: float, trace: bool, tally,
                tmp: Path, probe) -> dict:
    sim_seed = outputs.sim_seed(seed)
    reference = outputs.load_reference("suite-sweep").get(str(sim_seed), {})
    jobs = min(SUITE_JOBS, os.cpu_count() or 1)
    out: dict = {"notes": [
        f"simulation seed {sim_seed}; {SUITE_READS} reads per spec; "
        f"{jobs} executor workers; a fresh empty store per pass",
        "workers fork from a process that never simulates, so every pass "
        "starts with an empty prewarm memo (_PREWARM_CACHE)",
        "model_rl_speedup covers a 4-benchmark subset at 300 reads; "
        "PAPER.md reports 1.129 over the full suite"]}
    passes: List[dict] = []
    if trace:
        passes.append(_suite_pass(sim_seed, tmp / "pass-0"))
        spool = tmp / "spool"
        spool.mkdir(parents=True, exist_ok=True)
        tr = tracing.Tracer(spool_dir=str(spool))
        tracing.install(tr)
        passes.append(_suite_pass(sim_seed, tmp / "pass-1"))
        tr.merge_spool()
        tally.check(passes[1]["results"] == passes[0]["results"],
                    "traced SimResults differ from untraced ones")
        layers = tracing.layer_metrics(tr.snapshot(), workers=jobs)
        layers["trace.overhead_ratio"] = passes[1]["wall"] / passes[0]["wall"]
        out["layers"] = layers
        _check_suite(tally, passes, reference)
        return out

    setup_s = time_setup(_SETUP_SUITE, probe)
    start = time.perf_counter()
    before = [probe() for _ in range(hostspeed.BOUNDARY_PROBES)]
    while len(passes) < 2 or _room_for_another(start, seconds, len(passes)):
        done = _suite_pass(sim_seed, tmp / f"pass-{len(passes)}")
        after = [probe() for _ in range(hostspeed.BOUNDARY_PROBES)]
        done["factor"] = hostspeed.factor(before + after)
        before = after
        passes.append(done)
    _check_suite(tally, passes, reference)
    reads = sum(r["dram_reads"] for r in passes[0]["results"].values())
    walls = [p["wall"] / p["factor"] for p in passes]
    cpus = [p["cpu"] / p["factor"] for p in passes]
    out["metrics"] = {
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(children=True),
        "sim_reads_per_s": reads / statistics.median(walls),
        "cpu_ms_per_kread": 1e3 * statistics.median(cpus) / (reads / 1e3),
        "latency_p50_s": statistics.median(walls),
        **outputs.model_metrics(passes[0]["model"]),
    }
    out["report"] = {
        "suite_wall_s": (statistics.median(walls), "s"),
        **_scale_report([p["wall"] for p in passes], walls,
                        [p["factor"] for p in passes]),
        "specs per pass": (len(passes[0]["results"]), "count"),
        "tables per pass": (len(passes[0]["tables"]), "count"),
    }
    return out


def _check_suite(tally, passes: List[dict], reference: dict) -> None:
    for done in passes:
        tally.check(done["hits"] == 0,
                    f"cold suite pass hit the cache {done['hits']} times")
        outputs.check_records(tally, done["results"],
                              reference.get("results"), "spec")
        outputs.check_records(
            tally, {k: {"text": v} for k, v in done["tables"].items()},
            {k: {"text": v} for k, v in reference.get("tables", {}).items()}
            if reference else None, "table")
