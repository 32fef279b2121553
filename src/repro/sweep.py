"""Parameter-sweep utility for sensitivity studies.

Architecture papers live and die by sensitivity analyses; this module
makes them one-liners over the simulator::

    from repro.sweep import sweep
    table = sweep("leslie3d", memory="rl",
                  parameter="mshr_capacity", values=[16, 64, 256])
    print(table.format())

``memory`` is a backend name, so sensitivity studies run against any
organisation in :data:`repro.memsys.registry.BACKENDS` — the HMC
backends included — without touching this module.

Each sweep point is a declarative
:class:`~repro.experiments.specs.RunSpec`, so sweeps fan out over the
same process-pool executor as the figure suite (``jobs=4`` runs four
points at once; results come back in declared order either way).

Supported parameters (each maps onto the config object that owns it):

* ``mshr_capacity`` — L2 MSHR file size.
* ``prefetch_degree`` / ``prefetch_distance`` — stride prefetcher reach.
* ``prefetcher_enabled`` — on/off.
* ``rob_size`` — reorder-buffer entries (64 in the paper).
* ``read_queue_size`` / ``write_queue_size`` — controller queues.
* ``target_dram_reads`` — run length (convergence checks).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.executor import run_specs
from repro.experiments.runner import ExperimentConfig, ExperimentTable
from repro.experiments.specs import (
    _CONTROLLER_PARAMS,
    RunSpec,
    apply_parameter,
)
from repro.memsys.registry import resolve_name
from repro.sim.config import SimConfig
from repro.sim.system import SimResult


def sweep_spec(benchmark: str, base: SimConfig, parameter: str,
               value: object) -> RunSpec:
    """The declarative spec for one sweep point."""
    variant = f"sweep:{parameter}={value}"
    if parameter in _CONTROLLER_PARAMS:
        return RunSpec(benchmark, base.memory, variant=variant,
                       runner="sweep_controller_queue",
                       params=((parameter, value),), base=base)
    # Validate eagerly so unknown parameters fail before scheduling.
    apply_parameter(base, parameter, value)
    return RunSpec(benchmark, base.memory, variant=variant,
                   overrides=((parameter, value),), base=base)


def run_point(benchmark: str, base: SimConfig, parameter: str,
              value: object) -> SimResult:
    """One sweep point, in-process."""
    spec = sweep_spec(benchmark, base, parameter, value)
    config = ExperimentConfig(target_dram_reads=base.target_dram_reads,
                              seed=base.seed, cache_dir=None)
    from repro.experiments.specs import execute_spec
    return execute_spec(spec, config)


def sweep(benchmark: str, parameter: str, values: Sequence[object],
          memory: str = "ddr3",
          target_dram_reads: int = 1500,
          base: SimConfig = None,
          jobs: Optional[int] = None) -> ExperimentTable:
    """Sweep one parameter; returns a table of performance metrics.

    ``jobs`` fans the points out over worker processes (None or 1 =
    serial in-process; 0 = one per CPU). Sweeps are not cached — every
    call simulates.
    """
    memory = resolve_name(memory)
    base = base or SimConfig(memory=memory,
                             target_dram_reads=target_dram_reads)
    base = base.with_memory(memory)
    specs = [sweep_spec(benchmark, base, parameter, value)
             for value in values]
    config = ExperimentConfig(target_dram_reads=base.target_dram_reads,
                              seed=base.seed, cache_dir=None)
    results = run_specs(specs, config, jobs=jobs)
    table = ExperimentTable(
        experiment_id=f"sweep:{parameter}",
        title=f"{benchmark} on {memory}: sensitivity to {parameter}",
        columns=[parameter, "throughput", "critical_latency",
                 "fill_latency", "bus_utilization", "dram_reads"])
    for value, spec in zip(values, specs):
        result = results[spec]
        table.add(**{parameter: value,
                     "throughput": result.throughput,
                     "critical_latency": result.avg_critical_latency,
                     "fill_latency": result.avg_fill_latency,
                     "bus_utilization": result.bus_utilization,
                     "dram_reads": result.dram_reads})
    return table
