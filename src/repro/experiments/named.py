"""Named runners and views: the two closed tables a spec's ``runner``
is looked up in.

A *named runner* builds the prewarmed, not yet run
:class:`~repro.sim.system.SimulationSystem` for a setup a config
transform cannot express; :func:`~repro.experiments.specs.simulate`
runs it like any other, so the system must pickle when checkpointing is
on. A *view* is a reading of another spec's finished simulation:
``base`` maps a view spec to the spec whose simulation it reads, and
``extra`` computes the view's ``SimResult.extra`` from that
simulation's ``(system, result)``.

:data:`RUNNERS` and :data:`VIEWS` are literal: adding one is adding a
row here. This module imports no figure module (the figure modules and
:mod:`~repro.experiments.specs` import it), so every worker process
that can resolve a spec can resolve its runner.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict

from repro.core.criticality import PerLineProfiler
from repro.dram.controller import ControllerConfig
from repro.energy.model import memory_power_report
from repro.memsys.homogeneous import HomogeneousConfig, HomogeneousMemory
from repro.sim.system import (
    SimResult,
    SimulationSystem,
    make_traces,
    prewarm_l2,
)
from repro.workloads.profiles import profile_for

if TYPE_CHECKING:
    from repro.experiments.specs import RunSpec

# Fig 3 histograms are packed 32 lines deep, more than the table shows:
# the packed extra is part of every cached fig3 result.
FIG3_MAX_LINES = 32


def shrunken_profile(benchmark: str):
    """Footprint-shrunken variant used for reuse-sensitive profiling.

    The paper's Fig 3 monitors a billion cycles, long enough for hot
    lines to be fetched from DRAM many times. Our runs are far shorter,
    so the profiling pass shrinks the footprint (keeping it well above
    the LLC) to recreate the same DRAM-level line reuse.
    """
    profile = profile_for(benchmark)
    return dataclasses.replace(
        profile,
        footprint_lines=max(16384, profile.footprint_lines // 64))


def profiling_spec(benchmark: str) -> "RunSpec":
    # Deferred: repro.experiments.specs imports this module for its
    # tables, so this module cannot import it at load time.
    from repro.experiments.specs import RunSpec
    return RunSpec(benchmark, "ddr3", variant="profiling",
                   runner="criticality_profiling")


def _profiling_runner(spec: "RunSpec", config) -> SimulationSystem:
    """Shrunken-footprint baseline system (Fig 4's adaptive bound)."""
    sim_config = config.sim_config("ddr3")
    profile = shrunken_profile(spec.benchmark)
    traces = make_traces(profile, sim_config)
    system = SimulationSystem(sim_config, traces, profile=profile)
    system.profiler = PerLineProfiler()
    system.uncore.demand_miss_observer = system.profiler.observe
    prewarm_l2(system, profile)
    return system


def _controller_queue_runner(spec: "RunSpec", config) -> SimulationSystem:
    """Controller queue sizes need a custom memory build."""
    sim_config = spec.resolved_sim_config(config)
    if sim_config.memory != "ddr3":
        raise ValueError("controller-queue sweeps support the DDR3 "
                         "baseline only")
    (parameter, value), = spec.params
    cc = ControllerConfig(**{parameter: int(value)})
    profile = profile_for(spec.benchmark)
    traces = make_traces(profile, sim_config)
    system = SimulationSystem(
        sim_config, traces, profile=profile,
        memory_builder=lambda events: HomogeneousMemory(
            events, HomogeneousConfig(), controller_config=cc))
    prewarm_l2(system, profile)
    return system


def _fig3_extra(system: SimulationSystem, result: SimResult) -> dict:
    """The profiling pass's per-line histograms."""
    profiler = system.profiler
    return {"fig3": {
        "per_line_dominance": profiler.per_line_dominance(),
        "top_lines": [
            {"dominant_word": hist.dominant_word(),
             "fractions": hist.fractions(),
             "total": hist.total}
            for hist in profiler.top_lines(FIG3_MAX_LINES)
        ],
    }}


def _rl_spec(spec: "RunSpec") -> "RunSpec":
    from repro.experiments.specs import RunSpec  # deferred, as above
    return RunSpec(spec.benchmark, "rl")


def _sec72_extra(system: SimulationSystem, result: SimResult) -> dict:
    """Server-adapted vs native LPDRAM power of a finished RL run."""
    adapted = memory_power_report(system.memory, result.elapsed_cycles,
                                  server_adapted_lpdram=True)
    native = memory_power_report(system.memory, result.elapsed_cycles,
                                 server_adapted_lpdram=False)
    return {"sec72": {"adapted_mw": sum(adapted.values()),
                      "native_mw": sum(native.values())}}


@dataclass(frozen=True)
class View:
    """A reading of a finished simulation (see the module docstring)."""

    base: Callable[["RunSpec"], "RunSpec"]
    extra: Callable[[SimulationSystem, SimResult], dict]


RUNNERS: Dict[str, Callable[["RunSpec", object], SimulationSystem]] = {
    "criticality_profiling": _profiling_runner,
    "sweep_controller_queue": _controller_queue_runner,
}

VIEWS: Dict[str, View] = {
    "criticality_fig3": View(
        base=lambda spec: profiling_spec(spec.benchmark), extra=_fig3_extra),
    "sec72_power": View(base=_rl_spec, extra=_sec72_extra),
}
