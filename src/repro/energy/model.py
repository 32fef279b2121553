"""System energy model — paper Section 6.1.3 "Methodology".

The paper's assumptions, implemented verbatim:

* In the **baseline**, the DRAM system consumes 25 % of total system
  power; the remaining 75 % is the CPU side.
* One third of CPU power is constant (leakage + clock); the other two
  thirds scale linearly with CPU activity (we use relative throughput,
  i.e. aggregate IPC vs. the baseline run, as the activity factor).
* DRAM power for each configuration comes from the Micron-style power
  model fed with simulated activity factors.
* Energy = power x execution time; the paper reports system energy
  normalised to the DDR3 baseline (their Figure 10) and memory energy
  (the -15 % headline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.dram.device import DRAMKind
from repro.dram.power import default_power_model
from repro.memsys.base import MemorySystem
from repro.sim.system import SimResult
from repro.util.sums import left_sum

BASELINE_DRAM_SYSTEM_FRACTION = 0.25
CPU_STATIC_FRACTION = 1.0 / 3.0


@dataclass
class EnergyReport:
    """Energy of one configuration relative to the baseline run."""

    benchmark: str
    memory: str
    memory_power_mw: float
    cpu_power_mw: float
    elapsed_cycles: int
    normalized_memory_power: float
    normalized_memory_energy: float
    normalized_system_energy: float
    normalized_exec_time: float


class SystemEnergyModel:
    """Computes Figure 10-style normalised system energy."""

    def __init__(self, baseline: SimResult) -> None:
        if baseline.memory_power_mw <= 0:
            raise ValueError("baseline run has no memory power")
        self.baseline = baseline
        # DRAM is 25 % of baseline system power.
        self.baseline_system_mw = (baseline.memory_power_mw
                                   / BASELINE_DRAM_SYSTEM_FRACTION)
        self.cpu_peak_mw = self.baseline_system_mw - baseline.memory_power_mw
        self.cpu_static_mw = self.cpu_peak_mw * CPU_STATIC_FRACTION
        self.cpu_dynamic_mw = self.cpu_peak_mw - self.cpu_static_mw

    def cpu_power(self, result: SimResult) -> float:
        """CPU power scaled by activity (relative throughput)."""
        activity = (result.throughput / self.baseline.throughput
                    if self.baseline.throughput else 1.0)
        return self.cpu_static_mw + self.cpu_dynamic_mw * min(2.0, activity)

    def report(self, result: SimResult) -> EnergyReport:
        base = self.baseline
        cpu_mw = self.cpu_power(result)
        base_cpu_mw = self.cpu_static_mw + self.cpu_dynamic_mw
        t_ratio = result.elapsed_cycles / base.elapsed_cycles
        mem_energy = result.memory_power_mw * result.elapsed_cycles
        base_mem_energy = base.memory_power_mw * base.elapsed_cycles
        sys_energy = (result.memory_power_mw + cpu_mw) * result.elapsed_cycles
        base_sys_energy = ((base.memory_power_mw + base_cpu_mw)
                           * base.elapsed_cycles)
        return EnergyReport(
            benchmark=result.benchmark,
            memory=result.memory,
            memory_power_mw=result.memory_power_mw,
            cpu_power_mw=cpu_mw,
            elapsed_cycles=result.elapsed_cycles,
            normalized_memory_power=result.memory_power_mw / base.memory_power_mw,
            normalized_memory_energy=mem_energy / base_mem_energy,
            normalized_system_energy=sys_energy / base_sys_energy,
            normalized_exec_time=t_ratio,
        )


def memory_power_report(memory: MemorySystem, elapsed_cycles: int,
                        server_adapted_lpdram: bool = True) -> Dict[str, float]:
    """Per-family memory power (mW) for an arbitrary memory system.

    ``server_adapted_lpdram=False`` models the Malladi-style unterminated
    LPDRAM variant of Section 7.2 (no ODT/DLL adders, native currents).
    """
    activities = memory.chip_activities(elapsed_cycles)
    out: Dict[str, float] = {}
    for key, chips in activities.items():
        family = key.split(":")[-1]
        model = default_power_model(DRAMKind(family),
                                    server_adapted=server_adapted_lpdram)
        out[key] = left_sum(model.compute(a).total_mw for a in chips)
    return out


def weighted_speedup(shared_ipcs, alone_ipcs) -> float:
    """The paper's throughput metric: sum_i IPC_shared_i / IPC_alone_i."""
    if len(shared_ipcs) != len(alone_ipcs):
        raise ValueError("core count mismatch")
    total = 0.0
    for shared, alone in zip(shared_ipcs, alone_ipcs):
        if alone <= 0:
            raise ValueError("IPC_alone must be positive")
        total += shared / alone
    return total
