"""repro — Critical-word-first heterogeneous DRAM memory simulator.

A from-scratch Python reproduction of *"Leveraging Heterogeneity in DRAM
Main Memories to Accelerate Critical Word Access"* (MICRO 2012): a
cycle-level DRAM simulator for DDR3 / LPDDR2 / RLDRAM3, a USIMM-style
multi-core front end, the paper's heterogeneous critical-word-first
memory organisations, and an experiment harness regenerating every
table and figure in the paper's evaluation.

Quickstart::

    from repro import SimConfig, run_benchmark

    config = SimConfig(target_dram_reads=4000)
    base = run_benchmark("leslie3d", config.with_memory("ddr3"))
    rl = run_benchmark("leslie3d", config.with_memory("rl"))
    print(f"RL speedup: {rl.speedup_over(base):.3f}")

Memory organisations are named: the table in ``repro.memsys.registry``
maps names like ``"ddr3"``, ``"rl"``, or ``"hmc_cwf"`` to their build
functions, and adding one is adding a row (see README.md, "Adding a
memory organisation").
"""

from repro.sim.config import SimConfig, TABLE1
from repro.sim.system import SimResult, SimulationSystem, run_benchmark, make_traces
from repro.core.cwf import CriticalWordMemory, CWFConfig, CWFPolicy, HeteroPair
from repro.core.criticality import CriticalityProfiler
from repro.core.placement import PagePlacementMemory
from repro.memsys.homogeneous import HomogeneousMemory
from repro.memsys.registry import BACKENDS, resolve_name
from repro.workloads.profiles import PROFILES, benchmark_names, profile_for

__version__ = "1.0.0"

__all__ = [
    "SimConfig", "TABLE1",
    "SimResult", "SimulationSystem", "run_benchmark", "make_traces",
    "CriticalWordMemory", "CWFConfig", "CWFPolicy", "HeteroPair",
    "CriticalityProfiler", "PagePlacementMemory", "HomogeneousMemory",
    "BACKENDS", "resolve_name",
    "PROFILES", "benchmark_names", "profile_for",
    "__version__",
]
