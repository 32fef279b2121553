"""Simulation assembly: configs, the system harness, and run results."""

from repro.sim.config import SimConfig, TABLE1
from repro.sim.system import SimulationSystem, SimResult, run_benchmark

__all__ = ["SimConfig", "TABLE1",
           "SimulationSystem", "SimResult", "run_benchmark"]
