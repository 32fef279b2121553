"""HMC critical-data-first extension (paper Sec 10 future work)."""

from repro.core.hmc import (
    HMC_HF_DEVICE,
    HMC_HF_TIMING,
    HMC_LP_DEVICE,
    build_hmc_memory,
)
from repro.core.cwf import CWFPolicy
from repro.sim.config import SimConfig
from repro.sim.system import SimulationSystem
from repro.util.events import EventQueue
from repro.workloads.profiles import profile_for
from repro.workloads.synthetic import generate_core_trace


class TestDevices:
    def test_hf_is_faster(self):
        assert HMC_HF_TIMING.t_rc < HMC_LP_DEVICE.timing.t_rc
        assert HMC_HF_TIMING.t_rl < HMC_LP_DEVICE.timing.t_rl

    def test_geometry_consistent(self):
        for dev in (HMC_HF_DEVICE, HMC_LP_DEVICE):
            bits = (dev.num_banks * dev.num_rows * dev.num_cols
                    * dev.data_width_bits)
            assert bits == dev.capacity_mbit * 1024 * 1024


class TestMemory:
    def test_build_and_read(self):
        events = EventQueue()
        memory = build_hmc_memory(events)
        assert memory.config.fast_device is HMC_HF_DEVICE
        assert memory.config.bulk_device is HMC_LP_DEVICE
        log = {}
        ok = memory.issue_read(100, 0, 0, False,
                               lambda t: log.setdefault("crit", t),
                               lambda t: log.setdefault("done", t))
        assert ok
        guard = 0
        while "done" not in log:
            assert events.step()
            guard += 1
            assert guard < 100_000
        assert log["crit"] < log["done"]
        assert memory.stats.critical_served_fast == 1

    def test_end_to_end_speedup_structure(self):
        """HMC-CDF behaves like RL: word-0 apps wake early."""
        config = SimConfig(num_cores=2, target_dram_reads=300)
        profile = profile_for("leslie3d")
        traces = [generate_core_trace(profile, c, 150) for c in range(2)]

        base_system = SimulationSystem(config, traces, profile=profile)
        base = base_system.run()

        hmc_system = SimulationSystem(config, traces, profile=profile,
                                      memory_builder=build_hmc_memory)
        hmc = hmc_system.run()

        assert hmc.fast_service_fraction > 0.6
        assert hmc.avg_critical_latency < base.avg_critical_latency

    def test_adaptive_policy_supported(self):
        events = EventQueue()
        memory = build_hmc_memory(events, policy=CWFPolicy.ADAPTIVE)
        memory.issue_write(55, critical_word_tag=6, core_id=0)
        assert memory.fast_word(55) == 6
