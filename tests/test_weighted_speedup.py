"""The paper's weighted-speedup throughput metric (Section 5)."""

import pytest

from repro.energy.model import weighted_speedup
from repro.sim.config import SimConfig
from repro.sim.system import run_weighted_speedup


class TestWeightedSpeedupMetric:
    """Exact arithmetic of sum_i IPC_shared_i / IPC_alone_i."""

    def test_exact_sum_of_ratios(self):
        assert weighted_speedup([1.0, 2.0], [2.0, 2.0]) == pytest.approx(1.5)

    def test_identical_ipcs_give_core_count(self):
        assert weighted_speedup([0.7] * 4, [0.7] * 4) == pytest.approx(4.0)

    def test_core_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weighted_speedup([1.0, 1.0], [1.0])

    def test_nonpositive_alone_ipc_rejected(self):
        with pytest.raises(ValueError):
            weighted_speedup([1.0], [0.0])

    def test_empty_is_zero(self):
        assert weighted_speedup([], []) == 0.0


class TestWeightedSpeedup:
    def test_single_core_is_self_relative(self):
        # With one core there is no sharing: IPC_shared == IPC_alone by
        # construction, so the metric collapses to exactly 1.0.
        config = SimConfig(num_cores=1, target_dram_reads=300)
        assert run_weighted_speedup("mcf", config) == pytest.approx(1.0)

    def test_deterministic_for_fixed_seed(self):
        config = SimConfig(num_cores=2, target_dram_reads=300)
        assert (run_weighted_speedup("mcf", config)
                == run_weighted_speedup("mcf", config))

    def test_bounded_by_core_count(self):
        config = SimConfig(num_cores=2, target_dram_reads=300)
        ws = run_weighted_speedup("mcf", config)
        # Sharing memory can only slow a core down vs running alone
        # (modulo tiny prefetch-sharing effects), so WS <= N.
        assert 0 < ws <= 2.2

    def test_contention_lowers_weighted_speedup(self):
        light = SimConfig(num_cores=2, target_dram_reads=300)
        ws_light = run_weighted_speedup("gobmk", light)   # low bandwidth
        ws_heavy = run_weighted_speedup("stream", light)  # bandwidth hog
        # The bandwidth-bound workload suffers more from sharing.
        assert ws_heavy < ws_light + 0.3

    def test_faster_memory_raises_ws_ratio_consistency(self):
        config = SimConfig(num_cores=2, target_dram_reads=300)
        base = run_weighted_speedup("leslie3d",
                                    config.with_memory("ddr3"))
        rld = run_weighted_speedup("leslie3d",
                                   config.with_memory("rldram3"))
        # Both normalise per-config IPC_alone, so the values are
        # comparable and should be same-ballpark.
        assert 0.5 < rld / base < 2.0
