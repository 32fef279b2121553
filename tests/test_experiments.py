"""Experiment runner, cache, and fast (non-simulation) experiments."""

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.executor import ParallelExecutor
from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentTable,
    ResultCache,
)
from repro.experiments.specs import RunSpec
from repro.sim.system import SimResult
from tests.conftest import build_table

NO_CACHE = ExperimentConfig(cache_dir=None)


class TestExperimentTable:
    def make(self):
        table = ExperimentTable("t1", "demo", ["benchmark", "value"])
        table.add(benchmark="a", value=1.0)
        table.add(benchmark="b", value=3.0)
        return table

    def test_column_and_mean(self):
        table = self.make()
        assert table.column("value") == [1.0, 3.0]
        assert table.mean("value") == pytest.approx(2.0)

    def test_format_contains_rows(self):
        text = self.make().format()
        assert "t1" in text and "demo" in text
        assert "1.000" in text and "3.000" in text


class TestResultCache:
    def make_result(self):
        return SimResult(
            benchmark="b", memory="ddr3", num_cores=8, elapsed_cycles=10,
            instructions=100, per_core_ipc=[1.0], dram_reads=5,
            dram_writes=1, demand_reads=5, avg_queue_latency=1.0,
            avg_core_latency=2.0, avg_critical_latency=3.0,
            avg_fill_latency=4.0, fast_service_fraction=0.5,
            bus_utilization=0.1, memory_power_mw=100.0,
            memory_power_by_family={"ddr3": 100.0}, l2_hit_rate=0.9,
            critical_distribution=[0.5] + [0.5 / 7] * 7)

    def test_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        result = self.make_result()
        cache.put("key1", result)
        loaded = cache.get("key1")
        assert loaded is not None
        assert loaded.elapsed_cycles == 10
        assert loaded.memory_power_by_family == {"ddr3": 100.0}

    def test_key_mismatch_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("key1", self.make_result())
        assert cache.get("key2") is None

    def test_disabled_cache(self):
        cache = ResultCache(None)
        cache.put("k", self.make_result())
        assert cache.get("k") is None

    def test_executor_recalls_cached_result(self, tmp_path):
        config = ExperimentConfig(target_dram_reads=100,
                                  benchmarks=("mcf",),
                                  cache_dir=str(tmp_path))
        spec = RunSpec("mcf", "ddr3")
        first = ParallelExecutor(config, jobs=1)
        a = first.run([spec])[spec]
        second = ParallelExecutor(config, jobs=1)
        b = second.run([spec])[spec]
        assert [t["cached"] for t in first.timings] == [False]
        assert [t["cached"] for t in second.timings] == [True]
        assert a.elapsed_cycles == b.elapsed_cycles


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        expected = {"fig1a", "fig1b", "fig2", "fig3", "fig4", "fig6",
                    "fig7", "fig8", "fig9", "fig10", "fig11", "tab1",
                    "tab2", "sec611_random", "sec611_noprefetch",
                    "sec71", "sec72"}
        assert expected <= set(EXPERIMENTS)


class TestFastExperiments:
    def test_table_1(self):
        table = build_table("tab1", NO_CACHE)
        assert any(r["parameter"] == "Re-Order-Buffer" for r in table.rows)

    def test_table_2_matches_paper(self):
        table = build_table("tab2", NO_CACHE)
        by_param = {r["parameter"]: r for r in table.rows}
        assert by_param["tRC"]["ddr3"] == 50.0
        assert by_param["tRC"]["rldram3"] == 12.0
        assert by_param["tRC"]["lpddr2"] == 60.0
        assert by_param["tWTR"]["rldram3"] == 0.0

    def test_figure_2_shape(self):
        table = build_table("fig2", NO_CACHE)
        first, last = table.rows[0], table.rows[-1]
        assert first["utilization"] == 0.0 and last["utilization"] == 1.0
        # RLDRAM3 floor far above the others at idle.
        assert first["rldram3_mw"] > 2 * first["ddr3_mw"]
        assert first["lpddr2_mw"] < first["ddr3_mw"]
        # Convergence: ratio shrinks with utilisation.
        assert (last["rldram3_mw"] / last["ddr3_mw"]
                < first["rldram3_mw"] / first["ddr3_mw"])
