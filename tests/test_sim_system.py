"""End-to-end simulation harness tests (small but real runs)."""

import dataclasses

import pytest

from repro.sim import system as system_mod
from repro.sim.checkpoint import Checkpointer, load_checkpoint
from repro.sim.config import MemoryKind, SimConfig, TABLE1, build_memory
from repro.sim.system import (
    SimulationSystem,
    make_traces,
    prewarm_l2,
    run_benchmark,
)
from repro.util.events import EventQueue
from repro.workloads.profiles import profile_for

SMALL = SimConfig(target_dram_reads=400, num_cores=2)


def small_config(memory=MemoryKind.DDR3, cores=2, reads=400):
    return SimConfig(memory=memory, num_cores=cores,
                     target_dram_reads=reads)


class TestRunBasics:
    def test_run_completes_and_reports(self):
        result = run_benchmark("mcf", small_config())
        assert result.benchmark == "mcf"
        assert result.elapsed_cycles > 0
        assert result.instructions > 0
        assert result.dram_reads > 0
        assert len(result.per_core_ipc) == 2
        assert all(ipc > 0 for ipc in result.per_core_ipc)
        assert 0 < result.throughput <= 8.0

    def test_determinism(self):
        a = run_benchmark("mcf", small_config())
        b = run_benchmark("mcf", small_config())
        assert a.elapsed_cycles == b.elapsed_cycles
        assert a.per_core_ipc == b.per_core_ipc
        assert a.dram_reads == b.dram_reads

    def test_same_work_across_memories(self):
        """The paper's methodology: identical instruction streams."""
        a = run_benchmark("mcf", small_config(MemoryKind.DDR3))
        b = run_benchmark("mcf", small_config(MemoryKind.RL))
        assert a.instructions == b.instructions

    def test_latency_stats_populated(self):
        result = run_benchmark("leslie3d", small_config())
        assert result.avg_critical_latency > 0
        assert result.avg_fill_latency >= result.avg_critical_latency
        assert 0 < result.bus_utilization < 1
        assert result.memory_power_mw > 0

    def test_word0_profile_captured(self):
        result = run_benchmark("leslie3d", small_config())
        assert result.word0_fraction > 0.5
        assert len(result.critical_distribution) == 8
        assert sum(result.critical_distribution) == pytest.approx(1.0)


class TestMemoryKinds:
    @pytest.mark.parametrize("kind", list(MemoryKind))
    def test_every_kind_runs(self, kind):
        result = run_benchmark("mcf", small_config(kind, reads=200))
        assert result.memory == kind.value
        assert result.throughput > 0

    def test_cwf_kinds_report_fast_fraction(self):
        result = run_benchmark("leslie3d", small_config(MemoryKind.RL))
        assert result.fast_service_fraction > 0.5


class TestPrewarm:
    def test_prewarm_fills_l2(self):
        config = small_config()
        profile = profile_for("mcf")
        traces = make_traces(profile, config)
        system = SimulationSystem(config, traces, profile=profile)
        prewarm_l2(system, profile)
        capacity = (system.uncore.l2.config.num_sets
                    * system.uncore.l2.config.associativity)
        assert system.uncore.l2.occupancy() >= capacity * 0.6

    def test_prewarm_generates_writeback_traffic(self):
        warm = run_benchmark("stream", small_config(reads=400), warm=True)
        cold = run_benchmark("stream", small_config(reads=400), warm=False)
        assert warm.dram_writes > cold.dram_writes


@pytest.fixture()
def empty_prewarm_memo():
    """Run with an empty prewarm memo, then put the old entries back.

    The dict is cleared in place: instrumentation may hold a reference
    to the module-level object.
    """
    memo = system_mod._PREWARM_CACHE
    saved = dict(memo)
    memo.clear()
    yield memo
    memo.clear()
    memo.update(saved)


def _warm_system(profile, config):
    system = SimulationSystem(config, make_traces(profile, config),
                              profile=profile)
    prewarm_l2(system, profile)
    return system


def _l2_sets(l2):
    """Every set, built, as ``(line, dirty, critical_word)`` in LRU order."""
    return [[(ln.line_address, ln.dirty, ln.critical_word)
             for ln in l2._sets[index].values()]
            for index in range(l2.config.num_sets)]


class TestPrewarmMemo:
    def test_memo_hit_matches_cold_fill(self, empty_prewarm_memo):
        config = small_config(reads=300)
        profile = profile_for("omnetpp")
        cold = _warm_system(profile, config)
        assert len(empty_prewarm_memo) == 1
        keys = list(empty_prewarm_memo)
        hit = _warm_system(profile, config)
        # A hit must not add or reorder memo entries.
        assert list(empty_prewarm_memo) == keys
        # Nothing is built until a run probes it.
        assert len(cold.uncore.l2._sets) == 0
        assert len(hit.uncore.l2._sets) == 0
        a, b = cold.uncore.l2, hit.uncore.l2
        assert a.evictions == b.evictions > 0
        assert a.dirty_evictions == b.dirty_evictions > 0
        assert a.occupancy() == b.occupancy() > 0
        result_a = dataclasses.asdict(cold.run())
        result_b = dataclasses.asdict(hit.run())
        assert result_a == result_b
        # Compare every set after the runs: recency order, dirty bits
        # and critical words, in sets the runs touched and in the rest.
        assert 0 < len(a._sets) < a.config.num_sets
        assert _l2_sets(a) == _l2_sets(b)
        assert a.occupancy() == b.occupancy()

    def test_image_occupancy_counts_unbuilt_sets(self, empty_prewarm_memo):
        config = small_config(reads=300)
        profile = profile_for("mcf")
        system = _warm_system(profile, config)
        l2 = system.uncore.l2
        before = l2.occupancy()
        assert before == sum(len(entries) for entries in l2._sets.image)
        assert len(l2._sets) == 0
        assert sum(len(s) for s in _l2_sets(l2)) == before
        assert len(l2._sets) == l2.config.num_sets

    def test_prewarm_refuses_a_used_l2(self, empty_prewarm_memo):
        config = small_config(reads=300)
        profile = profile_for("mcf")
        system = SimulationSystem(config, make_traces(profile, config),
                                  profile=profile)
        system.uncore.l2.insert(123)
        with pytest.raises(ValueError, match="empty"):
            prewarm_l2(system, profile)

    @pytest.mark.parametrize("first_mark", [0, 150])
    def test_checkpoint_with_unbuilt_sets_resumes_identically(
            self, tmp_path, empty_prewarm_memo, first_mark):
        config = small_config(MemoryKind.RL, reads=400)
        profile = profile_for("mcf")
        baseline = dataclasses.asdict(_warm_system(profile, config).run())
        path = tmp_path / "warm.ckpt"
        system = _warm_system(profile, config)
        if first_mark == 0:
            # Snapshot before the first event: no set is built yet.
            Checkpointer(path, "key").save(system, executed=0)
            system.run()
        else:
            system.run(checkpointer=Checkpointer(
                path, "key", every_reads=10_000, first_mark=first_mark))
        restored, executed, _ = load_checkpoint(path, expect_cache_key="key")
        l2 = restored.uncore.l2
        assert l2._sets.image is not None
        assert len(l2._sets) < l2.config.num_sets
        if first_mark == 0:
            result = restored.run()
        else:
            result = restored.resume_run(executed=executed)
        assert dataclasses.asdict(result) == baseline


class TestConfigHelpers:
    def test_with_memory(self):
        config = SMALL.with_memory(MemoryKind.RL)
        assert config.memory == "rl"
        assert config.target_dram_reads == SMALL.target_dram_reads

    def test_without_prefetcher(self):
        config = SMALL.without_prefetcher()
        assert not config.uncore.prefetcher.enabled

    def test_table1_keys(self):
        assert TABLE1["Re-Order-Buffer"] == "64 entry"
        assert "DRAM Read Queue" in TABLE1

    def test_build_memory_page_placement_needs_inputs(self):
        events = EventQueue()
        with pytest.raises(ValueError):
            build_memory(SMALL.with_memory(MemoryKind.PAGE_PLACEMENT),
                         events)


class TestSpeedupMath:
    def test_speedup_over_self_is_one(self):
        result = run_benchmark("mcf", small_config())
        assert result.speedup_over(result) == pytest.approx(1.0)

    def test_memory_energy_consistent(self):
        result = run_benchmark("mcf", small_config())
        assert result.memory_energy_mj == pytest.approx(
            result.memory_power_mw * result.elapsed_cycles)
