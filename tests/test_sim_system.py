"""End-to-end simulation harness tests (small but real runs)."""

import dataclasses
import gc
import random

import pytest

from repro.core.criticality import CriticalityProfiler
from repro.cpu.cache import IMAGE_DIRTY, L2_CONFIG, Cache
from repro.cpu.core import Core
from repro.cpu.mshr import MSHRFile
from repro.cpu.uncore import Uncore
from repro.dram.bank import Bank
from repro.dram.controller import MemoryController
from repro.dram.rank import PowerStateTally, Rank
from repro.dram.request import LINE_BYTES
from repro.experiments.runner import ExperimentConfig
from repro.experiments.energy_eval import sec72_spec
from repro.experiments.specs import RunSpec, apply_parameter, execute_spec
from repro.memsys.base import MemorySystem
from repro.memsys.registry import backend_names, build_memory
from repro.sanitizer import MODE_STRICT, reset_global_report
from repro.sim import system as system_mod
from repro.sim.checkpoint import Checkpointer, load_checkpoint
from repro.sim.config import SimConfig, TABLE1
from repro.sim.system import (
    SimulationSystem,
    make_traces,
    prewarm_l2,
    run_benchmark,
    simulate_benchmark,
)
from repro.telemetry.session import TelemetrySession, activate, deactivate
from repro.util.events import EventQueue
from repro.workloads.profiles import benchmark_names, profile_for
from repro.workloads.synthetic import (
    CORE_ADDRESS_STRIDE,
    expected_critical_word,
)

SMALL = SimConfig(target_dram_reads=400, num_cores=2)


def small_config(memory="ddr3", cores=2, reads=400):
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
        a = run_benchmark("mcf", small_config("ddr3"))
        b = run_benchmark("mcf", small_config("rl"))
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


class TestMemoryOrganisations:
    @pytest.mark.parametrize("kind", [
        "ddr3", "rldram3", "lpddr2", "rd", "rl", "dl", "rl_adaptive",
        "rl_oracle", "rl_random", "page_placement"])
    def test_every_kind_runs(self, kind):
        result = run_benchmark("mcf", small_config(kind, reads=200))
        assert result.memory == kind
        assert result.throughput > 0

    def test_cwf_kinds_report_fast_fraction(self):
        result = run_benchmark("leslie3d", small_config("rl"))
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
    """Every set, built, as ``(line, meta)`` pairs in LRU order."""
    return [list(l2._sets[index].items())
            for index in range(l2.config.num_sets)]


# ---------------------------------------------------------------------------
# Reference warm-up fill: the per-call form that system._warm_image
# inlines (rng.randrange, expected_critical_word). Every draw, in order,
# and every resulting set must match it.
# ---------------------------------------------------------------------------


def _reference_warm_image(profile, num_cores, num_sets, assoc):
    sets = [{} for _ in range(num_sets)]
    per_core = num_sets * assoc // num_cores
    lines_per_core = CORE_ADDRESS_STRIDE // LINE_BYTES
    hot_span = min(profile.hot_lines, profile.footprint_lines)
    evicted = dirty_evicted = 0
    for core_id in range(num_cores):
        rng = random.Random(0xC0FFEE ^ core_id)
        base_line = core_id * lines_per_core
        for _ in range(per_core):
            if profile.hot_fraction and rng.random() < 0.6:
                line = base_line + rng.randrange(hot_span)
            else:
                line = base_line + rng.randrange(profile.footprint_lines)
            word = expected_critical_word(profile, line, rng)
            dirty = rng.random() < profile.write_fraction
            s = sets[line % num_sets]
            old = s.pop(line, None)
            if old is not None:
                s[line] = (line, True, old[2]) if dirty else old
            else:
                if len(s) >= assoc:
                    lru = s.pop(next(iter(s)))
                    evicted += 1
                    dirty_evicted += lru[1]
                s[line] = (line, dirty, word)
    return tuple(tuple(s.values()) for s in sets), evicted, dirty_evicted


def _decode_image(image):
    """The flat ``(offsets, lines, meta)`` image as one tuple of
    ``(line, dirty, critical_word)`` triples per set, LRU first."""
    offsets, lines, meta = image
    return tuple(
        tuple((lines[i], meta[i] >= IMAGE_DIRTY, meta[i] % IMAGE_DIRTY)
              for i in range(lo, hi))
        for lo, hi in zip(offsets, offsets[1:]))


DEFAULT_GEOMETRY = (SimConfig().num_cores, L2_CONFIG.num_sets,
                    L2_CONFIG.associativity)


class TestWarmImageReference:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_matches_reference_fill(self, name):
        profile = profile_for(name)
        image, evicted, dirty_evicted = system_mod._warm_image(
            profile, *DEFAULT_GEOMETRY)
        assert len(image[0]) == L2_CONFIG.num_sets + 1
        assert len(image[1]) == len(image[2]) == image[0][-1]
        decoded = _decode_image(image)
        ref_sets, ref_evicted, ref_dirty = _reference_warm_image(
            profile, *DEFAULT_GEOMETRY)
        for index, (got, want) in enumerate(zip(decoded, ref_sets)):
            assert got == want, f"set {index}"
        assert len(decoded) == len(ref_sets)
        assert (evicted, dirty_evicted) == (ref_evicted, ref_dirty)

    def test_image_buffers_fit_in_one_mib(self):
        image, _, _ = system_mod._warm_image(profile_for("mcf"),
                                             *DEFAULT_GEOMETRY)
        assert sum(memoryview(buf).nbytes for buf in image) <= 1 << 20


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
        offsets, lines, meta = l2._sets.image
        assert before == sum(hi - lo for lo, hi in zip(offsets, offsets[1:]))
        assert len(l2._sets) == 0
        built = _l2_sets(l2)
        assert sum(len(s) for s in built) == before
        assert len(l2._sets) == l2.config.num_sets
        # A built set is the image's own lines and meta, in LRU order.
        assert built == [list(zip(lines[lo:hi], meta[lo:hi]))
                         for lo, hi in zip(offsets, offsets[1:])]

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
        config = small_config("rl", reads=400)
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
        config = SMALL.with_memory("rl")
        assert config.memory == "rl"
        assert config.target_dram_reads == SMALL.target_dram_reads

    def test_without_prefetcher(self):
        config = apply_parameter(SMALL, "prefetcher_enabled", False)
        assert not config.uncore.prefetcher.enabled
        assert SMALL.uncore.prefetcher.enabled
        assert config.memory == SMALL.memory
        assert config.target_dram_reads == SMALL.target_dram_reads

    def test_table1_keys(self):
        assert TABLE1["Re-Order-Buffer"] == "64 entry"
        assert "DRAM Read Queue" in TABLE1

    def test_build_memory_page_placement_needs_inputs(self):
        events = EventQueue()
        with pytest.raises(ValueError):
            build_memory(SMALL.with_memory("page_placement"),
                         events)


class TestSpeedupMath:
    def test_speedup_over_self_is_one(self):
        result = run_benchmark("mcf", small_config())
        assert result.speedup_over(result) == pytest.approx(1.0)

    def test_memory_energy_consistent(self):
        result = run_benchmark("mcf", small_config())
        assert result.memory_energy_mj == pytest.approx(
            result.memory_power_mw * result.elapsed_cycles)


# ---------------------------------------------------------------------------
# A finished system is freed by reference counting alone
# ---------------------------------------------------------------------------

# The slotted classes take no weak references, so the test looks for
# surviving instances in the collector's object list instead.
_RUN_STATE = (SimulationSystem, EventQueue, Uncore, Cache,
              MSHRFile, Core, MemoryController, CriticalityProfiler,
              MemorySystem, Rank, Bank, PowerStateTally)


def _run_state_objects():
    return [o for o in gc.get_objects() if isinstance(o, _RUN_STATE)]


@pytest.fixture
def released_runs(monkeypatch):
    """Runs the test body with the cyclic collector off; yields a list
    that records, per finished run, what was in flight at its end, and
    a check that the run left no instance of its object graph behind."""
    in_flight = []
    collect = SimulationSystem._collect

    def spy(system):
        in_flight.append((len(system.uncore.mshrs), len(system.events)))
        return collect(system)

    monkeypatch.setattr(SimulationSystem, "_collect", spy)
    gc.collect()
    before = _run_state_objects()
    known = {id(o) for o in before}

    def leftovers():
        return sorted({type(o).__name__ for o in _run_state_objects()
                       if id(o) not in known})

    gc.disable()
    try:
        yield in_flight, leftovers
    finally:
        gc.enable()


class TestFinishedSystemIsFreed:
    @pytest.mark.parametrize("name", backend_names())
    def test_every_backend(self, name, released_runs):
        in_flight, leftovers = released_runs
        system, result = simulate_benchmark(
            "mcf", SimConfig(memory=name, target_dram_reads=600))
        # mcf at 600 reads ends with a read in flight on every backend.
        [(mshrs, pending)] = in_flight
        assert mshrs > 0 and pending > 0
        assert result.dram_reads > 0
        del system
        assert leftovers() == []

    def test_strict_sanitizer(self, released_runs):
        in_flight, leftovers = released_runs
        report = reset_global_report()
        try:
            execute_spec(RunSpec("leslie3d", "rl"),
                         ExperimentConfig(target_dram_reads=600,
                                          cache_dir=None,
                                          sanitize=MODE_STRICT))
            assert report.clean, report.summary()
        finally:
            reset_global_report()
        assert in_flight[0][0] > 0
        assert leftovers() == []

    def test_active_telemetry_session(self, released_runs):
        in_flight, leftovers = released_runs
        session = activate(TelemetrySession())
        try:
            system, result = simulate_benchmark(
                "leslie3d", SimConfig(memory="rl", target_dram_reads=600))
        finally:
            deactivate()
        assert system.sampler is not None
        assert result.telemetry is not None and session.runs
        assert in_flight[0][0] > 0
        del system
        assert leftovers() == []

    def test_view_sharing_its_base(self, released_runs):
        in_flight, leftovers = released_runs
        config = ExperimentConfig(target_dram_reads=600, cache_dir=None)
        shared = {}
        base = execute_spec(RunSpec("leslie3d", "rl"), config, shared=shared)
        view = execute_spec(sec72_spec("leslie3d"), config, shared=shared)
        assert len(in_flight) == 1 and in_flight[0][0] > 0
        assert view.extra["sec72"]["native_mw"] > 0
        assert view.elapsed_cycles == base.elapsed_cycles
        shared.clear()
        assert leftovers() == []
