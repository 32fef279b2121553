"""Homogeneous memory system and the page-placement alternative."""

from repro.core.placement import (
    PAGE_LINES,
    PagePlacementConfig,
    PagePlacementMemory,
    rank_pages,
)
from repro.cpu.core import TraceRecord
from repro.dram.device import DRAMKind
from repro.memsys.homogeneous import HomogeneousConfig, HomogeneousMemory
from repro.sim.config import SimConfig
from repro.sim.system import simulate_benchmark
from repro.telemetry.session import TelemetrySession
from repro.util.events import EventQueue


def finish_read(events, memory, line, word=0, is_prefetch=False):
    log = {}
    ok = memory.issue_read(line, word, 0, is_prefetch,
                           lambda t: log.setdefault("critical", t),
                           lambda t: log.setdefault("complete", t))
    assert ok
    guard = 0
    while "complete" not in log:
        assert events.step()
        guard += 1
        assert guard < 100_000
    return log


class TestHomogeneous:
    def test_read_completes_with_ordered_callbacks(self):
        events = EventQueue()
        memory = HomogeneousMemory(events)
        log = finish_read(events, memory, line=1234, word=3)
        assert log["critical"] <= log["complete"]
        assert memory.stats.reads == 1
        assert memory.stats.demand_reads == 1

    def test_prefetch_not_in_demand_stats(self):
        events = EventQueue()
        memory = HomogeneousMemory(events)
        finish_read(events, memory, line=1234, word=0, is_prefetch=True)
        assert memory.stats.demand_reads == 0
        assert memory.stats.reads == 1

    def test_slow_side_counted_at_delivery(self):
        events = EventQueue()
        memory = HomogeneousMemory(events)
        assert memory.issue_read(7, 2, 0, False, lambda t: None,
                                 lambda t: None)
        assert memory.stats.demand_reads == 1
        assert memory.stats.critical_served_slow == 0   # still in flight
        events.run(5000)
        assert memory.stats.critical_served_slow == 1
        assert memory.stats.critical_served_fast == 0

    def test_run_counts_only_delivered_critical_words(self):
        """ddr3/sjeng at 600 reads ends with a store miss's critical
        word in flight; it is a demand read but was never served."""
        session = TelemetrySession()
        run = session.begin_run("sjeng", "ddr3")
        system, result = simulate_benchmark(
            "sjeng", SimConfig(memory="ddr3", target_dram_reads=600),
            telemetry=run)
        stats = system.memory.stats
        delivered = run.registry.get("memsys.critical_latency_cycles").count
        assert stats.demand_reads == 691
        assert delivered == 690
        assert stats.critical_served_fast + stats.critical_served_slow \
            == delivered
        assert result.fast_service_fraction == 0.0

    def test_writes_counted(self):
        events = EventQueue()
        memory = HomogeneousMemory(events)
        assert memory.issue_write(99, 0, 0)
        events.run(5000)
        assert memory.stats.writes == 1

    def test_reads_spread_across_channels(self):
        events = EventQueue()
        memory = HomogeneousMemory(events)
        lines_per_row = memory.mapper.lines_per_row
        for i in range(8):
            memory.issue_read(i * lines_per_row, 0, 0, False,
                              lambda t: None, lambda t: None)
        queued = [len(mc.read_queue) for mc in memory.controllers]
        assert queued == [2, 2, 2, 2]

    def test_rldram_variant_faster(self):
        ddr_events = EventQueue()
        ddr = HomogeneousMemory(ddr_events)
        rld_events = EventQueue()
        rld = HomogeneousMemory(rld_events,
                                HomogeneousConfig(kind=DRAMKind.RLDRAM3))
        ddr_log = finish_read(ddr_events, ddr, line=5)
        rld_log = finish_read(rld_events, rld, line=5)
        assert rld_log["complete"] < ddr_log["complete"]

    def test_chip_activities_shape(self):
        events = EventQueue()
        memory = HomogeneousMemory(events)
        finish_read(events, memory, line=5)
        activities = memory.chip_activities(elapsed_cycles=10_000)
        assert set(activities) == {"ddr3"}
        # 4 channels x 1 rank x 9 devices.
        assert len(activities["ddr3"]) == 36
        assert any(a.reads for a in activities["ddr3"])

    def test_latency_views(self):
        events = EventQueue()
        memory = HomogeneousMemory(events)
        finish_read(events, memory, line=5)
        assert memory.avg_core_latency() > 0
        assert memory.avg_queue_latency() >= 0


class TestPageHeatProfiling:
    def test_ranks_by_access_count(self):
        hot_page, cold_page = 3, 9
        trace = [TraceRecord(0, False, cold_page * PAGE_LINES * 64)] * 2
        trace += [TraceRecord(0, False, hot_page * PAGE_LINES * 64)] * 10
        ranking = rank_pages([[record.address // (PAGE_LINES * 64)
                               for record in trace]])
        assert ranking == [hot_page, cold_page]

    def test_equal_counts_rank_in_first_seen_order(self):
        assert rank_pages([[7, 2, 5], [2, 9, 5, 7]]) == [7, 2, 5, 9]


class TestPagePlacement:
    def make(self, ranking, fraction=0.5):
        events = EventQueue()
        memory = PagePlacementMemory(
            events, ranking,
            PagePlacementConfig(hot_page_fraction=fraction))
        return events, memory

    def test_hot_page_routed_to_rldram(self):
        events, memory = self.make(ranking=list(range(10)), fraction=0.5)
        line = 2 * PAGE_LINES + 7   # page 2: hot (top 5 of 10)
        log = finish_read(events, memory, line)
        assert memory.hot_accesses == 1
        assert memory.stats.critical_served_fast == 1

    def test_cold_page_routed_to_lpddr(self):
        events, memory = self.make(ranking=list(range(10)), fraction=0.2)
        line = 9 * PAGE_LINES   # page 9: cold
        finish_read(events, memory, line)
        assert memory.cold_accesses == 1
        assert memory.stats.critical_served_slow == 1

    def test_hot_read_is_faster(self):
        events, memory = self.make(ranking=list(range(10)), fraction=0.5)
        hot = finish_read(events, memory, 0)              # page 0: hot
        cold = finish_read(events, memory, 9 * PAGE_LINES)
        hot_latency = hot["critical"] - 0
        assert hot["critical"] < cold["critical"]

    def test_activities_families(self):
        events, memory = self.make(ranking=list(range(4)))
        finish_read(events, memory, 0)
        activities = memory.chip_activities(10_000)
        assert set(activities) == {"lpddr2", "rldram3"}
        assert len(activities["lpddr2"]) == 27  # 3 channels x 9 chips
        assert len(activities["rldram3"]) == 8
