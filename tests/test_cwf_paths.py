"""Deeper CWF paths: non-aggregated bus, DL/RD pairs, drain interplay."""

from repro.core.cwf import CriticalWordMemory, CWFConfig, CWFPolicy, HeteroPair
from repro.dram.device import DRAMKind
from repro.util.events import EventQueue


def run_read(events, memory, line, word):
    log = {}
    assert memory.issue_read(line, word, 0, False,
                             lambda t: log.setdefault("crit", t),
                             lambda t: log.setdefault("done", t))
    guard = 0
    while "done" not in log:
        assert events.step()
        guard += 1
        assert guard < 300_000
    return log


class TestUnaggregatedBus:
    def test_reads_complete_per_channel_controllers(self):
        events = EventQueue()
        memory = CriticalWordMemory(
            events, CWFConfig(shared_command_bus=False))
        # Lines in different rows land on different bulk channels
        # (open-page mapping interleaves channels at row granularity).
        stride = memory.bulk_mapper.lines_per_row
        logs = [run_read(events, memory, line * stride, 0)
                for line in range(8)]
        assert all(entry["crit"] < entry["done"] for entry in logs)
        # Fast requests spread across the four per-channel controllers.
        done = [mc.stats.reads_done for mc in memory.fast_controllers]
        assert sum(done) == 8
        assert max(done) < 8

    def test_fast_decode_unique_without_sharing(self):
        events = EventQueue()
        memory = CriticalWordMemory(
            events, CWFConfig(shared_command_bus=False))
        seen = set()
        for line in range(4096):
            d = memory._fast_decode(line)
            key = (d.channel, d.rank, d.bank, d.row, d.column)
            assert key not in seen
            seen.add(key)


class TestPairs:
    def test_rd_pair_devices(self):
        events = EventQueue()
        memory = CriticalWordMemory(events, CWFConfig(pair=HeteroPair.RD))
        assert memory.config.bulk_device.kind is DRAMKind.DDR3
        log = run_read(events, memory, 3, 0)
        assert log["crit"] < log["done"]

    def test_rd_bulk_faster_than_rl_bulk(self):
        # DDR3 bulk (RD) completes fills faster than LPDDR2 bulk (RL).
        rd_events = EventQueue()
        rd = CriticalWordMemory(rd_events, CWFConfig(pair=HeteroPair.RD))
        rl_events = EventQueue()
        rl = CriticalWordMemory(rl_events, CWFConfig(pair=HeteroPair.RL))
        rd_log = run_read(rd_events, rd, 3, 0)
        rl_log = run_read(rl_events, rl, 3, 0)
        assert rd_log["done"] < rl_log["done"]

    def test_dl_critical_slower_than_rl_critical(self):
        # The DL fast side is close-page DDR3: it pays tRCD where
        # RLDRAM3 doesn't.
        dl_events = EventQueue()
        dl = CriticalWordMemory(dl_events, CWFConfig(pair=HeteroPair.DL))
        rl_events = EventQueue()
        rl = CriticalWordMemory(rl_events, CWFConfig(pair=HeteroPair.RL))
        dl_log = run_read(dl_events, dl, 3, 0)
        rl_log = run_read(rl_events, rl, 3, 0)
        assert rl_log["crit"] < dl_log["crit"]


class TestWriteReadInterplay:
    def test_reads_survive_write_bursts(self):
        events = EventQueue()
        memory = CriticalWordMemory(events, CWFConfig())
        for i in range(40):
            assert memory.issue_write(1000 + i, 0, 0)
        log = run_read(events, memory, 5, 0)
        # Under a full write drain the fast part may land exactly with
        # the bulk part, but never after it.
        assert log["crit"] <= log["done"]
        events.run(200_000)
        total_writes = sum(mc.stats.writes_done
                           for mc in memory.bulk_controllers)
        assert total_writes == 40

    def test_adaptive_tags_updated_only_by_writes(self):
        events = EventQueue()
        memory = CriticalWordMemory(
            events, CWFConfig(policy=CWFPolicy.ADAPTIVE))
        run_read(events, memory, 9, 4)     # read does NOT re-organise
        assert memory.fast_word(9) == 0
        memory.issue_write(9, critical_word_tag=4, core_id=0)
        assert memory.fast_word(9) == 4


class TestStatsConsistency:
    def test_fast_plus_slow_equals_demands(self):
        events = EventQueue()
        memory = CriticalWordMemory(events, CWFConfig())
        for line in range(12):
            run_read(events, memory, line, line % 8)
        stats = memory.stats
        assert (stats.critical_served_fast + stats.critical_served_slow
                == stats.demand_reads == 12)

    def test_bus_utilization_bounded(self):
        events = EventQueue()
        memory = CriticalWordMemory(events, CWFConfig())
        run_read(events, memory, 1, 0)
        util = memory.bus_utilization(max(1, events.now))
        assert 0.0 <= util <= 1.0


class TestBulkCriticalDelivery:
    def test_only_uncovered_bulk_reads_schedule_a_delivery(self,
                                                           monkeypatch):
        """A covered word reaches the CPU from the fast part, so its bulk
        burst schedules no critical-word event; an uncovered one does."""
        from repro.core import cwf
        from repro.dram import controller as controller_mod
        from repro.sim.config import SimConfig
        from repro.sim.system import run_benchmark

        delivered = []
        retired = {True: 0, False: 0}

        class CountingDelivery(controller_mod._DeliverCritical):
            __slots__ = ()

            def __init__(self, req):
                super().__init__(req)
                delivered.append(req)

        retire = controller_mod.MemoryController._retire

        def counting_retire(self, now, req, *args):
            done = req.on_complete
            if getattr(done, "__func__", None) is cwf._CWFReadTxn.bulk_done:
                retired[done.__self__.covers] += 1
            retire(self, now, req, *args)

        monkeypatch.setattr(controller_mod, "_DeliverCritical",
                            CountingDelivery)
        monkeypatch.setattr(controller_mod.MemoryController, "_retire",
                            counting_retire)
        result = run_benchmark("leslie3d", SimConfig(
            memory="rl", num_cores=2, target_dram_reads=400))
        bulk_deliveries = [
            req for req in delivered
            if getattr(req.on_critical_word, "__func__", None)
            is cwf._CWFReadTxn.bulk_critical]
        assert retired[True] > 0 and retired[False] > 0
        assert len(bulk_deliveries) == retired[False]
        assert result.fast_service_fraction > 0.5
