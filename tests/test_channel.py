"""Data-bus serialisation, turnaround gaps, and command-bus slots."""

import pytest

from repro.dram.channel import Channel, CommandBus, DataBus
from repro.dram.request import RequestKind
from repro.dram.timing import DDR3_TIMING, RLDRAM3_TIMING, TimingSet

DDR3 = TimingSet(DDR3_TIMING)
RLD = TimingSet(RLDRAM3_TIMING)


class TestDataBus:
    def test_first_burst_starts_on_time(self):
        bus = DataBus(DDR3)
        assert bus.earliest_start(100, RequestKind.READ, rank=0) == 100

    def test_bursts_serialise(self):
        bus = DataBus(DDR3)
        end = bus.reserve(100, RequestKind.READ, rank=0)
        assert end == 100 + DDR3.t_burst
        assert bus.earliest_start(100, RequestKind.READ, rank=0) == end

    def test_overlapping_reserve_raises(self):
        bus = DataBus(DDR3)
        bus.reserve(100, RequestKind.READ, rank=0)
        with pytest.raises(RuntimeError):
            bus.reserve(105, RequestKind.READ, rank=0)

    def test_write_to_read_turnaround(self):
        bus = DataBus(DDR3)
        end = bus.reserve(0, RequestKind.WRITE, rank=0)
        start = bus.earliest_start(end, RequestKind.READ, rank=0)
        assert start == end + DDR3.t_wtr

    def test_read_to_write_gap(self):
        bus = DataBus(DDR3)
        end = bus.reserve(0, RequestKind.READ, rank=0)
        start = bus.earliest_start(end, RequestKind.WRITE, rank=0)
        assert start == end + DDR3.t_rtrs

    def test_rank_to_rank_gap(self):
        bus = DataBus(DDR3)
        end = bus.reserve(0, RequestKind.READ, rank=0)
        start = bus.earliest_start(end, RequestKind.READ, rank=1)
        assert start == end + DDR3.t_rtrs

    def test_same_rank_reads_back_to_back(self):
        bus = DataBus(DDR3)
        end = bus.reserve(0, RequestKind.READ, rank=0)
        assert bus.earliest_start(end, RequestKind.READ, rank=0) == end

    def test_rldram_write_to_read_is_free(self):
        # Paper Table 2: tWTR = 0 for RLDRAM3.
        bus = DataBus(RLD)
        end = bus.reserve(0, RequestKind.WRITE, rank=0)
        assert bus.earliest_start(end, RequestKind.READ, rank=0) == end

    def test_utilization(self):
        bus = DataBus(DDR3)
        bus.reserve(0, RequestKind.READ, rank=0)
        bus.reserve(DDR3.t_burst, RequestKind.READ, rank=0)
        assert bus.utilization(4 * DDR3.t_burst) == pytest.approx(0.5)
        assert bus.stats.reads_transferred == 2


class TestCommandBus:
    def test_single_slot_per_cycle(self):
        bus = CommandBus(DDR3, slots_per_cycle=1)
        assert bus.free_from == 0
        bus.reserve(0)
        # Same bus cycle is now full; next slot is the next bus cycle.
        assert bus.free_from == DDR3.bus_cycle

    def test_dual_pumped_slots(self):
        bus = CommandBus(DDR3, slots_per_cycle=2)
        bus.reserve(0)
        assert bus.free_from == 0
        bus.reserve(0)
        assert bus.free_from == DDR3.bus_cycle

    def test_overflow_raises(self):
        bus = CommandBus(DDR3, slots_per_cycle=1)
        bus.reserve(0)
        with pytest.raises(RuntimeError):
            bus.reserve(1)  # same bus cycle

    def test_rejects_bad_slot_count(self):
        with pytest.raises(ValueError):
            CommandBus(DDR3, slots_per_cycle=0)

    def test_single_slot_earliest_slot(self):
        cyc = DDR3.bus_cycle
        bus = CommandBus(DDR3, slots_per_cycle=1)
        bus.reserve(5 * cyc + 1)
        # The full cycle pushes any time in it, or before it, to the
        # next cycle.
        assert bus.free_from == 6 * cyc
        bus.reserve(6 * cyc)
        assert bus.free_from == 7 * cyc
        assert bus.stats.cmd_busy_cycles == 2

    def test_dual_slot_earliest_slot(self):
        cyc = DDR3.bus_cycle
        bus = CommandBus(DDR3, slots_per_cycle=2)
        bus.reserve(3 * cyc + 1)
        # A slot is left in that cycle, from its start.
        assert bus.free_from == 3 * cyc
        bus.reserve(3 * cyc + 2)
        assert bus.free_from == 4 * cyc
        bus.reserve(4 * cyc, n_commands=2)
        assert bus.free_from == 5 * cyc
        with pytest.raises(RuntimeError):
            bus.reserve(4 * cyc)

    def test_reserve_in_an_earlier_cycle_raises(self):
        cyc = DDR3.bus_cycle
        bus = CommandBus(DDR3, slots_per_cycle=2)
        bus.reserve(5 * cyc)
        with pytest.raises(RuntimeError):
            bus.reserve(5 * cyc - 1)
        # The refused command took no slot.
        assert bus.free_from == 5 * cyc
        assert bus.stats.cmd_busy_cycles == 1


class TestChannel:
    def test_aggregated_channel_shape(self):
        # The paper's Fig 5c critical-word channel: 4 data buses behind
        # a dual-pumped command bus.
        channel = Channel(RLD, num_data_buses=4, cmd_slots_per_cycle=2)
        assert len(channel.data_buses) == 4
        assert channel.cmd_bus.slots_per_cycle == 2

    def test_utilization_averages_subchannels(self):
        channel = Channel(DDR3, num_data_buses=2)
        channel.data_bus(0).reserve(0, RequestKind.READ, rank=0)
        assert channel.utilization(DDR3.t_burst) == pytest.approx(0.5)
