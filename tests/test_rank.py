"""Rank-level constraints: tFAW, tRRD, power-down, residency tally."""

import pytest

from repro.dram.device import DDR3_DEVICE, LPDDR2_DEVICE, RLDRAM3_DEVICE
from repro.dram.rank import PowerState, Rank
from repro.dram.timing import (
    DDR3_TIMING,
    LPDDR2_TIMING,
    RLDRAM3_TIMING,
    TimingSet,
)

DDR3 = TimingSet(DDR3_TIMING)
RLD = TimingSet(RLDRAM3_TIMING)
LPD = TimingSet(LPDDR2_TIMING)


@pytest.fixture
def rank():
    return Rank(DDR3_DEVICE, DDR3)


class TestTFAW:
    def test_four_activates_allowed_quickly(self, rank):
        t = 0
        for _ in range(4):
            t = rank.earliest_activate(t)
            rank.note_activate(t)
        # The 5th must wait for the tFAW window from the 1st.
        fifth = rank.earliest_activate(t)
        assert fifth >= DDR3.t_faw

    def test_rldram_has_no_tfaw(self):
        rank = Rank(RLDRAM3_DEVICE, RLD)
        t = 0
        for _ in range(8):
            t = rank.earliest_activate(t)
            rank.note_activate(t)
        # Only tRRD spacing, never a 4-activate window stall.
        assert t < DDR3.t_faw

    def test_trrd_spacing(self, rank):
        rank.note_activate(0)
        assert rank.earliest_activate(1) >= DDR3.t_rrd


class TestPowerDown:
    def test_initially_standby(self, rank):
        assert rank.power_state is PowerState.STANDBY

    def test_power_down_after_idle(self):
        rank = Rank(LPDDR2_DEVICE, LPD)
        rank.touch(0)
        assert not rank.try_power_down(100, idle_threshold=640)
        assert rank.try_power_down(640, idle_threshold=640)
        assert rank.power_state is PowerState.POWER_DOWN
        assert rank.power_down_entries == 1

    def test_rldram_never_powers_down(self):
        rank = Rank(RLDRAM3_DEVICE, RLD)
        assert not rank.try_power_down(10_000, idle_threshold=1)

    def test_open_bank_blocks_power_down(self):
        rank = Rank(LPDDR2_DEVICE, LPD)
        rank.banks[0].activate(0, row=1)
        assert not rank.try_power_down(10_000, idle_threshold=1)

    def test_wake_applies_exit_latency(self):
        rank = Rank(LPDDR2_DEVICE, LPD)
        rank.try_power_down(1000, idle_threshold=0)
        usable = rank.wake(2000)
        assert usable == 2000 + LPD.t_pd_exit
        assert rank.power_state is PowerState.STANDBY
        assert rank.earliest_activate(2000) >= usable

    def test_touch_wakes(self):
        rank = Rank(LPDDR2_DEVICE, LPD)
        rank.try_power_down(1000, idle_threshold=0)
        rank.touch(1500)
        assert rank.power_state is PowerState.STANDBY


class TestResidencyTally:
    def test_tally_covers_elapsed_time(self):
        rank = Rank(LPDDR2_DEVICE, LPD)
        rank.touch(100)
        rank.try_power_down(1000, idle_threshold=0)
        rank.wake(3000)
        tally = rank.finalize_tally(5000)
        assert tally.total() == 5000

    def test_power_down_time_recorded(self):
        rank = Rank(LPDDR2_DEVICE, LPD)
        rank.try_power_down(1000, idle_threshold=0)
        tally = rank.finalize_tally(4000)
        assert tally.power_down == 3000
        assert tally.standby == 1000

    def test_active_time_when_bank_open(self, rank):
        rank.banks[0].activate(0, row=1)
        tally = rank.finalize_tally(500)
        assert tally.active == 500

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: the controller's ACT and PRE sites change the "
        "bank state before the rank folds its tally, so the span before "
        "each command is charged to the state after it"))
    def test_span_before_a_command_is_charged_to_the_state_before_it(
            self, rank):
        # Standby from 0 to 1000, ACT at 1000, PRE at 1169, in the
        # controller's call order (bank first, then the rank's fold).
        bank = rank.banks[0]
        bank.activate(1000, row=1)
        rank.note_activate(1000)
        bank.precharge(1169)
        rank.touch(1169)
        tally = rank.finalize_tally(1269)
        # Today: active=1000, standby=269.
        assert (tally.active, tally.standby) == (169, 1100)

    def test_stat_rollups(self, rank):
        rank.banks[0].activate(0, row=1)
        rank.banks[0].column_read(DDR3.t_rcd)
        rank.note_activate(0)
        assert rank.activate_count == 1
        assert rank.read_count == 1
        assert rank.write_count == 0
