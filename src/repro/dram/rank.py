"""Rank model: a set of banks sharing tFAW, turnaround, and power state.

The rank also owns the power-down state machine used by the aggressive
sleep-transition policy on the low-power channel (paper Sec 4.1): when a
rank has been idle for a threshold the controller moves it to precharge
power-down; wake-up costs ``t_pd_exit``.

Like :class:`~repro.dram.bank.Bank`, the rank is slotted and carries
its tFAW/tRRD/power-down constraints as flat integers resolved once at
construction; ``earliest_activate``/``note_activate`` run on every ACT.
"""

from __future__ import annotations

import enum
from typing import List

from repro.dram.bank import Bank, OpenBankCount
from repro.dram.device import DeviceConfig
from repro.dram.timing import TimingSet


class PowerState(enum.Enum):
    ACTIVE = "active"            # at least one bank open (IDD3N class)
    STANDBY = "standby"          # all banks precharged (IDD2N class)
    POWER_DOWN = "power_down"    # precharge power-down (IDD2P class)
    SELF_REFRESH = "self_refresh"


class PowerStateTally:
    """Cycles spent resident in each power state, for the power model."""

    __slots__ = ("active", "standby", "power_down", "self_refresh")

    def __init__(self, active: int = 0, standby: int = 0,
                 power_down: int = 0, self_refresh: int = 0) -> None:
        self.active = active
        self.standby = standby
        self.power_down = power_down
        self.self_refresh = self_refresh

    def total(self) -> int:
        return self.active + self.standby + self.power_down + self.self_refresh

    def __repr__(self) -> str:
        return (f"PowerStateTally(active={self.active}, "
                f"standby={self.standby}, power_down={self.power_down}, "
                f"self_refresh={self.self_refresh})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerStateTally):
            return NotImplemented
        return (self.active == other.active
                and self.standby == other.standby
                and self.power_down == other.power_down
                and self.self_refresh == other.self_refresh)


class Rank:
    """Banks plus rank-wide constraints (tFAW, tRRD, power-down)."""

    __slots__ = (
        "device", "timing", "index", "banks", "_open",
        "_recent_activates",
        "next_act_allowed", "power_state", "wake_time",
        "last_activity_time", "tally", "_tally_mark", "power_down_entries",
        "t_faw", "t_rrd", "t_pd_exit", "_supports_power_down",
    )

    def __init__(self, device: DeviceConfig, timing: TimingSet,
                 index: int = 0) -> None:
        self.device = device
        self.timing = timing
        self.index = index
        # Count of banks with an open row, maintained by the banks
        # themselves on every ACT/PRE/refresh transition.
        self._open = OpenBankCount()
        self.banks: List[Bank] = [
            Bank(timing=timing, index=b, open_count=self._open)
            for b in range(device.num_banks)
        ]
        # Sliding window of recent ACT times for the tFAW constraint.
        self._recent_activates: List[int] = []
        self.next_act_allowed = 0  # tRRD across banks
        self.power_state = PowerState.STANDBY
        self.wake_time = 0          # when a power-down exit completes
        self.last_activity_time = 0
        self.tally = PowerStateTally()
        self._tally_mark = 0        # last time the tally was folded up
        self.power_down_entries = 0
        # Flat rank-wide timing constraints.
        self.t_faw = timing.t_faw
        self.t_rrd = timing.t_rrd
        self.t_pd_exit = timing.t_pd_exit
        self._supports_power_down = device.supports_power_down

    @property
    def open_banks(self) -> int:
        """Number of banks with an open row."""
        return self._open.value

    # --- tFAW / tRRD ----------------------------------------------------

    def earliest_activate(self, now: int) -> int:
        """Earliest time a new ACT satisfies tFAW and tRRD rank-wide."""
        earliest = max(now, self.next_act_allowed, self.wake_time)
        t_faw = self.t_faw
        if t_faw > 0:
            recent = self._recent_activates
            if len(recent) >= 4:
                window = recent[-4] + t_faw
                if window > earliest:
                    earliest = window
        return earliest

    def can_activate(self, now: int) -> bool:
        return self.earliest_activate(now) <= now

    def note_activate(self, now: int) -> None:
        """Record an ACT issued now (caller already checked legality)."""
        recent = self._recent_activates
        recent.append(now)
        if len(recent) > 8:
            del recent[:-8]
        self.next_act_allowed = now + self.t_rrd
        self.touch(now)

    # --- power-down management ------------------------------------------

    def touch(self, now: int) -> None:
        """Mark activity: wakes the rank if powered down."""
        # Several commands may issue in one cycle; the first folded it.
        if now > self._tally_mark:
            self._fold_tally(now)
        self.last_activity_time = now
        if self.power_state in (PowerState.POWER_DOWN, PowerState.SELF_REFRESH):
            self.power_state = PowerState.STANDBY

    def wake(self, now: int) -> int:
        """Begin power-down exit; returns the time the rank is usable."""
        if self.power_state not in (PowerState.POWER_DOWN,
                                    PowerState.SELF_REFRESH):
            return now
        self._fold_tally(now)
        self.power_state = PowerState.STANDBY
        self.wake_time = now + self.t_pd_exit
        return self.wake_time

    def try_power_down(self, now: int, idle_threshold: int) -> bool:
        """Enter precharge power-down if idle long enough and all banks closed."""
        if not self._supports_power_down:
            return False
        if self.power_state is not PowerState.STANDBY:
            return False
        if now - self.last_activity_time < idle_threshold:
            return False
        if self._open.value:
            return False
        self._fold_tally(now)
        self.power_state = PowerState.POWER_DOWN
        self.power_down_entries += 1
        return True

    def _fold_tally(self, now: int) -> None:
        span = now - self._tally_mark
        if span <= 0:
            return
        state = self._effective_state()
        if state is PowerState.ACTIVE:
            self.tally.active += span
        elif state is PowerState.STANDBY:
            self.tally.standby += span
        elif state is PowerState.POWER_DOWN:
            self.tally.power_down += span
        else:
            self.tally.self_refresh += span
        self._tally_mark = now

    def _effective_state(self) -> PowerState:
        # Runs inside every tally fold (i.e. on every command); the
        # open-bank count makes the any-bank-open question O(1).
        state = self.power_state
        if state is PowerState.STANDBY and self._open.value:
            return PowerState.ACTIVE
        return state

    def finalize_tally(self, now: int) -> PowerStateTally:
        """Fold residency up to ``now`` and return the tally."""
        self._fold_tally(now)
        return self.tally

    # --- statistics -------------------------------------------------------

    @property
    def activate_count(self) -> int:
        return sum(b.activate_count for b in self.banks)

    @property
    def read_count(self) -> int:
        return sum(b.read_count for b in self.banks)

    @property
    def write_count(self) -> int:
        return sum(b.write_count for b in self.banks)

    def bank(self, index: int) -> Bank:
        return self.banks[index]

    def telemetry_items(self, now: int) -> dict:
        """End-of-run counters and power-state residency for export."""
        tally = self.finalize_tally(now)
        return {
            "act_count": self.activate_count,
            "read_count": self.read_count,
            "write_count": self.write_count,
            "power_down_entries": self.power_down_entries,
            "cycles_active": tally.active,
            "cycles_standby": tally.standby,
            "cycles_power_down": tally.power_down,
            "cycles_self_refresh": tally.self_refresh,
        }
