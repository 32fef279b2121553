"""Per-bank DRAM state machine.

The bank tracks its open row and the earliest CPU-cycle times at which
each command class may legally be issued to it (ACT / column read /
column write / PRE), derived from the device timing set. The scheduler
asks ``can_*`` questions and the bank updates its horizon when a command
is actually issued.

RLDRAM3 banks use ``access()`` instead of the ACT/READ/PRE sequence: a
single command performs the whole array access and auto-precharges,
occupying the bank for tRC.

The timing constraints each command consumes (tRCD/tRAS/tRC/tCCD, the
write-recovery window, the close-page occupancy and data latencies) are
flattened to integer attributes at construction: the command-application
methods run on every DRAM transaction, and chasing them through the
shared :class:`TimingSet` on each call costs more than the state update
itself. The class is slotted for the same reason — a simulation holds
hundreds of banks and touches them millions of times.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.dram.timing import TimingSet

FAR_FUTURE = 1 << 62


class BankState(enum.Enum):
    IDLE = "idle"          # precharged, no open row
    ACTIVE = "active"      # a row is open


class OpenBankCount:
    """Number of banks with an open row, shared by a rank and its banks.

    Banks bump it on every ACT/PRE/refresh transition, so rank-wide "any
    bank open?" questions (power management, refresh) are O(1). It is a
    separate object, as the system's ``_FinishCounter`` is for cores,
    so a bank holds no reference back to its rank and a finished rank is
    freed by reference counting.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


class Bank:
    """One DRAM bank's timing state."""

    __slots__ = (
        "timing", "index", "open_count", "state", "open_row",
        "next_activate", "next_read", "next_write", "next_precharge",
        "activate_count", "read_count", "write_count", "row_hit_count",
        "last_activate_time", "last_use",
        # Precomputed per-command timing constraints (CPU cycles).
        "t_rcd", "t_ras", "t_rc", "t_rp", "t_ccd", "t_rl", "t_wl",
        "_write_recovery", "_access_occupancy", "_access_read_latency",
        "_access_write_latency",
    )

    def __init__(self, timing: TimingSet, index: int = 0,
                 open_count: Optional[OpenBankCount] = None) -> None:
        self.timing = timing
        self.index = index
        # The owning rank's open-bank count (a private one for a
        # standalone bank).
        self.open_count = (OpenBankCount() if open_count is None
                           else open_count)
        self.state = BankState.IDLE
        self.open_row: Optional[int] = None
        # Earliest legal issue times (CPU cycles).
        self.next_activate = 0
        self.next_read = FAR_FUTURE
        self.next_write = FAR_FUTURE
        self.next_precharge = 0
        # Statistics.
        self.activate_count = 0
        self.read_count = 0
        self.write_count = 0
        self.row_hit_count = 0
        self.last_activate_time = -(1 << 62)
        self.last_use = 0  # last command touching this bank (idle-close timer)
        # Flat timing-constraint table.
        self.t_rcd = timing.t_rcd
        self.t_ras = timing.t_ras
        self.t_rc = timing.t_rc
        self.t_rp = timing.t_rp
        self.t_ccd = timing.t_ccd
        self.t_rl = timing.t_rl
        self.t_wl = timing.t_wl
        # Write recovery before precharge: WL + burst + tWTR.
        self._write_recovery = timing.t_wl + timing.t_burst + timing.t_wtr
        # Close-page single-command access: the bank is busy for tRC (a
        # DDR-style part used close-page still pays tRCD + tRP).
        self._access_occupancy = max(timing.t_rc, timing.t_rcd + timing.t_rp)
        self._access_read_latency = timing.t_rcd + timing.t_rl
        self._access_write_latency = timing.t_rcd + timing.t_wl

    def is_row_hit(self, row: int) -> bool:
        return self.state is BankState.ACTIVE and self.open_row == row

    def telemetry_items(self) -> dict:
        """End-of-run counters for the telemetry exporter."""
        return {
            "act_count": self.activate_count,
            "read_count": self.read_count,
            "write_count": self.write_count,
            "row_hit_count": self.row_hit_count,
        }

    # --- DDR-style command application -------------------------------

    def can_activate(self, now: int) -> bool:
        return self.state is BankState.IDLE and now >= self.next_activate

    def activate(self, now: int, row: int) -> None:
        """Open ``row``; column commands legal after tRCD."""
        if not self.can_activate(now):
            raise RuntimeError(
                f"bank {self.index}: illegal ACT at {now} "
                f"(state={self.state}, next_activate={self.next_activate})")
        self.state = BankState.ACTIVE
        self.open_count.value += 1
        self.open_row = row
        self.next_read = now + self.t_rcd
        self.next_write = now + self.t_rcd
        self.next_precharge = now + self.t_ras
        self.next_activate = now + self.t_rc
        self.activate_count += 1
        self.last_activate_time = now
        self.last_use = now

    def can_read(self, now: int, row: int) -> bool:
        return self.is_row_hit(row) and now >= self.next_read

    def column_read(self, now: int) -> int:
        """Issue a column read; returns the time data starts on the bus."""
        if self.state is not BankState.ACTIVE or now < self.next_read:
            raise RuntimeError(f"bank {self.index}: illegal READ at {now}")
        next_col = now + self.t_ccd
        if next_col > self.next_read:
            self.next_read = next_col
        if next_col > self.next_write:
            self.next_write = next_col
        # Reading delays how soon the row may close (read-to-precharge).
        if next_col > self.next_precharge:
            self.next_precharge = next_col
        self.read_count += 1
        self.last_use = now
        return now + self.t_rl

    def column_write(self, now: int) -> int:
        """Issue a column write; returns the time data starts on the bus."""
        if self.state is not BankState.ACTIVE or now < self.next_write:
            raise RuntimeError(f"bank {self.index}: illegal WRITE at {now}")
        next_col = now + self.t_ccd
        if next_col > self.next_read:
            self.next_read = next_col
        if next_col > self.next_write:
            self.next_write = next_col
        recovery = now + self._write_recovery
        if recovery > self.next_precharge:
            self.next_precharge = recovery
        self.write_count += 1
        self.last_use = now
        return now + self.t_wl

    def can_precharge(self, now: int) -> bool:
        return self.state is BankState.ACTIVE and now >= self.next_precharge

    def precharge(self, now: int) -> None:
        if not self.can_precharge(now):
            raise RuntimeError(f"bank {self.index}: illegal PRE at {now}")
        self.state = BankState.IDLE
        self.open_count.value -= 1
        self.open_row = None
        ready = now + self.t_rp
        if ready > self.next_activate:
            self.next_activate = ready
        self.next_read = FAR_FUTURE
        self.next_write = FAR_FUTURE

    # --- RLDRAM-style unified access ----------------------------------

    def can_access(self, now: int) -> bool:
        """SRAM-style READ/WRITE legality: bank free (tRC elapsed)."""
        return now >= self.next_activate

    def access(self, now: int, is_write: bool) -> int:
        """Unified close-page access with auto-precharge.

        Occupies the bank for tRC; returns time data appears on the bus.
        For RLDRAM (tRCD = 0, SRAM-style addressing) data appears after
        tRL/tWL; a DDR-style part used close-page still pays its row
        activation (tRCD) before the column access.
        """
        if now < self.next_activate:
            raise RuntimeError(f"bank {self.index}: illegal ACCESS at {now}")
        self.next_activate = now + self._access_occupancy
        self.activate_count += 1
        self.last_activate_time = now
        self.last_use = now
        if is_write:
            self.write_count += 1
            return now + self._access_write_latency
        self.read_count += 1
        return now + self._access_read_latency

    # --- Refresh -------------------------------------------------------

    def refresh_block(self, now: int, until: int) -> None:
        """Block the bank until ``until`` for a refresh cycle."""
        if self.state is BankState.ACTIVE:
            # Controller must have precharged first; be forgiving in the
            # model and force-close the row.
            self.state = BankState.IDLE
            self.open_count.value -= 1
            self.open_row = None
            self.next_read = FAR_FUTURE
            self.next_write = FAR_FUTURE
        if until > self.next_activate:
            self.next_activate = until
