"""Channel model: shared data bus and address/command bus.

A channel serialises data transfers from its ranks and accounts for bus
turnaround penalties (write-to-read tWTR within a rank, tRTRS between
ranks / between reads and writes back-to-back on the bus).

The command bus is modelled as a slotted resource: ``cmd_slots_per_cycle``
commands may issue per bus clock. The aggregated RLDRAM channel of the
paper (Sec 4.2.4) shares one double-data-rate command bus across four
skinny data sub-channels, i.e. 2 slots per bus cycle feeding 4 data buses
— the data:command utilisation ratio of 4:1 the paper relies on.

Bus objects sit on the per-command issue path, so they are slotted and
keep their turnaround/burst/bus-cycle constants as flat integers resolved
once at construction.
"""

from __future__ import annotations

from typing import Optional

from repro.dram.request import RequestKind
from repro.dram.timing import TimingSet
from repro.util.sums import left_sum


class BusStats:
    """Occupancy accounting for utilisation figures."""

    __slots__ = ("data_busy_cycles", "cmd_busy_cycles",
                 "reads_transferred", "writes_transferred")

    def __init__(self, data_busy_cycles: int = 0, cmd_busy_cycles: int = 0,
                 reads_transferred: int = 0,
                 writes_transferred: int = 0) -> None:
        self.data_busy_cycles = data_busy_cycles
        self.cmd_busy_cycles = cmd_busy_cycles
        self.reads_transferred = reads_transferred
        self.writes_transferred = writes_transferred

    def __repr__(self) -> str:
        return (f"BusStats(data_busy_cycles={self.data_busy_cycles}, "
                f"cmd_busy_cycles={self.cmd_busy_cycles}, "
                f"reads_transferred={self.reads_transferred}, "
                f"writes_transferred={self.writes_transferred})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BusStats):
            return NotImplemented
        return (self.data_busy_cycles == other.data_busy_cycles
                and self.cmd_busy_cycles == other.cmd_busy_cycles
                and self.reads_transferred == other.reads_transferred
                and self.writes_transferred == other.writes_transferred)


class DataBus:
    """One data bus; serialises bursts and applies turnaround gaps."""

    __slots__ = ("timing", "free_at", "last_kind", "last_rank", "stats",
                 "t_burst", "t_rtrs", "t_wtr")

    def __init__(self, timing: TimingSet) -> None:
        self.timing = timing
        self.free_at = 0
        self.last_kind: Optional[RequestKind] = None
        self.last_rank: Optional[int] = None
        self.stats = BusStats()
        self.t_burst = timing.t_burst
        self.t_rtrs = timing.t_rtrs
        self.t_wtr = timing.t_wtr

    def earliest_start(self, desired: int, kind: RequestKind, rank: int) -> int:
        """Earliest time a burst of ``kind`` from ``rank`` may start."""
        free_at = self.free_at
        start = desired if desired > free_at else free_at
        last_kind = self.last_kind
        if last_kind is None:
            return start
        gap = 0
        if self.last_rank is not None and rank != self.last_rank:
            gap = self.t_rtrs
        if kind is RequestKind.READ:
            if last_kind is not RequestKind.READ:
                # Write-to-read turnaround on the shared bus.
                if self.t_wtr > gap:
                    gap = self.t_wtr
        elif last_kind is RequestKind.READ:
            if self.t_rtrs > gap:
                gap = self.t_rtrs
        gapped = free_at + gap
        return gapped if gapped > start else start

    def reserve(self, start: int, kind: RequestKind, rank: int) -> int:
        """Occupy the bus for one burst starting at ``start``; returns end."""
        if start < self.free_at:
            raise RuntimeError(
                f"data bus conflict: start {start} < free_at {self.free_at}")
        end = start + self.t_burst
        self.free_at = end
        self.last_kind = kind
        self.last_rank = rank
        self.stats.data_busy_cycles += self.t_burst
        if kind is RequestKind.READ:
            self.stats.reads_transferred += 1
        else:
            self.stats.writes_transferred += 1
        return end

    def utilization(self, elapsed: int) -> float:
        """Fraction of ``elapsed`` cycles the bus carried data."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.stats.data_busy_cycles / elapsed)


class CommandBus:
    """Slotted address/command bus shared by one or more data buses.

    Commands issue in time order, so the bus keeps only the last bus
    cycle it reserved and how many of its slots are taken; every earlier
    cycle is over. Reserving in an earlier bus cycle is an error.
    ``free_from`` is the earliest time a slot is free: the start of that
    cycle while it has a slot left, else the start of the next one. The
    controller reads it on every tick.
    """

    __slots__ = ("timing", "slots_per_cycle", "_cycle", "_count", "stats",
                 "bus_cycle", "free_from")

    def __init__(self, timing: TimingSet, slots_per_cycle: int = 1) -> None:
        if slots_per_cycle < 1:
            raise ValueError("slots_per_cycle must be >= 1")
        self.timing = timing
        self.slots_per_cycle = slots_per_cycle
        self._cycle = -1  # last reserved bus cycle
        self._count = 0   # slots taken in it
        self.stats = BusStats()
        self.bus_cycle = timing.bus_cycle
        self.free_from = 0

    def reserve(self, time: int, n_commands: int = 1) -> None:
        """Consume ``n_commands`` slots in the bus cycle containing ``time``."""
        cyc = time // self.bus_cycle
        last = self._cycle
        if cyc > last:
            used = n_commands
        elif cyc == last:
            used = self._count + n_commands
        else:
            raise RuntimeError(
                f"command bus reserve at bus cycle {cyc}, after bus cycle "
                f"{last}")
        if used > self.slots_per_cycle:
            raise RuntimeError(f"command bus overflow at bus cycle {cyc}")
        self._cycle = cyc
        self._count = used
        self.free_from = (cyc + 1 if used >= self.slots_per_cycle
                          else cyc) * self.bus_cycle
        self.stats.cmd_busy_cycles += n_commands


class Channel:
    """A command bus plus one or more data buses (sub-channels).

    The conventional case is one data bus. The aggregated critical-word
    channel instantiates four data buses behind a dual-pumped command bus.
    """

    __slots__ = ("timing", "index", "data_buses", "cmd_bus")

    def __init__(self, timing: TimingSet, num_data_buses: int = 1,
                 cmd_slots_per_cycle: int = 1, index: int = 0) -> None:
        self.timing = timing
        self.index = index
        self.data_buses = [DataBus(timing) for _ in range(num_data_buses)]
        self.cmd_bus = CommandBus(timing, cmd_slots_per_cycle)

    def data_bus(self, sub: int = 0) -> DataBus:
        return self.data_buses[sub]

    def utilization(self, elapsed: int) -> float:
        """Mean data-bus utilisation across sub-channels."""
        if not self.data_buses:
            return 0.0
        return (left_sum(b.utilization(elapsed) for b in self.data_buses)
                / len(self.data_buses))

    def export_telemetry(self, registry, namespace: str,
                         elapsed_cycles: int) -> None:
        """Publish per-(sub-)bus occupancy gauges under ``namespace``."""
        registry.gauge(f"{namespace}.cmd_busy_cycles").set(
            self.cmd_bus.stats.cmd_busy_cycles)
        for sub, bus in enumerate(self.data_buses):
            bns = f"{namespace}.bus{sub}"
            registry.gauge(f"{bns}.data_busy_cycles").set(
                bus.stats.data_busy_cycles)
            registry.gauge(f"{bns}.reads_transferred").set(
                bus.stats.reads_transferred)
            registry.gauge(f"{bns}.writes_transferred").set(
                bus.stats.writes_transferred)
            registry.gauge(f"{bns}.utilization").set(
                bus.utilization(elapsed_cycles))
