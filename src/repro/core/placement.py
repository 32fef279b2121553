"""Page-placement heterogeneous memory (paper Section 7.1).

The comparison point for CWF: a Phadke-style design that keeps whole
pages in one DRAM flavour. The system has four 72-bit channels — three
carry 2 GB LPDDR2 DIMMs, the fourth carries 0.5 GB of RLDRAM3 — so it is
iso-pin-count and (approximately) iso-chip-count with the baseline. An
offline profile ranks pages by access count and the hottest 7.6 %
(0.5 GB / 6.5 GB) are placed in RLDRAM3; everything else lives in
LPDDR2. Whole cache lines come from a single channel — there is no
critical-word split.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence

from repro.dram.address import AddressMapper, MappingScheme
from repro.dram.channel import Channel
from repro.dram.controller import ControllerConfig, MemoryController
from repro.dram.device import LPDDR2_DEVICE, RLDRAM3_DEVICE
from repro.dram.power import ChipActivity
from repro.dram.request import (
    DecodedAddress,
    LINE_BYTES,
    MemoryRequest,
    RequestKind,
)
from repro.dram.timing import TimingSet
from repro.memsys.base import MemorySystem, MemorySystemStats
from repro.util.events import EventQueue
from repro.util.sums import left_sum

PAGE_LINES = 64  # 4 KB pages


def rank_pages(page_streams: Iterable[Iterable[int]]) -> List[int]:
    """Pages ranked by access count, hot first; equal counts rank in
    first-seen order. The streams are consumed one after another."""
    counts: Counter = Counter()
    for pages in page_streams:
        # Counter.update counts in C and keeps first-seen key order,
        # exactly as incrementing one access at a time would.
        counts.update(pages)
    # A stable sort, so ties keep first-seen order as most_common()
    # does, without building its (page, count) list.
    return sorted(counts, key=counts.__getitem__, reverse=True)


@dataclass(frozen=True)
class PagePlacementConfig:
    """Sec 7.1 parameters."""

    hot_page_fraction: float = 0.076   # 0.5 GB of 6.5 GB
    num_lpddr_channels: int = 3
    lpddr_devices_per_rank: int = 9
    rldram_devices_per_rank: int = 8   # 8 x9 chips = 72-bit channel
    cpu_freq_ghz: float = 3.2


class PagePlacementMemory(MemorySystem):
    """Three LPDDR2 channels plus one RLDRAM3 channel, page-granular."""

    def __init__(self, events: EventQueue, page_ranking: Sequence[int],
                 config: PagePlacementConfig = PagePlacementConfig(),
                 controller_config: ControllerConfig = None) -> None:
        self.events = events
        self.config = config
        n_hot = int(len(page_ranking) * config.hot_page_fraction)
        # Slot index gives each hot page a home inside the RLDRAM space.
        self._hot_slots: Dict[int, int] = {
            page: slot for slot, page in enumerate(page_ranking[:n_hot])
        }
        self.lpddr_timing = TimingSet(LPDDR2_DEVICE.timing, config.cpu_freq_ghz)
        self.rldram_timing = TimingSet(RLDRAM3_DEVICE.timing, config.cpu_freq_ghz)
        self.lpddr_mapper = AddressMapper(
            device=LPDDR2_DEVICE, num_channels=config.num_lpddr_channels,
            ranks_per_channel=1, devices_per_rank=8,
            scheme=MappingScheme.OPEN_PAGE)

        lp_cc = controller_config or ControllerConfig(aggressive_powerdown=True)
        self.lpddr_channels: List[Channel] = []
        self.lpddr_controllers: List[MemoryController] = []
        for i in range(config.num_lpddr_channels):
            channel = Channel(self.lpddr_timing, num_data_buses=1, index=i)
            self.lpddr_channels.append(channel)
            self.lpddr_controllers.append(MemoryController(
                device=LPDDR2_DEVICE, timing=self.lpddr_timing,
                channel=channel, num_ranks=1, events=events, config=lp_cc,
                name=f"pp-lpddr2-ch{i}"))
        self.rldram_channel = Channel(self.rldram_timing, num_data_buses=1)
        self.rldram_controller = MemoryController(
            device=RLDRAM3_DEVICE, timing=self.rldram_timing,
            channel=self.rldram_channel, num_ranks=1, events=events,
            config=controller_config or ControllerConfig(),
            name="pp-rldram3")
        self.stats = MemorySystemStats()
        self.hot_accesses = 0
        self.cold_accesses = 0

    # ------------------------------------------------------------------

    def _route(self, line_address: int):
        """Returns (controller, decoded) for a line."""
        page = line_address // PAGE_LINES
        slot = self._hot_slots.get(page)
        if slot is not None:
            self.hot_accesses += 1
            line_slot = slot * PAGE_LINES + line_address % PAGE_LINES
            dev = RLDRAM3_DEVICE
            bank = line_slot % dev.num_banks
            rest = line_slot // dev.num_banks
            row = rest % dev.num_rows
            column = (rest // dev.num_rows) % dev.num_cols
            decoded = DecodedAddress(channel=0, rank=0, bank=bank, row=row,
                                     column=column)
            return self.rldram_controller, decoded
        self.cold_accesses += 1
        decoded = self.lpddr_mapper.decode(line_address * LINE_BYTES)
        return self.lpddr_controllers[decoded.channel], decoded

    def issue_read(self, line_address: int, critical_word: int, core_id: int,
                   is_prefetch: bool,
                   on_critical: Callable[[int], None],
                   on_complete: Callable[[int], None]) -> bool:
        controller, decoded = self._route(line_address)
        if controller.read_queue_free <= 0:
            return False
        start = self.events.now
        fast = controller is self.rldram_controller

        def critical_cb(t: int) -> None:
            if not is_prefetch:
                self.stats.sum_critical_latency += t - start
                if fast:
                    self.stats.critical_served_fast += 1
                else:
                    self.stats.critical_served_slow += 1
                if self._telemetry_attached:
                    self._h_critical.observe(t - start)
                    (self._c_fast if fast else self._c_slow).inc()
            on_critical(t)

        def complete_cb(t: int) -> None:
            self.stats.sum_fill_latency += t - start
            if self._telemetry_attached:
                self._h_fill.observe(t - start)
            on_complete(t)

        request = MemoryRequest(
            kind=RequestKind.READ, address=line_address * LINE_BYTES,
            critical_word=critical_word, is_prefetch=is_prefetch,
            core_id=core_id, decoded=decoded,
            on_critical_word=critical_cb, on_complete=complete_cb)
        if not controller.enqueue(request):
            return False
        self.stats.reads += 1
        if not is_prefetch:
            self.stats.demand_reads += 1
        if self._telemetry_attached:
            self._c_reads.inc()
            if not is_prefetch:
                self._c_demand_reads.inc()
        return True

    def issue_write(self, line_address: int, critical_word_tag: int,
                    core_id: int) -> bool:
        controller, decoded = self._route(line_address)
        request = MemoryRequest(kind=RequestKind.WRITE,
                                address=line_address * LINE_BYTES,
                                core_id=core_id, decoded=decoded)
        if not controller.enqueue(request):
            return False
        self.stats.writes += 1
        if self._telemetry_attached:
            self._c_writes.inc()
        return True

    # ------------------------------------------------------------------

    @property
    def _all_controllers(self) -> List[MemoryController]:
        return self.lpddr_controllers + [self.rldram_controller]

    def telemetry_controllers(self) -> List[MemoryController]:
        return self._all_controllers

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info.update({
            "organisation": "page-placement",
            "hot_page_fraction": self.config.hot_page_fraction,
            "hot_pages": len(self._hot_slots),
            "num_lpddr_channels": self.config.num_lpddr_channels,
        })
        return info

    def finalize(self) -> None:
        for mc in self._all_controllers:
            mc.finalize()

    def bus_utilization(self, elapsed_cycles: int) -> float:
        chans = self.lpddr_channels + [self.rldram_channel]
        return left_sum(c.utilization(elapsed_cycles) for c in chans) / len(chans)

    def chip_activities(self, elapsed_cycles: int) -> Dict[str, List[ChipActivity]]:
        self.finalize()
        ghz = self.config.cpu_freq_ghz
        elapsed_ns = max(1.0, elapsed_cycles / ghz)
        out: Dict[str, List[ChipActivity]] = {"lpddr2": [], "rldram3": []}

        def make(rank, t_burst_ns):
            tally = rank.finalize_tally(self.events.now)
            return ChipActivity(
                elapsed_ns=elapsed_ns, activates=rank.activate_count,
                reads=rank.read_count, writes=rank.write_count,
                read_bus_ns=rank.read_count * t_burst_ns,
                write_bus_ns=rank.write_count * t_burst_ns,
                active_standby_ns=tally.active / ghz,
                precharge_standby_ns=tally.standby / ghz,
                power_down_ns=tally.power_down / ghz,
                self_refresh_ns=tally.self_refresh / ghz)

        for mc in self.lpddr_controllers:
            for rank in mc.ranks:
                out["lpddr2"].extend(
                    [make(rank, LPDDR2_DEVICE.timing.t_burst)]
                    * self.config.lpddr_devices_per_rank)
        for rank in self.rldram_controller.ranks:
            out["rldram3"].extend(
                [make(rank, RLDRAM3_DEVICE.timing.t_burst)]
                * self.config.rldram_devices_per_rank)
        return out
