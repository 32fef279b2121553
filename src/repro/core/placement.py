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
from repro.dram.request import (
    DecodedAddress,
    LINE_BYTES,
    MemoryRequest,
    RequestKind,
)
from repro.dram.timing import TimingSet
from repro.memsys.base import (
    ChipGroup,
    MemorySystem,
    MemorySystemStats,
    ReadComplete,
    ReadCritical,
)
from repro.util.events import EventQueue

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
        self.lpddr_controllers: List[MemoryController] = []
        for i in range(config.num_lpddr_channels):
            channel = Channel(self.lpddr_timing, num_data_buses=1, index=i)
            self.lpddr_controllers.append(MemoryController(
                device=LPDDR2_DEVICE, timing=self.lpddr_timing,
                channel=channel, num_ranks=1, events=events, config=lp_cc,
                name=f"pp-lpddr2-ch{i}"))
        self.rldram_controller = MemoryController(
            device=RLDRAM3_DEVICE, timing=self.rldram_timing,
            channel=Channel(self.rldram_timing, num_data_buses=1),
            num_ranks=1, events=events,
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
        request = MemoryRequest(
            kind=RequestKind.READ, address=line_address * LINE_BYTES,
            critical_word=critical_word, is_prefetch=is_prefetch,
            core_id=core_id, decoded=decoded,
            on_critical_word=ReadCritical(self, start, is_prefetch, fast,
                                          on_critical),
            on_complete=ReadComplete(self, start, on_complete))
        if not controller.enqueue(request):
            return False
        self.stats.reads += 1
        if not is_prefetch:
            self.stats.demand_reads += 1
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
        return True

    # ------------------------------------------------------------------

    def chip_groups(self) -> List[ChipGroup]:
        config = self.config
        return [
            ("lpddr2", self.lpddr_controllers, config.lpddr_devices_per_rank),
            ("rldram3", [self.rldram_controller],
             config.rldram_devices_per_rank),
        ]

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info.update({
            "organisation": "page-placement",
            "hot_page_fraction": self.config.hot_page_fraction,
            "hot_pages": len(self._hot_slots),
            "num_lpddr_channels": self.config.num_lpddr_channels,
        })
        return info
