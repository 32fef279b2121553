"""Homogeneous main memory: N identical channels of one DRAM family.

This is the paper's baseline (4 x 72-bit DDR3 channels, 1 rank of 9 x8
chips each) and, with a different device preset, the all-RLDRAM3 and
all-LPDDR2 systems of Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.dram.address import AddressMapper, MappingScheme
from repro.dram.channel import Channel
from repro.dram.controller import ControllerConfig, MemoryController
from repro.dram.device import DeviceConfig, DRAMKind, PagePolicy, device_for
from repro.dram.request import LINE_BYTES, MemoryRequest, RequestKind
from repro.dram.timing import TimingSet
from repro.memsys.base import (
    ChipGroup,
    MemorySystem,
    MemorySystemStats,
    ReadComplete,
    ReadCritical,
)
from repro.util.events import EventQueue


@dataclass(frozen=True)
class HomogeneousConfig:
    """Geometry of a homogeneous memory (paper Table 1 defaults)."""

    kind: DRAMKind = DRAMKind.DDR3
    num_channels: int = 4
    ranks_per_channel: int = 1
    devices_per_rank: int = 9   # 8 data + 1 ECC (72-bit channel)
    cpu_freq_ghz: float = 3.2


class HomogeneousMemory(MemorySystem):
    """N identical channels, each with its own controller."""

    def __init__(self, events: EventQueue,
                 config: HomogeneousConfig = HomogeneousConfig(),
                 controller_config: Optional[ControllerConfig] = None,
                 device: Optional[DeviceConfig] = None) -> None:
        self.events = events
        self.config = config
        self.device = device or device_for(config.kind)
        self.timing = TimingSet(self.device.timing, config.cpu_freq_ghz)
        scheme = (MappingScheme.OPEN_PAGE
                  if self.device.page_policy is PagePolicy.OPEN
                  else MappingScheme.CLOSE_PAGE)
        self.mapper = AddressMapper(
            device=self.device,
            num_channels=config.num_channels,
            ranks_per_channel=config.ranks_per_channel,
            devices_per_rank=8,  # 64 data bits move each line; ECC rides along
            scheme=scheme)
        self.controllers: List[MemoryController] = []
        cc = controller_config or ControllerConfig()
        for i in range(config.num_channels):
            channel = Channel(self.timing, num_data_buses=1,
                              cmd_slots_per_cycle=1, index=i)
            self.controllers.append(MemoryController(
                device=self.device, timing=self.timing, channel=channel,
                num_ranks=config.ranks_per_channel, events=events,
                config=cc, name=f"{config.kind.value}-ch{i}"))
        self.stats = MemorySystemStats()

    # ------------------------------------------------------------------

    def issue_read(self, line_address: int, critical_word: int, core_id: int,
                   is_prefetch: bool,
                   on_critical: Callable[[int], None],
                   on_complete: Callable[[int], None]) -> bool:
        address = line_address * LINE_BYTES
        decoded = self.mapper.decode(address)
        controller = self.controllers[decoded.channel]
        if controller.read_queue_free <= 0:
            return False
        start = self.events.now
        request = MemoryRequest(
            kind=RequestKind.READ, address=address,
            critical_word=critical_word, is_prefetch=is_prefetch,
            core_id=core_id, decoded=decoded)
        # Every critical word is served by the one (slow) side.
        request.on_critical_word = ReadCritical(self, start, is_prefetch,
                                                False, on_critical)
        request.on_complete = ReadComplete(self, start, on_complete)
        if not controller.enqueue(request):
            return False
        self.stats.reads += 1
        if not is_prefetch:
            self.stats.demand_reads += 1
        return True

    def issue_write(self, line_address: int, critical_word_tag: int,
                    core_id: int) -> bool:
        address = line_address * LINE_BYTES
        decoded = self.mapper.decode(address)
        controller = self.controllers[decoded.channel]
        request = MemoryRequest(kind=RequestKind.WRITE, address=address,
                                core_id=core_id, decoded=decoded)
        if not controller.enqueue(request):
            return False
        self.stats.writes += 1
        return True

    # ------------------------------------------------------------------

    def chip_groups(self) -> List[ChipGroup]:
        return [(self.config.kind.value, self.controllers,
                 self.config.devices_per_rank)]

    # The roll-ups and the aggregate latency views (paper Fig 1b) come
    # from the protocol defaults in MemorySystem: every controller
    # serves demand reads.

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info.update({
            "organisation": "homogeneous",
            "dram_kind": self.config.kind.value,
            "device": self.device.part_number,
            "num_channels": self.config.num_channels,
            "ranks_per_channel": self.config.ranks_per_channel,
        })
        return info
