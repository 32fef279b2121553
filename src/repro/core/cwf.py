"""Critical-word-first heterogeneous memory (paper Section 4.2).

Organisation (the optimised design of Fig 5c):

* **Bulk side** — four 64-bit channels of low-power (or DDR3) DIMMs,
  each a single rank of 8 chips holding words 1-7 plus the line's SECDED
  ECC; open-page policy; aggressive power-down on LPDRAM.
* **Fast side** — one aggregated critical-word channel: four 9-bit data
  sub-channels, each a single-chip x9 RLDRAM3 rank holding word-0 (or
  the adaptively chosen word) plus byte parity, all sharing one
  double-data-rate address/command bus (rank subsetting; the 4:1
  data:command ratio makes the sharing safe, Sec 4.2.4). Close-page.

An LLC miss creates one MSHR entry and **two** DRAM requests. The fast
part usually returns tens of CPU cycles earlier because the RLDRAM
channel has its own controller with shallow queues and a 12 ns tRC; if
it carries the requested word (and passes byte parity), the stalled
instruction wakes immediately, long before the bulk part lands. If the
requested word lives in the bulk part, the bulk burst is reordered to
deliver it first (conventional CWF). The fill — caches populated, MSHR
freed — completes when both parts have arrived.

Placement policies (Sec 4.2.2 / 4.2.5 / Sec 6.1.1 controls):

* ``STATIC`` — word 0 always lives on the fast DIMM.
* ``ADAPTIVE`` — each line's last observed critical word is placed on
  the fast DIMM when a dirty line is written back (3-bit tag per line).
* ``ORACLE`` — every critical word is served at fast-DIMM latency
  (upper bound, "RL OR").
* ``RANDOM`` — a hash-stable random word per line (sanity control: the
  critical word is 7x more likely to be in the slow DIMM).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.dram.address import AddressMapper, MappingScheme
from repro.dram.channel import Channel
from repro.dram.controller import ControllerConfig, MemoryController
from repro.dram.device import (
    DDR3_DEVICE,
    DeviceConfig,
    DRAMKind,
    LPDDR2_DEVICE,
    PagePolicy,
    RLDRAM3_DEVICE,
)
from repro.dram.request import (
    DecodedAddress,
    LINE_BYTES,
    MemoryRequest,
    RequestKind,
    WORDS_PER_LINE,
)
from repro.dram.timing import TimingSet
from repro.core.ecc import FaultInjector
from repro.memsys.base import (
    ChipGroup,
    MemorySystem,
    MemorySystemStats,
    mean_bus_utilization,
    per_read_mean,
)
from repro.util.events import EventQueue

# A DDR3 part used as the critical-word store in the DL configuration:
# x9 (8 data bits + parity), close-page, auto-precharge style operation.
DDR3_FAST_DEVICE = DeviceConfig(
    kind=DRAMKind.DDR3,
    part_number="MT41J256M8-x9-critical",
    timing=DDR3_DEVICE.timing,
    capacity_mbit=2304,
    data_width_bits=9,
    num_banks=8,
    num_rows=32768,
    num_cols=1024,
    page_policy=PagePolicy.CLOSE,
    single_command_addressing=False,
)


class CWFPolicy(enum.Enum):
    STATIC = "static"
    ADAPTIVE = "adaptive"
    ORACLE = "oracle"
    RANDOM = "random"


class HeteroPair(enum.Enum):
    """The paper's three evaluated configurations (Sec 6.1.1)."""

    RD = "rd"   # RLDRAM3 critical + DDR3 bulk
    RL = "rl"   # RLDRAM3 critical + LPDDR2 bulk
    DL = "dl"   # DDR3 critical + LPDDR2 bulk


_PAIR_DEVICES = {
    HeteroPair.RD: (RLDRAM3_DEVICE, DDR3_DEVICE),
    HeteroPair.RL: (RLDRAM3_DEVICE, LPDDR2_DEVICE),
    HeteroPair.DL: (DDR3_FAST_DEVICE, LPDDR2_DEVICE),
}


@dataclass(frozen=True)
class CWFConfig:
    """Geometry of the optimised CWF system (paper Fig 5c)."""

    pair: HeteroPair = HeteroPair.RL
    policy: CWFPolicy = CWFPolicy.STATIC
    num_bulk_channels: int = 4
    bulk_devices_per_rank: int = 8    # words 1-7 + ECC
    # Four single-chip x9 ranks per sub-channel (paper Sec 4.2.4: one
    # RLDRAM chip has 1/4 the capacity of a DDR3/LPDRAM chip).
    fast_ranks_per_subchannel: int = 4
    cpu_freq_ghz: float = 3.2
    parity_error_rate: float = 0.0    # fast-part parity failures (Sec 4.2.3)
    # Aggregate the four fast sub-channels behind one shared cmd bus
    # (Fig 5c). False models the unoptimised per-channel design (Fig 5b).
    shared_command_bus: bool = True

    @property
    def fast_device(self) -> DeviceConfig:
        return _PAIR_DEVICES[self.pair][0]

    @property
    def bulk_device(self) -> DeviceConfig:
        return _PAIR_DEVICES[self.pair][1]


_RANDOM_HASH_MULT = 0x9E3779B97F4A7C15


class _CWFReadTxn:
    """Per-read transaction joining the fast and bulk halves of a line.

    Slotted class with bound-method callbacks instead of closures so an
    in-flight split read survives pickling when the simulator is
    checkpointed mid-run. Semantics are unchanged: the CPU wakes once
    (fast part if it covers the word and passes parity, else the bulk
    critical burst, else with the full line on a parity deferral), and
    the fill completes when both parts have arrived.
    """

    __slots__ = ("memory", "start", "covers", "parity_ok", "is_prefetch",
                 "on_critical", "on_complete", "fast_end", "bulk_end",
                 "woken")

    def __init__(self, memory: "CriticalWordMemory", start: int,
                 covers: bool, parity_ok: bool, is_prefetch: bool,
                 on_critical: Callable[[int], None],
                 on_complete: Callable[[int], None]) -> None:
        self.memory = memory
        self.start = start
        self.covers = covers
        self.parity_ok = parity_ok
        self.is_prefetch = is_prefetch
        self.on_critical = on_critical
        self.on_complete = on_complete
        self.fast_end: Optional[int] = None
        self.bulk_end: Optional[int] = None
        self.woken = False

    def _wake(self, t: int, from_fast: bool) -> None:
        if self.woken:
            return
        self.woken = True
        memory = self.memory
        if not self.is_prefetch:
            memory.stats.sum_critical_latency += t - self.start
            if from_fast:
                memory.stats.critical_served_fast += 1
            else:
                memory.stats.critical_served_slow += 1
            if memory._h_critical is not None:
                memory._h_critical.observe(t - self.start)
        self.on_critical(t)

    def _check_complete(self) -> None:
        fast_end = self.fast_end
        bulk_end = self.bulk_end
        if fast_end is None or bulk_end is None:
            return
        t = fast_end if fast_end >= bulk_end else bulk_end
        if not self.woken:
            # Parity deferral: data released only with the full line.
            self._wake(t, from_fast=False)
        memory = self.memory
        memory.stats.sum_fill_latency += t - self.start
        if memory._h_fill is not None:
            memory._h_fill.observe(t - self.start)
        self.on_complete(t)

    def fast_done(self, t: int) -> None:
        self.fast_end = t
        if self.covers and self.parity_ok:
            self._wake(t, from_fast=True)
        self._check_complete()

    def bulk_critical(self, t: int) -> None:
        # Scheduled only for reads the fast part does not cover.
        self._wake(t, from_fast=False)

    def bulk_done(self, t: int) -> None:
        self.bulk_end = t
        self._check_complete()


class CriticalWordMemory(MemorySystem):
    """The heterogeneous CWF main memory."""

    def __init__(self, events: EventQueue, config: CWFConfig = CWFConfig(),
                 bulk_controller_config: Optional[ControllerConfig] = None,
                 fast_controller_config: Optional[ControllerConfig] = None,
                 tag_seeder: Optional[Callable[[int], int]] = None) -> None:
        self.events = events
        self.config = config
        bulk_dev = config.bulk_device
        fast_dev = config.fast_device
        self.bulk_timing = TimingSet(bulk_dev.timing, config.cpu_freq_ghz)
        self.fast_timing = TimingSet(fast_dev.timing, config.cpu_freq_ghz)
        self.bulk_mapper = AddressMapper(
            device=bulk_dev, num_channels=config.num_bulk_channels,
            ranks_per_channel=1, devices_per_rank=config.bulk_devices_per_rank,
            scheme=MappingScheme.OPEN_PAGE)

        bulk_cc = bulk_controller_config or ControllerConfig(
            aggressive_powerdown=(bulk_dev.kind is DRAMKind.LPDDR2))
        self.bulk_controllers: List[MemoryController] = []
        for i in range(config.num_bulk_channels):
            channel = Channel(self.bulk_timing, num_data_buses=1, index=i)
            self.bulk_controllers.append(MemoryController(
                device=bulk_dev, timing=self.bulk_timing, channel=channel,
                num_ranks=1, events=events, config=bulk_cc,
                name=f"bulk-{bulk_dev.kind.value}-ch{i}"))

        fast_cc = fast_controller_config or ControllerConfig()
        n_sub = config.num_bulk_channels
        ranks_per_sub = config.fast_ranks_per_subchannel
        if config.shared_command_bus:
            # One aggregated channel (Fig 5c): 4 x 9-bit data sub-buses,
            # each carrying 4 single-chip ranks, all behind one dual-
            # pumped command bus — 16 x9 chips total.
            channel = Channel(self.fast_timing, num_data_buses=n_sub,
                              cmd_slots_per_cycle=2, index=0)
            self.fast_controllers = [MemoryController(
                device=fast_dev, timing=self.fast_timing, channel=channel,
                num_ranks=n_sub * ranks_per_sub, events=events,
                config=fast_cc,
                rank_to_bus={i: i // ranks_per_sub
                             for i in range(n_sub * ranks_per_sub)},
                name=f"fast-{fast_dev.kind.value}")]
        else:
            # Unoptimised design (Fig 5b): one controller per sub-channel.
            self.fast_controllers = []
            for i in range(n_sub):
                channel = Channel(self.fast_timing, num_data_buses=1, index=i)
                self.fast_controllers.append(MemoryController(
                    device=fast_dev, timing=self.fast_timing, channel=channel,
                    num_ranks=ranks_per_sub, events=events, config=fast_cc,
                    name=f"fast-{fast_dev.kind.value}-ch{i}"))

        self.stats = MemorySystemStats()
        self._tags: Dict[int, int] = {}   # adaptive per-line critical word
        # Fallback for lines not yet written during the measured window
        # (models the warm state after the paper's fast-forward).
        self._tag_seeder = tag_seeder
        self.fault_injector = FaultInjector(config.parity_error_rate)
        self.parity_deferrals = 0
        # Hot-path flattening: issue_read/issue_write run once per LLC
        # miss, and every geometry constant below is frozen after
        # construction (CWFConfig and DeviceConfig are frozen dataclasses).
        self._policy = config.policy
        self._rps = config.fast_ranks_per_subchannel
        self._nch = config.num_bulk_channels
        self._lpr = self.bulk_mapper.lines_per_row
        self._fd_banks = fast_dev.num_banks
        self._fd_rows = fast_dev.num_rows
        self._fd_cols = fast_dev.num_cols
        self._shared_cmd = config.shared_command_bus

    # ------------------------------------------------------------------
    # Placement policy
    # ------------------------------------------------------------------

    def fast_word(self, line_address: int) -> int:
        """Which word of the line currently lives on the fast DIMM."""
        policy = self._policy
        if policy is CWFPolicy.STATIC or policy is CWFPolicy.ORACLE:
            return 0
        if policy is CWFPolicy.ADAPTIVE:
            tag = self._tags.get(line_address)
            if tag is not None:
                return tag
            if self._tag_seeder is not None:
                return self._tag_seeder(line_address)
            return 0
        # RANDOM: stable per line, uniform over the 8 words.
        h = (line_address * _RANDOM_HASH_MULT) & ((1 << 64) - 1)
        return (h >> 40) % WORDS_PER_LINE

    def _covers(self, line_address: int, critical_word: int) -> bool:
        if self._policy is CWFPolicy.ORACLE:
            return True
        return self.fast_word(line_address) == critical_word

    # ------------------------------------------------------------------
    # Address mapping for the fast side
    # ------------------------------------------------------------------

    def _fast_decode(self, line_address: int,
                     d_bulk: Optional[DecodedAddress] = None) -> DecodedAddress:
        """Locate a line's critical word on the fast side.

        Sub-channel = the line's bulk channel, so both parts of a line
        always travel through their own dedicated resources. Within the
        sub-channel, lines interleave across the four single-chip ranks,
        then across the chip's banks (close-page mapping). Callers that
        already decoded the bulk side pass ``d_bulk`` to avoid a second
        mapper decode per request.
        """
        if d_bulk is None:
            d_bulk = self.bulk_mapper.decode(line_address * LINE_BYTES)
        rps = self._rps
        # Index of this line within its bulk channel (the open-page map
        # interleaves channels at row granularity, not line granularity).
        lpr = self._lpr
        within = ((line_address // (lpr * self._nch)) * lpr
                  + line_address % lpr)
        sub_rank = within % rps
        rest = within // rps
        bank = rest % self._fd_banks
        rest //= self._fd_banks
        row = rest % self._fd_rows
        column = (rest // self._fd_rows) % self._fd_cols
        if self._shared_cmd:
            return DecodedAddress(channel=0,
                                  rank=d_bulk.channel * rps + sub_rank,
                                  bank=bank, row=row, column=column)
        return DecodedAddress(channel=d_bulk.channel, rank=sub_rank,
                              bank=bank, row=row, column=column)

    def _fast_controller(self, decoded: DecodedAddress) -> MemoryController:
        return self.fast_controllers[decoded.channel]

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def issue_read(self, line_address: int, critical_word: int, core_id: int,
                   is_prefetch: bool,
                   on_critical: Callable[[int], None],
                   on_complete: Callable[[int], None]) -> bool:
        address = line_address * LINE_BYTES
        bulk_decoded = self.bulk_mapper.decode(address)
        fast_decoded = self._fast_decode(line_address, bulk_decoded)
        bulk_mc = self.bulk_controllers[bulk_decoded.channel]
        fast_mc = self._fast_controller(fast_decoded)
        if bulk_mc.read_queue_free <= 0 or fast_mc.read_queue_free <= 0:
            return False

        start = self.events.now
        covers = self._covers(line_address, critical_word)
        parity_ok = (not covers) or self.fault_injector.fast_part_ok()
        if covers and not parity_ok:
            self.parity_deferrals += 1
        txn = _CWFReadTxn(self, start, covers, parity_ok, is_prefetch,
                          on_critical, on_complete)

        fast_req = MemoryRequest(
            kind=RequestKind.READ, address=address, critical_word=0,
            is_prefetch=is_prefetch, core_id=core_id, decoded=fast_decoded,
            on_complete=txn.fast_done)
        bulk_req = MemoryRequest(
            kind=RequestKind.READ, address=address,
            critical_word=critical_word, is_prefetch=is_prefetch,
            core_id=core_id, decoded=bulk_decoded,
            # A covered word reaches the CPU from the fast part (or with
            # the full line on a parity deferral), so its bulk burst
            # schedules no delivery.
            on_critical_word=None if covers else txn.bulk_critical,
            on_complete=txn.bulk_done)
        # Both queues were checked above; enqueue cannot fail here.
        if not fast_mc.enqueue(fast_req) or not bulk_mc.enqueue(bulk_req):
            raise RuntimeError("CWF enqueue failed after capacity check")
        self.stats.reads += 1
        if not is_prefetch:
            self.stats.demand_reads += 1
        return True

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def issue_write(self, line_address: int, critical_word_tag: int,
                    core_id: int) -> bool:
        address = line_address * LINE_BYTES
        bulk_decoded = self.bulk_mapper.decode(address)
        fast_decoded = self._fast_decode(line_address, bulk_decoded)
        bulk_mc = self.bulk_controllers[bulk_decoded.channel]
        fast_mc = self._fast_controller(fast_decoded)
        if bulk_mc.write_queue_free <= 0 or fast_mc.write_queue_free <= 0:
            return False
        if self._policy is CWFPolicy.ADAPTIVE:
            # Dirty writeback re-organises the line (Sec 4.2.5).
            self._tags[line_address] = critical_word_tag
        bulk_req = MemoryRequest(kind=RequestKind.WRITE, address=address,
                                 core_id=core_id, decoded=bulk_decoded)
        fast_req = MemoryRequest(kind=RequestKind.WRITE, address=address,
                                 core_id=core_id, decoded=fast_decoded)
        if not bulk_mc.enqueue(bulk_req) or not fast_mc.enqueue(fast_req):
            raise RuntimeError("CWF write enqueue failed after capacity check")
        self.stats.writes += 1
        return True

    # ------------------------------------------------------------------
    # Roll-ups
    # ------------------------------------------------------------------

    def chip_groups(self) -> List[ChipGroup]:
        config = self.config
        return [
            (f"bulk:{config.bulk_device.kind.value}", self.bulk_controllers,
             config.bulk_devices_per_rank),
            (f"fast:{config.fast_device.kind.value}", self.fast_controllers,
             1),
        ]

    # Protocol overrides: the bulk side carries the line fill, so the
    # bus and queue/core views report bulk controllers only (the fast
    # channel's shallow queues would dilute the Fig 1b comparison).

    def bus_utilization(self, elapsed_cycles: int) -> float:
        return mean_bus_utilization(self.bulk_controllers, elapsed_cycles)

    def avg_queue_latency(self) -> float:
        return per_read_mean(self.bulk_controllers, "sum_queue_latency")

    def avg_core_latency(self) -> float:
        return per_read_mean(self.bulk_controllers, "sum_core_latency")

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info.update({
            "organisation": "critical-word-first",
            "pair": self.config.pair.value,
            "policy": self.config.policy.value,
            "fast_device": self.config.fast_device.part_number,
            "bulk_device": self.config.bulk_device.part_number,
            "num_bulk_channels": self.config.num_bulk_channels,
            "shared_command_bus": self.config.shared_command_bus,
        })
        return info
