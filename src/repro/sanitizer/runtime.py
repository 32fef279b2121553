"""Runtime sanitizers: the note_* observers wired into the hot path.

``ControllerSanitizer`` receives every DRAM command a
:class:`~repro.dram.controller.MemoryController` issues and replays it
against the shadow protocol model (:mod:`repro.sanitizer.shadow`).
``UncoreSanitizer`` checks read conservation at the MSHR boundary:
every DRAM read issued by the uncore retires exactly once.

Both are attached only to a system whose run is sanitized
(:meth:`~repro.sim.system.SimulationSystem.attach_sanitizer`, which
``ExperimentConfig.sanitize`` drives); an un-instrumented run pays one
``is None`` check per hook site and nothing else.

Command notifications come in two flavours:

* *scheduled* commands went through the controller's command-bus
  arbitration (ACT, CAS, fused ACCESS, scheduler-issued PRE) — they
  consume a shadow command-bus slot and require the rank awake;
* *housekeeping* precharges (refresh pre-close, idle row close before
  power-down) are modelled off the command bus by the controller, so
  the shadow checks only bank-level PRE legality for them.
"""

from __future__ import annotations

from typing import Dict, List

from repro.dram.timing import TimingSet
from repro.sanitizer.shadow import (
    ShadowBank,
    ShadowCmdBus,
    ShadowDataBus,
    ShadowRank,
)
from repro.sanitizer.violations import ProtocolViolation, SanitizerReport

MODE_OFF = 0
MODE_COLLECT = 1
MODE_STRICT = 2

#: The spellings of a yes/no knob; the sanitizer's mode accepts them too.
ON_WORDS = ("1", "on", "true", "yes")
OFF_WORDS = ("0", "off", "false", "no")

_MODE_WORDS = {
    **dict.fromkeys(OFF_WORDS + ("", "none"), MODE_OFF),
    **dict.fromkeys(ON_WORDS + ("collect",), MODE_COLLECT),
    **dict.fromkeys(("2", "strict", "raise"), MODE_STRICT),
}


def parse_switch(text: str) -> bool:
    """A yes/no knob: one of :data:`ON_WORDS` or :data:`OFF_WORDS`."""
    word = text.strip().lower()
    if word not in ON_WORDS + OFF_WORDS:
        raise ValueError(f"must be one of {'/'.join(ON_WORDS)} or "
                         f"{'/'.join(OFF_WORDS)}, got {text!r}")
    return word in ON_WORDS


def sanitize_mode(text: str) -> int:
    """A sanitizer setting's mode: off, collect (record every violation)
    or strict (raise on the first one)."""
    try:
        return _MODE_WORDS[text.strip().lower()]
    except KeyError:
        raise ValueError(
            "must be off (0/off/none), collect (1/on/collect) or strict "
            f"(2/strict/raise), got {text!r}") from None


class ControllerSanitizer:
    """Shadow FSM/timing checker for one memory controller."""

    __slots__ = ("report", "name", "ranks", "cmd", "buses", "rank_bus",
                 "close_page", "t_rl", "t_wl", "t_burst",
                 "_access_read_latency", "_access_write_latency")

    def __init__(self, controller, report: SanitizerReport) -> None:
        timing: TimingSet = controller.timing
        device = controller.device
        self.report = report
        self.name = controller.name
        self.ranks: List[ShadowRank] = [
            ShadowRank(timing, device.num_banks, i)
            for i in range(len(controller.ranks))
        ]
        self.cmd = ShadowCmdBus(timing, controller.channel.cmd_bus.slots_per_cycle)
        self.buses: List[ShadowDataBus] = [
            ShadowDataBus(timing) for _ in controller.channel.data_buses
        ]
        self.rank_bus: List[int] = [
            controller.rank_to_bus[i] for i in range(len(controller.ranks))
        ]
        self.close_page = bool(controller._close_page)
        self.t_rl = timing.t_rl
        self.t_wl = timing.t_wl
        self.t_burst = timing.t_burst
        self._access_read_latency = timing.t_rcd + timing.t_rl
        self._access_write_latency = timing.t_rcd + timing.t_wl

    # ------------------------------------------------------------------

    def _flag(self, rule: str, now: int, rank: int, bank: int,
              command: str, conflict: str, detail: str = "") -> None:
        self.report.record(ProtocolViolation(
            rule=rule, time=now, source=self.name, rank=rank, bank=bank,
            command=command, conflict=conflict, detail=detail))

    def _check(self, check, now: int, rank: int, bank: int,
               command: str) -> None:
        if check is not None:
            rule, conflict = check
            self._flag(rule, now, rank, bank, command, conflict)

    def _scheduled(self, now: int, rank: int, bank: int,
                   command: str) -> None:
        """Checks every arbitrated command shares: cmd slot + rank awake."""
        self._check(self.cmd.take_slot(now), now, rank, bank, command)
        self._check(self.ranks[rank].check_available(now), now, rank, bank,
                    command)

    # ------------------------------------------------------------------
    # note_* API, called by the controller under ``_san is not None``
    # ------------------------------------------------------------------

    def note_wake(self, now: int, rank: int, ready_at: int) -> None:
        shadow = self.ranks[rank]
        if not shadow.powered_down:
            self._flag("rank.wake_not_powered_down", now, rank, -1,
                       "WAKE", f"rank awake since wake@{shadow.wake_time}")
        shadow.apply_wake(now, ready_at)

    def note_act(self, now: int, rank: int, bank: int, row: int) -> None:
        command = f"ACT row={row}"
        self._scheduled(now, rank, bank, command)
        shadow_rank = self.ranks[rank]
        self._check(shadow_rank.check_act_spacing(now), now, rank, bank,
                    command)
        shadow_bank = shadow_rank.banks[bank]
        self._check(shadow_bank.check_activate(now), now, rank, bank, command)
        shadow_bank.apply_activate(now, row)
        shadow_rank.apply_act(now)

    def note_pre(self, now: int, rank: int, bank: int,
                 scheduled: bool = True) -> None:
        command = "PRE" if scheduled else "PRE(housekeeping)"
        if scheduled:
            self._scheduled(now, rank, bank, command)
        shadow_bank = self.ranks[rank].banks[bank]
        self._check(shadow_bank.check_precharge(now), now, rank, bank,
                    command)
        shadow_bank.apply_precharge(now)

    def note_cas(self, now: int, rank: int, bank: int, row: int,
                 is_read: bool, data_start: int, end: int) -> None:
        command = (f"READ row={row}" if is_read else f"WRITE row={row}")
        self._scheduled(now, rank, bank, command)
        shadow_bank = self.ranks[rank].banks[bank]
        self._check(shadow_bank.check_cas(now, row, is_read), now, rank,
                    bank, command)
        expected = now + (self.t_rl if is_read else self.t_wl)
        self._data_burst(now, rank, bank, command, is_read,
                         expected, data_start, end)
        shadow_bank.apply_cas(now, is_read)

    def note_access(self, now: int, rank: int, bank: int, is_write: bool,
                    data_start: int, end: int) -> None:
        command = "ACCESS(write)" if is_write else "ACCESS(read)"
        self._scheduled(now, rank, bank, command)
        shadow_rank = self.ranks[rank]
        self._check(shadow_rank.check_act_spacing(now), now, rank, bank,
                    command)
        shadow_bank = shadow_rank.banks[bank]
        self._check(shadow_bank.check_access(now), now, rank, bank, command)
        expected = now + (self._access_write_latency if is_write
                          else self._access_read_latency)
        self._data_burst(now, rank, bank, command, not is_write,
                         expected, data_start, end)
        shadow_bank.apply_access(now)
        shadow_rank.apply_act(now)

    def note_refresh(self, now: int, rank: int, until: int) -> None:
        shadow = self.ranks[rank]
        if now < shadow.wake_time:
            self._flag("rank.cmd_before_wake", now, rank, -1, "REF",
                       f"power-down exit completes at {shadow.wake_time}")
        open_banks = shadow.open_bank_count()
        if open_banks:
            self._flag("rank.refresh_open_banks", now, rank, -1, "REF",
                       f"{open_banks} shadow bank(s) still active")
        # Refresh reaches a sleeping rank directly (the timer must be
        # honoured); it leaves the rank awake, like the real model.
        shadow.powered_down = False
        for bank in shadow.banks:
            bank.apply_refresh(now, until)

    def note_power_down(self, now: int, rank: int) -> None:
        shadow = self.ranks[rank]
        if shadow.powered_down:
            self._flag("rank.power_down_redundant", now, rank, -1,
                       "PDE", f"already asleep since {shadow.last_power_down}")
        open_banks = shadow.open_bank_count()
        if open_banks:
            self._flag("rank.power_down_open_banks", now, rank, -1, "PDE",
                       f"{open_banks} shadow bank(s) still active")
        shadow.powered_down = True
        shadow.last_power_down = now

    # ------------------------------------------------------------------

    def _data_burst(self, now: int, rank: int, bank: int, command: str,
                    is_read: bool, expected_start: int, data_start: int,
                    end: int) -> None:
        """Data-path checks: CAS latency, single-driver bus, burst length."""
        if data_start != expected_start:
            self._flag("bus.data_latency", now, rank, bank, command,
                       f"CAS latency puts data at {expected_start}",
                       detail=f"data_start={data_start}")
        bus = self.buses[self.rank_bus[rank]]
        legal = bus.earliest_start(data_start, is_read, rank)
        if legal != data_start:
            self._flag("bus.data_conflict", now, rank, bank, command,
                       bus.describe_last(),
                       detail=f"burst at {data_start}, legal from {legal}")
        if end != data_start + self.t_burst:
            self._flag("bus.data_burst", now, rank, bank, command,
                       f"tBURST={self.t_burst}",
                       detail=f"burst spans [{data_start}, {end})")
        bus.apply(data_start, end, is_read, rank)


class UncoreSanitizer:
    """Read-conservation checker: each issued DRAM read retires once."""

    __slots__ = ("report", "outstanding")

    def __init__(self, report: SanitizerReport) -> None:
        self.report = report
        self.outstanding: Dict[int, int] = {}

    def note_read_issued(self, line: int, now: int) -> None:
        prior = self.outstanding.get(line)
        if prior is not None:
            self.report.record(ProtocolViolation(
                rule="uncore.read_double_issue", time=now, source="uncore",
                command=f"read line={line:#x}",
                conflict=f"read of the same line issued at {prior}, "
                         f"still outstanding"))
        self.outstanding[line] = now

    def note_read_retired(self, line: int, time: int) -> None:
        if self.outstanding.pop(line, None) is None:
            self.report.record(ProtocolViolation(
                rule="uncore.read_orphan_retire", time=time, source="uncore",
                command=f"retire line={line:#x}",
                conflict="no outstanding read for this line"))

    def finalize(self, now: int, queue_drained: bool) -> None:
        """End-of-run conservation check.

        Only meaningful when the event queue fully drained: a run that
        stops the moment the last core finishes legitimately abandons
        in-flight fills (e.g. tail prefetches).
        """
        if not queue_drained:
            return
        for line, issued in sorted(self.outstanding.items())[:16]:
            self.report.record(ProtocolViolation(
                rule="uncore.read_unretired", time=now, source="uncore",
                command=f"read line={line:#x}",
                conflict=f"issued at {issued}, never retired"))


def attach_sanitizers(memory, uncore, report: SanitizerReport):
    """Instrument every conventional controller plus the uncore.

    Returns ``(controller_sanitizers, uncore_sanitizer)``. Controllers
    are discovered through the memory system's telemetry protocol, so
    every registered organisation (homogeneous, CWF, page placement,
    HMC) is covered without organisation-specific wiring.
    """
    from repro.dram.controller import MemoryController

    controller_sans: List[ControllerSanitizer] = []
    for mc in memory.telemetry_controllers():
        if isinstance(mc, MemoryController):
            san = ControllerSanitizer(mc, report)
            mc._san = san
            controller_sans.append(san)
    uncore_san = UncoreSanitizer(report)
    uncore._san = uncore_san
    return controller_sans, uncore_san
