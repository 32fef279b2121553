"""DRAM protocol sanitizer: clean real runs, tripped broken ones.

Two halves:

* The golden 6-cell kernel matrix (the PR-7 equivalence fixture) runs
  under ``REPRO_SANITIZE=1`` and must produce **zero** violations and
  SimResults byte-identical to ``tests/data/golden_kernel.json`` — the
  sanitizer observes, it never perturbs.
* A deliberately broken "toy controller" — the sanitizer's ``note_*``
  API driven directly with illegal command sequences — must trip every
  violation class in the catalogue (DESIGN.md §11), one rule per
  scenario, with no collateral reports.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.dram.channel import Channel
from repro.dram.controller import ControllerConfig, MemoryController
from repro.dram.device import DDR3_DEVICE, RLDRAM3_DEVICE
from repro.dram.timing import DDR3_TIMING, RLDRAM3_TIMING, TimingSet
from repro.sanitizer import (
    MODE_COLLECT,
    MODE_OFF,
    MODE_STRICT,
    ControllerSanitizer,
    ProtocolViolation,
    SanitizerError,
    SanitizerReport,
    UncoreSanitizer,
    global_report,
    reset_global_report,
    sanitize_mode,
)
from repro.sanitizer.violations import MAX_STORED
from repro.sim.config import SimConfig
from repro.sim.system import run_benchmark
from repro.util.events import EventQueue

DDR3 = TimingSet(DDR3_TIMING)
RLD = TimingSet(RLDRAM3_TIMING)

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_kernel.json"
with GOLDEN_PATH.open() as _handle:
    GOLDEN = json.load(_handle)


# ---------------------------------------------------------------------------
# Golden matrix under the sanitizer: zero violations, byte-identical
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cell", sorted(GOLDEN["results"]))
def test_sanitized_golden_cell_clean_and_identical(cell, monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    report = reset_global_report()
    try:
        benchmark, memory = cell.split("/")
        config = SimConfig(memory=memory,
                           target_dram_reads=GOLDEN["target_dram_reads"])
        result = run_benchmark(benchmark, config)
        assert report.clean, (
            f"{cell}: sanitizer flagged a real run as illegal: "
            f"{report.summary()}; first: "
            f"{[v.describe() for v in report.violations[:4]]}")
        mismatches = {
            field: (getattr(result, field), expected)
            for field, expected in GOLDEN["results"][cell].items()
            if getattr(result, field) != expected
        }
        assert not mismatches, (
            f"{cell}: sanitized run diverged from golden "
            f"(the sanitizer must never perturb results): {mismatches}")
    finally:
        reset_global_report()


def test_sanitizer_off_attaches_nothing():
    from repro.sim.system import SimulationSystem

    system = SimulationSystem(SimConfig(target_dram_reads=50), [[], []])
    assert system._san_report is None
    assert system.uncore._san is None


def test_sweep_controller_queue_sanitizes_simulated_controllers(
        monkeypatch):
    """A hand-built memory is the one the sanitizer binds to: every
    controller the ``sweep_controller_queue`` runner ticks is checked."""
    from repro.sweep import run_point

    ticked = set()
    tick = MemoryController._tick

    def recording_tick(self):
        ticked.add(self)
        tick(self)

    monkeypatch.setattr(MemoryController, "_tick", recording_tick)
    monkeypatch.setenv("REPRO_SANITIZE", "collect")
    report = reset_global_report()
    try:
        run_point("mcf", SimConfig(target_dram_reads=200),
                  "read_queue_size", 16)
        assert ticked
        assert all(mc._san is not None for mc in ticked), (
            "controllers ticked without a sanitizer: "
            f"{sorted(mc.name for mc in ticked if mc._san is None)}")
        assert all(mc.config.read_queue_size == 16 for mc in ticked)
        assert report.clean, report.summary()
    finally:
        reset_global_report()


def test_two_rank_lpddr2_powerdown_strict_clean(monkeypatch):
    """Multi-rank aggressive power-down, which no shipped organisation
    runs: strict sanitizing must see zero violations and real sleeps."""
    from repro.dram.device import DRAMKind
    from repro.memsys.homogeneous import HomogeneousConfig, HomogeneousMemory
    from repro.sim.system import SimulationSystem, make_traces, prewarm_l2
    from repro.workloads.profiles import profile_for

    monkeypatch.setenv("REPRO_SANITIZE", "strict")
    report = reset_global_report()
    try:
        config = SimConfig(memory="lpddr2", target_dram_reads=1500)
        profile = profile_for("mcf")
        system = SimulationSystem(
            config, make_traces(profile, config), profile=profile,
            memory_builder=lambda events: HomogeneousMemory(
                events, HomogeneousConfig(kind=DRAMKind.LPDDR2,
                                          ranks_per_channel=2),
                controller_config=ControllerConfig(
                    aggressive_powerdown=True)))
        prewarm_l2(system, profile)
        system.run()
        controllers = system.memory.controllers
        assert all(mc._san is not None for mc in controllers)
        assert all(len(mc.ranks) == 2 for mc in controllers)
        assert report.clean, report.summary()
        assert sum(rank.power_down_entries
                   for mc in controllers for rank in mc.ranks) >= 1
    finally:
        reset_global_report()


# ---------------------------------------------------------------------------
# Mode parsing
# ---------------------------------------------------------------------------


def test_sanitize_mode_parsing():
    for off in ("", "0", "off", "false", "no", "none", "OFF"):
        assert sanitize_mode(off) == MODE_OFF
    for strict in ("2", "strict", "raise", "STRICT"):
        assert sanitize_mode(strict) == MODE_STRICT
    for collect in ("1", "on", "collect", "yes"):
        assert sanitize_mode(collect) == MODE_COLLECT


def test_sanitize_mode_reads_environment(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert sanitize_mode() == MODE_OFF
    monkeypatch.setenv("REPRO_SANITIZE", "strict")
    assert sanitize_mode() == MODE_STRICT


# ---------------------------------------------------------------------------
# The broken toy controller: every rule in the catalogue, in isolation
# ---------------------------------------------------------------------------


def _sanitizer(device=DDR3_DEVICE, timing=DDR3, num_ranks=1):
    """A ControllerSanitizer over a real controller, with a fresh report."""
    events = EventQueue()
    channel = Channel(timing, num_data_buses=1, cmd_slots_per_cycle=1)
    mc = MemoryController(device=device, timing=timing, channel=channel,
                          num_ranks=num_ranks, events=events,
                          config=ControllerConfig(refresh_enabled=False))
    report = SanitizerReport()
    return ControllerSanitizer(mc, report), report


def _read(san, now, rank, bank, row):
    """A perfectly legal READ CAS notification."""
    start = now + san.t_rl
    san.note_cas(now, rank, bank, row, True, start, start + san.t_burst)


class TestBankRules:
    def test_act_on_active(self):
        san, report = _sanitizer()
        san.note_act(0, 0, 0, row=1)
        san.note_act(20, 0, 0, row=2)
        assert report.counts == {"bank.act_on_active": 1}

    def test_act_timing(self):
        san, report = _sanitizer()
        san.note_act(0, 0, 0, row=1)
        san.note_pre(DDR3.t_ras, 0, 0)          # legal, right at tRAS
        san.note_act(DDR3.t_rc - 20, 0, 0, row=2)  # inside the tRC window
        assert report.counts == {"bank.act_timing": 1}

    def test_act_in_refresh(self):
        san, report = _sanitizer()
        san.note_refresh(0, 0, until=500)
        san.note_act(100, 0, 0, row=1)          # refresh holds until 500
        assert report.counts == {"bank.act_in_refresh": 1}

    def test_cas_on_idle(self):
        san, report = _sanitizer()
        _read(san, 0, 0, 0, row=0)
        assert report.counts == {"bank.cas_on_idle": 1}

    def test_cas_row_mismatch(self):
        san, report = _sanitizer()
        san.note_act(0, 0, 0, row=1)
        _read(san, DDR3.t_rcd, 0, 0, row=2)
        assert report.counts == {"bank.cas_row_mismatch": 1}

    def test_cas_timing(self):
        san, report = _sanitizer()
        san.note_act(0, 0, 0, row=1)
        _read(san, DDR3.t_rcd - 24, 0, 0, row=1)  # before tRCD elapses
        assert report.counts == {"bank.cas_timing": 1}

    def test_pre_on_idle(self):
        san, report = _sanitizer()
        san.note_pre(0, 0, 0)
        assert report.counts == {"bank.pre_on_idle": 1}

    def test_pre_timing(self):
        san, report = _sanitizer()
        san.note_act(0, 0, 0, row=1)
        san.note_pre(DDR3.t_ras - 19, 0, 0)     # before tRAS elapses
        assert report.counts == {"bank.pre_timing": 1}

    def test_housekeeping_pre_skips_scheduled_checks(self):
        """Off-bus precharges check only bank-level PRE legality."""
        san, report = _sanitizer()
        san.note_act(0, 0, 0, row=1)
        san.note_pre(DDR3.t_ras, 0, 0, scheduled=False)
        assert report.clean

    def test_access_busy_close_page(self):
        san, report = _sanitizer(device=RLDRAM3_DEVICE, timing=RLD)
        latency = RLD.t_rcd + RLD.t_rl
        san.note_access(0, 0, 0, False, latency, latency + RLD.t_burst)
        san.note_access(20, 0, 0, False,
                        20 + latency, 20 + latency + RLD.t_burst)
        assert report.counts == {"bank.access_busy": 1}


class TestRankRules:
    def test_trrd(self):
        san, report = _sanitizer()
        san.note_act(0, 0, 0, row=0)
        san.note_act(8, 0, 1, row=0)            # tRRD=20 not elapsed
        assert report.counts == {"rank.trrd": 1}

    def test_tfaw_sliding_window(self):
        san, report = _sanitizer()
        for i in range(4):                       # legal: tRRD-spaced
            san.note_act(i * DDR3.t_rrd, 0, i, row=0)
        assert report.clean
        san.note_act(4 * DDR3.t_rrd, 0, 4, row=0)  # 5th ACT inside tFAW
        assert report.counts == {"rank.tfaw": 1}

    def test_cmd_powered_down(self):
        san, report = _sanitizer()
        san.note_power_down(0, 0)
        san.note_act(20, 0, 0, row=0)
        assert report.counts == {"rank.cmd_powered_down": 1}

    def test_cmd_before_wake(self):
        san, report = _sanitizer()
        san.note_power_down(0, 0)
        san.note_wake(20, 0, ready_at=100)
        san.note_act(40, 0, 0, row=0)           # exit not complete
        assert report.counts == {"rank.cmd_before_wake": 1}

    def test_power_down_open_banks(self):
        san, report = _sanitizer()
        san.note_act(0, 0, 0, row=0)
        san.note_power_down(200, 0)
        assert report.counts == {"rank.power_down_open_banks": 1}

    def test_power_down_redundant(self):
        san, report = _sanitizer()
        san.note_power_down(0, 0)
        san.note_power_down(20, 0)
        assert report.counts == {"rank.power_down_redundant": 1}

    def test_wake_not_powered_down(self):
        san, report = _sanitizer()
        san.note_wake(0, 0, ready_at=10)
        assert report.counts == {"rank.wake_not_powered_down": 1}

    def test_refresh_open_banks(self):
        san, report = _sanitizer()
        san.note_act(0, 0, 0, row=0)
        san.note_refresh(200, 0, until=500)
        assert report.counts == {"rank.refresh_open_banks": 1}

    def test_legal_powerdown_cycle_is_clean(self):
        san, report = _sanitizer()
        san.note_power_down(0, 0)
        san.note_wake(100, 0, ready_at=120)
        san.note_act(120, 0, 0, row=3)
        _read(san, 120 + DDR3.t_rcd, 0, 0, row=3)
        assert report.clean


class TestBusRules:
    def test_data_latency(self):
        san, report = _sanitizer()
        san.note_act(0, 0, 0, row=0)
        start = DDR3.t_rcd + DDR3.t_rl + 12      # 12 cycles late
        san.note_cas(DDR3.t_rcd, 0, 0, 0, True, start, start + DDR3.t_burst)
        assert report.counts == {"bus.data_latency": 1}

    def test_data_conflict_two_ranks(self):
        """Overlapping bursts from two ranks on one bus (missing tRTRS)."""
        san, report = _sanitizer(num_ranks=2)
        san.note_act(0, 0, 0, row=0)
        san.note_act(8, 1, 0, row=0)
        _read(san, DDR3.t_rcd, 0, 0, row=0)      # burst [88, 104)
        _read(san, DDR3.t_rcd + 8, 1, 0, row=0)  # burst [96, 112): overlap
        assert report.counts == {"bus.data_conflict": 1}

    def test_data_burst_length(self):
        san, report = _sanitizer()
        san.note_act(0, 0, 0, row=0)
        start = DDR3.t_rcd + DDR3.t_rl
        san.note_cas(DDR3.t_rcd, 0, 0, 0, True, start,
                     start + DDR3.t_burst - 4)   # short burst
        assert report.counts == {"bus.data_burst": 1}

    def test_cmd_overflow(self):
        san, report = _sanitizer(num_ranks=2)
        san.note_act(0, 0, 0, row=0)
        san.note_act(2, 1, 0, row=0)             # same bus cycle (4 cycles)
        assert report.counts == {"bus.cmd_overflow": 1}


class TestUncoreRules:
    def test_read_double_issue(self):
        report = SanitizerReport()
        san = UncoreSanitizer(report)
        san.note_read_issued(0x40, 10)
        san.note_read_issued(0x40, 20)
        assert report.counts == {"uncore.read_double_issue": 1}

    def test_read_orphan_retire(self):
        report = SanitizerReport()
        san = UncoreSanitizer(report)
        san.note_read_retired(0x80, 30)
        assert report.counts == {"uncore.read_orphan_retire": 1}

    def test_read_unretired_only_when_drained(self):
        report = SanitizerReport()
        san = UncoreSanitizer(report)
        san.note_read_issued(0x40, 10)
        san.note_read_issued(0x80, 12)
        san.note_read_retired(0x40, 200)
        san.finalize(1000, queue_drained=False)  # abandoned fills are fine
        assert report.clean
        san.finalize(1000, queue_drained=True)
        assert report.counts == {"uncore.read_unretired": 1}


# ---------------------------------------------------------------------------
# Report machinery
# ---------------------------------------------------------------------------


def test_strict_mode_raises_on_first_violation():
    san, report = _sanitizer()
    report.strict = True
    with pytest.raises(SanitizerError) as excinfo:
        san.note_pre(0, 0, 0)
    assert excinfo.value.violation.rule == "bank.pre_on_idle"
    assert report.total == 1


def test_report_caps_stored_records_not_counts():
    report = SanitizerReport()
    for i in range(MAX_STORED + 44):
        report.record(ProtocolViolation(rule="bank.pre_on_idle", time=i,
                                        source="toy"))
    assert report.total == MAX_STORED + 44
    assert len(report.violations) == MAX_STORED
    assert report.counts["bank.pre_on_idle"] == MAX_STORED + 44


def test_report_merge_and_summary():
    report = SanitizerReport()
    report.merge({"rank.trrd": 2, "bus.cmd_overflow": 1})
    report.merge({"rank.trrd": 1})
    assert report.total == 4
    assert report.summary() == {
        "total": 4,
        "by_rule": {"bus.cmd_overflow": 1, "rank.trrd": 3},
        "stored": 0,
    }


def test_violation_describe_and_to_dict():
    violation = ProtocolViolation(
        rule="bank.cas_timing", time=42, source="mc0", rank=1, bank=3,
        command="READ row=7", conflict="ACT@30", detail="x")
    text = violation.describe()
    assert "[bank.cas_timing]" in text and "mc0/rank1/bank3" in text
    assert violation.to_dict()["rule"] == "bank.cas_timing"


def test_reset_global_report_installs_fresh():
    first = reset_global_report()
    first.record(ProtocolViolation(rule="r", time=0, source="s"))
    second = reset_global_report(strict=True)
    assert global_report() is second
    assert second.clean and second.strict
    reset_global_report()
