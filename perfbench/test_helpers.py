"""Tests for the benchmark's own helpers.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

import json
import re
from pathlib import Path

import pytest

import hostspeed
import outputs
import stats
import tracer as tracing

HERE = Path(__file__).resolve().parent


# -- tail-percentile rule ------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("q, needed", [(99.0, 1000), (90.0, 100),
                                       (95.0, 200), (75.0, 40)])
def test_tail_needs_ten_samples_beyond(q, needed):
    assert stats.samples_needed(q) == needed
    assert stats.tail_supported(needed, q)
    assert not stats.tail_supported(needed - 1, q)
    assert stats.samples_beyond(needed, q) >= stats.MIN_BEYOND_TAIL


# -- schedule lateness ---------------------------------------------------


def test_schedule_records_lateness_against_due_times():
    schedule = stats.Schedule(rate_per_s=10.0, start=100.0)
    assert schedule.due(0) == 100.0
    assert schedule.due(5) == pytest.approx(100.5)
    assert schedule.sent(0, 99.9) == 0.0          # early is not negative
    assert schedule.sent(1, 100.4) == pytest.approx(0.3)
    for index in range(2, 100):
        schedule.sent(index, schedule.due(index))
    # 100 samples support p90, not p99; one stall shows in neither.
    assert schedule.late_p90() == 0.0
    schedule.late.extend([1.0] * 20)
    assert schedule.late_p90() == 1.0
    assert stats.Schedule(1.0, 0.0).late_p90() == 0.0
    with pytest.raises(ValueError):
        stats.Schedule(0.0, 0.0)


# -- failure counting ----------------------------------------------------


def test_tally_counts_failures_against_attempts():
    tally = stats.Tally()
    for _ in range(3):
        tally.ok()
    assert tally.check(True, "fine")
    assert not tally.check(False, "row differs")
    tally.fail("429")
    assert (tally.attempted, tally.failed) == (6, 2)
    assert tally.error_rate == pytest.approx(2 / 6)
    assert tally.reasons == ["row differs", "429"]
    assert stats.Tally().error_rate == 0.0


def test_check_records_counts_each_mismatch():
    tally = stats.Tally()
    want = {"a": {"x": 1, "y": [1.5]}, "b": {"x": 2}}
    outputs.check_records(tally, {"a": {"x": 1, "y": [1.5]},
                                  "b": {"x": 3}}, want, "cell")
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "['x']" in tally.reasons[0]
    outputs.check_records(tally, {"a": want["a"]}, want, "cell")
    assert tally.failed == 2  # "b" was not produced
    outputs.check_records(tally, {}, None, "cell")
    assert tally.failed == 3  # no reference for the seed


# -- metric names --------------------------------------------------------


@pytest.mark.parametrize("name", ["setup_s", "sim.build_s", "p99", "a-b.c_d",
                                  "x" * 64])
def test_valid_names(name):
    assert stats.valid_name(name)


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "has space",
                                  "semi;colon", "x" * 65, None, 3])
def test_invalid_names(name):
    assert not stats.valid_name(name)


def test_check_names_rejects_repeats():
    stats.check_names(["a", "b"])
    with pytest.raises(ValueError):
        stats.check_names(["a", "a"])
    with pytest.raises(ValueError):
        stats.check_names(["ok", "not ok"])


def test_benchmark_json_matches_metric_map():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metric_map = json.loads((HERE / "metrics.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(
        metric_map["workloads"])
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: m for m in bench[section]}
        assert list(declared) == list(metric_map[section])
        stats.check_names(declared)
        for name, entry in declared.items():
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"])
            assert entry["unit"] == metric_map[section][name]["unit"]
            if section == "end_to_end":
                assert entry["better"] == metric_map[section][name]["better"]
                assert 0 < entry["bound"] <= 0.25


# -- host-speed scale ---------------------------------------------------


def test_reference_scale_divides_by_the_probe_slowdown():
    ref = hostspeed.REFERENCE_PROBE_S
    assert hostspeed.factor([ref, ref]) == pytest.approx(1.0)
    assert hostspeed.factor([ref, 3 * ref]) == pytest.approx(2.0)
    assert hostspeed.at_reference(4.0, [2 * ref]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        hostspeed.factor([])


def test_probe_process_answers_and_stops():
    with hostspeed.Probe() as probe:
        assert probe() > 0 and probe() > 0
        proc = probe.proc
    assert proc.returncode == 0 and probe.proc is None


# -- tracer and model figures --------------------------------------------


def test_nested_spans_subtract_child_time(monkeypatch):
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    monkeypatch.setattr(tracing, "_clock", lambda: next(ticks))
    tr = tracing.Tracer()
    inner = tr.wrap("inner", lambda: None)
    outer = tr.wrap("outer", inner)
    outer()
    assert tr.incl_s["outer"] == 10.0 and tr.incl_s["inner"] == 2.0
    assert tr.self_s["outer"] == 8.0 and tr.self_s["inner"] == 2.0
    assert tr.calls == {"outer": 1, "inner": 1}


def test_owner_bucket_uses_longest_prefix():
    assert tracing.owner_bucket("repro.cpu.core") == "cpu.core"
    assert tracing.owner_bucket("repro.cpu.uncore") == "cpu.uncore"
    assert tracing.owner_bucket("repro.dram.controller") == "dram"
    assert tracing.owner_bucket("repro.dramx") == "other"
    assert tracing.owner_bucket(None) == "other"


def test_model_metrics():
    def rec(memory, bench, ipc, critical, reads):
        return {"memory": memory, "benchmark": bench, "per_core_ipc": ipc,
                "avg_critical_latency": critical, "demand_reads": reads}
    got = outputs.model_metrics([
        rec("ddr3", "mcf", [1.0, 1.0], 150.0, 10),
        rec("rl", "mcf", [1.5, 1.5], 100.0, 10),
        rec("ddr3", "lbm", [1.0], 150.0, 10),
        rec("rl", "lbm", [0.5], 200.0, 30),
        rec("rl", "astar", [9.0], 1.0, 1000),  # no ddr3 pair: ignored
        rec("hmc_cwf", "mcf", [9.0], 1.0, 1000),
    ])
    assert got["model_rl_speedup"] == pytest.approx(3.5 / 3.0)
    assert got["model_rl_critical_cycles"] == pytest.approx(175.0)
    with pytest.raises(ValueError):
        outputs.model_metrics([rec("ddr3", "mcf", [1.0], 1.0, 1)])


def test_sim_seed_stays_in_reference_pool():
    seeds = {outputs.sim_seed(s) for s in range(100)}
    assert seeds == set(range(outputs.SIM_SEED_BASE,
                              outputs.SIM_SEED_BASE + outputs.SIM_SEED_POOL))
