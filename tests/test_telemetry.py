"""Telemetry subsystem: registry, histograms, tracing, sampling, export."""

import json
import sys
import threading

import pytest

from repro.experiments.runner import ExperimentConfig, ResultCache
from repro.sim.config import SimConfig
from repro.sim.system import (
    SimulationSystem,
    make_traces,
    run_benchmark,
    simulate_benchmark,
)
from repro.telemetry import (
    ChromeTracer,
    Counter,
    Counters,
    Histogram,
    MetricsRegistry,
    Sampler,
    TelemetrySession,
    activate,
    deactivate,
    run_manifest,
    validate_trace,
)
from repro.util.events import EventQueue
from repro.workloads.profiles import profile_for


def tiny_config(memory="ddr3", reads=120):
    return SimConfig(memory=memory, target_dram_reads=reads)


# ---------------------------------------------------------------------------
# Histogram percentile math
# ---------------------------------------------------------------------------

class TestHistogram:
    def test_exact_aggregates(self):
        h = Histogram("t")
        for v in (1, 2, 3, 4, 100):
            h.observe(v)
        assert h.count == 5
        assert h.sum == 110
        assert h.mean == pytest.approx(22.0)
        assert h.min == 1 and h.max == 100

    def test_empty(self):
        h = Histogram("t")
        assert h.mean == 0.0
        assert h.percentile(50) == 0.0
        snap = h.snapshot()
        assert snap["count"] == 0 and snap["buckets"] == {}

    def test_single_value_percentiles(self):
        h = Histogram("t")
        h.observe(37)
        for p in (50, 95, 99):
            assert h.percentile(p) == pytest.approx(37.0)

    def test_percentiles_bracket_the_data(self):
        h = Histogram("t")
        for v in range(1, 1001):
            h.observe(v)
        p50, p95, p99 = (h.percentile(p) for p in (50, 95, 99))
        assert p50 <= p95 <= p99 <= h.max
        # log2 buckets: percentile is right to within its bucket width.
        assert 256 <= p50 <= 1000   # rank-500 sample lives in [512,1023]
        assert p99 > p50

    def test_percentile_monotone_in_p(self):
        h = Histogram("t")
        for v in (5, 5, 5, 900, 901, 902):
            h.observe(v)
        assert h.percentile(10) <= h.percentile(50) <= h.percentile(99)

    def test_negative_clamped_and_zero_bucketed(self):
        h = Histogram("t")
        h.observe(-5)
        h.observe(0)
        assert h.count == 2 and h.sum == 0
        assert h.buckets[0] == 2

    def test_bucket_bounds(self):
        assert Histogram.bucket_bounds(0) == (0, 0)
        assert Histogram.bucket_bounds(1) == (1, 1)
        assert Histogram.bucket_bounds(4) == (8, 15)

    def test_snapshot_has_percentile_keys(self):
        h = Histogram("t")
        h.observe(10)
        snap = h.snapshot()
        assert {"p50", "p95", "p99", "mean", "count", "sum"} <= set(snap)


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_same_name_same_type_returns_same_object(self):
        r = MetricsRegistry()
        assert r.counter("a.b") is r.counter("a.b")

    def test_name_collision_across_types_raises(self):
        r = MetricsRegistry()
        r.counter("dram.ch0.acts")
        with pytest.raises(ValueError, match="already registered"):
            r.gauge("dram.ch0.acts")
        with pytest.raises(ValueError):
            r.histogram("dram.ch0.acts")

    def test_hierarchical_prefix_queries(self):
        r = MetricsRegistry()
        r.counter("dram.ch0.acts")
        r.counter("dram.ch1.acts")
        r.gauge("core0.ipc")
        assert r.names("dram.") == ["dram.ch0.acts", "dram.ch1.acts"]
        assert set(r.snapshot("core0.")) == {"core0.ipc"}

    def test_snapshot_values(self):
        r = MetricsRegistry()
        r.counter("c").inc(3)
        r.gauge("g").set(1.5)
        snap = r.snapshot()
        assert snap["c"] == {"type": "counter", "value": 3}
        assert snap["g"] == {"type": "gauge", "value": 1.5}


# ---------------------------------------------------------------------------
# Chrome trace
# ---------------------------------------------------------------------------

class TestTrace:
    def _run_with_trace(self):
        session = TelemetrySession(trace_enabled=True)
        run = session.begin_run("mcf", "ddr3")
        config = tiny_config()
        profile = profile_for("mcf")
        system = SimulationSystem(config, make_traces(profile, config),
                                  profile=profile, telemetry=run)
        result = system.run()
        session.end_run(run)
        return session, result

    def test_trace_schema_valid(self, tmp_path):
        session, _ = self._run_with_trace()
        path = tmp_path / "trace.json"
        session.export_trace(str(path))
        trace = json.loads(path.read_text())
        assert validate_trace(trace) == []
        events = trace["traceEvents"]
        assert len(events) > 100
        names = {e["name"] for e in events}
        assert {"access", "burst", "critical_word",
                "process_name", "thread_name"} <= names

    def test_spans_cover_request_lifecycle(self):
        session, _ = self._run_with_trace()
        events = session._tracers[0].events
        spans = [e for e in events if e["ph"] == "X"]
        assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in spans)
        instants = [e for e in events if e["name"] == "critical_word"]
        assert instants and all("word" in e["args"] for e in instants)

    def test_tracer_cycle_to_us_conversion(self):
        tracer = ChromeTracer(cpu_freq_ghz=3.2)
        tracer.complete("x", 3200, 3200, "t0")
        span = [e for e in tracer.events if e["ph"] == "X"][0]
        assert span["ts"] == pytest.approx(1.0)   # 3200 cyc @3.2GHz = 1 us
        assert span["dur"] == pytest.approx(1.0)

    def test_validate_trace_flags_problems(self):
        assert validate_trace({}) == ["missing traceEvents array"]
        bad = {"traceEvents": [{"name": "x", "ph": "X", "pid": 0, "tid": 0,
                                "ts": 1.0, "dur": -1}]}
        assert any("bad dur" in p for p in validate_trace(bad))


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------

class TestSampler:
    def test_samples_on_cadence(self):
        events = EventQueue()
        registry = MetricsRegistry()
        sampler = Sampler(events, registry, interval_cycles=10)
        sampler.add_probe("queue_depth", lambda: events.now)
        sampler.start()
        events.run_until(100)
        sampler.stop()
        assert sampler.samples_taken == 10
        hist = registry.get("sample.queue_depth.hist")
        assert hist.count == 10
        assert registry.get("sample.queue_depth").value == 100

    def test_stop_cancels_pending_event(self):
        events = EventQueue()
        sampler = Sampler(events, MetricsRegistry(), interval_cycles=10)
        sampler.start()
        assert len(events) == 1
        sampler.stop()
        assert len(events) == 0


# ---------------------------------------------------------------------------
# Telemetry off: no handle is bound
# ---------------------------------------------------------------------------

class TestNullSink:
    def test_uninstrumented_run_touches_no_real_metrics(self):
        config = tiny_config("rl")
        profile = profile_for("mcf")
        system = SimulationSystem(config, make_traces(profile, config),
                                  profile=profile)
        assert system.sampler is None

        def unbound():
            memory = system.memory
            assert memory.telemetry_registry is None
            assert memory._h_critical is None and memory._h_fill is None
            for mc in memory.telemetry_controllers():
                assert mc.registry is None and mc.tracer is None
                assert mc._h_queue_lat is None
                assert mc._h_critical_lat is None

        unbound()
        result = system.run()
        assert result.telemetry is None
        unbound()


# ---------------------------------------------------------------------------
# Counters: the one counting type
# ---------------------------------------------------------------------------

class TestCounters:
    def test_declared_names_start_at_zero(self):
        counters = Counters(("hits", "misses"))
        assert counters.snapshot() == {"hits": 0, "misses": 0}
        counters.incr("hits")
        counters.incr("evictions", 3)
        assert counters["hits"] == 1 and counters.get("evictions") == 3
        assert counters["never"] == 0 and counters.get("never", -1) == -1
        assert counters.snapshot() == {"hits": 1, "misses": 0,
                                       "evictions": 3}

    def test_threads_lose_no_increment(self):
        """N threads x M increments sum exactly, in the handle and in
        its session copy, with a thread switch offered every 1 us."""
        threads, per_thread = 8, 2000
        plain = Counters(("n",))
        copied = Counters(("n",), session_prefix="x.")

        def bump():
            for _ in range(per_thread):
                plain.incr("n")
                copied.incr("n")

        session = activate(TelemetrySession())
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=bump) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
            deactivate()
        assert not any(worker.is_alive() for worker in workers)
        total = threads * per_thread
        assert plain["n"] == copied["n"] == session.counters["x.n"] == total

    def test_session_copy_adds_up_across_a_worker_ingest(self):
        parent = activate(TelemetrySession())
        try:
            Counters(session_prefix="cache.").incr("writes", 2)
            Counters().incr("writes", 100)     # no prefix: not copied
        finally:
            deactivate()
        worker = activate(TelemetrySession())
        try:
            Counters(session_prefix="cache.").incr("writes", 3)
            Counters(session_prefix="").incr("resilience.retries")
        finally:
            deactivate()
        parent.ingest([], None, worker.counters.snapshot())
        assert parent.counters.snapshot() == {"cache.writes": 5,
                                              "resilience.retries": 1}
        assert parent.manifest()["counters"] == parent.counters.snapshot()

    def test_no_active_session_copies_nothing(self):
        counters = Counters(("hits",), session_prefix="cache.")
        counters.incr("hits")
        session = activate(TelemetrySession())
        deactivate()
        assert counters["hits"] == 1
        assert session.counters.snapshot() == {}


# ---------------------------------------------------------------------------
# Run-level integration: registry vs legacy SimResult
# ---------------------------------------------------------------------------

class TestRunTelemetry:
    def test_registry_matches_legacy_avg_critical_latency(self):
        session = TelemetrySession()
        run = session.begin_run("mcf", "rl")
        config = tiny_config("rl", reads=300)
        result = run_benchmark("mcf", config, telemetry=run)
        system_avg = result.telemetry["avg_critical_latency"]
        assert system_avg == pytest.approx(result.avg_critical_latency,
                                           rel=1e-9)
        # Registry cross-check from raw metrics.
        hist = run.registry.get("memsys.critical_latency_cycles")
        demands = run.registry.get("memsys.demand_reads")
        assert hist.sum / demands.value == pytest.approx(
            result.avg_critical_latency, rel=1e-9)

    def test_published_counts_equal_stats_fields(self):
        """Counts are kept once, in the stats objects, and published at
        export: each counter reads exactly its field."""
        session = TelemetrySession()
        run = session.begin_run("libquantum", "rl")
        system, _ = simulate_benchmark(
            "libquantum", tiny_config("rl", reads=600), telemetry=run)
        registry = run.registry
        stats = system.memory.stats
        for field in ("reads", "demand_reads", "writes",
                      "critical_served_fast", "critical_served_slow"):
            counter = registry.get(f"memsys.{field}")
            assert isinstance(counter, Counter)
            assert counter.value == getattr(stats, field), field
        controllers = system.memory.telemetry_controllers()
        for mc in controllers:
            for field in ("refreshes", "prefetch_promotions"):
                counter = registry.get(f"dram.{mc.name}.{field}")
                assert isinstance(counter, Counter)
                assert counter.value == getattr(mc.stats, field), field
        # The run exercises every count, so no equality holds vacuously.
        assert stats.critical_served_fast and stats.critical_served_slow
        assert sum(mc.stats.refreshes for mc in controllers)
        assert sum(mc.stats.prefetch_promotions for mc in controllers)

    def test_per_channel_queue_histograms_exported(self):
        session = TelemetrySession()
        run = session.begin_run("mcf", "ddr3")
        config = tiny_config(reads=200)
        result = run_benchmark("mcf", config, telemetry=run)
        by_channel = result.telemetry["queue_latency_by_channel"]
        assert len(by_channel) == 4     # 4 DDR3 channels
        assert any(v["count"] > 0 for v in by_channel.values())
        for snap in by_channel.values():
            assert {"p50", "p95", "p99", "mean"} <= set(snap)
        # Structural per-bank gauges exist too.
        assert any(".bank" in name and name.endswith("act_count")
                   for name in run.registry.names("dram."))

    def test_sampler_ran_during_instrumented_run(self):
        session = TelemetrySession()
        run = session.begin_run("mcf", "ddr3")
        run_benchmark("mcf", tiny_config(reads=200), telemetry=run)
        assert run.registry.get("sample.samples_taken").value > 0
        assert run.registry.get("sample.mshr.occupancy.hist").count > 0


# ---------------------------------------------------------------------------
# Export artefacts and manifest
# ---------------------------------------------------------------------------

class TestExport:
    def test_manifest_fields(self):
        manifest = run_manifest(config={"reads": 5}, seed=42,
                                argv=["x"], wall_time_s=1.0)
        assert manifest["schema"] == 1
        assert manifest["seed"] == 42
        assert len(manifest["config_hash"]) == 16
        assert manifest["wall_time_s"] == 1.0

    def test_csv_export(self, tmp_path):
        session = TelemetrySession()
        run = session.begin_run("mcf", "ddr3")
        run.registry.counter("dram.ch0.acts").inc(7)
        session.end_run(run)
        path = tmp_path / "stats.csv"
        session.export_csv(str(path))
        text = path.read_text()
        assert "dram.ch0.acts" in text and "counter" in text

    def test_stats_json_round_trip_via_cli(self, tmp_path, capsys):
        from repro.cli import main
        stats = tmp_path / "stats.json"
        trace = tmp_path / "trace.json"
        assert main(["fig8", "--reads", "150", "--benchmarks", "mcf",
                     "--cache", "off",
                     "--stats-json", str(stats),
                     "--trace-out", str(trace)]) == 0
        doc = json.loads(stats.read_text())
        assert doc["manifest"]["num_runs"] == len(doc["runs"]) > 0
        run = doc["runs"][0]
        assert run["benchmark"] == "mcf" and run["memory"] == "rl"
        queue_hists = {n: s for n, s in run["metrics"].items()
                       if n.endswith("queue_latency_cycles")}
        assert queue_hists
        assert all({"p50", "p95", "p99"} <= set(s) for s in queue_hists.values())
        # Derived average equals the summary's legacy value.
        hist = run["metrics"]["memsys.critical_latency_cycles"]
        demands = run["metrics"]["memsys.demand_reads"]["value"]
        assert hist["sum"] / demands == pytest.approx(
            run["summary"]["avg_critical_latency"], rel=1e-9)
        trace_doc = json.loads(trace.read_text())
        assert validate_trace(trace_doc) == []

    def test_cli_json_table_mode(self, capsys):
        from repro.cli import main
        assert main(["tab1", "--cache", "off", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["experiment_id"] == "tab1"
        assert doc["columns"] and doc["rows"]

    def test_active_session_bypasses_cache_reads(self, tmp_path):
        from repro.experiments.executor import run_specs
        from repro.experiments.specs import RunSpec
        config = ExperimentConfig(target_dram_reads=120,
                                  benchmarks=("mcf",),
                                  cache_dir=str(tmp_path))
        spec = RunSpec("mcf", "ddr3")
        first = run_specs([spec], config, jobs=1)[spec]
        session = activate(TelemetrySession())
        try:
            second = run_specs([spec], config, jobs=1)[spec]
        finally:
            deactivate()
        assert second.telemetry is not None      # real run, not a recall
        assert first.telemetry is None
        assert second.avg_critical_latency == pytest.approx(
            first.avg_critical_latency)
        assert len(session.runs) == 1


# ---------------------------------------------------------------------------
# ResultCache hardening (satellite)
# ---------------------------------------------------------------------------

class TestResultCacheHardening:
    def _cache_with_entry(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = ExperimentConfig(target_dram_reads=120, benchmarks=("mcf",),
                                  cache_dir=str(tmp_path))
        result = run_benchmark("mcf", config.sim_config("ddr3"))
        cache.put("k", result)
        return cache, result

    def test_truncated_json_is_a_miss_and_rewritable(self, tmp_path):
        cache, result = self._cache_with_entry(tmp_path)
        path = cache.store.index_path("k")
        path.write_text(path.read_text()[:40])     # truncate mid-object
        assert cache.get("k") is None
        cache.put("k", result)                      # rewrite works
        assert cache.get("k") is not None

    def test_garbage_bytes_are_a_miss(self, tmp_path):
        cache, _ = self._cache_with_entry(tmp_path)
        cache.store.index_path("k").write_bytes(b"\x00\xff not json")
        assert cache.get("k") is None

    def test_non_dict_payload_is_a_miss(self, tmp_path):
        cache, _ = self._cache_with_entry(tmp_path)
        cache.store.index_path("k").write_text("[1, 2, 3]")
        assert cache.get("k") is None

    def test_schema_drift_is_a_miss(self, tmp_path):
        cache, _ = self._cache_with_entry(tmp_path)
        cache.store.index_path("k").write_text(json.dumps(
            {"key": "k", "no_such_field": 1}))
        assert cache.get("k") is None
