"""RunSpec pipeline: specs, cache keys, executor, determinism."""

import dataclasses
import json
import multiprocessing
import pickle
import threading

import pytest

from repro.experiments import EXPERIMENT_SPECS, suite_specs
from repro.experiments.criticality import fig3_spec, profiling_spec
from repro.experiments.cwf_eval import figure_6, specs_figure_6
from repro.experiments.energy_eval import sec72_spec
from repro.experiments.executor import (
    ParallelExecutor,
    group_by_simulation,
    resolve_jobs,
    resolve_results,
    run_specs,
)
from repro.experiments.homogeneous import figure_1a, specs_figure_1a
from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentTable,
    ResultCache,
)
from repro.experiments.specs import (
    RUNNER_REGISTRY,
    RunSpec,
    base_spec,
    config_digest,
    execute_spec,
    spec_cache_key,
)
from repro.sim.system import SimResult


def make_result(benchmark="b", cycles=10):
    return SimResult(
        benchmark=benchmark, memory="ddr3", num_cores=8,
        elapsed_cycles=cycles, instructions=100, per_core_ipc=[1.0],
        dram_reads=5, dram_writes=1, demand_reads=5, avg_queue_latency=1.0,
        avg_core_latency=2.0, avg_critical_latency=3.0, avg_fill_latency=4.0,
        fast_service_fraction=0.5, bus_utilization=0.1, memory_power_mw=100.0,
        memory_power_by_family={"ddr3": 100.0}, l2_hit_rate=0.9)


class TestRunSpec:
    def test_hashable_and_equal(self):
        a = RunSpec("mcf", "rl")
        b = RunSpec("mcf", "rl")
        assert a == b and hash(a) == hash(b)
        assert a != RunSpec("mcf", "rl", variant="noprefetch")

    def test_picklable(self):
        spec = RunSpec("mcf", "rl", variant="x",
                       overrides=(("prefetcher_enabled", False),),
                       runner="r", params=(("k", 1),))
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_overrides_resolve(self):
        config = ExperimentConfig(target_dram_reads=100)
        spec = RunSpec("mcf", "rl",
                       overrides=(("prefetcher_enabled", False),
                                  ("mshr_capacity", 16)))
        sim = spec.resolved_sim_config(config)
        assert not sim.uncore.prefetcher.enabled
        assert sim.uncore.mshr_capacity == 16
        assert sim.memory == "rl"

    def test_label(self):
        assert RunSpec("mcf", "rl").label == "mcf/rl"
        assert RunSpec("mcf", "rl",
                       variant="noprefetch").label == "mcf/rl/noprefetch"


class TestCacheKey:
    def test_v8_versioned(self):
        key = spec_cache_key(RunSpec("mcf", "ddr3"),
                             ExperimentConfig())
        assert key.startswith("v8|")

    def test_key_covers_full_sim_config(self):
        # A config-knob change no old-style key field captured (MSHR
        # size) must still produce a distinct key.
        config = ExperimentConfig(target_dram_reads=100)
        plain = spec_cache_key(RunSpec("mcf", "ddr3"), config)
        tweaked = spec_cache_key(
            RunSpec("mcf", "ddr3",
                    overrides=(("mshr_capacity", 16),)), config)
        assert plain != tweaked

    def test_key_varies_with_reads_and_seed(self):
        spec = RunSpec("mcf", "ddr3")
        keys = {
            spec_cache_key(spec, ExperimentConfig(target_dram_reads=100)),
            spec_cache_key(spec, ExperimentConfig(target_dram_reads=200)),
            spec_cache_key(spec, ExperimentConfig(target_dram_reads=100,
                                                  seed=7)),
        }
        assert len(keys) == 3

    def test_digest_stable(self):
        config = ExperimentConfig(target_dram_reads=100)
        sim = config.sim_config("ddr3")
        assert config_digest(sim) == config_digest(sim)


class TestResultCacheAtomicity:
    def test_put_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("key", make_result())
        leftovers = [p for p in tmp_path.iterdir() if ".tmp." in p.name]
        assert not leftovers
        assert cache.get("key").elapsed_cycles == 10

    def test_concurrent_writers_same_key(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        errors = []

        def writer(cycles):
            try:
                for _ in range(20):
                    cache.put("key", make_result(cycles=cycles))
                    loaded = cache.get("key")
                    # Never a torn/corrupt entry: either version is fine.
                    assert loaded is not None
                    assert loaded.elapsed_cycles in (10, 99)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(c,))
                   for c in (10, 99)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestTableAlignment:
    def test_long_cells_keep_grid(self):
        table = ExperimentTable("t", "demo", ["benchmark", "value"])
        table.add(benchmark="a-very-long-benchmark-name-indeed", value=1.0)
        table.add(benchmark="b", value=2.0)
        lines = table.format().splitlines()
        header, rule, rows = lines[1], lines[2], lines[3:]
        # Every row padded to the same full width; rule spans the grid.
        assert len({len(r) for r in rows}) == 1
        assert len(rows[0]) == len(header) == len(rule)
        # The value column starts at the same offset in every row.
        offset = rows[0].index("1.000")
        assert rows[1][offset:offset + 5] == "2.000"


class TestResolveJobs:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) >= 1


class FinishedSystem:
    """Stands in for a built SimulationSystem whose run is canned."""

    def __init__(self, result):
        self.result = result

    def run(self):
        return self.result


class TestExecutor:
    def counting_runner(self, monkeypatch, calls):
        def runner(spec, config):
            calls.append(spec)
            return FinishedSystem(make_result(spec.benchmark))
        monkeypatch.setitem(RUNNER_REGISTRY, "counting", runner)
        return runner

    def test_dedupes_repeated_specs(self, monkeypatch, tmp_path):
        calls = []
        self.counting_runner(monkeypatch, calls)
        config = ExperimentConfig(target_dram_reads=50,
                                  cache_dir=str(tmp_path))
        spec = RunSpec("mcf", "ddr3", runner="counting")
        results = run_specs([spec, spec, spec], config, jobs=1)
        assert len(calls) == 1
        assert results[spec].benchmark == "mcf"

    def test_cache_recall_skips_execution(self, monkeypatch, tmp_path):
        calls = []
        self.counting_runner(monkeypatch, calls)
        config = ExperimentConfig(target_dram_reads=50,
                                  cache_dir=str(tmp_path))
        spec = RunSpec("mcf", "ddr3", runner="counting")
        run_specs([spec], config, jobs=1)
        executor = ParallelExecutor(config, jobs=1)
        results = executor.run([spec])
        assert len(calls) == 1  # second invocation recalled from disk
        assert executor.timings[0]["cached"] is True
        assert results[spec].benchmark == "mcf"

    def test_resolve_results_fills_missing(self, monkeypatch, tmp_path):
        calls = []
        self.counting_runner(monkeypatch, calls)
        config = ExperimentConfig(target_dram_reads=50,
                                  cache_dir=str(tmp_path))
        have = RunSpec("mcf", "ddr3", runner="counting")
        missing = RunSpec("leslie3d", "ddr3", runner="counting")
        results = resolve_results([have, missing], config,
                                  results={have: make_result("a")})
        assert set(results) == {have, missing}
        assert calls == [missing]

    def test_timings_recorded(self, monkeypatch, tmp_path):
        calls = []
        self.counting_runner(monkeypatch, calls)
        config = ExperimentConfig(target_dram_reads=50,
                                  cache_dir=str(tmp_path))
        executor = ParallelExecutor(config, jobs=1)
        executor.run([RunSpec("mcf", "ddr3", runner="counting")])
        record, = executor.timings
        assert record["benchmark"] == "mcf"
        assert record["cached"] is False
        assert json.dumps(executor.timings)  # artifact-serialisable


class TestSuiteSpecs:
    def test_union_dedupes_shared_baselines(self):
        config = ExperimentConfig(target_dram_reads=50,
                                  benchmarks=("mcf",), cache_dir=None)
        union = suite_specs(["fig6", "fig7", "fig8", "fig9"], config)
        total = sum(len(EXPERIMENT_SPECS[k](config))
                    for k in ("fig6", "fig7", "fig8", "fig9"))
        assert len(union) < total
        # fig6+fig7 share all 4 runs and fig8's RL/fig9's DDR3+RL are
        # shared too: {ddr3, rd, rl, dl} + {rl_ad, rl_or, rldram3} = 7.
        assert len(union) == 7

    def test_every_experiment_has_a_provider(self):
        from repro.experiments import ALL_EXPERIMENTS
        assert set(EXPERIMENT_SPECS) == set(ALL_EXPERIMENTS)


class TestParallelSerialDeterminism:
    """Same seed, cold caches: jobs=2 output must equal jobs=1 output."""

    READS = 120

    def _run(self, figure, specs_fn, jobs, cache_dir):
        config = ExperimentConfig(target_dram_reads=self.READS,
                                  benchmarks=("mcf",),
                                  cache_dir=str(cache_dir))
        results = run_specs(specs_fn(config), config, jobs=jobs)
        return figure(config, results=results).format()

    def test_figure_1a(self, tmp_path):
        serial = self._run(figure_1a, specs_figure_1a, 1, tmp_path / "s")
        parallel = self._run(figure_1a, specs_figure_1a, 2, tmp_path / "p")
        assert serial == parallel

    def test_figure_6(self, tmp_path):
        serial = self._run(figure_6, specs_figure_6, 1, tmp_path / "s")
        parallel = self._run(figure_6, specs_figure_6, 2, tmp_path / "p")
        assert serial == parallel


class TestParallelTelemetry:
    def test_worker_telemetry_merges_into_session(self, tmp_path):
        from repro.telemetry import TelemetrySession, activate, deactivate

        session = activate(TelemetrySession(trace_enabled=False))
        try:
            config = ExperimentConfig(target_dram_reads=80, cache_dir=None)
            specs = [RunSpec("mcf", "ddr3"),
                     RunSpec("mcf", "rl")]
            run_specs(specs, config, jobs=2)
        finally:
            deactivate()
        assert {r["memory"] for r in session.runs} == {"ddr3", "rl"}
        for record in session.runs:
            assert "memsys.critical_latency_cycles" in record["metrics"]

    def test_ingest_remaps_trace_pids(self):
        from repro.telemetry import TelemetrySession

        session = TelemetrySession(trace_enabled=True)
        session.ingest([], [{"name": "x", "pid": 1, "tid": 0}])
        session.ingest([], [{"name": "y", "pid": 1, "tid": 0}])
        pids = [t.events[0]["pid"] for t in session._tracers]
        assert len(set(pids)) == 2

class TestPersistentExecutor:
    """Service-mode executor: one pool across run() calls."""

    READS = 60

    def config(self, tmp_path, reads=READS):
        return ExperimentConfig(target_dram_reads=reads,
                                benchmarks=("mcf",),
                                cache_dir=str(tmp_path / "cache"))

    def test_pool_survives_across_runs(self, tmp_path):
        config = self.config(tmp_path)
        with ParallelExecutor(config, jobs=2, persistent=True) as executor:
            executor.run([RunSpec("mcf", "ddr3")])
            pool = executor._pool
            assert pool is not None  # kept warm after the batch
            executor.run([RunSpec("mcf", "rl")])
            assert executor._pool is pool  # no respawn for batch two
        assert executor._pool is None  # context exit tears it down

    def test_default_executor_releases_pool(self, tmp_path):
        executor = ParallelExecutor(self.config(tmp_path), jobs=2)
        executor.run([RunSpec("mcf", "ddr3")])
        assert executor._pool is None

    def test_reconfiguring_live_pool_raises(self, tmp_path):
        config = self.config(tmp_path)
        executor = ParallelExecutor(config, jobs=2, persistent=True)
        try:
            executor.run([RunSpec("mcf", "ddr3")])
            with pytest.raises(RuntimeError, match="live worker pool"):
                executor.jobs = 4
            assert executor.jobs == 2  # unchanged by the failed set
        finally:
            executor.shutdown()
        # With the pool gone the same assignment is legal again.
        executor.jobs = 4
        assert executor.jobs == 4

    def test_jobs_resolved_once_at_construction(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        executor = ParallelExecutor(self.config(tmp_path))
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert executor.jobs == 3  # later env changes never apply silently

    def test_per_call_config_override(self, tmp_path):
        base = self.config(tmp_path)
        # Far enough apart that the epoch-granular stop check actually
        # yields a different simulation, not just a different key.
        other = self.config(tmp_path, reads=600)
        executor = ParallelExecutor(base, jobs=1)
        spec = RunSpec("mcf", "ddr3")
        a = executor.run([spec])[spec]
        b = executor.run([spec], config=other)[spec]
        # Distinct configs key (and simulate) independently...
        assert not executor.timings[1]["cached"]
        assert b.dram_reads > a.dram_reads
        # ...and each is recalled under its own config afterwards.
        assert executor.run([spec], config=other)[spec] == b
        assert executor.timings[2]["cached"] is True


def _mutable_ids(obj, seen=None):
    """ids of every mutable object reachable from ``obj``."""
    seen = set() if seen is None else seen
    if isinstance(obj, (str, bytes, int, float, bool, type(None))):
        return seen
    if isinstance(obj, (list, dict, set)) or hasattr(obj, "__dict__"):
        if id(obj) in seen:
            return seen
        seen.add(id(obj))
    if isinstance(obj, dict):
        children = list(obj.keys()) + list(obj.values())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = list(obj)
    else:
        children = list(vars(obj).values())
    for child in children:
        _mutable_ids(child, seen)
    return seen


SUITE_BENCHMARKS = ("mcf", "leslie3d", "lbm", "omnetpp")


@pytest.fixture(scope="module", params=[1, 2], ids=["jobs1", "jobs2"])
def suite_run(request, tmp_path_factory):
    """The 58-spec suite on an empty store, every simulation counted.

    Each ``SimulationSystem.run`` appends a line to a file, so runs in
    forked pool workers count too.
    """
    from repro.experiments import ALL_EXPERIMENTS
    from repro.sim.system import SimulationSystem

    jobs = request.param
    if jobs > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("counting runs in workers needs forked workers")
    tmp = tmp_path_factory.mktemp(f"suite-jobs{jobs}")
    tally = tmp / "runs.log"
    original = SimulationSystem.run

    def counted_run(self, *args, **kwargs):
        with open(tally, "a") as handle:
            handle.write("run\n")
        return original(self, *args, **kwargs)

    config = ExperimentConfig(target_dram_reads=60,
                              benchmarks=SUITE_BENCHMARKS,
                              cache_dir=str(tmp / "cache"))
    specs = suite_specs(list(ALL_EXPERIMENTS), config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SimulationSystem, "run", counted_run)
        executor = ParallelExecutor(config, jobs=jobs)
        results = executor.run(specs)
    return {"config": config, "specs": specs, "results": results,
            "executor": executor,
            "simulations": len(tally.read_text().splitlines())}


class TestGrouping:
    """Views share their base spec's simulation, on every path."""

    def test_suite_simulates_each_distinct_run_once(self, suite_run):
        assert len(suite_run["specs"]) == 58
        assert len(suite_run["results"]) == 58
        assert suite_run["simulations"] == 52

    def test_shared_specs_are_marked_in_timings(self, suite_run):
        shared = {(t["benchmark"], t["variant"]): t["shared_with"]
                  for t in suite_run["executor"].timings
                  if t["shared_with"] is not None}
        assert shared == {
            **{(b, "unterminated"): f"{b}/rl" for b in SUITE_BENCHMARKS},
            **{(b, "fig3_profile"): f"{b}/ddr3/profiling"
               for b in ("leslie3d", "mcf")},
        }

    def test_group_members_equal_lone_execution(self, suite_run):
        config, results = suite_run["config"], suite_run["results"]
        grouped = [spec for spec in suite_run["specs"]
                   if spec.runner in ("sec72_power", "criticality_fig3")]
        grouped += [base_spec(spec) for spec in grouped]
        assert len(grouped) == 12
        for spec in grouped:
            alone = dataclasses.asdict(execute_spec(spec, config))
            assert dataclasses.asdict(results[spec]) == alone, spec.label

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_view_pending_while_base_is_cached(self, tmp_path, jobs):
        config = ExperimentConfig(target_dram_reads=60,
                                  cache_dir=str(tmp_path))
        base, view = RunSpec("mcf", "rl"), sec72_spec("mcf")
        ParallelExecutor(config, jobs=1).run([base])
        executor = ParallelExecutor(config, jobs=jobs)
        results = executor.run([base, view])
        assert [t["cached"] for t in executor.timings] == [True, False]
        assert executor.timings[1]["shared_with"] is None
        assert (dataclasses.asdict(results[view])
                == dataclasses.asdict(execute_spec(view, config)))
        assert results[view].extra["sec72"]["native_mw"] > 0

    def test_group_members_share_no_mutable_object(self):
        config = ExperimentConfig(target_dram_reads=60, cache_dir=None)
        base, view = profiling_spec("mcf"), fig3_spec("mcf")
        results = ParallelExecutor(config, jobs=1).run([view, base])
        assert group_by_simulation([view, base]) == [(base, view)]
        assert not (_mutable_ids(results[base])
                    & _mutable_ids(results[view]))
        assert results[view].extra["fig3"]["top_lines"]
        assert results[base].extra == {}

    def test_view_spec_keys_are_pinned(self):
        config = ExperimentConfig(target_dram_reads=300, cache_dir=None)
        assert spec_cache_key(sec72_spec("mcf"), config) == (
            "v8|mcf|rl|unterminated|sec72_power|[]|300|42|"
            "658fd028c0cc22dd|b40da6c90270557f")
        assert spec_cache_key(fig3_spec("leslie3d"), config) == (
            "v8|leslie3d|ddr3|fig3_profile|criticality_fig3|[]|300|42|"
            "e0116505caeb19f2|f0d36b4d7e636f7e")


class TestCacheStats:
    def test_counters_track_traffic(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.stats() == {"directory": str(tmp_path), "hits": 0,
                                 "misses": 0, "writes": 0, "quarantined": 0}
        assert cache.get("key") is None
        cache.put("key", make_result())
        assert cache.get("key") is not None
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["writes"]) == (1, 1, 1)

    def test_contains_probe_is_free(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert not cache.contains("key")
        cache.put("key", make_result())
        assert cache.contains("key")
        assert cache.stats()["hits"] == cache.stats()["misses"] == 0

    def test_corrupt_entry_counted_as_quarantined(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("key", make_result())
        cache.store.index_path("key").write_text("not json {")
        assert cache.get("key") is None
        assert cache.stats()["quarantined"] == 1

    def test_null_cache_stats(self):
        cache = ResultCache(None)
        assert cache.stats()["directory"] is None
        assert not cache.contains("key")
