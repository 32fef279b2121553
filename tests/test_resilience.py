"""Resilience layer: retry policy, fault injection, classification,
graceful degradation, quarantine, and chaos determinism."""

import json
import pickle

import pytest

from repro.experiments import (
    MISSING,
    ExperimentConfig,
    ExperimentTable,
    FailedRun,
    FaultPlan,
    ParallelExecutor,
    ResultCache,
    RetryPolicy,
    RunSpec,
    SuiteError,
    failure_appendix,
    run_specs,
)
from repro.experiments.executor import resolve_jobs
from repro.experiments.homogeneous import figure_1a, specs_figure_1a
from repro.experiments.resilience import (
    BROKEN_POOL,
    CORRUPT_RESULT,
    CRASH,
    TIMEOUT,
    Fault,
    InjectedCrash,
    activate_fault_plan,
    classify_failure,
    deactivate_fault_plan,
)
from repro.experiments.specs import spec_cache_key
from repro.telemetry import TelemetrySession, activate, deactivate

READS = 60
FAST = RetryPolicy(max_retries=1, backoff_base_s=0.001)


@pytest.fixture(autouse=True)
def _no_leftover_plan(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    yield
    deactivate_fault_plan()


def config_for(tmp_path=None, **kwargs):
    return ExperimentConfig(
        target_dram_reads=READS, benchmarks=("mcf",),
        cache_dir=str(tmp_path) if tmp_path else None, **kwargs)


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_attempts_allowed(self):
        assert RetryPolicy().attempts_allowed == 1
        assert RetryPolicy(max_retries=3).attempts_allowed == 4

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(max_retries=9, backoff_base_s=0.1,
                             backoff_multiplier=2.0, backoff_max_s=0.5,
                             jitter_fraction=0.0)
        delays = [policy.backoff_s(a, "k") for a in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base_s=1.0, jitter_fraction=0.25)
        a = policy.backoff_s(1, "mcf/ddr3")
        assert a == policy.backoff_s(1, "mcf/ddr3")  # same schedule always
        assert 0.75 <= a <= 1.0
        assert a != policy.backoff_s(1, "mcf/rldram3")  # keyed by spec

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0)


# ---------------------------------------------------------------------------
# Classification, MISSING, FailedRun
# ---------------------------------------------------------------------------


class TestClassification:
    def test_kinds(self):
        from concurrent.futures.process import BrokenProcessPool

        assert classify_failure(RuntimeError("x")) == CRASH
        assert classify_failure(TimeoutError()) == TIMEOUT
        assert classify_failure(BrokenProcessPool()) == BROKEN_POOL


class TestMissing:
    def test_absorbs_arithmetic(self):
        assert (1.0 / MISSING) is MISSING
        assert (MISSING - 3) is MISSING
        assert sum([1, MISSING, 2]) is MISSING
        assert -MISSING is MISSING

    def test_formats_as_em_dash(self):
        assert f"{MISSING:.3f}" == "—"
        assert repr(MISSING) == "—"

    def test_falsy_iterable_indexable(self):
        assert not MISSING
        assert list(MISSING) == []
        assert MISSING["anything"] is MISSING
        assert MISSING.attr.method() is MISSING

    def test_float_raises(self):
        with pytest.raises(TypeError):
            float(MISSING)

    def test_pickle_preserves_singleton(self):
        assert pickle.loads(pickle.dumps(MISSING)) is MISSING


class TestFailedRun:
    def test_attribute_access_yields_missing(self):
        failed = FailedRun("mcf", "ddr3", kind=CRASH, attempts=2, error="boom")
        assert failed.throughput is MISSING
        assert failed.speedup_over(object()) is MISSING
        assert failed.extra["fig3"] is MISSING
        assert failed.label == "mcf/ddr3"

    def test_table_renders_em_dash_and_mean_skips(self):
        table = ExperimentTable("t", "demo", ["benchmark", "value"])
        table.add(benchmark="a", value=MISSING)
        table.add(benchmark="b", value=2.0)
        text = table.format()
        assert "—" in text
        assert table.mean("value") == 2.0  # MISSING excluded, not zero

    def test_mean_of_all_failed_column_is_missing(self):
        table = ExperimentTable("t", "demo", ["benchmark", "value"])
        table.add(benchmark="a", value=MISSING)
        assert table.mean("value") is MISSING
        empty = ExperimentTable("t", "demo", ["benchmark", "value"])
        assert empty.mean("value") == 0.0  # no rows at all: old behaviour

    def test_appendix_lists_failures(self):
        failed = FailedRun("mcf", "rldram3", kind=TIMEOUT, attempts=3,
                           error="TimeoutError: exceeded 4s")
        text = failure_appendix([failed])
        assert "mcf/rldram3" in text and "timeout" in text and "3" in text
        md = failure_appendix([failed], markdown=True)
        assert md.startswith("## Failure appendix")
        assert failure_appendix([]) == ""


# ---------------------------------------------------------------------------
# FaultPlan
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_modes_times_seconds(self):
        plan = FaultPlan.parse(
            "mcf/ddr3=crash;mcf/rldram3=hang:*:20,lbm/rl=corrupt:2")
        assert plan.fault_for("mcf/ddr3", 1).mode == "crash"
        assert plan.fault_for("mcf/ddr3", 2) is None  # times defaults to 1
        hang = plan.fault_for("mcf/rldram3", 99)
        assert hang.mode == "hang" and hang.seconds == 20.0
        assert plan.fault_for("lbm/rl", 2).mode == "corrupt"
        assert plan.fault_for("lbm/rl", 3) is None
        assert plan.fault_for("other/ddr3", 1) is None

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("no-equals-sign")
        with pytest.raises(ValueError):
            FaultPlan.parse("mcf/ddr3=explode")
        with pytest.raises(ValueError):
            Fault("x", "hang", seconds=-1)

    def test_from_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "mcf/ddr3=explode")
        with pytest.raises(ValueError, match="REPRO_FAULT_PLAN"):
            FaultPlan.from_env()

    def test_crash_fires_on_leading_attempts_only(self):
        plan = FaultPlan.parse("a/b=crash:2")
        with pytest.raises(InjectedCrash):
            plan.before_run("a/b", 1)
        with pytest.raises(InjectedCrash):
            plan.before_run("a/b", 2)
        plan.before_run("a/b", 3)  # retired after two firings

    def test_corrupt_replaces_result(self):
        plan = FaultPlan.parse("a/b=corrupt")
        out = plan.after_run("a/b", 1, "real-result")
        assert out != "real-result" and isinstance(out, dict)
        assert plan.after_run("a/b", 2, "real-result") == "real-result"


# ---------------------------------------------------------------------------
# Satellite: resolve_jobs on malformed REPRO_JOBS
# ---------------------------------------------------------------------------


class TestResolveJobsValidation:
    def test_malformed_env_names_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "two")
        with pytest.raises(ValueError, match="REPRO_JOBS.*'two'"):
            resolve_jobs()

    def test_empty_env_still_defaults_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "  ")
        assert resolve_jobs() == 1

    def test_explicit_arg_bypasses_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "garbage")
        assert resolve_jobs(2) == 2


# ---------------------------------------------------------------------------
# Satellite: ResultCache quarantine
# ---------------------------------------------------------------------------


class TestCacheQuarantine:
    def _entry_path(self, cache, key):
        return cache.store.index_path(key)

    def test_corrupt_json_is_quarantined(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = self._entry_path(cache, "key")
        path.write_text("{not json")
        assert cache.get("key") is None
        assert not path.exists()
        assert path.with_suffix(".json.corrupt").exists()

    def test_schema_drift_is_quarantined(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = self._entry_path(cache, "key")
        path.write_text(json.dumps({"key": "key", "not_a_field": 1}))
        assert cache.get("key") is None
        assert path.with_suffix(".json.corrupt").exists()

    def test_key_mismatch_is_a_plain_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = self._entry_path(cache, "key")
        path.write_text(json.dumps({"key": "other-key"}))
        assert cache.get("key") is None
        assert path.exists()  # left in place: valid entry, different key

    def test_quarantine_counts_in_telemetry(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        self._entry_path(cache, "key").write_text("garbage")
        session = activate(TelemetrySession())
        try:
            cache.get("key")
        finally:
            deactivate()
        assert session.counters["cache.quarantined"] == 1
        assert session.manifest()["counters"]["cache.quarantined"] == 1

    def test_rerun_after_quarantine_repopulates(self, tmp_path):
        config = config_for(tmp_path)
        spec = RunSpec("mcf", "ddr3")
        run_specs([spec], config, jobs=1)
        path = self._entry_path(ResultCache(str(tmp_path)),
                                spec_cache_key(spec, config))
        path.write_text("{truncated")
        results = run_specs([spec], config, jobs=1)  # re-runs, not recalls
        assert results[spec].elapsed_cycles > 0
        assert path.exists()  # rewritten by the re-run
        assert path.with_suffix(".json.corrupt").exists()  # evidence kept


# ---------------------------------------------------------------------------
# Executor resilience: serial path (in-process, fault plan activated
# programmatically)
# ---------------------------------------------------------------------------


class TestSerialResilience:
    def test_crash_retry_succeeds(self):
        activate_fault_plan(FaultPlan.parse("mcf/ddr3=crash:1"))
        executor = ParallelExecutor(config_for(), jobs=1, policy=FAST)
        results = executor.run([RunSpec("mcf", "ddr3")])
        assert results[RunSpec("mcf", "ddr3")].elapsed_cycles > 0
        assert executor.counters["resilience.failures.crash"] == 1
        assert executor.counters["resilience.retries"] == 1
        assert not executor.failures

    def test_exhausted_keep_going_records_failed_run(self):
        activate_fault_plan(FaultPlan.parse("mcf/ddr3=crash:*"))
        executor = ParallelExecutor(config_for(), jobs=1, policy=FAST,
                                    keep_going=True)
        results = executor.run([RunSpec("mcf", "ddr3"),
                                RunSpec("mcf", "rldram3")])
        failed = results[RunSpec("mcf", "ddr3")]
        assert isinstance(failed, FailedRun)
        assert failed.kind == CRASH and failed.attempts == 2
        assert executor.failures == [failed]
        # The healthy spec still produced a real result.
        assert results[RunSpec("mcf", "rldram3")].elapsed_cycles > 0

    def test_exhausted_fail_fast_raises_suite_error(self):
        activate_fault_plan(FaultPlan.parse("mcf/ddr3=crash:*"))
        executor = ParallelExecutor(config_for(), jobs=1, policy=FAST)
        with pytest.raises(SuiteError, match="mcf/ddr3.*crash"):
            executor.run([RunSpec("mcf", "ddr3")])

    def test_corrupt_result_classified(self):
        activate_fault_plan(FaultPlan.parse("mcf/ddr3=corrupt:*"))
        executor = ParallelExecutor(config_for(), jobs=1, policy=FAST,
                                    keep_going=True)
        results = executor.run([RunSpec("mcf", "ddr3")])
        failed = results[RunSpec("mcf", "ddr3")]
        assert isinstance(failed, FailedRun)
        assert failed.kind == CORRUPT_RESULT

    def test_corrupt_result_never_cached(self, tmp_path):
        activate_fault_plan(FaultPlan.parse("mcf/ddr3=corrupt:*"))
        config = config_for(tmp_path)
        executor = ParallelExecutor(config, jobs=1, policy=FAST,
                                    keep_going=True)
        executor.run([RunSpec("mcf", "ddr3")])
        key = spec_cache_key(RunSpec("mcf", "ddr3"), config)
        assert ResultCache(str(tmp_path)).get(key) is None

    def test_failed_attempts_land_in_timings(self):
        activate_fault_plan(FaultPlan.parse("mcf/ddr3=crash:1"))
        executor = ParallelExecutor(config_for(), jobs=1, policy=FAST)
        executor.run([RunSpec("mcf", "ddr3")])
        statuses = [(t["status"], t["attempt"]) for t in executor.timings]
        assert (CRASH, 1) in statuses and ("ok", 2) in statuses
        assert json.dumps(executor.timings)  # artifact-serialisable


# ---------------------------------------------------------------------------
# Executor resilience: parallel path (fault plan travels via environment)
# ---------------------------------------------------------------------------


class TestParallelResilience:
    def test_injected_crash_retries_to_success(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "mcf/ddr3=crash:1")
        executor = ParallelExecutor(config_for(), jobs=2, policy=FAST)
        results = executor.run([RunSpec("mcf", "ddr3"),
                                RunSpec("mcf", "rldram3")])
        assert not executor.failures
        assert all(r.elapsed_cycles > 0 for r in results.values())
        assert executor.counters["resilience.failures.crash"] == 1
        assert executor.counters["resilience.retries"] == 1

    def test_injected_hang_past_timeout(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "mcf/rldram3=hang:*:30")
        policy = RetryPolicy(max_retries=1, timeout_s=1.0,
                             backoff_base_s=0.001)
        executor = ParallelExecutor(config_for(), jobs=2, policy=policy,
                                    keep_going=True)
        results = executor.run([RunSpec("mcf", "ddr3"),
                                RunSpec("mcf", "rldram3")])
        failed = results[RunSpec("mcf", "rldram3")]
        assert isinstance(failed, FailedRun)
        assert failed.kind == TIMEOUT and failed.attempts == 2
        assert executor.counters["resilience.failures.timeout"] == 2
        # The innocent spec sharing the pool still completed.
        assert results[RunSpec("mcf", "ddr3")].elapsed_cycles > 0

    def test_hang_recovers_when_fault_retires(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "mcf/ddr3=hang:1:30")
        policy = RetryPolicy(max_retries=1, timeout_s=1.0,
                             backoff_base_s=0.001)
        executor = ParallelExecutor(config_for(), jobs=2, policy=policy)
        results = executor.run([RunSpec("mcf", "ddr3")])
        assert not executor.failures
        assert results[RunSpec("mcf", "ddr3")].elapsed_cycles > 0
        assert executor.counters["resilience.failures.timeout"] == 1

    def test_timeout_starts_when_a_worker_takes_the_spec(self, monkeypatch):
        # Three 0.7 s specs on two workers: the third waits about 0.7 s
        # for a worker, and that wait must not count against its 1.2 s
        # timeout or its recorded seconds.
        monkeypatch.setenv("REPRO_FAULT_PLAN",
                           "mcf/ddr3=hang:1:0.7;mcf/rl=hang:1:0.7;"
                           "mcf/rldram3=hang:1:0.7")
        policy = RetryPolicy(timeout_s=1.2, backoff_base_s=0.001)
        executor = ParallelExecutor(config_for(), jobs=2, policy=policy,
                                    keep_going=True)
        specs = [RunSpec("mcf", memory)
                 for memory in ("ddr3", "rl", "rldram3")]
        results = executor.run(specs)
        assert executor.counters.get("resilience.failures.timeout", 0) == 0
        assert not executor.failures
        assert all(results[spec].elapsed_cycles > 0 for spec in specs)
        assert all(0.7 <= t["seconds"] < 1.2 for t in executor.timings)

    def test_worker_kill_breaks_pool_then_respawns(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "mcf/ddr3=kill:1")
        executor = ParallelExecutor(
            config_for(), jobs=2,
            policy=RetryPolicy(max_retries=2, backoff_base_s=0.001))
        results = executor.run([RunSpec("mcf", "ddr3"),
                                RunSpec("mcf", "rldram3")])
        assert not executor.failures
        assert all(r.elapsed_cycles > 0 for r in results.values())
        assert executor.counters["resilience.failures.broken-pool"] >= 1

    def test_degrade_serial_rescues_worker_only_failure(self, monkeypatch):
        # kill:* breaks every pool attempt; the in-process last resort
        # runs with the fault hook disabled and rescues the spec.
        monkeypatch.setenv("REPRO_FAULT_PLAN", "mcf/ddr3=kill:*")
        executor = ParallelExecutor(config_for(), jobs=2, policy=FAST,
                                    degrade_serial=True)
        results = executor.run([RunSpec("mcf", "ddr3")])
        assert not executor.failures
        assert results[RunSpec("mcf", "ddr3")].elapsed_cycles > 0
        assert executor.counters["resilience.degraded_runs"] == 1

    def test_keyboard_interrupt_strands_no_workers(self, monkeypatch):
        import concurrent.futures
        import multiprocessing

        monkeypatch.setattr(
            concurrent.futures, "wait",
            lambda *a, **k: (_ for _ in ()).throw(KeyboardInterrupt()))
        executor = ParallelExecutor(config_for(), jobs=2)
        with pytest.raises(KeyboardInterrupt):
            executor.run([RunSpec("mcf", "ddr3"),
                          RunSpec("mcf", "rldram3")])
        # The pool was shut down and its workers terminated+joined, so
        # Ctrl-C leaves no orphan processes behind.
        assert multiprocessing.active_children() == []

    def test_parallel_failure_counters_reach_session(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "mcf/ddr3=crash:1")
        session = activate(TelemetrySession())
        try:
            executor = ParallelExecutor(config_for(), jobs=2, policy=FAST)
            executor.run([RunSpec("mcf", "ddr3")])
        finally:
            deactivate()
        assert session.counters["resilience.failures.crash"] == 1
        assert session.counters["resilience.retries"] == 1


# ---------------------------------------------------------------------------
# Grouped specs: faults and retries stay per member
# ---------------------------------------------------------------------------


class TestGroupedResilience:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("label", ["mcf/rl", "mcf/rl/unterminated"])
    def test_failed_member_retries_alone(self, monkeypatch, jobs, label):
        from repro.experiments.energy_eval import sec72_spec

        monkeypatch.setenv("REPRO_FAULT_PLAN", f"{label}=crash:1")
        base, view = RunSpec("mcf", "rl"), sec72_spec("mcf")
        executor = ParallelExecutor(config_for(), jobs=jobs, policy=FAST)
        results = executor.run([base, view])
        assert not executor.failures
        assert executor.counters["resilience.failures.crash"] == 1
        assert executor.counters["resilience.retries"] == 1
        statuses = sorted((t["variant"], t["attempt"], t["status"])
                          for t in executor.timings)
        failed = "" if label == "mcf/rl" else "unterminated"
        healthy = "unterminated" if failed == "" else ""
        assert statuses == sorted([(failed, 1, CRASH), (failed, 2, "ok"),
                                   (healthy, 1, "ok")])
        # The member that crashed ran before its group's simulation, so
        # the healthy member simulated on its own.
        assert all(t["shared_with"] is None for t in executor.timings)
        deactivate_fault_plan()
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        clean = ParallelExecutor(config_for(), jobs=1).run([base, view])
        assert results == clean


# ---------------------------------------------------------------------------
# Chaos determinism: the acceptance bar
# ---------------------------------------------------------------------------


class TestChaosDeterminism:
    READS = 120

    def _table(self, cache_dir, jobs=2, policy=None):
        config = ExperimentConfig(target_dram_reads=self.READS,
                                  benchmarks=("mcf",),
                                  cache_dir=str(cache_dir))
        executor = ParallelExecutor(config, jobs=jobs,
                                    policy=policy or RetryPolicy())
        results = executor.run(specs_figure_1a(config))
        return figure_1a(config, results=results).format(), executor

    def test_crashes_with_retries_yield_byte_identical_tables(
            self, monkeypatch, tmp_path):
        clean, _ = self._table(tmp_path / "clean")
        monkeypatch.setenv("REPRO_FAULT_PLAN",
                           "mcf/ddr3=crash:1;mcf/lpddr2=crash:1")
        faulty, executor = self._table(
            tmp_path / "faulty",
            policy=RetryPolicy(max_retries=2, backoff_base_s=0.001))
        assert not executor.failures
        assert executor.counters["resilience.retries"] == 2
        assert faulty == clean  # byte-identical despite two crashes

    def test_exhausted_failures_degrade_gracefully(self, monkeypatch,
                                                   tmp_path):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "mcf/rldram3=crash:*")
        config = ExperimentConfig(target_dram_reads=self.READS,
                                  benchmarks=("mcf",),
                                  cache_dir=str(tmp_path / "kg"))
        executor = ParallelExecutor(config, jobs=2, policy=FAST,
                                    keep_going=True)
        results = executor.run(specs_figure_1a(config))
        table = figure_1a(config, results=results)
        text = table.format()
        assert "—" in text  # rldram3 column degrades to em-dashes
        # The untouched columns still carry real numbers.
        mcf_row = next(r for r in table.rows if r["benchmark"] == "mcf")
        assert isinstance(mcf_row["lpddr2"], float)
        assert mcf_row["rldram3"] is MISSING
        appendix = failure_appendix(executor.failures)
        assert "mcf/rldram3" in appendix and CRASH in appendix
