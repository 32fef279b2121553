"""Tests for the simulation service: validation, store, scheduler
(coalescing, backpressure, restart resume, fault-injected retries),
and the HTTP front-end.

Most tests drive the :class:`JobScheduler` directly with a tiny config
(60 fetches, one benchmark, serial executor) so they stay fast and
deterministic; the HTTP tests bind a real ``ThreadingHTTPServer`` to an
ephemeral port and go through :class:`ServiceClient`, exactly like the
``repro submit`` CLI does.
"""

import dataclasses
import json
import socket
import sys
import threading

import pytest

from repro.experiments.executor import run_specs
from repro.experiments.resilience import FaultPlan
from repro.experiments.runner import ExperimentConfig
from repro.service import (
    Job,
    JobScheduler,
    JobStore,
    JobValidationError,
    QueueFull,
    SchedulerStopped,
    ServiceClient,
    ServiceError,
    make_server,
    parse_request,
    spec_from_dict,
    spec_to_dict,
)
from repro.experiments.specs import RunSpec
import repro.service.http as http_module
from repro.service.http import JobRequestHandler

READS = 60
SPEC_MCF_DDR3 = {"benchmark": "mcf", "memory": "ddr3"}
SPEC_MCF_RL = {"benchmark": "mcf", "memory": "rl"}


def make_config(tmp_path, **overrides) -> ExperimentConfig:
    kwargs = dict(target_dram_reads=READS, benchmarks=("mcf",),
                  cache_dir=str(tmp_path / "cache"))
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def make_scheduler(tmp_path, start=True, recover=False,
                   config=None, **kwargs) -> JobScheduler:
    config = config if config is not None else make_config(tmp_path)
    store = JobStore(str(tmp_path / "jobs"))
    return JobScheduler(config, store=store, jobs=1, start=start,
                        recover=recover, **kwargs)


def warm_cache(tmp_path, *specs) -> None:
    """Put each spec's result into the store the scheduler reads."""
    run_specs([spec_from_dict(spec) for spec in specs],
              make_config(tmp_path), jobs=1)


def record_saves(sched, monkeypatch) -> list:
    """Capture every manifest save as ``(job id, state)``."""
    saves = []
    save = sched.store.save

    def recording_save(job):
        saves.append((job.id, job.state))
        save(job)

    monkeypatch.setattr(sched.store, "save", recording_save)
    return saves


# ---------------------------------------------------------------------------
# Request validation
# ---------------------------------------------------------------------------


class TestValidation:
    def config(self):
        return ExperimentConfig(target_dram_reads=READS)

    def test_unknown_backend_answers_did_you_mean(self):
        with pytest.raises(JobValidationError, match="ddr3"):
            parse_request({"specs": [{"benchmark": "mcf",
                                      "memory": "ddr333"}]}, self.config())

    def test_unknown_experiment_lists_known(self):
        with pytest.raises(JobValidationError, match="fig6"):
            parse_request({"experiment": "fig99"}, self.config())

    def test_unknown_benchmark(self):
        with pytest.raises(JobValidationError, match="unknown workload"):
            parse_request({"specs": [{"benchmark": "quake",
                                      "memory": "ddr3"}]}, self.config())

    def test_unknown_request_field(self):
        with pytest.raises(JobValidationError, match="unknown request"):
            parse_request({"spec": []}, self.config())

    def test_empty_job(self):
        with pytest.raises(JobValidationError, match="empty job"):
            parse_request({}, self.config())

    def test_bad_reads(self):
        with pytest.raises(JobValidationError, match="positive integer"):
            parse_request({"specs": [SPEC_MCF_DDR3], "reads": -5},
                          self.config())

    @pytest.mark.parametrize("body, message", [
        ({"specs": None}, "specs must be a list"),
        ({"specs": 5}, "specs must be a list"),
        ({"specs": False}, "specs must be a list"),
        ({"experiment": [1]}, "unknown experiment"),
        ({"experiment": {}}, "unknown experiment"),
    ], ids=["specs-null", "specs-int", "specs-false", "experiment-list",
            "experiment-object"])
    def test_wrongly_typed_field_is_a_validation_error(self, body, message):
        with pytest.raises(JobValidationError, match=message):
            parse_request(body, self.config())

    def test_unknown_runner(self):
        with pytest.raises(JobValidationError, match="unknown named runner"):
            parse_request({"specs": [{"benchmark": "mcf", "memory": "ddr3",
                                      "runner": "nope"}]}, self.config())

    def test_view_names_are_known_runners(self):
        job = parse_request({"specs": [{"benchmark": "mcf", "memory": "rl",
                                        "variant": "unterminated",
                                        "runner": "sec72_power"}]},
                            self.config())
        assert job.entries[0].spec.runner == "sec72_power"

    def test_experiment_expands_specs(self):
        job = parse_request({"experiment": "fig3"}, self.config())
        assert len(job.entries) == 2  # FIG3_BENCHMARKS
        assert all(e.spec.runner == "criticality_fig3" for e in job.entries)

    def test_benchmarks_stored_canonical_and_deduped(self):
        job = parse_request({"experiment": "fig1a",
                             "benchmarks": ["synthetic:mcf", "mcf"]},
                            self.config())
        assert job.benchmarks == ("mcf",)
        assert job.to_dict()["benchmarks"] == ["mcf"]
        assert {e.spec.benchmark for e in job.entries} == {"mcf"}

    def test_within_job_dedupe(self):
        job = parse_request({"specs": [SPEC_MCF_DDR3, SPEC_MCF_DDR3]},
                            self.config())
        assert len(job.entries) == 1


class TestSerialization:
    def test_spec_round_trip(self):
        spec = RunSpec("mcf", "rl", variant="x",
                       overrides=(("prefetcher_enabled", False),),
                       params=(("depth", 4),))
        # JSON turns tuples into lists; the round trip restores them.
        rebuilt = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert rebuilt == spec

    def test_job_round_trip(self, tmp_path):
        config = make_config(tmp_path)
        job = parse_request({"specs": [SPEC_MCF_DDR3], "tag": "t",
                             "reads": 99}, config)
        rebuilt = Job.from_dict(json.loads(json.dumps(job.to_dict())))
        assert rebuilt.id == job.id
        assert rebuilt.reads == 99
        assert rebuilt.entries[0].spec == job.entries[0].spec

    def test_store_round_trip_and_unfinished(self, tmp_path):
        config = make_config(tmp_path)
        store = JobStore(str(tmp_path / "jobs"))
        job = parse_request({"specs": [SPEC_MCF_DDR3]}, config)
        store.save(job)
        assert store.load(job.id).id == job.id
        assert [j.id for j in store.unfinished()] == [job.id]
        job.state = "done"
        store.save(job)
        assert store.unfinished() == []

    def test_store_rejects_traversal_ids(self, tmp_path):
        store = JobStore(str(tmp_path / "jobs"))
        assert store.load("../../etc/passwd") is None

    def test_threads_saving_one_manifest_all_succeed(self, tmp_path):
        store = JobStore(str(tmp_path / "jobs"))
        job = parse_request({"specs": [SPEC_MCF_DDR3]}, make_config(tmp_path))
        errors = []

        def hammer():
            for _ in range(100):
                try:
                    store.save(job)
                except Exception as exc:  # pragma: no cover - the bug
                    errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert store.load(job.id).id == job.id
        assert not list((tmp_path / "jobs").glob("*.tmp.*"))

    def test_late_queued_save_never_lands_after_done(self, tmp_path,
                                                     monkeypatch):
        """A save that encoded ``queued`` and stalls in its write must
        not overwrite the ``done`` save another thread makes meanwhile."""
        import repro.service.store as store_module

        store = JobStore(str(tmp_path / "jobs"))
        job = parse_request({"specs": [SPEC_MCF_DDR3]}, make_config(tmp_path))
        write = store_module.atomic_write_bytes
        writing, release = threading.Event(), threading.Event()

        def stalling_write(path, data, durable=True):
            if not writing.is_set():  # the first (queued) save stalls
                writing.set()
                assert release.wait(10)
            write(path, data, durable=durable)

        monkeypatch.setattr(store_module, "atomic_write_bytes",
                            stalling_write)
        queued = threading.Thread(target=store.save, args=(job,))
        queued.start()
        assert writing.wait(10)
        job.state = "done"
        done = threading.Thread(target=store.save, args=(job,))
        done.start()
        done.join(timeout=0.2)  # give an unordered save time to land
        release.set()
        queued.join(10)
        done.join(10)
        assert not queued.is_alive() and not done.is_alive()
        assert store.load(job.id).state == "done"


# ---------------------------------------------------------------------------
# Scheduler: coalescing, backpressure, restart, retries
# ---------------------------------------------------------------------------


class TestScheduler:
    def test_identical_submits_run_one_simulation(self, tmp_path):
        """N submits of the same spec while queued -> one simulation."""
        sched = make_scheduler(tmp_path, start=False)
        try:
            jobs = [sched.submit({"specs": [SPEC_MCF_DDR3]})
                    for _ in range(4)]
            # All but the first coalesce against the wanted-key map.
            assert jobs[0].coalesced_specs == 0
            assert all(job.coalesced_specs == 1 for job in jobs[1:])
            sched.start()
            finished = [sched.wait(job.id, timeout=120) for job in jobs]
            assert all(job.state == "done" for job in finished)
            assert sched.counters["simulated_specs"] == 1
            assert sched.counters["coalesced_specs"] == 3
            # Every waiter got the same underlying result.
            cycles = {job.results[0]["elapsed_cycles"] for job in finished}
            assert len(cycles) == 1
        finally:
            sched.shutdown()

    def test_backpressure_429_then_retry_succeeds(self, tmp_path):
        sched = make_scheduler(tmp_path, start=False, max_queue=2)
        try:
            sched.submit({"specs": [SPEC_MCF_DDR3]})
            sched.submit({"specs": [SPEC_MCF_DDR3]})
            with pytest.raises(QueueFull) as excinfo:
                sched.submit({"specs": [SPEC_MCF_DDR3]})
            assert excinfo.value.retry_after_s >= 1.0
            assert sched.counters["jobs_rejected"] == 1
            sched.start()
            # Once the queue drains, the retried submit is accepted and
            # serves straight from the now-warm cache.
            for job in list(sched.jobs()):
                sched.wait(job.id, timeout=120)
            retried = sched.submit({"specs": [SPEC_MCF_DDR3]})
            assert sched.wait(retried.id, timeout=120).state == "done"
            assert sched.counters["simulated_specs"] == 1
        finally:
            sched.shutdown()

    def test_restart_resumes_from_store_without_recompute(self, tmp_path):
        config = make_config(tmp_path)
        sched1 = make_scheduler(tmp_path, config=config)
        job = sched1.submit({"specs": [SPEC_MCF_DDR3]})
        done = sched1.wait(job.id, timeout=120)
        sched1.shutdown()
        assert sched1.counters["simulated_specs"] == 1

        # Forge the manifest a server killed mid-suite would leave:
        # same specs, still queued. The replacement server recovers it
        # and resolves every completed spec from the result cache.
        data = done.to_dict()
        data.update(id="j-resume0001", state="queued", results=[],
                    failures=[], table="", finished_unix=None)
        store = JobStore(str(tmp_path / "jobs"))
        store.save(Job.from_dict(data))

        sched2 = JobScheduler(config, store=store, jobs=1, recover=True)
        try:
            assert sched2.counters["jobs_recovered"] == 1
            resumed = sched2.wait("j-resume0001", timeout=120)
            assert resumed.state == "done"
            assert sched2.counters["simulated_specs"] == 0  # cache recall
            assert resumed.results[0]["elapsed_cycles"] == \
                done.results[0]["elapsed_cycles"]
        finally:
            sched2.shutdown()

    def test_injected_crash_retried_without_failing_job(self, tmp_path):
        config = make_config(tmp_path, retries=1,
                             fault_plan=FaultPlan.parse("mcf/ddr3=crash:1"))
        sched = make_scheduler(tmp_path, config=config)
        try:
            job = sched.submit({"specs": [SPEC_MCF_DDR3]})
            assert sched.wait(job.id, timeout=120).state == "done"
            metrics = sched.metrics()
            assert metrics["executor.resilience.retries"] == 1
            assert metrics["jobs"].get("failed") is None
        finally:
            sched.shutdown()

    def test_exhausted_spec_fails_job_not_server(self, tmp_path):
        config = make_config(tmp_path,
                             fault_plan=FaultPlan.parse("mcf/ddr3=crash:*"))
        sched = make_scheduler(tmp_path, config=config)
        try:
            job = sched.submit({"specs": [SPEC_MCF_DDR3]})
            failed = sched.wait(job.id, timeout=120)
            assert failed.state == "failed"
            assert failed.failures[0]["kind"] == "crash"
            # The scheduler thread survived; a clean job still runs.
            sched.config = dataclasses.replace(config, fault_plan=None)
            ok = sched.submit({"specs": [SPEC_MCF_DDR3]})
            assert sched.wait(ok.id, timeout=120).state == "done"
        finally:
            sched.shutdown()

    def test_submit_after_drain_is_refused(self, tmp_path):
        sched = make_scheduler(tmp_path)
        sched.shutdown()
        with pytest.raises(SchedulerStopped):
            sched.submit({"specs": [SPEC_MCF_DDR3]})

    def test_failed_running_save_keeps_scheduler_alive(self, tmp_path,
                                                       monkeypatch):
        sched = make_scheduler(tmp_path, start=False)
        save = sched.store.save

        def failing_running_save(job):
            if job.state == "running":
                raise OSError("injected: disk full")
            save(job)

        monkeypatch.setattr(sched.store, "save", failing_running_save)
        try:
            job = sched.submit({"specs": [SPEC_MCF_DDR3]})
            sched.start()
            assert sched.wait(job.id, timeout=120).state == "done"
            assert sched.counters["manifest_save_errors"] == 1
            assert sched.store.load(job.id).state == "done"
            # The loop survived: the next job still runs.
            again = sched.submit({"specs": [SPEC_MCF_RL]})
            assert sched.wait(again.id, timeout=120).state == "done"
            assert sched.counters["manifest_save_errors"] == 2
            assert sched.metrics()["service.manifest_save_errors"] == 2
        finally:
            sched.shutdown()

    def test_done_manifest_is_saved_before_the_job_reads_done(
            self, tmp_path, monkeypatch):
        """A client that sees the job done finds it done on disk too."""
        sched = make_scheduler(tmp_path, start=False)
        save = sched.store.save
        in_memory_at_terminal_save = []

        def recording_save(job):
            if job.done:
                in_memory_at_terminal_save.append(sched.get(job.id).state)
            save(job)

        monkeypatch.setattr(sched.store, "save", recording_save)
        try:
            job = sched.submit({"specs": [SPEC_MCF_DDR3]})
            sched.start()
            assert sched.wait(job.id, timeout=120).state == "done"
            assert in_memory_at_terminal_save == ["running"]
            assert sched.store.load(job.id).state == "done"
        finally:
            sched.shutdown()

    def test_concurrent_fig3_clients_byte_identical_tables(self, tmp_path):
        """The acceptance scenario: two clients, one simulation run."""
        sched = make_scheduler(tmp_path, start=False)
        try:
            first = sched.submit({"experiment": "fig3"})
            second = sched.submit({"experiment": "fig3"})
            spec_count = len(second.entries)
            assert spec_count == 2
            assert second.coalesced_specs == spec_count
            sched.start()
            first = sched.wait(first.id, timeout=300)
            second = sched.wait(second.id, timeout=300)
            assert first.state == second.state == "done"
            assert first.table and first.table == second.table
            assert sched.counters["simulated_specs"] == spec_count
        finally:
            sched.shutdown()


# ---------------------------------------------------------------------------
# Fully cached jobs finish at submit
# ---------------------------------------------------------------------------


class TestCachedFastPath:
    def test_cached_resubmit_done_with_one_save_and_no_queue(
            self, tmp_path, monkeypatch):
        warm_cache(tmp_path, SPEC_MCF_DDR3)
        sched = make_scheduler(tmp_path, start=False)
        saves = record_saves(sched, monkeypatch)
        try:
            job = sched.submit({"specs": [SPEC_MCF_DDR3], "tag": "t"})
            assert job.state == "done"
            assert job.cached_specs == 1
            assert job.results[0]["label"] == "mcf/ddr3"
            assert job.started_unix is not None
            assert job.finished_unix is not None
            assert saves == [(job.id, "done")]
            assert sched.health()["queue_depth"] == 0
            assert sched.counters["batches"] == 0
            assert sched.counters["jobs_completed"] == 1
            assert sched._wanted == {}
            assert sched.get(job.id) is job
            assert sched.store.load(job.id).state == "done"
        finally:
            sched.shutdown()

    def test_cached_experiment_renders_table_at_submit(self, tmp_path):
        sched = make_scheduler(tmp_path)
        try:
            first = sched.wait(sched.submit({"experiment": "fig3"}).id,
                               timeout=300)
            again = sched.submit({"experiment": "fig3"})
            assert again.state == "done"
            assert again.table and again.table == first.table
            assert sched.counters["batches"] == 1
        finally:
            sched.shutdown()

    def test_full_queue_still_accepts_cached_jobs(self, tmp_path):
        warm_cache(tmp_path, SPEC_MCF_DDR3)
        sched = make_scheduler(tmp_path, start=False, max_queue=1)
        try:
            sched.submit({"specs": [SPEC_MCF_RL]})  # fills the queue
            with pytest.raises(QueueFull):
                sched.submit({"specs": [{"benchmark": "mcf",
                                         "memory": "hmc_cwf"}]})
            cached = sched.submit({"specs": [SPEC_MCF_DDR3]})
            assert cached.state == "done"
            assert sched.counters["jobs_rejected"] == 1
        finally:
            sched.shutdown()

    def test_rejected_job_releases_its_refcounts(self, tmp_path):
        sched = make_scheduler(tmp_path, start=False, max_queue=1)
        try:
            sched.submit({"specs": [SPEC_MCF_RL]})
            with pytest.raises(QueueFull):
                sched.submit({"specs": [SPEC_MCF_DDR3]})
            assert list(sched._wanted.values()) == [1]
        finally:
            sched.shutdown()

    def test_coalesced_and_partially_cached_jobs_queue(self, tmp_path):
        warm_cache(tmp_path, SPEC_MCF_DDR3)
        sched = make_scheduler(tmp_path, start=False)
        try:
            partial = sched.submit({"specs": [SPEC_MCF_DDR3, SPEC_MCF_RL]})
            assert partial.state == "queued"
            assert [e.cached for e in partial.entries] == [True, False]
            # mcf/ddr3 is cached on disk, but a queued job wants it.
            coalesced = sched.submit({"specs": [SPEC_MCF_DDR3]})
            assert coalesced.state == "queued"
            assert coalesced.coalesced_specs == 1
            assert sched.health()["queue_depth"] == 2
            sched.start()
            for job in (partial, coalesced):
                assert sched.wait(job.id, timeout=120).state == "done"
            assert sched.counters["simulated_specs"] == 1
        finally:
            sched.shutdown()

    def test_sanitized_server_simulates_cached_specs(self, tmp_path):
        """A recalled result was never checked: a sanitized server runs
        a cached spec again, as ParallelExecutor.run does."""
        from repro.sanitizer import MODE_STRICT

        warm_cache(tmp_path, SPEC_MCF_DDR3)
        sched = make_scheduler(
            tmp_path, config=make_config(tmp_path, sanitize=MODE_STRICT))
        try:
            job = sched.submit({"specs": [SPEC_MCF_DDR3]})
            assert sched.wait(job.id, timeout=120).state == "done"
            assert job.cached_specs == 0
            assert sched.counters["cached_specs"] == 0
            assert sched.counters["simulated_specs"] == 1
        finally:
            sched.shutdown()

    def test_entry_evicted_after_tag_falls_back_to_queue(self, tmp_path,
                                                          monkeypatch):
        warm_cache(tmp_path, SPEC_MCF_DDR3)
        sched = make_scheduler(tmp_path, start=False)
        cache = sched.executor.cache
        contains = cache.contains

        def contains_then_evict(key):
            found = contains(key)
            cache.store.delete(key)  # evicted right after the tag
            return found

        monkeypatch.setattr(cache, "contains", contains_then_evict)
        saves = record_saves(sched, monkeypatch)
        try:
            job = sched.submit({"specs": [SPEC_MCF_DDR3]})
            assert job.state == "queued"
            assert job.cached_specs == 1
            assert sched.health()["queue_depth"] == 1
            sched.start()
            assert sched.wait(job.id, timeout=120).state == "done"
            assert sched.counters["simulated_specs"] == 1
            assert [state for _, state in saves] == \
                ["queued", "running", "done"]
        finally:
            sched.shutdown()

    def test_cached_jobs_keep_manifest_budget(self, tmp_path):
        warm_cache(tmp_path, SPEC_MCF_DDR3)
        store = JobStore(str(tmp_path / "jobs"), budget_bytes=1)
        sched = JobScheduler(make_config(tmp_path), store=store, jobs=1,
                             start=False, recover=False)
        try:
            jobs = [sched.submit({"specs": [SPEC_MCF_DDR3]})
                    for _ in range(3)]
            assert all(job.state == "done" for job in jobs)
            assert store.job_ids() == []  # done manifests evicted
            assert sched.get(jobs[0].id).state == "done"  # from memory
        finally:
            sched.shutdown()

    def test_cached_submits_beside_cold_batch_lose_no_counts(self, tmp_path):
        """HTTP threads recalling from the store while the scheduler
        thread misses and writes it: every counter update lands."""
        seeded = [{"benchmark": b, "memory": m}
                  for b in ("mcf", "leslie3d") for m in ("ddr3", "rl")]
        cold = [{"benchmark": b, "memory": "hmc_cwf"}
                for b in ("mcf", "leslie3d")] + [
            {"benchmark": "mcf", "memory": "rldram3"}]
        warm_cache(tmp_path, *seeded)
        sched = make_scheduler(tmp_path)
        per_thread = 25
        try:
            before = sched.metrics()
            cold_job = sched.submit({"specs": cold})
            states, errors = [], []

            def client(spec):
                try:
                    for _ in range(per_thread):
                        states.append(sched.submit({"specs": [spec]}).state)
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(spec,))
                       for spec in seeded]
            previous = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
            finally:
                sys.setswitchinterval(previous)
            assert not any(t.is_alive() for t in threads)
            assert sched.wait(cold_job.id, timeout=120).state == "done"
            after = sched.metrics()
        finally:
            sched.shutdown()
        assert errors == []
        cached = per_thread * len(seeded)
        assert states == ["done"] * cached

        def delta(name):
            return after[name] - before[name]

        assert delta("cache.hits") == delta("store.results.hits") == cached
        assert delta("cache.misses") == len(cold)
        assert delta("store.results.misses") == len(cold)
        assert delta("cache.writes") == len(cold)
        assert delta("store.results.writes") == len(cold)
        assert after["service.cached_specs"] == cached
        assert after["service.batches"] == 1


# ---------------------------------------------------------------------------
# HTTP front-end
# ---------------------------------------------------------------------------


@pytest.fixture
def service(tmp_path):
    """A paused scheduler behind a live server on an ephemeral port."""
    sched = make_scheduler(tmp_path, start=False, max_queue=4)
    server = make_server(sched, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}",
                           timeout_s=10)
    try:
        yield sched, client
    finally:
        server.shutdown()
        server.server_close()
        sched.shutdown()
        thread.join(timeout=5)


class TestHTTP:
    def test_healthz_and_metrics(self, service):
        sched, client = service
        health = client.health()
        assert health["status"] == "ok"
        assert health["queue_limit"] == 4
        metrics = client.metrics()
        assert metrics["service.jobs_submitted"] == 0
        assert "cache.quarantined" in metrics

    def test_unknown_paths_404(self, service):
        _, client = service
        for path in ("/nope", "/v1/jobs/j-missing"):
            with pytest.raises(ServiceError) as excinfo:
                client._get(path)
            assert excinfo.value.status == 404

    def test_invalid_submit_400(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"specs": [{"benchmark": "mcf",
                                      "memory": "ddr333"}]})
        assert excinfo.value.status == 400
        assert "ddr3" in excinfo.value.body["error"]

    def test_wrongly_typed_specs_400_and_connection_survives(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"specs": None})
        assert excinfo.value.status == 400
        assert "specs must be a list" in excinfo.value.body["error"]
        assert client.health()["status"] == "ok"

    def test_submit_poll_complete(self, service):
        sched, client = service
        job = client.submit({"specs": [SPEC_MCF_DDR3], "tag": "t1"})
        assert job["state"] == "queued"
        sched.start()
        done = client.wait(job["id"], poll_s=0.05, timeout_s=120)
        assert done["state"] == "done"
        assert done["tag"] == "t1"
        assert done["results"][0]["label"] == "mcf/ddr3"

    def test_concurrent_http_submits_coalesce(self, service):
        sched, client = service
        results, errors = [], []

        def post():
            try:
                results.append(client.submit({"specs": [SPEC_MCF_DDR3]}))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=post) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        sched.start()
        finished = [client.wait(job["id"], poll_s=0.05, timeout_s=120)
                    for job in results]
        assert all(job["state"] == "done" for job in finished)
        assert client.metrics()["service.simulated_specs"] == 1

    def test_cached_submit_replies_done(self, service, tmp_path):
        sched, client = service
        warm_cache(tmp_path, SPEC_MCF_DDR3)
        job = client.submit({"specs": [SPEC_MCF_DDR3]})
        assert job["state"] == "done"
        assert job["specs"][0]["cached"] is True
        assert job["results"][0]["label"] == "mcf/ddr3"
        assert client.job(job["id"])["state"] == "done"

    def test_draining_server_refuses_cached_submit_503(self, service,
                                                       tmp_path):
        sched, client = service
        warm_cache(tmp_path, SPEC_MCF_DDR3)
        sched.begin_drain()
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"specs": [SPEC_MCF_DDR3]})
        assert excinfo.value.status == 503

    def test_accepted_socket_sets_tcp_nodelay(self, service, monkeypatch):
        seen = []
        setup = JobRequestHandler.setup

        def spying_setup(handler):
            setup(handler)
            seen.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(JobRequestHandler, "setup", spying_setup)
        _, client = service
        client.health()
        assert len(seen) == 1 and seen[0] != 0

    @pytest.mark.parametrize("sent", [b"", b"GET /heal"],
                             ids=["idle", "half_request_line"])
    def test_silent_connection_is_closed(self, service, monkeypatch, sent):
        monkeypatch.setattr(http_module, "IDLE_TIMEOUT_S", 0.2)
        _, client = service
        host, port = client.url[len("http://"):].split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(sent)
            # The server gives up on the silent client and closes the
            # connection without a reply; with no timeout this recv
            # would wait out the client's own 10 s timeout and raise.
            assert sock.recv(1024) == b""
        # The server still answers well-behaved clients.
        assert client.health()["status"] == "ok"

    def test_backpressure_429_retry_after(self, service):
        sched, client = service
        for _ in range(4):  # fill the queue (limit 4, scheduler paused)
            client.submit({"specs": [SPEC_MCF_DDR3]})
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"specs": [SPEC_MCF_DDR3]})
        assert excinfo.value.status == 429
        # The client-side retry loop honours Retry-After once the
        # scheduler starts draining the queue.
        sched.start()
        job = client.submit({"specs": [SPEC_MCF_DDR3]}, retries=20,
                            backoff_s=0.1)
        assert client.wait(job["id"], poll_s=0.05,
                           timeout_s=120)["state"] == "done"


# ---------------------------------------------------------------------------
# Manifest quarantine
# ---------------------------------------------------------------------------


class TestQuarantine:
    def test_corrupt_manifest_quarantined_not_fatal(self, tmp_path):
        store = JobStore(str(tmp_path / "jobs"))
        path = store.directory / "j-torn0001.json"
        path.write_text('{"id": "j-torn0001", "state": "queu')  # torn write
        assert store.load("j-torn0001") is None
        assert not path.exists()
        assert path.with_suffix(".json.corrupt").exists()
        assert store.counters["manifests_quarantined"] == 1
        # The quarantined file no longer matches the manifest glob, so
        # listings and restart recovery skip it without re-tripping.
        assert store.job_ids() == []
        assert store.unfinished() == []

    def test_non_dict_manifest_quarantined(self, tmp_path):
        store = JobStore(str(tmp_path / "jobs"))
        (store.directory / "j-list0001.json").write_text('[1, 2, 3]')
        assert store.load("j-list0001") is None
        assert (store.directory / "j-list0001.json.corrupt").exists()

    def test_schema_drift_manifest_quarantined(self, tmp_path):
        store = JobStore(str(tmp_path / "jobs"))
        (store.directory / "j-drift001.json").write_text(
            '{"schema": 99, "payload": "from-the-future"}')
        assert store.load("j-drift001") is None
        assert store.counters["manifests_quarantined"] == 1

    def test_healthy_manifest_untouched(self, tmp_path):
        config = make_config(tmp_path)
        store = JobStore(str(tmp_path / "jobs"))
        job = parse_request({"specs": [SPEC_MCF_DDR3]}, config)
        store.save(job)
        assert store.load(job.id).id == job.id
        assert store.counters["manifests_quarantined"] == 0

    def test_quarantine_count_in_metrics(self, tmp_path):
        sched = make_scheduler(tmp_path, start=False)
        try:
            assert sched.metrics()["service.manifests_quarantined"] == 0
            (sched.store.directory / "j-bad00001.json").write_text("{nope")
            sched.store.load("j-bad00001")
            assert sched.metrics()["service.manifests_quarantined"] == 1
        finally:
            sched.shutdown()


# ---------------------------------------------------------------------------
# Signal handling: graceful drain vs forced exit
# ---------------------------------------------------------------------------


SERVE_VICTIM = r"""
import sys, time
from repro.experiments.runner import ExperimentConfig
from repro.service import JobScheduler, JobStore, make_server, \
    serve_until_signal

state_dir, mode = sys.argv[1], sys.argv[2]
config = ExperimentConfig(target_dram_reads=60, benchmarks=("mcf",),
                          cache_dir=None)
sched = JobScheduler(config, store=JobStore(state_dir), jobs=1,
                     start=False)
if mode == "block":
    sched.shutdown = lambda: time.sleep(120)  # a drain that never ends
server = make_server(sched, port=0)
print("ready", server.server_address[1], flush=True)
sys.exit(serve_until_signal(server, sched))
"""


class TestServeSignals:
    def _spawn(self, tmp_path, mode):
        import os
        import subprocess
        import sys

        script = tmp_path / "victim.py"
        script.write_text(SERVE_VICTIM)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            __import__("pathlib").Path(__file__).resolve().parent.parent
            / "src")
        proc = subprocess.Popen(
            [sys.executable, str(script), str(tmp_path / "jobs"), mode],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, text=True)
        line = proc.stdout.readline().split()
        assert line and line[0] == "ready"
        # Wait for the accept loop: a served /healthz means
        # serve_until_signal has installed its signal handlers, so a
        # SIGTERM sent now cannot race the default (kill) disposition.
        import time
        import urllib.request
        deadline = time.monotonic() + 30
        while True:
            try:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{line[1]}/healthz", timeout=1).read()
                break
            except OSError:
                assert time.monotonic() < deadline, "server never came up"
                time.sleep(0.05)
        return proc

    def test_single_sigterm_drains_and_exits_zero(self, tmp_path):
        import signal

        proc = self._spawn(tmp_path, "clean")
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0

    def test_second_sigterm_forces_nonzero_exit(self, tmp_path):
        import signal
        import time

        from repro.service import FORCED_EXIT_CODE

        proc = self._spawn(tmp_path, "block")
        proc.send_signal(signal.SIGTERM)
        time.sleep(1.0)  # first handler fires; the drain is now stuck
        assert proc.poll() is None  # still draining (blocked)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == FORCED_EXIT_CODE
