"""The service's scheduler: bounded queue → coalescer → executor → store.

One :class:`JobScheduler` owns a persistent
:class:`~repro.experiments.executor.ParallelExecutor` (the worker pool
spins up once and serves every submission) and a background thread that
drains a bounded job queue:

* **Backpressure** — :meth:`submit` refuses work beyond ``max_queue``
  with :class:`QueueFull` (the HTTP layer maps it to 429 +
  ``Retry-After``), so a traffic burst degrades into client retries
  instead of an unbounded memory footprint.
* **Coalescing** — every spec slot is keyed by its v8 cache key. A key
  already wanted by a queued/running job, or already resolved in the
  result cache, is marked coalesced/cached at submit time; the batch
  builder dedupes keys across jobs so N clients asking for the same
  simulation pay for exactly one run, and every waiter is fanned the
  shared result.
* **Cached fast path** — a job whose every key is marked cached never
  queues: :meth:`submit` recalls the results on the HTTP thread,
  finishes the job, and saves one ``done`` manifest before replying.
  It takes no queue slot, so it is never refused with 429.
* **Batching** — the drain loop pops *every* queued job that shares the
  front job's resolved config and submits their deduped spec union as
  one executor call, so the pool stays saturated across job boundaries.
* **Resilience** — the executor runs with ``keep_going=True`` and the
  config's :class:`~repro.experiments.resilience.RetryPolicy`: a
  crashed or hung worker is retried per spec, and only a spec that
  exhausts its retries fails the *job* (never the server).
* **Durability** — jobs persist in the
  :class:`~repro.service.store.JobStore` at every state change;
  :meth:`recover` re-queues whatever a dead server left behind, and
  completed specs are recalled from the result cache instead of
  recomputed.

:meth:`shutdown` drains in-flight work: the running batch finishes and
persists, queued jobs stay ``queued`` in the store for the next server.
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import asdict, replace
from typing import Deque, Dict, List, Optional, Tuple

from repro.experiments.executor import ParallelExecutor, may_recall
from repro.experiments.resilience import FailedRun, is_valid_result
from repro.experiments.specs import RunSpec, spec_cache_key
from repro.service.jobs import DONE, FAILED, QUEUED, RUNNING, Job
from repro.service.store import JobStore
from repro.telemetry.session import Counters

DEFAULT_MAX_QUEUE = 32


class QueueFull(RuntimeError):
    """The bounded job queue is at capacity; retry after a beat."""

    def __init__(self, depth: int, limit: int,
                 retry_after_s: float = 1.0) -> None:
        self.depth = depth
        self.limit = limit
        self.retry_after_s = retry_after_s
        super().__init__(
            f"job queue is full ({depth}/{limit} queued); "
            f"retry in {retry_after_s:g}s")


class SchedulerStopped(RuntimeError):
    """Submissions after shutdown began; maps to HTTP 503."""


class JobScheduler:
    """Owns the queue, the coalescing map, and the persistent executor."""

    def __init__(self, config, store: Optional[JobStore] = None,
                 executor: Optional[ParallelExecutor] = None,
                 max_queue: int = DEFAULT_MAX_QUEUE,
                 jobs: Optional[int] = None,
                 start: bool = True,
                 recover: bool = True) -> None:
        self.config = config
        self.store = store if store is not None else JobStore()
        self.executor = executor if executor is not None else ParallelExecutor(
            config, jobs=jobs, persistent=True, keep_going=True)
        self.max_queue = max_queue
        self.started_unix = time.time()
        self.counters = Counters((
            "jobs_submitted", "jobs_completed", "jobs_failed",
            "jobs_rejected", "jobs_recovered",
            "coalesced_specs", "cached_specs", "simulated_specs",
            "batches", "manifest_save_errors"))
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._queue: Deque[str] = deque()
        self._jobs: Dict[str, Job] = {}
        # Refcount of spec cache keys across queued + running jobs: the
        # coalescing map consulted at submit time.
        self._wanted: Dict[str, int] = {}
        self._thread: Optional[threading.Thread] = None
        if recover:
            self.recover()
        if start:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-scheduler", daemon=True)
        self._thread.start()

    def begin_drain(self) -> None:
        """Refuse new submissions; the loop exits after its batch."""
        self._stop.set()
        self._wake.set()

    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Graceful drain: finish the in-flight batch, persist, stop.

        Jobs still queued when the loop exits remain ``queued`` in the
        store and are recovered by the next server. Safe to call twice.
        """
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        self.executor.shutdown()

    def recover(self) -> int:
        """Re-enqueue queued/running jobs a previous server left behind."""
        recovered = 0
        for job in self.store.unfinished():
            job_config = job.job_config(self.config)
            for entry in job.entries:
                # Keys are recomputed (not trusted from disk): a server
                # restarted with a different seed or read target must
                # coalesce against its *own* key space.
                entry.key = spec_cache_key(entry.spec, job_config)
            self._enqueue(job, recovered=True)
            recovered += 1
        return recovered

    # ------------------------------------------------------------------
    # Submission path (HTTP threads)
    # ------------------------------------------------------------------

    def submit(self, payload: object) -> Job:
        """Validate, coalesce-tag, and either finish or enqueue a job.

        A job whose every spec is already in the result cache is served
        on the calling thread: recalled, finished, and saved once as
        ``done`` before this returns, without a queue slot. Any other
        job is queued and persisted for the scheduler thread.

        Raises :class:`~repro.service.jobs.JobValidationError` (400),
        :class:`QueueFull` (429), or :class:`SchedulerStopped` (503).
        """
        from repro.service.jobs import parse_request

        if self._stop.is_set():
            raise SchedulerStopped("server is draining; resubmit elsewhere")
        job = parse_request(payload, self.config)
        job_config = job.job_config(self.config)
        for entry in job.entries:
            entry.key = spec_cache_key(entry.spec, job_config)
        self._enqueue(job)
        return job

    def _enqueue(self, job: Job, recovered: bool = False) -> None:
        with self._lock:
            fully_cached = self._tag(job) and not recovered
            if (not fully_cached and not recovered
                    and len(self._queue) >= self.max_queue):
                self._release(job)
                self.counters.incr("jobs_rejected")
                # Rough service-time hint: one beat per queued job.
                raise QueueFull(len(self._queue), self.max_queue,
                                retry_after_s=max(1.0,
                                                  0.1 * len(self._queue)))
            self.counters.merge({
                "coalesced_specs": job.coalesced_specs,
                "cached_specs": job.cached_specs,
                "jobs_recovered" if recovered else "jobs_submitted": 1})
            if not fully_cached:
                self._push(job)
        if fully_cached:
            if self._finish_from_cache(job):
                return
            # An entry was evicted between the tag and the read: the
            # job takes the queue path after all. It was admitted
            # without a queue slot, so it is not refused now.
            with self._lock:
                self._push(job)
        self._save(job)
        self._wake.set()

    def _tag(self, job: Job) -> bool:
        """Flag each entry coalesced or cached and take its refcount.

        Lock held by the caller. Returns True when every entry is
        already in the result cache and the executor would recall it
        (:func:`~repro.experiments.executor.may_recall`), so the job
        needs no simulation.
        """
        recall = may_recall(job.job_config(self.config))
        for entry in job.entries:
            entry.coalesced = entry.key in self._wanted
            if not entry.coalesced:
                entry.cached = recall and self.executor.cache.contains(
                    entry.key)
            self._wanted[entry.key] = self._wanted.get(entry.key, 0) + 1
        return all(entry.cached for entry in job.entries)

    def _push(self, job: Job) -> None:
        """Append ``job`` to the queue (lock held by the caller)."""
        job.state = QUEUED
        self._jobs[job.id] = job
        self._queue.append(job.id)

    def _finish_from_cache(self, job: Job) -> bool:
        """Recall every entry and finish ``job`` on the calling thread.

        Returns False, with the job still unfinished, if an entry has
        left the store since it was tagged.
        """
        results: Dict[RunSpec, object] = {}
        for entry in job.entries:
            result = self.executor.cache.get(entry.key)
            if result is None:
                return False
            results[entry.spec] = result
        job.started_unix = time.time()
        self._finish_job(job, job.job_config(self.config), results)
        with self._lock:
            self._jobs[job.id] = job
        self._gc_manifests()
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is not None:
            return job
        return self.store.load(job_id)  # finished before this process

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def wait(self, job_id: str, timeout: Optional[float] = None,
             poll_s: float = 0.02) -> Job:
        """Block until ``job_id`` reaches a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            job = self.get(job_id)
            if job is None:
                raise KeyError(f"unknown job {job_id!r}")
            if job.done:
                return job
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job.state} after {timeout:g}s")
            time.sleep(poll_s)

    def health(self) -> dict:
        with self._lock:
            depth = len(self._queue)
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        return {
            "status": "draining" if self._stop.is_set() else "ok",
            "uptime_s": round(time.time() - self.started_unix, 3),
            "queue_depth": depth,
            "queue_limit": self.max_queue,
            "jobs": states,
        }

    def metrics(self) -> dict:
        """Telemetry snapshot for ``GET /metrics``."""
        health = self.health()
        service = {f"service.{name}": value
                   for name, value in sorted({
                       **self.counters.snapshot(),
                       **self.store.counters.snapshot()}.items())}
        executor = {f"executor.{name}": value
                    for name, value in sorted(
                        self.executor.counters.snapshot().items())}
        cache_stats = self.executor.cache.stats()
        cache = {f"cache.{name}": value
                 for name, value in sorted(cache_stats.items())
                 if name != "directory"}
        # Artifact-store tiers (results CAS + manifest FileStore):
        # entries/bytes/budget plus hit/miss/evict/quarantine counters,
        # flattened as store.<tier>.<name>.
        store: Dict[str, object] = {}
        for tier_stats in (self.executor.cache.store_stats(),
                           self.store.store_stats()):
            if not tier_stats:
                continue
            tier = tier_stats["tier"]
            store.update({f"store.{tier}.{name}": value
                          for name, value in sorted(tier_stats.items())
                          if name not in ("tier", "directory")})
        return {
            "uptime_s": health["uptime_s"],
            "queue_depth": health["queue_depth"],
            "queue_limit": health["queue_limit"],
            "jobs": health["jobs"],
            "workers": self.executor.jobs,
            **service, **executor, **cache, **store,
        }

    # ------------------------------------------------------------------
    # Drain loop (scheduler thread)
    # ------------------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(timeout=0.2)
            self._wake.clear()
            self._drain()
        # Graceful stop: whatever _drain left queued stays persisted for
        # the next server; the batch that was running has completed.

    def _drain(self) -> None:
        while not self._stop.is_set():
            batch = self._next_batch()
            if batch is None:
                return
            config, group = batch
            try:
                self._run_batch(config, group)
            except Exception as exc:  # scheduler thread must survive
                self._fail_batch(group, exc)

    def _next_batch(self) -> Optional[Tuple[object, List[Job]]]:
        """Pop every queued job compatible with the front job's config."""
        with self._lock:
            if not self._queue:
                return None
            front = self._jobs[self._queue[0]]
            config = front.job_config(self.config)
            group: List[Job] = []
            deferred: Deque[str] = deque()
            while self._queue:
                job_id = self._queue.popleft()
                job = self._jobs[job_id]
                if job.job_config(self.config) == config:
                    group.append(job)
                else:
                    deferred.append(job_id)
            self._queue = deferred
            now = time.time()
            for job in group:
                job.state = RUNNING
                job.started_unix = now
        for job in group:
            self._save(job)
        return config, group

    def _run_batch(self, config, group: List[Job]) -> None:
        # Union of the group's specs, deduped by cache key: the second
        # client's identical fig-3 submission adds zero new work here.
        union: List[RunSpec] = []
        seen: set = set()
        for job in group:
            for entry in job.entries:
                if entry.key not in seen:
                    seen.add(entry.key)
                    union.append(entry.spec)
        self.counters.incr("batches")
        timings_before = len(self.executor.timings)
        results = self.executor.run(union, config=config)
        simulated = sum(
            1 for t in self.executor.timings[timings_before:]
            if not t["cached"] and t["status"] in ("ok", "degraded"))
        self.counters.incr("simulated_specs", simulated)
        for job in group:
            self._finish_job(job, config, results)
        self._post_batch_gc()

    def _post_batch_gc(self) -> None:
        """Re-bound the budgeted tiers after a batch lands.

        Worker puts auto-gc inside their own processes, but the parent's
        usage estimate goes stale across a batch; one gc here keeps the
        on-disk size honest at job granularity. Tiers without a budget
        are left alone (gc would still sweep, but there is nothing to
        bound and suite latency matters).
        """
        cache_store = self.executor.cache.store
        if cache_store is not None and cache_store.budget_bytes is not None:
            cache_store.gc()
        self._gc_manifests()

    def _gc_manifests(self) -> None:
        if self.store.file_store.budget_bytes is not None:
            self.store.gc()

    def _save(self, job: Job) -> None:
        """Persist ``job``'s manifest; a failed save is counted, not raised.

        The in-memory job stays authoritative while this process lives
        (``get`` reads it first), so a failed save costs the job its
        survival across a restart, never its result, and never kills
        the scheduler thread.
        """
        try:
            self.store.save(job)
        except Exception:
            self.counters.incr("manifest_save_errors")
            print(f"[scheduler] saving job {job.id} ({job.state}) failed:",
                  file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    def _finish_job(self, job: Job, config,
                    results: Dict[RunSpec, object]) -> None:
        rows: List[dict] = []
        failures: List[dict] = []
        for entry in job.entries:
            result = results.get(entry.spec)
            if is_valid_result(result):
                entry.state = "done"
                row = {"label": entry.spec.label, "key": entry.key,
                       "throughput": result.throughput}
                row.update(asdict(result))
                rows.append(row)
            else:
                entry.state = "failed"
                failed = result if isinstance(result, FailedRun) else None
                failures.append({
                    "label": entry.spec.label,
                    "kind": failed.kind if failed else "missing-result",
                    "attempts": failed.attempts if failed else 0,
                    "error": failed.error if failed
                    else "executor returned no result for this spec",
                })
        job.results = rows
        job.failures = failures
        job.error = ""
        if job.experiment and not failures:
            try:
                from repro.experiments import ALL_EXPERIMENTS
                table = ALL_EXPERIMENTS[job.experiment](config,
                                                        results=results)
                job.table = table.format()
            except Exception as exc:
                job.error = (f"rendering {job.experiment} failed: "
                             f"{type(exc).__name__}: {exc}")
        self._settle(job, FAILED if (failures or job.error) else DONE)

    def _fail_batch(self, group: List[Job], exc: Exception) -> None:
        for job in group:
            job.error = f"{type(exc).__name__}: {exc}"
            self._settle(job, FAILED)

    def _settle(self, job: Job, state: str) -> None:
        """Save ``job`` in terminal ``state``, then publish that state.

        The manifest is written first, from a copy that already carries
        ``state``, so nothing that reads the job in memory (``wait``,
        ``GET /v1/jobs/<id>``) can see it finished before its manifest
        does: a restart never re-queues a job a client saw finish. Both
        steps hold the job's save lock, so a save of the old state from
        another thread cannot land between them.
        """
        job.finished_unix = time.time()
        with self._lock:
            self._release(job)
            self.counters.incr("jobs_failed" if state == FAILED
                               else "jobs_completed")
        with self.store.save_lock(job.id):
            self._save(replace(job, state=state))
            job.state = state

    def _release(self, job: Job) -> None:
        """Drop the job's coalescing refcounts (lock held by caller)."""
        for entry in job.entries:
            count = self._wanted.get(entry.key, 0) - 1
            if count > 0:
                self._wanted[entry.key] = count
            else:
                self._wanted.pop(entry.key, None)
