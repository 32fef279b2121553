"""Parallel scheduler for :class:`~repro.experiments.specs.RunSpec` lists.

The figure modules declare *what* to simulate; this module decides
*how*: recall from the disk cache, run in-process (``jobs=1``, fully
deterministic, the default), or fan out over a
``concurrent.futures.ProcessPoolExecutor``. The worker count comes from
an explicit ``jobs`` argument, else ``ExperimentConfig.jobs``;
``0``/negative means "one worker per CPU". Every other run knob rides
in the config, which each task pickles to its worker. Parallel and
serial execution produce byte-identical tables for the same seed —
results are keyed by spec, so completion order
never leaks into table order, and every simulation is deterministic
given its config. Pending specs are grouped by the simulation they
read (:func:`~repro.experiments.specs.base_spec`: a view and its base
share one), and each group runs as one task that simulates once.

Failure handling (see :mod:`repro.experiments.resilience`): every
attempt that crashes, times out, breaks the pool, or returns a corrupt
result is classified and retried under the executor's
:class:`~repro.experiments.resilience.RetryPolicy` (bounded retries,
exponential backoff with deterministic jitter). A ``BrokenProcessPool``
no longer aborts the suite — the pool is respawned and in-flight specs
resubmitted; a spec past its per-spec timeout (counted from when a
worker takes it, not from submission) tears the (uncancellable)
pool down, charges only the overdue spec an attempt, and resubmits the
collateral in-flight specs for free. Exhausted specs can optionally
degrade to one in-process serial run as a last resort; with
``keep_going`` a still-failing spec is recorded as a
:class:`~repro.experiments.resilience.FailedRun` sentinel (its table
cells render as ``—``) instead of raising
:class:`~repro.experiments.resilience.SuiteError`. ``Ctrl-C`` cancels
outstanding futures and terminates workers instead of stranding them.

Workers return picklable :class:`~repro.sim.system.SimResult` records
plus their telemetry (run summaries, trace events, and counters), which
the parent merges into the active
:class:`~repro.telemetry.session.TelemetrySession`. Workers also write
their results straight into the shared
:class:`~repro.experiments.runner.ResultCache` (safe for concurrent
writers) so a crashed suite still persists completed runs — re-running
the same suite resumes from those entries.

Long-lived callers (the ``repro serve`` job server, notebooks) can
construct the executor with ``persistent=True``: the process pool then
survives across :meth:`ParallelExecutor.run` calls — submissions after
the first skip pool spin-up entirely — and :meth:`run` accepts a
per-call ``config`` so one pool serves jobs with different run scales.
Call :meth:`ParallelExecutor.shutdown` (or use the executor as a
context manager) to release the workers. The worker count is resolved
once at construction; assigning :attr:`ParallelExecutor.jobs` while
the pool is live raises instead of being silently ignored.
"""

from __future__ import annotations

import concurrent.futures
import os
import sys
import time
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.resilience import (
    BROKEN_POOL,
    CORRUPT_RESULT,
    TIMEOUT,
    FailedRun,
    RetryPolicy,
    SuiteError,
    classify_failure,
    is_valid_result,
)
from repro.experiments.specs import (
    RunSpec,
    base_spec,
    execute_spec,
    spec_cache_key,
)
from repro.sanitizer import MODE_OFF
from repro.sim.system import SimResult
from repro.telemetry.session import (
    Counters,
    TelemetrySession,
    activate,
    active_session,
    deactivate,
)


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: ``jobs``, 1 (serial) when None, one per CPU when
    zero or negative."""
    if jobs is None:
        return 1
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def may_recall(config) -> bool:
    """Whether a run under ``config`` may take its result from the
    cache. A recalled result has no telemetry to contribute and was
    never sanitized, so an active session or a sanitized config forces
    real runs."""
    return active_session() is None and config.sanitize == MODE_OFF


#: Per-slot start times of in-flight pool tasks, stamped by the worker
#: that takes the task (0.0 = not started yet). Installed in each
#: worker by the pool initializer; the parent reads its own handle.
_TASK_STARTS = None

# How often the parent looks for newly started tasks while a per-spec
# timeout is armed and some in-flight task has not started yet.
_START_POLL_S = 0.05


def _init_worker(starts) -> None:
    global _TASK_STARTS
    _TASK_STARTS = starts


def _execute_group(members: Sequence[RunSpec], config,
                   attempt: int) -> List[tuple]:
    """Run the members of one group over a single shared simulation.

    Returns one ``(outcome, seconds, shared_with)`` per member, in
    order: ``outcome`` is the member's result or the exception its
    :func:`execute_spec` raised, ``seconds`` its own wall time, and
    ``shared_with`` the label of the member whose run this one read
    (None when it ran its own simulation). A member that fails leaves
    the others alone.
    """
    shared: Optional[Dict[RunSpec, tuple]] = {} if len(members) > 1 else None
    owner: Optional[str] = None
    out: List[tuple] = []
    for spec in members:
        reused = owner
        start = time.perf_counter()
        try:
            outcome = execute_spec(spec, config, attempt=attempt,
                                   shared=shared)
        except Exception as exc:
            outcome = exc
        if owner is None and shared:
            owner = spec.label
        out.append((outcome, time.perf_counter() - start, reused))
    return out


def _worker_execute(members: Sequence[RunSpec], config,
                    telemetry_opts: Optional[dict],
                    attempt: int, slot: int):
    """Process-pool entry point: run one group, return picklable results.

    The first thing a worker does with a task is stamp its start in
    ``slot``, so the task's timeout and timing start here, not when the
    parent queued it. Imports inside the function make sure a fresh
    worker registers the named runners before resolving them, and each
    worker gets its own telemetry session (the parent merges the
    returned records). ``attempt`` feeds the fault-injection plan.
    """
    _TASK_STARTS[slot] = time.monotonic()
    import repro.experiments  # noqa: F401  (populate the runner registry)
    from repro.experiments.runner import ResultCache

    session = None
    if telemetry_opts is not None:
        session = activate(TelemetrySession(**telemetry_opts))
    try:
        outcomes = _execute_group(members, config, attempt)
        # Under the worker's session, so the cache and store counts
        # reach the parent's as a serial run's do.
        cache = ResultCache(config.cache_dir,
                            budget_bytes=config.cache_budget_bytes)
        for spec, (outcome, _seconds, _shared) in zip(members, outcomes):
            if is_valid_result(outcome):
                cache.put(spec_cache_key(spec, config), outcome)
    finally:
        if session is not None:
            deactivate()
    runs: List[dict] = session.runs if session is not None else []
    trace_events: List[dict] = []
    if session is not None:
        for tracer in session._tracers:
            trace_events.extend(tracer.events)
    counters = session.counters.snapshot() if session else {}
    return outcomes, runs, trace_events, counters


def group_by_simulation(specs: Sequence[RunSpec]
                        ) -> List[Tuple[RunSpec, ...]]:
    """``specs`` grouped by the simulation they read, in first-seen order.

    A group's base spec, when it is a member, comes first, so it runs
    the simulation and the views read it.
    """
    groups: Dict[RunSpec, List[RunSpec]] = {}
    for spec in specs:
        groups.setdefault(base_spec(spec), []).append(spec)
    return [tuple(sorted(members, key=lambda spec: spec != base))
            for base, members in groups.items()]


class ParallelExecutor:
    """Runs a deduped spec list, returning ``{spec: SimResult}``.

    ``progress=True`` emits one stderr line per completed spec (label,
    wall time, cached/ran/failed); the same records accumulate in
    :attr:`timings` for ``--timings-json`` artifacts. Resilience knobs
    default from the config (``retries``/``timeout_s``/``keep_going``/
    ``degrade_serial`` fields) but can be overridden per executor; the
    :attr:`failures` list collects every
    :class:`~repro.experiments.resilience.FailedRun` recorded under
    ``keep_going`` for the failure appendix.
    """

    def __init__(self, config, jobs: Optional[int] = None,
                 progress: bool = False,
                 policy: Optional[RetryPolicy] = None,
                 keep_going: Optional[bool] = None,
                 degrade_serial: Optional[bool] = None,
                 persistent: bool = False) -> None:
        from repro.experiments.runner import ResultCache

        self.config = config
        # Resolved exactly once, at construction: a live pool is sized
        # from this.
        self._jobs = resolve_jobs(jobs if jobs is not None else config.jobs)
        self.persistent = persistent
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._starts = None  # the live pool's task-start slots
        self.progress = progress
        self.cache = ResultCache(config.cache_dir,
                                 budget_bytes=config.cache_budget_bytes)
        self.timings: List[dict] = []
        self.policy = policy if policy is not None else RetryPolicy(
            max_retries=config.retries, timeout_s=config.timeout_s)
        self.keep_going = (keep_going if keep_going is not None
                           else config.keep_going)
        self.degrade_serial = (degrade_serial if degrade_serial is not None
                               else config.degrade_serial)
        self.failures: List[FailedRun] = []
        # Retries and failures by kind, also added to any active
        # telemetry session under the same names.
        self.counters = Counters(session_prefix="")

    # ------------------------------------------------------------------
    # Worker-count property: reconfiguring a live pool is an error
    # ------------------------------------------------------------------

    @property
    def jobs(self) -> int:
        return self._jobs

    @jobs.setter
    def jobs(self, value: Optional[int]) -> None:
        if self._pool is not None:
            raise RuntimeError(
                "cannot reconfigure jobs on a live worker pool: the pool "
                f"was spawned with {self._jobs} worker(s); call shutdown() "
                "first, then set jobs (or construct a new executor)")
        self._jobs = resolve_jobs(value)

    # ------------------------------------------------------------------
    # Persistent-pool lifecycle
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Release the persistent worker pool (idempotent)."""
        self._teardown(kill=False)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _teardown(self, kill: bool) -> None:
        if self._pool is None:
            return
        if kill:
            # ProcessPoolExecutor cannot cancel a *running* future;
            # terminating the workers is the only way to reclaim a
            # hung or obsolete pool promptly.
            for proc in list((getattr(self._pool, "_processes", None)
                              or {}).values()):
                try:
                    proc.terminate()
                except (OSError, AttributeError) as exc:
                    # A worker we cannot terminate may outlive the
                    # suite — say so instead of swallowing the error.
                    self.counters.incr("resilience.terminate_errors")
                    print(f"[executor] could not terminate worker "
                          f"{getattr(proc, 'pid', '?')}: {exc}",
                          file=sys.stderr)
        self._pool.shutdown(wait=True, cancel_futures=True)
        self._pool = None
        self._starts = None

    # ------------------------------------------------------------------

    def run(self, specs: Sequence[RunSpec],
            config=None) -> Dict[RunSpec, SimResult]:
        """Resolve ``specs``, recalling from cache and running the rest.

        Pending specs are grouped by the simulation they read
        (:func:`group_by_simulation`), and each group is one task: it
        simulates once, hands each member its own copy of the result
        (a view's with its ``extra`` applied), and writes each member's
        cache entry under the member's own key. Retries, timeouts and
        :class:`FailedRun` apply per member; a member that fails is
        retried on its own.

        ``config`` overrides the constructor's
        :class:`~repro.experiments.runner.ExperimentConfig` for this
        call only (persistent-pool callers submit jobs with different
        run scales through one pool); cache entries always live under
        the constructor config's cache directory.
        """
        config = config if config is not None else self.config
        ordered = list(dict.fromkeys(specs))  # dedupe, keep declared order
        session = active_session()
        results: Dict[RunSpec, SimResult] = {}
        pending: List[RunSpec] = []
        recall = may_recall(config)
        for spec in ordered:
            cached = (self.cache.get(spec_cache_key(spec, config))
                      if recall else None)
            if cached is not None:
                results[spec] = cached
                self._record(spec, 0.0, cached=True)
            else:
                pending.append(spec)
        if not pending:
            return results
        tasks = deque((members, 1) for members in group_by_simulation(pending))
        if self._jobs == 1:
            self._run_serial(tasks, results, config)
        else:
            self._run_parallel(tasks, results, session, config)
        return results

    # ------------------------------------------------------------------

    def _run_serial(self, tasks: deque, results: Dict[RunSpec, SimResult],
                    config) -> None:
        """Deterministic in-process execution (``jobs=1``).

        Runs under the parent's telemetry session, exactly like the
        pre-pipeline harness did. Retries and failure classification
        apply as in the parallel path; per-spec timeouts do *not* — a
        running in-process simulation cannot be interrupted, so
        deadline enforcement needs ``jobs >= 2``.
        """
        while tasks:
            members, attempt = tasks.popleft()
            if attempt > 1:
                time.sleep(self.policy.backoff_s(attempt - 1,
                                                 members[0].label))
            outcomes = _execute_group(members, config, attempt)
            self._settle(members, attempt, outcomes, results, config, tasks,
                         store=True)

    # ------------------------------------------------------------------

    def _spawn_pool(self, width: int) -> None:
        # Imported here, like the pool's own process module, so that
        # importing the experiments package stays cheap.
        from multiprocessing import RawArray

        # Two slots per worker keep a task queued behind every running
        # one, so no worker waits on the parent between tasks.
        self._starts = RawArray("d", 2 * width)
        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=width, initializer=_init_worker,
            initargs=(self._starts,))

    def _run_parallel(self, tasks: deque,
                      results: Dict[RunSpec, SimResult],
                      session: Optional[TelemetrySession],
                      config) -> None:
        telemetry_opts = None
        if session is not None:
            telemetry_opts = {
                "trace_enabled": session.trace_enabled,
                "cpu_freq_ghz": session.cpu_freq_ghz,
                "sample_interval": session.sample_interval,
            }
        timeout_s = self.policy.timeout_s
        # future -> (members, attempt, slot); a task's slot holds the
        # time a worker took it, which is where its deadline and its
        # recorded seconds start.
        futures: Dict[concurrent.futures.Future, tuple] = {}

        def requeue_collateral() -> None:
            """Resubmit in-flight tasks a teardown aborted, for free."""
            for members, attempt, _slot in futures.values():
                tasks.append((members, attempt))
            futures.clear()

        def ran_for(slot: int, now: float) -> float:
            start = self._starts[slot]
            return now - start if start else 0.0

        try:
            while tasks or futures:
                if self._pool is None:
                    # A persistent pool is sized for the full worker
                    # count so later (possibly larger) submissions are
                    # not capped by the first batch's size.
                    width = (self._jobs if self.persistent
                             else min(self._jobs,
                                      max(1, len(tasks) + len(futures))))
                    self._spawn_pool(width)
                busy = {slot for (_, _, slot) in futures.values()}
                free = [slot for slot in range(len(self._starts))
                        if slot not in busy]
                while tasks and free:
                    members, attempt = tasks.popleft()
                    if attempt > 1:
                        time.sleep(self.policy.backoff_s(
                            attempt - 1, members[0].label))
                    slot = free.pop()
                    self._starts[slot] = 0.0
                    future = self._pool.submit(_worker_execute, members,
                                               config, telemetry_opts,
                                               attempt, slot)
                    futures[future] = (members, attempt, slot)
                wait_s = None
                if timeout_s is not None:
                    # Wake for the nearest deadline; an unstarted task
                    # has none yet, so poll for its start.
                    now = time.monotonic()
                    wait_s = max(_START_POLL_S, min(
                        timeout_s - ran_for(slot, now)
                        if self._starts[slot] else 0.0
                        for (_, _, slot) in futures.values()))
                done, _ = concurrent.futures.wait(
                    futures, timeout=wait_s,
                    return_when=concurrent.futures.FIRST_COMPLETED)
                broken = False
                for future in done:
                    members, attempt, slot = futures.pop(future)
                    elapsed = ran_for(slot, time.monotonic())
                    try:
                        outcomes, runs, trace_events, counters = (
                            future.result())
                    except concurrent.futures.CancelledError:
                        tasks.append((members, attempt))
                        continue
                    except Exception as exc:
                        kind = classify_failure(exc)
                        broken = broken or kind == BROKEN_POOL
                        self._fail_task(members, attempt, kind, exc,
                                        elapsed, results, config, tasks)
                        continue
                    if session is not None:
                        session.ingest(runs, trace_events, counters)
                    self._settle(members, attempt, outcomes, results,
                                 config, tasks, store=False)
                if broken:
                    # Every other future on a broken pool is doomed too:
                    # charge nobody, resubmit on a fresh pool.
                    requeue_collateral()
                    self._teardown(kill=True)
                    continue
                if timeout_s is not None and futures:
                    now = time.monotonic()
                    overdue = [f for f, (_, _, slot) in futures.items()
                               if ran_for(slot, now) >= timeout_s]
                    if overdue:
                        error = TimeoutError(
                            f"exceeded per-spec timeout of {timeout_s:g}s")
                        for future in overdue:
                            members, attempt, slot = futures.pop(future)
                            self._fail_task(members, attempt, TIMEOUT, error,
                                            ran_for(slot, now), results,
                                            config, tasks)
                        # A running future cannot be cancelled: tear the
                        # pool down (killing the hung worker) and rerun
                        # the innocent in-flight tasks at no retry cost.
                        requeue_collateral()
                        self._teardown(kill=True)
        except KeyboardInterrupt:
            # Ctrl-C: drop queued work, cancel what we can, terminate
            # workers so no orphan processes outlive the suite.
            for future in futures:
                future.cancel()
            self._teardown(kill=True)
            raise
        except Exception:
            for future in futures:
                future.cancel()
            self._teardown(kill=True)
            raise
        finally:
            if not self.persistent:
                self._teardown(kill=False)

    # ------------------------------------------------------------------
    # Failure bookkeeping
    # ------------------------------------------------------------------

    def _settle(self, members: Sequence[RunSpec], attempt: int,
                outcomes: Sequence[tuple],
                results: Dict[RunSpec, SimResult], config, tasks: deque,
                store: bool) -> None:
        """Record one finished task's member outcomes.

        A valid result lands in ``results`` (and in the cache when
        ``store``; pool workers have already written theirs); anything
        else is a failed attempt of that member alone, which is queued
        on ``tasks`` as a task of its own when it has retries left.
        """
        for spec, (outcome, seconds, shared_with) in zip(members, outcomes):
            if is_valid_result(outcome):
                if store:
                    self.cache.put(spec_cache_key(spec, config), outcome)
                results[spec] = outcome
                self._record(spec, seconds, cached=False, attempt=attempt,
                             shared_with=shared_with)
                continue
            if isinstance(outcome, Exception):
                error, kind = outcome, classify_failure(outcome)
            else:
                error = TypeError(f"run returned {type(outcome).__name__}, "
                                  "not SimResult")
                kind = CORRUPT_RESULT
            self._fail_task((spec,), attempt, kind, error, seconds, results,
                            config, tasks)

    def _fail_task(self, members: Sequence[RunSpec], attempt: int, kind: str,
                   error: BaseException, seconds: float,
                   results: Dict[RunSpec, SimResult], config,
                   tasks: deque) -> None:
        """Charge each member a failed attempt; queue retries singly."""
        for spec in members:
            if self._register_failure(spec, kind, attempt, error, seconds,
                                      results, config):
                tasks.append(((spec,), attempt + 1))

    def _register_failure(self, spec: RunSpec, kind: str, attempt: int,
                          error: BaseException, seconds: float,
                          results: Dict[RunSpec, SimResult],
                          config=None) -> bool:
        """Classify one failed attempt; True means "retry it".

        When the retry budget is exhausted the spec either degrades to
        one in-process serial run (``degrade_serial``), is recorded as
        a :class:`FailedRun` (``keep_going``), or raises
        :class:`SuiteError` (fail-fast, the default).
        """
        self.counters.incr(f"resilience.failures.{kind}")
        self._record(spec, seconds, cached=False, attempt=attempt,
                     status=kind)
        if attempt < self.policy.attempts_allowed:
            self.counters.incr("resilience.retries")
            return True
        if (self.degrade_serial and kind != TIMEOUT
                and self._attempt_degraded(spec, results, config)):
            return False
        failed = FailedRun(
            benchmark=spec.benchmark, memory=spec.memory,
            variant=spec.variant, kind=kind, attempts=attempt,
            error=f"{type(error).__name__}: {error}")
        if not self.keep_going:
            raise SuiteError(failed)
        self.counters.incr("resilience.failed_runs")
        results[spec] = failed
        self.failures.append(failed)
        return False

    def _attempt_degraded(self, spec: RunSpec,
                          results: Dict[RunSpec, SimResult],
                          config=None) -> bool:
        """Last resort: one in-process serial run, fault hook disabled.

        Rescues specs whose failures are environmental (pool breakage,
        worker OOM); a timeout never degrades — a hang would block the
        parent with no deadline to save it.
        """
        config = config if config is not None else self.config
        start = time.perf_counter()
        try:
            result = execute_spec(spec, config, attempt=0)
        except Exception as exc:
            # The degraded path is the last line of defence; its own
            # failure must be visible in counters and on stderr, not
            # silently folded into the original failure's record.
            self.counters.incr("resilience.degraded_failures")
            print(f"[executor] degraded serial run for {spec.label} "
                  f"failed too: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return False
        if not is_valid_result(result):
            return False
        self.cache.put(spec_cache_key(spec, config), result)
        results[spec] = result
        self.counters.incr("resilience.degraded_runs")
        self._record(spec, time.perf_counter() - start, cached=False,
                     status="degraded")
        return True

    # ------------------------------------------------------------------

    def _record(self, spec: RunSpec, seconds: float, cached: bool,
                attempt: int = 1, status: str = "ok",
                shared_with: Optional[str] = None) -> None:
        self.timings.append({
            "benchmark": spec.benchmark,
            "memory": spec.memory,
            "variant": spec.variant,
            "runner": spec.runner,
            "seconds": round(seconds, 3),
            "cached": cached,
            "attempt": attempt,
            "status": status,
            "shared_with": shared_with,
        })
        if self.progress:
            done = len(self.timings)
            if cached:
                detail = "cached"
            elif shared_with is not None:
                detail = f"{seconds:.1f}s (shared with {shared_with})"
            elif status == "ok":
                detail = f"{seconds:.1f}s"
            else:
                detail = f"{status} (attempt {attempt}) {seconds:.1f}s"
            print(f"[repro {done:>3}] {spec.label} {detail}",
                  file=sys.stderr, flush=True)


def run_specs(specs: Sequence[RunSpec], config,
              jobs: Optional[int] = None,
              progress: bool = False) -> Dict[RunSpec, SimResult]:
    """One-shot convenience wrapper around :class:`ParallelExecutor`."""
    return ParallelExecutor(config, jobs=jobs, progress=progress).run(specs)


def resolve_results(specs: Iterable[RunSpec], config,
                    results: Optional[Dict[RunSpec, SimResult]] = None,
                    jobs: Optional[int] = None) -> Dict[RunSpec, SimResult]:
    """Return a map covering ``specs``, running whatever is missing.

    Figure functions call this so they work standalone (compute their
    own specs) *and* under a suite scheduler that pre-ran the union of
    all figures' specs and passes the shared ``results`` map in.
    A :class:`FailedRun` sentinel counts as covered — a failed spec is
    not silently re-run by every figure that references it.
    """
    have = {} if results is None else dict(results)
    missing = [spec for spec in dict.fromkeys(specs) if spec not in have]
    if missing:
        have.update(run_specs(missing, config, jobs=jobs))
    return have
