"""Job model and request validation for the simulation service.

A *job* is one client submission: a batch of
:class:`~repro.experiments.specs.RunSpec` simulations (given explicitly
and/or expanded from a named experiment), executed under the server's
:class:`~repro.experiments.runner.ExperimentConfig` with optional
per-job overrides (``reads``, ``benchmarks``). Jobs are plain data —
fully JSON-serialisable both over the wire and into the
:class:`~repro.service.store.JobStore` — so a restarted server can
reload and resume them.

Validation happens here, before anything is queued: memory backends
resolve against the backend table (unknown names answer its
did-you-mean message), benchmarks to their canonical workload names
(same did-you-mean treatment; ``trace:<path>`` names resolve
server-side, so the file must exist where the server runs),
experiments against ``ALL_EXPERIMENTS``, and a spec's ``runner``
against the named-runner and view registries. A bad request is a
:class:`JobValidationError` (HTTP 400), never a crashed worker later.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.experiments.specs import RUNNER_REGISTRY, VIEW_REGISTRY, RunSpec

# Job lifecycle states. queued -> running -> done | failed; queued and
# running jobs found in the store at startup are recovered (re-queued).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
TERMINAL_STATES = (DONE, FAILED)

JOB_SCHEMA_VERSION = 1

#: Top-level keys a POST /v1/jobs payload may carry.
REQUEST_KEYS = ("specs", "experiment", "reads", "benchmarks", "tag")


class JobValidationError(ValueError):
    """A submission that can never run; maps to HTTP 400."""


def new_job_id() -> str:
    return f"j-{uuid.uuid4().hex[:12]}"


# ---------------------------------------------------------------------------
# RunSpec <-> JSON
# ---------------------------------------------------------------------------


def spec_to_dict(spec: RunSpec) -> dict:
    return {
        "benchmark": spec.benchmark,
        "memory": spec.memory,
        "variant": spec.variant,
        "overrides": [list(pair) for pair in spec.overrides],
        "runner": spec.runner,
        "params": [list(pair) for pair in spec.params],
    }


def spec_from_dict(data: object) -> RunSpec:
    """Rebuild a RunSpec from its JSON form, validating every axis."""
    if not isinstance(data, dict):
        raise JobValidationError(
            f"each spec must be an object, got {type(data).__name__}")
    allowed = {"benchmark", "memory", "variant", "overrides", "runner",
               "params"}
    unknown = set(data) - allowed
    if unknown:
        raise JobValidationError(
            f"unknown spec field(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}")
    benchmark = data.get("benchmark", "")
    if not isinstance(benchmark, str) or not benchmark:
        raise JobValidationError("spec.benchmark must be a non-empty string")
    benchmark, = _benchmarks([benchmark])
    runner = data.get("runner", "") or ""
    if runner:
        import repro.experiments  # noqa: F401  (populate the registry)
        import repro.sweep  # noqa: F401
        known = set(RUNNER_REGISTRY) | set(VIEW_REGISTRY)
        if runner not in known:
            raise JobValidationError(
                f"unknown named runner {runner!r}; known: {sorted(known)}")
    try:
        return RunSpec(
            benchmark=benchmark,
            memory=data.get("memory", "ddr3"),
            variant=str(data.get("variant", "") or ""),
            overrides=_pairs(data.get("overrides", ()), "overrides"),
            runner=runner,
            params=_pairs(data.get("params", ()), "params"))
    except JobValidationError:
        raise
    except Exception as exc:  # UnknownBackendError carries did-you-mean
        raise JobValidationError(str(exc)) from None


def _pairs(raw: object, what: str) -> Tuple[Tuple[str, object], ...]:
    if not isinstance(raw, (list, tuple)):
        raise JobValidationError(
            f"spec.{what} must be a list of [name, value] pairs")
    pairs = []
    for item in raw:
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or not isinstance(item[0], str)):
            raise JobValidationError(
                f"spec.{what} entries must be [name, value] pairs, "
                f"got {item!r}")
        value = item[1]
        if isinstance(value, list):
            value = tuple(value)
        pairs.append((item[0], value))
    return tuple(pairs)


def _benchmarks(names) -> Tuple[str, ...]:
    """Canonical workload names, each once; an unknown workload answers
    its did-you-mean message as a 400."""
    from repro.workloads.registry import WorkloadError, resolve_workloads

    try:
        return resolve_workloads(names)
    except WorkloadError as exc:
        raise JobValidationError(str(exc)) from None


# ---------------------------------------------------------------------------
# Job record
# ---------------------------------------------------------------------------


@dataclass
class SpecEntry:
    """One spec slot of a job, with its cache key and coalescing flags."""

    spec: RunSpec
    key: str
    coalesced: bool = False  # key was already wanted by another job
    cached: bool = False     # key was already resolved in the cache
    state: str = "pending"   # pending | done | failed

    def to_dict(self) -> dict:
        return {"spec": spec_to_dict(self.spec), "key": self.key,
                "label": self.spec.label, "coalesced": self.coalesced,
                "cached": self.cached, "state": self.state}


@dataclass
class Job:
    """One submission, from queueing through persisted results."""

    id: str
    created_unix: float
    state: str = QUEUED
    experiment: Optional[str] = None
    tag: str = ""
    reads: Optional[int] = None
    benchmarks: Tuple[str, ...] = ()
    entries: List[SpecEntry] = field(default_factory=list)
    results: List[dict] = field(default_factory=list)
    failures: List[dict] = field(default_factory=list)
    table: str = ""
    error: str = ""
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def coalesced_specs(self) -> int:
        return sum(1 for e in self.entries if e.coalesced)

    @property
    def cached_specs(self) -> int:
        return sum(1 for e in self.entries if e.cached)

    def job_config(self, base_config):
        """The ExperimentConfig this job runs under: server base +
        per-job overrides."""
        updates: Dict[str, object] = {}
        if self.reads is not None:
            updates["target_dram_reads"] = self.reads
        if self.benchmarks:
            updates["benchmarks"] = tuple(self.benchmarks)
        return replace(base_config, **updates) if updates else base_config

    def to_dict(self) -> dict:
        return {
            "schema": JOB_SCHEMA_VERSION,
            "id": self.id,
            "state": self.state,
            "created_unix": self.created_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "experiment": self.experiment,
            "tag": self.tag,
            "reads": self.reads,
            "benchmarks": list(self.benchmarks),
            "coalesced_specs": self.coalesced_specs,
            "cached_specs": self.cached_specs,
            "specs": [entry.to_dict() for entry in self.entries],
            "results": self.results,
            "failures": self.failures,
            "table": self.table,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        entries = []
        for raw in data.get("specs", []):
            entries.append(SpecEntry(
                spec=spec_from_dict(raw["spec"]),
                key=raw.get("key", ""),
                coalesced=bool(raw.get("coalesced", False)),
                cached=bool(raw.get("cached", False)),
                state=raw.get("state", "pending")))
        return cls(
            id=data["id"],
            created_unix=float(data.get("created_unix", 0.0)),
            state=data.get("state", QUEUED),
            experiment=data.get("experiment"),
            tag=data.get("tag", ""),
            reads=data.get("reads"),
            benchmarks=tuple(data.get("benchmarks", ())),
            entries=entries,
            results=list(data.get("results", [])),
            failures=list(data.get("failures", [])),
            table=data.get("table", ""),
            error=data.get("error", ""),
            started_unix=data.get("started_unix"),
            finished_unix=data.get("finished_unix"))


# ---------------------------------------------------------------------------
# Request parsing
# ---------------------------------------------------------------------------


def parse_request(payload: object, base_config) -> Job:
    """Validate a POST /v1/jobs payload into a queued :class:`Job`.

    The job's spec list is the explicit ``specs`` (if any) followed by
    the named ``experiment``'s expansion under the job's config; cache
    keys are assigned later by the scheduler (they depend on the
    resolved config).
    """
    from repro.experiments import ALL_EXPERIMENTS, EXPERIMENT_SPECS

    if not isinstance(payload, dict):
        raise JobValidationError(
            f"request body must be a JSON object, got "
            f"{type(payload).__name__}")
    unknown = set(payload) - set(REQUEST_KEYS)
    if unknown:
        raise JobValidationError(
            f"unknown request field(s) {sorted(unknown)}; "
            f"allowed: {sorted(REQUEST_KEYS)}")

    experiment = payload.get("experiment")
    if experiment is not None:
        if not isinstance(experiment, str) or experiment not in ALL_EXPERIMENTS:
            raise JobValidationError(
                f"unknown experiment {experiment!r}; "
                f"known: {list(ALL_EXPERIMENTS)}")

    reads = payload.get("reads")
    if reads is not None:
        if not isinstance(reads, int) or isinstance(reads, bool) or reads <= 0:
            raise JobValidationError("reads must be a positive integer")

    benchmarks: Tuple[str, ...] = ()
    if payload.get("benchmarks"):
        raw = payload["benchmarks"]
        if (not isinstance(raw, (list, tuple))
                or not all(isinstance(b, str) for b in raw)):
            raise JobValidationError("benchmarks must be a list of strings")
        benchmarks = _benchmarks(raw)

    tag = payload.get("tag", "")
    if not isinstance(tag, str):
        raise JobValidationError("tag must be a string")

    raw_specs = payload.get("specs", [])
    if not isinstance(raw_specs, (list, tuple)):
        raise JobValidationError(
            f"specs must be a list of spec objects, got "
            f"{type(raw_specs).__name__}")
    specs: List[RunSpec] = [spec_from_dict(raw) for raw in raw_specs]
    job = Job(id=new_job_id(), created_unix=time.time(),
              experiment=experiment, tag=tag, reads=reads,
              benchmarks=benchmarks)
    if experiment is not None:
        specs.extend(EXPERIMENT_SPECS[experiment](job.job_config(base_config)))
    if not specs:
        raise JobValidationError(
            "empty job: provide 'specs' and/or an 'experiment' to expand")
    # Dedupe within the job while keeping declared order; per-spec cache
    # keys (and hence cross-job coalescing) are assigned at enqueue.
    job.entries = [SpecEntry(spec=spec, key="")
                   for spec in dict.fromkeys(specs)]
    return job
