"""Shared machinery for the per-figure experiment modules.

Simulation runs are expensive in pure Python, so results are cached on
disk keyed by the declarative :class:`~repro.experiments.specs.RunSpec`
plus a digest of the fully resolved simulation config. Figure modules
declare their spec lists up front, resolve them through
:mod:`repro.experiments.executor` (serial or process-pool parallel),
and return an :class:`ExperimentTable` that formats itself for the
console and for EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.resilience import MISSING, FaultPlan
from repro.sanitizer import MODE_OFF, parse_switch, sanitize_mode
from repro.sim.checkpoint import DEFAULT_EVERY_READS
from repro.sim.config import SimConfig
from repro.sim.system import SimResult
from repro.store import ArtifactStore, parse_size
from repro.telemetry.session import Counters
from repro.workloads.profiles import benchmark_names
from repro.workloads.registry import resolve_workload

DEFAULT_READS = 2000
DEFAULT_CACHE_DIR = ".repro_cache"


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of a suite run, parsed once at the edge
    (:func:`default_config` and the command-line flags) and pickled with
    each task to the pool workers, so nothing below the edge reads the
    environment."""

    target_dram_reads: int = DEFAULT_READS
    benchmarks: Sequence[str] = ()
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR
    seed: int = 42
    # Parallel worker count for the spec executor: 1 is fully serial
    # in-process, 0 or negative one worker per CPU.
    jobs: int = 1
    # Resilience knobs for the executor (see experiments.resilience):
    # retries per failed spec, per-spec wall-clock timeout (parallel
    # mode only), record FailedRun sentinels instead of raising, and
    # the deterministic faults that test all of it (None = none). None
    # of these affect cache keys — a retried result is the same result.
    retries: int = 0
    timeout_s: Optional[float] = None
    keep_going: bool = False
    fault_plan: Optional[FaultPlan] = None
    # Crash-safe checkpointing (see repro.sim.checkpoint): when a
    # directory is set, every simulated spec snapshots the whole
    # simulator every `checkpoint_every` DRAM reads and a retried spec
    # resumes from the last snapshot instead of starting over. Neither
    # knob affects cache keys: a resumed result is byte-identical to an
    # uninterrupted one.
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = DEFAULT_EVERY_READS
    # Result-store byte budget (see repro.store): when set, the cache
    # LRU-evicts past it after writes — an evicted entry is recomputed
    # on the next request, never an error. None = unbounded (the
    # pre-store behaviour). Does not affect cache keys.
    cache_budget_bytes: Optional[int] = None
    # DRAM protocol sanitizer mode (repro.sanitizer.MODE_*). A sanitized
    # run neither recalls a cached result nor checkpoints; its result is
    # byte-identical, so no cache key carries the mode.
    sanitize: int = MODE_OFF

    def suite(self) -> List[str]:
        return list(self.benchmarks) if self.benchmarks else benchmark_names()

    def sim_config(self, memory: str) -> SimConfig:
        return SimConfig(memory=memory, seed=self.seed,
                         target_dram_reads=self.target_dram_reads)


class ConfigError(ValueError):
    """A run knob has a value no run can use; the message names it."""


def _knob(convert: Callable[[str], object], what: str,
          valid: Callable[[object], bool] = lambda value: True):
    """The parser of one knob, shared by its environment variable and
    its command-line flag: ``convert(text)``, which must be ``valid``,
    or ValueError with the knob's one message (the caller names it)."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError as exc:
            # A bare type's own error says nothing the message does not.
            detail = "" if isinstance(convert, type) else f": {exc}"
            raise ValueError(f"must be {what}, got {text!r}{detail}") from None
        if not valid(value):
            raise ValueError(f"must be {what}, got {text!r}")
        return value

    return parse


def _workloads(text: str) -> Tuple[str, ...]:
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    for name in names:
        resolve_workload(name)
    return names


def _not_a_file(path: Optional[str]) -> bool:
    return path is None or os.path.isdir(path) or not os.path.exists(path)


_DRAM_READS = _knob(int, "a positive number of DRAM reads",
                    lambda reads: reads > 0)

#: Every environment knob: the ExperimentConfig field it sets and its
#: parser (:func:`flag_type` hands the same parser to its flag).
KNOBS: Dict[str, Tuple[str, Callable[[str], object]]] = {
    "REPRO_READS": ("target_dram_reads", _DRAM_READS),
    "REPRO_BENCHMARKS": ("benchmarks", _knob(
        _workloads, "registered workload names")),
    "REPRO_CACHE": ("cache_dir", _knob(
        lambda text: None if text.lower() == "off" else text,
        "a directory or 'off'", _not_a_file)),
    "REPRO_CACHE_BUDGET": ("cache_budget_bytes", _knob(
        parse_size, "a byte count")),
    "REPRO_JOBS": ("jobs", _knob(
        int, "an integer worker count (0 = one per CPU)")),
    "REPRO_RETRIES": ("retries", _knob(
        int, "a non-negative retry count", lambda retries: retries >= 0)),
    "REPRO_TIMEOUT": ("timeout_s", _knob(
        float, "a positive number of seconds", lambda seconds: seconds > 0)),
    "REPRO_KEEP_GOING": ("keep_going", parse_switch),
    "REPRO_CHECKPOINT_DIR": ("checkpoint_dir", _knob(
        str, "a directory", _not_a_file)),
    "REPRO_CHECKPOINT_EVERY": ("checkpoint_every", _DRAM_READS),
    "REPRO_SANITIZE": ("sanitize", sanitize_mode),
    "REPRO_FAULT_PLAN": ("fault_plan", _knob(
        FaultPlan.parse, "entries like 'mcf/ddr3=crash;mcf/rl=hang:*:20'")),
}


def default_config() -> ExperimentConfig:
    """ExperimentConfig from the ``REPRO_*`` environment knobs
    (:data:`KNOBS`; an unset or empty one keeps its default).

    The one reader of the environment: everything below it takes the
    config. A bad value raises :class:`ConfigError` naming the variable.
    """
    values = {}
    for name, (field_name, parse) in KNOBS.items():
        text = os.environ.get(name, "").strip()
        if text:
            try:
                values[field_name] = parse(text)
            except ValueError as exc:
                raise ConfigError(f"{name} {exc}") from None
    return ExperimentConfig(**values)


def flag_type(name: str) -> Callable[[str], object]:
    """The parser of knob ``name`` as an argparse ``type=``: a bad flag
    value exits 2 with the message its variable would get."""
    import argparse

    parse = KNOBS[name][1]

    def convert(text: str) -> object:
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


class ResultCache:
    """Disk cache of :class:`SimResult` records on the artifact store.

    Entries live in a content-addressed
    :class:`~repro.store.ArtifactStore` tier (``results``): a
    ``index/<keydigest>.json`` key→digest record pointing at a
    sha256-named blob, all written through the shared atomic+durable
    path with a per-key advisory ``flock``, so concurrent suite runs
    sharing a cache directory never observe a torn entry. Payload
    digests are re-verified on every read; bit rot is quarantined as
    ``<file>.corrupt``, never returned.

    With ``budget_bytes`` set the tier is size-bounded: writes past the
    budget LRU-evict the least-recently-accessed entries (the access
    journal, not mtime, orders them). An evicted entry reads as
    a clean miss and is recomputed byte-identically — parallel/serial/
    resume determinism guarantees survive eviction by construction.
    """

    def __init__(self, directory: Optional[str],
                 budget_bytes: Optional[int] = None) -> None:
        self.directory = Path(directory) if directory else None
        self.store: Optional[ArtifactStore] = None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self.store = ArtifactStore(self.directory, tier="results",
                                       budget_bytes=budget_bytes)
        # Per-instance traffic counters, exposed via stats() and added
        # to any active telemetry session as ``cache.<name>``.
        self.counters = Counters(("hits", "misses", "writes", "quarantined"),
                                 session_prefix="cache.")

    def stats(self) -> Dict[str, object]:
        """Traffic counters for this cache handle (hits/misses/writes/
        quarantined), plus the directory they describe."""
        return {"directory": str(self.directory) if self.directory else None,
                **self.counters.snapshot()}

    def store_stats(self) -> Optional[Dict[str, object]]:
        """Underlying artifact-store tier stats (entries/bytes/budget/
        evictions), or None for a disabled cache."""
        return self.store.stats() if self.store is not None else None

    def contains(self, key: str) -> bool:
        """Cheap existence probe (no read, no counters): does an entry
        for ``key`` sit on disk? Used by the service scheduler to count
        cache coalescing without paying a JSON load per submit."""
        return self.store is not None and self.store.contains(key)

    def get(self, key: str) -> Optional[SimResult]:
        """Recall a cached result; corruption quarantines the entry.

        Truncated files, non-JSON bytes, digest mismatches, non-dict
        payloads, and schema drift all return None — but the offending
        file is renamed to ``<entry>.corrupt`` first (and counted in
        telemetry as ``cache.quarantined``) so the evidence survives
        for a post-mortem instead of being silently re-clobbered by the
        re-run's :meth:`put`. An evicted or never-written entry is a
        plain miss.
        """
        if self.store is None:
            self.counters.incr("misses")
            return None
        # Ask this call, not the shared store counters, whether it
        # quarantined: another thread may quarantine concurrently.
        quarantined: List[Path] = []
        raw = self.store.get_bytes(key, quarantined)
        if raw is None:
            self.counters.incr("quarantined" if quarantined else "misses")
            return None
        result = self._parse(key, raw)
        if result is None:
            # Readable bytes, wrong shape: schema drift.
            self.store.quarantine(key)
            self.counters.incr("quarantined")
            return None
        self.counters.incr("hits")
        return result

    def _parse(self, key: str, raw: bytes) -> Optional[SimResult]:
        """Bytes → SimResult; None for any shape this version can't use."""
        try:
            data = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(data, dict) or data.get("__key__") != key:
            return None
        data.pop("__key__", None)
        try:
            return SimResult(**data)
        except (TypeError, ValueError):
            return None

    def put(self, key: str, result: SimResult) -> None:
        if self.store is None:
            return
        self.counters.incr("writes")
        data = dataclasses.asdict(result)
        data["__key__"] = key
        self.store.put_bytes(key, json.dumps(data).encode())


@dataclass
class ExperimentTable:
    """One regenerated paper artefact."""

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def add(self, **kwargs: object) -> None:
        self.rows.append(kwargs)

    def column(self, name: str) -> List[object]:
        return [row.get(name) for row in self.rows]

    def mean(self, name: str) -> float:
        """Column mean over numeric cells.

        ``MISSING`` cells (failed runs) are excluded — a partial column
        averages its surviving rows; a column with no survivors answers
        ``MISSING`` so the MEAN row degrades to ``—`` too.
        """
        column = self.column(name)
        values = [v for v in column if isinstance(v, (int, float))]
        if not values and any(v is MISSING for v in column):
            return MISSING
        return sum(values) / len(values) if values else 0.0

    @staticmethod
    def _cell(value: object) -> str:
        if value is MISSING:
            return "—"
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    def format(self) -> str:
        lines = [f"== {self.experiment_id}: {self.title} =="]
        # Widths account for every cell (not just the header) so long
        # benchmark/memory names can't break the grid.
        widths = {
            c: max([len(c), 10]
                   + [len(self._cell(row.get(c, ""))) for row in self.rows])
            for c in self.columns
        }
        header = "  ".join(c.ljust(widths[c]) for c in self.columns)
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(self._cell(row.get(c, "")).ljust(widths[c])
                                   for c in self.columns))
        if self.notes:
            lines.append(self.notes)
        return "\n".join(lines)
