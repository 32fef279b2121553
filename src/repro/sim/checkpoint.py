"""Crash-safe simulation checkpoints: snapshot, resume, byte-identical.

A checkpoint is one file::

    {"version": CHECKPOINT_VERSION, "cache_key": ..., "benchmark": ...,
     "reads": ..., "executed": ..., "request_ids": ...,
     "payload_bytes": ..., "payload_sha256": ...}\\n
    <pickle of the whole SimulationSystem>

The JSON header line carries everything needed to validate the snapshot
without unpickling it: a format version (:data:`CHECKPOINT_VERSION`;
a file of any other version is quarantined), the v8 spec cache key the run
was launched under (a resumed run must answer for exactly the same
spec), progress counters, the process-wide request-id allocator position
(the one piece of simulator state not reachable from the system object),
and a sha256 over the pickle payload so torn or bit-rotted files are
detected before deserialisation.

Snapshots go through the shared artifact-store write path
(:func:`~repro.store.atomic_write_bytes`: temp sibling + fsync +
``os.replace`` + parent-dir fsync) every N simulated DRAM reads, so a
crash — even a power loss — leaves either the previous complete
checkpoint or the new complete checkpoint, never a torn one. While a
run is snapshotting, a ``<file>.ckpt.pin`` sibling carrying the owning
pid protects the checkpoint from ``repro store gc`` eviction; the pin
dies with the file (and expires automatically if the process crashes).
A checkpoint that fails validation on load is quarantined as
``<file>.corrupt`` and the run starts from scratch.

Determinism: the snapshot captures the entire event-driven simulator —
event queue, cores (with their materialized trace iterators), caches,
MSHRs, controllers, bank/rank/bus timing state — plus the request-id
position, so a resumed run replays exactly the event sequence the
uninterrupted run would have executed and produces a byte-identical
:class:`~repro.sim.system.SimResult`.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Optional, Tuple

from repro.dram.request import request_id_allocator
from repro.store import atomic_write_bytes, quarantine_file

CHECKPOINT_VERSION = 4

ENV_CHECKPOINT_DIR = "REPRO_CHECKPOINT_DIR"
ENV_CHECKPOINT_EVERY = "REPRO_CHECKPOINT_EVERY"

#: Default snapshot cadence, in simulated DRAM reads.
DEFAULT_EVERY_READS = 1000


class CheckpointError(RuntimeError):
    """A checkpoint file failed validation (and was quarantined)."""


def checkpoint_every(default: int = DEFAULT_EVERY_READS) -> int:
    """Snapshot cadence from ``REPRO_CHECKPOINT_EVERY`` (reads)."""
    raw = os.environ.get(ENV_CHECKPOINT_EVERY, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{ENV_CHECKPOINT_EVERY} must be an integer number of DRAM "
            f"reads, got {raw!r}") from None
    return max(1, value)


def checkpoint_path(directory, cache_key: str) -> Path:
    """Deterministic checkpoint location for one spec cache key."""
    digest = hashlib.sha256(cache_key.encode()).hexdigest()[:24]
    return Path(directory) / f"ck-{digest}.ckpt"


def checkpoint_pin_path(path) -> Path:
    """The pid-carrying pin shielding an in-flight checkpoint from gc."""
    path = Path(path)
    return path.with_name(path.name + ".pin")


def delete_checkpoint(path) -> None:
    """Remove a checkpoint and its pin (a finished run leaves nothing)."""
    checkpoint_pin_path(path).unlink(missing_ok=True)
    Path(path).unlink(missing_ok=True)


class Checkpointer:
    """Periodic whole-simulator snapshots keyed by DRAM-read progress.

    ``maybe_save`` is called from the simulation loop after every event;
    its fast path is one integer compare, so the checkpointing run-loop
    overhead is dominated by the (rare) pickles. ``kill_after`` supports
    the ``ckptkill`` fault mode: hard-exit the process right after the
    N-th successful save, leaving a valid checkpoint behind — the
    re-run's resume path is exercised end-to-end.
    """

    __slots__ = ("path", "cache_key", "benchmark", "every", "next_mark",
                 "saves", "disabled", "kill_after", "last_error")

    def __init__(self, path, cache_key: str, benchmark: str = "",
                 every_reads: int = DEFAULT_EVERY_READS,
                 kill_after: Optional[int] = None,
                 first_mark: Optional[int] = None) -> None:
        self.path = Path(path)
        self.cache_key = cache_key
        self.benchmark = benchmark
        self.every = max(1, every_reads)
        self.next_mark = self.every if first_mark is None else first_mark
        self.saves = 0
        self.disabled = False
        self.kill_after = kill_after
        self.last_error: Optional[str] = None

    def maybe_save(self, system, executed: int) -> bool:
        """Snapshot when the read counter crossed the next mark."""
        if system.uncore.dram_reads < self.next_mark or self.disabled:
            return False
        self.next_mark = system.uncore.dram_reads + self.every
        return self.save(system, executed)

    def save(self, system, executed: int) -> bool:
        try:
            payload = pickle.dumps(system, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # unpicklable extension state: give up
            # once, loudly in the counters, instead of failing the run.
            self.disabled = True
            self.last_error = f"{type(exc).__name__}: {exc}"
            return False
        header = {
            "version": CHECKPOINT_VERSION,
            "cache_key": self.cache_key,
            "benchmark": self.benchmark,
            "reads": system.uncore.dram_reads,
            "executed": executed,
            "request_ids": request_id_allocator().next_id,
            "payload_bytes": len(payload),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }
        atomic_write_bytes(self.path,
                           json.dumps(header).encode() + b"\n" + payload)
        if self.saves == 0:
            # Pin on the first snapshot: gc must never evict a
            # checkpoint whose run is still alive. The pin carries our
            # pid, so it expires automatically if we crash.
            try:
                checkpoint_pin_path(self.path).write_text(str(os.getpid()))
            except OSError:  # pragma: no cover - read-only directory
                pass
        self.saves += 1
        if self.kill_after is not None and self.saves >= self.kill_after:
            os._exit(1)  # injected mid-flight death; checkpoint survives
        return True


def _quarantine(path: Path, reason: str) -> CheckpointError:
    quarantine_file(path)
    checkpoint_pin_path(path).unlink(missing_ok=True)
    return CheckpointError(f"checkpoint {path}: {reason} (quarantined)")


def read_header(path) -> dict:
    """The JSON header of a checkpoint file (no payload validation)."""
    with open(path, "rb") as handle:
        line = handle.readline()
    header = json.loads(line)
    if not isinstance(header, dict):
        raise ValueError("header is not an object")
    return header


def load_checkpoint(path, expect_cache_key: Optional[str] = None
                    ) -> Tuple[object, int, dict]:
    """Validate and restore a checkpoint.

    Returns ``(system, executed, header)`` with the process-wide
    request-id allocator already rewound to the snapshot position. Any
    validation failure — unreadable header, version or cache-key
    mismatch, short payload, digest mismatch, unpicklable payload —
    quarantines the file as ``<file>.corrupt`` and raises
    :class:`CheckpointError`.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            line = handle.readline()
            header = json.loads(line)
            if not isinstance(header, dict):
                raise ValueError("header is not an object")
            payload = handle.read()
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        raise _quarantine(path, f"unreadable header ({exc})") from None
    if header.get("version") != CHECKPOINT_VERSION:
        raise _quarantine(
            path, f"version {header.get('version')!r} != "
            f"{CHECKPOINT_VERSION}")
    if (expect_cache_key is not None
            and header.get("cache_key") != expect_cache_key):
        raise _quarantine(path, "cache key mismatch (stale spec/config)")
    if len(payload) != header.get("payload_bytes"):
        raise _quarantine(
            path, f"payload truncated ({len(payload)} of "
            f"{header.get('payload_bytes')} bytes)")
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
        raise _quarantine(path, "payload sha256 mismatch")
    try:
        system = pickle.loads(payload)
    except Exception as exc:
        raise _quarantine(path, f"unpicklable payload ({exc})") from None
    request_ids = header.get("request_ids")
    if not isinstance(request_ids, int) or request_ids < 0:
        raise _quarantine(path, "missing request-id position")
    request_id_allocator().next_id = request_ids
    return system, int(header.get("executed", 0)), header


# ---------------------------------------------------------------------------
# Checkpoint-aware benchmark execution (the execute_spec integration)
# ---------------------------------------------------------------------------


def simulate_checkpointed(benchmark: str, sim_config, cache_key: str,
                          directory, every_reads: Optional[int] = None,
                          kill_after: Optional[int] = None,
                          warm: bool = True):
    """Run ``benchmark`` with periodic checkpoints, resuming if one exists.

    Mirrors :func:`~repro.sim.system.simulate_benchmark` exactly — same
    workload resolution, same prewarm, and the same ``(system, result)``
    return — except the per-core streams are materialized (generators
    cannot be pickled; the records are identical), so the completed
    :class:`SimResult` is byte-identical to an uninterrupted,
    un-checkpointed run. The checkpoint file is deleted on completion.

    Telemetry-instrumented runs (an active session) fall back to a
    plain run: a registry cannot be stitched across the process
    boundary a resume implies, and instrumented runs are diagnostics,
    not long-haul suite work.
    """
    from repro.sim.system import (
        SimulationSystem,
        prewarm_l2,
        simulate_benchmark,
    )
    from repro.telemetry.session import active_session
    from repro.workloads.registry import create_workload

    if active_session() is not None:
        return simulate_benchmark(benchmark, sim_config)
    every = checkpoint_every() if every_reads is None else max(1, every_reads)
    path = checkpoint_path(directory, cache_key)

    if path.exists():
        try:
            system, executed, header = load_checkpoint(
                path, expect_cache_key=cache_key)
        except CheckpointError:
            system = None  # quarantined; fall through to a fresh run
        if system is not None:
            checkpointer = Checkpointer(
                path, cache_key, benchmark=header.get("benchmark", ""),
                every_reads=every, kill_after=kill_after,
                first_mark=system.uncore.dram_reads + every)
            result = system.resume_run(executed=executed,
                                       checkpointer=checkpointer)
            result.benchmark = header.get("benchmark", benchmark)
            delete_checkpoint(path)
            return system, result

    source = create_workload(benchmark)
    profile = source.profile
    traces = [list(stream) for stream in source.streams(sim_config)]
    display = source.display_benchmark()
    system = SimulationSystem(sim_config, traces, profile=profile)
    if warm and profile is not None:
        prewarm_l2(system, profile)
    checkpointer = Checkpointer(path, cache_key, benchmark=display,
                                every_reads=every, kill_after=kill_after)
    result = system.run(checkpointer=checkpointer)
    result.benchmark = display
    delete_checkpoint(path)
    return system, result
