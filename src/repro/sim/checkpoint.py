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
checkpoint or the new complete checkpoint, never a torn one. The
directory is the ``checkpoints`` store tier (:func:`checkpoint_store`).
While a run is snapshotting, its :class:`~repro.store.FileStore` pin (a
``<file>.ckpt.pin`` sibling carrying the owning pid) protects the
checkpoint from ``repro store gc`` eviction; the pin dies with the file
(and expires automatically if the process crashes). A checkpoint that
fails validation on load is quarantined as ``<file>.corrupt`` and the
run starts from scratch; ``repro store verify`` applies the same checks,
short of unpickling. :func:`repro.experiments.specs.simulate` is the
one run sequence that saves and resumes checkpoints.

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
import sys
from pathlib import Path
from typing import Optional, Tuple

from repro.dram.request import request_id_allocator
from repro.store import FileStore, atomic_write_bytes

CHECKPOINT_VERSION = 12

#: The checkpoint files of a directory (see :func:`checkpoint_path`).
CHECKPOINT_PATTERN = "ck-*.ckpt"

#: Default snapshot cadence, in simulated DRAM reads.
DEFAULT_EVERY_READS = 1000


class CheckpointError(RuntimeError):
    """A checkpoint file failed validation (and was quarantined)."""


def checkpoint_path(directory, cache_key: str) -> Path:
    """Deterministic checkpoint location for one spec cache key."""
    digest = hashlib.sha256(cache_key.encode()).hexdigest()[:24]
    return Path(directory) / f"ck-{digest}.ckpt"


def checkpoint_store(directory,
                     budget_bytes: Optional[int] = None) -> FileStore:
    """The ``checkpoints`` tier: files pinned while their run lives,
    validated by :func:`checkpoint_problem`."""
    return FileStore(directory, CHECKPOINT_PATTERN, tier="checkpoints",
                     budget_bytes=budget_bytes,
                     validator=checkpoint_problem)


def delete_checkpoint(path) -> None:
    """Remove a checkpoint and its pin (a finished run leaves nothing)."""
    path = Path(path)
    checkpoint_store(path.parent).delete(path)


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
            # once, with one line on stderr, instead of failing the run.
            self.disabled = True
            self.last_error = f"{type(exc).__name__}: {exc}"
            print(f"checkpointing disabled for {self.benchmark or '?'} "
                  f"({self.path.name}): {self.last_error}", file=sys.stderr)
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
            checkpoint_store(self.path.parent).write_pin(self.path)
        self.saves += 1
        if self.kill_after is not None and self.saves >= self.kill_after:
            os._exit(1)  # injected mid-flight death; checkpoint survives
        return True


def _quarantine(path: Path, reason: str) -> CheckpointError:
    checkpoint_store(path.parent).quarantine(path)
    return CheckpointError(f"checkpoint {path}: {reason} (quarantined)")


def _read_checked(path: Path, expect_cache_key: Optional[str] = None
                  ) -> Tuple[dict, bytes]:
    """The header and payload of a checkpoint that passes every check
    short of unpickling: header, version, cache key (when expected),
    payload length and sha256, request-id position.

    Raises ``ValueError`` naming the first check that fails; an
    ``OSError`` from reading the file passes through.
    """
    with open(path, "rb") as handle:
        line = handle.readline()
        payload = handle.read()
    try:
        header = json.loads(line)
        if not isinstance(header, dict):
            raise ValueError("header is not an object")
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"unreadable header ({exc})") from None
    if header.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"version {header.get('version')!r} != "
                         f"{CHECKPOINT_VERSION}")
    if (expect_cache_key is not None
            and header.get("cache_key") != expect_cache_key):
        raise ValueError("cache key mismatch (stale spec/config)")
    if len(payload) != header.get("payload_bytes"):
        raise ValueError(f"payload truncated ({len(payload)} of "
                         f"{header.get('payload_bytes')} bytes)")
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
        raise ValueError("payload sha256 mismatch")
    request_ids = header.get("request_ids")
    if not isinstance(request_ids, int) or request_ids < 0:
        raise ValueError("missing request-id position")
    return header, payload


def checkpoint_problem(path) -> Optional[str]:
    """Why :func:`load_checkpoint` would quarantine ``path`` (short of
    unpickling it), or ``None``. A file that cannot be read now (it
    finished and was deleted mid-scan) has no problem."""
    try:
        _read_checked(Path(path))
    except OSError:
        return None
    except ValueError as exc:
        return str(exc)
    return None


def load_checkpoint(path, expect_cache_key: Optional[str] = None
                    ) -> Tuple[object, int, dict]:
    """Validate and restore a checkpoint.

    Returns ``(system, executed, header)`` with the process-wide
    request-id allocator already rewound to the snapshot position. Any
    validation failure — unreadable header, version or cache-key
    mismatch, short payload, digest mismatch, missing request-id
    position, unpicklable payload — quarantines the file as
    ``<file>.corrupt`` and raises :class:`CheckpointError`.
    """
    path = Path(path)
    try:
        header, payload = _read_checked(path, expect_cache_key)
    except OSError as exc:
        raise _quarantine(path, f"unreadable header ({exc})") from None
    except ValueError as exc:
        raise _quarantine(path, str(exc)) from None
    try:
        system = pickle.loads(payload)
    except Exception as exc:
        raise _quarantine(path, f"unpicklable payload ({exc})") from None
    request_id_allocator().next_id = header["request_ids"]
    return system, int(header.get("executed", 0)), header
