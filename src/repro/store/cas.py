"""Content-addressed, size-bounded artifact store.

Every on-disk tier sits on this module: the simulation
:class:`~repro.experiments.runner.ResultCache`, ``sim/checkpoint.py``
snapshots, and the service :class:`~repro.service.store.JobStore`
manifests. Like TL-DRAM's bounded fast tier, each is a high-hit-rate
cache of bounded size in front of arbitrarily expensive recompute: an
evicted entry is never an error, only a clean recompute.

Two store flavours share the discipline:

:class:`ArtifactStore` (the *results* tier)
    sha256-addressed blobs under ``blobs/``, deduplicated across keys,
    behind an ``index/<keydigest>.json`` key→digest index. Every
    ``get`` re-verifies the blob digest, so bit rot is caught (and
    quarantined) before a caller sees it. Reads don't rewrite files,
    so LRU state lives in an append-only access-time ``journal.log``
    (compacted by ``gc``).

:class:`FileStore` (the *checkpoints* and *manifests* tiers)
    wraps a directory of standalone files that their owners address by
    path. The owner defines the tier: its file pattern, which entries
    are pinned, and what makes a file invalid. Writes update mtime, so
    mtime is the LRU clock and no journal is kept (the directories must
    stay empty-able: a finished run leaves no checkpoint behind).
    Entries are pinned by a ``<name>.pin`` sibling carrying the owning
    pid (the pin of a dead process expires, so a crashed writer cannot
    strand disk) or by the owner's rule.

Both enforce a per-tier byte budget with LRU eviction that skips
pinned entries, quarantine corruption as ``<file>.corrupt`` (``stats``
only reads: it moves no file), and add
their ``hits/misses/writes/evictions/quarantined`` counters to any
active telemetry session as ``store.<tier>.<event>`` so they surface
in ``python -m repro.report --json`` manifests; the service
``/metrics`` reads them from :meth:`stats`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.store.atomic import (
    CORRUPT_SUFFIX,
    atomic_write_bytes,
    file_lock,
    quarantine_file,
)
from repro.telemetry.session import Counters

#: Digest prefix length for key-addressed index files. Existing store
#: indexes are addressed by it: changing it orphans every entry.
KEY_DIGEST_LEN = 24

_JOURNAL_NAME = "journal.log"


def key_digest(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()[:KEY_DIGEST_LEN]


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (OSError, PermissionError):  # pragma: no cover - EPERM: alive
        return True
    return True


def _pin_live(pin_path: Path) -> bool:
    """A pin protects its entry while the pinning process is alive.

    Pin files carry the owner's pid; a pin whose process has exited is
    stale and no longer protects (so a crashed run cannot strand disk
    forever). An unreadable pin is treated as live — better to under-
    evict than to delete an in-flight checkpoint.
    """
    try:
        pid = int(pin_path.read_text().strip() or "0")
    except (OSError, ValueError):
        return pin_path.exists()
    return _pid_alive(pid)


@dataclass
class StoreEntry:
    """One logical entry of a store tier, as seen by gc/stats/verify."""

    key: str              # cache key (CAS) or file name (FileStore)
    path: Path            # index file (CAS) or the entry file itself
    size: int             # bytes charged against the tier budget
    last_access: float    # unix seconds (journal or mtime)
    pinned: bool = False  # FileStore only
    digest: str = ""      # blob sha256 (CAS only)
    access_seq: int = -1  # journal position of the last access (CAS only)


class _StoreBase:
    """Counters, eviction and stats shared by both store flavours.

    A store handle may be shared by threads (the service reads the
    results tier on HTTP threads while its scheduler thread writes
    it); :class:`~repro.telemetry.session.Counters` loses no increment.
    File operations need no lock: they already tolerate concurrent
    writers from other processes.
    """

    def __init__(self, directory, tier: str,
                 budget_bytes: Optional[int] = None) -> None:
        self.directory = Path(directory)
        self.tier = tier
        self.budget_bytes = budget_bytes
        self.counters = Counters(
            ("hits", "misses", "writes", "evictions", "quarantined",
             "pinned_skips", "gc_runs"),
            session_prefix=f"store.{tier}.")

    def stats(self) -> dict:
        """Size, budget and counters, listing the tier once."""
        entries = self.entries()
        return {
            "tier": self.tier,
            "directory": str(self.directory),
            "entries": len(entries),
            "bytes": self._bytes_of(entries),
            "budget_bytes": self.budget_bytes,
            "pinned": sum(1 for e in entries if e.pinned),
            **self.counters.snapshot(),
        }

    def _bytes_of(self, entries: List[StoreEntry]) -> int:
        """Disk bytes of the tier, given its ``entries()``."""
        return sum(entry.size for entry in entries)

    # -- shared eviction loop ------------------------------------------

    def _evict_lru(self, entries: List[StoreEntry], used: int,
                   max_bytes: int, dry_run: bool,
                   evict_entry: Callable[[StoreEntry], None]) -> dict:
        """Evict oldest-accessed unpinned entries until ``used`` fits.

        Accesses stamped in the same millisecond fall back to journal
        order, which is access order across processes (O_APPEND).
        """
        report = {"tier": self.tier, "bytes_before": used,
                  "entries_before": len(entries), "evicted": [],
                  "pinned_kept": 0, "budget": max_bytes}
        survivors = []
        for entry in sorted(entries, key=lambda e: (e.last_access,
                                                    e.access_seq, e.key)):
            if used <= max_bytes:
                survivors.append(entry)
                continue
            if entry.pinned:
                report["pinned_kept"] += 1
                self.counters.incr("pinned_skips")
                survivors.append(entry)
                continue
            if not dry_run:
                evict_entry(entry)
                self.counters.incr("evictions")
            report["evicted"].append(entry.key)
            used -= entry.size
        report["bytes_after"] = used
        report["entries_after"] = len(survivors)
        return report


def _read_record(path: Path, key: Optional[str] = None
                 ) -> Tuple[Optional[dict], Optional[str]]:
    """Read one index record: ``(record, None)`` when it is well formed,
    ``(None, problem)`` when it is corrupt, and ``(None, None)`` when
    there is nothing to judge.

    An ``OSError`` is a read race (the file is absent, or mid-replace),
    not corruption. With ``key`` given, a record naming another key (a
    truncated-digest collision) is not ours to judge either: the key
    is checked before the shape.
    """
    try:
        record = json.loads(path.read_text())
    except OSError:
        return None, None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        return None, f"unreadable index ({exc})"
    if not isinstance(record, dict):
        return None, "index record is not an object"
    if key is not None and record.get("key") != key:
        return None, None
    if not isinstance(record.get("digest"), str):
        return None, "index record has no digest string"
    return record, None


class ArtifactStore(_StoreBase):
    """sha256-addressed blob store with a key index and an LRU journal.

    Layout under ``directory``::

        index/<keydigest>.json   {"key", "digest", "size", "created_unix"}
        blobs/<aa>/<sha256>.blob payload bytes (shared across keys)
        journal.log              "<unix> <keydigest>\\n" per access
        locks/<keydigest>.lock   advisory flock for writers of one key

    ``get_bytes`` verifies the payload digest on every read; an entry
    whose bytes no longer hash to its name is quarantined, never
    returned. Identical payloads stored under different keys share one
    blob (``dedup_hits`` counts the savings). No entry is pinned.
    """

    def __init__(self, directory, tier: str = "results",
                 budget_bytes: Optional[int] = None) -> None:
        super().__init__(directory, tier, budget_bytes)
        self.index_dir = self.directory / "index"
        self.blobs_dir = self.directory / "blobs"
        self.locks_dir = self.directory / "locks"
        self.journal_path = self.directory / _JOURNAL_NAME
        # Eager, so entry paths handed out by index_path() are writable
        # before the first put (tests inject corruption that way).
        self.index_dir.mkdir(parents=True, exist_ok=True)
        # Lazy local usage estimate: exact after each gc, bumped per
        # put; concurrent writers each overshoot by at most their own
        # in-flight bytes before their next gc re-measures the truth.
        self._approx_bytes: Optional[int] = None

    # -- paths ---------------------------------------------------------

    def index_path(self, key: str) -> Path:
        return self.index_dir / f"{key_digest(key)}.json"

    def blob_path(self, digest: str) -> Path:
        return self.blobs_dir / digest[:2] / f"{digest}.blob"

    # -- journal -------------------------------------------------------

    def _journal(self, digest_of_key: str) -> None:
        """Append one access record; O_APPEND keeps writers atomic."""
        line = f"{time.time():.3f} {digest_of_key}\n"
        try:
            with open(self.journal_path, "a") as handle:
                handle.write(line)
        except OSError:  # pragma: no cover - read-only store
            pass

    def _last_access_map(self) -> Dict[str, float]:
        """Latest journaled access per key digest (malformed lines skip).

        The map is in journal order of each key's last access: a key
        accessed again moves to the end, so iteration order breaks ties
        between accesses stamped in the same millisecond.
        """
        accesses: Dict[str, float] = {}
        try:
            with open(self.journal_path) as handle:
                for line in handle:
                    parts = line.split()
                    if len(parts) != 2:
                        continue
                    try:
                        stamp = float(parts[0])
                    except ValueError:
                        continue
                    accesses.pop(parts[1], None)
                    accesses[parts[1]] = stamp
        except OSError:
            pass
        return accesses

    # -- core API ------------------------------------------------------

    def put_bytes(self, key: str, data: bytes) -> str:
        """Store ``data`` under ``key``; returns the content digest.

        The blob is published first, then the index entry — a reader
        that sees the index entry can always resolve the payload. Both
        writes go through the shared atomic path; the per-key flock
        serialises concurrent writers of the same key.
        """
        digest = hashlib.sha256(data).hexdigest()
        blob = self.blob_path(digest)
        if blob.exists():
            self.counters.incr("dedup_hits")
        else:
            atomic_write_bytes(blob, data)
        entry = {"key": key, "digest": digest, "size": len(data),
                 "created_unix": time.time()}
        kd = key_digest(key)
        with file_lock(self.locks_dir / f"{kd}.lock"):
            atomic_write_bytes(self.index_path(key),
                               json.dumps(entry).encode())
        self._journal(kd)
        self.counters.incr("writes")
        if self.budget_bytes is not None:
            if self._approx_bytes is None:
                self._approx_bytes = self.total_bytes()
            else:
                self._approx_bytes += len(data)
            if self._approx_bytes > self.budget_bytes:
                self.gc()
        return digest

    def _read_index(self, key: str,
                    quarantined: Optional[List[Path]] = None
                    ) -> Optional[dict]:
        path = self.index_path(key)
        record, problem = _read_record(path, key)
        if problem is not None:
            self._quarantine(path, quarantined)
        return record

    def get_bytes(self, key: str,
                  quarantined: Optional[List[Path]] = None
                  ) -> Optional[bytes]:
        """Recall ``key``'s payload; corruption quarantines, never raises.

        A missing entry (never stored, or evicted) is a plain miss —
        the caller recomputes. A present entry whose blob is missing
        (raced gc) heals itself: the stale index record is dropped and
        the read degrades to a miss. ``quarantined``, when given,
        receives each file this call moved aside — unlike the shared
        ``counters``, it never picks up another thread's quarantine.
        """
        record = self._read_index(key, quarantined)
        if record is None:
            self.counters.incr("misses")
            return None
        blob = self.blob_path(record["digest"])
        try:
            data = blob.read_bytes()
        except OSError:
            self.index_path(key).unlink(missing_ok=True)  # stale index
            self.counters.incr("misses")
            return None
        if hashlib.sha256(data).hexdigest() != record["digest"]:
            self._quarantine(blob, quarantined)
            self.index_path(key).unlink(missing_ok=True)
            self.counters.incr("misses")
            return None
        self._journal(key_digest(key))
        self.counters.incr("hits")
        return data

    def contains(self, key: str) -> bool:
        """Existence probe: no read, no digest check, no counters."""
        return self.index_path(key).exists()

    def delete(self, key: str) -> None:
        self.index_path(key).unlink(missing_ok=True)
        # The blob may be shared; orphan blobs are collected by gc.

    def quarantine(self, key: str) -> None:
        """Set ``key``'s blob aside as ``<blob>.corrupt`` and drop its
        index entry: its bytes hash right but the caller cannot use
        them (schema drift)."""
        record = self._read_index(key)
        if record is not None:
            self._quarantine(self.blob_path(record["digest"]))
        self.delete(key)

    def _quarantine(self, path: Path,
                    quarantined: Optional[List[Path]] = None) -> None:
        if quarantine_file(path) is not None:
            self.counters.incr("quarantined")
            if quarantined is not None:
                quarantined.append(path)

    # -- scanning / gc -------------------------------------------------

    def entries(self, corrupt: Optional[List[Path]] = None
                ) -> List[StoreEntry]:
        """The well-formed index records, moving no file; ``corrupt``,
        when given, receives each record that fails to parse."""
        out: List[StoreEntry] = []
        accesses = self._last_access_map()
        seq = {kd: i for i, kd in enumerate(accesses)}
        for path in sorted(self.index_dir.glob("*.json")):
            record, problem = _read_record(path)
            if problem is not None and corrupt is not None:
                corrupt.append(path)
            if record is None:
                continue
            out.append(StoreEntry(
                key=record.get("key", path.stem),
                path=path,
                size=int(record.get("size", 0)),
                last_access=accesses.get(
                    path.stem, _mtime_or(path, record.get("created_unix",
                                                          0.0))),
                access_seq=seq.get(path.stem, -1),
                digest=record["digest"]))
        return out

    def _bytes_of(self, entries: List[StoreEntry]) -> int:
        # Entries share deduplicated blobs: count the disk instead.
        return self.total_bytes()

    def total_bytes(self) -> int:
        """Actual disk usage: unique blob bytes + index bytes."""
        total = 0
        for path in self.blobs_dir.glob("*/*.blob"):
            total += _size_or_zero(path)
        for path in self.index_dir.glob("*.json"):
            total += _size_or_zero(path)
        return total

    def gc(self, max_bytes: Optional[int] = None,
           dry_run: bool = False) -> dict:
        """Bound the tier: LRU-evict past budget, drop orphan blobs,
        heal dangling index entries, compact the journal.

        ``max_bytes`` overrides the store's configured budget for this
        pass; ``None`` with no configured budget only collects garbage
        (orphans, dangling entries, stale journal lines) without
        evicting live entries.
        """
        budget = max_bytes if max_bytes is not None else self.budget_bytes
        self.counters.incr("gc_runs")
        corrupt: List[Path] = []
        entries = self.entries(corrupt)
        # Heal: a corrupt index record, or an index entry whose blob
        # vanished, can never be read.
        if not dry_run:
            for path in corrupt:
                self._quarantine(path)
        live: List[StoreEntry] = []
        for entry in entries:
            if self.blob_path(entry.digest).exists():
                live.append(entry)
            elif not dry_run:
                entry.path.unlink(missing_ok=True)
        used = self.total_bytes()
        report = self._evict_lru(
            live, used, budget if budget is not None else used,
            dry_run, lambda e: e.path.unlink(missing_ok=True))
        if not dry_run:
            self._sweep_orphan_blobs(report)
            self._compact_journal()
            self._approx_bytes = self.total_bytes()
            report["bytes_after"] = self._approx_bytes
        return report

    def _sweep_orphan_blobs(self, report: dict) -> None:
        referenced = {entry.digest for entry in self.entries()}
        removed = 0
        for blob in self.blobs_dir.glob("*/*.blob"):
            if blob.stem not in referenced:
                blob.unlink(missing_ok=True)
                removed += 1
        report["orphan_blobs_removed"] = removed

    def _compact_journal(self) -> None:
        """Rewrite the journal with one line per surviving entry, in
        the journal order of their last accesses."""
        accesses = self._last_access_map()
        survivors = {path.stem for path in self.index_dir.glob("*.json")}
        lines = [f"{ts:.3f} {kd}\n" for kd, ts in accesses.items()
                 if kd in survivors]
        if not lines and not self.journal_path.exists():
            return
        atomic_write_bytes(self.journal_path, "".join(lines).encode(),
                           durable=False)

    def verify(self, repair: bool = False) -> List[str]:
        """Check every entry end-to-end; returns human-readable problems.

        With ``repair=True`` corrupt entries are quarantined and
        dangling index records removed, so a following run starts
        clean (and recomputes what was lost).
        """
        problems: List[str] = []
        for path in sorted(self.index_dir.glob("*.json")):
            record, problem = _read_record(path)
            if problem is not None:
                problems.append(f"{path.name}: {problem}")
                if repair:
                    self._quarantine(path)
            if record is None:
                continue
            digest = record["digest"]
            blob = self.blob_path(digest)
            try:
                data = blob.read_bytes()
            except OSError:
                problems.append(
                    f"{path.name}: blob {digest[:12]}… missing")
                if repair:
                    path.unlink(missing_ok=True)
                continue
            if hashlib.sha256(data).hexdigest() != digest:
                problems.append(
                    f"{path.name}: blob {digest[:12]}… digest mismatch")
                if repair:
                    self._quarantine(blob)
                    path.unlink(missing_ok=True)
        return problems


class FileStore(_StoreBase):
    """Budget/pin/verify management for a directory of standalone files.

    Checkpoints and job manifests are addressed by path from outside
    the store, so their on-disk layout stays flat; this class brings
    them under the same eviction and verification regime as the CAS
    tier. Each save rewrites the file (updating mtime), so mtime is the
    LRU clock. The module that writes a tier defines it once
    (``pattern``, ``pinned_check``, ``validator``) and every user builds
    the tier from that definition.

    An entry is pinned while a live process holds its ``.pin`` sibling
    (:meth:`write_pin`), or while ``pinned_check`` says so, e.g. for a
    job manifest still ``queued``/``running``. ``validator`` names what
    is wrong with a file (``None`` when nothing is).
    """

    def __init__(self, directory, pattern: str, tier: str,
                 budget_bytes: Optional[int] = None,
                 pinned_check: Optional[Callable[[Path], bool]] = None,
                 validator: Optional[Callable[[Path], Optional[str]]] = None,
                 ) -> None:
        super().__init__(directory, tier, budget_bytes)
        self.pattern = pattern
        self.pinned_check = pinned_check
        self.validator = validator

    # -- pins ----------------------------------------------------------

    @staticmethod
    def _pin_path(path: Path) -> Path:
        return path.with_name(path.name + ".pin")

    def write_pin(self, path: Path) -> None:
        """Shield ``path`` from eviction while this process lives."""
        try:
            self._pin_path(path).write_text(str(os.getpid()))
        except OSError:  # pragma: no cover - read-only directory
            pass

    def drop_pin(self, path: Path) -> None:
        self._pin_path(path).unlink(missing_ok=True)

    def delete(self, path: Path) -> None:
        """Remove an entry and its pin."""
        self.drop_pin(path)
        path.unlink(missing_ok=True)

    def quarantine(self, path: Path) -> None:
        """Set an entry aside as ``<file>.corrupt`` and drop its pin."""
        if quarantine_file(path) is not None:
            self.counters.incr("quarantined")
        self.drop_pin(path)

    # -- scanning / gc -------------------------------------------------

    def entries(self) -> List[StoreEntry]:
        out: List[StoreEntry] = []
        for path in sorted(self.directory.glob(self.pattern)):
            if path.name.endswith((CORRUPT_SUFFIX, ".pin")) \
                    or ".tmp." in path.name:
                continue
            size = _size_or_zero(path)
            pinned = _pin_live(self._pin_path(path)) or bool(
                self.pinned_check and self.pinned_check(path))
            out.append(StoreEntry(key=path.name, path=path, size=size,
                                  last_access=_mtime_or(path, 0.0),
                                  pinned=pinned))
        return out

    def gc(self, max_bytes: Optional[int] = None,
           dry_run: bool = False) -> dict:
        budget = max_bytes if max_bytes is not None else self.budget_bytes
        self.counters.incr("gc_runs")
        entries = self.entries()
        used = sum(entry.size for entry in entries)
        return self._evict_lru(
            entries, used, budget if budget is not None else used,
            dry_run, lambda e: self.delete(e.path))

    def verify(self, repair: bool = False) -> List[str]:
        problems: List[str] = []
        if self.validator is None:
            return problems
        for entry in self.entries():
            problem = self.validator(entry.path)
            if problem:
                problems.append(f"{entry.path.name}: {problem}")
                if repair:
                    self.quarantine(entry.path)
        return problems


def _size_or_zero(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _mtime_or(path: Path, default: float) -> float:
    try:
        return path.stat().st_mtime
    except OSError:
        return float(default or 0.0)
