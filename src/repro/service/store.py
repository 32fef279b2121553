"""Durable job manifests: the piece of the service that survives
restarts.

The :class:`JobStore` persists one JSON manifest per job through the
shared artifact-store write path
(:func:`~repro.store.atomic_write_bytes`: temp sibling + fsync +
``os.replace`` + parent-dir fsync). Before that unification manifests
were replaced without any fsync, so a power loss shortly after a
"durable" save could surface a zero-length committed file that restart
recovery then quarantined — silently dropping a queued job. Simulation
*results* are not duplicated here — workers write them into the shared
``ResultCache`` keyed by v8 spec keys, so a restarted server reloads
queued/running manifests, re-enqueues them, and the executor recalls
every spec that already completed instead of recomputing it. Finished
jobs keep their result rows and rendered table in the manifest so
``GET /v1/jobs/<id>`` answers without touching the cache.

The directory is the ``manifests`` store tier
(:func:`manifest_store`). With ``budget_bytes`` set, :meth:`gc` bounds
it by LRU-evicting *terminal* manifests, oldest save first: a manifest
is pinned unless it parses as a finished job. ``repro store verify``
flags exactly the manifests :meth:`JobStore.load` would quarantine,
because both judge a file with :func:`_parse_manifest`.

Saves of one job are serialised, and the job is encoded under that
lock: the HTTP thread that accepted a job and the scheduler thread
that runs it may save it at the same moment, and whichever writes
last writes the newest state, so a ``queued`` manifest can never land
on top of ``running`` or ``done``.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import List, Optional, Tuple

from repro.service.jobs import TERMINAL_STATES, Job
from repro.store import FileStore, atomic_write_bytes, quarantine_file
from repro.telemetry.session import Counters

DEFAULT_STATE_DIR = ".repro_jobs"

#: The manifest files of a state directory (``<job-id>.json``).
MANIFEST_PATTERN = "j-*.json"

#: Save locks, striped by job id: bounded however many jobs a server
#: sees, and two different jobs rarely wait on each other.
_SAVE_STRIPES = 64


def _parse_manifest(path: Path) -> Tuple[Optional[Job], Optional[str]]:
    """Read one manifest: ``(job, None)`` when this version can load it,
    ``(None, problem)`` when it is corrupt, and ``(None, None)`` when it
    cannot be read now (absent, or mid-replace: a race, not
    corruption)."""
    try:
        data = json.loads(path.read_text())
    except OSError:
        return None, None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        return None, f"unreadable manifest ({exc})"
    if not isinstance(data, dict):
        return None, "manifest is not a job object"
    try:
        return Job.from_dict(data), None
    except Exception as exc:
        return None, f"not a job this version loads ({exc!r})"


def _manifest_pinned(path: Path) -> bool:
    """Eviction touches only a manifest that parses as a finished job:
    a queued or running job, or a file it cannot judge, stays."""
    job, _ = _parse_manifest(path)
    return job is None or job.state not in TERMINAL_STATES


def manifest_store(directory,
                   budget_bytes: Optional[int] = None) -> FileStore:
    """The ``manifests`` tier of a state directory."""
    return FileStore(directory, MANIFEST_PATTERN, tier="manifests",
                     budget_bytes=budget_bytes,
                     pinned_check=_manifest_pinned,
                     validator=lambda path: _parse_manifest(path)[1])


class JobStore:
    """Directory of ``<job-id>.json`` manifests with durable writes."""

    def __init__(self, directory: str = DEFAULT_STATE_DIR,
                 budget_bytes: Optional[int] = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.counters = Counters(("manifests_quarantined",),
                                 session_prefix="service.")
        self.file_store = manifest_store(self.directory, budget_bytes)
        self._save_locks = [threading.RLock()
                            for _ in range(_SAVE_STRIPES)]

    def _path(self, job_id: str) -> Path:
        # Job ids are generated server-side (j-<hex>), but manifests are
        # looked up by client-supplied ids: refuse path separators.
        if "/" in job_id or os.sep in job_id or job_id in (".", ".."):
            raise ValueError(f"invalid job id {job_id!r}")
        return self.directory / f"{job_id}.json"

    def save_lock(self, job_id: str) -> threading.RLock:
        """The lock :meth:`save` holds for ``job_id``. It is re-entrant,
        so a caller can save a job and change it in memory under it."""
        return self._save_locks[hash(job_id) % _SAVE_STRIPES]

    def save(self, job: Job) -> None:
        path = self._path(job.id)
        with self.save_lock(job.id):
            atomic_write_bytes(
                path, json.dumps(job.to_dict(), default=str).encode())

    def load(self, job_id: str) -> Optional[Job]:
        """Recall a manifest; corruption quarantines the file.

        Torn/truncated JSON, non-dict payloads, and manifests this
        server version cannot parse (schema drift, hand-edited files)
        all read as absent rather than crashing every listing that
        walks the directory — but the offending file is renamed to
        ``<manifest>.json.corrupt`` first (the
        :class:`~repro.experiments.runner.ResultCache` discipline) so
        the evidence survives for a post-mortem instead of being
        re-clobbered by the next :meth:`save`, and the event is counted
        (``service.manifests_quarantined`` in ``/metrics``). A plain
        read race (``OSError``) stays a silent miss — the file may be
        mid-replace, not corrupt.
        """
        try:
            path = self._path(job_id)
        except ValueError:
            return None
        job, problem = _parse_manifest(path)
        if problem is not None:
            return self._quarantine(path)
        return job

    def _quarantine(self, path: Path) -> None:
        """Set a corrupt manifest aside as ``<manifest>.json.corrupt``.

        The renamed file no longer matches :data:`MANIFEST_PATTERN`, so
        listings and recovery skip it naturally.
        """
        quarantine_file(path)
        self.counters.incr("manifests_quarantined")
        return None

    def gc(self, max_bytes: Optional[int] = None,
           dry_run: bool = False) -> dict:
        """Bound the manifest directory (see :meth:`FileStore.gc`)."""
        return self.file_store.gc(max_bytes=max_bytes, dry_run=dry_run)

    def store_stats(self) -> dict:
        return self.file_store.stats()

    def job_ids(self) -> List[str]:
        return sorted(p.stem for p in self.directory.glob(MANIFEST_PATTERN))

    def load_all(self) -> List[Job]:
        jobs = [self.load(job_id) for job_id in self.job_ids()]
        return [job for job in jobs if job is not None]

    def unfinished(self) -> List[Job]:
        """Jobs a previous server left queued or running, oldest first."""
        pending = [job for job in self.load_all()
                   if job.state not in TERMINAL_STATES]
        return sorted(pending, key=lambda job: job.created_unix)
