"""The one atomic-write path every on-disk tier goes through.

Before the artifact store existed the repo had three independent
"atomic write" implementations — :class:`ResultCache` (temp +
``os.replace``, no fsync), ``sim/checkpoint.py`` (temp + fsync +
``os.replace``, no parent-dir fsync), and the service ``JobStore``
(temp + ``os.replace``, no fsync at all) — with three different
durability holes. A crash between the page-cache write and the disk
flush could leave a zero-length "committed" file that restart recovery
then quarantined, silently dropping queued jobs.

:func:`atomic_write_bytes` is the single discipline now:

1. write to a sibling temp file (same directory, so ``os.replace``
   stays a same-filesystem rename),
2. flush and ``fsync`` the temp file (the *data* is durable),
3. ``os.replace`` it into place (the rename is atomic),
4. ``fsync`` the parent directory (the *name* is durable).

A crash at any point leaves either the complete old file or the
complete new file — never a torn or empty one, even across power loss.
``durable=False`` skips both fsyncs for throwaway tiers (tests, tmpfs
caches) where the double flush is measurable.
"""

from __future__ import annotations

import contextlib
import os
import threading
from pathlib import Path
from typing import Iterator, Optional, Union

PathLike = Union[str, os.PathLike]

#: Suffix marking a quarantined (corrupt but preserved) entry.
CORRUPT_SUFFIX = ".corrupt"


def fsync_dir(directory: PathLike) -> None:
    """Flush a directory entry table; best-effort on exotic filesystems."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync unsupported on dirs here
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: PathLike, data: bytes,
                       durable: bool = True) -> None:
    """Atomically (and, by default, durably) publish ``data`` at ``path``.

    Readers racing this call observe either the previous complete file
    or the new complete file. With ``durable=True`` (the default) the
    bytes and the rename both survive a crash or power loss.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # One temp name per writing thread: two threads of one process
    # publishing the same path must not share (and unlink) one file.
    tmp = path.with_name(
        f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    if durable:
        fsync_dir(path.parent)


@contextlib.contextmanager
def file_lock(path: PathLike) -> Iterator[None]:
    """Advisory exclusive ``flock`` on ``path`` (created if missing).

    Serialises multi-process writers of the same store entry so
    concurrent suite runs sharing a directory don't interleave their
    replace cycles. A no-op where the platform lacks ``fcntl``.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX platforms
        yield
        return
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def quarantine_file(path: PathLike) -> Optional[Path]:
    """Set a corrupt file aside as ``<file>.corrupt``; None if it raced.

    The renamed file no longer matches any entry glob, so listings and
    recovery skip it — but the evidence survives for a post-mortem
    instead of being re-clobbered by the next write.
    """
    path = Path(path)
    target = path.with_name(path.name + CORRUPT_SUFFIX)
    try:
        os.replace(path, target)
    except OSError:  # raced with another reader, or read-only store
        return None
    return target


# Size parsing lives with the other shared utilities; re-exported here
# because every budget consumer already imports it from the store.
from repro.util.sizes import format_size, parse_size  # noqa: E402,F401
