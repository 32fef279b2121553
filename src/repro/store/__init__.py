"""Content-addressed, size-bounded artifact store (see :mod:`.cas`).

The single disk layer under the result cache, checkpoint snapshots,
and service job manifests: one atomic/durable write path
(:mod:`.atomic`), sha256-addressed deduplicated blobs with a key
index, LRU eviction under per-tier byte budgets, pid-carrying pins,
and a ``repro store gc|stats|verify`` CLI (:mod:`.cli`).
"""

from repro.store.atomic import (
    CORRUPT_SUFFIX,
    atomic_write_bytes,
    file_lock,
    format_size,
    fsync_dir,
    parse_size,
    quarantine_file,
)
from repro.store.cas import (
    ArtifactStore,
    FileStore,
    StoreEntry,
    key_digest,
)

__all__ = [
    "ArtifactStore",
    "FileStore",
    "StoreEntry",
    "CORRUPT_SUFFIX",
    "atomic_write_bytes",
    "file_lock",
    "format_size",
    "fsync_dir",
    "key_digest",
    "parse_size",
    "quarantine_file",
]
