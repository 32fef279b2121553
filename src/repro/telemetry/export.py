"""Machine-readable run artefacts: stats JSON, CSV, and run manifests.

The stats document written by ``--stats-json`` has the shape::

    {
      "manifest": {schema, created_unix, git_rev, config_hash, seed, ...},
      "runs": [
        {"benchmark": ..., "memory": ..., "variant": ...,
         "summary": {...SimResult scalars...},
         "metrics": {"dram.ddr3-ch0.queue_latency_cycles": {...}, ...}},
        ...
      ]
    }

CSV export flattens one metric per row for spreadsheet use.
"""

from __future__ import annotations

import csv
import hashlib
import json
import platform
import subprocess
import sys
import time
from typing import List, Optional


STATS_SCHEMA_VERSION = 1


def config_hash(obj) -> str:
    """Stable short hash of any JSON-serialisable configuration."""
    try:
        blob = json.dumps(obj, sort_keys=True, default=str)
    except TypeError:
        blob = repr(obj)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """Current git HEAD, or None outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd,
            capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def run_manifest(config=None, seed: Optional[int] = None,
                 argv: Optional[List[str]] = None,
                 wall_time_s: Optional[float] = None,
                 extra: Optional[dict] = None) -> dict:
    """Provenance record stamped into every stats export."""
    manifest = {
        "schema": STATS_SCHEMA_VERSION,
        "created_unix": time.time(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git_rev": git_revision(),
        "argv": list(argv) if argv is not None else list(sys.argv),
    }
    if config is not None:
        manifest["config_hash"] = config_hash(config)
        manifest["config"] = config if isinstance(config, dict) else str(config)
    if seed is not None:
        manifest["seed"] = seed
    if wall_time_s is not None:
        manifest["wall_time_s"] = wall_time_s
    if extra:
        manifest.update(extra)
    return manifest


# ---------------------------------------------------------------------------
# Stats documents
# ---------------------------------------------------------------------------

def stats_document(manifest: dict, runs: List[dict]) -> dict:
    return {"manifest": manifest, "runs": runs}


def write_stats_json(path: str, manifest: dict, runs: List[dict]) -> None:
    with open(path, "w") as handle:
        json.dump(stats_document(manifest, runs), handle, indent=1)


def write_stats_csv(path: str, runs: List[dict]) -> None:
    """One row per (run, metric, field) for spreadsheet consumption."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["benchmark", "memory", "metric", "type",
                         "field", "value"])
        for run in runs:
            bench = run.get("benchmark", "")
            memory = run.get("memory", "")
            for name, snap in sorted(run.get("metrics", {}).items()):
                kind = snap.get("type", "")
                for field, value in snap.items():
                    if field in ("type", "buckets"):
                        continue
                    writer.writerow([bench, memory, name, kind, field, value])


# ---------------------------------------------------------------------------
# Experiment tables as JSON (CLI --json mode)
# ---------------------------------------------------------------------------

def table_to_dict(table) -> dict:
    """Structured form of an ExperimentTable (duck-typed)."""
    return {
        "experiment_id": table.experiment_id,
        "title": table.title,
        "columns": list(table.columns),
        "rows": [dict(row) for row in table.rows],
        "notes": table.notes,
    }


def tables_to_json(tables, manifest: Optional[dict] = None) -> str:
    doc = {"tables": [table_to_dict(t) for t in tables]}
    if manifest is not None:
        doc["manifest"] = manifest
    return json.dumps(doc, indent=1, default=str)
