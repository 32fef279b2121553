"""Launch ``repro serve`` for the ``service-mix`` workload.

Usage: ``serve.py [--trace OUT.json] serve <repro serve arguments>``.

The launcher works around a race in the service: the HTTP thread (on
submit) and the scheduler thread (when it picks the job up) can save
the same job manifest at the same moment, both through the temporary
file ``<manifest>.tmp.<pid>``. One ``os.replace`` then fails; in the
scheduler thread that ends all scheduling and every later submission is
refused with 429. A slow fsync widens the window, so even one client
with one job in flight meets it now and then. The launcher serialises
``JobStore.save`` with one lock; drop it once the service fixes the race.

With ``--trace`` the benchmark's per-layer spans are installed too, and
once the server has drained on SIGTERM the tracer's totals are written
to ``OUT.json``.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import tracer as tracing


def serialise_manifest_saves() -> None:
    from repro.service.store import JobStore

    save = JobStore.save
    lock = threading.Lock()

    def locked_save(self, job):
        with lock:
            save(self, job)

    JobStore.save = locked_save


def main(argv) -> int:
    out = None
    if argv[:1] == ["--trace"]:
        out, argv = Path(argv[1]), argv[2:]
    serialise_manifest_saves()
    tr = tracing.Tracer()
    if out is not None:
        tracing.install(tr)
    from repro.cli import main as repro_main
    code = repro_main(list(argv))
    if out is not None:
        out.write_text(json.dumps(tr.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
