"""Stdlib HTTP front-end for the job scheduler.

Endpoints (all JSON)::

    POST /v1/jobs        submit a job            -> 202 job record
                         fully cached            -> 202, already done
                         queue full              -> 429 + Retry-After
                         invalid request         -> 400
                         draining                -> 503
    GET  /v1/jobs        list known jobs         -> 200
    GET  /v1/jobs/<id>   poll one job            -> 200 | 404
    GET  /healthz        liveness + queue depth  -> 200 | 503 (draining)
    GET  /metrics        counters snapshot       -> 200

Built on :class:`http.server.ThreadingHTTPServer` — one thread per
request, all of them funnelling into the scheduler's locked submit
path; a job the result cache already holds is finished right there,
while simulation work happens on the scheduler's worker pool, so slow
simulations never block health probes.

:func:`serve_until_signal` wires SIGTERM/SIGINT to a graceful drain:
stop accepting, finish the in-flight batch, persist, exit.
"""

from __future__ import annotations

import json
import os
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro import __version__
from repro.service.jobs import JobValidationError
from repro.service.scheduler import JobScheduler, QueueFull, SchedulerStopped

MAX_BODY_BYTES = 4 * 1024 * 1024  # a job manifest, not a dataset
#: Seconds a connection may stay silent (idle, or part-way through a
#: request) before the server closes it and frees its handler thread.
IDLE_TIMEOUT_S = 60.0


class ReproHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the scheduler for its handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], scheduler: JobScheduler,
                 verbose: bool = False) -> None:
        self.scheduler = scheduler
        self.verbose = verbose
        super().__init__(address, JobRequestHandler)


class JobRequestHandler(BaseHTTPRequestHandler):
    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.1"
    # _reply writes headers and body separately; with Nagle's algorithm
    # the body waits for the client's delayed ACK (~40 ms per reply).
    disable_nagle_algorithm = True

    @property
    def timeout(self) -> float:
        """Socket timeout ``setup()`` applies to each accepted connection;
        a client that sends nothing for this long is disconnected."""
        return IDLE_TIMEOUT_S

    @property
    def scheduler(self) -> JobScheduler:
        return self.server.scheduler

    def log_message(self, fmt: str, *args) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    # ------------------------------------------------------------------

    def _reply(self, status: int, payload: dict,
               retry_after_s: Optional[float] = None) -> None:
        body = json.dumps(payload, default=str).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after_s is not None:
            self.send_header("Retry-After",
                             str(max(1, int(round(retry_after_s)))))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str,
               retry_after_s: Optional[float] = None) -> None:
        self._reply(status, {"error": message}, retry_after_s=retry_after_s)

    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler API)
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            health = self.scheduler.health()
            self._reply(200 if health["status"] == "ok" else 503, health)
        elif path == "/metrics":
            self._reply(200, self.scheduler.metrics())
        elif path == "/v1/jobs":
            jobs = self.scheduler.jobs()
            self._reply(200, {"jobs": [
                {"id": job.id, "state": job.state, "tag": job.tag,
                 "experiment": job.experiment,
                 "specs": len(job.entries)} for job in jobs]})
        elif path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            job = self.scheduler.get(job_id)
            if job is None:
                self._error(404, f"unknown job {job_id!r}")
            else:
                self._reply(200, job.to_dict())
        else:
            self._error(404, f"no such endpoint {path!r}; try /healthz, "
                             "/metrics, or /v1/jobs")

    def do_POST(self) -> None:  # noqa: N802
        path = self.path.split("?", 1)[0].rstrip("/")
        if path != "/v1/jobs":
            self._error(404, f"no such endpoint {path!r}; POST /v1/jobs")
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._error(400, "missing or oversized Content-Length")
            return
        try:
            payload = json.loads(self.rfile.read(length) or b"{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._error(400, f"request body is not valid JSON: {exc}")
            return
        try:
            job = self.scheduler.submit(payload)
        except JobValidationError as exc:
            self._error(400, str(exc))
        except QueueFull as exc:
            self._error(429, str(exc), retry_after_s=exc.retry_after_s)
        except SchedulerStopped as exc:
            self._error(503, str(exc))
        else:
            self._reply(202, job.to_dict())


# ---------------------------------------------------------------------------
# Server lifecycle
# ---------------------------------------------------------------------------


def make_server(scheduler: JobScheduler, host: str = "127.0.0.1",
                port: int = 8787, verbose: bool = False) -> ReproHTTPServer:
    return ReproHTTPServer((host, port), scheduler, verbose=verbose)


#: Exit code of a forced (double-signal) shutdown.
FORCED_EXIT_CODE = 70  # EX_SOFTWARE: the drain was abandoned


def serve_until_signal(server: ReproHTTPServer,
                       scheduler: JobScheduler) -> int:
    """Serve until SIGTERM/SIGINT, then drain gracefully.

    The first signal flips the scheduler into draining (new submits
    answer 503) and stops the accept loop from a side thread —
    ``HTTPServer.shutdown`` must not be called from the thread running
    ``serve_forever``. The in-flight batch finishes and persists before
    the process exits; returns 0.

    A *second* signal while the drain is still in progress means the
    operator (or the supervisor's escalation policy) will not wait:
    the process hard-exits immediately with :data:`FORCED_EXIT_CODE`
    (non-zero, so unit files and CI mark the stop as unclean). Job
    manifests are durable at every state change and simulations
    checkpoint, so the abandoned batch is recovered on restart.
    """
    signals_seen = 0

    def _stop(_signum, _frame) -> None:
        nonlocal signals_seen
        signals_seen += 1
        if signals_seen > 1:
            os._exit(FORCED_EXIT_CODE)  # second signal: die NOW
        scheduler.begin_drain()  # refuse new work immediately
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _stop)
    try:
        server.serve_forever(poll_interval=0.2)
        # The drain below (batch completion, pool shutdown) still runs
        # under the forced-exit handler: a second signal cuts it short.
        server.server_close()
        scheduler.shutdown()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.server_close()
        scheduler.shutdown()  # idempotent; covers the exception path
    return 0
