"""The ``service-mix`` workload: one client against ``repro serve``.

One client (this process) drives one ``repro serve --jobs 1`` subprocess
that runs on fresh cache and state directories. The client is a closed
loop paced by a fixed schedule: slot ``i`` is due at ``start + i/rate``
and is sent at its due time or, if the previous slot's jobs are still
running, as soon as they finish. How late the client ran behind its
schedule is reported as ``loadgen.late_p90_s``.

* Most slots ask for a spec seeded into the cache during set-up (the
  cached path: HTTP, scheduler, store read).
* Every ``COLD_EVERY``-th slot submits a cold spec, made unique by
  seed-drawn ``mshr_capacity``/``rob_size`` overrides, then the same
  spec again while the first is in flight (the coalesced path).

The server runs through ``perfbench/serve.py``, which works around a
race in the service's manifest saves (see there). The client is paced
rather than an open loop because every HTTP reply from the server takes
about 44 ms (it writes headers and body separately: Nagle's algorithm
meets the client's delayed ACK), so one client tops out near 11 jobs a
second; the rate (6.25 slots/s) also keeps the gaps between jobs under
the scheduler's 0.2 s idle wake-up.

Submit-to-done is the server's ``finished_unix`` minus the client's
send time (same host clock), so the poll rate does not enter it. Every HTTP
error, 429, failed job and result row that differs from the same spec
run in-process counts as a failure.

Set-up times and the server's timings are put on the reference host's
scale by host-speed probes (see ``hostspeed``): around each set-up, at
both ends of the window, and inside it in the cached slots on either
side of each cold slot, once the slot's job is done and the server is
idle. A cold job is scaled by the two probes beside it, the window's
CPU time by the mean of all its probes. Job latencies are left as
measured: a cached job's few milliseconds include two durable manifest
saves (fsync) and hand-offs between the server's threads, which a CPU
probe does not describe.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import hostspeed
import outputs
import stats
import tracer as tracing

HERE = Path(__file__).resolve().parent

SERVICE_READS = 300
SERVICE_BENCHMARKS = ("mcf", "leslie3d", "lbm", "omnetpp")
CACHED_MEMORIES = ("ddr3", "rl", "hmc_cwf")
COLD_MEMORIES = ("ddr3", "rl")
RATE_PER_S = 6.25
COLD_EVERY = 6
SETUP_REPEATS = 7
POLL_GAP_S = 0.02       # minimum gap between two polls
HTTP_TIMEOUT_S = 30.0
JOB_TIMEOUT_S = 15.0

CACHED, COLD, COALESCED = "cached", "cold", "coalesced"


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _server_config(cache_dir: Optional[str]):
    from repro.experiments import ExperimentConfig
    return ExperimentConfig(target_dram_reads=SERVICE_READS,
                            cache_dir=cache_dir)


def cached_specs():
    from repro.experiments import RunSpec
    return [RunSpec(benchmark=b, memory=m)
            for m in CACHED_MEMORIES for b in SERVICE_BENCHMARKS]


def arrival_plan(seed: int, slots: int) -> List[List[tuple]]:
    """Per slot, the ``(kind, spec)`` requests it sends, drawn from ``seed``.

    Cold slots cycle through every (benchmark, memory) pair in a fixed
    order, so each run simulates the same mix; only the overrides that
    make each spec unique are drawn.
    """
    from repro.experiments import RunSpec

    rng = random.Random(seed)
    seeded = cached_specs()
    pairs = [(b, m) for m in COLD_MEMORIES for b in SERVICE_BENCHMARKS]
    # Near the defaults (256, 64), so every cold spec costs about the same.
    overrides = [(m, r) for m in range(192, 256) for r in range(56, 73)]
    rng.shuffle(overrides)
    plan: List[List[tuple]] = []
    for slot in range(slots):
        if slot % COLD_EVERY == COLD_EVERY // 2:
            bench, memory = pairs[(slot // COLD_EVERY) % len(pairs)]
            mshr, rob = overrides.pop()
            spec = RunSpec(benchmark=bench, memory=memory,
                           overrides=(("mshr_capacity", mshr),
                                      ("rob_size", rob)))
            plan.append([(COLD, spec), (COALESCED, spec)])
        else:
            plan.append([(CACHED, rng.choice(seeded))])
    return plan


def spec_payload(spec) -> dict:
    from repro.service.jobs import spec_to_dict
    return {"specs": [spec_to_dict(spec)]}


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------


class Server:
    """A ``repro serve`` subprocess on a free port, with its directories."""

    def __init__(self, root: Path, trace_out: Optional[Path] = None) -> None:
        self.cache_dir = root / "cache"
        self.state_dir = root / "state"
        self.log = root / "serve.log"
        root.mkdir(parents=True, exist_ok=True)
        trace = ["--trace", str(trace_out)] if trace_out else []
        self.base_cmd = [
            sys.executable, str(HERE / "serve.py"), *trace,
            "serve", "--jobs", "1", "--reads", str(SERVICE_READS),
            "--cache", str(self.cache_dir), "--state-dir", str(self.state_dir),
            "--no-recover", "--queue-limit", "64"]
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout_s: float = 30.0) -> None:
        for _ in range(3):  # a free port can be taken before the bind
            with socket.socket() as sock:
                sock.bind(("127.0.0.1", 0))
                self.port = sock.getsockname()[1]
            with open(self.log, "ab") as log:
                self.proc = subprocess.Popen(
                    self.base_cmd + ["--port", str(self.port)],
                    stdout=log, stderr=log)
            deadline = time.monotonic() + timeout_s
            while time.monotonic() < deadline:
                if self.proc.poll() is not None:
                    break
                try:
                    conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                      timeout=2)
                    conn.request("GET", "/healthz")
                    if conn.getresponse().status == 200:
                        conn.close()
                        return
                    conn.close()
                except OSError:
                    pass
                time.sleep(0.01)
            self.stop()
        raise RuntimeError(f"repro serve did not come up; see {self.log}")

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = fields.rsplit(")", 1)[1].split()
        ticks = sum(int(v) for v in fields[11:15])  # utime stime cutime cstime
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None


def seed_cache(cache_dir: Path, results: Dict) -> None:
    from repro.experiments import ResultCache, spec_cache_key
    config = _server_config(str(cache_dir))
    cache = ResultCache(str(cache_dir))
    for spec, result in results.items():
        cache.put(spec_cache_key(spec, config), result)


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


class TransportError(RuntimeError):
    pass


class Connection:
    """One keep-alive HTTP connection; a broken one is reopened."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, payload=None):
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=HTTP_TIMEOUT_S)
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        start = time.perf_counter()
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
        except (http.client.HTTPException, OSError) as exc:
            self.close()
            raise TransportError(f"{method} {path}: "
                                 f"{type(exc).__name__}: {exc}") from None
        rtt = time.perf_counter() - start
        try:
            data = json.loads(raw or b"{}")
        except ValueError:
            data = {"error": raw[:200].decode(errors="replace")}
        return response.status, data, rtt

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class Session:
    """Drive one paced window against a running server."""

    def __init__(self, server: Server, plan: List[List[tuple]],
                 tally, probe=None) -> None:
        self.server = server
        self.plan = plan
        self.tally = tally
        self.probe = probe
        self.probes: Dict[int, float] = {}   # slot -> probe after it
        self.schedule = stats.Schedule(RATE_PER_S, 0.0)
        self.done: List[dict] = []
        self.post_rtt: List[float] = []
        self.get_rtt: List[float] = []
        self.rejected_429 = 0
        self.stalled = False
        self.conn = Connection(server.port)

    def run(self) -> None:
        self.schedule = stats.Schedule(RATE_PER_S, time.perf_counter() + 0.05)
        unix_offset = time.time() - time.perf_counter()
        try:
            for slot, requests in enumerate(self.plan):
                if self.stalled:
                    self.tally.fail(f"slot {slot} not sent: the server "
                                    "stopped finishing jobs")
                    continue
                delay = self.schedule.due(slot) - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                inflight = {}
                for kind, spec in requests:
                    sent = time.perf_counter()
                    self.schedule.sent(slot, sent)
                    job_id = self._post(spec)
                    if job_id is not None:
                        inflight[job_id] = {"kind": kind, "spec": spec,
                                            "slot": slot,
                                            "sent_unix": sent + unix_offset}
                self._wait(inflight)
                if self.probe and abs(slot % COLD_EVERY
                                      - COLD_EVERY // 2) == 1:
                    self.probes[slot] = self.probe()
        finally:
            self.conn.close()

    def _post(self, spec) -> Optional[str]:
        try:
            status, body, rtt = self.conn.request("POST", "/v1/jobs",
                                                  spec_payload(spec))
        except TransportError as exc:
            self.tally.fail(str(exc))
            return None
        self.post_rtt.append(rtt)
        if status == 202:
            return body["id"]
        if status == 429:
            self.rejected_429 += 1
        self.tally.fail(f"POST answered {status}: {body.get('error')}")
        return None

    def _wait(self, inflight: Dict[str, dict]) -> None:
        """Poll the slot's jobs, at most one GET per ``POLL_GAP_S``."""
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while inflight:
            if time.monotonic() > deadline:
                for job_id in inflight:
                    self.tally.fail(f"job {job_id} unfinished after "
                                    f"{JOB_TIMEOUT_S:g}s")
                self.stalled = True
                return
            for job_id in list(inflight):
                started = time.perf_counter()
                try:
                    status, job, rtt = self.conn.request(
                        "GET", f"/v1/jobs/{job_id}")
                except TransportError as exc:
                    self.tally.fail(str(exc))
                    inflight.pop(job_id)
                    continue
                self.get_rtt.append(rtt)
                if status != 200:
                    self.tally.fail(f"GET {job_id} answered {status}")
                    inflight.pop(job_id)
                elif job.get("state") in ("done", "failed"):
                    entry = inflight.pop(job_id)
                    entry["job"] = job
                    self.done.append(entry)
                pause = POLL_GAP_S - (time.perf_counter() - started)
                if inflight and pause > 0:
                    time.sleep(pause)

    def factor_around(self, slot: int) -> float:
        """Host-speed factor of the probes in the slots beside ``slot``."""
        probes = [self.probes[s] for s in (slot - 1, slot + 1)
                  if s in self.probes]
        return hostspeed.factor(probes) if probes else 1.0

    def metrics(self) -> dict:
        conn = Connection(self.server.port)
        try:
            status, body, _ = conn.request("GET", "/metrics")
        finally:
            conn.close()
        if status != 200:
            self.tally.fail(f"GET /metrics answered {status}")
            return {}
        return body


# ---------------------------------------------------------------------------
# Checks and figures
# ---------------------------------------------------------------------------


def check_jobs(session: Session, expected: Dict, tally) -> Dict[str, list]:
    """Check every finished job; return submit-to-done latency per class."""
    from repro.experiments import spec_cache_key

    config = _server_config(None)
    latency: Dict[str, List[float]] = {CACHED: [], COLD: [], COALESCED: []}
    for entry in session.done:
        job, spec, kind = entry["job"], entry["spec"], entry["kind"]
        if job["state"] != "done" or len(job["results"]) != 1:
            tally.fail(f"job {job['id']} {job['state']}: "
                       f"{job.get('failures') or job.get('error')}")
            continue
        flags = job["specs"][0]
        if kind == CACHED and not (flags["cached"] or flags["coalesced"]):
            tally.fail(f"seeded spec {spec.label} was not served from cache")
            continue
        if kind == COLD and (flags["cached"] or flags["coalesced"]):
            tally.fail(f"cold spec {spec.label} hit the cache")
            continue
        if kind == COALESCED and not flags["coalesced"]:
            kind = CACHED if flags["cached"] else COLD
        row = dict(job["results"][0])
        want = outputs.record(expected[spec])
        fields = outputs.diff_fields({k: row.get(k) for k in want}, want)
        if row.get("key") != spec_cache_key(spec, config):
            fields.append("key")
        if not tally.check(not fields, f"job {job['id']} ({spec.label}) "
                                       f"differs from in-process: {fields}"):
            continue
        entry["row"] = row
        latency[kind].append(job["finished_unix"] - entry["sent_unix"])
    return latency


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _tail(values, q: float):
    return stats.percentile(values, q) if stats.tail_supported(
        len(values), q) else None


def run_session(root: Path, plan: List[tuple], seeded: Dict, tally,
                trace_out: Optional[Path] = None,
                setup_repeats: int = 1, probe=None) -> dict:
    """Set up (``setup_repeats`` times), drive one window, stop.

    With a ``probe``, each set-up time is put on the reference scale and
    the window gets the host-speed ``factor`` of the probes around it.
    """
    setups: List[float] = []
    probes = [probe()] if probe else []
    window: List[float] = []
    server = None
    try:
        for attempt in range(setup_repeats):
            if server is not None:
                server.stop()
            start = time.perf_counter()
            server = Server(root / f"setup-{attempt}", trace_out)
            server.start()
            seed_cache(server.cache_dir, seeded)
            elapsed = time.perf_counter() - start
            if probe:
                probes.append(probe())
                elapsed = hostspeed.at_reference(elapsed, probes[-2:])
            setups.append(elapsed)
        if probe:
            window += [probe() for _ in range(hostspeed.BOUNDARY_PROBES)]
        session = Session(server, plan, tally, probe)
        cpu0 = server.cpu_seconds()
        session.run()
        server_metrics = session.metrics()
        cpu = server.cpu_seconds() - cpu0
        if probe:
            window += [probe() for _ in range(hostspeed.BOUNDARY_PROBES)]
            window += session.probes.values()
        peak_rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    return {"setup_s": statistics.median(setups), "cpu_s": cpu,
            "peak_rss_mb": peak_rss, "session": session,
            "server": server_metrics,
            "factor": hostspeed.factor(window) if window else 1.0}


def session_figures(done: dict, expected: Dict, tally) -> None:
    """Check a finished session's jobs and derive its figures in place."""
    session = done["session"]
    done["latency"] = check_jobs(session, expected, tally)
    # A cold job runs alone in its batch: its run time is the batch's.
    cold = [e for e in session.done if e["kind"] == COLD and "row" in e]
    done["reads"] = sum(e["row"]["dram_reads"] for e in cold)
    done["batch_s"] = sum(e["job"]["finished_unix"] - e["job"]["started_unix"]
                          for e in cold)
    done["batch_ref_s"] = sum(
        (e["job"]["finished_unix"] - e["job"]["started_unix"])
        / session.factor_around(e["slot"]) for e in cold)
    done["rows"] = [e["row"] for e in session.done
                    if e["kind"] == CACHED and "row" in e]


def service_layers(done: dict, snap: dict) -> Dict[str, float]:
    session, server = done["session"], done["server"]
    jobs = [e["job"] for e in session.done]
    waits = [j["started_unix"] - j["created_unix"] for j in jobs]
    runs = [j["finished_unix"] - j["started_unix"] for j in jobs]
    spec_slots = sum(len(j["specs"]) for j in jobs)
    coalesced = server.get("service.coalesced_specs", 0)
    layers = tracing.layer_metrics(snap)
    layers.update({
        "http.post_p50_s": _median(session.post_rtt),
        "http.get_p50_s": _median(session.get_rtt),
        "http.rejected_429": session.rejected_429,
        "scheduler.queue_wait_p50_s": _median(waits),
        "scheduler.queue_wait_p90_s": _tail(waits, 90.0) or 0.0,
        "scheduler.run_p50_s": _median(runs),
        "scheduler.batches": server.get("service.batches", 0),
        "scheduler.simulated_specs": server.get("service.simulated_specs", 0),
        "scheduler.cached_specs": server.get("service.cached_specs", 0),
        "scheduler.coalesced_specs": coalesced,
        "scheduler.coalesce_ratio": (coalesced / spec_slots
                                     if spec_slots else 0.0),
        "loadgen.sent": len(session.schedule.late),
        "loadgen.late_p90_s": session.schedule.late_p90(),
    })
    return layers


def service_mix(seed: int, seconds: float, trace: bool, tally,
                tmp: Path, probe) -> dict:
    from repro.experiments import ParallelExecutor

    slots = max(COLD_EVERY, int(round(seconds * RATE_PER_S)))
    plan = arrival_plan(seed, slots)
    seeded = ParallelExecutor(_server_config(None), jobs=1).run(cached_specs())
    kinds = [kind for requests in plan for kind, _ in requests]
    cold = [spec for requests in plan for kind, spec in requests
            if kind == COLD]
    out: dict = {"notes": [
        f"one client paced at {RATE_PER_S:g} slots/s for {slots} slots: "
        f"{kinds.count(CACHED)} cached, {kinds.count(COLD)} cold, "
        f"{kinds.count(COALESCED)} coalesced duplicates",
        f"repro serve --jobs 1 --reads {SERVICE_READS}; fresh cache and "
        "state directories per server; latency from the send time",
        "each server starts with an empty prewarm memo (_PREWARM_CACHE); "
        "model_rl_speedup covers the 4 cached benchmarks at 300 reads, "
        "PAPER.md reports 1.129 over the full suite",
        "latency_p50_s is cached_p50_s as measured (not scaled)"]}
    if trace:
        plain = run_session(tmp / "plain", plan, seeded, tally)
        trace_out = tmp / "server-trace.json"
        done = run_session(tmp / "traced", plan, seeded, tally,
                           trace_out=trace_out)
        sessions = [plain, done]
    else:
        done = run_session(tmp / "plain", plan, seeded, tally,
                           setup_repeats=SETUP_REPEATS, probe=probe)
        sessions = [done]
    # The in-process answers, computed after the timed windows.
    expected = dict(seeded)
    expected.update(ParallelExecutor(_server_config(None), jobs=1).run(cold))
    for item in sessions:
        session_figures(item, expected, tally)
    if trace:
        layers = service_layers(done, json.loads(trace_out.read_text()))
        layers["trace.overhead_ratio"] = done["cpu_s"] / plain["cpu_s"]
        out["layers"] = layers
    latency = done["latency"]
    cached = latency[CACHED]
    factor = done["factor"]
    out["metrics"] = {
        "setup_s": done["setup_s"],
        "peak_rss_mb": done["peak_rss_mb"],
        "sim_reads_per_s": (done["reads"] / done["batch_ref_s"]
                            if done["batch_s"] else 0.0),
        "cpu_ms_per_kread": (1e3 * done["cpu_s"] / factor
                             / (done["reads"] / 1e3)
                             if done["reads"] else 0.0),
        "latency_p50_s": _median(cached),
        **outputs.model_metrics(done["rows"]),
    }
    report = {
        "host slowdown over the window": (factor, "x"),
        "cold reads/s (as measured)": (
            done["reads"] / done["batch_s"] if done["batch_s"] else 0.0,
            "1/s"),
    }
    for name, values, tails in (("cached", cached, (99.0, 90.0)),
                                ("cold", latency[COLD], (90.0,)),
                                ("coalesced", latency[COALESCED], ())):
        report[f"{name}_p50_s"] = (_median(values), "s")
        # The named tails, each only with 10 samples beyond it.
        for q in tails:
            tail = _tail(values, q)
            report[f"{name}_p{q:g}_s"] = (
                tail if tail is not None
                else f"n/a (needs {stats.samples_needed(q)} samples)", "s")
        report[f"{name} samples"] = (len(values), "count")
    session = done["session"]
    report["loadgen.late_p90_s"] = (session.schedule.late_p90(), "s")
    report["http.rejected_429"] = (session.rejected_429, "count")
    out["report"] = report
    return out
