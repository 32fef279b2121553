"""Artifact store: atomic writes, CAS semantics, budgets, eviction.

The tentpole guarantees under test:

* one atomic+durable write path shared by cache entries, checkpoints,
  and job manifests — a crash (or a fault injected mid-write) leaves
  either the old complete file or the new complete file, never a torn
  one;
* content addressing — payload digests are re-verified on read, bit
  rot quarantines instead of returning garbage;
* size bounding — a tier filled past its byte budget LRU-evicts
  unpinned entries (journal order, not mtime), pinned checkpoints and
  unfinished job manifests survive, and an evicted cache entry is
  recomputed *byte-identically* on the next request, never surfaced as
  an error;
* concurrency — multi-process writers under the per-key flock never
  produce a torn or lost entry.

Satellite regressions ride along: Retry-After HTTP-date parsing and
the total-wait cap, monotonic telemetry durations, histogram
percentile edge cases, and the JobStore fsync/torn-write fix.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro.experiments import ExperimentConfig, ResultCache, RunSpec, run_specs
from repro.experiments.runner import default_config
from repro.experiments.specs import spec_cache_key
from repro.service.client import parse_retry_after
from repro.service.jobs import Job
from repro.service.store import JobStore
from repro.sim.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpointer,
    checkpoint_path,
    checkpoint_store,
    delete_checkpoint,
)
from repro.sim.system import SimResult
from repro.store import (
    ArtifactStore,
    atomic_write_bytes,
    format_size,
    key_digest,
    parse_size,
    quarantine_file,
)
from repro.store.cli import cmd_store
from repro.telemetry.registry import Histogram

READS = 60


def make_result(benchmark="mcf", cycles=10) -> SimResult:
    return SimResult(
        benchmark=benchmark, memory="ddr3", num_cores=8,
        elapsed_cycles=cycles, instructions=100, per_core_ipc=[1.0],
        dram_reads=5, dram_writes=1, demand_reads=5, avg_queue_latency=1.0,
        avg_core_latency=2.0, avg_critical_latency=3.0, avg_fill_latency=4.0,
        fast_service_fraction=0.5, bus_utilization=0.1,
        memory_power_mw=100.0, memory_power_by_family={"ddr3": 100.0},
        l2_hit_rate=0.9)


def config_for(tmp_path, **kwargs) -> ExperimentConfig:
    return ExperimentConfig(target_dram_reads=READS, benchmarks=("mcf",),
                            cache_dir=str(tmp_path), **kwargs)


# ---------------------------------------------------------------------------
# Atomic write path
# ---------------------------------------------------------------------------


class TestAtomicWrite:
    def test_roundtrip_and_no_temp_residue(self, tmp_path):
        path = tmp_path / "a" / "b.json"
        atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"
        assert [p.name for p in path.parent.iterdir()] == ["b.json"]

    def test_torn_write_leaves_original_intact(self, tmp_path, monkeypatch):
        """A crash before os.replace must preserve the previous file."""
        path = tmp_path / "entry.json"
        atomic_write_bytes(path, b"old complete contents")

        def exploding_fsync(fd):
            raise OSError("injected crash mid-write")

        monkeypatch.setattr(os, "fsync", exploding_fsync)
        with pytest.raises(OSError, match="injected crash"):
            atomic_write_bytes(path, b"new partial contents")
        monkeypatch.undo()
        assert path.read_bytes() == b"old complete contents"
        assert not list(tmp_path.glob("*.tmp.*"))  # temp cleaned up

    def test_threads_writing_one_path_never_collide(self, tmp_path):
        """Each thread writes through its own temp file: no writer
        replaces or unlinks another's half-written temp."""
        path = tmp_path / "manifest.json"
        errors = []

        def hammer(writer):
            for i in range(150):
                try:
                    atomic_write_bytes(path, f"{writer}:{i}".encode(),
                                       durable=False)
                except Exception as exc:  # pragma: no cover - the bug
                    errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(n,))
                   for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert path.read_text().endswith(":149")
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_counter_updates_from_many_threads_all_land(self, tmp_path):
        """The service bumps one store's counters from HTTP threads and
        the scheduler thread at once; no increment may be lost."""
        store = ArtifactStore(tmp_path / "store")
        cache = ResultCache(str(tmp_path / "cache"))
        per_thread, workers = 1500, 8

        def bump():
            for _ in range(per_thread):
                store.counters.incr("hits")
                cache.counters.incr("hits")

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=bump) for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert store.counters["hits"] == per_thread * workers
        assert cache.stats()["hits"] == per_thread * workers

    def test_non_durable_skips_fsync(self, tmp_path, monkeypatch):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: calls.append(fd) or real_fsync(fd))
        atomic_write_bytes(tmp_path / "x", b"data", durable=False)
        assert calls == []
        atomic_write_bytes(tmp_path / "y", b"data", durable=True)
        assert len(calls) >= 2  # file fsync + parent-dir fsync

    def test_quarantine_preserves_evidence(self, tmp_path):
        path = tmp_path / "e.json"
        path.write_text("garbage")
        target = quarantine_file(path)
        assert target == tmp_path / "e.json.corrupt"
        assert target.read_text() == "garbage"
        assert not path.exists()


class TestParseSize:
    @pytest.mark.parametrize("text,expected", [
        ("4096", 4096), ("64M", 64 << 20), ("64m", 64 << 20),
        ("1.5GiB", int(1.5 * (1 << 30))), ("2kb", 2048),
        (" 8 MiB ", 8 << 20), (1024, 1024), (None, None), ("", None),
    ])
    def test_accepts(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("junk", ["lots", "64Q", "M64", "-1"])
    def test_rejects(self, junk):
        with pytest.raises(ValueError, match="cannot parse size"):
            parse_size(junk)

    def test_format_roundtrips_readably(self):
        assert format_size(None) == "unbounded"
        assert format_size(64 << 20) == "64.0MiB"
        assert format_size(100) == "100B"


# ---------------------------------------------------------------------------
# ArtifactStore (the CAS tier)
# ---------------------------------------------------------------------------


class TestArtifactStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = store.put_bytes("key", b"value")
        assert store.get_bytes("key") == b"value"
        assert store.blob_path(digest).exists()
        assert (store.counters["hits"], store.counters["writes"]) == (1, 1)

    def test_identical_payloads_share_one_blob(self, tmp_path):
        store = ArtifactStore(tmp_path)
        a = store.put_bytes("key-a", b"shared payload")
        b = store.put_bytes("key-b", b"shared payload")
        assert a == b
        assert len(list(store.blobs_dir.glob("*/*.blob"))) == 1
        assert store.counters["dedup_hits"] == 1

    def test_bit_rot_is_quarantined_not_returned(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = store.put_bytes("key", b"original")
        blob = store.blob_path(digest)
        blob.write_bytes(b"rotted!!")
        assert store.get_bytes("key") is None
        assert store.counters["quarantined"] == 1
        assert blob.with_name(blob.name + ".corrupt").exists()
        # The entry now reads as a plain miss -> caller recomputes.
        assert store.get_bytes("key") is None

    def test_missing_blob_heals_to_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = store.put_bytes("key", b"data")
        store.blob_path(digest).unlink()
        assert store.get_bytes("key") is None
        assert not store.contains("key")  # stale index dropped

    def test_legacy_digest_compatible(self, tmp_path):
        # Existing store indexes are addressed by the 24-hex key digest.
        store = ArtifactStore(tmp_path)
        store.put_bytes("key", b"x")
        import hashlib
        legacy = hashlib.sha256(b"key").hexdigest()[:24]
        assert store.index_path("key").name == f"{legacy}.json"
        assert key_digest("key") == legacy


class TestEviction:
    """Fill a 1 MiB-budget store past capacity; check LRU discipline."""

    BUDGET = 1 << 20

    def _fill(self, store, n=24, size=64 << 10):
        for i in range(n):
            store.put_bytes(f"key-{i:02d}", os.urandom(size))

    def test_fill_past_capacity_stays_bounded(self, tmp_path):
        store = ArtifactStore(tmp_path, budget_bytes=self.BUDGET)
        self._fill(store)  # 24 * 64 KiB = 1.5 MiB of payload
        assert store.total_bytes() <= self.BUDGET
        assert store.counters["evictions"] > 0
        # Evicted keys read as clean misses, never errors.
        for i in range(24):
            data = store.get_bytes(f"key-{i:02d}")
            assert data is None or len(data) == 64 << 10

    def test_lru_order_least_recent_goes_first(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for i in range(4):
            store.put_bytes(f"key-{i}", bytes([i]) * 1000)
        # Touch key-0 so key-1 becomes the least recently used.
        assert store.get_bytes("key-0") is not None
        report = store.gc(max_bytes=3500)
        assert "key-1" in report["evicted"]
        assert store.get_bytes("key-0") is not None

    @pytest.fixture()
    def frozen_clock(self, monkeypatch):
        """Every journal stamp lands in the same millisecond."""
        monkeypatch.setattr("repro.store.cas.time.time",
                            lambda: 1_700_000_000.0)

    def test_lru_same_millisecond_follows_journal_order(self, tmp_path,
                                                        frozen_clock):
        store = ArtifactStore(tmp_path)
        for i in range(4):
            store.put_bytes(f"key-{i}", bytes([i]) * 1000)
        assert store.get_bytes("key-0") is not None
        # Eviction credits each entry's payload size: the budget asks
        # for two 1000-byte entries to go, the two least recent.
        report = store.gc(max_bytes=store.total_bytes() - 2000)
        assert report["evicted"] == ["key-1", "key-2"]
        assert store.get_bytes("key-0") is not None

    def test_lru_order_survives_journal_compaction(self, tmp_path,
                                                   frozen_clock):
        store = ArtifactStore(tmp_path)
        for i in range(4):
            store.put_bytes(f"key-{i}", bytes([i]) * 1000)
        assert store.get_bytes("key-0") is not None
        store.gc()  # no budget: compacts the journal, evicts nothing
        order = [line.split()[1]
                 for line in store.journal_path.read_text().splitlines()]
        assert order == [key_digest(f"key-{i}") for i in (1, 2, 3, 0)]
        assert store.get_bytes("key-1") is not None
        report = store.gc(max_bytes=store.total_bytes() - 2000)
        assert report["evicted"] == ["key-2", "key-3"]

    def test_dead_process_pin_expires(self, tmp_path):
        path = checkpoint_path(tmp_path, "stale")
        path.write_bytes(b"abandoned")
        pin = path.with_name(path.name + ".pin")
        pin.write_text("999999999")  # pid that cannot exist
        report = checkpoint_store(tmp_path).gc(max_bytes=0)
        assert report["evicted"] == [path.name]
        assert list(tmp_path.iterdir()) == []  # entry and pin both gone

    def test_gc_sweeps_orphan_blobs_and_compacts_journal(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_bytes("a", b"aaa")
        store.put_bytes("a", b"bbb")  # first blob orphaned by overwrite
        for _ in range(5):
            store.get_bytes("a")
        report = store.gc()
        assert report["orphan_blobs_removed"] == 1
        journal = store.journal_path.read_text().splitlines()
        assert len(journal) == 1  # one line per surviving entry

    def test_dry_run_touches_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_bytes("key", b"data")
        report = store.gc(max_bytes=0, dry_run=True)
        assert report["evicted"] == ["key"]
        assert store.get_bytes("key") == b"data"


class TestVerify:
    def test_clean_store_has_no_problems(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_bytes("key", b"data")
        assert store.verify() == []

    def test_detects_and_repairs_rot(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = store.put_bytes("key", b"data")
        store.blob_path(digest).write_bytes(b"rot.")
        problems = store.verify()
        assert len(problems) == 1 and "mismatch" in problems[0]
        store.verify(repair=True)
        assert store.verify() == []
        assert not store.contains("key")  # next run recomputes


# ---------------------------------------------------------------------------
# Multi-process writers under the per-key flock
# ---------------------------------------------------------------------------


def _hammer_store(directory, worker, n):
    store = ArtifactStore(directory)
    for i in range(n):
        payload = f"worker={worker} iter={i}".encode().ljust(256, b".")
        store.put_bytes("contended", payload)
        data = store.get_bytes("contended")
        # Either our write or a peer's — always a complete 256-byte
        # record, never interleaved halves.
        assert data is None or (len(data) == 256 and data.startswith(b"worker="))


class TestConcurrentWriters:
    def test_parallel_puts_never_tear(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        procs = [ctx.Process(target=_hammer_store,
                             args=(str(tmp_path), w, 25))
                 for w in range(3)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        store = ArtifactStore(tmp_path)
        assert store.get_bytes("contended").startswith(b"worker=")


# ---------------------------------------------------------------------------
# ResultCache on the store: counters, budget, recompute determinism
# ---------------------------------------------------------------------------


class TestResultCacheCounters:
    def test_own_quarantine_counts_as_quarantined(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("key", make_result())
        record = json.loads(cache.store.index_path("key").read_text())
        cache.store.blob_path(record["digest"]).write_bytes(b"rot")
        assert cache.get("key") is None
        stats = cache.stats()
        assert (stats["misses"], stats["quarantined"]) == (0, 1)

    def test_other_threads_quarantine_is_not_this_miss(self, tmp_path):
        # A plain miss overlapping another thread's quarantine on the
        # shared store is still a miss: the counter moved, this call
        # quarantined nothing.
        cache = ResultCache(str(tmp_path))
        store = cache.store
        real_get_bytes = store.get_bytes

        def get_bytes(key, *args):
            store.counters.incr("quarantined")
            return real_get_bytes(key, *args)

        store.get_bytes = get_bytes
        assert cache.get("absent") is None
        stats = cache.stats()
        assert (stats["misses"], stats["quarantined"]) == (1, 0)


class TestBudgetedRecompute:
    def test_eviction_forces_byte_identical_recompute(self, tmp_path):
        """The acceptance bar: evict everything, rerun, same bytes."""
        config = config_for(tmp_path)
        spec = RunSpec("mcf", "ddr3")
        first = run_specs([spec], config, jobs=1)[spec]

        cache = ResultCache(str(tmp_path))
        cache.store.gc(max_bytes=0)
        assert not cache.contains(spec_cache_key(spec, config))

        second = run_specs([spec], config, jobs=1)[spec]
        assert (json.dumps(dataclasses.asdict(first), sort_keys=True)
                == json.dumps(dataclasses.asdict(second), sort_keys=True))

    def test_env_budget_flows_into_default_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BUDGET", "64M")
        assert default_config().cache_budget_bytes == 64 << 20
        monkeypatch.setenv("REPRO_CACHE_BUDGET", "garbage")
        with pytest.raises(ValueError, match="REPRO_CACHE_BUDGET"):
            default_config()

    def test_budgeted_cache_bounds_disk(self, tmp_path):
        cache = ResultCache(str(tmp_path), budget_bytes=2048)
        for i in range(40):
            cache.put(f"key-{i}", make_result(cycles=i))
        assert cache.store.total_bytes() <= 4096  # bounded overshoot
        assert cache.store.counters["evictions"] > 0


# ---------------------------------------------------------------------------
# JobStore durability (satellite: the missing-fsync bug)
# ---------------------------------------------------------------------------


class TestJobStoreDurability:
    def _job(self) -> Job:
        return Job.from_dict({"id": "j-test01", "state": "queued"})

    def test_save_fsyncs_data_and_directory(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: synced.append(fd) or real_fsync(fd))
        JobStore(str(tmp_path)).save(self._job())
        assert len(synced) >= 2  # manifest bytes + directory entry

    def test_torn_save_preserves_previous_manifest(self, tmp_path,
                                                   monkeypatch):
        store = JobStore(str(tmp_path))
        job = self._job()
        store.save(job)
        before = store._path(job.id).read_text()

        monkeypatch.setattr(os, "fsync", lambda fd: (_ for _ in ()).throw(
            OSError("injected crash")))
        job.state = "running"
        with pytest.raises(OSError):
            store.save(job)
        monkeypatch.undo()
        assert store._path(job.id).read_text() == before
        reloaded = store.load(job.id)
        assert reloaded is not None and reloaded.state == "queued"

    def test_manifest_gc_spares_non_terminal_jobs(self, tmp_path):
        store = JobStore(str(tmp_path), budget_bytes=0)
        queued = self._job()
        store.save(queued)
        done = Job.from_dict({"id": "j-test02", "state": "done"})
        store.save(done)
        report = store.gc()
        assert "j-test02.json" in report["evicted"]
        assert report["pinned_kept"] == 1
        assert store.load("j-test01") is not None
        assert store.load("j-test02") is None


# ---------------------------------------------------------------------------
# Checkpoint pins
# ---------------------------------------------------------------------------


class TestCheckpointPins:
    class _FakeUncore:
        dram_reads = 500

    class _FakeSystem:
        uncore = None

        def __init__(self):
            self.uncore = TestCheckpointPins._FakeUncore()

    def test_save_pins_and_delete_unpins(self, tmp_path):
        path = checkpoint_path(tmp_path, "cache-key")
        ckpt = Checkpointer(path, "cache-key", every_reads=100)
        assert ckpt.save(self._FakeSystem(), executed=1)
        pin = path.with_name(path.name + ".pin")
        assert pin.exists() and pin.read_text() == str(os.getpid())
        # A live pin shields the checkpoint from gc.
        report = checkpoint_store(tmp_path).gc(max_bytes=0)
        assert report["pinned_kept"] == 1 and path.exists()
        delete_checkpoint(path)
        assert list(tmp_path.iterdir()) == []  # nothing left behind

    def test_unpicklable_system_writes_nothing(self, tmp_path):
        path = checkpoint_path(tmp_path, "k")
        ckpt = Checkpointer(path, "k")
        system = self._FakeSystem()
        system.poison = lambda: None  # lambdas cannot pickle
        assert not ckpt.save(system, executed=0)
        assert ckpt.disabled and list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# repro store CLI
# ---------------------------------------------------------------------------


class TestStoreCli:
    def test_stats_gc_verify_roundtrip(self, tmp_path, capsys):
        store = ArtifactStore(tmp_path / "cache")
        for i in range(6):
            store.put_bytes(f"key-{i}", os.urandom(2000))
        assert cmd_store(["stats", "--cache", str(tmp_path / "cache")]) == 0
        assert "results" in capsys.readouterr().out

        assert cmd_store(["gc", "--cache", str(tmp_path / "cache"),
                          "--max-bytes", "8K", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)[0]
        assert report["bytes_after"] <= 8192
        assert ArtifactStore(tmp_path / "cache").total_bytes() <= 8192

        assert cmd_store(["verify", "--cache",
                          str(tmp_path / "cache")]) == 0

    def test_verify_exits_nonzero_on_rot(self, tmp_path, capsys):
        store = ArtifactStore(tmp_path / "cache")
        digest = store.put_bytes("key", b"data")
        store.blob_path(digest).write_bytes(b"rot!")
        assert cmd_store(["verify", "--cache",
                          str(tmp_path / "cache")]) == 1
        assert "mismatch" in capsys.readouterr().out

    def test_unknown_subcommand_usage(self, capsys):
        assert cmd_store(["frobnicate"]) == 2


class TestStoreCliOwnersRules:
    """``repro store`` judges each tier by the rules of the code that
    writes it: what the owner keeps, gc keeps; what the owner would
    quarantine, verify flags."""

    @pytest.fixture(autouse=True)
    def isolated(self, tmp_path, monkeypatch):
        # No default tier of the working directory may join in.
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)

    def test_gc_keeps_a_manifest_the_server_keeps(self, tmp_path):
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        path = jobs / "j-list0001.json"
        path.write_text("[]")
        assert JobStore(str(jobs)).gc(max_bytes=0)["pinned_kept"] == 1
        assert cmd_store(["gc", "--jobs-dir", str(jobs),
                          "--max-bytes", "0"]) == 0
        assert path.exists()

    def test_verify_flags_a_manifest_load_quarantines(self, tmp_path,
                                                      capsys):
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        (jobs / "j-drift001.json").write_text(json.dumps({
            "id": "j-drift001", "state": "done",
            "specs": [{"spec": {"benchmark": "no-such-benchmark",
                                "memory": "ddr3"}}]}))
        assert cmd_store(["verify", "--jobs-dir", str(jobs)]) == 1
        assert "j-drift001.json" in capsys.readouterr().out
        store = JobStore(str(jobs))
        assert store.load("j-drift001") is None
        assert store.counters["manifests_quarantined"] == 1
        assert cmd_store(["verify", "--jobs-dir", str(jobs)]) == 0

    def test_verify_flags_a_checkpoint_of_another_version(self, tmp_path,
                                                          capsys):
        directory = tmp_path / "ckpt"
        path = checkpoint_path(directory, "key")
        system = TestCheckpointPins._FakeSystem()
        assert Checkpointer(path, "key").save(system, executed=0)
        header_line, _, payload = path.read_bytes().partition(b"\n")
        header = json.loads(header_line)
        header["version"] = CHECKPOINT_VERSION - 1  # digest still valid
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        assert cmd_store(["verify", "--checkpoint-dir", str(directory)]) == 1
        assert (f"version {CHECKPOINT_VERSION - 1}"
                in capsys.readouterr().out)

    def test_verify_flags_a_non_string_digest(self, tmp_path, capsys):
        store = ArtifactStore(tmp_path / "cache")
        index = store.index_path("k")
        index.write_text(json.dumps({"key": "k", "digest": 7}))
        assert cmd_store(["verify", "--cache", str(tmp_path / "cache")]) == 1
        assert index.name in capsys.readouterr().out

    def test_naming_one_tier_leaves_the_others_alone(self, tmp_path):
        cache = ArtifactStore(tmp_path / ".repro_cache")
        cache.put_bytes("k", b"v")
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        assert cmd_store(["gc", "--jobs-dir", str(jobs),
                          "--max-bytes", "0"]) == 0
        assert cache.get_bytes("k") == b"v"

    def test_stats_moves_no_file(self, tmp_path, capsys):
        store = ArtifactStore(tmp_path / "cache")
        store.put_bytes("k", b"v")
        index = store.index_path("k")
        index.write_text('{"key": "k", "dig')  # torn write
        assert cmd_store(["stats", "--cache", str(tmp_path / "cache")]) == 0
        assert "0 entries" in capsys.readouterr().out
        assert index.exists()
        # gc still quarantines what can never be read.
        store.gc()
        assert not index.exists()
        assert index.with_name(index.name + ".corrupt").exists()

    def test_verify_repair_drops_the_quarantined_checkpoints_pin(
            self, tmp_path):
        directory = tmp_path / "ckpt"
        path = checkpoint_path(directory, "key")
        system = TestCheckpointPins._FakeSystem()
        assert Checkpointer(path, "key").save(system, executed=0)
        path.write_bytes(b"torn write, no header")
        assert cmd_store(["verify", "--checkpoint-dir", str(directory),
                          "--repair"]) == 1
        assert sorted(p.name for p in directory.iterdir()) == [
            path.name + ".corrupt"]

    def test_named_missing_directory_is_an_error(self, tmp_path, capsys):
        ArtifactStore(tmp_path / ".repro_cache").put_bytes("k", b"v")
        missing = tmp_path / "nonexistent" / "jobs"
        with pytest.raises(SystemExit) as exc:
            cmd_store(["stats", "--jobs-dir", str(missing)])
        assert str(exc.value) == f"repro store: no such directory: {missing}"
        # An absent default directory is still skipped.
        assert cmd_store(["stats"]) == 0
        assert capsys.readouterr().out.startswith("results ")


# ---------------------------------------------------------------------------
# Satellite: Retry-After parsing + capped total wait
# ---------------------------------------------------------------------------


class TestRetryAfter:
    def test_delta_seconds(self):
        assert parse_retry_after("3", 1.0) == 3.0
        assert parse_retry_after("0", 1.0) == 0.0
        assert parse_retry_after("-5", 1.0) == 0.0  # never negative

    def test_http_date_future(self):
        from email.utils import format_datetime
        from datetime import datetime, timedelta, timezone
        when = datetime.now(timezone.utc) + timedelta(seconds=30)
        wait = parse_retry_after(format_datetime(when, usegmt=True), 1.0)
        assert 25.0 < wait <= 30.5

    def test_http_date_past_means_now(self):
        assert parse_retry_after("Wed, 21 Oct 2015 07:28:00 GMT", 1.0) == 0.0

    def test_unparsable_falls_back(self):
        assert parse_retry_after("soon-ish", 2.5) == 2.5
        assert parse_retry_after(None, 2.5) == 2.5

    def test_submit_caps_total_wait(self, monkeypatch):
        from repro.service.client import ServiceClient, ServiceError
        client = ServiceClient("http://127.0.0.1:1")
        monkeypatch.setattr(
            client, "_request",
            lambda *a, **k: (429, {"error": "busy"},
                            {"Retry-After": "3600"}))
        slept = []
        monkeypatch.setattr(time, "sleep", lambda s: slept.append(s))
        with pytest.raises(ServiceError):
            client.submit({}, retries=50, backoff_s=1.0, max_wait_s=10.0)
        assert sum(slept) <= 10.0  # the hour-long header never applies


# ---------------------------------------------------------------------------
# Satellite: histogram percentile edges
# ---------------------------------------------------------------------------


class TestPercentileEdges:
    def test_empty_histogram_is_zero_everywhere(self):
        h = Histogram("empty")
        assert h.percentile(0) == h.percentile(50) == h.percentile(100) == 0.0

    def test_p0_is_exact_min_and_p100_exact_max(self):
        h = Histogram("h")
        for v in (3, 17, 900):
            h.observe(v)
        assert h.percentile(0) == 3.0
        assert h.percentile(100) == 900.0
        assert h.percentile(-5) == 3.0  # out-of-range clamps, not crashes
        assert h.percentile(250) == 900.0

    def test_zero_minimum_clamps_interpolation(self):
        # min=0 is falsy; the old `self.min or lo` discarded it.
        h = Histogram("h")
        h.observe(0)
        h.observe(0)
        assert h.percentile(0) == 0.0
        assert h.percentile(50) == 0.0

    def test_single_sample_every_percentile_agrees(self):
        h = Histogram("h")
        h.observe(42)
        for p in (0, 1, 50, 99, 100):
            assert h.percentile(p) == 42.0


# ---------------------------------------------------------------------------
# Satellite: monotonic durations
# ---------------------------------------------------------------------------


class TestMonotonicDurations:
    def test_wall_clock_step_cannot_negate_durations(self, monkeypatch):
        from repro.telemetry.session import TelemetrySession

        session = TelemetrySession(trace_enabled=False)
        run = session.begin_run("mcf", "ddr3")
        # Simulate an NTP step: wall clock jumps 1 hour into the past.
        monkeypatch.setattr(time, "time", lambda: 0.0)
        record = session.end_run(run)
        assert record["wall_time_s"] >= 0.0
        assert session.manifest()["wall_time_s"] >= 0.0
