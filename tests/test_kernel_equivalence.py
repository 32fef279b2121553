"""Golden equivalence for the hot-path kernel overhaul (PR 7).

The overhaul (slotted event core, flattened DRAM timing tables, hoisted
controller issue loops, inlined prewarm insert) is required to be
*bit-identical*: every :class:`~repro.sim.system.SimResult` field for a
3-memory x 2-benchmark matrix must match values captured on the
pre-refactor kernel, stored in ``tests/data/golden_kernel.json``.

Also here:

* cache-key stability — the disk-cache key format must survive
  refactors unchanged so warm caches keep hitting (``v8`` since the
  workload-registry refactor added the workload content token);
* a hypothesis property test that the tuple-heap event queue fires in
  exactly ``(time, seq)`` order with cancellation respected — the
  invariant the golden matrix relies on, checked in isolation over
  arbitrary schedules.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.specs import (
    CACHE_KEY_VERSION,
    RunSpec,
    spec_cache_key,
)
from repro.sim.config import SimConfig
from repro.sim.system import run_benchmark
from repro.util.events import EventQueue

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_kernel.json"

with GOLDEN_PATH.open() as _handle:
    GOLDEN = json.load(_handle)

CELLS = sorted(GOLDEN["results"])


# ---------------------------------------------------------------------------
# Golden matrix: bit-identical SimResult across the refactor
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cell", CELLS)
def test_simresult_matches_golden(cell):
    benchmark, memory = cell.split("/")
    config = SimConfig(memory=memory,
                       target_dram_reads=GOLDEN["target_dram_reads"])
    result = run_benchmark(benchmark, config)
    mismatches = {
        field: (getattr(result, field), expected)
        for field, expected in GOLDEN["results"][cell].items()
        if getattr(result, field) != expected
    }
    assert not mismatches, (
        f"{cell}: kernel output diverged from the pre-refactor golden "
        f"(field: (got, expected)): {mismatches}")


# Strict-FCFS open-page scheduling, which the golden matrix never runs:
# leslie3d on the DDR3 baseline at 1 500 reads, values recorded before
# FCFS was folded into the FR-FCFS scan (the ablation harness build).
FCFS_DDR3_LESLIE3D = {
    "avg_core_latency": 107.01798365122616,
    "avg_critical_latency": 241.2171893147503,
    "avg_fill_latency": 398.76307189542484,
    "avg_queue_latency": 278.12479564032697,
    "bus_utilization": 0.20898432354103544,
    "demand_reads": 861,
    "dram_reads": 1836,
    "dram_writes": 148,
    "elapsed_cycles": 37955,
    "fast_service_fraction": 0.0,
    "instructions": 389073,
    "l2_hit_rate": 0.41661039837947333,
    "memory_power_mw": 8625.152020104779,
    "per_core_ipc": [1.3120274008694506, 1.3137663021999737,
                     1.3927545777894876, 1.2448162297457515,
                     1.2114872875773943, 1.2972203925701489,
                     1.296140165986036, 1.1826900276643393],
    "word0_fraction": 0.9105691056910569,
}


def test_fcfs_ablation_simresult_pinned():
    from repro.dram.controller import ControllerConfig
    from repro.dram.scheduler import SchedulingPolicy
    from repro.memsys.homogeneous import HomogeneousConfig, HomogeneousMemory
    from repro.sim.system import SimulationSystem, make_traces, prewarm_l2
    from repro.workloads.profiles import profile_for

    config = SimConfig(memory="ddr3", target_dram_reads=1500)
    profile = profile_for("leslie3d")
    system = SimulationSystem(
        config, make_traces(profile, config), profile=profile,
        memory_builder=lambda events: HomogeneousMemory(
            events, HomogeneousConfig(),
            controller_config=ControllerConfig(
                scheduling=SchedulingPolicy.FCFS)))
    prewarm_l2(system, profile)
    result = system.run()
    mismatches = {
        field: (getattr(result, field), expected)
        for field, expected in FCFS_DDR3_LESLIE3D.items()
        if getattr(result, field) != expected
    }
    assert not mismatches, (
        f"FCFS ddr3/leslie3d diverged (field: (got, expected)): "
        f"{mismatches}")


def test_golden_covers_all_controller_paths():
    """The matrix must keep exercising open-page, close-page/hetero, and
    shared-command-bus controllers — do not shrink it."""
    memories = {cell.split("/")[1] for cell in CELLS}
    assert memories == {"ddr3", "rl", "hmc_cwf"}
    benchmarks = {cell.split("/")[0] for cell in CELLS}
    assert benchmarks == {"mcf", "leslie3d"}


# ---------------------------------------------------------------------------
# Cache-key stability: warm v8 caches must keep hitting
# ---------------------------------------------------------------------------


class _KeyConfig:
    """Duck-typed ExperimentConfig: just what spec_cache_key consumes."""

    target_dram_reads = 600
    seed = 12345

    @staticmethod
    def sim_config(memory):
        return SimConfig(memory=memory, target_dram_reads=600, seed=12345)


#: The cache-key version and the sha256 of the golden matrix it answers
#: for. Results recorded under one key version must not change.
PINNED_KEY_GOLDEN = (
    "v8", "2e69386e30de7f661882d9740e4a2d6efdc921d5b054feb40c7c68a51888bbfc")


def test_cache_key_version_unchanged():
    """Re-recording the golden matrix changes what a cached result
    means, so it must come with a new cache-key version: otherwise a
    warm cache or service store serves the old results under the same
    key."""
    golden = hashlib.sha256(GOLDEN_PATH.read_bytes()).hexdigest()
    version, pinned = PINNED_KEY_GOLDEN
    assert (CACHE_KEY_VERSION, golden) == PINNED_KEY_GOLDEN, (
        f"{GOLDEN_PATH.name} is {golden} under cache-key version "
        f"{CACHE_KEY_VERSION!r}, pinned ({version!r}, {pinned}). When the "
        f"simulated results change on purpose, bump "
        f"experiments/specs.py::CACHE_KEY_VERSION past {version!r} and "
        f"pin the new version with the new digest here")


def test_cache_key_format_unchanged():
    """Key layout: version|benchmark|memory|variant|runner|params|reads|
    seed|workload-token|config-digest. A layout change silently
    invalidates every cached result on disk, so it must be deliberate
    (bump the version), never a refactor side effect. v8 was such a
    deliberate bump: it inserted the workload content token (profile
    digest / trace-file sha256) before the config digest."""
    key = spec_cache_key(RunSpec("mcf", "rl"), _KeyConfig)
    parts = key.split("|")
    assert len(parts) == 10
    assert parts[0] == "v8"
    assert parts[1] == "mcf"
    assert parts[2] == "rl"
    assert parts[3] == ""          # variant
    assert parts[4] == ""          # runner
    assert parts[5] == "[]"        # params as sorted JSON
    assert parts[6] == "600"
    assert parts[7] == "12345"
    token = parts[8]               # workload content token
    assert len(token) == 16
    int(token, 16)
    digest = parts[9]
    assert len(digest) == 16
    int(digest, 16)  # hex sha256 prefix

    # Deterministic, and sensitive to what it must be sensitive to.
    assert key == spec_cache_key(RunSpec("mcf", "rl"), _KeyConfig)
    assert key == spec_cache_key(RunSpec("synthetic:mcf", "rl"), _KeyConfig)
    assert key != spec_cache_key(RunSpec("mcf", "ddr3"), _KeyConfig)
    assert key != spec_cache_key(RunSpec("leslie3d", "rl"), _KeyConfig)


# ---------------------------------------------------------------------------
# Event-queue ordering property (hypothesis)
# ---------------------------------------------------------------------------


@st.composite
def schedules(draw):
    """A schedule: per event a (time-offset, cancel?) pair.

    Offsets are small so ties are frequent — tie-breaking by seq is
    exactly what the entry heap must preserve.
    """
    return draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=7), st.booleans()),
        min_size=0, max_size=40))


@settings(max_examples=200, deadline=None)
@given(schedules())
def test_events_fire_in_time_seq_order(plan):
    queue = EventQueue()
    fired = []
    events = []
    for index, (offset, _cancel) in enumerate(plan):
        events.append(
            (queue.schedule(offset, lambda i=index: fired.append(i)),
             offset))
    cancelled = set()
    for index, (_offset, cancel) in enumerate(plan):
        if cancel:
            events[index][0][2] = None
            cancelled.add(index)

    expected_live = len(plan) - len(cancelled)
    assert len(queue) == expected_live

    executed = queue.run()
    assert executed == expected_live

    # Live events fire in exactly (time, seq) order; seq is insertion
    # order here because nothing is scheduled from inside callbacks.
    expected = [index for index, (offset, _c) in sorted(
        enumerate(plan), key=lambda item: (item[1][0], item[0]))
        if index not in cancelled]
    assert fired == expected
    assert len(queue) == 0


@settings(max_examples=100, deadline=None)
@given(schedules(), st.data())
def test_cancel_after_partial_drain(plan, data):
    """Cancelling mid-drain (outside callbacks) still never fires the
    cancelled event and keeps the live count exact."""
    queue = EventQueue()
    fired = []
    handles = [queue.schedule(offset, lambda i=index: fired.append(i))
               for index, (offset, _c) in enumerate(plan)]
    steps = data.draw(st.integers(min_value=0, max_value=len(plan)))
    for _ in range(steps):
        if not queue.step():
            break
    survivors = [index for index in range(len(plan))
                 if index not in fired]
    late_cancels = {index for index in survivors
                    if data.draw(st.booleans())}
    for index in late_cancels:
        handles[index][2] = None
    queue.run()
    assert late_cancels.isdisjoint(fired)
    expected_tail = [index for index, (offset, _c) in sorted(
        enumerate(plan), key=lambda item: (item[1][0], item[0]))
        if index in survivors and index not in late_cancels]
    assert fired[len(fired) - len(expected_tail):] == expected_tail
