"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation flips one design decision and shows its contribution:

* FR-FCFS vs strict FCFS scheduling on the baseline.
* Open-page vs close-page policy for LPDDR2.
* Sub-ranked fast DIMM (4 x single-chip x9 ranks per sub-channel) vs a
  single wide rank (Sec 4.2.4's first optimisation).
* Shared (aggregated) vs per-channel command bus for the fast side
  (Sec 4.2.4's second optimisation).
* MSHR split-transfer support on/off — without the early critical-word
  wake the whole CWF idea collapses to the bulk channel's latency.
"""

import dataclasses

from repro.core.cwf import CriticalWordMemory, CWFConfig
from repro.cpu.prefetch import PrefetcherConfig
from repro.cpu.uncore import UncoreConfig
from repro.dram.controller import ControllerConfig
from repro.dram.device import DRAMKind, LPDDR2_DEVICE, PagePolicy
from repro.dram.scheduler import SchedulingPolicy
from repro.memsys.homogeneous import HomogeneousConfig, HomogeneousMemory
from repro.sim.config import SimConfig
from repro.sim.system import SimulationSystem, make_traces, prewarm_l2
from repro.workloads.profiles import profile_for

BENCH = "leslie3d"
READS = 1500


def run_custom(memory_builder=None, uncore_override=None,
               benchmark=BENCH, memory_kind="ddr3"):
    config = SimConfig(memory=memory_kind, target_dram_reads=READS)
    if uncore_override is not None:
        config = dataclasses.replace(config, uncore=uncore_override)
    profile = profile_for(benchmark)
    traces = make_traces(profile, config)
    system = SimulationSystem(config, traces, profile=profile,
                              memory_builder=memory_builder)
    prewarm_l2(system, profile)
    result = system.run()
    result.benchmark = benchmark
    return result


def test_ablation_scheduler_frfcfs_vs_fcfs(benchmark):
    def run(policy):
        return run_custom(memory_builder=lambda ev: HomogeneousMemory(
            ev, HomogeneousConfig(),
            controller_config=ControllerConfig(scheduling=policy)))

    def body():
        return run(SchedulingPolicy.FR_FCFS), run(SchedulingPolicy.FCFS)

    fr, fcfs = benchmark.pedantic(body, rounds=1, iterations=1)
    print(f"\nFR-FCFS thr={fr.throughput:.2f} "
          f"crit={fr.avg_critical_latency:.0f}; "
          f"FCFS thr={fcfs.throughput:.2f} "
          f"crit={fcfs.avg_critical_latency:.0f}")
    # Row-hit-first scheduling must not lose to strict FCFS.
    assert fr.throughput >= fcfs.throughput * 0.98


def test_ablation_lpddr2_page_policy(benchmark):
    def run(policy):
        device = dataclasses.replace(LPDDR2_DEVICE, page_policy=policy)
        return run_custom(memory_builder=lambda ev: HomogeneousMemory(
            ev, HomogeneousConfig(kind=DRAMKind.LPDDR2), device=device),
            memory_kind="lpddr2")

    def body():
        return run(PagePolicy.OPEN), run(PagePolicy.CLOSE)

    open_pg, close_pg = benchmark.pedantic(body, rounds=1, iterations=1)
    print(f"\nopen-page thr={open_pg.throughput:.2f} "
          f"pw={open_pg.memory_power_mw:.0f}mW; "
          f"close-page thr={close_pg.throughput:.2f} "
          f"pw={close_pg.memory_power_mw:.0f}mW")
    # Open-page is the right LPDRAM policy for streaming workloads: row
    # hits avoid the ACT-per-access cost in both time and array energy.
    # (Average *power* can favour close-page at low utilisation because
    # auto-precharged banks reach power-down sooner — the performance
    # gap is the decisive term.)
    assert open_pg.throughput > close_pg.throughput


def test_ablation_fast_subranking(benchmark):
    def run(ranks):
        return run_custom(
            memory_builder=lambda ev: CriticalWordMemory(
                ev, CWFConfig(fast_ranks_per_subchannel=ranks)),
            memory_kind="rl")

    def body():
        return run(4), run(1)

    subranked, wide = benchmark.pedantic(body, rounds=1, iterations=1)
    print(f"\nsub-ranked(4) thr={subranked.throughput:.2f} "
          f"crit={subranked.avg_critical_latency:.0f}; "
          f"wide(1) thr={wide.throughput:.2f} "
          f"crit={wide.avg_critical_latency:.0f}")
    # More ranks -> more bank-level parallelism on the fast side: the
    # critical path must not get worse.
    assert (subranked.avg_critical_latency
            <= wide.avg_critical_latency * 1.10)


def test_ablation_shared_command_bus(benchmark):
    def run(shared):
        return run_custom(
            memory_builder=lambda ev: CriticalWordMemory(
                ev, CWFConfig(shared_command_bus=shared)),
            memory_kind="rl")

    def body():
        return run(True), run(False)

    shared, private = benchmark.pedantic(body, rounds=1, iterations=1)
    print(f"\nshared cmd bus thr={shared.throughput:.2f} "
          f"crit={shared.avg_critical_latency:.0f}; "
          f"private thr={private.throughput:.2f} "
          f"crit={private.avg_critical_latency:.0f}")
    # Sec 4.2.4: the 4:1 data:command ratio makes sharing nearly free
    # (within ~10%), while saving 3 controllers and 3 address buses.
    assert shared.throughput >= private.throughput * 0.90


def test_ablation_mshr_split_wake(benchmark):
    no_split = UncoreConfig(
        prefetcher=PrefetcherConfig(), critical_word_wakeup=False)

    def body():
        with_split = run_custom(memory_kind="rl")
        without = run_custom(memory_kind="rl",
                             uncore_override=no_split)
        return with_split, without

    with_split, without = benchmark.pedantic(body, rounds=1, iterations=1)
    print(f"\nsplit-wake thr={with_split.throughput:.2f}; "
          f"full-line wake thr={without.throughput:.2f}")
    # The early critical-word wake is the mechanism behind the paper's
    # gain; removing it must hurt clearly.
    assert with_split.throughput > without.throughput * 1.05
