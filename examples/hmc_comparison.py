#!/usr/bin/env python
"""HMC backends vs. the paper's planar organisations.

Section 10 of the paper sketches a future-work embodiment of
critical-word-first on 3D-stacked memory: a Hybrid Memory Cube whose
fast high-frequency layers return the critical word while low-power
layers stream the rest of the line. The ``hmc_hf``, ``hmc_lp``, and
``hmc_cwf`` backends model that sketch.

This script runs two benchmarks (one streaming, one pointer-chasing)
on the DDR3 baseline, the paper's RL organisation (RLDRAM3 critical
words + LPDDR2 bulk), and the stacked ``hmc_cwf`` organisation, then
prints a comparison table. The shorter interconnect and faster stacked
arrays should beat even RL on critical-word latency, which the script
asserts at the end.

Run with ``PYTHONPATH=src python examples/hmc_comparison.py``.
Takes roughly half a minute.
"""

from repro import SimConfig, run_benchmark

BENCHMARKS = ("leslie3d", "mcf")
MEMORIES = ("ddr3", "rl", "hmc_cwf")


def main() -> None:
    config = SimConfig(target_dram_reads=2000)
    results = {}
    for benchmark in BENCHMARKS:
        for memory in MEMORIES:
            print(f"simulating {benchmark} on {memory} ...")
            results[benchmark, memory] = run_benchmark(
                benchmark, config.with_memory(memory))

    header = (f"{'benchmark':<10} {'memory':<8} {'throughput':>10} "
              f"{'crit_lat':>9} {'fill_lat':>9} {'fast_frac':>9}")
    print()
    print(header)
    print("-" * len(header))
    for benchmark in BENCHMARKS:
        for memory in MEMORIES:
            r = results[benchmark, memory]
            print(f"{benchmark:<10} {memory:<8} {r.throughput:>10.3f} "
                  f"{r.avg_critical_latency:>9.1f} "
                  f"{r.avg_fill_latency:>9.1f} "
                  f"{r.fast_service_fraction:>9.1%}")

    print()
    for benchmark in BENCHMARKS:
        hmc = results[benchmark, "hmc_cwf"]
        rl = results[benchmark, "rl"]
        saving = 1 - hmc.avg_critical_latency / rl.avg_critical_latency
        print(f"{benchmark}: hmc_cwf critical-word latency "
              f"{hmc.avg_critical_latency:.1f} vs rl "
              f"{rl.avg_critical_latency:.1f} CPU cycles ({saving:+.1%})")
        # The stacked HMC-HF arrays plus the 1250 MHz link must serve
        # critical words faster than planar RLDRAM3 over a DDR bus.
        assert hmc.avg_critical_latency < rl.avg_critical_latency, (
            f"{benchmark}: expected hmc_cwf to beat rl on critical-word "
            f"latency ({hmc.avg_critical_latency:.1f} >= "
            f"{rl.avg_critical_latency:.1f})")
    print("\nOK: hmc_cwf beats rl on critical-word latency for every "
          "benchmark.")


if __name__ == "__main__":
    main()
