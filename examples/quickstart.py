#!/usr/bin/env python
"""Quickstart: reproduce the paper's headline result on one benchmark.

Runs leslie3d (the paper's flagship streaming workload) on the DDR3
baseline and on the RL heterogeneous memory (RLDRAM3 critical words +
LPDDR2 bulk), and prints the throughput gain and critical-word latency
reduction. Takes a few seconds.
"""

from repro import SimConfig, run_benchmark


def main() -> None:
    config = SimConfig(target_dram_reads=3000)

    print("Simulating leslie3d on the 4-channel DDR3 baseline ...")
    baseline = run_benchmark("leslie3d", config.with_memory("ddr3"))
    print(f"  throughput (sum of IPCs): {baseline.throughput:.2f}")
    print(f"  avg critical-word latency: {baseline.avg_critical_latency:.0f} "
          f"CPU cycles")
    print(f"  DRAM bus utilisation: {baseline.bus_utilization:.1%}")

    print("\nSimulating leslie3d on the RL heterogeneous memory "
          "(word-0 on RLDRAM3, words 1-7 + ECC on LPDDR2) ...")
    rl = run_benchmark("leslie3d", config.with_memory("rl"))
    print(f"  throughput: {rl.throughput:.2f}  "
          f"({rl.speedup_over(baseline):.3f}x vs baseline)")
    print(f"  avg critical-word latency: {rl.avg_critical_latency:.0f} "
          f"CPU cycles "
          f"({rl.avg_critical_latency / baseline.avg_critical_latency - 1:+.1%})")
    print(f"  critical words served by RLDRAM3: "
          f"{rl.fast_service_fraction:.1%}")
    print(f"  memory power: {rl.memory_power_mw / 1000:.1f} W vs "
          f"{baseline.memory_power_mw / 1000:.1f} W baseline")

    gain = rl.speedup_over(baseline) - 1
    print(f"\nCritical-word-first heterogeneous memory gained {gain:+.1%} "
          "throughput on this workload.")
    print("The paper reports +12.9% on average across its 26-program suite "
          "(streaming codes like leslie3d gain the most).")


if __name__ == "__main__":
    main()
