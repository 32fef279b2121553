#!/usr/bin/env python
"""Sensitivity study: how robust is the CWF gain to core/uncore sizing?

Sweeps the structures the paper holds fixed (Table 1) and shows how the
RL organisation's benefit responds:

* ROB size — more in-flight loads overlap more of the latency the fast
  DIMM removes, shrinking the relative gain.
* MSHR file size — too few MSHRs throttle everything equally.
* Prefetch degree — better prefetching hides latency and (like the
  paper's no-prefetcher experiment in reverse) reduces the CWF benefit.

Usage: python examples/sensitivity_study.py [benchmark]
"""

import sys

from repro.sweep import sweep


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "leslie3d"
    reads = 1200

    for parameter, values in (
        ("rob_size", [16, 64, 192]),
        ("mshr_capacity", [8, 64, 256]),
        ("prefetch_degree", [0, 2, 6]),
    ):
        if parameter == "prefetch_degree" and 0 in values:
            values = [v for v in values if v > 0]
        print(f"=== {parameter} ===")
        base = sweep(benchmark, parameter, values,
                     memory="ddr3", target_dram_reads=reads)
        rl = sweep(benchmark, parameter, values,
                   memory="rl", target_dram_reads=reads)
        print(f"{parameter:>16} {'DDR3 thr':>9} {'RL thr':>9} "
              f"{'RL gain':>8}")
        for b, r in zip(base.rows, rl.rows):
            gain = r["throughput"] / b["throughput"] - 1
            print(f"{b[parameter]:>16} {b['throughput']:>9.2f} "
                  f"{r['throughput']:>9.2f} {gain:>+8.1%}")
        print()

    print("The CWF gain is a latency effect: anything that hides or "
          "overlaps memory\nlatency (bigger windows, deeper prefetching) "
          "trims it — the paper's\nno-prefetcher experiment (17.3% vs "
          "12.9%) is the same phenomenon.")


if __name__ == "__main__":
    main()
