"""Host-speed probe: puts CPU-bound timings on a fixed scale.

The benchmark runs on a few cores of a shared host, where the same
Python code runs up to a third slower for seconds or minutes at a time
while neighbours load the shared caches. Medians within one run do not
remove that: whole runs drift. So the benchmark times a fixed probe --
random lookups in a 200 000-entry dict, which is about as sensitive to
that load as the simulator is -- between units of measured work, and
scales each unit by how fast the probes around it ran::

    at_reference = measured * REFERENCE_PROBE_S / mean(probes around it)

which reads as the time the same work takes on the reference host when
nothing else loads it. The probe runs in a helper process, so it adds
nothing to the benchmark's own memory or to the executor's workers;
while it runs, the benchmark waits for it.

Run as a script, this file is that helper: each line on standard input
runs the probe once and answers with its wall time.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import Optional, Sequence

#: Wall time of one probe on the reference host (Python 3.11.7 on an
#: x86-64 Intel Xeon, 2 vCPUs) at its usual speed.
REFERENCE_PROBE_S = 0.14

TABLE_SIZE = 200_000
LOOKUPS = 200_000

#: Probes taken on each side of a long unit of work (a suite pass, a
#: service window), during which the benchmark cannot probe.
BOUNDARY_PROBES = 3


def factor(probes: Sequence[float]) -> float:
    """How many times slower than the reference host the probes ran."""
    if not probes:
        raise ValueError("no probes to scale by")
    return statistics.fmean(probes) / REFERENCE_PROBE_S


def at_reference(seconds: float, probes: Sequence[float]) -> float:
    """``seconds`` measured between ``probes``, on the reference scale."""
    return seconds / factor(probes)


class Probe:
    """The helper process; calling the object runs one probe."""

    def __init__(self) -> None:
        self.proc: Optional[subprocess.Popen] = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        self.proc.stdin.write("probe\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError("host-speed probe exited")
        return float(answer)

    def close(self) -> None:
        if self.proc is None:
            return
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc = None

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _serve() -> None:
    table = {i * 7919: i for i in range(TABLE_SIZE)}
    keys = list(table)

    def probe() -> int:
        x, total, size = 1, 0, len(keys)
        for _ in range(LOOKUPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            total += table[keys[x % size]]
        return total

    for _ in sys.stdin:
        start = time.perf_counter()
        probe()
        sys.stdout.write(f"{time.perf_counter() - start!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
