"""Left-to-right summation, rounded after every addition.

From Python 3.12 the built-in ``sum()`` adds floats with compensated
(Neumaier) summation, so one list can total to a different last bit
than it does on 3.11. Simulated results are compared field for field
against stored references, so every float sum that feeds a
:class:`~repro.sim.system.SimResult` goes through :func:`left_sum`,
which gives the pre-3.12 ``sum()`` value on every version.
"""

from __future__ import annotations

from typing import Iterable


def left_sum(values: Iterable[float]) -> float:
    """``values`` added in order, as plain ``+`` would (``0`` if empty)."""
    total = 0
    for value in values:
        total += value
    return total
