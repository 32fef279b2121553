"""Shared configuration for the per-figure benchmark harness.

Each benchmark regenerates one table/figure of the paper and prints it.
Simulation results are cached in ``.repro_cache`` so artefacts that
share runs (Fig 6/7/8/9...) simulate each configuration once.

Scale knobs are the ``REPRO_*`` environment variables that
:func:`repro.experiments.runner.default_config` reads (README lists
them all), e.g.:

* ``REPRO_READS``   — demand fetches per run (default 2000 here; the
  paper uses 2M. Raise for tighter numbers, e.g. REPRO_READS=20000).
* ``REPRO_BENCHMARKS`` — subset of the 26-program suite.
"""

import pytest

from repro.experiments import EXPERIMENTS, run_specs
from repro.experiments.runner import default_config


@pytest.fixture(scope="session")
def experiment_config():
    return default_config()


def build_table(key, config):
    """Run experiment ``key``'s specs and build its table from them."""
    row = EXPERIMENTS[key]
    return row.build(config, run_specs(row.specs(config), config))


def run_and_print(benchmark, key, config):
    """Run experiment ``key`` once under pytest-benchmark and print its
    table."""
    table = benchmark.pedantic(build_table, args=(key, config), rounds=1,
                               iterations=1)
    print()
    print(table.format())
    return table
