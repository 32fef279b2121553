"""Shared helpers for the test suite."""

from repro.experiments import EXPERIMENTS, run_specs


def build_table(key, config):
    """Run experiment ``key``'s specs and build its table from them."""
    row = EXPERIMENTS[key]
    return row.build(config, run_specs(row.specs(config), config))
