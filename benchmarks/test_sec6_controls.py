"""Section 6.1.1 controls: random mapping and no-prefetcher runs.

Paper: random critical-word mapping collapses the gain to +2.1 % (many
apps degrade); disabling the prefetcher raises the RL gain from 12.9 %
to 17.3 % (more latency left to hide).
"""

from conftest import run_and_print


def test_random_mapping_control(benchmark, experiment_config):
    table = run_and_print(benchmark, "sec611_random", experiment_config)
    mean = table.rows[-1]
    # Random placement finds the critical word in RLDRAM ~1/8 of the
    # time and loses most of the benefit.
    assert mean["fast_fraction"] < 0.25
    assert mean["rl_random"] < mean["rl"]
    assert mean["rl_random"] < 1.05


def test_no_prefetcher_raises_gain(benchmark, experiment_config):
    table = run_and_print(benchmark, "sec611_noprefetch", experiment_config)
    mean = table.rows[-1]
    # Without prefetching there is more memory latency to hide, so the
    # CWF gain grows (paper: 17.3% vs 12.9%).
    assert mean["rl_noprefetch"] > mean["rl"] - 0.02
