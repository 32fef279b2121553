"""Section 7.1: page-placement heterogeneous memory vs CWF.

Paper: placing the hottest 7.6 % of pages in RLDRAM3 yields -9.3 % to
+11.2 % (avg ~+8 %), consistently below the CWF schemes, because the
hottest pages capture at most ~30 % of accesses.
"""

from conftest import run_and_print


def test_sec71_page_placement(benchmark, experiment_config):
    table = run_and_print(benchmark, "sec71", experiment_config)
    mean = table.rows[-1]
    # Page placement captures a bounded access share...
    assert mean["fast_fraction"] < 0.5
    # ... and trails the critical-word-first scheme.
    assert mean["page_placement"] < mean["rl"]
