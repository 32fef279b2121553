"""Tables 1 and 2: configuration tables from live model parameters."""

from conftest import run_and_print


def test_table1_simulator_parameters(benchmark, experiment_config):
    table = run_and_print(benchmark, "tab1", experiment_config)
    values = {r["parameter"]: r["value"] for r in table.rows}
    assert values["Re-Order-Buffer"] == "64 entry"
    assert values["Total DRAM Capacity"] == "8 GB"
    assert values["High/Low Watermarks"] == "32/16"


def test_table2_timing_parameters(benchmark, experiment_config):
    table = run_and_print(benchmark, "tab2", experiment_config)
    by_param = {r["parameter"]: r for r in table.rows}
    # Paper Table 2, exact.
    assert by_param["tRC"]["ddr3"] == 50.0
    assert by_param["tRC"]["rldram3"] == 12.0
    assert by_param["tRC"]["lpddr2"] == 60.0
    assert by_param["tRL"]["rldram3"] == 10.0
    assert by_param["tWL"]["rldram3"] == 11.25
    assert by_param["tFAW"]["lpddr2"] == 50.0
