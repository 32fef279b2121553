"""Resilience overhead bench: the executor's failure-handling machinery
must be free when nothing fails.

Three scheduling modes over the same spec list — a plain in-process
loop (no executor), the serial executor with the default no-retry
policy, and the serial executor with a generous retry/timeout policy —
so any bookkeeping cost the resilience layer adds to the happy path
shows up as a ratio. The faulty-path costs (pool respawns, backoff
sleeps) are intentional and not measured here; they only occur when
something already went wrong.
"""

import pytest

from repro.experiments import (
    ExperimentConfig,
    ParallelExecutor,
    RetryPolicy,
    RunSpec,
    execute_spec,
)

BENCH = "mcf"
READS = 800
FLAVOURS = ("ddr3", "rldram3")


def _config():
    # cache off: every mode must do the same real work every round.
    return ExperimentConfig(target_dram_reads=READS, benchmarks=(BENCH,),
                            cache_dir=None)


def _specs():
    return [RunSpec(BENCH, kind) for kind in FLAVOURS]


@pytest.mark.benchmark(group="resilience-overhead")
def test_plain_loop(benchmark):
    config = _config()

    def run():
        return [execute_spec(spec, config) for spec in _specs()]

    results = benchmark.pedantic(run, rounds=3, iterations=1)
    assert all(r.elapsed_cycles > 0 for r in results)


@pytest.mark.benchmark(group="resilience-overhead")
def test_serial_executor_no_policy(benchmark):
    config = _config()

    def run():
        return ParallelExecutor(config, jobs=1).run(_specs())

    results = benchmark.pedantic(run, rounds=3, iterations=1)
    assert all(r.elapsed_cycles > 0 for r in results.values())


@pytest.mark.benchmark(group="resilience-overhead")
def test_serial_executor_with_retry_policy(benchmark):
    config = _config()
    policy = RetryPolicy(max_retries=3, timeout_s=300.0)

    def run():
        executor = ParallelExecutor(config, jobs=1, policy=policy,
                                    keep_going=True)
        return executor.run(_specs()), executor

    (results, executor) = benchmark.pedantic(run, rounds=3, iterations=1)
    assert not executor.failures  # nothing failed, nothing retried
    assert all(r.elapsed_cycles > 0 for r in results.values())


# ---------------------------------------------------------------------------
# Sanitizer overhead: collect mode must stay cheap enough for CI smokes
# ---------------------------------------------------------------------------

SANITIZE_BUDGET = 2.5  # sanitized run <= 2.5x the un-instrumented run


def test_sanitizer_overhead_budget():
    """A collect-mode sanitized run must cost <= 2.5x a plain run.

    Interleaved best-of-3 CPU time, same discipline as the telemetry
    budget bench: both modes measured in the same loop so machine-wide
    drift cancels out of the ratio. The budget is far above the
    measured ratio on the reference machine, so only a real hot-path
    regression — shadow checks leaking onto the unsanitized path, or
    per-command allocations growing — trips it, not scheduler noise.
    The *off* case costing nothing at all is tier-1
    (tests/test_sanitizer.py asserts an unsanitized system attaches no
    probes).
    """
    import time

    from repro.sanitizer import (
        MODE_COLLECT,
        MODE_OFF,
        global_report,
        reset_global_report,
    )
    from repro.sim.config import SimConfig
    from repro.sim.system import build_benchmark, run_system

    config = SimConfig(memory="rl", target_dram_reads=1500)

    def run(mode):
        system, name = build_benchmark(BENCH, config)
        system.attach_sanitizer(mode)
        return run_system(system, name)

    def plain():
        return run(MODE_OFF)

    def sanitized():
        reset_global_report()
        try:
            result = run(MODE_COLLECT)
            assert global_report().clean, global_report().summary()
            return result
        finally:
            reset_global_report()

    plain_t = san_t = float("inf")
    for _ in range(3):
        start = time.process_time()
        plain()
        plain_t = min(plain_t, time.process_time() - start)
        start = time.process_time()
        sanitized()
        san_t = min(san_t, time.process_time() - start)

    ratio = san_t / plain_t
    assert ratio <= SANITIZE_BUDGET, (
        f"sanitized run is {ratio:.2f}x the un-instrumented run "
        f"(budget {SANITIZE_BUDGET}x): plain={plain_t:.3f}s "
        f"sanitized={san_t:.3f}s")
