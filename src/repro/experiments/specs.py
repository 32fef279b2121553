"""Declarative run specifications for the experiment pipeline.

A :class:`RunSpec` names one result — ``(benchmark, memory kind,
variant, config overrides, named runner)`` — without executing it.
Because specs are frozen, hashable, and picklable, the scheduler can

* dedupe runs shared between figures (every figure needs the DDR3
  baseline; it is simulated once per suite invocation),
* key the on-disk result cache, and
* ship work to :class:`~repro.experiments.executor.ParallelExecutor`
  worker processes.

Non-default setups are expressed declaratively rather than with
closures: either as ``overrides`` (``(("prefetcher_enabled", False),)``
applied to the resolved :class:`~repro.sim.config.SimConfig`) or as a
*named runner* — a module-level function registered with
:func:`register_runner` that a worker process can look up by name and
that builds the spec's (prewarmed, not yet run)
:class:`~repro.sim.system.SimulationSystem`.

Simulations and views. Every spec resolves to the *simulation* it
needs, :func:`base_spec`. For most specs that is the spec itself. A
*view* — registered with :func:`register_view` under the name its
specs carry in ``runner`` — is a reading taken from another spec's
finished simulation: the Sec 7.2 unterminated-LPDRAM power report reads
the RL run, the Fig 3 per-line histograms read the profiling run. A
view computes only ``SimResult.extra`` from ``(system, result)``; every
other field is its base's. :func:`simulate` runs a base spec and
returns ``(system, result)``: one build-and-run sequence for every
spec, named runners included, so every simulated run reaches the
active telemetry session and, when configured, the checkpoint
directory. :func:`execute_spec` goes through it for every spec, and
takes a ``shared`` memo so that the executor, which groups pending
specs by base simulation, simulates each group once and hands every
member an independent copy of the result.

Cache keys (``v8``) embed a digest of the fully resolved ``SimConfig``
so any config-knob change — present or future — invalidates stale
entries instead of silently recalling them. ``v7`` switched the memory
axis from an enum to backend names; ``v8`` did
the same for the workload axis: ``benchmark`` is a canonical
workload name (``mcf``/``synthetic:mcf`` coalesce, and
``trace:<path>`` names recorded replays), and the key carries the
workload's *content token* — a profile-parameter digest for synthetic
sources, the file sha256 for trace files — so editing a trace file or
recalibrating a profile invalidates its cached results. A view spec
keeps its own key: grouping changes how a result is computed, not
which result it is.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.memsys.registry import resolve_name
from repro.sanitizer import MODE_OFF
from repro.sim.config import SimConfig
from repro.sim.checkpoint import (
    CheckpointError,
    Checkpointer,
    checkpoint_path,
    delete_checkpoint,
    load_checkpoint,
)
from repro.sim.system import (
    SimResult,
    SimulationSystem,
    build_benchmark,
    run_system,
)
from repro.telemetry.session import active_session
from repro.workloads.registry import resolve_workload, workload_cache_token

CACHE_KEY_VERSION = "v8"

# ---------------------------------------------------------------------------
# Declarative SimConfig overrides (shared with repro.sweep)
# ---------------------------------------------------------------------------


def _with_uncore(config: SimConfig, **updates) -> SimConfig:
    return dataclasses.replace(
        config, uncore=dataclasses.replace(config.uncore, **updates))


def _with_prefetcher(config: SimConfig, **updates) -> SimConfig:
    prefetcher = dataclasses.replace(config.uncore.prefetcher, **updates)
    return _with_uncore(config, prefetcher=prefetcher)


_APPLIERS: Dict[str, Callable[[SimConfig, object], SimConfig]] = {
    "mshr_capacity": lambda c, v: _with_uncore(c, mshr_capacity=int(v)),
    "prefetch_degree": lambda c, v: _with_prefetcher(c, degree=int(v)),
    "prefetch_distance": lambda c, v: _with_prefetcher(c, distance=int(v)),
    "prefetcher_enabled": lambda c, v: _with_prefetcher(c, enabled=bool(v)),
    "rob_size": lambda c, v: dataclasses.replace(
        c, core=dataclasses.replace(c.core, rob_size=int(v))),
    "target_dram_reads": lambda c, v: dataclasses.replace(
        c, target_dram_reads=int(v)),
}

# Controller-level parameters need a custom memory build; they are
# applied by the "sweep_controller_queue" named runner, not here.
_CONTROLLER_PARAMS = {"read_queue_size", "write_queue_size"}


def apply_parameter(config: SimConfig, parameter: str,
                    value: object) -> SimConfig:
    """Return a config with ``parameter`` set to ``value``."""
    if parameter in _CONTROLLER_PARAMS:
        return config  # applied at memory-build time by the named runner
    try:
        return _APPLIERS[parameter](config, value)
    except KeyError:
        raise ValueError(
            f"unknown sweep parameter {parameter!r}; "
            f"known: {sorted(_APPLIERS) + sorted(_CONTROLLER_PARAMS)}"
        ) from None


# ---------------------------------------------------------------------------
# Named runner and view registries
# ---------------------------------------------------------------------------

RUNNER_REGISTRY: Dict[str, Callable[["RunSpec", object],
                                    SimulationSystem]] = {}


@dataclass(frozen=True)
class View:
    """A reading of a finished simulation: ``base`` maps a view spec to
    the spec whose simulation it reads, ``extra`` computes the view's
    ``SimResult.extra`` from that simulation's ``(system, result)``."""

    base: Callable[["RunSpec"], "RunSpec"]
    extra: Callable[[SimulationSystem, SimResult], dict]


VIEW_REGISTRY: Dict[str, View] = {}


def register_runner(name: str):
    """Register a module-level runner so workers can resolve it by name.

    A runner builds the spec's prewarmed, not yet run
    :class:`SimulationSystem`; :func:`simulate` runs it like any other,
    so the system must pickle when checkpointing is on.
    """

    def decorator(fn: Callable[["RunSpec", object], SimulationSystem]):
        RUNNER_REGISTRY[name] = fn
        return fn

    return decorator


def register_view(name: str, base: Callable[["RunSpec"], "RunSpec"]):
    """Register ``fn(system, result) -> extra`` as the view ``name``.

    Specs whose ``runner`` is ``name`` read the simulation of
    ``base(spec)`` instead of running their own.
    """

    def decorator(fn: Callable[[SimulationSystem, SimResult], dict]):
        VIEW_REGISTRY[name] = View(base, fn)
        return fn

    return decorator


def _load_registries() -> None:
    # Runners and views live in the figure modules (and repro.sweep);
    # importing the packages populates the registries in a fresh
    # worker process.
    import repro.experiments  # noqa: F401
    import repro.sweep  # noqa: F401


def resolve_runner(name: str) -> Callable[["RunSpec", object],
                                          SimulationSystem]:
    if name not in RUNNER_REGISTRY:
        _load_registries()
    try:
        return RUNNER_REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown named runner {name!r}; "
                         f"known: {sorted(RUNNER_REGISTRY)}") from None


def resolve_view(name: str) -> Optional[View]:
    """The view registered as ``name``, or None for a runner name."""
    if name and name not in VIEW_REGISTRY and name not in RUNNER_REGISTRY:
        _load_registries()
    return VIEW_REGISTRY.get(name)


# ---------------------------------------------------------------------------
# RunSpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """One simulation, described declaratively.

    ``benchmark`` is a workload name and ``memory`` a memory-backend
    name; both canonicalise at construction (so
    ``RunSpec("synthetic:mcf", "baseline") == RunSpec("mcf", "ddr3")``
    and both hash alike as dict keys), and an unknown name on either
    axis fails here with a did-you-mean, never in a worker later. ``overrides`` are ``(parameter, value)``
    pairs applied to the resolved :class:`SimConfig` through
    :func:`apply_parameter`; ``runner``/``params`` select a registered
    named runner for setups a config transform cannot express (the
    shrunken-footprint profiling pass, controller-queue sweeps) or a
    registered view that reads another spec's simulation (the Sec 7.2
    power report, the Fig 3 histograms). ``base`` carries a
    fully custom :class:`SimConfig` (parameter sweeps) instead of the
    experiment config's default one.
    """

    benchmark: str
    memory: str
    variant: str = ""
    overrides: Tuple[Tuple[str, object], ...] = ()
    runner: str = ""
    params: Tuple[Tuple[str, object], ...] = ()
    base: Optional[SimConfig] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "benchmark",
                           resolve_workload(self.benchmark))
        object.__setattr__(self, "memory", resolve_name(self.memory))

    @property
    def label(self) -> str:
        parts = [self.benchmark, self.memory]
        if self.variant:
            parts.append(self.variant)
        return "/".join(parts)

    def param(self, name: str, default: object = None) -> object:
        return dict(self.params).get(name, default)

    def resolved_sim_config(self, config) -> SimConfig:
        """The SimConfig this spec runs with, overrides applied.

        ``config`` is an :class:`~repro.experiments.runner.ExperimentConfig`
        (duck-typed here to keep the import graph acyclic).
        """
        if self.base is not None:
            sim_config = dataclasses.replace(self.base, memory=self.memory)
        else:
            sim_config = config.sim_config(self.memory)
        for parameter, value in self.overrides:
            sim_config = apply_parameter(sim_config, parameter, value)
        return sim_config


def config_digest(sim_config: SimConfig) -> str:
    """Stable short digest of every knob in a :class:`SimConfig`."""
    payload = json.dumps(dataclasses.asdict(sim_config), sort_keys=True,
                         default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def spec_cache_key(spec: RunSpec, config) -> str:
    """Disk-cache key: spec identity + workload content token + full
    resolved-config digest.

    The workload token pins the workload's *contents* (profile
    parameters or trace-file bytes), so a recalibrated profile or an
    edited trace file invalidates its cached results even though the
    spec's name part is unchanged.
    """
    params = json.dumps(spec.params, sort_keys=True, default=str)
    return "|".join([
        CACHE_KEY_VERSION, spec.benchmark, spec.memory, spec.variant,
        spec.runner, params, str(config.target_dram_reads), str(config.seed),
        workload_cache_token(spec.benchmark),
        config_digest(spec.resolved_sim_config(config)),
    ])


def base_spec(spec: RunSpec) -> RunSpec:
    """The spec whose simulation ``spec`` reads: its view's base, or
    ``spec`` itself."""
    view = resolve_view(spec.runner)
    return spec if view is None else view.base(spec)


def simulate(spec: RunSpec, config, kill_after: Optional[int] = None
             ) -> Tuple[SimulationSystem, SimResult]:
    """Run the simulation of base spec ``spec``; return ``(system, result)``.

    One sequence for every spec, named runners included: resume the
    spec's checkpoint when checkpointing is on and a valid one exists,
    else build the system (a named runner builds its own, any other
    spec gets :func:`~repro.sim.system.build_benchmark`'s); attach the
    config's sanitizer; run it with
    :func:`~repro.sim.system.run_system`, which attaches and records
    the active session's run telemetry, snapshotting every
    ``config.checkpoint_every`` reads when checkpointing is on; and
    delete the checkpoint once the run completes. The checkpoint is
    keyed by ``spec``'s cache key, and ``kill_after`` is the
    ``ckptkill`` fault (see :mod:`repro.sim.checkpoint`). A resumed
    run's result is byte-identical to an uninterrupted one.
    """
    # Checkpointing is off while a telemetry session is active (a run's
    # registry cannot be stitched across the process boundary a resume
    # implies) and for a sanitized run (the sanitizer must see the whole
    # run, so it never lands on a system restored mid-run).
    directory = (config.checkpoint_dir if active_session() is None
                 and config.sanitize == MODE_OFF else None)
    restored = checkpointer = executed = None
    if directory:
        key = spec_cache_key(spec, config)
        path = checkpoint_path(directory, key)
        if path.exists():
            try:
                restored = load_checkpoint(path, expect_cache_key=key)
            except CheckpointError:
                pass  # quarantined; build afresh
    if restored is not None:
        system, executed, header = restored
        benchmark = header.get("benchmark", spec.benchmark)
    elif spec.runner:
        system = resolve_runner(spec.runner)(spec, config)
        benchmark = spec.benchmark
    else:
        system, benchmark = build_benchmark(
            spec.benchmark, spec.resolved_sim_config(config),
            materialize=bool(directory))
    system.attach_sanitizer(config.sanitize)
    if directory:
        every = config.checkpoint_every
        checkpointer = Checkpointer(
            path, key, benchmark=benchmark, every_reads=every,
            kill_after=kill_after,
            first_mark=system.uncore.dram_reads + every)
    result = run_system(system, benchmark, variant=spec.variant,
                        checkpointer=checkpointer, executed=executed)
    if directory:
        delete_checkpoint(path)
    return system, result


def execute_spec(spec: RunSpec, config, attempt: int = 1,
                 shared: Optional[Dict[RunSpec, tuple]] = None) -> SimResult:
    """Actually compute ``spec`` (no caching — the executor handles it).

    ``attempt`` (1-based) is threaded through by the executor so the
    config's deterministic fault-injection plan (``fault_plan``, see
    :mod:`repro.experiments.resilience`) can target specific retries of
    specific specs — identically in the serial path and in pool
    workers.

    ``shared`` memoises finished simulations by base spec across the
    calls of one group: the first member to need a base simulates it,
    later members read it. Each member then gets its own deep copy of
    the result, so no two members share a mutable object. Fault hooks
    still fire per member, before and after its own share of the work.
    """
    plan = config.fault_plan
    if plan is not None:
        plan.before_run(spec.label, attempt)
    view = resolve_view(spec.runner)
    base = spec if view is None else view.base(spec)
    simulated = shared.get(base) if shared is not None else None
    if simulated is None:
        kill_after = (plan.kill_after_saves(spec.label, attempt)
                      if plan is not None else None)
        simulated = simulate(base, config, kill_after=kill_after)
        if shared is not None:
            shared[base] = simulated
    system, result = simulated
    if shared is not None:
        result = copy.deepcopy(result)
    if view is not None:
        result.extra = view.extra(system, result)
    if plan is not None:
        result = plan.after_run(spec.label, attempt, result)
    return result
