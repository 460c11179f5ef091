"""The ``mpiexec`` analogue: run one program on every rank.

``run_spmd(world, program, *args)`` spawns ``program(ctx, *args)`` as a
simulated task per rank, drives the simulation to completion, and
returns per-rank results together with the elapsed virtual time — the
number every benchmark reports.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional

from repro.cluster.world import World
from repro.util.errors import ConfigurationError


@dataclasses.dataclass
class TelemetryConfig:
    """What telemetry one SPMD run collects and attaches to its result.

    Defaults match the pre-telemetry behavior (engine stats published,
    nothing else): rollups and anomaly detection cost a pass over the
    registry/spans at run end, so they are opt-in per run.
    """

    #: span retention budget installed on the world's profiler before
    #: launch (:class:`~repro.obs.sampling.SpanBudget`); None keeps the
    #: store's existing budget
    span_budget: Optional[Any] = None
    #: export the engine profiler's numbers as ``sim.*`` gauges after
    #: the run (events/sec, wall per sim-second, per-phase wall)
    publish_engine: bool = True
    #: attach cross-rank metric rollups to the result
    rollups: bool = False
    #: run the anomaly rules and attach the report to the result;
    #: True runs the default rule set, a sequence of rules (possibly
    #: empty) overrides it, False/None disables detection
    anomalies: Any = False


@dataclasses.dataclass
class SpmdConfig:
    """Per-run knobs orthogonal to the world's hardware shape."""

    #: fault-injection plan installed on the world before launch
    #: (:class:`~repro.faults.FaultPlan`); None = perfect hardware
    faults: Optional[Any] = None
    #: telemetry collection knobs (:class:`TelemetryConfig`)
    telemetry: Optional[TelemetryConfig] = None
    #: analytic-rank mode: force every allocation virtual for data-free
    #: sweeps (see :meth:`~repro.cluster.world.World.enable_analytic`)
    analytic: bool = False


@dataclasses.dataclass
class SpmdResult:
    """Outcome of one SPMD run."""

    #: per-rank return values, indexed by rank
    results: List[Any]
    #: virtual seconds from launch to the last rank finishing
    elapsed: float
    #: the world, for post-run inspection (fabric stats, traces)
    world: World
    #: metrics snapshot taken when the run finished (repro.obs)
    metrics: Optional[Dict[str, Any]] = None
    #: cross-rank metric rollups (TelemetryConfig.rollups)
    rollups: Optional[Dict[str, Any]] = None
    #: anomaly report (TelemetryConfig.anomalies)
    anomalies: Optional[Any] = None

    @property
    def critical_path(self):
        """Cross-rank critical-path summary of this run (computed lazily).

        See :mod:`repro.obs.critical_path`; the breakdown's category
        times sum to the critical-path length.
        """
        from repro.obs.critical_path import critical_path

        return critical_path(self.world.obs.spans)


def run_spmd(
    world: World,
    program: Callable[..., Any],
    *args: Any,
    name: str = "rank",
    config: Optional[SpmdConfig] = None,
) -> SpmdResult:
    """Run ``program(ctx, *args)`` on every rank of ``world``.

    The program receives its :class:`RankContext` first.  Any exception
    in any rank aborts the run and propagates to the caller.  The world
    is single-use (its simulator cannot restart).
    """
    if world.sim.closed:
        raise ConfigurationError(
            "world is single-use; the service layer multiplexes jobs "
            "(see repro.cluster.service.ClusterService)"
        )
    if config is not None and config.faults is not None:
        world.install_fault_plan(config.faults)
    if config is not None and config.analytic:
        world.enable_analytic()
    telemetry = (config.telemetry if config is not None else None) or TelemetryConfig()
    if telemetry.span_budget is not None:
        world.obs.set_span_budget(telemetry.span_budget)
    tasks = [
        world.sim.spawn(program, ctx, *args, name=f"{name}{ctx.rank}")
        for ctx in world.ranks
    ]
    elapsed = world.sim.run()
    obs = world.obs
    if telemetry.publish_engine:
        obs.publish_engine()
    rollups = obs.rollup() if telemetry.rollups else None
    anomalies = None
    # A truthiness test would silently disable detection for an
    # explicit-but-empty rule sequence, so test against the sentinel
    # values instead.
    if telemetry.anomalies is not False and telemetry.anomalies is not None:
        rules = telemetry.anomalies if telemetry.anomalies is not True else None
        anomalies = obs.detect_anomalies(rules=rules)
    return SpmdResult(
        results=[t.result for t in tasks],
        elapsed=elapsed,
        world=world,
        metrics=obs.snapshot() if obs.registry.enabled else None,
        rollups=rollups,
        anomalies=anomalies,
    )
