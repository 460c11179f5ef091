"""Cluster world and SPMD launch harness.

:class:`~repro.cluster.world.World` instantiates everything a run
needs — simulator, topology, fabric, one :class:`~repro.device.Device`
per GPU, peer-access manager, observability — and places *ranks* on
nodes.
:func:`~repro.cluster.spmd.run_spmd` is the ``mpiexec`` analogue: it
spawns one simulated task per rank, runs the program to completion and
returns results plus the elapsed virtual time.

The paper's deployment flexibility (§3.3) maps to the launch
parameters: ``ranks_per_node`` and ``devices_per_rank`` express both
the conventional one-GPU-per-rank model and DiOMP's single-process
multi-GPU model.

Where a world is single-use (one program, one ``sim.run()``), the
:mod:`~repro.cluster.service` layer multiplexes a *stream* of tenant
jobs over one shared world: admission control, gang placement onto
free nodes, and per-tenant fault/metric isolation.
"""

from repro.cluster.world import World, RankContext
from repro.cluster.spmd import run_spmd, SpmdConfig, SpmdResult
from repro.cluster.memref import MemRef
from repro.cluster.jobs import JobRequest, poisson_jobs
from repro.cluster.service import (
    ClusterService,
    JobRecord,
    ServiceConfig,
    ServiceResult,
    TenantView,
    default_service_slos,
)

__all__ = [
    "World",
    "RankContext",
    "run_spmd",
    "SpmdConfig",
    "SpmdResult",
    "MemRef",
    "JobRequest",
    "poisson_jobs",
    "ClusterService",
    "JobRecord",
    "ServiceConfig",
    "ServiceResult",
    "TenantView",
    "default_service_slos",
]
