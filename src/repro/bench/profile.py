"""Profiled benchmark runs: Chrome trace + metrics snapshot.

``python -m repro.bench --profile out.json`` runs a 4-rank Cannon
matmul (2 nodes x 2 ranks/node, so the stripe ring crosses both the
conduit and the intra-node IPC path) followed by an asymmetric-buffer
ping phase that exercises the second-level pointer cache.  It writes

* ``out.json`` — a Chrome trace-event file (load it at ui.perfetto.dev
  or chrome://tracing): one track per rank with the nested RMA /
  collective spans, plus flow arrows between causally linked spans,
* ``out.metrics.json`` — the full metrics snapshot (per-path RMA
  bytes, pointer-cache hit rate, stream-pool high-water marks, ...),

and prints the plain-text dashboard to stdout.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro.apps.cannon import CannonConfig, cannon_diomp
from repro.cluster.memref import MemRef
from repro.cluster.spmd import SpmdResult, run_spmd
from repro.cluster.world import RankContext, World
from repro.hardware import platform_a
from repro.obs.export import write_metrics_snapshot


@dataclasses.dataclass(frozen=True)
class ProfileConfig:
    """Shape of the profiled workload."""

    n: int = 256
    num_nodes: int = 2
    ranks_per_node: int = 2
    #: bytes of the rank-r asymmetric block in the ping phase
    asym_unit: int = 4096
    #: gets per rank in the ping phase (first misses, rest hit)
    ping_rounds: int = 2


def _profiled_program(ctx: RankContext, cfg: CannonConfig, pcfg: ProfileConfig) -> Dict[str, object]:
    """Cannon, then an asymmetric ping that exercises the pointer cache."""
    result = cannon_diomp(ctx, cfg)
    diomp = ctx.diomp
    with diomp.runtime.obs.span("profile.asym_ping", rank=ctx.rank):
        abuf = diomp.alloc_asymmetric((ctx.rank + 1) * pcfg.asym_unit)
        if abuf.data is not None:
            abuf.typed(np.uint8)[:] = ctx.rank
        diomp.barrier()
        right = (ctx.rank + 1) % ctx.nranks
        dst = np.zeros((right + 1) * pcfg.asym_unit, dtype=np.uint8)
        for _ in range(pcfg.ping_rounds):
            diomp.get(right, abuf, MemRef.host(ctx.node, dst))
            diomp.fence()
        diomp.barrier()
        diomp.free_asymmetric(abuf)
    return result


def run_profiled_cannon(pcfg: Optional[ProfileConfig] = None) -> SpmdResult:
    """Run the profiling workload; returns its :class:`SpmdResult`."""
    from repro.core.runtime import DiompParams, DiompRuntime

    pcfg = pcfg or ProfileConfig()
    world = World(
        platform_a(with_quirk=False),
        num_nodes=pcfg.num_nodes,
        ranks_per_node=pcfg.ranks_per_node,
    )
    cfg = CannonConfig(n=pcfg.n, execute=True)
    stripe_bytes = cfg.stripe(world.nranks) * cfg.n * cfg.itemsize
    asym_bytes = world.nranks * pcfg.asym_unit + (1 << 16)
    need = 6 * stripe_bytes + asym_bytes + (1 << 20)
    DiompRuntime(world, DiompParams(segment_size=need))
    return run_spmd(world, _profiled_program, cfg, pcfg)


def write_profile(out_path: str, pcfg: Optional[ProfileConfig] = None) -> SpmdResult:
    """Run the workload and write ``out_path`` (Chrome trace) plus
    ``<out_path minus .json>.metrics.json`` (metrics snapshot)."""
    res = run_profiled_cannon(pcfg)
    world = res.world
    nevents = world.obs.write_chrome_trace(
        out_path,
        metadata={"workload": "cannon+asym-ping", "nranks": world.nranks},
    )
    stem = out_path[:-5] if out_path.endswith(".json") else out_path
    metrics_path = f"{stem}.metrics.json"
    write_metrics_snapshot(
        metrics_path,
        world.obs.registry,
        extra={"elapsed_virtual_s": res.elapsed, "nranks": world.nranks},
    )
    print(world.obs.dashboard(title="profiled cannon run", with_spans=True))
    print(f"chrome trace : {out_path} ({nevents} events)")
    print(f"metrics      : {metrics_path}")
    return res
