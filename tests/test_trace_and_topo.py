"""Tests for runtime activity counters and remaining topology/xccl
helpers."""

import pytest

from repro.cluster import World, run_spmd
from repro.core import DiompRuntime
from repro.hardware import platform_a, platform_b
from repro.util.units import MiB
from repro.xccl import build_ring, ring_hop_latency


class TestRuntimeCounters:
    def test_world_counters_see_runtime_activity(self):
        w = World(platform_a(with_quirk=False), num_nodes=1)
        DiompRuntime(w)
        pools = {}

        def prog(ctx):
            g = ctx.diomp.alloc(1 * MiB, virtual=True)
            ctx.diomp.barrier()
            if ctx.rank == 0:
                ctx.diomp.put(1, g, g.memref())
                ctx.diomp.fence()
            ctx.diomp.barrier()
            pools[ctx.rank] = ctx.diomp.stream_pool()

        run_spmd(w, prog)
        reg = w.obs.registry
        assert w.fabric.total_transfers >= 1
        assert pools[0].created >= 1
        assert reg.gauge("streams.active").high_water() >= 1
        assert reg.histogram("streams.fence_iterations").count() >= 1
        # the intra-node put took the IPC (peer-direct) path
        assert reg.value("rma.ops", op="put", path="ipc") == 1
        assert reg.value("rma.ops", op="put") == 1


class TestRingHopLatency:
    def test_single_member_zero(self):
        topo = platform_a(with_quirk=False).cluster(1)
        assert ring_hop_latency(topo, [topo.gpu(0, 0)]) == 0.0

    def test_multi_node_ring_dominated_by_nic(self):
        topo = platform_a(with_quirk=False).cluster(2)
        ring = build_ring(topo.all_gpus())
        lat = ring_hop_latency(topo, ring)
        assert lat == pytest.approx(topo.node_spec.nic.latency)

    def test_intra_node_ring_uses_link_latency(self):
        topo = platform_a(with_quirk=False).cluster(1)
        ring = build_ring(topo.all_gpus())
        lat = ring_hop_latency(topo, ring)
        assert lat < topo.node_spec.nic.latency

    def test_mi250x_ring_worst_hop_is_inter_module(self):
        topo = platform_b().cluster(1)
        ring = build_ring(topo.all_gpus())
        from repro.hardware.catalog import XGMI_INTER_MODULE

        assert ring_hop_latency(topo, ring) == pytest.approx(
            XGMI_INTER_MODULE.latency
        )
