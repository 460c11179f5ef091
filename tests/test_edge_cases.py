"""Edge-case and error-path coverage across the stack."""

import numpy as np
import pytest

from repro.apps import CannonConfig, cannon_reference, run_cannon
from repro.cluster import MemRef, World, run_spmd
from repro.core import DiompRuntime
from repro.core.directives import execute_pragma
from repro.gasnet import GasnetConduit
from repro.hardware import platform_a
from repro.mpi import MpiWorld, Window
from repro.util.errors import CommunicationError
from repro.util.units import KiB, MiB


class TestSpaceSegmentResolution:
    def test_range_spanning_allocations_rejected(self):
        """A remote access must land inside ONE live allocation —
        reading across two adjacent segment allocations is a bug."""
        w = World(platform_a(with_quirk=False), num_nodes=1)
        DiompRuntime(w)

        def prog(ctx):
            a = ctx.diomp.alloc(1 * KiB)
            ctx.diomp.alloc(1 * KiB)  # adjacent allocation
            ctx.diomp.barrier()
            if ctx.rank == 0:
                # Address range starting inside rank 1's copy of `a`
                # and running into the adjacent allocation.
                remote_seg = ctx.diomp.runtime.segment_of(1, 0)
                addr = remote_seg.address_of(a.offset) + 512
                dst = np.zeros(1024, dtype=np.uint8)
                ctx.diomp.get(1, addr, MemRef.host(ctx.node, dst))
            ctx.diomp.barrier()

        with pytest.raises(CommunicationError, match="spans"):
            run_spmd(w, prog)

    def test_access_to_freed_segment_memory_rejected(self):
        w = World(platform_a(with_quirk=False), num_nodes=1)
        DiompRuntime(w)

        def prog(ctx):
            g = ctx.diomp.alloc(1 * KiB)
            seg_addr = ctx.diomp.segment(0).address_of(g.offset)
            ctx.diomp.free(g)
            ctx.diomp.barrier()
            if ctx.rank == 0:
                dst = np.zeros(16, dtype=np.uint8)
                ctx.diomp.get(1, seg_addr, MemRef.host(ctx.node, dst))
            ctx.diomp.barrier()

        with pytest.raises(Exception):
            run_spmd(w, prog)


class TestGasnetPendingState:
    def test_pending_count_drains_over_time(self):
        w = World(platform_a(with_quirk=False), num_nodes=2)
        conduit = GasnetConduit(w)
        bufs = []
        for ctx in w.ranks:
            b = ctx.device.malloc(8 * MiB, virtual=True)
            conduit.client(ctx.rank).attach_segment(MemRef.device(b))
            bufs.append(b)
        out = {}

        def prog(ctx):
            if ctx.rank == 0:
                client = conduit.client(0)
                src = MemRef.device(ctx.device.malloc(8 * MiB, virtual=True))
                client.put_nb(4, bufs[4].address, src)
                out["right_after"] = client.pending_count
                ctx.sim.sleep(1.0)  # far beyond the transfer time
                out["later"] = client.pending_count
                client.sync_all()

        run_spmd(w, prog)
        assert out == {"right_after": 1, "later": 0}


class TestOmpcclErrors:
    def test_buffer_count_must_match_devices(self):
        w = World(platform_a(with_quirk=False), num_nodes=1, devices_per_rank=4)
        DiompRuntime(w)

        def prog(ctx):
            one = MemRef.device(ctx.devices[0].malloc(8))
            ctx.diomp.allreduce([one], [one])  # needs 4 buffers

        with pytest.raises(CommunicationError, match="one buffer per"):
            run_spmd(w, prog)

    def test_barrier_on_foreign_group_rejected(self):
        """A rank outside a group cannot synchronize on it."""
        w = World(platform_a(with_quirk=False), num_nodes=2)
        DiompRuntime(w)
        shared = {}

        def prog(ctx):
            if ctx.rank < 4:
                shared["g"] = ctx.diomp.group_create([0, 1, 2, 3])
            ctx.world.global_barrier.wait()
            if ctx.rank == 7:
                with pytest.raises(CommunicationError, match="does not belong"):
                    ctx.diomp.barrier(group=shared["g"])
            ctx.world.global_barrier.wait()

        run_spmd(w, prog)


class TestDirectiveExecution:
    def test_device_reduce_pragma(self):
        w = World(platform_a(with_quirk=False), num_nodes=1)
        DiompRuntime(w)
        out = {}

        def prog(ctx):
            s = ctx.diomp.alloc(8)
            r = ctx.diomp.alloc(8)
            s.typed(np.float64)[:] = 3.0
            ctx.diomp.barrier()
            execute_pragma(
                ctx.diomp,
                "#pragma ompx target device_reduce(s, r, root=1)",
                env={"s": s, "r": r},
            )
            out[ctx.rank] = r.typed(np.float64)[0]

        run_spmd(w, prog)
        assert out[1] == 12.0
        assert out[0] == 0.0

    def test_barrier_pragma_with_group(self):
        w = World(platform_a(with_quirk=False), num_nodes=1)
        DiompRuntime(w)

        def prog(ctx):
            sub = ctx.diomp.group_split(ctx.diomp.world_group, 0)
            execute_pragma(
                ctx.diomp, "#pragma ompx barrier(grp)", env={"grp": sub}
            )

        run_spmd(w, prog)

    def test_case_insensitive_pragma(self):
        w = World(platform_a(with_quirk=False), num_nodes=1)
        DiompRuntime(w)

        def prog(ctx):
            execute_pragma(ctx.diomp, "#PRAGMA OMPX FENCE")

        run_spmd(w, prog)


class TestCannonVariants:
    def test_float32_cannon(self):
        w = World(platform_a(with_quirk=False), num_nodes=1)
        cfg = CannonConfig(n=32, execute=True, dtype=np.float32)
        res = run_cannon(w, cfg, impl="diomp")
        c = np.concatenate(
            [r["C"] for r in sorted(res.results, key=lambda r: r["rank"])]
        )
        np.testing.assert_allclose(c, cannon_reference(cfg, 4), rtol=1e-4)

    def test_lower_gemm_efficiency_slower(self):
        def t(eff):
            w = World(platform_a(with_quirk=False), num_nodes=1)
            cfg = CannonConfig(n=8192, execute=False, gemm_efficiency=eff)
            return max(
                r["elapsed"] for r in run_cannon(w, cfg, impl="diomp").results
            )

        assert t(0.9) < t(0.45)


class TestMultipleWindows:
    def test_distinct_windows_isolated(self):
        w = World(platform_a(with_quirk=False), num_nodes=1)
        mpi = MpiWorld(w)
        bufs = {}

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            b1 = ctx.device.malloc(64)
            b2 = ctx.device.malloc(64)
            bufs[ctx.rank] = (b1, b2)
            Window.create(comm, MemRef.device(b1), win_key=1)
            w2 = Window.create(comm, MemRef.device(b2), win_key=2)
            if ctx.rank == 0:
                src = ctx.device.malloc(64)
                src.as_array(np.float64)[:] = 5.0
                w2.lock(1)
                w2.put(MemRef.device(src), target=1)
                w2.unlock(1)
            ctx.world.global_barrier.wait()

        run_spmd(w, prog)
        b1, b2 = bufs[1]
        assert (b2.as_array(np.float64) == 5.0).all()
        assert (b1.as_array(np.float64) == 0.0).all()  # other window untouched


class TestWorldDevices:
    def test_rank_mallocs_land_in_device_memory(self):
        w = World(platform_a(with_quirk=False), num_nodes=1)
        before = {dev_id: d.memory.live_bytes for dev_id, d in w.devices.items()}

        def prog(ctx):
            buf = ctx.device.malloc(64)
            if ctx.rank == 0:
                ctx.device.free(buf)

        run_spmd(w, prog)
        grown = {
            dev_id: d.memory.live_bytes - before[dev_id]
            for dev_id, d in w.devices.items()
        }
        # one 64-byte allocation per rank; rank 0 freed its own
        assert sorted(grown.values()) == [0] + [64] * (w.nranks - 1)
