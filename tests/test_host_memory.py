"""Tests for host-side global memory (omp_alloc) and host compute."""

import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro

from repro.cluster import MemRef, World, run_spmd
from repro.core import DiompRuntime
from repro.hardware import platform_a
from repro.omptarget import host_parallel_for, host_threads
from repro.util.errors import CommunicationError, ConfigurationError


def make(nodes=2):
    w = World(platform_a(with_quirk=False), num_nodes=nodes)
    return w, DiompRuntime(w)


_ARENA_PROBE = textwrap.dedent(
    """
    import gc, resource
    from repro.cluster import World
    from repro.core import DiompRuntime
    from repro.hardware import platform_a

    def maxrss_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Freeing a 16 MiB mmap'd block raises glibc's dynamic mmap
    # threshold above it, so later 16 MiB heap requests come from the
    # heap, zero-filled and resident.
    DiompRuntime(World(platform_a(), num_nodes=2))
    gc.collect()
    before = maxrss_mb()
    DiompRuntime(World(platform_a(), num_nodes=256, analytic=True))
    print(maxrss_mb() - before)
    """
)


class TestHostArena:
    def test_arena_pages_stay_unbacked_whatever_ran_before(self):
        """1024 ranks reserve 16 GiB of host arenas; after an earlier
        runtime was dropped they must still cost almost no resident
        memory.  Runs in a fresh interpreter with default malloc
        settings so this process's heap history cannot mask it."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _ARENA_PROBE],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        growth_mb = float(out.stdout.strip().splitlines()[-1])
        assert growth_mb < 48, f"1024-rank runtime grew peak RSS by {growth_mb:.0f} MB"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_arena_is_zeroed_writable_and_private(self):
        w, rt = make(nodes=1)
        arena = rt.host_segment_of(0).arena
        assert arena.dtype == np.uint8 and arena.size == rt.params.host_segment_size
        assert arena.flags.writeable and not arena.any()
        arena[:8] = 7
        assert not rt.host_segment_of(1).arena[:8].any()
        # A forked child's writes must not reach the parent's arena.
        pid = os.fork()
        if pid == 0:
            arena[:8] = 9
            os._exit(0)
        os.waitpid(pid, 0)
        assert (arena[:8] == 7).all()


class TestHostAlloc:
    def test_symmetric_offsets(self):
        w, rt = make()
        offs = {}

        def prog(ctx):
            h1 = ctx.diomp.alloc_host(1024)
            h2 = ctx.diomp.alloc_host(2048)
            offs[ctx.rank] = (h1.offset, h2.offset)

        run_spmd(w, prog)
        assert len(set(offs.values())) == 1

    def test_size_mismatch_rejected(self):
        w, rt = make()

        def prog(ctx):
            ctx.diomp.alloc_host(1024 if ctx.rank else 512)

        with pytest.raises(CommunicationError, match="mismatch"):
            run_spmd(w, prog)

    def test_typed_access(self):
        w, rt = make(nodes=1)

        def prog(ctx):
            h = ctx.diomp.alloc_host(64)
            h.typed(np.float64)[:] = ctx.rank
            assert (h.typed(np.float64) == ctx.rank).all()

        run_spmd(w, prog)

    def test_free_and_reuse(self):
        w, rt = make(nodes=1)
        offs = {}

        def prog(ctx):
            h = ctx.diomp.alloc_host(1024)
            first = h.offset
            ctx.diomp.free_host(h)
            offs[ctx.rank] = (first, ctx.diomp.alloc_host(1024).offset)

        run_spmd(w, prog)
        for a, b in offs.values():
            assert a == b

    def test_use_after_free_rejected(self):
        w, rt = make(nodes=1)

        def prog(ctx):
            h = ctx.diomp.alloc_host(64)
            ctx.diomp.free_host(h)
            h.memref()

        with pytest.raises(Exception, match="freed"):
            run_spmd(w, prog)


class TestHostRma:
    def test_put_to_remote_host(self):
        w, rt = make()
        bufs = {}

        def prog(ctx):
            h = ctx.diomp.alloc_host(64)
            bufs[ctx.rank] = h
            ctx.diomp.barrier()
            if ctx.rank == 0:
                src = np.full(8, 3.5)
                ctx.diomp.put(5, h, MemRef.host(ctx.node, src))
                ctx.diomp.fence()
            ctx.diomp.barrier()

        run_spmd(w, prog)
        np.testing.assert_allclose(bufs[5].typed(np.float64), 3.5)

    def test_get_from_remote_host(self):
        w, rt = make()
        out = {}

        def prog(ctx):
            h = ctx.diomp.alloc_host(64)
            h.typed(np.int64)[:] = ctx.rank * 100
            ctx.diomp.barrier()
            if ctx.rank == 1:
                dst = np.zeros(8, dtype=np.int64)
                ctx.diomp.get(6, h, MemRef.host(ctx.node, dst))
                ctx.diomp.fence()
                out["v"] = dst[0]
            ctx.diomp.barrier()

        run_spmd(w, prog)
        assert out["v"] == 600

    def test_device_to_host_put(self):
        """GPU-resident data pushed straight into a remote host buffer."""
        w, rt = make()
        bufs = {}

        def prog(ctx):
            h = ctx.diomp.alloc_host(64)
            bufs[ctx.rank] = h
            ctx.diomp.barrier()
            if ctx.rank == 0:
                dev = ctx.device.malloc(64)
                dev.as_array(np.float64)[:] = 9.0
                ctx.diomp.put(4, h, MemRef.device(dev))
                ctx.diomp.fence()
            ctx.diomp.barrier()

        run_spmd(w, prog)
        np.testing.assert_allclose(bufs[4].typed(np.float64), 9.0)

    def test_out_of_range_rejected(self):
        w, rt = make(nodes=1)

        def prog(ctx):
            h = ctx.diomp.alloc_host(64)
            if ctx.rank == 0:
                ctx.diomp.put(
                    1, h, MemRef.host(ctx.node, np.zeros(16)), target_offset=32
                )

        with pytest.raises(CommunicationError, match="exceeds host buffer"):
            run_spmd(w, prog)


class TestHostCompute:
    def test_thread_share_by_deployment(self):
        """§3.3: one rank per GPU partitions the socket; single-process
        multi-GPU keeps all cores."""
        w_partitioned = World(platform_a(), num_nodes=1)  # 4 ranks/node
        w_whole = World(platform_a(), num_nodes=1, devices_per_rank=4)
        cores = platform_a().node.cpu.cores
        assert w_partitioned.ranks[0].host_threads == cores // 4
        assert w_whole.ranks[0].host_threads == cores

    def test_parallel_for_scales_with_threads(self):
        w = World(platform_a(), num_nodes=1, devices_per_rank=4)
        DiompRuntime(w)
        times = {}

        def prog(ctx):
            times["wide"] = host_parallel_for(ctx, 10**7, 10.0)
            times["narrow"] = host_parallel_for(ctx, 10**7, 10.0, threads=16)

        run_spmd(w, prog)
        assert times["wide"] * 3 < times["narrow"]  # 64 vs 16 threads

    def test_oversubscription_rejected(self):
        w = World(platform_a(), num_nodes=1)  # 4 ranks -> 16 cores each
        DiompRuntime(w)

        def prog(ctx):
            host_parallel_for(ctx, 100, 1.0, threads=64)

        with pytest.raises(ConfigurationError, match="oversubscribe"):
            run_spmd(w, prog)

    def test_host_threads_helper_matches_context(self):
        w = World(platform_a(), num_nodes=1)
        assert host_threads(w.ranks[0]) == w.ranks[0].host_threads
