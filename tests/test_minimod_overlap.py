"""Tests for the overlap variant of Minimod and MPI accumulate /
runtime finalize (extension features)."""

import numpy as np
import pytest

from repro.apps import MinimodConfig, minimod, minimod_reference, run_minimod
from repro.cluster import MemRef, World, run_spmd
from repro.core import DiompRuntime
from repro.hardware import platform_a
from repro.mpi import MpiWorld, Window
from repro.util.errors import CommunicationError, ConfigurationError


def assemble_u(results):
    ordered = sorted(results, key=lambda r: r["rank"])
    return np.concatenate([r["u"] for r in ordered])


class TestMinimodOverlap:
    def test_matches_reference(self):
        cfg = MinimodConfig(nx=32, ny=10, nz=10, steps=4)
        w = World(platform_a(with_quirk=False), num_nodes=1)
        res = run_minimod(w, cfg, impl="diomp-overlap")
        np.testing.assert_allclose(
            assemble_u(res.results), minimod_reference(cfg), rtol=1e-5, atol=1e-7
        )

    def test_matches_reference_multi_node(self):
        cfg = MinimodConfig(nx=64, ny=8, nz=8, steps=5)
        w = World(platform_a(with_quirk=False), num_nodes=2)
        res = run_minimod(w, cfg, impl="diomp-overlap")
        np.testing.assert_allclose(
            assemble_u(res.results), minimod_reference(cfg), rtol=1e-5, atol=1e-7
        )

    def test_overlap_not_slower_than_synchronous(self):
        """Hiding halos under the interior update must help (or at
        least not hurt) when compute per step dominates."""
        cfg = MinimodConfig(nx=1200, ny=240, nz=240, steps=5, execute=False)

        def elapsed(impl):
            w = World(platform_a(with_quirk=False), num_nodes=2)
            res = run_minimod(w, cfg, impl=impl)
            return max(r["elapsed"] for r in res.results)

        assert elapsed("diomp-overlap") <= elapsed("diomp") * 1.001

    def test_thin_slab_rejected(self):
        cfg = MinimodConfig(nx=16, ny=8, nz=8, steps=1)  # lnx=4 < 2r
        w = World(platform_a(with_quirk=False), num_nodes=1)
        with pytest.raises(ConfigurationError, match="overlap"):
            run_minimod(w, cfg, impl="diomp-overlap")


def _slab_ranges(lnx, r):
    """Every (lo, hi) the overlap and plan Minimod launch for a slab."""
    return {
        "interior": (r, lnx - r),
        "left": (0, r),
        "right": (lnx - r, lnx),
        "full-slab": (0, lnx),
    }


class TestLeapfrogKernel:
    """A slab update reads only the planes its plan op declares and
    produces exactly what the full-field Laplacian would."""

    @pytest.mark.parametrize(
        "lnx, part",
        # A slab of exactly 2r = 8 planes has no interior.
        [(8, p) for p in ("left", "right", "full-slab")]
        + [(n, p) for n in (9, 16, 32) for p in ("interior", "left", "right", "full-slab")],
    )
    def test_matches_full_field_update(self, lnx, part):
        cfg = MinimodConfig(nx=lnx, ny=6, nz=5, steps=1)
        r = cfg.radius
        lo, hi = _slab_ranges(lnx, r)[part]
        shape = (lnx + 2 * r, cfg.ny, cfg.nz)
        rng = np.random.default_rng(lnx * 31 + lo)
        for _trial in range(3):
            u_pad = rng.standard_normal(shape).astype(np.float32)
            u_prev_pad = rng.standard_normal(shape).astype(np.float32)
            # Exact zeros of both signs exercise the sign-bit check.
            u_pad.flat[::7] = -0.0
            u_prev_pad.flat[::5] = 0.0
            core = u_pad[r:-r]
            prev0 = u_prev_pad.copy()
            expected = (
                2.0 * core[lo:hi]
                - prev0[r:-r][lo:hi]
                + cfg.courant2 * minimod._laplacian(u_pad, r)[lo:hi]
            ).astype(cfg.dtype)
            u_before = u_pad.copy()
            minimod._leapfrog_kernel(cfg, lo, hi).host_fn(u_pad, u_prev_pad)
            got = u_prev_pad[r:-r][lo:hi]
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))
            # Nothing outside core planes [lo, hi) of prev moves, and u
            # is only read.
            untouched = np.ones(shape[0], dtype=bool)
            untouched[lo + r : hi + r] = False
            assert np.array_equal(
                u_prev_pad[untouched].view(np.uint32),
                prev0[untouched].view(np.uint32),
            )
            assert np.array_equal(u_pad.view(np.uint32), u_before.view(np.uint32))

    @pytest.mark.parametrize("part", ["interior", "left", "right", "full-slab"])
    def test_laplacian_sees_only_declared_planes(self, monkeypatch, part):
        cfg = MinimodConfig(nx=16, ny=4, nz=4, steps=1)
        r, lnx = cfg.radius, 16
        lo, hi = _slab_ranges(lnx, r)[part]
        planes = []
        real = minimod._laplacian

        def recording(u, radius):
            planes.append(u.shape[0])
            return real(u, radius)

        monkeypatch.setattr(minimod, "_laplacian", recording)
        shape = (lnx + 2 * r, cfg.ny, cfg.nz)
        minimod._leapfrog_kernel(cfg, lo, hi).host_fn(
            np.ones(shape, np.float32), np.zeros(shape, np.float32)
        )
        assert planes == [hi - lo + 2 * r]


class TestMpiAccumulate:
    def test_sums_into_target(self):
        w = World(platform_a(with_quirk=False), num_nodes=2)
        mpi = MpiWorld(w)
        bufs = {}

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            buf = ctx.device.malloc(64)
            buf.as_array(np.float64)[:] = 1.0
            bufs[ctx.rank] = buf
            win = Window.create(comm, MemRef.device(buf))
            win.fence()
            src = ctx.device.malloc(64)
            src.as_array(np.float64)[:] = float(ctx.rank)
            win.accumulate(MemRef.device(src), target=0, dtype=np.float64)
            win.fence()

        run_spmd(w, prog)
        # 1 (initial) + sum of all ranks' contributions.
        np.testing.assert_allclose(
            bufs[0].as_array(np.float64), 1.0 + sum(range(8))
        )

    def test_accumulate_with_max(self):
        w = World(platform_a(with_quirk=False), num_nodes=1)
        mpi = MpiWorld(w)
        bufs = {}

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            buf = ctx.device.malloc(8)
            bufs[ctx.rank] = buf
            win = Window.create(comm, MemRef.device(buf))
            win.fence()
            src = ctx.device.malloc(8)
            src.as_array(np.float64)[:] = float(ctx.rank * 10)
            win.accumulate(
                MemRef.device(src), target=2, dtype=np.float64, op=np.maximum
            )
            win.fence()

        run_spmd(w, prog)
        assert bufs[2].as_array(np.float64)[0] == 30.0

    def test_outside_epoch_rejected(self):
        w = World(platform_a(with_quirk=False), num_nodes=1)
        mpi = MpiWorld(w)

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            win = Window.create(comm, MemRef.device(ctx.device.malloc(8)))
            if ctx.rank == 0:
                win.accumulate(
                    MemRef.device(ctx.device.malloc(8)), target=1, dtype=np.float64
                )
            ctx.world.global_barrier.wait()

        with pytest.raises(CommunicationError, match="epoch"):
            run_spmd(w, prog)


class TestFinalize:
    def test_clean_shutdown_reports_no_leaks(self):
        w = World(platform_a(with_quirk=False), num_nodes=1)
        rt = DiompRuntime(w)

        def prog(ctx):
            g = ctx.diomp.alloc(256)
            ctx.diomp.barrier()
            if ctx.rank == 0:
                ctx.diomp.put(1, g, g.memref())
                ctx.diomp.fence()
            ctx.diomp.barrier()
            ctx.diomp.free(g)

        run_spmd(w, prog)
        leaks = rt.finalize()
        assert leaks == {"symmetric_leaks": 0, "local_leaks": 0, "host_leaks": 0}

    def test_leaked_buffers_counted(self):
        w = World(platform_a(with_quirk=False), num_nodes=1)
        rt = DiompRuntime(w)

        def prog(ctx):
            ctx.diomp.alloc(256)  # never freed
            ctx.diomp.alloc_host(128)  # never freed

        run_spmd(w, prog)
        leaks = rt.finalize()
        assert leaks["symmetric_leaks"] == 4  # one per rank
        assert leaks["host_leaks"] == 4

    def test_unfenced_rma_rejected(self):
        w = World(platform_a(with_quirk=False), num_nodes=2)
        rt = DiompRuntime(w)

        def prog(ctx):
            g = ctx.diomp.alloc(1 << 20, virtual=True)
            ctx.diomp.barrier()
            if ctx.rank == 0:
                ctx.diomp.put(4, g, g.memref())
            # no fence: the op may still be in flight at shutdown

        run_spmd(w, prog)
        if rt.handles[0].rma.pending_ops:
            with pytest.raises(CommunicationError, match="unfenced"):
                rt.finalize()
        else:  # pragma: no cover - op drained before teardown
            rt.finalize()
