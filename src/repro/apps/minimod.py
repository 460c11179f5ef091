"""Minimod: acoustic-isotropic finite-difference proxy app (§4.5, Fig. 8).

Minimod propagates a wavefield by solving the second-order acoustic
wave equation with a high-order (radius-4, i.e. 8th-order) stencil:

    ``u_next = 2 u - u_prev + (c dt)^2 * Laplacian(u)``

The domain (``nx x ny x nz``) is decomposed 1-D along x; each step
exchanges ``radius`` halo planes with each x-neighbour, then applies
the stencil to the interior.

The **DiOMP variant** is the paper's Listing 1: each rank pushes its
boundary planes into its neighbours' halo slots with ``ompx_put``
(device-to-device) followed by one ``ompx_fence`` — about half the
code of the MPI variant (Listing 2), which posts Isend/Irecv pairs on
``use_device_ptr`` addresses and waits on all four requests.

``execute=True`` runs the real stencil (small grids, verified against
a single-rank reference); ``execute=False`` models paper scale
(1200^3, 1000 steps) with virtual memory and the stencil cost model.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro.cluster.memref import MemRef
from repro.cluster.spmd import SpmdResult, run_spmd
from repro.cluster.world import RankContext, World
from repro.core.runtime import DiompRuntime
from repro.device.kernel import Kernel, stencil_cost
from repro.mpi import MpiWorld, waitall
from repro.mpi import collectives as mpi_coll
from repro.util.errors import ConfigurationError

#: radius-4 second-derivative coefficients (standard 8th-order FD)
_COEFFS = np.array(
    [-205.0 / 72.0, 8.0 / 5.0, -1.0 / 5.0, 8.0 / 315.0, -1.0 / 560.0]
)


@dataclasses.dataclass(frozen=True)
class MinimodConfig:
    """Problem configuration."""

    nx: int
    ny: int
    nz: int
    steps: int
    execute: bool = True
    radius: int = 4
    #: Courant factor (c*dt/dx)^2 — stability requires a small value
    courant2: float = 0.1
    dtype: type = np.float32

    @property
    def itemsize(self) -> int:
        return np.dtype(self.dtype).itemsize

    def local_nx(self, nranks: int) -> int:
        if self.nx % nranks:
            raise ConfigurationError(f"nx={self.nx} must divide by {nranks} ranks")
        lnx = self.nx // nranks
        if lnx < self.radius:
            raise ConfigurationError(
                f"local slab of {lnx} planes is thinner than the stencil "
                f"radius {self.radius}"
            )
        return lnx

    @property
    def plane_elems(self) -> int:
        return self.ny * self.nz

    def halo_bytes(self) -> int:
        return self.radius * self.plane_elems * self.itemsize


def _initial_field(cfg: MinimodConfig) -> np.ndarray:
    """A deterministic point-source-like initial condition."""
    u = np.zeros((cfg.nx, cfg.ny, cfg.nz), dtype=cfg.dtype)
    u[cfg.nx // 2, cfg.ny // 2, cfg.nz // 2] = 1.0
    return u


def _laplacian(u: np.ndarray, radius: int) -> np.ndarray:
    """High-order Laplacian of the interior of a padded block.

    ``u`` is padded by ``radius`` on the x axis only (halo planes);
    y/z use zero boundaries (the array edges), matching the reference.
    """
    core = u[radius:-radius]
    lap = 3.0 * _COEFFS[0] * core
    for d in range(1, radius + 1):
        lap = lap + _COEFFS[d] * (u[radius + d :][: core.shape[0]] + u[radius - d : -radius - d])
        shifted_yp = np.zeros_like(core)
        shifted_yp[:, :-d, :] = core[:, d:, :]
        shifted_ym = np.zeros_like(core)
        shifted_ym[:, d:, :] = core[:, :-d, :]
        lap = lap + _COEFFS[d] * (shifted_yp + shifted_ym)
        shifted_zp = np.zeros_like(core)
        shifted_zp[:, :, :-d] = core[:, :, d:]
        shifted_zm = np.zeros_like(core)
        shifted_zm[:, :, d:] = core[:, :, :-d]
        lap = lap + _COEFFS[d] * (shifted_zp + shifted_zm)
    return lap


def minimod_reference(cfg: MinimodConfig) -> np.ndarray:
    """Single-domain reference propagation (test oracle)."""
    r = cfg.radius
    u = _initial_field(cfg)
    u_prev = u.copy()
    for _ in range(cfg.steps):
        padded = np.zeros((cfg.nx + 2 * r, cfg.ny, cfg.nz), dtype=cfg.dtype)
        padded[r:-r] = u
        u_next = 2.0 * u - u_prev + cfg.courant2 * _laplacian(padded, r)
        u_prev, u = u, u_next.astype(cfg.dtype)
    return u


def _stencil_kernel(cfg: MinimodConfig, lnx: int) -> Kernel:
    """One time step over the local slab (padded field layout:
    (lnx + 2r, ny, nz), x-major so halo planes are contiguous)."""
    r = cfg.radius

    def host_fn(u_pad: np.ndarray, u_prev_pad: np.ndarray) -> None:
        core = u_pad[r:-r]
        prev_core = u_prev_pad[r:-r]
        u_next = 2.0 * core - prev_core + cfg.courant2 * _laplacian(u_pad, r)
        # Time-level rotation: prev <- cur, cur <- next (in place).
        prev_core[:] = core
        core[:] = u_next.astype(cfg.dtype)

    return Kernel(
        name="minimod-stencil",
        cost=lambda *_a: stencil_cost(lnx * cfg.plane_elems),
        host_fn=host_fn if cfg.execute else None,
    )


def _field_shape(cfg: MinimodConfig, lnx: int):
    return (lnx + 2 * cfg.radius, cfg.ny, cfg.nz)


def _field_bytes(cfg: MinimodConfig, lnx: int) -> int:
    px, py, pz = _field_shape(cfg, lnx)
    return px * py * pz * cfg.itemsize


def _plane_offset(cfg: MinimodConfig, plane: int) -> int:
    """Byte offset of x-plane ``plane`` in the padded field."""
    return plane * cfg.plane_elems * cfg.itemsize


def _load_initial(cfg: MinimodConfig, rank: int, nranks: int, u_buf, dtype) -> None:
    lnx = cfg.local_nx(nranks)
    r = cfg.radius
    full = _initial_field(cfg)
    view = u_buf_view(cfg, u_buf, lnx)
    view[r : r + lnx] = full[rank * lnx : (rank + 1) * lnx]


def u_buf_view(cfg: MinimodConfig, buf, lnx: int) -> np.ndarray:
    return buf.as_array(cfg.dtype).reshape(_field_shape(cfg, lnx))


def _result(ctx, cfg: MinimodConfig, u_buf, lnx: int, t0: float) -> Dict[str, object]:
    out: Dict[str, object] = {"elapsed": ctx.sim.now - t0, "rank": ctx.rank}
    if cfg.execute:
        r = cfg.radius
        out["u"] = u_buf_view(cfg, u_buf, lnx)[r : r + lnx].copy()
    return out


# ---------------------------------------------------------------------------
# DiOMP variant — the paper's Listing 1
# ---------------------------------------------------------------------------


def minimod_diomp(ctx: RankContext, cfg: MinimodConfig) -> Dict[str, object]:
    diomp = ctx.diomp
    if diomp is None:
        raise ConfigurationError("minimod_diomp needs a DiompRuntime installed")
    p = ctx.nranks
    lnx = cfg.local_nx(p)
    r = cfg.radius
    virtual = not cfg.execute
    u = diomp.alloc(_field_bytes(cfg, lnx), virtual=virtual)
    u_prev = diomp.alloc(_field_bytes(cfg, lnx), virtual=virtual)
    if cfg.execute:
        _load_initial(cfg, ctx.rank, p, u.local, cfg.dtype)
        _load_initial(cfg, ctx.rank, p, u_prev.local, cfg.dtype)
    kernel = _stencil_kernel(cfg, lnx)
    halo = cfg.halo_bytes()
    diomp.barrier()
    t0 = ctx.sim.now
    for _step in range(cfg.steps):
        # Halo exchange (Listing 1): one-sided puts, D2D.
        if ctx.rank != 0:
            # My first interior planes -> left neighbour's right halo.
            diomp.put(
                ctx.rank - 1,
                u,
                u.memref(_plane_offset(cfg, r), halo),
                target_offset=_plane_offset(cfg, r + lnx),
            )
        if ctx.rank != p - 1:
            # My last interior planes -> right neighbour's left halo.
            diomp.put(
                ctx.rank + 1,
                u,
                u.memref(_plane_offset(cfg, lnx), halo),
                target_offset=_plane_offset(cfg, 0),
            )
        diomp.fence()
        diomp.barrier()
        if cfg.execute:
            args = (u_buf_view(cfg, u.local, lnx), u_buf_view(cfg, u_prev.local, lnx))
        else:
            args = ()
        ctx.device.launch(kernel, *args, cost_args=()).wait()
        diomp.barrier()
    out = _result(ctx, cfg, u.local, lnx, t0)
    diomp.barrier()
    return out


# ---------------------------------------------------------------------------
# DiOMP variant with communication/computation overlap
# ---------------------------------------------------------------------------


def _leapfrog_kernel(cfg: MinimodConfig, lo: int, hi: int) -> Kernel:
    """Update core planes ``[lo, hi)`` (core-relative), leapfrog style:
    the next time level is written into ``u_prev``'s storage, so both
    buffers of the current step are only *read* elsewhere — which is
    what makes interior/boundary/halo concurrency safe."""

    def host_fn(u_pad: np.ndarray, u_prev_pad: np.ndarray) -> None:
        r = cfg.radius
        core = u_pad[r:-r]
        prev = u_prev_pad[r:-r]
        # Only padded planes [lo, hi + 2r) feed core planes [lo, hi).
        lap = _laplacian(u_pad[lo : hi + 2 * r], r)
        prev[lo:hi] = (
            2.0 * core[lo:hi] - prev[lo:hi] + cfg.courant2 * lap
        ).astype(cfg.dtype)

    return Kernel(
        name=f"minimod-leapfrog[{lo}:{hi}]",
        cost=lambda *_a: stencil_cost((hi - lo) * cfg.plane_elems),
        host_fn=host_fn if cfg.execute else None,
    )


def minimod_diomp_overlap(ctx: RankContext, cfg: MinimodConfig) -> Dict[str, object]:
    """Extension: hide the halo exchange under the interior update.

    Per step: (1) launch the interior stencil (planes that need no
    halo) asynchronously, (2) push halos one-sided while it runs,
    (3) fence, run the two boundary slabs, barrier, swap time levels.
    """
    diomp = ctx.diomp
    if diomp is None:
        raise ConfigurationError("minimod_diomp_overlap needs a DiompRuntime")
    p = ctx.nranks
    lnx = cfg.local_nx(p)
    r = cfg.radius
    if lnx < 2 * r:
        raise ConfigurationError(
            f"overlap variant needs local slabs of >= {2 * r} planes, got {lnx}"
        )
    virtual = not cfg.execute
    bufs = [
        diomp.alloc(_field_bytes(cfg, lnx), virtual=virtual),
        diomp.alloc(_field_bytes(cfg, lnx), virtual=virtual),
    ]
    if cfg.execute:
        _load_initial(cfg, ctx.rank, p, bufs[0].local, cfg.dtype)
        _load_initial(cfg, ctx.rank, p, bufs[1].local, cfg.dtype)
    # A slab of exactly 2r planes is all boundary: no interior kernel.
    has_interior = lnx > 2 * r
    interior = _leapfrog_kernel(cfg, r, lnx - r) if has_interior else None
    left_slab = _leapfrog_kernel(cfg, 0, r)
    right_slab = _leapfrog_kernel(cfg, lnx - r, lnx)
    halo = cfg.halo_bytes()
    stream = ctx.device.create_stream()
    diomp.barrier()
    t0 = ctx.sim.now
    cur, nxt = 0, 1  # u = bufs[cur], u_prev/u_next = bufs[nxt]
    for _step in range(cfg.steps):
        u, u_prev = bufs[cur], bufs[nxt]
        if cfg.execute:
            args = (
                u_buf_view(cfg, u.local, lnx),
                u_buf_view(cfg, u_prev.local, lnx),
            )
        else:
            args = ()
        inner = (
            ctx.device.launch(interior, *args, cost_args=(), stream=stream)
            if has_interior
            else None
        )
        # Halo exchange rides under the interior update.
        if ctx.rank != 0:
            diomp.put(
                ctx.rank - 1,
                u,
                u.memref(_plane_offset(cfg, r), halo),
                target_offset=_plane_offset(cfg, r + lnx),
            )
        if ctx.rank != p - 1:
            diomp.put(
                ctx.rank + 1,
                u,
                u.memref(_plane_offset(cfg, lnx), halo),
                target_offset=_plane_offset(cfg, 0),
            )
        diomp.fence()
        diomp.barrier()  # halos in place everywhere
        b1 = ctx.device.launch(left_slab, *args, cost_args=(), stream=stream)
        b2 = ctx.device.launch(right_slab, *args, cost_args=(), stream=stream)
        if inner is not None:
            inner.wait()
        b1.wait()
        b2.wait()
        diomp.barrier()
        cur, nxt = nxt, cur
    # After `steps` swaps the freshest time level sits in bufs[cur].
    out = _result(ctx, cfg, bufs[cur].local, lnx, t0)
    diomp.barrier()
    return out


# ---------------------------------------------------------------------------
# MPI + OpenMP target variant — the paper's Listing 2
# ---------------------------------------------------------------------------


def minimod_mpi(ctx: RankContext, cfg: MinimodConfig, mpi: MpiWorld) -> Dict[str, object]:
    from repro.omptarget import OmpTargetRuntime

    comm = mpi.comm_world(ctx.rank)
    rt = OmpTargetRuntime(ctx)
    p = comm.size
    lnx = cfg.local_nx(p)
    r = cfg.radius
    virtual = not cfg.execute
    u = rt.omp_target_alloc(_field_bytes(cfg, lnx), virtual=virtual)
    u_prev = rt.omp_target_alloc(_field_bytes(cfg, lnx), virtual=virtual)
    if cfg.execute:
        _load_initial(cfg, ctx.rank, p, u, cfg.dtype)
        _load_initial(cfg, ctx.rank, p, u_prev, cfg.dtype)
    kernel = _stencil_kernel(cfg, lnx)
    halo = cfg.halo_bytes()
    mpi_coll.barrier(comm)
    t0 = ctx.sim.now

    def dev_ref(plane: int) -> MemRef:
        return MemRef.device(u, offset=_plane_offset(cfg, plane), nbytes=halo)

    for _step in range(cfg.steps):
        # Halo exchange (Listing 2): four requests + Waitall.
        requests = []
        if ctx.rank != 0:
            requests.append(comm.irecv(dev_ref(0), source=ctx.rank - 1, tag=1))
            requests.append(comm.isend(dev_ref(r), dest=ctx.rank - 1, tag=2))
        if ctx.rank != p - 1:
            requests.append(comm.irecv(dev_ref(r + lnx), source=ctx.rank + 1, tag=2))
            requests.append(comm.isend(dev_ref(lnx), dest=ctx.rank + 1, tag=1))
        waitall(requests)
        mpi_coll.barrier(comm)
        if cfg.execute:
            args = (u_buf_view(cfg, u, lnx), u_buf_view(cfg, u_prev, lnx))
        else:
            args = ()
        ctx.device.launch(kernel, *args, cost_args=()).wait()
        mpi_coll.barrier(comm)
    out = _result(ctx, cfg, u, lnx, t0)
    mpi_coll.barrier(comm)
    return out


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_minimod(
    world: World,
    cfg: MinimodConfig,
    impl: str = "diomp",
    runtime: Optional[DiompRuntime] = None,
    mpi: Optional[MpiWorld] = None,
) -> SpmdResult:
    """Launch Minimod on every rank of ``world``."""
    if impl == "diomp":
        if runtime is None:
            from repro.core.runtime import DiompParams

            lnx = cfg.local_nx(world.nranks)
            need = 6 * _field_bytes(cfg, lnx) + (1 << 20)
            runtime = DiompRuntime(world, DiompParams(segment_size=need))
        return run_spmd(world, minimod_diomp, cfg)
    if impl == "diomp-overlap":
        if runtime is None:
            from repro.core.runtime import DiompParams

            lnx = cfg.local_nx(world.nranks)
            need = 6 * _field_bytes(cfg, lnx) + (1 << 20)
            runtime = DiompRuntime(world, DiompParams(segment_size=need))
        return run_spmd(world, minimod_diomp_overlap, cfg)
    if impl == "mpi":
        mpi = mpi or MpiWorld(world)
        return run_spmd(world, minimod_mpi, cfg, mpi)
    raise ConfigurationError(f"unknown minimod implementation {impl!r}")
