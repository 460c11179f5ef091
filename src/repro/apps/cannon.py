"""Ring-exchange matrix multiplication (paper §4.4, Fig. 7).

The paper's setup: ``C = A x B`` with square ``N x N`` matrices over
``P`` GPUs, block-stripe width ``Ns = N / P``.  Rank ``r`` holds

* ``A_r`` — its row stripe (Ns x N), static,
* ``B`` stripes — row stripes (Ns x N) rotate around the ring; an
  *additional* stripe buffer enables compute/communication overlap,
* ``C_r`` — its result row stripe (Ns x N).

Each of the ``P`` steps multiplies the (Ns x Ns) block column of
``A_r`` matching the currently held B stripe into ``C_r`` — workload
``N * Ns * Ns`` per step, as the paper states — while the held stripe
is simultaneously forwarded to the left ring neighbour's spare buffer.

The **DiOMP variant** forwards stripes with a single one-sided
``ompx_put`` into the neighbour's symmetric buffer plus one fence; the
**MPI variant** uses Isend/Irecv on mapped device pointers plus
Waitall — the code-complexity contrast of Listings 1/2, here in
executable form.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro.cluster.memref import MemRef
from repro.cluster.spmd import SpmdResult, run_spmd
from repro.cluster.world import RankContext, World
from repro.core.runtime import DiompRuntime
from repro.device.kernel import Kernel, gemm_cost
from repro.mpi import MpiWorld
from repro.mpi import collectives as mpi_coll
from repro.util.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class CannonConfig:
    """Problem configuration."""

    n: int
    #: run real numpy numerics (small N) or virtual timing (paper N)
    execute: bool = True
    dtype: type = np.float64
    #: sustained fraction of the matrix-engine peak for the stripe GEMM
    gemm_efficiency: float = 0.85
    #: cap on ring steps (None = the full P).  A truncated run measures
    #: the steady-state per-step cost for scaling sweeps where the full
    #: P-step rotation would cost O(P^2) simulated events; only valid
    #: with ``execute=False`` (the result stripe is incomplete).
    steps: Optional[int] = None

    def ring_steps(self, nranks: int) -> int:
        if self.steps is None:
            return nranks
        if self.execute:
            raise ConfigurationError(
                "truncated Cannon (steps=) is timing-only; use execute=False"
            )
        if not 1 <= self.steps <= nranks:
            raise ConfigurationError(
                f"steps={self.steps} out of range 1..{nranks}"
            )
        return self.steps

    @property
    def itemsize(self) -> int:
        return np.dtype(self.dtype).itemsize

    def stripe(self, nranks: int) -> int:
        if self.n % nranks:
            raise ConfigurationError(
                f"matrix size {self.n} must divide by {nranks} ranks"
            )
        return self.n // nranks


def _init_stripe(cfg: CannonConfig, rank: int, nranks: int, which: str) -> np.ndarray:
    """Deterministic test matrices: A[i, j] = i - j, B[i, j] = i + j
    (small integers — exact in float64)."""
    ns = cfg.stripe(nranks)
    rows = np.arange(rank * ns, (rank + 1) * ns, dtype=np.int64)[:, None]
    cols = np.arange(cfg.n, dtype=np.int64)[None, :]
    # Integer modulo, then one cast: the same values as a float modulo
    # (every result is a small non-negative integer, +0.0 included).
    if which == "A":
        return ((rows - cols) % 7).astype(cfg.dtype)
    return ((rows + cols) % 5).astype(cfg.dtype)


def cannon_reference(cfg: CannonConfig, nranks: int) -> np.ndarray:
    """The full ``A @ B`` computed directly (test oracle)."""
    a = np.concatenate([_init_stripe(cfg, r, nranks, "A") for r in range(nranks)])
    b = np.concatenate([_init_stripe(cfg, r, nranks, "B") for r in range(nranks)])
    return a @ b


def _gemm_kernel(cfg: CannonConfig, ns: int) -> Kernel:
    """One ring step: C += A_block (Ns x Ns) @ B_stripe (Ns x N)."""

    def host_fn(a_block: np.ndarray, b_stripe: np.ndarray, c_stripe: np.ndarray) -> None:
        c_stripe += a_block @ b_stripe

    return Kernel(
        name="cannon-gemm",
        cost=lambda *_a: gemm_cost(
            ns, cfg.n, ns, itemsize=cfg.itemsize, efficiency=cfg.gemm_efficiency
        ),
        host_fn=host_fn if cfg.execute else None,
    )


def _finish(ctx: RankContext, cfg: CannonConfig, c_buf, t0: float) -> Dict[str, object]:
    result: Dict[str, object] = {"elapsed": ctx.sim.now - t0, "rank": ctx.rank}
    if cfg.execute:
        ns = cfg.stripe(ctx.nranks)
        result["C"] = c_buf.as_array(cfg.dtype, count=ns * cfg.n).reshape(ns, cfg.n).copy()
    return result


# ---------------------------------------------------------------------------
# DiOMP variant
# ---------------------------------------------------------------------------


def cannon_diomp(ctx: RankContext, cfg: CannonConfig) -> Dict[str, object]:
    """The DiOMP implementation: one-sided stripe forwarding."""
    diomp = ctx.diomp
    if diomp is None:
        raise ConfigurationError("cannon_diomp needs a DiompRuntime installed")
    p = ctx.nranks
    ns = cfg.stripe(p)
    stripe_bytes = ns * cfg.n * cfg.itemsize
    virtual = not cfg.execute
    # Symmetric allocations: the two rotating B buffers must be
    # remotely addressable; A and C are rank-local (they could equally
    # be OpenMP-mapped — they are never communicated).
    b_bufs = [
        diomp.alloc(stripe_bytes, virtual=virtual),
        diomp.alloc(stripe_bytes, virtual=virtual),
    ]
    a_buf = diomp.segment(0).alloc_local(stripe_bytes, virtual=virtual, label="A")
    c_buf = diomp.segment(0).alloc_local(stripe_bytes, virtual=virtual, label="C")
    if cfg.execute:
        a_buf.as_array(cfg.dtype)[:] = _init_stripe(cfg, ctx.rank, p, "A").reshape(-1)
        b_bufs[0].typed(cfg.dtype)[:] = _init_stripe(cfg, ctx.rank, p, "B").reshape(-1)
    kernel = _gemm_kernel(cfg, ns)
    left = (ctx.rank - 1) % p
    diomp.barrier()
    t0 = ctx.sim.now
    cur, nxt = 0, 1
    nsteps = cfg.ring_steps(p)
    for step in range(nsteps):
        owner = (ctx.rank + step) % p  # whose B stripe we now hold
        if cfg.execute:
            a_stripe = a_buf.as_array(cfg.dtype, count=ns * cfg.n).reshape(ns, cfg.n)
            args = (
                np.ascontiguousarray(a_stripe[:, owner * ns : (owner + 1) * ns]),
                b_bufs[cur].typed(cfg.dtype).reshape(ns, cfg.n),
                c_buf.as_array(cfg.dtype, count=ns * cfg.n).reshape(ns, cfg.n),
            )
        else:
            args = ()
        compute = ctx.device.launch(kernel, *args, cost_args=())
        if step < p - 1:
            # Forward the held stripe into the left neighbour's spare
            # buffer while the GEMM runs (overlap).
            diomp.put(left, b_bufs[nxt], b_bufs[cur].memref())
        compute.wait()
        diomp.fence()
        diomp.barrier()
        cur, nxt = nxt, cur
    elapsed_stats = _finish(ctx, cfg, c_buf, t0)
    diomp.barrier()
    return elapsed_stats


# ---------------------------------------------------------------------------
# MPI + OpenMP target variant
# ---------------------------------------------------------------------------


def cannon_mpi(ctx: RankContext, cfg: CannonConfig, mpi: MpiWorld) -> Dict[str, object]:
    """The MPI+OpenMP baseline: Isend/Irecv stripe forwarding."""
    from repro.omptarget import OmpTargetRuntime

    comm = mpi.comm_world(ctx.rank)
    rt = OmpTargetRuntime(ctx)
    p = comm.size
    ns = cfg.stripe(p)
    stripe_bytes = ns * cfg.n * cfg.itemsize
    virtual = not cfg.execute
    # Device memory through the stock libomptarget plugin (Fig. 1a):
    # private allocations, communicated via device pointers.
    a_buf = rt.omp_target_alloc(stripe_bytes, virtual=virtual)
    c_buf = rt.omp_target_alloc(stripe_bytes, virtual=virtual)
    b_bufs = [
        rt.omp_target_alloc(stripe_bytes, virtual=virtual),
        rt.omp_target_alloc(stripe_bytes, virtual=virtual),
    ]
    if cfg.execute:
        a_buf.as_array(cfg.dtype)[:] = _init_stripe(cfg, ctx.rank, p, "A").reshape(-1)
        b_bufs[0].as_array(cfg.dtype)[:] = _init_stripe(cfg, ctx.rank, p, "B").reshape(-1)
    kernel = _gemm_kernel(cfg, ns)
    left = (ctx.rank - 1) % p
    right = (ctx.rank + 1) % p
    mpi_coll.barrier(comm)
    t0 = ctx.sim.now
    cur, nxt = 0, 1
    nsteps = cfg.ring_steps(p)
    for step in range(nsteps):
        owner = (ctx.rank + step) % p
        requests = []
        if step < p - 1:
            requests.append(
                comm.irecv(MemRef.device(b_bufs[nxt]), source=right, tag=step)
            )
            requests.append(
                comm.isend(MemRef.device(b_bufs[cur]), dest=left, tag=step)
            )
        if cfg.execute:
            a_stripe = a_buf.as_array(cfg.dtype, count=ns * cfg.n).reshape(ns, cfg.n)
            args = (
                np.ascontiguousarray(a_stripe[:, owner * ns : (owner + 1) * ns]),
                b_bufs[cur].as_array(cfg.dtype, count=ns * cfg.n).reshape(ns, cfg.n),
                c_buf.as_array(cfg.dtype, count=ns * cfg.n).reshape(ns, cfg.n),
            )
        else:
            args = ()
        compute = ctx.device.launch(kernel, *args, cost_args=())
        compute.wait()
        for req in requests:
            req.wait()
        mpi_coll.barrier(comm)
        cur, nxt = nxt, cur
    result = _finish(ctx, cfg, c_buf, t0)
    mpi_coll.barrier(comm)
    return result


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_cannon(
    world: World,
    cfg: CannonConfig,
    impl: str = "diomp",
    runtime: Optional[DiompRuntime] = None,
    mpi: Optional[MpiWorld] = None,
) -> SpmdResult:
    """Launch the chosen implementation on every rank of ``world``.

    Returns the SPMD result; per-rank dicts hold ``elapsed`` and, in
    execute mode, the computed ``C`` stripe.
    """
    if impl == "diomp":
        if runtime is None:
            from repro.core.runtime import DiompParams

            stripe_bytes = cfg.stripe(world.nranks) * cfg.n * cfg.itemsize
            need = 6 * stripe_bytes + (1 << 20)
            runtime = DiompRuntime(world, DiompParams(segment_size=need))
        return run_spmd(world, cannon_diomp, cfg)
    if impl == "mpi":
        mpi = mpi or MpiWorld(world)
        return run_spmd(world, cannon_mpi, cfg, mpi)
    raise ConfigurationError(f"unknown cannon implementation {impl!r}")
