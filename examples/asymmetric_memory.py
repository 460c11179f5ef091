#!/usr/bin/env python
"""Asymmetric global memory and the remote pointer cache (paper §3.2).

Each rank allocates a *different* amount of global device memory (a
ragged distributed array).  Remote access then needs the second-level
pointer protocol: the first access to a peer dereferences its pointer
wrapper over the network (two communication steps); later accesses hit
the remote pointer cache (one step).  The example measures both and
prints the cache's effect, plus the OpenMP-mapped-memory integration:
an array mapped with ``target enter data`` is remotely readable with
zero extra registration (Fig. 1b).

Run:  python examples/asymmetric_memory.py
"""

import numpy as np

from repro.cluster import MemRef, World, run_spmd
from repro.core import DiompRuntime
from repro.hardware import platform_a
from repro.omptarget import Map, MapType


def main() -> None:
    world = World(platform_a(with_quirk=False), num_nodes=2)
    DiompRuntime(world)

    def program(ctx, addresses):
        diomp = ctx.diomp
        # Ragged allocation: rank r holds (r+1) KiB.
        abuf = diomp.alloc_asymmetric((ctx.rank + 1) * 1024)
        abuf.typed(np.uint8)[:] = ctx.rank
        diomp.barrier()

        stats = {}
        if ctx.rank == 0:
            dst = np.zeros(4 * 1024, dtype=np.uint8)
            # Cold access: fetches rank 3's second-level pointer first.
            t0 = ctx.sim.now
            diomp.get(3, abuf, MemRef.host(ctx.node, dst))
            diomp.fence()
            cold = ctx.sim.now - t0
            # Warm access: the pointer comes from the cache.
            t0 = ctx.sim.now
            diomp.get(3, abuf, MemRef.host(ctx.node, dst))
            diomp.fence()
            warm = ctx.sim.now - t0
            assert (dst == 3).all()
            stats = {
                "cold_us": cold * 1e6,
                "warm_us": warm * 1e6,
                "fetches": diomp.rma.pointer_fetches,
                "hits": diomp.pointer_cache.hits,
            }
        diomp.barrier()

        # OpenMP-mapped memory is born remotely accessible: map an
        # array, publish its device address, let a peer read it.
        arr = np.full(8, float(100 + ctx.rank))
        diomp.omp.target_enter_data([Map(arr, MapType.TO)])
        addresses[ctx.rank] = diomp.omp.use_device_ptr(arr)
        diomp.barrier()
        if ctx.rank == 5:
            peek = np.zeros(8)
            diomp.get(2, addresses[2], MemRef.host(ctx.node, peek))
            diomp.fence()
            assert (peek == 102.0).all()
            stats["mapped_peek"] = peek[0]
        diomp.barrier()
        return stats

    # Ranks share one address space here, so a plain dict serves as
    # the out-of-band channel a real job would use to publish addresses.
    results = run_spmd(world, program, {}).results
    s = results[0]
    print(f"cold asymmetric get: {s['cold_us']:.2f} us "
          "(pointer fetch + data transfer)")
    print(f"warm asymmetric get: {s['warm_us']:.2f} us "
          "(cache hit, data transfer only)")
    print(f"pointer fetches over the wire: {s['fetches']}, "
          f"cache hits: {s['hits']}")
    print("rank 5 read rank 2's OpenMP-mapped array: "
          f"value {results[5]['mapped_peek']:.0f} (zero extra registration)")


if __name__ == "__main__":
    main()
