"""Global segments and symmetric global memory (§3.2, Fig. 2).

Every (rank, device) pair owns a :class:`GlobalSegment`: a reserved
device address range, registered **once** with the conduit, subdivided
by a heap allocator.  Symmetric allocation gives every rank the same
offset, so the remote address of a symmetric object is simply

    ``remote_segment_base + local_offset``

— the offset-translation property the paper's one-sided fast path
depends on.  :class:`GlobalBuffer` is the user-visible handle.
"""

from __future__ import annotations

import mmap
from typing import Optional

from repro.cluster.memref import MemRef
from repro.core.allocator import make_allocator
from repro.device.driver import Device
from repro.device.memory import DeviceBuffer
from repro.util.errors import AllocationError


class GlobalSegment:
    """One device's slice of the PGAS global space.

    The segment is split into two regions:

    * **symmetric region** ``[0, size/2)`` — collective allocations.
      Every rank's symmetric allocator sees the identical call
      sequence, so offsets match across ranks (the translation
      invariant).
    * **local region** ``[size/2, size)`` — rank-local allocations:
      intercepted libomptarget mappings and the data blocks of
      asymmetric allocations ("at the end of the global segment", §3.2).
      These differ per rank without perturbing the symmetric allocator.

    Both regions live inside one reserved, once-registered address
    range, so everything is remotely addressable.
    """

    def __init__(
        self,
        device: Device,
        size: int,
        allocator_kind: str = "linear",
        owner_rank: int = 0,
        obs=None,
    ) -> None:
        self.device = device
        self.size = size
        self.owner_rank = owner_rank
        self.base = device.memory.reserve(size)
        self.symmetric_region = size // 2
        self.symmetric_allocator = make_allocator(allocator_kind, self.symmetric_region)
        self.local_allocator = make_allocator(allocator_kind, size - self.symmetric_region)
        #: installed by the runtime after conduit registration
        self.conduit_segment = None
        #: count of distinct registrations performed (1, vs one per
        #: allocation in the Fig. 1a baseline)
        self.registrations = 0
        #: occupancy gauge (repro.obs), labeled by rank and region
        self._g_occ = (
            obs.gauge("segment.occupancy_bytes", "allocated bytes by rank/region")
            if obs is not None
            else None
        )

    def _track_occupancy(self, region: str, allocator) -> None:
        if self._g_occ is not None:
            self._g_occ.set(
                allocator.allocated_bytes, rank=self.owner_rank, region=region
            )

    def address_of(self, offset: int) -> int:
        """Device virtual address of a segment offset."""
        if self.base is None:
            raise AllocationError("global segment has been released")
        if not 0 <= offset < self.size:
            raise AllocationError(
                f"offset {offset} outside global segment of {self.size} bytes"
            )
        return self.base + offset

    def offset_of(self, address: int) -> int:
        """Inverse of :meth:`address_of`."""
        offset = address - self.base
        if not 0 <= offset < self.size:
            raise AllocationError(f"address {address:#x} outside global segment")
        return offset

    def place(self, offset: int, size: int, virtual: bool, label: str) -> DeviceBuffer:
        """Materialize an allocation at a fixed segment offset."""
        return self.device.memory.allocate_at(
            self.address_of(offset), size, virtual=virtual, label=label
        )

    def sym_alloc(self, size: int) -> int:
        """Symmetric-region allocation; returns the segment offset.

        Collective coordination (same sequence on every rank) is the
        runtime's job; this is the per-rank allocator step.
        """
        offset = self.symmetric_allocator.alloc(size)
        self._track_occupancy("symmetric", self.symmetric_allocator)
        return offset

    def sym_free(self, offset: int) -> None:
        self.symmetric_allocator.free(offset)
        self._track_occupancy("symmetric", self.symmetric_allocator)

    def alloc_local(self, size: int, virtual: bool = False, label: str = "") -> DeviceBuffer:
        """Rank-local allocation inside the segment (used by the
        libomptarget plugin and by asymmetric data blocks).  The result
        is remotely addressable — the segment registration covers it —
        but its offset is not coordinated across ranks."""
        offset = self.symmetric_region + self.local_allocator.alloc(size)
        self._track_occupancy("local", self.local_allocator)
        return self.place(offset, size, virtual, label or "diomp-local")

    def free_local(self, buffer: DeviceBuffer) -> None:
        """Release a local-region allocation back to the heap."""
        offset = self.offset_of(buffer.address)
        if offset < self.symmetric_region:
            raise AllocationError(
                "free_local on a symmetric allocation; use the runtime's "
                "collective free"
            )
        self.local_allocator.free(offset - self.symmetric_region)
        self._track_occupancy("local", self.local_allocator)
        self.device.memory.free(buffer)

    def release(self) -> None:
        """Tear the whole segment down, returning its device memory.

        Idempotent.  Used by the cluster service when a job finishes:
        the reservation (and any allocations still placed inside it)
        is handed back to the device so the next job's segment fits.
        """
        if self.base is None:
            return
        self.device.memory.release(self.base)
        self.base = None
        self.conduit_segment = None

    @property
    def released(self) -> bool:
        return self.base is None

    @property
    def free_bytes(self) -> int:
        return self.symmetric_allocator.free_bytes + self.local_allocator.free_bytes


class HostSegment:
    """One rank's host-side slice of the PGAS space (§3.2: "on the CPU
    side, users can allocate memory in the global address space
    manually using ``omp_alloc``").

    A numpy arena registered once with the conduit; a heap allocator
    subdivides it with the same symmetric-offset discipline as the
    device segments.  The arena is its own private anonymous mapping,
    not a heap block: its pages stay unbacked (and read as zero) until
    touched, whatever the process freed before, and are unmapped when
    the array dies.  ``MAP_PRIVATE`` keeps a forked child's writes out
    of its parent.
    """

    def __init__(self, node: int, size: int, allocator_kind: str = "linear", owner_rank: int = 0) -> None:
        import numpy as np

        self.node = node
        self.size = size
        self.owner_rank = owner_rank
        # The allocator rejects a non-positive size before anything is mapped.
        self.allocator = make_allocator(allocator_kind, size)
        self.arena = np.frombuffer(
            mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE), dtype=np.uint8
        )
        #: synthetic base address assigned at conduit registration
        self.base: Optional[int] = None
        self.conduit_segment = None

    def address_of(self, offset: int) -> int:
        if self.base is None:
            raise AllocationError("host segment not yet registered")
        if not 0 <= offset < self.size:
            raise AllocationError(
                f"offset {offset} outside host segment of {self.size} bytes"
            )
        return self.base + offset

    def memref(self, offset: int, nbytes: int) -> MemRef:
        return MemRef.host(self.node, self.arena, offset=offset, nbytes=nbytes)


class HostGlobalBuffer:
    """A symmetric host-side global allocation (``omp_alloc``)."""

    def __init__(self, rank: int, segment: HostSegment, offset: int, size: int) -> None:
        self.rank = rank
        self.segment = segment
        self.offset = offset
        self.size = size
        self.freed = False

    def memref(self, offset: int = 0, nbytes: int = -1) -> MemRef:
        if self.freed:
            raise AllocationError("use of a freed HostGlobalBuffer")
        if nbytes < 0:
            nbytes = self.size - offset
        if offset < 0 or offset + nbytes > self.size:
            raise AllocationError(
                f"range [{offset}, +{nbytes}) exceeds host buffer of {self.size}"
            )
        return self.segment.memref(self.offset + offset, nbytes)

    def typed(self, dtype, count: int = -1, offset: int = 0):
        import numpy as np

        dtype = np.dtype(dtype)
        if count == -1:
            count = (self.size - offset) // dtype.itemsize
        return self.memref(offset, count * dtype.itemsize).typed(dtype)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<HostGlobalBuffer rank={self.rank} off={self.offset} size={self.size}>"


class GlobalBuffer:
    """A symmetric global allocation (one rank's handle).

    All ranks hold the same ``(device_num, offset, size)``; ``local``
    is this rank's backing memory.  Offsets into the buffer combine
    with any rank's segment base for one-sided access.
    """

    def __init__(
        self,
        rank: int,
        device_num: int,
        offset: int,
        size: int,
        local: DeviceBuffer,
    ) -> None:
        self.rank = rank
        self.device_num = device_num
        self.offset = offset
        self.size = size
        self.local = local
        self.freed = False

    def memref(self, offset: int = 0, nbytes: int = -1) -> MemRef:
        """A MemRef over (part of) the local backing."""
        if self.freed:
            raise AllocationError("use of a freed GlobalBuffer")
        if nbytes < 0:
            nbytes = self.size - offset
        return MemRef.device(self.local, offset=offset, nbytes=nbytes)

    def typed(self, dtype, count: int = -1, offset: int = 0):
        """Typed numpy view of the local backing."""
        return self.local.as_array(dtype, count=count, offset=offset)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<GlobalBuffer rank={self.rank} dev={self.device_num} "
            f"off={self.offset} size={self.size}>"
        )
