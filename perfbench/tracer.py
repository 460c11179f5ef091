"""Layer spans recorded from outside the simulator.

The tracer wraps public entry points of each layer (``SPANS``) at class
or module level, so no file of the program changes.  Every call becomes
a span: name, thread, start, duration, self time, and the span that
caused it (its parent on the same thread).

A span's *self time* is its duration minus the time its child spans
cover and minus the intervals its task spent parked in the sim
kernel's ``Simulator._block``.  Without the second rule a blocked
``allreduce`` would be charged for the work every other rank did while
it waited.  Tasks run one at a time (the kernel hands control to
exactly one thread), so the shared accumulators below need no lock.

The two byte counters of :class:`ByteCounters` stay installed in
untraced runs too: they cost one call per allocation and report the
deterministic host segment and real device bytes on every run.
"""

from __future__ import annotations

import dataclasses
import importlib
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

#: (span name, module, attribute path) -- one row per layer entry point
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("cluster.world_build", "repro.cluster.world", "World.__init__"),
    ("core.runtime_init", "repro.core.runtime", "DiompRuntime.__init__"),
    ("core.alloc", "repro.core.runtime", "Diomp.alloc"),
    ("core.put", "repro.core.runtime", "Diomp.put"),
    ("core.fence", "repro.core.runtime", "Diomp.fence"),
    ("core.barrier", "repro.core.runtime", "Diomp.barrier"),
    ("core.allreduce", "repro.core.runtime", "Diomp.allreduce"),
    ("xccl.select", "repro.xccl.communicator", "XcclComm.select"),
    ("xccl.all_reduce", "repro.xccl.communicator", "XcclComm.all_reduce"),
    ("gasnet.put_nb", "repro.gasnet.conduit", "GasnetClient.put_nb"),
    ("gasnet.get_nb", "repro.gasnet.conduit", "GasnetClient.get_nb"),
    ("gpi2.put_nb", "repro.gpi2.gaspi", "Gpi2Client.put_nb"),
    ("gpi2.get_nb", "repro.gpi2.gaspi", "Gpi2Client.get_nb"),
    ("mpi.isend", "repro.mpi.comm", "Communicator.isend"),
    ("mpi.irecv", "repro.mpi.comm", "Communicator.irecv"),
    ("mpi.rma_put", "repro.mpi.rma", "Window.put"),
    ("mpi.rma_get", "repro.mpi.rma", "Window.get"),
    ("network.transfer", "repro.network.fabric", "Fabric.transfer"),
    ("device.launch", "repro.device.driver", "Device.launch"),
    ("device.local_copy", "repro.device.driver", "Device.local_copy"),
    ("device.copy_exec", "repro.device.memory", "DeviceBuffer.copy_within_device"),
    ("plan.optimize", "repro.plan.passes", "optimize_plan"),
    ("plan.verify", "repro.plan.verify", "verify_plan"),
    ("plan.lower", "repro.plan.lower", "lower_plan"),
    ("obs.slo_eval", "repro.obs.slo", "SloTracker.evaluate"),
)

#: kernel host functions run inside stream-completion callbacks, not
#: inside ``Device.launch``; the launch wrapper re-binds them to this span
KERNEL_SPAN = "device.kernel_exec"

#: every span name the tracer can report, in table order
SPAN_NAMES: Tuple[str, ...] = tuple(name for name, _m, _a in SPANS) + (KERNEL_SPAN,)


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class _Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class ByteCounters:
    """Host-segment and real device bytes reserved by the program."""

    def __init__(self) -> None:
        self.host_segment_bytes = 0
        self.device_real_bytes = 0
        self._patches = _Patches()

    def install(self) -> None:
        from repro.core.globalmem import HostSegment
        from repro.device.memory import DeviceMemorySpace

        counters = self

        def host_segment(init):
            def __init__(seg, *args, **kwargs):
                init(seg, *args, **kwargs)
                counters.host_segment_bytes += seg.arena.nbytes

            return __init__

        def device_alloc(alloc):
            def allocate(space, *args, **kwargs):
                buf = alloc(space, *args, **kwargs)
                if not buf.is_virtual:
                    counters.device_real_bytes += buf.size
                return buf

            return allocate

        self._patches.replace(HostSegment, "__init__", host_segment)
        self._patches.replace(DeviceMemorySpace, "allocate", device_alloc)
        self._patches.replace(DeviceMemorySpace, "allocate_at", device_alloc)

    def restore(self) -> None:
        self._patches.restore()

    def snapshot(self) -> Dict[str, int]:
        return {
            "host_segment_bytes": self.host_segment_bytes,
            "device_real_bytes": self.device_real_bytes,
        }


class Tracer:
    """Span recorder over the layer entry points in :data:`SPANS`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._patches = _Patches()
        self._ids = 0
        #: completed spans: (name, thread, start, duration, self, id, parent)
        self.spans: List[Tuple[str, str, float, float, float, int, int]] = []
        #: span name -> [calls, self seconds]
        self.totals: Dict[str, List[float]] = {name: [0, 0.0] for name in SPAN_NAMES}
        self.network_bytes = 0
        self.metric_writes = 0
        self.threads_started = 0
        #: host seconds task threads spent running (not parked)
        self.task_run_s = 0.0

    # -- per-thread state -------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.parked = 0.0
            local.run_start = perf_counter()
        return local

    # -- span wrapper -------------------------------------------------------

    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        def traced(*args, **kwargs):
            local = tracer._state()
            tracer._ids += 1
            span_id = tracer._ids
            parent = local.stack[-1][3] if local.stack else 0
            # frame: [child time, parked at entry, start, id]
            frame = [0.0, local.parked, perf_counter(), span_id]
            local.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                local.stack.pop()
                duration = end - frame[2]
                net = duration - (local.parked - frame[1])
                self_s = net - frame[0]
                if local.stack:
                    local.stack[-1][0] += net
                total = tracer.totals[name]
                total[0] += 1
                total[1] += self_s
                tracer.spans.append(
                    (name, threading.current_thread().name, frame[2], duration,
                     self_s, span_id, parent)
                )

        return traced

    # -- install / restore -------------------------------------------------------

    def install(self) -> None:
        from repro.device.driver import Device
        from repro.network.fabric import Fabric
        from repro.obs.metrics import MetricsRegistry
        from repro.sim.core import Simulator, Task

        tracer = self
        for name, module, path in SPANS:
            owner, attr = _resolve(module, path)
            self._patches.replace(owner, attr, lambda fn, name=name: tracer.span(name, fn))

        def count_bytes(transfer):
            def counted(fabric, src, dst, nbytes, *args, **kwargs):
                tracer.network_bytes += nbytes
                return transfer(fabric, src, dst, nbytes, *args, **kwargs)

            return counted

        def kernel_span(launch):
            def launch_traced(device, kernel, *args, **kwargs):
                if kernel.host_fn is not None:
                    kernel = dataclasses.replace(
                        kernel, host_fn=tracer.span(KERNEL_SPAN, kernel.host_fn)
                    )
                return launch(device, kernel, *args, **kwargs)

            return launch_traced

        def parked(block):
            def block_traced(sim, reason):
                local = tracer._state()
                t0 = perf_counter()
                tracer.task_run_s += t0 - local.run_start
                try:
                    return block(sim, reason)
                finally:
                    t1 = perf_counter()
                    local.parked += t1 - t0
                    local.run_start = t1

            return block_traced

        def task_body(spawn):
            def spawn_traced(sim, fn, *args, name="", **kwargs):
                def body(*a, **k):
                    local = tracer._state()
                    local.run_start = perf_counter()
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer.task_run_s += perf_counter() - local.run_start

                return spawn(sim, body, *args, name=name, **kwargs)

            return spawn_traced

        def thread_count(start):
            def start_counted(task):
                tracer.threads_started += 1
                return start(task)

            return start_counted

        def write_hook(init):
            def init_hooked(registry, *args, **kwargs):
                init(registry, *args, **kwargs)
                registry.add_write_hook(tracer._count_write)

            return init_hooked

        self._patches.replace(Fabric, "transfer", count_bytes)
        self._patches.replace(Device, "launch", kernel_span)
        self._patches.replace(Simulator, "_block", parked)
        self._patches.replace(Simulator, "spawn", task_body)
        self._patches.replace(Task, "_start_thread", thread_count)
        self._patches.replace(MetricsRegistry, "__init__", write_hook)

    def _count_write(self, _metric, _value, _labels) -> None:
        self.metric_writes += 1

    def restore(self) -> None:
        self._patches.restore()

    # -- results -----------------------------------------------------------------

    def self_seconds(self) -> float:
        """Sum of every span's self time."""
        return sum(total[1] for total in self.totals.values())

    def chrome_events(self, pid: int) -> List[Dict[str, Any]]:
        """The recorded spans as Chrome trace ``X`` events."""
        return [
            {
                "name": name,
                "ph": "X",
                "pid": pid,
                "tid": thread,
                "ts": start * 1e6,
                "dur": duration * 1e6,
                "args": {"self_us": self_s * 1e6, "id": span_id, "parent": parent},
            }
            for name, thread, start, duration, self_s, span_id, parent in self.spans
        ]
