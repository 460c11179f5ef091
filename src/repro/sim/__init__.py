"""Deterministic discrete-event simulation kernel.

This package is the execution substrate for the whole reproduction.  A
:class:`~repro.sim.core.Simulator` owns a virtual clock and an event
queue; *tasks* (one per simulated MPI rank, plus any number of helper
daemons) run as real threads under a cooperative scheduler that lets
exactly one thread execute at a time.  Wake-ups are ordered by
``(time, sequence)`` so runs are fully deterministic.

Data movement in the simulated cluster is *real* — numpy copies are
performed at the simulated completion time — so correctness tests can
assert on bytes while benchmarks read the virtual clock.

Public surface:

* :class:`Simulator`, :class:`Task` — kernel and task handles
* :class:`Future` — one-shot completion signal (the building block for
  network events, device events and stream completions)
* :class:`Channel`, :class:`Semaphore`, :class:`Lock`,
  :class:`Barrier` — blocking coordination primitives in virtual time

Telemetry (spans, metrics, exports) lives in :mod:`repro.obs`; the
components that emit into it keep their own counters as well.
"""

from repro.sim.core import Simulator, Task, TaskState
from repro.sim.sync import Future, Channel, Semaphore, Lock, Barrier

__all__ = [
    "Simulator",
    "Task",
    "TaskState",
    "Future",
    "Channel",
    "Semaphore",
    "Lock",
    "Barrier",
]
