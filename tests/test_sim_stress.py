"""Stress and property tests for the simulation kernel."""

import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Barrier, Channel, Future, Lock, Semaphore, Simulator
from repro.util.errors import DeadlockError


class TestSchedulerStress:
    def test_hundred_tasks_with_random_sleeps_deterministic(self):
        def run(seed):
            sim = Simulator()
            rng = np.random.default_rng(seed)
            order = []

            def worker(i, delays):
                for d in delays:
                    sim.sleep(float(d))
                order.append(i)

            for i in range(100):
                sim.spawn(worker, i, rng.uniform(0, 1e-3, size=3), name=f"w{i}")
            sim.run()
            return order

        assert run(7) == run(7)

    def test_deep_spawn_chain(self):
        sim = Simulator()
        hits = []

        def chain(depth):
            hits.append(depth)
            if depth < 50:
                sim.spawn(chain, depth + 1, name=f"c{depth+1}").join()

        sim.spawn(chain, 0, name="c0")
        sim.run()
        assert hits == list(range(51))

    def test_producer_consumer_pipeline(self):
        """Three-stage pipeline over channels carries every item in
        order and terminates cleanly."""
        sim = Simulator()
        a, b = Channel(sim, capacity=4), Channel(sim, capacity=4)
        sink = []

        def producer():
            for i in range(50):
                sim.sleep(1e-5)
                a.put(i)
            a.put(None)

        def transform():
            while True:
                item = a.get()
                if item is None:
                    b.put(None)
                    return
                sim.sleep(2e-5)  # slower stage: back-pressure builds
                b.put(item * 2)

        def consumer():
            while True:
                item = b.get()
                if item is None:
                    return
                sink.append(item)

        sim.spawn(producer)
        sim.spawn(transform)
        sim.spawn(consumer)
        sim.run()
        assert sink == [2 * i for i in range(50)]

    def test_mixed_primitive_storm_no_deadlock(self):
        """Locks, semaphores and barriers interleaved across 16 tasks
        complete without deadlock, and the critical sections exclude."""
        sim = Simulator()
        lock = Lock(sim)
        sem = Semaphore(sim, 3)
        bar = Barrier(sim, 16)
        in_crit = []
        max_crit = []

        def worker(i):
            sim.sleep(1e-6 * (i % 5))
            sem.acquire()
            with lock:
                in_crit.append(i)
                max_crit.append(len(in_crit))
                sim.sleep(1e-6)
                in_crit.remove(i)
            sem.release()
            bar.wait()

        for i in range(16):
            sim.spawn(worker, i)
        sim.run()
        assert max(max_crit) == 1

    @given(
        n_tasks=st.integers(2, 12),
        n_rounds=st.integers(1, 6),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_barrier_rounds_never_mix(self, n_tasks, n_rounds):
        sim = Simulator()
        bar = Barrier(sim, n_tasks)
        log = []

        def worker(i):
            for phase in range(n_rounds):
                sim.sleep(1e-6 * ((i * 7 + phase * 3) % 5))
                bar.wait()
                log.append(phase)

        for i in range(n_tasks):
            sim.spawn(worker, i)
        sim.run()
        assert log == sorted(log)

    def test_deadlock_message_names_all_blocked_tasks(self):
        sim = Simulator()
        ch = Channel(sim, name="stuckchan")

        def waiter(i):
            ch.get()

        sim.spawn(waiter, 0, name="alpha")
        sim.spawn(waiter, 1, name="beta")
        with pytest.raises(DeadlockError) as err:
            sim.run()
        assert "alpha" in str(err.value) and "beta" in str(err.value)

    def test_futures_fired_from_nested_callbacks(self):
        """call_later callbacks may fire futures that wake tasks that
        schedule more callbacks — the event loop must stay consistent."""
        sim = Simulator()
        hops = []

        def relay(depth):
            if depth >= 10:
                return
            fut = Future(sim, description=f"hop{depth}")
            sim.call_later(1e-6, lambda: fut.fire(depth))
            hops.append(fut.wait())
            relay(depth + 1)

        sim.spawn(relay, 0)
        sim.run()
        assert hops == list(range(10))
        assert sim.now == pytest.approx(10e-6)

    def test_many_simulators_sequentially_no_thread_leak(self):
        import threading

        baseline = threading.active_count()
        for _ in range(30):
            sim = Simulator()
            sim.spawn(lambda: sim.sleep(1e-6))
            sim.run()
        # All task threads joined at close().
        assert threading.active_count() <= baseline + 2


class TestHandoffUnderPreemption:
    """The lock handoff with more threads than cores and a tiny GIL
    switch interval: the interpreter preempts constantly, yet only one
    party may ever run and the resume order must not change."""

    N_TASKS = 64
    ROUNDS = 12

    def _run(self):
        sim = Simulator()
        bar = Barrier(sim, self.N_TASKS)
        rng = np.random.default_rng(3)
        delays = rng.choice([0.0, 1e-6, 2e-6], size=(self.N_TASKS, self.ROUNDS))
        running = [0]
        peak = [0]
        trace = []

        def enter():
            # Read-modify-write spread over several bytecodes, so a
            # second runnable thread would interleave with it.
            n = running[0] + 1
            running[0] = n
            peak[0] = max(peak[0], n)

        def leave():
            running[0] -= 1

        def tick():
            enter()
            leave()

        def worker(i):
            name = sim.current_task.name
            for r in range(self.ROUNDS):
                enter()
                trace.append((sim.now, name))
                if r % 4 == 3:
                    sim.call_later(1e-6, tick)
                leave()
                sim.sleep(float(delays[i, r]))
                if r % 6 == 5:
                    bar.wait()

        for i in range(self.N_TASKS):
            sim.spawn(worker, i, name=f"w{i}")
        sim.run()
        return trace, peak[0]

    def test_one_runner_and_identical_resume_trace(self):
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t0 = time.perf_counter()
            first, peak1 = self._run()
            second, peak2 = self._run()
            elapsed = time.perf_counter() - t0
        finally:
            sys.setswitchinterval(old)
        assert peak1 == peak2 == 1
        assert len(first) == self.N_TASKS * self.ROUNDS
        assert first == second
        assert elapsed < 60.0
