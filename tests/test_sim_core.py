"""Tests for the discrete-event simulation kernel."""

import time

import pytest

from repro.sim import Simulator, TaskState, core
from repro.util.errors import DeadlockError, SimulationError


class TestClockAndSleep:
    def test_empty_run_keeps_time_zero(self):
        sim = Simulator()
        assert sim.run() == 0.0

    def test_single_sleep_advances_clock(self):
        sim = Simulator()
        times = []

        def prog():
            sim.sleep(1.5)
            times.append(sim.now)

        sim.spawn(prog)
        sim.run()
        assert times == [1.5]
        assert sim.now == 1.5

    def test_sleeps_accumulate(self):
        sim = Simulator()

        def prog():
            for _ in range(4):
                sim.sleep(0.25)

        sim.spawn(prog)
        assert sim.run() == 1.0

    def test_zero_sleep_allowed(self):
        sim = Simulator()
        sim.spawn(lambda: sim.sleep(0.0))
        assert sim.run() == 0.0

    def test_negative_sleep_rejected(self):
        sim = Simulator()

        def prog():
            sim.sleep(-1.0)

        sim.spawn(prog)
        with pytest.raises(SimulationError):
            sim.run()


class TestInterleaving:
    def test_two_tasks_interleave_by_time(self):
        sim = Simulator()
        order = []

        def a():
            sim.sleep(1.0)
            order.append(("a", sim.now))
            sim.sleep(2.0)
            order.append(("a", sim.now))

        def b():
            sim.sleep(2.0)
            order.append(("b", sim.now))

        sim.spawn(a, name="a")
        sim.spawn(b, name="b")
        sim.run()
        assert order == [("a", 1.0), ("b", 2.0), ("a", 3.0)]

    def test_same_time_events_run_in_spawn_order(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.spawn(lambda i=i: order.append(i), name=f"t{i}")
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_determinism_across_runs(self):
        def build():
            sim = Simulator()
            log = []

            def worker(i):
                sim.sleep(0.1 * (i % 3))
                log.append(i)
                sim.sleep(0.05)
                log.append(10 + i)

            for i in range(8):
                sim.spawn(worker, i, name=f"w{i}")
            sim.run()
            return log

        assert build() == build()


class TestSpawnAndJoin:
    def test_result_available_after_run(self):
        sim = Simulator()
        t = sim.spawn(lambda: 42)
        sim.run()
        assert t.state is TaskState.DONE
        assert t.result == 42

    def test_join_returns_result(self):
        sim = Simulator()
        got = []

        def child():
            sim.sleep(1.0)
            return "payload"

        def parent():
            t = sim.spawn(child, name="child")
            got.append(t.join())
            got.append(sim.now)

        sim.spawn(parent, name="parent")
        sim.run()
        assert got == ["payload", 1.0]

    def test_join_finished_task_returns_immediately(self):
        sim = Simulator()
        results = []

        def parent():
            t = sim.spawn(lambda: 7, name="quick")
            sim.sleep(5.0)  # child completes long before
            results.append(t.join())

        sim.spawn(parent)
        sim.run()
        assert results == [7]

    def test_nested_spawns(self):
        sim = Simulator()
        seen = []

        def leaf(i):
            sim.sleep(0.1)
            seen.append(i)

        def mid():
            kids = [sim.spawn(leaf, i) for i in range(3)]
            for k in kids:
                k.join()

        sim.spawn(mid)
        sim.run()
        assert sorted(seen) == [0, 1, 2]


class TestCallLater:
    def test_callback_fires_at_time(self):
        sim = Simulator()
        fired = []
        sim.call_later(2.0, lambda: fired.append(sim.now))
        sim.spawn(lambda: sim.sleep(3.0))
        sim.run()
        assert fired == [2.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_later(-0.5, lambda: None)


class TestErrors:
    def test_task_exception_propagates(self):
        sim = Simulator()

        def bad():
            raise ValueError("boom")

        sim.spawn(bad)
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_failure_kills_other_tasks(self):
        sim = Simulator()

        def sleeper():
            sim.sleep(100.0)

        def bad():
            sim.sleep(1.0)
            raise RuntimeError("abort")

        t = sim.spawn(sleeper)
        sim.spawn(bad)
        with pytest.raises(RuntimeError):
            sim.run()
        assert t.state is TaskState.KILLED

    def test_deadlock_detected(self):
        from repro.sim import Future

        sim = Simulator()

        def stuck():
            Future(sim, description="never").wait()

        sim.spawn(stuck, name="stuck")
        with pytest.raises(DeadlockError, match="stuck"):
            sim.run()

    def test_blocking_outside_task_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.sleep(1.0)

    def test_closed_simulator_rejects_spawn(self):
        sim = Simulator()
        sim.run()
        with pytest.raises(SimulationError):
            sim.spawn(lambda: None)


class TestBoundedRun:
    def test_run_until_pauses_and_resumes(self):
        sim = Simulator()
        marks = []

        def prog():
            sim.sleep(1.0)
            marks.append(sim.now)
            sim.sleep(1.0)
            marks.append(sim.now)

        sim.spawn(prog)
        sim.run(until=1.5)
        assert marks == [1.0]
        assert sim.now == 1.5
        sim.run()
        assert marks == [1.0, 2.0]

    def test_close_after_bounded_run(self):
        sim = Simulator()
        sim.spawn(lambda: sim.sleep(10.0))
        sim.run(until=1.0)
        sim.close()  # must not hang or raise

    def test_context_manager_closes(self):
        with Simulator() as sim:
            sim.spawn(lambda: sim.sleep(10.0))
            sim.run(until=1.0)
        # leaving the with-block kills the sleeper without error


class TestTeardown:
    def test_killed_finally_blocks_run_in_spawn_order_without_overlap(self):
        # Regression: close() used to wake every blocked task at once,
        # so their unwinds ran concurrently on shared state.
        sim = Simulator()
        log, active, overlap = [], [0], []

        def prog(i):
            try:
                sim.sleep(10.0)
            finally:
                active[0] += 1
                overlap.append(active[0])
                log.append(("enter", i))
                time.sleep(0.002)  # widen any race window
                log.append(("exit", i))
                active[0] -= 1

        tasks = [sim.spawn(prog, i, name=f"t{i}") for i in (3, 0, 2, 1)]
        sim.run(until=1.0)
        sim.close()
        order = [i for step, i in log if step == "enter"]
        assert order == [3, 0, 2, 1]  # spawn order, not name order
        assert log == [(step, i) for i in order for step in ("enter", "exit")]
        assert max(overlap) == 1
        assert all(t.state is TaskState.KILLED for t in tasks)
        assert not any(t._thread.is_alive() for t in tasks)

    def test_close_from_inside_a_task_raises(self):
        sim = Simulator()
        caught = []

        def prog():
            try:
                sim.close()
            except SimulationError as exc:
                caught.append(str(exc))

        sim.spawn(prog, name="closer")
        sim.run()
        assert len(caught) == 1 and "closer" in caught[0]
        assert sim.closed

    def test_killed_task_cannot_block_again_while_unwinding(self):
        sim = Simulator()
        reached = []

        def prog():
            try:
                sim.sleep(10.0)
            finally:
                reached.append("finally")
                sim.sleep(1.0)  # nothing could ever resume this
                reached.append("after")  # pragma: no cover

        task = sim.spawn(prog)
        sim.run(until=1.0)
        sim.close()
        assert reached == ["finally"]
        assert task.state is TaskState.KILLED
        assert not task._thread.is_alive()

    def test_slow_unwind_raises_instead_of_hanging(self, monkeypatch):
        monkeypatch.setattr(core, "CLOSE_TIMEOUT_S", 0.05)
        sim = Simulator()

        def prog():
            try:
                sim.sleep(10.0)
            finally:
                time.sleep(0.5)

        task = sim.spawn(prog, name="slowpoke")
        sim.run(until=1.0)
        with pytest.raises(SimulationError, match="slowpoke"):
            sim.close()
        task._thread.join(timeout=5.0)
        assert not task._thread.is_alive()


class TestJoinErrorPropagation:
    def test_join_raises_child_error_in_joiner(self):
        # Regression: join() on a task that fails *later* used to
        # return None; the error now propagates to the joiner.
        sim = Simulator()
        caught = []

        def child():
            sim.sleep(1.0)
            raise ValueError("boom")

        def parent():
            task = sim.spawn(child, name="child")
            try:
                task.join()
            except ValueError as exc:
                caught.append((sim.now, str(exc)))

        sim.spawn(parent, name="parent")
        sim.run()  # handled in the joiner: the run completes normally
        assert caught == [(1.0, "boom")]

    def test_unhandled_join_error_fails_joiner_too(self):
        sim = Simulator()

        def child():
            raise ValueError("boom")

        def parent():
            sim.spawn(child).join()  # no except: re-raised here

        sim.spawn(parent)
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_join_already_failed_task_raises(self):
        sim = Simulator()
        caught = []

        def child():
            sim.sleep(1.0)
            raise ValueError("boom")

        def supervisor(task):
            try:
                task.join()
            except ValueError:
                caught.append("supervisor")

        def late_joiner(task):
            sim.sleep(2.0)  # well after the failure
            try:
                task.join()
            except ValueError:
                caught.append("late")

        def root():
            task = sim.spawn(child)
            sim.spawn(supervisor, task)
            sim.spawn(late_joiner, task)

        sim.spawn(root)
        sim.run()
        assert sorted(caught) == ["late", "supervisor"]

    def test_unsupervised_failure_still_aborts_run(self):
        sim = Simulator()
        sim.spawn(lambda: (_ for _ in ()).throw(ValueError("boom")))
        with pytest.raises(ValueError, match="boom"):
            sim.run()


class TestKill:
    def test_kill_unblocks_joiners(self):
        # Regression: join-waiters of a killed task never fired.
        sim = Simulator()
        caught = []

        def victim():
            sim.sleep(100.0)

        def root():
            task = sim.spawn(victim, name="victim")

            def joiner():
                try:
                    task.join()
                except SimulationError as exc:
                    caught.append((sim.now, str(exc)))

            sim.spawn(joiner)
            sim.sleep(1.0)
            task.kill()

        sim.spawn(root)
        sim.run()
        assert len(caught) == 1
        when, message = caught[0]
        assert when == 1.0
        assert "killed" in message

    def test_kill_unblocks_joiner_in_bounded_run(self):
        # The bounded-session variant of the hang: run(until=) used to
        # park the joiner forever with no deadlock detection to save it.
        sim = Simulator()
        done = []

        def victim():
            sim.sleep(100.0)

        def root():
            task = sim.spawn(victim)

            def joiner():
                try:
                    task.join()
                except SimulationError:
                    done.append(sim.now)

            sim.spawn(joiner)
            sim.sleep(1.0)
            task.kill()

        sim.spawn(root)
        sim.run(until=5.0)
        assert done == [1.0]
        sim.close()

    def test_kill_unstarted_task_never_runs(self):
        sim = Simulator()
        ran = []
        task = sim.spawn(lambda: ran.append(1))
        task.kill()
        assert task.state is TaskState.KILLED
        assert task._thread is None  # never needed a thread
        sim.run()
        assert ran == []

    def test_kill_finished_task_is_noop(self):
        sim = Simulator()
        task = sim.spawn(lambda: 42)
        sim.run()
        task.kill()
        assert task.state is TaskState.DONE
        assert task.result == 42

    def test_self_kill_rejected(self):
        sim = Simulator()

        def prog():
            task.kill()

        task = sim.spawn(prog)
        with pytest.raises(SimulationError):
            sim.run()


class TestLazyThreads:
    def test_threads_start_only_on_first_resume(self):
        sim = Simulator()
        tasks = [sim.spawn(sim.sleep, 1.0) for _ in range(4)]
        assert all(t._thread is None for t in tasks)
        sim.run()
        assert all(t.state is TaskState.DONE for t in tasks)

    def test_close_reaps_unstarted_tasks_without_threads(self):
        import threading

        sim = Simulator()
        before = threading.active_count()
        tasks = [sim.spawn(sim.sleep, 1.0) for _ in range(8)]
        assert threading.active_count() == before  # spawn is thread-free
        sim.close()
        assert threading.active_count() == before
        assert all(t.state is TaskState.KILLED for t in tasks)
        assert all(t._thread is None for t in tasks)


class TestSchedulerScaling:
    def test_512_tasks_wall_bound(self):
        # Smoke test for the calendar-queue scheduler: 512 tasks
        # stepping in lockstep (every resume lands in a shared
        # same-timestamp bucket) must stay comfortably interactive.
        import time

        sim = Simulator()
        done = []

        def worker(i):
            for _ in range(4):
                sim.sleep(1.0)
            done.append(i)

        t0 = time.perf_counter()
        for i in range(512):
            sim.spawn(worker, i)
        sim.run()
        assert time.perf_counter() - t0 < 30.0
        assert len(done) == 512
        assert done == sorted(done)  # batched resumes keep spawn order
        assert sim.now == 4.0
