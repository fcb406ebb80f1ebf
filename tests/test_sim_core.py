"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.common.errors import SimulationError
from helpers import any_of
from repro.sim import Interrupt, Simulator, all_of
from repro.sim.core import Process


@pytest.fixture()
def sim():
    return Simulator()


class TestScheduling:
    def test_time_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_same_time_events_fire_in_schedule_order(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(1.0, lambda i=i: fired.append(i))
        sim.run()
        assert fired == list(range(10))

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        sim.cancel(handle)
        sim.run()
        assert fired == []

    def test_run_until_stops_clock(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append(1))
        sim.run(until=2.0)
        assert sim.now == 2.0
        assert fired == []
        sim.run()
        assert fired == [1]

    def test_run_until_with_empty_queue_advances_clock(self, sim):
        sim.run(until=42.0)
        assert sim.now == 42.0

    @pytest.mark.parametrize("pending", [False, True])
    def test_run_until_in_the_past_rejected(self, sim, pending):
        """Time never moves backwards, whether or not anything is queued."""
        sim.run(until=2.0)
        if pending:
            sim.schedule(5.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)
        assert sim.now == 2.0
        sim.run(until=2.0)  # the present is not the past
        assert sim.now == 2.0

    def test_nested_scheduling(self, sim):
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(1.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 2.0)]

    def test_max_events_backstop(self, sim):
        def forever():
            sim.call_soon(forever)

        sim.call_soon(forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_max_events_counts_only_what_the_run_would_execute(self, sim):
        fired = []
        for i in range(5):
            sim.schedule(1.0 + i, lambda i=i: fired.append(i))
        sim.cancel(sim.schedule(3.5, lambda: fired.append("dead")))
        sim.run(until=3.0, max_events=3)  # exactly three are due: no error
        assert fired == [0, 1, 2] and sim.now == 3.0
        with pytest.raises(SimulationError):
            sim.run(max_events=1)
        assert fired == [0, 1, 2, 3]
        sim.run(max_events=1)  # one live event left behind the dead one
        assert fired == [0, 1, 2, 3, 4]


class TestFuture:
    def test_set_result_and_value(self, sim):
        fut = sim.future()
        assert not fut.done
        fut.set_result(42)
        assert fut.done
        assert fut.value == 42

    def test_value_before_done_raises(self, sim):
        fut = sim.future()
        with pytest.raises(SimulationError):
            _ = fut.value

    def test_double_resolve_rejected(self, sim):
        fut = sim.future()
        fut.set_result(1)
        with pytest.raises(SimulationError):
            fut.set_result(2)

    def test_exception_propagates_via_value(self, sim):
        fut = sim.future()
        fut.set_exception(ValueError("boom"))
        with pytest.raises(ValueError):
            _ = fut.value

    def test_callback_after_done_runs_immediately(self, sim):
        fut = sim.future()
        fut.set_result("x")
        seen = []
        fut.add_callback(lambda f: seen.append(f.value))
        assert seen == ["x"]

    def test_timeout_resolves_at_deadline(self, sim):
        fut = sim.timeout(1.5, value="done")
        sim.run()
        assert sim.now == 1.5
        assert fut.value == "done"


class TestProcess:
    def test_process_returns_generator_value(self, sim):
        def body():
            yield sim.timeout(1.0)
            return "result"

        proc = sim.process(body())
        result = sim.run_until_complete(proc)
        assert result == "result"
        assert sim.now == 1.0

    def test_yield_number_is_timeout(self, sim):
        def body():
            yield 2.5
            return sim.now

        assert sim.run_until_complete(sim.process(body())) == 2.5

    def test_yield_future_receives_value(self, sim):
        fut = sim.future()

        def resolver():
            yield 1.0
            fut.set_result("hello")

        def waiter():
            value = yield fut
            return value

        sim.process(resolver())
        assert sim.run_until_complete(sim.process(waiter())) == "hello"

    def test_process_waits_on_process(self, sim):
        def child():
            yield 3.0
            return 7

        def parent():
            value = yield sim.process(child())
            return value * 2

        assert sim.run_until_complete(sim.process(parent())) == 14

    def test_exception_in_process_propagates(self, sim):
        def body():
            yield 1.0
            raise RuntimeError("broken")

        proc = sim.process(body())
        with pytest.raises(RuntimeError):
            sim.run_until_complete(proc)

    def test_exception_from_awaited_future_thrown_into_process(self, sim):
        fut = sim.future()

        def resolver():
            yield 1.0
            fut.set_exception(KeyError("missing"))

        def body():
            try:
                yield fut
            except KeyError:
                return "caught"
            return "not caught"

        sim.process(resolver())
        assert sim.run_until_complete(sim.process(body())) == "caught"

    def test_interrupt_wakes_process(self, sim):
        def body():
            try:
                yield 100.0
            except Interrupt as intr:
                return ("interrupted", intr.cause, sim.now)

        proc = sim.process(body())
        sim.schedule(2.0, lambda: proc.interrupt("stop"))
        assert sim.run_until_complete(proc) == ("interrupted", "stop", 2.0)

    def test_unhandled_interrupt_fails_process(self, sim):
        def body():
            yield 100.0

        proc = sim.process(body())
        sim.schedule(1.0, lambda: proc.interrupt())
        with pytest.raises(Interrupt):
            sim.run_until_complete(proc)

    def test_interrupt_after_done_is_noop(self, sim):
        def body():
            yield 1.0
            return "ok"

        proc = sim.process(body())
        result = sim.run_until_complete(proc)
        proc.interrupt()
        assert result == "ok"

    def test_deadlock_detected(self, sim):
        fut = sim.future()

        def body():
            yield fut

        proc = sim.process(body())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(proc)

    def test_run_until_complete_timeout(self, sim):
        def ticker():
            while True:
                yield 1.0

        sim.process(ticker())
        fut = sim.future()
        with pytest.raises(SimulationError, match="timed out"):
            sim.run_until_complete(fut, timeout=10.0)

    def test_two_processes_interleave(self, sim):
        log = []

        def worker(name, period):
            for _ in range(3):
                yield period
                log.append((name, sim.now))

        first = sim.process(worker("a", 1.0))
        second = sim.process(worker("b", 1.5))
        sim.run_until_complete(all_of(sim, [first, second]))
        # At t=3.0 both wake; b's timeout was scheduled first (at t=1.5),
        # so deterministic tie-breaking fires it first.
        assert log == [
            ("a", 1.0),
            ("b", 1.5),
            ("a", 2.0),
            ("b", 3.0),
            ("a", 3.0),
            ("b", 4.5),
        ]


class TestMicrotaskOrdering:
    """call_soon / schedule(0) bypass the heap but must keep global
    (time, seq) ordering relative to heap events."""

    def test_call_soon_interleaves_with_same_time_heap_events(self, sim):
        fired = []
        sim.schedule(0.5, lambda: fired.append("later"))
        sim.call_soon(lambda: fired.append("soon-1"))
        sim.schedule(0.0, lambda: fired.append("zero-1"))
        sim.call_soon(lambda: fired.append("soon-2"))
        sim.run()
        assert fired == ["soon-1", "zero-1", "soon-2", "later"]

    def test_microtask_runs_before_future_heap_event(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append("heap"))
        sim.call_soon(lambda: fired.append("micro"))
        sim.run()
        assert fired == ["micro", "heap"]
        assert sim.now == 1.0

    def test_heap_event_at_current_time_with_lower_seq_precedes_microtask(self, sim):
        fired = []

        def at_one():
            sim.schedule(0.0, lambda: fired.append("zero-a"))  # lower seq
            sim.call_soon(lambda: fired.append("soon-b"))
            sim.schedule(0.0, lambda: fired.append("zero-c"))

        sim.schedule(1.0, at_one)
        sim.run()
        assert fired == ["zero-a", "soon-b", "zero-c"]

    def test_nested_microtasks_run_fifo(self, sim):
        fired = []

        def outer():
            fired.append("outer")
            sim.call_soon(lambda: fired.append("inner"))

        sim.call_soon(outer)
        sim.call_soon(lambda: fired.append("sibling"))
        sim.run()
        assert fired == ["outer", "sibling", "inner"]

    def test_cancelled_microtask_does_not_fire(self, sim):
        fired = []
        handle = sim.call_soon(lambda: fired.append("cancelled"))
        sim.call_soon(lambda: fired.append("kept"))
        sim.cancel(handle)
        sim.run()
        assert fired == ["kept"]

    def test_microtasks_do_not_advance_clock(self, sim):
        seen = []
        sim.schedule(2.0, lambda: sim.call_soon(lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [2.0]
        assert sim.now == 2.0


class TestTimeoutFastPath:
    """`yield <number>` schedules the resume directly on the heap."""

    def test_yield_zero_runs_after_pending_same_time_events(self, sim):
        fired = []

        def body():
            yield 0
            fired.append("process")

        sim.process(body())
        sim.call_soon(lambda: fired.append("soon"))
        sim.run()
        assert fired == ["soon", "process"]

    def test_yield_negative_raises(self, sim):
        def body():
            yield -1.0

        sim.process(body())
        with pytest.raises(SimulationError, match="past"):
            sim.run()

    def test_yield_bool_is_a_one_second_timeout(self, sim):
        def body():
            yield True
            return sim.now

        assert sim.run_until_complete(sim.process(body())) == 1.0

    def test_fast_path_events_are_exactly_the_timers(self, sim):
        def body():
            for _ in range(5):
                yield 0.1

        proc = sim.process(body())
        sim.run()
        assert proc.done
        assert sim.stats.events_executed == 5  # one per timer, nothing else
        assert sim.stats.microtasks_executed == 1  # the process start

    def test_interrupt_cancels_fast_timer_but_clock_still_advances(self, sim):
        def body():
            try:
                yield 100.0
            except Interrupt:
                return "stopped"

        proc = sim.process(body())
        sim.schedule(1.0, lambda: proc.interrupt())
        assert sim.run_until_complete(proc) == "stopped"
        assert sim.now == 1.0
        # The orphaned timer still advances the clock to its deadline when
        # the loop drains — identical to the pre-fast-path kernel, where
        # the orphaned timeout future's event fired as a no-op.
        sim.run()
        assert sim.now == 100.0

    def test_interrupted_process_can_wait_again(self, sim):
        def body():
            try:
                yield 50.0
            except Interrupt:
                pass
            yield 1.0
            return sim.now

        proc = sim.process(body())
        sim.schedule(2.0, lambda: proc.interrupt())
        assert sim.run_until_complete(proc) == 3.0


class TestInterruptFutureRace:
    """A same-tick race between interrupt() and the awaited future's
    resolution must deliver exactly one wakeup (the _waiting_on guard)."""

    def test_interrupt_then_same_tick_resolution_delivers_interrupt(self, sim):
        fut = sim.future()
        outcomes = []

        def body():
            try:
                value = yield fut
                outcomes.append(("value", value))
            except Interrupt as intr:
                outcomes.append(("interrupt", intr.cause))
            # The process must still be able to wait afterwards.
            yield 0.5
            outcomes.append(("after", sim.now))

        proc = sim.process(body())
        # Same tick, interrupt scheduled first: the wait is cancelled, the
        # future's resolution must be dropped by the guard.
        sim.schedule(1.0, lambda: proc.interrupt("boom"))
        sim.schedule(1.0, lambda: fut.set_result("late"))
        sim.run_until_complete(proc)
        assert outcomes == [("interrupt", "boom"), ("after", 1.5)]
        assert fut.done and fut.value == "late"

    def test_resolution_then_same_tick_interrupt_delivers_value_then_interrupt(
        self, sim
    ):
        fut = sim.future()
        outcomes = []

        def body():
            value = yield fut
            outcomes.append(("value", value))
            try:
                yield 10.0
            except Interrupt as intr:
                outcomes.append(("interrupt", intr.cause))

        proc = sim.process(body())
        sim.schedule(1.0, lambda: fut.set_result("first"))
        sim.schedule(1.0, lambda: proc.interrupt("second"))
        sim.run_until_complete(proc)
        assert outcomes == [("value", "first"), ("interrupt", "second")]
        assert sim.now == 1.0

    def test_interrupt_before_resolution_tick_only_interrupts(self, sim):
        fut = sim.future()
        outcomes = []

        def body():
            try:
                yield fut
            except Interrupt:
                outcomes.append("interrupted")
                return
            outcomes.append("resumed")

        proc = sim.process(body())
        sim.schedule(1.0, lambda: proc.interrupt())
        sim.schedule(2.0, lambda: fut.set_result(None))
        sim.run()
        assert outcomes == ["interrupted"]
        assert proc.done


class TestCallbackSlot:
    """``SimFuture._callbacks`` is None, the one callable, or a list from
    the second registration on; a waiting process registers itself."""

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 7])
    @pytest.mark.parametrize("fail", [False, True])
    def test_callbacks_fire_once_in_registration_order(self, sim, count, fail):
        fut = sim.future()
        fired = []
        for i in range(count):
            fut.add_callback(lambda f, i=i: fired.append((i, f.exception is None)))
        if fail:
            fut.set_exception(ValueError("boom"))
        else:
            fut.set_result("v")
        assert fired == [(i, not fail) for i in range(count)]
        # Nothing is left behind to fire again.
        assert fut._callbacks is None
        with pytest.raises(SimulationError):
            fut.set_result("again")
        assert len(fired) == count

    def test_one_slot_is_promoted_to_a_list_on_the_second_registration(self, sim):
        fut = sim.future()
        first, second, third = (lambda f: None), (lambda f: None), (lambda f: None)
        assert fut._callbacks is None
        fut.add_callback(first)
        assert fut._callbacks is first
        fut.add_callback(second)
        assert fut._callbacks == [first, second]
        fut.add_callback(third)
        assert fut._callbacks == [first, second, third]

    @pytest.mark.parametrize("before", [0, 1, 2])
    @pytest.mark.parametrize("after", [0, 1, 2])
    def test_waiting_process_keeps_its_place_among_plain_callbacks(
        self, sim, before, after
    ):
        fut = sim.future()
        order = []

        def body():
            order.append(("proc", (yield fut)))

        for i in range(before):
            fut.add_callback(lambda f, i=i: order.append(("before", i)))
        proc = sim.process(body())
        sim.run()  # the process starts and parks on the future
        if before == 0:
            assert fut._callbacks is proc  # a wait allocates nothing
        for i in range(after):
            fut.add_callback(lambda f, i=i: order.append(("after", i)))
        fut.set_result("v")
        assert order == (
            [("before", i) for i in range(before)]
            + [("proc", "v")]
            + [("after", i) for i in range(after)]
        )
        assert proc.done

    def test_add_callback_from_inside_a_firing_callback_runs_immediately(self, sim):
        fut = sim.future()
        order = []

        def outer(f):
            order.append("outer")
            f.add_callback(lambda g: order.append("nested"))
            order.append("outer-end")

        fut.add_callback(outer)
        fut.add_callback(lambda f: order.append("second"))
        fut.set_result(None)
        assert order == ["outer", "nested", "outer-end", "second"]

    @pytest.mark.parametrize("others", [0, 1, 3])
    def test_interrupt_drops_only_the_process_own_wakeup(self, sim, others):
        fut = sim.future()
        seen = []
        outcomes = []

        def body():
            try:
                outcomes.append(("value", (yield fut)))
            except Interrupt as intr:
                outcomes.append(("interrupt", intr.cause))
            outcomes.append(("slept", (yield 1.0)))

        if others:
            fut.add_callback(lambda f: seen.append("first"))
        proc = sim.process(body())
        sim.run()
        for i in range(1, others):
            fut.add_callback(lambda f, i=i: seen.append(i))
        proc.interrupt("stop")
        sim.run(until=0.5)
        assert outcomes == [("interrupt", "stop")]
        # The future resolves while the process sleeps on something else:
        # the other callbacks fire exactly once, the stale wake-up is dropped.
        fut.set_result("late")
        assert seen == (["first"] + list(range(1, others)) if others else [])
        sim.run()
        assert outcomes == [("interrupt", "stop"), ("slept", None)]
        assert sim.now == 1.0

    def test_two_interrupts_queued_before_the_first_is_delivered(self, sim):
        fut = sim.future()
        outcomes = []

        def body():
            for _ in range(3):
                try:
                    yield fut
                    outcomes.append("value")
                except Interrupt as intr:
                    outcomes.append(intr.cause)

        proc = sim.process(body())
        sim.run()
        assert proc._interrupts is None  # allocated on the first interrupt
        proc.interrupt("a")
        proc.interrupt("b")
        assert outcomes == []
        sim.run()
        # "a" is thrown at the parked wait, "b" preempts the next one; the
        # third wait is a real one again.
        assert outcomes == ["a", "b"] and not proc.done
        fut.set_result(None)
        assert outcomes == ["a", "b", "value"] and proc.done


class TestProcessIsItsOwnStartEntry:
    def test_unstarted_processes_count_as_microtask_backlog(self, sim):
        started = []

        def body(i):
            started.append(i)
            yield 1.0

        for i in range(3):
            sim.process(body(i))
        assert started == []
        assert sim.stats.microtask_backlog == 3
        sim.run(until=0.0)
        assert started == [0, 1, 2]
        stats = sim.stats
        assert (stats.microtask_backlog, stats.microtasks_executed) == (0, 3)

    def test_max_events_sees_an_unstarted_process_at_the_microtask_head(self, sim):
        started = []

        def body(i):
            started.append(i)
            yield 1.0

        for i in range(3):
            sim.process(body(i))
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(until=0.0, max_events=2)
        assert started == [0, 1]
        assert sim.stats.microtask_backlog == 1
        sim.run(until=0.0, max_events=1)  # exactly the one that is due
        assert started == [0, 1, 2]

    def test_cancelled_microtask_ahead_of_an_unstarted_process(self, sim):
        fired = []
        dead = sim.call_soon(lambda: fired.append("dead"))
        sim.cancel(dead)

        def body():
            fired.append("proc")
            yield 0

        sim.process(body())
        sim.call_soon(lambda: fired.append("after"))
        sim.run()
        assert fired == ["proc", "after"]
        assert sim.stats.cancellations_skipped == 1

    def test_start_order_interleaves_with_same_time_heap_events(self, sim):
        order = []

        def body(tag):
            order.append(tag)
            yield 0

        def at_one():
            sim.process(body("p1"))
            sim.call_soon(lambda: order.append("soon"))
            sim.process(body("p2"))

        sim.schedule(1.0, at_one)
        sim.schedule(1.0, lambda: order.append("heap"))
        sim.run()
        assert order == ["heap", "p1", "soon", "p2"]

    def test_non_generator_body_still_raises_and_queues_nothing(self, sim):
        with pytest.raises(SimulationError, match="generator"):
            Process(sim, lambda: None)
        with pytest.raises(SimulationError, match="generator"):
            sim.process([1, 2, 3])
        assert sim.stats.microtask_backlog == 0

    def test_interrupt_before_start_is_delivered_at_the_first_yield(self, sim):
        outcomes = []

        def body():
            outcomes.append("started")
            try:
                yield 5.0
            except Interrupt as intr:
                outcomes.append(intr.cause)

        proc = sim.process(body())
        proc.interrupt("early")
        sim.run()
        assert outcomes == ["started", "early"]
        assert sim.now == 0.0 and proc.done


class TestCancellationCompaction:
    def test_cancelled_timer_storm_keeps_heap_bounded(self, sim):
        """Regression test for the cancel leak: cancelled events used to
        stay in the heap until their deadline."""
        live = 64
        keepers = [sim.schedule(10_000.0, lambda: None) for _ in range(live)]
        peak_during_storm = 0
        for _ in range(200):
            batch = [sim.schedule(5_000.0, lambda: None) for _ in range(100)]
            for handle in batch:
                sim.cancel(handle)
            peak_during_storm = max(peak_during_storm, sim.stats.heap_size)
        stats = sim.stats
        # 20 000 cancellations happened, but compaction keeps the queue at
        # O(live): never more than live + compaction threshold + one batch.
        threshold = sim.COMPACT_MIN_CANCELLED
        assert peak_during_storm <= live + 2 * threshold + 100
        assert stats.heap_size <= live + 2 * threshold
        assert stats.compactions > 0
        assert keepers  # keepers still live

    def test_compaction_preserves_live_events(self, sim):
        fired = []
        for i in range(300):
            handle = sim.schedule(1.0 + i, lambda i=i: fired.append(("dead", i)))
            sim.cancel(handle)
        sim.schedule(0.5, lambda: fired.append("live-early"))
        for i in range(300):
            handle = sim.schedule(2.0 + i, lambda: None)
            sim.cancel(handle)
        sim.schedule(700.0, lambda: fired.append("live-late"))
        sim.run()
        assert fired == ["live-early", "live-late"]
        assert sim.now == 700.0

    def test_compaction_preserves_pending_fast_timers(self, sim):
        done = []

        def body():
            yield 500.0
            done.append(sim.now)

        sim.process(body())
        sim.run(until=1.0)  # let the process arm its fast timer
        for _ in range(600):
            sim.cancel(sim.schedule(100.0, lambda: None))
        assert sim.stats.compactions > 0
        sim.run()
        assert done == [500.0]

    def test_compaction_churn_is_proportional_to_live_heap(self, sim):
        """Regression test for compaction churn: with a large live heap,
        a cancellation storm used to trigger an O(live) compaction every
        ``COMPACT_MIN_CANCELLED`` cancels.  The trigger is proportional
        now (cancelled must outnumber live 2:1), so each compaction is
        amortised over O(live) cancellations."""
        live = 3_000
        keepers = [sim.schedule(10_000.0, lambda: None) for _ in range(live)]
        cancels = 20_000
        for _ in range(cancels // 100):
            batch = [sim.schedule(5_000.0, lambda: None) for _ in range(100)]
            for handle in batch:
                sim.cancel(handle)
        stats = sim.stats
        assert stats.compactions > 0
        # Each compaction needs cancelled >= 2 * live, so the storm can
        # afford at most cancels / (2 * live / 3) of them; the old fixed
        # threshold would have produced cancels // COMPACT_MIN_CANCELLED
        # (~78) O(live)-cost rebuilds.
        max_compactions = cancels // (2 * live // 3) + 1
        assert stats.compactions <= max_compactions
        assert len(keepers) == live

    @staticmethod
    def _arm_and_cancel(sim, fired, batches=3, timers=400):
        """One process arms ``timers`` long timers per batch and cancels
        all but the first a tick later — enough cancellations for the heap
        to compact *inside* a callback, under the dispatch loop's feet."""

        def armer():
            for batch in range(batches):
                handles = [
                    sim.schedule(50.0, lambda b=batch, i=i: fired.append((b, i)))
                    for i in range(timers)
                ]
                yield 0.001
                for handle in handles[1:]:
                    sim.cancel(handle)

        sim.process(armer())

    def test_compaction_inside_a_run_keeps_the_loop_on_the_live_heap(self, sim):
        """Regression: ``_compact`` used to rebind the queue while the
        dispatch loop held the old list, so the run drained a stale heap,
        returned early, and the next run fired survivors a second time."""
        fired = []
        self._arm_and_cancel(sim, fired)
        sim.run()
        assert sim.stats.compactions > 0
        assert fired == [(0, 0), (1, 0), (2, 0)]
        assert sim.stats.heap_size == 0
        sim.run()
        assert fired == [(0, 0), (1, 0), (2, 0)]

    def test_compaction_under_sliced_runs_matches_one_run(self, sim):
        fired = []
        self._arm_and_cancel(sim, fired)
        sim.run()
        sliced = Simulator()
        sliced_fired = []
        self._arm_and_cancel(sliced, sliced_fired)
        while sliced.stats.heap_size or sliced.stats.microtask_backlog:
            sliced.run(until=sliced.now + 0.0004)
        assert sliced_fired == fired
        assert sliced.stats.snapshot() == sim.stats.snapshot()

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.cancel(handle)
        sim.cancel(handle)
        sim.run()
        assert sim.stats.cancellations_skipped == 1


class TestStats:
    def test_counters_for_mixed_run(self, sim):
        def body():
            yield 0.5
            yield 0.5

        sim.process(body())  # start microtask + 2 fast-timer events
        sim.schedule(1.0, lambda: None)  # 1 heap event
        sim.call_soon(lambda: None)  # 1 microtask
        cancelled = sim.schedule(2.0, lambda: None)
        sim.cancel(cancelled)  # 1 skipped cancellation
        sim.run()
        stats = sim.stats
        assert stats.events_executed == 3
        assert stats.microtasks_executed == 2
        assert stats.cancellations_skipped == 1
        assert stats.heap_peak >= 2
        assert stats.heap_size == 0
        assert stats.microtask_backlog == 0

    def test_snapshot_round_trips(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        snap = sim.stats.snapshot()
        assert snap["events_executed"] == 1
        assert set(snap) == {
            "events_executed",
            "microtasks_executed",
            "heap_peak",
            "cancellations_skipped",
            "compactions",
            "heap_size",
            "microtask_backlog",
        }

    def test_heap_peak_tracks_fast_timers(self, sim):
        def body():
            yield 1.0

        for _ in range(10):
            sim.process(body())
        sim.run()
        assert sim.stats.heap_peak >= 10


class TestCombinators:
    def test_all_of_collects_values(self, sim):
        futures = [sim.timeout(t, value=t) for t in (3.0, 1.0, 2.0)]
        combined = all_of(sim, futures)
        assert sim.run_until_complete(combined) == [3.0, 1.0, 2.0]
        assert sim.now == 3.0

    def test_all_of_empty(self, sim):
        assert all_of(sim, []).value == []

    def test_all_of_propagates_exception(self, sim):
        good = sim.timeout(1.0)
        bad = sim.future()
        sim.schedule(0.5, lambda: bad.set_exception(ValueError("x")))
        with pytest.raises(ValueError):
            sim.run_until_complete(all_of(sim, [good, bad]))

    def test_all_of_propagates_exception_from_last_resolver(self, sim):
        goods = [sim.timeout(t) for t in (0.1, 0.2, 0.3)]
        bad = sim.future()
        sim.schedule(5.0, lambda: bad.set_exception(KeyError("late")))
        with pytest.raises(KeyError):
            sim.run_until_complete(all_of(sim, goods + [bad]))

    def test_all_of_with_already_failed_future(self, sim):
        bad = sim.future()
        bad.set_exception(ValueError("pre"))
        combined = all_of(sim, [bad, sim.timeout(1.0)])
        assert combined.done
        with pytest.raises(ValueError):
            _ = combined.value

    def test_all_of_large_quorum_is_linear(self, sim):
        # The old implementation rescanned every future per completion
        # (O(n^2)); with 2000 futures that took ~seconds.  Sanity-check the
        # result; the perf harness guards the complexity.
        n = 2000
        futures = [sim.timeout(0.001 * (i % 7), value=i) for i in range(n)]
        combined = all_of(sim, futures)
        assert sim.run_until_complete(combined) == list(range(n))

    def test_any_of_returns_first(self, sim):
        futures = [sim.timeout(3.0, value="slow"), sim.timeout(1.0, value="fast")]
        index, value = sim.run_until_complete(any_of(sim, futures))
        assert (index, value) == (1, "fast")
        assert sim.now == 1.0


# ----------------------------------------------------------------------
# schedule_at: absolute-instant scheduling
# ----------------------------------------------------------------------
def test_schedule_at_rejects_the_past():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=1.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_schedule_at_now_runs_as_microtask_without_clock_motion():
    sim = Simulator()
    fired = []
    sim.schedule_at(0.0, lambda: fired.append(sim.now))
    sim.run(until=0.0)
    assert fired == [0.0]


def test_schedule_at_absolute_instant_is_exact():
    # the whole point of the API: no now + (when - now) float round-trip
    sim = Simulator()
    when = 0.1 + 0.2  # famously != 0.3
    seen = []
    sim.schedule_at(when, lambda: seen.append(sim.now))
    sim.run(until=1.0)
    assert seen == [when]
