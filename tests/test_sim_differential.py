"""Differential test of the dispatch loop against a one-heap reference.

The kernel keeps zero-delay events on a deque, timers on a heap, process
sleeps as bare ``(time, seq, process)`` tuples, and dispatches all of them
from one inlined loop with a bounded-run horizon.  The reference below
does none of that: every entry lives on a single ``(time, seq)`` heap and
runs through one ten-line loop.  Random programs — timers, zero-delay
events, cancellations (enough of them to compact the heap from inside a
callback), sleeping processes, interrupts (also two before the first is
delivered), futures shared by plain callbacks and several waiting
processes in any registration order — are played on both, once in a
single ``run()`` and once in random ``run(until=…)`` slices, some with
``condition=`` and ``max_events=``.  Dispatch trace, clock and kernel
counters must agree everywhere.
"""

from heapq import heapify, heappop, heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.sim import Interrupt, Simulator

STAT_FIELDS = (
    "events_executed",
    "microtasks_executed",
    "heap_peak",
    "cancellations_skipped",
    "compactions",
    "heap_size",
    "microtask_backlog",
)


# ----------------------------------------------------------------------
# The reference: one heap, lazy cancellation, the kernel's compaction rule
# ----------------------------------------------------------------------
class RefEntry:
    def __init__(self, micro, callback):
        self.micro = micro  # a zero-delay event (the kernel's deque)
        self.callback = callback
        self.cancelled = False


class RefFuture:
    def __init__(self):
        self.done = False
        self.value = None
        self.callbacks = []

    def add_callback(self, fn):
        if self.done:
            fn(self)
        else:
            self.callbacks.append(fn)

    def set_result(self, value=None):
        assert not self.done
        self.done = True
        self.value = value
        callbacks, self.callbacks = self.callbacks, []
        for fn in callbacks:
            fn(self)


class RefProcess(RefFuture):
    def __init__(self, kernel, gen):
        super().__init__()
        self.kernel = kernel
        self.gen = gen
        self.timer = None
        self.timer_time = 0.0
        self.waiting = None
        self.interrupts = []
        kernel.call_soon(lambda: self.step(None, None))

    def interrupt(self):
        if self.done:
            return
        self.interrupts.append(Interrupt())
        kernel = self.kernel
        if self.timer is not None:
            # The sleep is abandoned, but the clock still visits its deadline.
            self.timer.cancelled = True
            self.timer = None
            kernel.note_dead()
            kernel.schedule(self.timer_time - kernel.now, lambda: None)
            kernel.call_soon(self.deliver)
        elif self.waiting is not None:
            self.waiting = None
            kernel.call_soon(self.deliver)

    def deliver(self):
        if not self.done and self.interrupts:
            self.step(None, self.interrupts.pop(0))

    def wake(self):
        self.timer = None
        self.step(None, None)

    def on_wait_done(self, fut):
        if self.waiting is fut:
            self.waiting = None
            self.step(fut.value, None)

    def step(self, value, exc):
        if self.done:
            return
        try:
            target = self.gen.throw(exc) if exc is not None else self.gen.send(value)
        except StopIteration as stop:
            self.set_result(stop.value)
            return
        if self.interrupts:
            pending = self.interrupts.pop(0)
            self.kernel.call_soon(lambda: self.step(None, pending))
        elif isinstance(target, RefFuture):
            self.waiting = target
            target.add_callback(self.on_wait_done)
        else:
            # A sleep is a timer even when it is zero seconds long.
            self.timer_time = self.kernel.now + target
            self.timer = self.kernel.push(self.timer_time, False, self.wake)


class RefKernel:
    COMPACT_MIN_CANCELLED = Simulator.COMPACT_MIN_CANCELLED

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.heap = []
        self.timers = 0  # non-micro entries on the heap, dead ones included
        self.dead = 0  # cancellations since the last compaction, less dead pops
        self.counters = dict.fromkeys(STAT_FIELDS[:5], 0)

    @property
    def stats(self):
        return dict(
            self.counters,
            heap_size=self.timers,
            microtask_backlog=len(self.heap) - self.timers,
        )

    def push(self, when, micro, callback):
        entry = RefEntry(micro, callback)
        heappush(self.heap, (when, self.seq, entry))
        self.seq += 1
        if not micro:
            self.timers += 1
            self.counters["heap_peak"] = max(self.counters["heap_peak"], self.timers)
        return entry

    def schedule(self, delay, callback):
        return self.push(self.now + delay, delay == 0, callback)

    def call_soon(self, callback):
        return self.push(self.now, True, callback)

    def future(self):
        return RefFuture()

    def process(self, gen):
        return RefProcess(self, gen)

    def cancel(self, entry):
        if not entry.cancelled:
            entry.cancelled = True
            if not entry.micro:
                self.note_dead()

    def note_dead(self):
        self.dead += 1
        if self.dead >= self.COMPACT_MIN_CANCELLED and self.dead * 3 >= self.timers * 2:
            before = len(self.heap)
            self.heap = [e for e in self.heap if e[2].micro or not e[2].cancelled]
            heapify(self.heap)
            self.timers -= before - len(self.heap)
            self.counters["cancellations_skipped"] += before - len(self.heap)
            self.counters["compactions"] += 1
            self.dead = 0

    def run(self, until=None, condition=None, max_events=None):
        horizon = float("inf") if until is None else until
        executed = 0
        while True:
            if condition is not None and condition.done:
                return
            if (
                max_events is not None
                and executed >= max_events
                and any(t <= horizon and not e.cancelled for t, _, e in self.heap)
            ):
                raise SimulationError("exceeded max_events")
            if not self.heap:
                break
            when, _, entry = self.heap[0]
            if when > horizon and not entry.cancelled:
                break
            heappop(self.heap)
            if not entry.micro:
                self.timers -= 1
            if entry.cancelled:
                self.counters["cancellations_skipped"] += 1
                if not entry.micro and self.dead:
                    self.dead -= 1
                continue
            assert when >= self.now
            self.now = when
            kind = "microtasks_executed" if entry.micro else "events_executed"
            self.counters[kind] += 1
            executed += 1
            entry.callback()
        if until is not None and self.now < until:
            self.now = until


# ----------------------------------------------------------------------
# Random programs, played through the API both kernels share
# ----------------------------------------------------------------------
DELAYS = st.sampled_from([0, 0, 0.001, 0.001, 0.002, 0.01, 0.5])
INDEX = st.integers(0, 1_000)


def _ops(children):
    return st.one_of(
        st.tuples(st.just("timer"), DELAYS, children),
        st.tuples(st.just("soon"), children),
        st.tuples(st.just("cancel"), INDEX),
        st.tuples(st.just("sleeper"), st.lists(DELAYS, min_size=1, max_size=4)),
        st.tuples(st.just("interrupt"), INDEX),
        st.tuples(st.just("waiter")),
        st.tuples(st.just("join"), INDEX),
        st.tuples(st.just("watch"), INDEX, st.booleans()),
        st.tuples(st.just("interrupt2"), INDEX),
        st.tuples(st.just("resolve"), INDEX, DELAYS),
        st.tuples(st.just("storm"), st.sampled_from([300, 450])),
    )


#: a burst of operations; timers and zero-delay events carry the burst
#: they run when they fire, three levels deep
PROGRAMS = st.lists(
    _ops(st.lists(_ops(st.lists(_ops(st.just([])), max_size=3)), max_size=4)),
    min_size=1,
    max_size=25,
)
SLICES = st.lists(
    st.tuples(
        st.sampled_from([0, 0.0005, 0.001, 0.003, 0.02, 1.0]),
        st.one_of(st.none(), INDEX),  # condition=: which process / future
        st.one_of(st.none(), st.integers(0, 12)),  # max_events=
    ),
    max_size=12,
)


class Play:
    """One program on one kernel; ``trace`` is what ran, and when."""

    def __init__(self, kernel, program):
        self.kernel = kernel
        self.trace = []
        self.handles = []
        self.processes = []
        self.futures = []
        self.labels = iter(range(10**9))
        self.burst(program)

    def log(self, *what):
        self.trace.append((self.kernel.now, *what))

    def fire(self, label, children):
        self.log(label, "fired")
        self.burst(children)

    def sleeper(self, label, delays):
        for delay in delays:
            try:
                yield delay
                self.log(label, "woke")
            except Interrupt:
                self.log(label, "interrupted")

    def waiter(self, label, fut):
        try:
            self.log(label, "got", (yield fut))
        except Interrupt:
            self.log(label, "interrupted")

    def watch(self, label, nested, fut):
        self.log(label, "saw", fut.value)
        if nested:
            # Registered from inside a firing callback: runs at once.
            fut.add_callback(lambda f: self.log(label, "nested", f.value))
            self.log(label, "saw-end")

    def resolve(self, label, fut):
        if not fut.done:
            self.log(label, "resolves")
            fut.set_result(label)

    def burst(self, ops):
        kernel = self.kernel
        for op in ops:
            label = next(self.labels)
            kind = op[0]
            if kind == "timer":
                _, delay, children = op
                self.handles.append(
                    kernel.schedule(delay, lambda l=label, c=children: self.fire(l, c))
                )
            elif kind == "soon":
                self.handles.append(
                    kernel.call_soon(lambda l=label, c=op[1]: self.fire(l, c))
                )
            elif kind == "cancel" and self.handles:
                kernel.cancel(self.handles[op[1] % len(self.handles)])
            elif kind == "sleeper":
                self.processes.append(kernel.process(self.sleeper(label, op[1])))
            elif kind == "interrupt" and self.processes:
                self.processes[op[1] % len(self.processes)].interrupt()
            elif kind == "waiter":
                fut = kernel.future()
                self.futures.append(fut)
                self.processes.append(kernel.process(self.waiter(label, fut)))
            elif kind == "join" and self.futures:
                # One more process on a future that may already have plain
                # callbacks and waiters (the one-slot -> list promotion).
                fut = self.futures[op[1] % len(self.futures)]
                self.processes.append(kernel.process(self.waiter(label, fut)))
            elif kind == "watch" and self.futures:
                fut = self.futures[op[1] % len(self.futures)]
                fut.add_callback(lambda f, l=label, n=op[2]: self.watch(l, n, f))
            elif kind == "interrupt2" and self.processes:
                process = self.processes[op[1] % len(self.processes)]
                process.interrupt()
                process.interrupt()
            elif kind == "resolve" and self.futures:
                fut = self.futures[op[1] % len(self.futures)]
                kernel.schedule(op[2], lambda l=label, f=fut: self.resolve(l, f))
            elif kind == "storm":
                armed = [
                    kernel.schedule(50.0, lambda l=label, i=i: self.log(l, "storm", i))
                    for i in range(op[1])
                ]
                for handle in armed[1:]:
                    kernel.cancel(handle)

    def run_slice(self, delta, condition, max_events):
        """One bounded run; returns what a caller can observe of it."""
        awaited = self.processes + self.futures
        if condition is not None and awaited:
            condition = awaited[condition % len(awaited)]
        else:
            condition = None
        try:
            self.kernel.run(
                until=self.kernel.now + delta, condition=condition, max_events=max_events
            )
            raised = False
        except SimulationError:
            raised = True
        return raised, self.kernel.now, len(self.trace), self.snapshot()

    def snapshot(self):
        stats = self.kernel.stats
        return stats if isinstance(stats, dict) else stats.snapshot()


@given(PROGRAMS, SLICES)
@settings(max_examples=300, deadline=None)
def test_sliced_and_whole_runs_match_the_one_heap_reference(program, slices):
    whole = Play(Simulator(), program)
    whole.kernel.run()
    ref_whole = Play(RefKernel(), program)
    ref_whole.kernel.run()
    assert whole.trace == ref_whole.trace
    assert whole.kernel.now == ref_whole.kernel.now
    assert whole.snapshot() == ref_whole.snapshot()

    sliced = Play(Simulator(), program)
    ref_sliced = Play(RefKernel(), program)
    for step in slices:
        assert sliced.run_slice(*step) == ref_sliced.run_slice(*step)
    sliced.kernel.run()
    ref_sliced.kernel.run()
    assert sliced.kernel.now == ref_sliced.kernel.now
    # However the run was cut up, the same things ran and were counted.
    assert sliced.trace == ref_sliced.trace == whole.trace
    assert sliced.snapshot() == ref_sliced.snapshot() == whole.snapshot()
