"""Discrete-event simulation kernel.

The entire reproduction runs on simulated time: every disk write, fsync,
network transfer and timer costs *simulated* seconds according to device
models, while wall-clock execution stays fast and deterministic.  The design
follows the classic process-interaction style (as popularised by SimPy):

* a :class:`Simulator` owns a priority queue of timestamped callbacks;
* a :class:`Process` drives a Python generator; the generator ``yield``\\ s
  :class:`SimFuture` instances (timeouts, I/O completions, other processes)
  and is resumed when they resolve;
* :class:`SimFuture` is a one-shot completion token with callbacks.

Determinism: events scheduled for the same timestamp fire in scheduling
order (a monotonically increasing sequence number breaks ties), and the
kernel itself never consults wall-clock time or global randomness.

Hot-path structure (see DESIGN.md "Kernel performance"):

* ``yield <number>`` inside a process takes an allocation-free fast path —
  the generator resume is scheduled directly on the heap as a
  ``(time, seq, process)`` tuple, with no :class:`SimFuture`, no closure
  and no :class:`_ScheduledEvent` allocated;
* zero-delay events (``call_soon`` / ``schedule(0.0, ...)``) go to a FIFO
  microtask deque that bypasses ``heapq`` entirely; global (time, seq)
  ordering relative to heap events is preserved exactly;
* cancellation is lazy (dead entries are skipped on pop) with periodic
  heap compaction so cancelled-timer storms don't grow the queue without
  bound;
* :attr:`Simulator.stats` exposes cheap counters (events executed,
  microtasks, heap peak, cancellations skipped, compactions) so
  regressions are visible to the perf harness.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Deque, Generator, Iterable, Optional

from repro.common.errors import SimulationError

__all__ = [
    "Simulator",
    "SimFuture",
    "SimStats",
    "Process",
    "Interrupt",
    "Drain",
    "all_of",
]


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class SimFuture:
    """A one-shot completion token tied to a :class:`Simulator`.

    A future resolves exactly once, either with a value
    (:meth:`set_result`) or an exception (:meth:`set_exception`).
    Callbacks added after resolution run immediately.

    ``_callbacks`` is ``None``, the one registered callable, or — from the
    second registration on — a list in registration order.  Most futures
    get exactly one callback, so a wait usually allocates nothing.
    """

    __slots__ = ("sim", "_done", "_value", "_exception", "_callbacks")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._done = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: Any = None

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimulationError("future not resolved yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        if not self._done:
            raise SimulationError("future not resolved yet")
        return self._exception

    def add_callback(self, fn: Callable[["SimFuture"], None]) -> None:
        if self._done:
            fn(self)
            return
        callbacks = self._callbacks
        if callbacks is None:
            self._callbacks = fn
        elif callbacks.__class__ is list:
            callbacks.append(fn)
        else:
            self._callbacks = [callbacks, fn]

    def set_result(self, value: Any = None) -> None:
        # set_result/set_exception share no helper: the extra call layer
        # is measurable at ~100k resolutions per benchmark run.
        if self._done:
            raise SimulationError("future already resolved")
        self._done = True
        self._value = value
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            if callbacks.__class__ is list:
                for fn in callbacks:
                    fn(self)
            else:
                callbacks(self)

    def set_exception(self, exc: BaseException) -> None:
        if not isinstance(exc, BaseException):
            raise SimulationError(f"not an exception: {exc!r}")
        if self._done:
            raise SimulationError("future already resolved")
        self._done = True
        self._exception = exc
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            if callbacks.__class__ is list:
                for fn in callbacks:
                    fn(self)
            else:
                callbacks(self)


class Process(SimFuture):
    """Drives a generator coroutine inside the simulation.

    The generator may ``yield``:

    * a :class:`SimFuture` — the process resumes when it resolves, receiving
      the future's value (or the exception is thrown into the generator);
    * another :class:`Process` — same thing (a process *is* a future that
      resolves with the generator's return value);
    * a number — shorthand for ``sim.timeout(number)``, but on an
      allocation-free fast path (no future is created).

    The process itself resolves with the generator's ``return`` value.

    A process is its own kernel bookkeeping: it sits on the microtask
    deque as its own start entry (``seq`` / ``cancelled`` /
    :meth:`callback` are the entry protocol of :class:`_ScheduledEvent`)
    and registers *itself* as the callback of the future it waits on
    (:meth:`__call__`), so neither a spawn nor a wait allocates anything.
    """

    __slots__ = (
        "_gen", "_waiting_on", "_interrupts", "_timer_seq", "_timer_time", "seq",
    )

    #: a start entry is never cancelled (nobody else holds it as an event)
    cancelled = False

    def __init__(self, sim: "Simulator", gen: Generator[Any, Any, Any]) -> None:
        if not hasattr(gen, "send"):
            raise SimulationError(f"process body must be a generator, got {gen!r}")
        # Inlined SimFuture.__init__ (one process per request adds up).
        self.sim = sim
        self._done = False
        self._value = None
        self._exception = None
        self._callbacks = None
        self._gen = gen
        self._waiting_on: Optional[SimFuture] = None
        #: pending interrupts, oldest first; allocated on the first one
        self._interrupts: Optional[list[Interrupt]] = None
        #: seq of the pending fast-path timer heap entry, or -1 when not
        #: waiting on one; the heap entry is stale unless its seq matches.
        self._timer_seq = -1
        self._timer_time = 0.0
        # Start the process at the current simulation time, but asynchronously
        # so the creator finishes its own step first (inlined call_soon).
        self.seq = seq = sim._seq
        sim._seq = seq + 1
        sim._micro.append(self)

    def callback(self) -> None:
        """The start microtask: run the generator to its first yield."""
        self._step(None, None)

    @property
    def alive(self) -> bool:
        return not self._done

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self._done:
            return
        if self._interrupts is None:
            self._interrupts = [Interrupt(cause)]
        else:
            self._interrupts.append(Interrupt(cause))
        sim = self.sim
        if self._timer_seq != -1:
            # Orphan the fast-path timer: its heap entry goes stale (seq
            # mismatch), and a no-op placeholder keeps the clock advancing
            # to the original deadline exactly as an orphaned timeout
            # future did before the fast path existed.
            self._timer_seq = -1
            sim._note_heap_cancel()
            sim.schedule(self._timer_time - sim._now, _noop)
            sim.call_soon(self._deliver_interrupt)
        elif self._waiting_on is not None:
            self._waiting_on = None
            sim.call_soon(self._deliver_interrupt)

    def _deliver_interrupt(self) -> None:
        if self._done or not self._interrupts:
            return
        exc = self._interrupts.pop(0)
        self._step(None, exc)

    def __call__(self, fut: SimFuture) -> None:
        """The wake-up: the process is the callback of the future it
        waits on."""
        if self._waiting_on is not fut:
            # The wait was cancelled by an interrupt; drop the wakeup.
            return
        self._waiting_on = None
        if fut._exception is not None:
            self._step(None, fut._exception)
        else:
            self._step(fut._value, None)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._done:
            return
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self.set_result(stop.value)
            return
        except Interrupt as unhandled:
            self.set_exception(unhandled)
            return
        except BaseException as err:  # noqa: BLE001 - propagate into future
            self.set_exception(err)
            return
        # Pending interrupts preempt whatever we were about to wait on.
        if self._interrupts:
            self._preempt_interrupt()
            return
        cls = target.__class__
        if cls is float or cls is int:
            # Fast path: schedule the generator resume directly on the heap.
            # The only allocation is the heap tuple itself.  NOTE: this
            # branch is mirrored inline in Simulator._run_core — keep
            # the two in sync.
            if target < 0:
                raise SimulationError(
                    f"cannot schedule in the past (delay={target})"
                )
            sim = self.sim
            seq = sim._seq
            sim._seq = seq + 1
            when = sim._now + target
            self._timer_seq = seq
            self._timer_time = when
            heappush(sim._queue, (when, seq, self))
            qlen = len(sim._queue)
            if qlen > sim._heap_peak:
                sim._heap_peak = qlen
            return
        if isinstance(target, SimFuture):
            # Inlined wait registration (the other hot yield kind); matches
            # _wait_target + add_callback exactly, including the synchronous
            # fire when the target is already resolved.
            self._waiting_on = target
            if target._done:
                self(target)
            else:
                cbs = target._callbacks
                if cbs is None:
                    target._callbacks = self
                elif cbs.__class__ is list:
                    cbs.append(self)
                else:
                    target._callbacks = [cbs, self]
            return
        self._wait_target(target)

    def _preempt_interrupt(self) -> None:
        """A pending interrupt preempts the wait the generator just asked for."""
        pending = self._interrupts.pop(0)
        self.sim.call_soon(lambda: self._step(None, pending))

    def _wait_target(self, target: Any) -> None:
        """Handle a non-fast-path yield target (future, exotic number, junk)."""
        if isinstance(target, SimFuture):
            self._waiting_on = target
            target.add_callback(self)
            return
        if isinstance(target, (int, float)):
            # Numeric but not exactly int/float (bool, numeric subclasses):
            # take the general timeout path.
            target = self.sim.timeout(target)
            self._waiting_on = target
            target.add_callback(self)
            return
        self.set_exception(
            SimulationError(f"process yielded non-awaitable: {target!r}")
        )


def _noop() -> None:
    return None


_INF = float("inf")


class _TimedFuture(SimFuture):
    """A future whose *own heap entry* resolves it (delayed delivery).

    ``Simulator.resolve_after`` pushes ``(when, seq, self)`` directly, so a
    timed delivery (timeouts, network transfers) costs one allocation —
    this object — instead of future + closure + :class:`_ScheduledEvent`.
    Like the process fast-path timer, the entry is live iff ``_timer_seq``
    matches the tuple's seq (these are never cancelled today, but the
    staleness protocol keeps ``_compact`` / pruning uniform).
    """

    __slots__ = ("_timer_seq", "_payload")


class _ScheduledEvent:
    """A queue entry; the heap orders (time, seq) tuples, so instances
    themselves never need rich comparisons (hot path)."""

    __slots__ = ("time", "seq", "callback", "cancelled", "in_heap")

    def __init__(
        self, time: float, seq: int, callback: Callable[[], None], in_heap: bool
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.in_heap = in_heap


def _is_live(seq: int, obj: Any) -> bool:
    """Whether the heap entry ``(when, seq, obj)`` still has to run: a
    cancelled event is dead, and so is a timer whose owner moved on."""
    if type(obj) is _ScheduledEvent:
        return not obj.cancelled
    return obj._timer_seq == seq


class SimStats:
    """A snapshot of the kernel's performance counters."""

    __slots__ = (
        "events_executed",
        "microtasks_executed",
        "heap_peak",
        "cancellations_skipped",
        "compactions",
        "heap_size",
        "microtask_backlog",
    )

    def __init__(
        self,
        events_executed: int,
        microtasks_executed: int,
        heap_peak: int,
        cancellations_skipped: int,
        compactions: int,
        heap_size: int,
        microtask_backlog: int,
    ) -> None:
        self.events_executed = events_executed
        self.microtasks_executed = microtasks_executed
        self.heap_peak = heap_peak
        self.cancellations_skipped = cancellations_skipped
        self.compactions = compactions
        self.heap_size = heap_size
        self.microtask_backlog = microtask_backlog

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"SimStats({fields})"


class Simulator:
    """The event loop: a heap of timestamped callbacks plus a FIFO
    microtask deque for zero-delay events."""

    #: lazy-cancellation compaction kicks in once at least this many
    #: cancelled entries linger in the heap *and* they outnumber the live
    #: ones 2:1 (amortised O(1) per cancellation, bounded queue length).
    COMPACT_MIN_CANCELLED = 256

    __slots__ = (
        "_now",
        "_seq",
        "_queue",
        "_micro",
        "_heap_cancelled",
        "_events_executed",
        "_microtasks_executed",
        "_heap_peak",
        "_cancellations_skipped",
        "_compactions",
        "_fluid_resources",
    )

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        #: heap of (time, seq, obj) where obj is a _ScheduledEvent or — for
        #: the ``yield <number>`` fast path — the Process itself; a Process
        #: entry is live iff its _timer_seq matches the tuple's seq.
        self._queue: list[tuple[float, int, Any]] = []
        #: FIFO of zero-delay _ScheduledEvents and unstarted Processes (a
        #: process is its own start entry), in seq order.
        self._micro: Deque[Any] = deque()
        self._heap_cancelled = 0
        self._events_executed = 0
        self._microtasks_executed = 0
        self._heap_peak = 0
        self._cancellations_skipped = 0
        self._compactions = 0
        #: the device registry: every Disk and Host, in creation order
        self._fluid_resources: list[Any] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- device registry -----------------------------------------------
    def register_fluid(self, resource: Any) -> None:
        """Enroll a device (every :class:`Disk` and :class:`Host` does).

        The name predates the registry's one remaining use: the layered
        yardstick (``benchmarks/layered/workloads.py::device_counters``)
        reads :attr:`fluid_resources` to find every disk and NIC on the
        simulator and sum their op/byte counters.  Renaming it waits for
        a benchmark-only change that may touch that reader.  Registration
        costs one list append.
        """
        self._fluid_resources.append(resource)

    @property
    def fluid_resources(self) -> list:
        """Every registered device, in creation order."""
        return self._fluid_resources

    @property
    def stats(self) -> SimStats:
        """Kernel performance counters (see DESIGN.md "Kernel performance")."""
        return SimStats(
            events_executed=self._events_executed,
            microtasks_executed=self._microtasks_executed,
            heap_peak=self._heap_peak,
            cancellations_skipped=self._cancellations_skipped,
            compactions=self._compactions,
            heap_size=len(self._queue),
            microtask_backlog=len(self._micro),
        )

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> _ScheduledEvent:
        """Run ``callback`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        if delay == 0:
            event = _ScheduledEvent(self._now, seq, callback, False)
            self._micro.append(event)
        else:
            when = self._now + delay
            event = _ScheduledEvent(when, seq, callback, True)
            heappush(self._queue, (when, seq, event))
            qlen = len(self._queue)
            if qlen > self._heap_peak:
                self._heap_peak = qlen
        return event

    def call_soon(self, callback: Callable[[], None]) -> _ScheduledEvent:
        """Run ``callback`` at the current time, after pending same-time events."""
        seq = self._seq
        self._seq = seq + 1
        event = _ScheduledEvent(self._now, seq, callback, False)
        self._micro.append(event)
        return event

    def schedule_at(self, when: float, callback: Callable[[], None]) -> _ScheduledEvent:
        """Run ``callback`` at the *absolute* simulated time ``when``.

        For callers that already hold an exact instant: unlike
        ``schedule(when - now, ...)`` there is no float round-trip that
        could shift the heap time by an ulp.  ``when`` in the past raises.
        """
        now = self._now
        if when < now:
            raise SimulationError(
                f"cannot schedule in the past (when={when} < now={now})"
            )
        seq = self._seq
        self._seq = seq + 1
        if when == now:
            event = _ScheduledEvent(when, seq, callback, False)
            self._micro.append(event)
        else:
            event = _ScheduledEvent(when, seq, callback, True)
            heappush(self._queue, (when, seq, event))
            qlen = len(self._queue)
            if qlen > self._heap_peak:
                self._heap_peak = qlen
        return event

    def cancel(self, event: _ScheduledEvent) -> None:
        """Lazy cancellation of a scheduled event.

        The entry stays queued but is skipped when reached; once cancelled
        heap entries outnumber live ones 2:1 (past a fixed floor) the heap
        is compacted, so queue length stays bounded by O(live events).
        """
        if event.cancelled:
            return
        event.cancelled = True
        if event.in_heap:
            self._note_heap_cancel()

    def _note_heap_cancel(self) -> None:
        cancelled = self._heap_cancelled + 1
        self._heap_cancelled = cancelled
        # Compact when cancelled entries outnumber live ones 2:1 (and a
        # fixed floor keeps tiny heaps compaction-free).  The threshold is
        # proportional to the live-heap size: each O(queue) compaction is
        # amortised over at least max(floor, 2 * live) cancellations, so a
        # cancellation storm over a small live heap no longer re-compacts
        # every ``floor`` cancels.
        if cancelled >= self.COMPACT_MIN_CANCELLED and cancelled * 3 >= len(
            self._queue
        ) * 2:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without dead entries (cancelled or stale).

        In place: a callback may cancel — and so compact — from inside
        the dispatch loop, which holds the queue in a local.
        """
        alive = []
        for entry in self._queue:
            obj = entry[2]
            if type(obj) is _ScheduledEvent:
                if not obj.cancelled:
                    alive.append(entry)
            elif obj._timer_seq == entry[1]:
                alive.append(entry)
        heapify(alive)
        self._cancellations_skipped += len(self._queue) - len(alive)
        self._queue[:] = alive
        self._heap_cancelled = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Futures and processes
    # ------------------------------------------------------------------
    def future(self) -> SimFuture:
        return SimFuture(self)

    def timeout(self, delay: float, value: Any = None) -> SimFuture:
        """A future that resolves with ``value`` after ``delay`` seconds."""
        if delay > 0:
            return self.resolve_after(delay, value)
        # delay == 0 must stay a microtask for (time, seq) ordering;
        # delay < 0 raises inside schedule.
        fut = SimFuture(self)
        self.schedule(delay, lambda: fut.set_result(value))
        return fut

    def resolve_after(self, delay: float, value: Any = None) -> SimFuture:
        """A future resolving with ``value`` after ``delay`` (> 0) seconds.

        Fast path for timed deliveries: the heap tuple points at the
        future itself, so no callback closure or :class:`_ScheduledEvent`
        is allocated.  Dispatch order is identical to
        ``schedule(delay, fut.set_result)`` — same seq, same time.
        """
        if delay <= 0:
            raise SimulationError(f"resolve_after needs a positive delay, got {delay}")
        fut = _TimedFuture(self)
        fut._payload = value
        seq = self._seq
        self._seq = seq + 1
        fut._timer_seq = seq
        heappush(self._queue, (self._now + delay, seq, fut))
        qlen = len(self._queue)
        if qlen > self._heap_peak:
            self._heap_peak = qlen
        return fut

    def process(self, gen: Generator[Any, Any, Any]) -> Process:
        """Start a generator as a simulation process."""
        return Process(self, gen)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def _prune_heap_head(self) -> None:
        """Drop dead entries (cancelled events, stale fast timers) off the
        top of the heap without advancing the clock."""
        queue = self._queue
        while queue and not _is_live(queue[0][1], queue[0][2]):
            heappop(queue)
            self._cancellations_skipped += 1
            if self._heap_cancelled:
                self._heap_cancelled -= 1

    def _live_within(self, until: float) -> bool:
        """Whether a live entry is due at or before ``until`` — the
        ``max_events`` look-ahead.  A scan rather than a prune, so the
        backstop never disturbs the queue it watches."""
        return any(not event.cancelled for event in self._micro) or any(
            when <= until and _is_live(seq, obj) for when, seq, obj in self._queue
        )

    def _run_core(
        self,
        stop_on: Optional[SimFuture],
        deadline: float = _INF,
        until: float = _INF,
        max_events: Optional[int] = None,
    ) -> None:
        """The one dispatch loop, behind ``run`` and ``run_until_complete``:
        run until the queue drains, ``stop_on`` (when given) resolves,
        ``self.now`` reaches ``deadline``, or nothing live is left at or
        before ``until``.

        Ordering contract: among all pending entries, the one with the
        smallest ``(time, seq)`` runs first — microtasks carry the seq they
        were enqueued with, so zero-delay events interleave with same-time
        heap events exactly as if everything lived on one heap.

        ``until`` is a horizon: the heap head is peeked before it is
        popped, dead heads are dropped, and a live head past the horizon
        stays queued while the clock moves to ``until`` (as it does when
        the queue drains first).  ``deadline`` is checked *between*
        dispatches instead — an event scheduled past it may still execute
        and resolve ``stop_on``.  ``max_events`` raises once that many
        events ran and another is due within the horizon.
        """
        queue = self._queue
        micro = self._micro
        pop = heappop
        event_cls = _ScheduledEvent
        timed_cls = _TimedFuture
        bounded = until != _INF
        capped = max_events is not None
        # deadline and max_events are the rare modes; one flag keeps them
        # off the per-event path.
        guarded = capped or deadline != _INF
        if capped:
            limit = self._events_executed + self._microtasks_executed + max_events
        while True:
            if stop_on is not None and stop_on._done:
                return
            if guarded:
                if self._now >= deadline:
                    return
                if (
                    capped
                    and self._events_executed + self._microtasks_executed >= limit
                    and self._live_within(until)
                ):
                    raise SimulationError(f"exceeded max_events={max_events}")
            if micro:
                # Drop dead microtask heads, then run the microtask unless
                # a heap event precedes it in (time, seq).  A microtask's
                # time is its enqueue time, which is <= now; a heap event
                # only precedes it when scheduled for a time already
                # reached AND with a smaller seq.  The heap head is *not*
                # pruned first: a dead head that wins the comparison routes
                # control to the heap branch, which skips it and loops back
                # here — ordering stays exact without an eager prune pass
                # per microtask.
                while micro[0].cancelled:
                    micro.popleft()
                    self._cancellations_skipped += 1
                    if not micro:
                        break
                if micro:
                    mev = micro[0]
                    if not queue or queue[0][0] > self._now or queue[0][1] > mev.seq:
                        micro.popleft()
                        self._microtasks_executed += 1
                        mev.callback()
                        continue
                else:
                    continue
            if not queue:
                break
            if bounded and queue[0][0] > until:
                self._prune_heap_head()
                if queue and queue[0][0] <= until:
                    continue
                break
            when, seq, obj = pop(queue)
            if type(obj) is event_cls:
                if obj.cancelled:
                    self._cancellations_skipped += 1
                    if self._heap_cancelled:
                        self._heap_cancelled -= 1
                    continue
                if when < self._now:
                    raise SimulationError("event queue went backwards")
                self._now = when
                self._events_executed += 1
                obj.callback()
                continue
            if obj._timer_seq != seq:
                self._cancellations_skipped += 1
                if self._heap_cancelled:
                    self._heap_cancelled -= 1
                continue
            # No backwards guard here: the fast path rejects negative
            # delays at yield time, so a live timer can never be early.
            self._now = when
            self._events_executed += 1
            obj._timer_seq = -1
            if type(obj) is timed_cls:
                obj.set_result(obj._payload)
                continue
            # Inlined Process._step for the timer-resume case (the single
            # hottest sequence in the kernel): resume the generator and,
            # when it yields another plain number, push the next timer
            # without any intermediate method call.  Mirrors Process._step —
            # keep the two in sync.
            if obj._done:
                continue
            try:
                target = obj._gen.send(None)
            except StopIteration as stop:
                obj.set_result(stop.value)
                continue
            except Interrupt as unhandled:
                obj.set_exception(unhandled)
                continue
            except BaseException as err:  # noqa: BLE001 - propagate into future
                obj.set_exception(err)
                continue
            if obj._interrupts:
                obj._preempt_interrupt()
                continue
            cls = target.__class__
            if cls is float or cls is int:
                if target < 0:
                    raise SimulationError(
                        f"cannot schedule in the past (delay={target})"
                    )
                seq = self._seq
                self._seq = seq + 1
                when += target
                obj._timer_seq = seq
                obj._timer_time = when
                heappush(queue, (when, seq, obj))
                qlen = len(queue)
                if qlen > self._heap_peak:
                    self._heap_peak = qlen
                continue
            if isinstance(target, SimFuture):
                # Inlined wait registration — mirrors Process._step.
                obj._waiting_on = target
                if target._done:
                    obj(target)
                else:
                    cbs = target._callbacks
                    if cbs is None:
                        target._callbacks = obj
                    elif cbs.__class__ is list:
                        cbs.append(obj)
                    else:
                        target._callbacks = [cbs, obj]
                continue
            obj._wait_target(target)
        if bounded and self._now < until:
            self._now = until

    def run(
        self,
        until: Optional[float] = None,
        condition: Optional[SimFuture] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run until the queue drains, ``until`` is reached, or ``condition``
        resolves — whichever comes first.  The clock ends at ``until``
        unless ``condition`` stopped the run earlier; an ``until`` already
        in the past raises, like ``schedule_at``.

        ``max_events`` is a runaway-loop backstop for tests.
        """
        if until is None:
            until = _INF
        elif until < self._now:
            raise SimulationError(
                f"cannot run into the past (until={until} < now={self._now})"
            )
        self._run_core(condition, until=until, max_events=max_events)

    def run_until_complete(
        self, awaitable: SimFuture, timeout: Optional[float] = None
    ) -> Any:
        """Run the loop until ``awaitable`` resolves; return its value.

        Raises :class:`SimulationError` if the queue drains (deadlock) or the
        simulated ``timeout`` elapses before resolution.
        """
        if timeout is None:
            # Common case: dispatch on the inlined hot loop.
            if not awaitable._done:
                self._run_core(awaitable)
                if not awaitable._done:
                    raise SimulationError(
                        "deadlock: event queue drained with pending future"
                    )
            return awaitable.value
        deadline = self._now + timeout
        self._run_core(awaitable, deadline)
        if awaitable._done:
            return awaitable.value
        if self._now >= deadline:
            raise SimulationError(f"timed out after {timeout} simulated seconds")
        raise SimulationError("deadlock: event queue drained with pending future")


def all_of(sim: Simulator, futures: Iterable[SimFuture]) -> SimFuture:
    """A future resolving with the list of all values once every input resolves.

    The first exception (in resolution order) is propagated.
    """
    futures = list(futures)
    result = sim.future()
    if not futures:
        result.set_result([])
        return result
    remaining = [len(futures)]

    def on_done(fut: SimFuture) -> None:
        # Only the future that just resolved can be newly failed — checking
        # it alone keeps quorum waits O(n) total instead of O(n^2).
        if result._done:
            return
        exc = fut._exception
        if exc is not None:
            result.set_exception(exc)
            return
        remaining[0] -= 1
        if remaining[0] == 0:
            result.set_result([f._value for f in futures])

    for fut in futures:
        fut.add_callback(on_done)
    return result


class Drain:
    """An in-flight counter whose "all done" is a completion, not a poll.

    A client passes each send's future to :meth:`add`; :meth:`wait` is
    the client's ``flush()`` future.  Zero is announced with ``call_soon``,
    never inline: ack callbacks run synchronously, so an inline resolve
    would wake the flusher before the callbacks a caller added to the
    last send's future have run.
    """

    __slots__ = ("sim", "pending", "_future")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.pending = 0
        self._future: Optional[SimFuture] = None

    def add(self, fut: SimFuture) -> None:
        """Count ``fut`` in flight until it resolves (value or exception)."""
        self.pending += 1
        fut.add_callback(self)

    def __call__(self, fut: SimFuture) -> None:
        """The ack callback: one send resolved."""
        self.pending -= 1
        if self.pending == 0 and self._future is not None:
            self.sim.call_soon(self._future.set_result)
            self._future = None

    def wait(self) -> SimFuture:
        """Resolves once nothing is in flight (already, if that is now)."""
        if self.pending == 0:
            done = SimFuture(self.sim)
            done.set_result(None)
            return done
        if self._future is None:
            self._future = SimFuture(self.sim)
        return self._future

