"""Hybrid fluid/discrete simulation: analytic spans between discrete phases.

The discrete kernel simulates every message; at hundreds of thousands of
events per second most of that work re-derives the same steady state
tick after tick.  The fluid controller replaces those stretches with a
conservation-law model — the classic fluid limit of a queueing system:

* ``S(t)`` cumulative events offered, ``A(t)`` cumulative events
  acknowledged, ``B(t) = S(t) - A(t)`` the in-flight backlog;
* during an analytic span, ``dS = lambda dt`` (the calibrated offered
  rate, held steady by the arrival process's ``steady_until`` export)
  and ``dA = min(B + dS, mu dt)`` (the calibrated service rate), with
  the open loop's backlog cap clamping ``dS`` exactly as the discrete
  producer's per-tick check would;
* ack latency is the calibration sample's empirical distribution,
  shifted by the extra queueing delay ``(B_send - B_cal)/mu`` a FIFO
  system imposes once the backlog drifts from its calibrated level.

The controller runs as an ordinary sim process attached to one
:class:`~repro.bench.runner.WorkloadEngine`:

1. **settle** — let connection setup and first-batch effects pass;
2. **calibrate** — measure ``lambda``, ``mu``, the ack-latency
   distribution, per-resource counter derivatives and the kernel event
   rate over a short discrete slice, split into two halves whose rates
   must agree (stationarity check) before any span is trusted;
3. **jump** — gate the producers on a future, advance time in
   ``step``-sized strides while integrating the flow model and a chunked
   FIFO of send times (so measurement-window and ack-grace accounting
   match the discrete driver's rules), then extrapolate every registered
   resource's counters and release the gate;
4. **fall back** — refuse or end spans at anything the model cannot
   carry through analytically: consumers, auto-scaling policies,
   stochastic fault rules, bursty (MMPP) arrivals, scheduled fault
   windows, arrival-rate drift past ``RATE_TOL``, and resource-announced
   regime changes (a page cache about to hit its dirty limit).  Whatever cannot be jumped is simply simulated
   discretely — correctness never depends on the fluid path.

Everything here is strictly opt-in (``WorkloadSpec.fluid`` is the one
switch); with it off, no controller is created and the kernel's
byte-for-byte determinism is untouched.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

__all__ = ["FluidSpec", "FluidController", "fault_breakpoints"]

#: discrete time to let the system warm its pipelines before the first
#: calibration (connection setup, first batches, first fsync).  Probes
#: keep it too: calibrating before the first batches and fsync pipelines
#: have warmed measures a low ``lambda`` and the whole analytic span
#: under-produces — a probe would then read "infeasible" at rates the
#: system holds easily.
SETTLE_TIME = 0.1
#: minimum acked *events* a calibration slice must observe
MIN_SAMPLES = 32
#: relative arrival-rate drift that ends a span (steady_until export)
RATE_TOL = 0.05
#: backlog growth below this fraction of the offered rate is treated as
#: keeping-up (B held constant); above it, as saturated (B grows)
BACKLOG_GROWTH_FLOOR = 0.02
#: resolution of the resampled calibration latency distribution
QUANTILE_POINTS = 129


@dataclass(frozen=True)
class FluidSpec:
    """Tuning knobs for the hybrid fluid/discrete controller."""

    #: maximum length of one calibration slice (split into two halves);
    #: high-rate runs shrink it toward ``min_calibration_time`` once the
    #: settle window shows the target sample count arrives faster
    calibration_time: float = 0.25
    #: floor for an adaptively shortened calibration slice
    min_calibration_time: float = 0.06
    #: acked events per calibration half the adaptive length aims for
    calibration_target_samples: float = 4000.0
    #: analytic integration stride: counters, histograms and SLO windows
    #: advance in steps of this many simulated seconds
    step: float = 0.25
    #: never start an analytic span shorter than this — the gate/baseline
    #: handshake costs a couple of ticks of discrete time
    min_jump: float = 0.5
    #: relative rate disagreement allowed between calibration halves
    #: (plus a Poisson-counting allowance) before the slice is rejected
    stationarity_tol: float = 0.15
    #: failed calibrations tolerated before giving up on fluid entirely
    max_recalibrations: int = 8

    def __post_init__(self) -> None:
        # bad configs fail here, not mid-run: step=0 strides the jump
        # loop by zero simulated seconds forever
        for name in ("calibration_time", "min_calibration_time", "step", "min_jump"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        for name in ("calibration_target_samples", "stationarity_tol", "max_recalibrations"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")

    @classmethod
    def probe(cls) -> "FluidSpec":
        """Knobs tuned for capacity-planner bracketing probes.

        A bracketing probe only needs the feasibility *sign* at one
        offered rate, not a faithful latency distribution, so it trades
        calibration fidelity for wall clock: the shortest trustworthy
        settle/calibration slices, long analytic strides, and a relaxed
        stationarity gate (a saturating probe is *expected* to drift —
        rejecting its calibration would forfeit the speedup exactly
        where the planner probes most).  Boundary decisions must not
        use this: the planner hands the bracket off to discrete-mode
        confirmation runs (DESIGN.md §11).  The settle time is the
        shared ``SETTLE_TIME``.
        """
        return cls(
            calibration_time=0.15,
            min_calibration_time=0.04,
            calibration_target_samples=1000.0,
            step=0.5,
            min_jump=0.25,
            stationarity_tol=0.35,
            max_recalibrations=4,
        )


class _Calibration:
    """Everything one calibration slice measured."""

    __slots__ = (
        "lam",
        "mu",
        "ack_rate",
        "saturated",
        "b_ref",
        "latencies",
        "p50",
        "p99",
        "event_rate",
        "res",
        "res_rates",
        "throttle",
    )

    def __init__(
        self,
        lam: float,
        mu: float,
        ack_rate: float,
        saturated: bool,
        b_ref: float,
        latencies: List[float],
        event_rate: float,
        res: List[object],
        res_rates: List[Tuple[float, ...]],
        throttle: Optional[Tuple[float, float]] = None,
    ) -> None:
        self.lam = lam
        self.mu = mu
        self.ack_rate = ack_rate
        self.saturated = saturated
        self.b_ref = b_ref
        self.latencies = latencies
        from repro.common.metrics import percentile

        self.p50 = percentile(latencies, 0.50)
        self.p99 = percentile(latencies, 0.99)
        self.event_rate = event_rate
        self.res = res
        self.res_rates = res_rates
        #: (absolute onset time, sustainable fraction of ``mu``) when a
        #: backend throttle (tiering backpressure) is on course to engage
        self.throttle = throttle


def fault_breakpoints(fault_engine, epoch: float) -> Tuple[List[float], Optional[str]]:
    """Discrete-mode windows a fault plan imposes on the fluid schedule.

    Scheduled (``at=``) rules yield two breakpoints: the injection time
    and a post-recovery instant (duration + downtime + 1 s of margin) —
    the span planner never jumps across either.  Stochastic rules
    (``probability`` / ``on_op``) depend on individual ops the fluid
    model does not simulate, so they refuse fluid mode outright, as do
    repeating schedules.
    """
    plan = getattr(fault_engine, "plan", None)
    rules = getattr(plan, "rules", ()) if plan is not None else ()
    points: List[float] = []
    for rule in rules:
        if getattr(rule, "at", None) is None:
            return [], "stochastic-faults"
        if getattr(rule, "repeat", False):
            return [], "repeating-faults"
        start = epoch + rule.at + getattr(rule, "delay", 0.0)
        end = start + getattr(rule, "duration", 0.0) + getattr(rule, "downtime", 0.0) + 1.0
        points.append(start)
        points.append(end)
    return sorted(points), None


def _weighted_quantiles(
    samples: List[Tuple[float, int]], total: int, points: int
) -> List[float]:
    """Resample a sorted, weighted latency sample onto a fixed grid."""
    out: List[float] = []
    index = 0
    cum = samples[0][1]
    for i in range(points):
        target = (i + 0.5) / points * total
        while cum < target and index + 1 < len(samples):
            index += 1
            cum += samples[index][1]
        out.append(samples[index][0])
    return out


class _FluidFlow:
    """State of one analytic span: the conservation ODE plus a chunked
    FIFO of (count, send time, backlog-at-send) groups, so the window /
    ack-grace bookkeeping matches the discrete driver rule for rule."""

    __slots__ = (
        "ctl",
        "cal",
        "B",
        "fifo",
        "carry_s",
        "carry_a",
        "cap",
        "grace_end",
        "onset",
        "mu_throttled",
    )

    def __init__(self, ctl: "FluidController", cal: _Calibration, t0: float) -> None:
        self.ctl = ctl
        self.cal = cal
        eng = ctl.engine
        counters = eng.counters
        self.B = float(counters.sent_events - counters.produced_events)
        self.carry_s = 0.0
        self.carry_a = 0.0
        self.cap = eng.spec.effective_backlog_cap
        self.grace_end = eng.window_end + eng.spec.ack_grace
        # Piecewise service rate: past a backend throttle's onset, the
        # sustainable ack rate drops to the flush-bandwidth share of the
        # calibrated rate (tiering backpressure, §4.3).  Only saturated
        # spans carry the schedule — a keeping-up calibration's byte-rate
        # gap is dominated by one-time pipeline fill, so those spans end
        # at the projected onset instead (see ``_plan``).
        self.onset: Optional[float] = None
        self.mu_throttled = cal.mu
        if cal.throttle is not None and cal.saturated:
            self.onset = cal.throttle[0]
            self.mu_throttled = max(cal.mu * cal.throttle[1], 1e-9)
        #: FIFO of [events, send_time, backlog_at_send, in_window]
        self.fifo: Deque[list] = deque()
        backlog = int(round(self.B))
        if backlog > 0:
            # Attribute the standing backlog to the send times that
            # produced it (the last B/lambda seconds at rate lambda).
            span = backlog / max(cal.lam, 1.0)
            chunks = min(8, max(1, int(span / 0.25) + 1))
            base, extra = divmod(backlog, chunks)
            position = 0
            for i in range(chunks):
                count = base + (1 if i < extra else 0)
                if count <= 0:
                    continue
                send_t = t0 - span * (1.0 - (i + 0.5) / chunks)
                in_window = eng.window_start <= send_t < eng.window_end
                self.fifo.append(
                    [count, send_t, float(position) + count / 2.0, in_window]
                )
                position += count

    # ------------------------------------------------------------------
    def advance(self, prev: float, now: float) -> None:
        """Integrate the flow model over one stride [prev, now]."""
        ctl = self.ctl
        eng = ctl.engine
        cal = self.cal
        counters = eng.counters
        observer = eng.observer
        dt = now - prev
        if dt <= 0.0:
            return
        onset = self.onset
        if onset is not None and prev < onset < now:
            self.advance(prev, onset)
            self.advance(onset, now)
            return
        if onset is not None and prev >= onset - 1e-12:
            mu = self.mu_throttled
        else:
            mu = max(cal.mu, 1e-9)
        # Offered events: only while load generation is on.
        active_dt = max(0.0, min(now, eng.load_end) - prev)
        offered = cal.lam * active_dt
        # Open-loop backlog cap, as the per-tick producer check enforces.
        ds = min(offered, max(0.0, self.cap - self.B + mu * dt))
        da = min(self.B + ds, mu * dt)
        self.carry_s += ds
        s_int = int(self.carry_s)
        self.carry_s -= s_int
        self.carry_a += da
        a_int = int(self.carry_a)
        self.carry_a -= a_int
        b_mid = max(self.B + (ds - da) / 2.0, 0.0)
        self.B = max(self.B + ds - da, 0.0)
        if s_int > 0:
            counters.sent_events += s_int
            self._append_sends(s_int, prev, prev + active_dt, b_mid)
            if observer is not None:
                observer.on_sent(prev + active_dt / 2.0, s_int)
        if a_int > 0:
            counters.produced_events += a_int
            self._drain(a_int, prev, mu)

    def _append_sends(self, count: int, t0: float, t1: float, b_mid: float) -> None:
        """Queue this stride's sends, split at measurement-window edges
        so in-window classification stays exact, not per-stride."""
        eng = self.ctl.engine
        edges = [t0]
        for edge in (eng.window_start, eng.window_end):
            if t0 < edge < t1:
                edges.append(edge)
        edges.append(t1)
        total = t1 - t0
        assigned = 0
        for left, right in zip(edges, edges[1:]):
            share = count - assigned if right == edges[-1] else int(
                round(count * (right - left) / total)
            )
            if share <= 0:
                continue
            assigned += share
            mid = (left + right) / 2.0
            in_window = eng.window_start <= mid < eng.window_end
            self.fifo.append([share, mid, b_mid, in_window])

    def _drain(self, count: int, stride_start: float, mu: float) -> None:
        """Acknowledge ``count`` events off the FIFO head.

        Within a stride, acks pace at ``mu``; a chunk straddling the
        ack-grace cutoff is credited only for the events acknowledged in
        time — the same boundary the discrete ``_ack`` callback applies.
        """
        ctl = self.ctl
        eng = ctl.engine
        cal = self.cal
        result = eng.result
        observer = eng.observer
        grace_end = self.grace_end
        drained = 0
        while count > 0 and self.fifo:
            chunk = self.fifo[0]
            take = chunk[0] if chunk[0] < count else count
            send_t = chunk[1]
            shift = max(0.0, (chunk[2] - cal.b_ref)) / mu
            ack_start = stride_start + drained / mu
            if chunk[3]:  # sent in-window: ack-grace credit applies
                if ack_start + take / mu <= grace_end:
                    credited = take
                elif ack_start >= grace_end:
                    credited = 0
                else:
                    credited = int(mu * (grace_end - ack_start))
                if credited > 0:
                    eng.counters.produced_window += credited
                    result.write_latency.record_bulk(cal.latencies, credited, shift)
            if observer is not None:
                if take > 1:
                    observer.on_ack(send_t, take - 1, cal.p50 + shift, True)
                    observer.on_ack(send_t, 1, cal.p99 + shift, True)
                else:
                    observer.on_ack(send_t, take, cal.p50 + shift, True)
            drained += take
            count -= take
            if chunk[0] > take:
                chunk[0] -= take
                break
            self.fifo.popleft()


class FluidController:
    """Drives one workload engine through analytic spans.

    Public state the engine's hot path reads:

    * ``gate`` — a future producers block on while a span is active
      (``None`` otherwise; one pointer check per tick when idle);
    * ``active`` — acks arriving for pre-span in-flight sends are
      swallowed while set (the flow integration owns their accounting);
    * ``calibrating`` — ack latencies are sampled into ``cal_samples``.
    """

    def __init__(self, sim, engine, fspec: Optional[FluidSpec] = None, fault_engine=None) -> None:
        self.sim = sim
        self.engine = engine
        self.fspec = fspec or FluidSpec()
        self.fault_engine = fault_engine
        self.gate = None
        self.active = False
        self.calibrating = False
        self.cal_samples: List[Tuple[float, int]] = []
        self.windows: List[Tuple[float, float]] = []
        self.refusal: Optional[str] = None
        self.spans = 0
        self.fluid_time = 0.0
        self.events_avoided = 0.0
        self.recalibrations = 0
        self.breakpoints: List[float] = []
        #: ack rate observed over the last settle window; sizes the
        #: adaptive calibration slice
        self.rate_hint = 0.0
        #: doubles on every rejected slice (ack cadence too bursty for a
        #: short window), resets on success — a backoff toward the full
        #: ``calibration_time``
        self.cal_boost = 1.0

    def start(self) -> None:
        self.sim.process(self._run())

    # ------------------------------------------------------------------
    def _kernel_events(self) -> int:
        stats = self.sim.stats
        return stats.events_executed + stats.microtasks_executed

    def _preflight(self) -> Optional[str]:
        eng = self.engine
        spec = eng.spec
        if spec.consumers > 0:
            return "consumers"
        policy = getattr(eng.client, "scaling_policy", None)
        if policy is None:
            policy = getattr(eng.client, "scaling", None)
        if policy is not None:
            scale_type = getattr(policy, "scale_type", None)
            if scale_type is not None and getattr(scale_type, "name", "FIXED") != "FIXED":
                return "auto-scaling"
        if spec.arrival is not None and not hasattr(spec.arrival, "steady_until"):
            return "arrival-opaque"
        if self.fault_engine is not None:
            points, reason = fault_breakpoints(self.fault_engine, eng.epoch)
            if reason is not None:
                return reason
            self.breakpoints = points
        fspec = self.fspec
        overhead = SETTLE_TIME + fspec.calibration_time + fspec.min_jump
        if eng.load_end - eng.epoch <= overhead:
            return "run-too-short"
        return None

    # ------------------------------------------------------------------
    def _run(self):
        self.refusal = self._preflight()
        if self.refusal is not None:
            return
        sim = self.sim
        eng = self.engine
        fspec = self.fspec
        acks0 = eng.counters.produced_events
        yield SETTLE_TIME
        self.rate_hint = (eng.counters.produced_events - acks0) / SETTLE_TIME
        while sim.now < eng.load_end - 1e-9:
            cal = yield from self._calibrate()
            if cal is None:
                self.recalibrations += 1
                self.cal_boost *= 2.0
                if self.recalibrations > fspec.max_recalibrations:
                    self.refusal = "unstable"
                    return
                continue
            self.cal_boost = 1.0
            target = self._plan(cal)
            if cal.saturated and target < eng.load_end - 1e-9:
                # A saturated span that ends mid-run would hand an empty
                # discrete pipeline back where a deep queue belongs —
                # cross the stretch discretely instead.
                target = sim.now
            if target - sim.now < fspec.min_jump:
                wait = min(max(fspec.min_jump, 0.5), eng.load_end - sim.now)
                if wait <= 1e-9:
                    return
                yield wait
                continue
            yield from self._jump(cal, target)
            if sim.now < eng.load_end - 1e-9:
                # A span ended mid-run restarts the discrete machinery
                # cold (empty pipelines, idle flush loops); let it refill
                # before trusting another calibration slice.
                acks0 = eng.counters.produced_events
                yield SETTLE_TIME
                self.rate_hint = (eng.counters.produced_events - acks0) / SETTLE_TIME

    # ------------------------------------------------------------------
    def _calibrate(self):
        sim = self.sim
        eng = self.engine
        fspec = self.fspec
        counters = eng.counters
        half = fspec.calibration_time / 2.0
        if self.rate_hint > 0.0:
            # Enough acks arrive fast: shrink the discrete slice so the
            # calibration overhead scales down as the event rate goes up.
            # Rejected slices back the shrink off (cal_boost) — bursty
            # ack cadences need a longer window to look stationary.
            half = min(
                half,
                max(
                    fspec.min_calibration_time / 2.0,
                    fspec.calibration_target_samples / self.rate_hint,
                )
                * self.cal_boost,
            )
        self.cal_samples = []
        self.calibrating = True
        events0 = self._kernel_events()
        res = list(sim.fluid_resources)
        snap0 = [r.fluid_snapshot() for r in res]
        s0, a0 = counters.sent_events, counters.produced_events
        yield half
        s1, a1 = counters.sent_events, counters.produced_events
        yield half
        self.calibrating = False
        s2, a2 = counters.sent_events, counters.produced_events
        events2 = self._kernel_events()
        snap2 = [r.fluid_snapshot() for r in res]
        samples = self.cal_samples
        self.cal_samples = []
        total = sum(n for _, n in samples)
        if total < MIN_SAMPLES:
            return None
        cal_dt = 2.0 * half
        lam1, lam2 = (s1 - s0) / half, (s2 - s1) / half
        mu1, mu2 = (a1 - a0) / half, (a2 - a1) / half
        lam = (s2 - s0) / cal_dt
        ack_rate = (a2 - a0) / cal_dt
        if lam <= 0.0:
            return None

        def tolerance(rate: float) -> float:
            noise = 6.0 * math.sqrt(max(rate * half, 1.0)) / half
            return fspec.stationarity_tol * max(rate, 1.0) + noise

        if abs(lam1 - lam2) > tolerance(lam) or abs(mu1 - mu2) > tolerance(ack_rate):
            return None
        growth = lam - ack_rate
        noise = 2.0 * math.sqrt(max(lam * cal_dt, 1.0)) / cal_dt
        saturated = growth > max(BACKLOG_GROWTH_FLOOR * lam, noise)
        samples.sort(key=lambda pair: pair[0])
        latencies = _weighted_quantiles(samples, total, QUANTILE_POINTS)
        res_rates = [
            tuple((after - before) / cal_dt for before, after in zip(sa, sb))
            for sa, sb in zip(snap0, snap2)
        ]
        # Backend throttles (tiering backpressure): components whose
        # unflushed backlog is growing announce when their admission gate
        # will close and what byte rates they saw.  Past the earliest
        # onset, conservation across the watermark hysteresis cycle caps
        # the long-run admitted rate at the aggregate flush bandwidth.
        throttle = None
        eta_min = math.inf
        flush_sum = growth_sum = 0.0
        for resource, rates in zip(res, res_rates):
            probe = getattr(resource, "fluid_throttle", None)
            if probe is None:
                continue
            info = probe(rates)
            if info is None:
                continue
            eta, flush, growth = info
            eta_min = min(eta_min, eta)
            flush_sum += flush
            growth_sum += growth
        if eta_min < math.inf and flush_sum + growth_sum > 0.0:
            throttle = (sim.now + eta_min, flush_sum / (flush_sum + growth_sum))
        return _Calibration(
            lam=lam,
            mu=ack_rate if saturated else lam,
            ack_rate=ack_rate,
            saturated=saturated,
            b_ref=float(s2 - a2),
            latencies=latencies,
            event_rate=(events2 - events0) / cal_dt,
            res=res,
            res_rates=res_rates,
            throttle=throttle,
        )

    # ------------------------------------------------------------------
    def _plan(self, cal: _Calibration) -> float:
        sim = self.sim
        eng = self.engine
        now = sim.now
        candidates = [eng.load_end]
        spec = eng.spec
        if spec.arrival is not None:
            rel = now - eng.epoch
            steady = spec.arrival.steady_until(rel, eng.load_end - eng.epoch, RATE_TOL)
            candidates.append(eng.epoch + steady)
        upcoming = [bp for bp in self.breakpoints if bp > now + 1e-9]
        if upcoming:
            candidates.append(min(upcoming))
        if cal.throttle is not None and not cal.saturated:
            # A keeping-up span must not jump past the moment tiering
            # backpressure would engage — end it there and recalibrate.
            # (Saturated spans jump through: the flow's piecewise-mu
            # schedule models the throttled regime analytically.)
            candidates.append(cal.throttle[0])
        for resource, rates in zip(cal.res, cal.res_rates):
            eta = getattr(resource, "fluid_transition_eta", None)
            if eta is not None:
                horizon = eta(rates)
                if horizon == horizon:  # NaN guard
                    candidates.append(now + horizon)
        return min(candidates)

    # ------------------------------------------------------------------
    def _jump(self, cal: _Calibration, target: float):
        sim = self.sim
        eng = self.engine
        fspec = self.fspec
        spec = eng.spec
        self.gate = sim.future()
        # Producers notice the gate at their next tick; give in-flight
        # tick bodies two ticks to finish so the baseline counters below
        # include every discrete send.
        yield 2.0 * spec.tick
        self.active = True
        t0 = sim.now
        events_start = self._kernel_events()
        res_base = [r.fluid_snapshot() for r in cal.res]
        flow = _FluidFlow(self, cal, t0)
        t = t0
        while t < target - 1e-9:
            dt = min(fspec.step, target - t)
            yield dt
            prev, t = t, sim.now
            flow.advance(prev, t)
        if target >= eng.load_end - 1e-9 and flow.fifo:
            # The span reached the end of load: drain the modelled
            # backlog analytically — the discrete epilogue (flush) has
            # nothing in its queues, all of it lives in the flow state.
            drain_cap = eng.epoch + spec.effective_load_timeout - 1.0
            while flow.fifo and sim.now < drain_cap:
                yield fspec.step
                prev, t = t, sim.now
                flow.advance(prev, t)
        span_dt = sim.now - t0
        # Land every registered resource exactly on the calibration
        # extrapolation: subtract whatever the discrete remnant (in-flight
        # drain, page-cache writeback) already advanced during the span.
        for resource, rates, base in zip(cal.res, cal.res_rates, res_base):
            current = resource.fluid_snapshot()
            adjusted = tuple(
                rate - (cur - start) / span_dt
                for rate, cur, start in zip(rates, current, base)
            )
            resource.fluid_advance(span_dt, adjusted)
        actual_events = self._kernel_events() - events_start
        self.events_avoided += max(0.0, cal.event_rate * span_dt - actual_events)
        self.windows.append((t0, sim.now))
        self.fluid_time += span_dt
        self.spans += 1
        self.active = False
        gate, self.gate = self.gate, None
        gate.set_result(None)
