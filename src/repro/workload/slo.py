"""Per-tenant SLO evaluation: windowed SLIs, error budget, burn rate.

Semantics (SRE-standard, evaluated over the measurement window):

* **Availability SLI** — acknowledged events / offered events.  The
  error budget is ``1 - availability_target``; the **burn rate** is the
  bad-event fraction divided by the budget (burn <= 1 means the tenant
  finished the run with budget to spare).  Events still unacknowledged
  when the window closes count against the budget — an infinitely
  latent ack is indistinguishable from a loss to the tenant.
* **Latency SLI** — the run is bucketed into fixed windows
  (``WINDOW`` seconds); a window is *good* when its p99 write latency is
  under ``p99_latency``.  The latency compliance is good windows /
  total windows, compared against ``LATENCY_COMPLIANCE``.

``SloTracker`` doubles as the runner's observer (``on_sent`` /
``on_ack`` hooks), so SLO accounting rides the existing ack path with
no extra simulation events.
Reports flatten into ``BenchResult.extra`` as ``slo.*`` floats
(JSON-ready for the figure suite).

``sustainable_verdict`` is the one feasibility verdict of a probe run:
the capacity planner feeds it each tenant's ``slo_margin``, a figure's
max-throughput search its probe's ``saturation_margin``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.common.metrics import percentile

__all__ = [
    "LATENCY_COMPLIANCE",
    "WINDOW",
    "SloSpec",
    "SloTracker",
    "capacity_report",
    "saturation_margin",
    "slo_margin",
    "sustainable_verdict",
]


#: required fraction of evaluation windows meeting the p99 target
LATENCY_COMPLIANCE = 0.95
#: evaluation window length, seconds
WINDOW = 1.0
#: a max-throughput probe must ack at least this share of its offered
#: events in the window ...
SATURATION_ACKED = 0.9
#: ... with a write p95 of at most this many seconds
SATURATION_P95 = 1.0


@dataclass(frozen=True)
class SloSpec:
    """A tenant's service-level objective."""

    #: p99 write (ack) latency target per evaluation window, seconds
    p99_latency: float = 0.050
    #: fraction of offered events that must be acknowledged
    availability: float = 0.999

    def __post_init__(self) -> None:
        # bad configs fail here, not mid-run
        if not self.p99_latency > 0:
            raise ValueError(f"p99_latency must be > 0, got {self.p99_latency!r}")
        if not 0 < self.availability <= 1:
            raise ValueError(f"availability must be in (0, 1], got {self.availability!r}")


@dataclass
class _Window:
    sent: int = 0
    acked: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)


class SloTracker:
    """Windowed SLO accounting fed by the workload engine."""

    def __init__(self, spec: SloSpec, start: float, end: float) -> None:
        self.spec = spec
        self.start = start
        self.end = end
        self._windows: Dict[int, _Window] = {}

    def _window(self, now: float) -> Optional[_Window]:
        if not (self.start <= now < self.end):
            return None
        index = int((now - self.start) / WINDOW)
        win = self._windows.get(index)
        if win is None:
            win = self._windows[index] = _Window()
        return win

    # -- observer hooks (called from the runner's hot path) ------------
    def on_sent(self, now: float, count: int) -> None:
        win = self._window(now)
        if win is not None:
            win.sent += count

    def on_ack(self, send_time: float, count: int, latency: float, ok: bool) -> None:
        # Attribution is by *send* time: a tenant judges the request it
        # offered in a window, however late the ack straggles in.
        win = self._window(send_time)
        if win is None:
            return
        if ok:
            win.acked += count
            win.latencies.append(latency)
        else:
            win.failed += count

    # -- evaluation ----------------------------------------------------
    def report(self) -> Dict[str, float]:
        spec = self.spec
        total_windows = max(1, int(round((self.end - self.start) / WINDOW)))
        sent = acked = failed = 0
        latency_bad = 0
        worst_p99 = 0.0
        for index in range(total_windows):
            win = self._windows.get(index, _Window())
            sent += win.sent
            acked += win.acked
            failed += win.failed
            if win.latencies:
                p99 = percentile(sorted(win.latencies), 0.99)
            elif win.sent:
                p99 = float("inf")  # offered but nothing acked: latency ran away
            else:
                p99 = 0.0
            worst_p99 = max(worst_p99, p99)
            if p99 > spec.p99_latency:
                latency_bad += 1
        availability = acked / sent if sent else 1.0
        budget = 1.0 - spec.availability
        burn_rate = (1.0 - availability) / budget if budget > 0 else (
            0.0 if availability >= 1.0 else float("inf")
        )
        compliance = (total_windows - latency_bad) / total_windows
        ok = burn_rate <= 1.0 and compliance >= LATENCY_COMPLIANCE
        return {
            "windows": float(total_windows),
            "latency_bad_windows": float(latency_bad),
            "latency_compliance": compliance,
            "worst_window_p99": worst_p99,
            "offered": float(sent),
            "acked": float(acked),
            "failed": float(failed),
            "availability": availability,
            "burn_rate": burn_rate,
            "budget_remaining": max(0.0, 1.0 - burn_rate),
            "ok": 1.0 if ok else 0.0,
        }

    def emit(self, extra: Dict[str, float], prefix: str = "slo.") -> None:
        for key, value in self.report().items():
            extra[f"{prefix}{key}"] = value


def slo_margin(report: Dict[str, float]) -> float:
    """Signed SLO headroom of one tenant report, in budget units.

    The margin is the minimum of two normalized slacks:

    * **error budget** — ``1 - burn_rate``: 0 means the availability
      budget is exactly spent, negative means overspent;
    * **latency compliance** — the compliance surplus over the target,
      normalized by the allowed bad-window fraction, so "one spare bad
      window" scores comparably to "one spare nine".

    Feasibility for the capacity planner is ``margin > 0``; the value
    itself is the distance to the SLO boundary, which the planner
    records per probe so a capacity map shows *how close* each found
    rate sits to the cliff.
    """
    budget_slack = 1.0 - report.get("burn_rate", 0.0)
    allowed_bad = 1.0 - LATENCY_COMPLIANCE
    latency_slack = (
        report.get("latency_compliance", 1.0) - LATENCY_COMPLIANCE
    ) / allowed_bad
    return min(budget_slack, latency_slack)


def saturation_margin(result) -> float:
    """Signed headroom of one max-throughput probe run (a
    :class:`~repro.bench.results.BenchResult` at a constant offered rate).

    The probe sustains its rate when it acks at least
    ``SATURATION_ACKED`` of the offered events in the window and its
    write p95 stays within ``SATURATION_P95`` — a latency that runs away
    means queues growing without bound.  The margin is the smaller of the
    two slacks, each relative to its bound, so ``margin > 0`` is exactly
    "neither bound is crossed".
    """
    acked_slack = result.produce_rate / (SATURATION_ACKED * result.target_rate) - 1.0
    p95 = result.write_latency.p95
    latency_slack = 1.0 - p95 / SATURATION_P95 if p95 == p95 else 1.0  # NaN: no ack
    return min(acked_slack, latency_slack)


def sustainable_verdict(runs: Mapping[str, Tuple[object, float]]) -> Dict[str, object]:
    """The one feasibility verdict: one probe run, whole or per tenant.

    ``runs`` maps a name to ``(result, objective margin)``: the run's
    :class:`~repro.bench.results.BenchResult` and the signed headroom of
    its objective — :func:`slo_margin` of a capacity tenant's SLO report,
    :func:`saturation_margin` of a figure probe.  A rate is
    *sustainable* (Karimov et al.'s definition) when every objective
    held, no backend crashed, and the run completed without hitting its
    load timeout — the timeout is the "unbounded backlog" signal: an
    open loop that cannot drain its backlog cap never finishes load
    generation.  A run whose driver shed ticks at that cap is infeasible
    too (margin at most -1): the load it did not offer is missing from
    its measurements, which may then look fine.
    """
    margins: Dict[str, float] = {}
    crashed = False
    completed = True
    shed_ticks = 0
    for name, (run, objective) in runs.items():
        margins[name] = objective
        crashed = crashed or run.crashed
        completed = completed and not run.extra.get("load_timed_out")
        shed = int(run.extra["shed_ticks"])
        if shed:
            margins[name] = min(margins[name], -1.0)
            shed_ticks += shed
    margin = min(margins.values()) if margins else 0.0
    if not completed or crashed:
        # backlog never drained, or a backend died: the violation is at
        # least a full budget
        margin = min(margin, -1.0)
    return {
        "feasible": completed and not crashed and margin > 0.0,
        "margin": margin,
        "margins": margins,
        "completed": completed,
        "crashed": crashed,
        "shed_ticks": shed_ticks,
    }


def capacity_report(tenant_reports: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Cross-tenant capacity summary from per-tenant SLO reports.

    ``headroom`` is the acked/offered ratio (1.0 = keeping up); a tenant
    with headroom < 1 and a busted budget is under-provisioned, while
    ``ok`` tenants with headroom ~1.0 have room for rate growth.
    """
    out: Dict[str, Dict[str, float]] = {}
    for name, report in tenant_reports.items():
        offered = report.get("offered", 0.0)
        acked = report.get("acked", 0.0)
        out[name] = {
            "headroom": acked / offered if offered else 1.0,
            "burn_rate": report.get("burn_rate", 0.0),
            "latency_compliance": report.get("latency_compliance", 1.0),
            "meets_slo": report.get("ok", 0.0),
        }
    return out
