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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.metrics import percentile

__all__ = [
    "LATENCY_COMPLIANCE",
    "WINDOW",
    "SloSpec",
    "SloTracker",
    "capacity_report",
    "slo_margin",
    "sustainable_verdict",
]


#: required fraction of evaluation windows meeting the p99 target
LATENCY_COMPLIANCE = 0.95
#: evaluation window length, seconds
WINDOW = 1.0


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


def sustainable_verdict(result, tenants) -> Dict[str, object]:
    """Feasibility verdict for one multi-tenant probe run.

    ``result`` is a :class:`~repro.workload.tenants.MultiTenantResult`;
    ``tenants`` the ``TenantSpec`` sequence that produced it.  A rate is
    *sustainable* (Karimov et al.'s definition) when every tenant's SLO
    held, no backend crashed, and the run completed without hitting its
    load timeout — the timeout is the "unbounded backlog" signal: an
    open loop that cannot drain its backlog cap never finishes load
    generation.  A tenant whose driver shed ticks at that cap is
    infeasible too (margin at most -1): the load it did not offer is
    missing from its SLO report, which may then look fine.
    """
    margins: Dict[str, float] = {}
    crashed = False
    shed_ticks = 0
    for tenant in tenants:
        run = result.results[tenant.name]
        margins[tenant.name] = slo_margin(result.slo[tenant.name])
        crashed = crashed or run.crashed
        shed = int(run.extra["shed_ticks"])
        if shed:
            margins[tenant.name] = min(margins[tenant.name], -1.0)
            shed_ticks += shed
    margin = min(margins.values()) if margins else 0.0
    if not result.completed:
        # backlog never drained: the violation is at least a full budget
        margin = min(margin, -1.0)
    if crashed:
        margin = min(margin, -1.0)
    feasible = result.completed and not crashed and margin > 0.0
    headrooms = [c["headroom"] for c in result.capacity.values()]
    return {
        "feasible": feasible,
        "margin": margin,
        "margins": margins,
        "completed": result.completed,
        "crashed": crashed,
        "shed_ticks": shed_ticks,
        "min_headroom": min(headrooms) if headrooms else 1.0,
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
