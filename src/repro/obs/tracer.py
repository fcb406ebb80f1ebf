"""Span tracing on simulated time.

The model is deliberately small and deterministic:

* Span IDs are an incrementing counter — two same-seed runs produce
  byte-identical traces, which the golden-trace tests rely on.
* Context propagation is *explicit*: sim processes interleave on one
  Python thread, so ambient (thread-local) context would attribute spans
  to whichever process happened to run last.  Instead the parent span is
  threaded through the call path as an optional argument, mirroring how
  the fault engine is threaded through the same choke points.
* Shared spans (a client batch, a DurableLog frame, a replicated ledger
  entry, a journal group-commit) are **absorbed** into every waiter:
  each waiting event experiences the full shared duration, so per-event
  component sums stay additive without dividing shared work.
* The critical-path buckets are ``network``, ``fsync`` and ``quorum``;
  whatever part of an event's latency no component claims is queueing
  (batching windows, FIFO servers, admission gates), computed as the
  residual so the four buckets always sum exactly to the measured ack
  latency.
"""

from __future__ import annotations

from fnmatch import fnmatch
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Span", "Tracer"]


class Span:
    """One timed operation; ``start``/``end`` are sim-clock seconds."""

    __slots__ = (
        "tracer",
        "span_id",
        "parent",
        "name",
        "actor",
        "start",
        "end",
        "attrs",
        "components",
        "annotations",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent: Optional["Span"],
        name: str,
        actor: str,
        start: float,
        attrs: Dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.actor = actor
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs
        self.components: Dict[str, float] = {}
        self.annotations: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    @property
    def parent_id(self) -> int:
        return self.parent.span_id if self.parent is not None else 0

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def child(self, name: str, actor: Optional[str] = None, start: Optional[float] = None, **attrs: Any) -> "Span":
        return self.tracer.span(
            name, parent=self, actor=self.actor if actor is None else actor, start=start, **attrs
        )

    def component(self, kind: str, dt: float) -> None:
        """Accrue ``dt`` seconds of ``kind`` (network/fsync/quorum) time."""
        self.components[kind] = self.components.get(kind, 0.0) + dt

    def absorb(self, other: "Span") -> None:
        """Fold a shared child span's components into this span."""
        for kind, dt in other.components.items():
            self.components[kind] = self.components.get(kind, 0.0) + dt

    def annotate(self, label: str, **data: Any) -> None:
        entry = {"label": label}
        entry.update(data)
        self.annotations.append(entry)

    def finish(self, end: Optional[float] = None) -> None:
        self.end = self.tracer.sim.now if end is None else end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.span_id}, {self.name!r}, actor={self.actor!r}, [{self.start}, {self.end}])"


class Tracer:
    """Factory and registry for spans over one simulation.

    A disabled tracer (``enabled=False``) returns ``None`` from
    :meth:`span`, so every downstream ``if span is not None`` guard
    short-circuits and no span objects are ever allocated —
    ``spans_created`` stays zero, which the overhead guard test asserts.
    """

    def __init__(self, sim, enabled: bool = True) -> None:
        self.sim = sim
        self.enabled = enabled
        self.spans: List[Span] = []
        self.spans_created = 0
        #: (start, end, action, target) windows recorded by the fault engine
        self.fault_windows: List[Tuple[float, float, str, str]] = []
        self._next_id = 1
        self._stamped_windows = 0

    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        parent: Optional[Span] = None,
        actor: str = "sim",
        start: Optional[float] = None,
        **attrs: Any,
    ) -> Optional[Span]:
        if not self.enabled:
            return None
        span_id = self._next_id
        self._next_id += 1
        self.spans_created += 1
        span = Span(
            self,
            span_id,
            parent,
            name,
            actor,
            self.sim.now if start is None else start,
            attrs,
        )
        self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    # Fault-window stamping (PR 2 integration)
    # ------------------------------------------------------------------
    def record_fault_window(self, start: float, end: float, action: str, target: str) -> None:
        """Called by the fault engine when a windowed fault activates."""
        self.fault_windows.append((start, end, action, target))

    def stamp_fault_windows(self) -> int:
        """Annotate every finished span overlapping an active fault window.

        Idempotent: windows already stamped in a previous call are skipped,
        so exporting twice does not duplicate annotations.  Returns the
        number of annotations added.
        """
        fresh = self.fault_windows[self._stamped_windows:]
        self._stamped_windows = len(self.fault_windows)
        if not fresh:
            return 0
        added = 0
        for span in self.spans:
            if span.end is None:
                continue
            for window_start, window_end, action, target in fresh:
                if span.start < window_end and window_start < span.end and _target_matches(span.actor, target):
                    span.annotate(
                        f"fault:{action}",
                        target=target,
                        window_start=window_start,
                        window_end=window_end,
                    )
                    added += 1
        return added


def _target_matches(actor: str, target: str) -> bool:
    """Match a span's actor against a fault-rule target pattern.

    Node rules use fnmatch patterns (``bookie-*``); network rules use
    link patterns (``src->dst``) — a span on either endpoint overlapping
    the window is considered affected.
    """
    if actor is None:
        return False
    if "<->" in target:
        src, _, dst = target.partition("<->")
        return fnmatch(actor, src.strip()) or fnmatch(actor, dst.strip())
    if "->" in target:
        src, _, dst = target.partition("->")
        return fnmatch(actor, src.strip()) or fnmatch(actor, dst.strip())
    return fnmatch(actor, target)
