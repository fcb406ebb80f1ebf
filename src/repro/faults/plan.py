"""FaultPlan: a declarative, seeded schedule of faults to inject.

A plan is a list of :class:`FaultRule`.  Each rule names an *action*
(what breaks), a *target* (an ``fnmatch`` pattern over node / disk /
link / site names) and exactly one *trigger*:

``at=T``
    fire at simulated time ``T`` (relative to engine start);
``on_op=N``
    fire on the N-th matching operation observed at the injection
    point (1-based);
``probability=p``
    on every matching operation, fire with probability ``p`` drawn
    from the plan's own seeded RNG.

All randomness used while executing a plan comes from a private
``random.Random(plan.seed)``, so a plan replays bit-identically: the
same plan against the same workload produces the same injected-fault
log and the same simulated history.

Actions
-------
``crash``            crash the target node (no automatic restart)
``crash_restart``    crash the target node, restart after ``downtime``
``disk_stall``       add ``duration`` seconds of latency to disk I/O
``disk_fail``        disk I/O on the target completes with an error
``net_delay``        add ``delay`` seconds to messages on the link
``net_drop``         "drop" a message: it is retransmitted and arrives
                     ``delay`` seconds late (TCP semantics — see
                     DESIGN.md; permanent loss only happens on crash)
``net_partition``    all messages sent on the link during the window
                     are deferred until the partition heals
``zk_expire``        expire all zookeeper sessions of the target host
``recovery_crash``   crash recovery/replay itself at the target site
``lts_fail``         long-term-storage writes at the target site fail

Link targets use ``"src->dst"`` (directed) or ``"src<->dst"``
(both directions); each side is an fnmatch pattern.

Plans serialize to JSON (:meth:`FaultPlan.to_json` /
:meth:`FaultPlan.from_json`) so a failing fuzz schedule can be dumped
under ``tests/data/`` and replayed as a regression test.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import List, Optional

__all__ = ["FaultRule", "FaultPlan", "ACTIONS"]

ACTIONS = (
    "crash",
    "crash_restart",
    "disk_stall",
    "disk_fail",
    "net_delay",
    "net_drop",
    "net_partition",
    "zk_expire",
    "recovery_crash",
    "lts_fail",
)


@dataclass
class FaultRule:
    """One fault: an action on a target, fired by exactly one trigger."""

    action: str
    target: str = "*"
    # --- trigger (exactly one) ---
    at: Optional[float] = None
    on_op: Optional[int] = None
    probability: Optional[float] = None
    # --- action parameters ---
    duration: float = 0.0     # stall/fail/partition window length (seconds)
    delay: float = 0.0        # extra latency for net_delay / net_drop
    downtime: float = 0.1     # crash_restart: seconds until restart
    lose_unsynced: bool = False  # crash: drop page-cache-dirty writes
    repeat: bool = False      # on_op/probability: may fire more than once
    note: str = ""

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action: {self.action!r}")
        triggers = sum(
            x is not None for x in (self.at, self.on_op, self.probability)
        )
        if triggers != 1:
            raise ValueError(
                f"rule {self.action}/{self.target}: exactly one of "
                f"at/on_op/probability required, got {triggers}"
            )
        if self.probability is not None and not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"probability out of range: {self.probability}")
        if self.on_op is not None and self.on_op < 1:
            raise ValueError(f"on_op is 1-based, got {self.on_op}")


@dataclass
class FaultPlan:
    """A seeded schedule of fault rules.

    ``seed`` drives every probabilistic decision made while executing
    the plan; two runs of the same plan see identical fault sequences.
    """

    seed: int = 0
    rules: List[FaultRule] = field(default_factory=list)

    # ------------------------------------------------------------------
    # builder helpers (fluent: each returns self)
    # ------------------------------------------------------------------
    def add(self, rule: FaultRule) -> "FaultPlan":
        self.rules.append(rule)
        return self

    def crash(self, target: str, **kw) -> "FaultPlan":
        return self.add(FaultRule("crash", target, **kw))

    def crash_restart(self, target: str, **kw) -> "FaultPlan":
        return self.add(FaultRule("crash_restart", target, **kw))

    def disk_stall(self, target: str, **kw) -> "FaultPlan":
        return self.add(FaultRule("disk_stall", target, **kw))

    def net_delay(self, link: str, **kw) -> "FaultPlan":
        return self.add(FaultRule("net_delay", link, **kw))

    def net_drop(self, link: str, **kw) -> "FaultPlan":
        return self.add(FaultRule("net_drop", link, **kw))

    def net_partition(self, link: str, **kw) -> "FaultPlan":
        return self.add(FaultRule("net_partition", link, **kw))

    def zk_expire(self, host: str, **kw) -> "FaultPlan":
        return self.add(FaultRule("zk_expire", host, **kw))

    def recovery_crash(self, site: str, **kw) -> "FaultPlan":
        return self.add(FaultRule("recovery_crash", site, **kw))

    def lts_fail(self, site: str, **kw) -> "FaultPlan":
        return self.add(FaultRule("lts_fail", site, **kw))

    # ------------------------------------------------------------------
    # JSON round trip (replayable dumps for regression tests)
    # ------------------------------------------------------------------
    def to_json(self, indent: Optional[int] = 2) -> str:
        doc = {"seed": self.seed, "rules": [asdict(r) for r in self.rules]}
        return json.dumps(doc, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        doc = json.loads(text)
        rules = [FaultRule(**r) for r in doc.get("rules", [])]
        return cls(seed=int(doc.get("seed", 0)), rules=rules)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())
