"""Per-layer attribution from outside the program.

Layers are the repo's modules.  Two instruments, never used in the same
pass (each would skew the other):

* :class:`AttributingSimulator` — a ``Simulator`` subclass whose public
  scheduling primitives charge every call to the layer of the calling
  module; totals reconcile with ``Simulator.stats``.
* :func:`profile_by_layer` — groups a ``cProfile`` run by source file.
"""

from __future__ import annotations

import pstats
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

from repro.sim import Simulator

#: every layer, in report order
LAYERS = (
    "sim.core",
    "sim.devices",
    "bookkeeper",
    "zookeeper",
    "lts",
    "pravega.client",
    "pravega.container",
    "pravega.store",
    "kafka",
    "pulsar",
    "bench",
    "common",
    "other",
)

#: layers that can call a kernel primitive: ``sim.core`` calls are charged
#: to whoever called into the kernel, and ``other`` (stdlib) never does
CALLER_LAYERS = tuple(layer for layer in LAYERS if layer not in ("sim.core", "other"))

#: dotted-module prefix -> layer, most specific first
_PREFIXES = (
    ("repro.sim.core", "sim.core"),
    ("repro.sim", "sim.devices"),
    ("repro.bookkeeper", "bookkeeper"),
    ("repro.zookeeper", "zookeeper"),
    ("repro.lts", "lts"),
    ("repro.pravega.client", "pravega.client"),
    ("repro.pravega.container", "pravega.container"),
    ("repro.pravega", "pravega.store"),
    ("repro.kafka", "kafka"),
    ("repro.pulsar", "pulsar"),
    ("repro.bench", "bench"),
    ("repro", "common"),
)

_HERE = str(Path(__file__).resolve().parent)
_CORE = "repro.sim.core"
#: cProfile names builtins with their address, which differs per process
_ADDRESS = re.compile(r" at 0x[0-9a-f]+")


def layer_of_module(module: str) -> str:
    """Layer of a dotted module name; the benchmark's own modules are the
    harness and count as ``bench``."""
    for prefix, layer in _PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "bench"


def layer_of_file(filename: str) -> str:
    """Layer of a source file as ``cProfile`` names it."""
    path = filename.replace("\\", "/")
    index = path.rfind("/repro/")
    if index >= 0 and path.endswith(".py"):
        return layer_of_module(path[index + 1 : -3].replace("/", "."))
    if path.startswith(_HERE.replace("\\", "/")):
        return "bench"
    return "other"


class AttributingSimulator(Simulator):
    """Charges each kernel primitive to the layer that asked for it.

    Only the leaf primitives count (``timeout`` lands in ``schedule`` or
    ``resolve_after``, so it is counted once); the caller is the nearest
    frame outside the kernel and outside this file.  A subclass because
    ``Simulator`` uses ``__slots__``.
    """

    def __init__(self) -> None:
        super().__init__()
        self.spawns: Counter = Counter()
        self.sched: Counter = Counter()
        self.futures: Counter = Counter()

    @staticmethod
    def _caller() -> str:
        frame = sys._getframe(1)
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module != _CORE and module != __name__:
                return layer_of_module(module)
            frame = frame.f_back
        return "bench"

    def process(self, gen):
        self.spawns[self._caller()] += 1
        return super().process(gen)

    def schedule(self, delay, callback):
        self.sched[self._caller()] += 1
        return super().schedule(delay, callback)

    def call_soon(self, callback):
        self.sched[self._caller()] += 1
        return super().call_soon(callback)

    def schedule_at(self, when, callback):
        self.sched[self._caller()] += 1
        return super().schedule_at(when, callback)

    def resolve_after(self, delay, value=None):
        self.sched[self._caller()] += 1
        return super().resolve_after(delay, value)

    def future(self):
        self.futures[self._caller()] += 1
        return super().future()

    def counts(self) -> Dict[str, Counter]:
        return {
            "spawns": Counter(self.spawns),
            "sched": Counter(self.sched),
            "futures": Counter(self.futures),
        }

    def queue_entries(self) -> int:
        """Queue entries ever created, from the public counters: each was
        executed, skipped as cancelled, or is still queued."""
        stats = self.stats
        return (
            stats.events_executed
            + stats.microtasks_executed
            + stats.cancellations_skipped
            + stats.heap_size
            + stats.microtask_backlog
        )


def profile_by_layer(
    profile, top: int = 10
) -> Tuple[Dict[str, float], Dict[str, int], float, List[dict]]:
    """Group a finished ``cProfile.Profile`` by layer.

    Returns (self seconds per layer, calls per layer, profiled total, the
    ``top`` functions by self time outside ``sim.core``).
    """
    stats = pstats.Stats(profile)
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    rows = []
    for (filename, lineno, funcname), (_cc, ncalls, tottime, _cum, _callers) in (
        stats.stats.items()  # type: ignore[attr-defined]
    ):
        layer = layer_of_file(filename)
        self_s[layer] += tottime
        calls[layer] += ncalls
        if layer != "sim.core":
            rows.append((tottime, ncalls, layer, filename, lineno, funcname))
    rows.sort(reverse=True)
    top_rows = [
        {
            "self_s": tottime,
            "calls": ncalls,
            "layer": layer,
            "function": _ADDRESS.sub("", f"{Path(filename).name}:{lineno}({funcname})"),
        }
        for tottime, ncalls, layer, filename, lineno, funcname in rows[:top]
    ]
    return self_s, calls, stats.total_tt, top_rows  # type: ignore[attr-defined]
