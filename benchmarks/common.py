"""Shared helpers for the figure benchmarks.

Every figure/workload scenario is a plain function named after its suite
scenario (``fig05a`` ... ``workload_slo``): it prints a table pairing the
paper's claim with the measured value and returns its metrics dict.  The
qualitative *shape* the paper claims (who wins, roughly by how much,
where crossovers fall — absolute numbers are not expected to match a
real AWS testbed) is the scenario's rows in ``repro.bench.claims``,
evaluated over those metrics by the one runner, ``python -m repro.bench
suite [--only fig05]``.

Set ``REPRO_BENCH_FULL=1`` for the full sweeps; the default trims sweep
points to keep the whole suite fast.

Set ``REPRO_TRACE_DIR=<dir>`` to capture a Chrome trace (Perfetto-loadable)
of every ``run_fresh`` workload into that directory; benches that pass
``trace_name=`` get stable file names, the rest are numbered per adapter.
"""

from __future__ import annotations

import itertools
import os
import re
from typing import Callable, List, Optional

from repro.sim import Simulator
from repro.bench import BenchResult, WorkloadSpec, attach_tracer, run_workload

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")
TRACE_DIR = os.environ.get("REPRO_TRACE_DIR", "")

_trace_seq = itertools.count()


def _trace_slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_").lower()


def run_fresh(
    make_adapter: Callable[[Simulator], object],
    spec: WorkloadSpec,
    trace_name: Optional[str] = None,
    **kwargs,
) -> BenchResult:
    """One workload on a cold cluster.

    With ``REPRO_TRACE_DIR`` set, wires a :class:`repro.obs.Tracer`
    through the adapter and exports the run's Chrome trace as
    ``<dir>/<trace_name>.json``.
    """
    sim = Simulator()
    adapter = make_adapter(sim)
    tracer = None
    if TRACE_DIR:
        from repro.obs import Tracer, export_chrome_trace

        tracer = Tracer(sim)
        attach_tracer(adapter, tracer)
    result = run_workload(sim, adapter, spec, tracer=tracer, **kwargs)
    if tracer is not None:
        os.makedirs(TRACE_DIR, exist_ok=True)
        name = trace_name or f"{adapter.name}_{next(_trace_seq):03d}"
        export_chrome_trace(
            tracer, os.path.join(TRACE_DIR, f"{_trace_slug(name)}.json")
        )
    return result


def trim(points: List, keep: int = 3) -> List:
    """Keep a reduced set of sweep points unless REPRO_BENCH_FULL is set."""
    if FULL or len(points) <= keep:
        return list(points)
    step = max(1, len(points) // keep)
    reduced = points[::step]
    if points[-1] not in reduced:
        reduced.append(points[-1])
    return reduced
