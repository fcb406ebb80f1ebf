"""Span well-formedness properties across all three systems.

For each system the same traced workload must yield spans that:

* nest — every child span's interval lies within its parent's,
* finish — no span outlives the trace (all ends within the sim run),
* decompose — the four critical-path components of every acked write
  sum exactly to its measured ack latency, and the analyzer's p50
  reconstruction matches the latency histogram's p50 within 1%.
"""

import pytest

from repro.bench import KafkaAdapter, PravegaAdapter, PulsarAdapter, attach_tracer
from repro.bench.runner import WorkloadSpec, run_workload
from repro.obs import COMPONENTS, Tracer, WRITE_ROOT_NAMES, event_records, median_record
from repro.sim import Simulator

pytestmark = pytest.mark.trace

SPEC = WorkloadSpec(
    event_size=100,
    target_rate=400.0,
    partitions=2,
    producers=1,
    duration=0.6,
    warmup=0.2,
    key_mode="random",
)

ADAPTERS = {
    "pravega": lambda sim: PravegaAdapter(sim, journal_sync=True),
    "kafka": lambda sim: KafkaAdapter(sim, flush_every_message=True),
    "pulsar": PulsarAdapter,
}


@pytest.fixture(scope="module", params=sorted(ADAPTERS))
def traced_run(request):
    sim = Simulator()
    tracer = Tracer(sim)
    adapter = ADAPTERS[request.param](sim)
    attach_tracer(adapter, tracer)
    result = run_workload(sim, adapter, SPEC, tracer=tracer)
    return request.param, sim, tracer, result


def test_children_nest_within_parents(traced_run):
    system, _, tracer, _ = traced_run
    eps = 1e-12
    checked = 0
    for span in tracer.spans:
        if span.parent is None or span.end is None or span.parent.end is None:
            continue
        assert span.start >= span.parent.start - eps, (system, span)
        assert span.end <= span.parent.end + eps, (system, span)
        checked += 1
    assert checked > 50, f"{system}: containment property exercised too little"


def test_spans_do_not_outlive_the_trace(traced_run):
    system, sim, tracer, _ = traced_run
    assert tracer.spans, system
    for span in tracer.spans:
        assert span.start <= sim.now
        if span.end is not None:
            assert span.start <= span.end <= sim.now
    # Every acked write's root span must have been finished by its ack.
    roots = [s for s in tracer.spans if s.parent is None and s.name in WRITE_ROOT_NAMES]
    assert roots, system
    unfinished = [s for s in roots if s.end is None]
    assert not unfinished, (system, unfinished[:3])


def test_components_sum_to_ack_latency_exactly(traced_run):
    system, _, tracer, result = traced_run
    window = (
        result.extra["trace.window_start"],
        result.extra["trace.window_end"],
    )
    records = event_records(tracer, window=window)
    assert records, system
    for record in records:
        total = sum(record[kind] for kind in COMPONENTS)
        assert total == pytest.approx(record["total"], rel=1e-9, abs=1e-12), (
            system,
            record,
        )
        # No bucket may be negative (a negative queueing residual would
        # mean some component was double-counted).
        for kind in COMPONENTS:
            assert record[kind] >= -1e-9, (system, kind, record)


def test_p50_reconstruction_matches_histogram(traced_run):
    system, _, tracer, result = traced_run
    window = (
        result.extra["trace.window_start"],
        result.extra["trace.window_end"],
    )
    records = event_records(tracer, window=window)
    p50 = median_record(records)
    hist_p50 = result.write_latency.p50
    assert p50["total"] == pytest.approx(hist_p50, rel=0.01), (
        system,
        p50["total"],
        hist_p50,
    )
