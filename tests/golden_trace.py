"""Golden span-tree workloads for tracing-determinism tests.

``build_pravega_trace`` / ``build_kafka_trace`` / ``build_pulsar_trace``
each run a small deterministic workload with the tracer armed and return
the resulting span forest in a structural, JSON-able form: one record
per finished span with its name, actor, parentage, interval and
critical-path components.

The expected outputs live in ``tests/data/golden_trace_<system>.json``;
``test_trace_golden.py`` asserts the instrumentation keeps producing the
same trees.  Regenerate (only when the span *shape* deliberately
changes — new spans, renamed spans, different parentage) with::

    PYTHONPATH=src python tests/golden_trace.py pravega > tests/data/golden_trace_pravega.json
    PYTHONPATH=src python tests/golden_trace.py kafka   > tests/data/golden_trace_kafka.json
    PYTHONPATH=src python tests/golden_trace.py pulsar  > tests/data/golden_trace_pulsar.json
"""

from __future__ import annotations

import json
import sys
from typing import List

from repro.bench import (
    KafkaAdapter,
    PravegaAdapter,
    PulsarAdapter,
    WorkloadSpec,
    attach_tracer,
    run_workload,
)
from repro.obs import Tracer, to_chrome_trace
from repro.sim import Simulator

SPEC = WorkloadSpec(
    event_size=100,
    target_rate=240.0,
    partitions=2,
    producers=1,
    duration=0.25,
    warmup=0.1,
    key_mode="random",
)


def build_pravega_trace() -> dict:
    # Writer ids come from a process-global counter; pin it so the
    # golden actor names don't depend on which tests ran earlier in
    # this pytest process.
    from repro.pravega.client.writer import EventStreamWriter

    EventStreamWriter._writer_counter = 0
    return _build_trace(lambda sim: PravegaAdapter(sim, journal_sync=True))


def build_kafka_trace() -> dict:
    from repro.kafka.producer import KafkaProducer

    KafkaProducer._counter = 0
    return _build_trace(lambda sim: KafkaAdapter(sim, flush_every_message=True))


def build_pulsar_trace() -> dict:
    from repro.pulsar.producer import PulsarProducer

    PulsarProducer._counter = 0
    return _build_trace(PulsarAdapter)


def _build_trace(make_adapter) -> dict:
    sim = Simulator()
    tracer = Tracer(sim)
    adapter = make_adapter(sim)
    attach_tracer(adapter, tracer)
    result = run_workload(sim, adapter, SPEC, tracer=tracer)
    # Let background timers fire (storage-writer age seal, offload
    # polls) so the tree includes the tiering spans where applicable.
    sim.run(until=sim.now + 1.0)
    spans: List[dict] = []
    for span in tracer.spans:
        if span.end is None:
            continue
        spans.append(
            {
                "id": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "actor": span.actor,
                "start": span.start,
                "end": span.end,
                "components": {
                    kind: span.components[kind] for kind in sorted(span.components)
                },
            }
        )
    return {
        "spec": {
            "target_rate": SPEC.target_rate,
            "partitions": SPEC.partitions,
            "duration": SPEC.duration,
        },
        "acked_events": int(result.extra["produced_total"]),
        "chrome_trace_sha": _sha(to_chrome_trace(tracer)),
        "spans": spans,
    }


def _sha(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


BUILDERS = {
    "pravega": build_pravega_trace,
    "kafka": build_kafka_trace,
    "pulsar": build_pulsar_trace,
}


def main() -> None:
    system = sys.argv[1] if len(sys.argv) > 1 else "pravega"
    golden = BUILDERS[system]()
    spans = golden.pop("spans")
    # One span per line keeps the fixture diffable without indent bloat.
    lines = ",\n  ".join(json.dumps(s, sort_keys=True) for s in spans)
    head = json.dumps(golden, sort_keys=True)[1:-1]
    print("{" + head + ', "spans": [\n  ' + lines + "\n]}")


if __name__ == "__main__":
    main()
