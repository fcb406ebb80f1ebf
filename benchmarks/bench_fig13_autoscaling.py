"""Figure 13 — Stream auto-scaling (§5.8).

Workload: 10 KB events written at ~100 MB/s to a Pravega stream that
starts with one segment and carries a byte-rate auto-scaling policy with
a 20 MB/s per-segment target.  The controller's feedback loop splits hot
segments over time.

Paper claims reproduced:
  (a) the stream's segment count grows automatically (1 -> several) as
      the load sustains above the per-segment target;
  (b) the write load spreads across segment stores as segments multiply;
  (c) p50 write latency drops as scaling distributes the load.
"""

from repro.bench import PravegaAdapter, Table, fmt_latency
from repro.common.metrics import percentile
from repro.pravega import ScalingPolicy
from repro.sim import Simulator

EVENT_SIZE = 10_000
WRITE_RATE = 10_000  # events/s = 100 MB/s
TARGET_PER_SEGMENT = 20e6  # bytes/s (paper: 20 MB/s given 10KB events)
RUN_SECONDS = 90.0


def fig13() -> dict:
    sim = Simulator()
    adapter = PravegaAdapter(
        sim,
        scaling_policy=ScalingPolicy.by_byte_rate(
            TARGET_PER_SEGMENT, scale_factor=2, min_segments=1
        ),
    )
    adapter.setup(1)
    controller = adapter.cluster.controller

    latencies = []  # (ack time, latency)
    segment_series = []  # (time, active segments)
    store_series = []  # (time, {store: MB/s})
    last_bytes = {name: 0 for name in adapter.cluster.stores}

    producer = adapter.new_producer("bench-0")

    def load():
        carry = 0.0
        while sim.now < RUN_SECONDS:
            yield sim.timeout(0.01)
            carry += WRITE_RATE * 0.01
            count = int(carry)
            carry -= count
            if count <= 0:
                continue
            sent = sim.now
            fut = producer.send_group(None, count, EVENT_SIZE)
            fut.add_callback(
                lambda f, t=sent: latencies.append((sim.now, sim.now - t))
                if f.exception is None
                else None
            )

    def probes():
        while sim.now < RUN_SECONDS:
            yield sim.timeout(2.0)
            segments = controller.get_active_segments("bench", "stream")
            segment_series.append((sim.now, len(segments)))
            rates = {}
            for name, store in adapter.cluster.stores.items():
                rates[name] = (store.bytes_ingested - last_bytes[name]) / 2.0
                last_bytes[name] = store.bytes_ingested
            store_series.append((sim.now, rates))

    sim.process(load())
    sim.process(probes())
    sim.run(until=RUN_SECONDS + 2.0)
    sim.run_until_complete(producer.flush(), timeout=60)

    table = Table(
        ["time", "segments", "p50 latency", "per-store MB/s"],
        title="Fig. 13 (auto-scaling: 100 MB/s into a 20 MB/s-per-segment policy)",
    )
    for t, count in segment_series:
        window = sorted(l for at, l in latencies if t - 2.0 <= at < t)
        p50 = percentile(window, 0.5) if window else float("nan")
        rates = next((r for pt, r in store_series if pt == t), {})
        table.add(
            f"{t:5.0f}s",
            count,
            fmt_latency(p50),
            " ".join(f"{v / 1e6:.0f}" for v in rates.values()),
        )
    table.show()

    early = sorted(l for at, l in latencies if at < 10.0)
    late = sorted(l for at, l in latencies if at > RUN_SECONDS - 15.0)
    final_rates = store_series[-1][1] if store_series else {}
    return {
        "final_segments": segment_series[-1][1] if segment_series else 1,
        "scale_up_events": sum(
            1 for e in controller.scale_events if e[2] == "scale-up"
        ),
        "early_p50_ms": percentile(early, 0.5) * 1e3,
        "late_p50_ms": percentile(late, 0.5) * 1e3,
        "loaded_stores": sum(1 for v in final_rates.values() if v > 5e6),
    }
