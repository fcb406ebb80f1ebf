"""Figure 12 — Historical read performance (§5.7).

Methodology (as in the paper, scaled down): writers produce 10 KB events
at ~100 MB/s to a 16-segment/partition stream/topic while readers are
held back; once a backlog has accumulated, readers are released and must
catch up while writes continue.  The paper builds a 100 GB backlog; the
simulation builds a proportionally smaller one (same mechanism, shorter
run).

Paper claims reproduced:
  (a) Pravega reads the backlog far faster than the write rate by
      exploiting parallel chunk reads from LTS (paper peak: 731 MB/s vs
      100 MB/s writes) and catches up.
  (b) Pulsar's historical read throughput never exceeds the write rate
      in any tested configuration, so it cannot catch up while writes
      continue.
  (c) Pulsar does not throttle writers when LTS lags: its un-offloaded
      backlog keeps growing (no backpressure), unlike Pravega's
      integrated, bounded tiering pipeline.
"""

from repro.bench import (
    PravegaAdapter,
    PulsarAdapter,
    Table,
    fmt_bytes_rate,
)
from repro.pulsar import PulsarBrokerConfig
from repro.sim import Simulator

EVENT_SIZE = 10_000
WRITE_RATE = 10_000  # events/s == 100 MB/s
PARTITIONS = 16
BACKLOG_BYTES = 600 * 1_000_000
MAX_CATCHUP = 120.0


def _run_system(system: str):
    sim = Simulator()
    if system == "pravega":
        adapter = PravegaAdapter(sim, lts_kind="efs")
    else:
        adapter = PulsarAdapter(
            sim,
            tiering=True,
            broker_config=PulsarBrokerConfig(ledger_rollover_bytes=16_000_000),
        )
        adapter.total_consumers = PARTITIONS
    adapter.setup(PARTITIONS)

    produced = [0]
    consumed = [0]
    stop_producing = [False]

    def producer():
        handle = adapter.new_producer("bench-0")
        carry = 0.0
        rotate = 0
        while not stop_producing[0]:
            yield sim.timeout(0.005)
            carry += WRITE_RATE * 0.005
            count = int(carry)
            carry -= count
            per = max(count // PARTITIONS, 0)
            extra = count - per * PARTITIONS
            for p in range(PARTITIONS):
                share = per + (1 if p < extra else 0)
                if share:
                    fut = handle.send_group(p, share, EVENT_SIZE)
                    fut.add_callback(
                        lambda f, n=share: produced.__setitem__(0, produced[0] + n)
                        if f.exception is None
                        else None
                    )
            rotate += 1

    sim.process(producer())

    # Phase 1: build the backlog.
    while produced[0] * EVENT_SIZE < BACKLOG_BYTES:
        sim.run(until=sim.now + 0.5)
    release_time = sim.now

    # Phase 2: release readers; writes continue.
    read_series = []

    def consumer(index: int):
        handle = adapter.new_consumer("bench-1", index, EVENT_SIZE)
        while True:
            partition, count, nbytes = yield handle.receive()
            consumed[0] += count
            read_series.append((sim.now, nbytes))

    for i in range(PARTITIONS):
        sim.process(consumer(i))

    caught_up_at = None
    while sim.now < release_time + MAX_CATCHUP:
        sim.run(until=sim.now + 0.5)
        if consumed[0] >= produced[0] > 0:
            caught_up_at = sim.now
            break
    stop_producing[0] = True
    sim.run(until=sim.now + 0.2)

    # Peak read throughput over 1-second windows.
    peak = 0.0
    if read_series:
        start = read_series[0][0]
        buckets = {}
        for t, nbytes in read_series:
            buckets[int(t - start)] = buckets.get(int(t - start), 0) + nbytes
        peak = max(buckets.values()) if buckets else 0.0
    backlog = 0
    if system == "pulsar":
        backlog = adapter.unoffloaded_backlog()
    else:
        backlog = adapter.lts_backlog_bytes()
    return {
        "peak_read_mbps": peak,
        "caught_up": caught_up_at is not None,
        "catch_up_seconds": (caught_up_at - release_time) if caught_up_at else None,
        "produced": produced[0],
        "consumed": consumed[0],
        "residual_backlog": backlog,
    }


def fig12() -> dict:
    table = Table(
        ["system", "peak read", "caught up?", "catch-up time", "tiering backlog left"],
        title="Fig. 12 (catch-up reads: 100 MB/s writes, 16 partitions, 10KB events)",
    )
    out = {}
    for system in ("pravega", "pulsar"):
        out[system] = _run_system(system)
        r = out[system]
        table.add(
            system,
            fmt_bytes_rate(r["peak_read_mbps"]),
            "yes" if r["caught_up"] else "NO",
            f"{r['catch_up_seconds']:.1f} s" if r["caught_up"] else "-",
            fmt_bytes_rate(float(r["residual_backlog"])) + " (bytes)",
        )
    table.show()
    pravega, pulsar = out["pravega"], out["pulsar"]
    return {
        "pravega_peak_read_mbps": pravega["peak_read_mbps"] / 1e6,
        "pulsar_peak_read_mbps": pulsar["peak_read_mbps"] / 1e6,
        "pravega_caught_up": pravega["caught_up"],
        "pulsar_caught_up": pulsar["caught_up"],
        "pravega_tiering_backlog_bytes": pravega["residual_backlog"],
    }
