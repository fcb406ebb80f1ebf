"""Workload-subsystem experiments: auto-scaling under realistic traffic.

Three scenarios built on ``repro.workload`` (committed results in
``BENCH_suite.json``; run them with ``python -m repro.bench run suite
--scenario workload``):

* **Diurnal** — a day/night sinusoid against an auto-scaled Pravega
  stream.  The controller's feedback loop (§3.1, §5.8) should track the
  curve: segment splits while offered load is above the pattern mean,
  merges in the trough — verified by joining ``Controller.scale_events``
  with the arrival process via ``correlate_scale_events``.
* **Flash crowd** — a sudden 8x spike against auto-scaled Pravega vs a
  fixed-partition Kafka topic sized for the baseline.  Pravega reacts by
  splitting during the spike; the fixed deployment has no mechanism to
  react and its latency SLO degrades instead.
* **Multi-tenant SLO** — three tenants with different patterns (steady,
  MMPP-bursty, Zipf-skewed Poisson) share one Pravega cluster; each
  tenant's SLO (availability / windowed p99) is evaluated with error
  budgets, plus a cross-tenant capacity report.
"""

from repro.bench import PravegaAdapter, KafkaAdapter, WorkloadSpec, run_workload
from repro.pravega import ScalingPolicy
from repro.sim import Simulator
from repro.workload import (
    Constant,
    Diurnal,
    FlashCrowd,
    MMPP,
    Poisson,
    SloSpec,
    TenantSpec,
    ZipfSkew,
    correlate_scale_events,
    run_tenants,
)

#: per-segment scaling target (events/s) for the auto-scaled scenarios
SEGMENT_TARGET_EPS = 1500.0
EVENT_SIZE = 100


# ----------------------------------------------------------------------
# Diurnal cycle vs auto-scaling
# ----------------------------------------------------------------------
DIURNAL = Diurnal(trough_eps=500.0, peak_eps=6000.0, period=60.0)
DIURNAL_DURATION = 62.0
DIURNAL_WARMUP = 2.0


def workload_diurnal() -> dict:
    sim = Simulator()
    adapter = PravegaAdapter(sim)
    tenant = TenantSpec(
        "diurnal",
        WorkloadSpec(
            event_size=EVENT_SIZE,
            partitions=1,
            key_mode="none",  # spread over whatever segments exist right now
            duration=DIURNAL_DURATION,
            warmup=DIURNAL_WARMUP,
            tick=0.01,
            arrival=DIURNAL,
            seed=101,
        ),
        slo=SloSpec(p99_latency=0.100),
        scaling=ScalingPolicy.by_event_rate(SEGMENT_TARGET_EPS, min_segments=1),
    )
    run = run_tenants(sim, adapter, [tenant])
    controller = adapter.cluster.controller
    correlation = correlate_scale_events(
        controller.scale_events,
        DIURNAL,
        run.epoch,
        DIURNAL_WARMUP + DIURNAL_DURATION,
        stream="bench/diurnal",
    )
    segments = [s[2] for s in controller.load_samples if s[1] == "bench/diurnal"]
    result = run.results["diurnal"]
    return {
        "produce_rate": result.produce_rate,
        "offered_mean_eps": correlation["mean_offered_eps"],
        "scale_up": correlation["scale_up"],
        "scale_down": correlation["scale_down"],
        "scale_up_above_mean": correlation["scale_up_above_mean"],
        "scale_down_below_mean": correlation["scale_down_below_mean"],
        "peak_segments": max(segments, default=1),
        "final_segments": segments[-1] if segments else 1,
        "availability": run.slo["diurnal"]["availability"],
        "slo_ok": run.slo["diurnal"]["ok"],
        "crashed": result.crashed,
        "scale_events": [
            (e["pattern_time"], e["kind"], e["offered_eps"])
            for e in correlation["events"]
        ],
    }


# ----------------------------------------------------------------------
# Flash crowd: elastic Pravega vs fixed-partition Kafka
# ----------------------------------------------------------------------
FLASH = FlashCrowd(base_eps=1000.0, spike_eps=8000.0, at=15.0, rise=2.0, hold=10.0, fall=5.0)
FLASH_DURATION = 45.0
FLASH_WARMUP = 2.0
FLASH_SLO = SloSpec(p99_latency=0.100, availability=0.99)


def _flash_pravega():
    sim = Simulator()
    adapter = PravegaAdapter(sim)
    tenant = TenantSpec(
        "flash",
        WorkloadSpec(
            event_size=EVENT_SIZE,
            partitions=1,
            key_mode="none",
            duration=FLASH_DURATION,
            warmup=FLASH_WARMUP,
            tick=0.01,
            arrival=FLASH,
            seed=202,
        ),
        slo=FLASH_SLO,
        scaling=ScalingPolicy.by_event_rate(SEGMENT_TARGET_EPS, min_segments=1),
    )
    run = run_tenants(sim, adapter, [tenant])
    correlation = correlate_scale_events(
        adapter.cluster.controller.scale_events,
        FLASH,
        run.epoch,
        FLASH_WARMUP + FLASH_DURATION,
        stream="bench/flash",
    )
    return run, correlation


def _flash_kafka():
    """The same offered load against a 2-partition topic sized for the
    1 000 events/s baseline — no scaling mechanism to absorb the spike."""
    sim = Simulator()
    adapter = KafkaAdapter(sim)
    spec = WorkloadSpec(
        event_size=EVENT_SIZE,
        partitions=2,
        key_mode="none",
        duration=FLASH_DURATION,
        warmup=FLASH_WARMUP,
        tick=0.01,
        arrival=FLASH,
        seed=202,
    )
    return run_workload(sim, adapter, spec)


def workload_flash() -> dict:
    run, correlation = _flash_pravega()
    kafka = _flash_kafka()
    pravega = run.results["flash"]
    slo = run.slo["flash"]
    return {
        "pravega_produce_rate": pravega.produce_rate,
        "pravega_scale_up": correlation["scale_up"],
        "pravega_scale_up_above_mean": correlation["scale_up_above_mean"],
        "pravega_availability": slo["availability"],
        "pravega_worst_window_p99_ms": slo["worst_window_p99"] * 1e3,
        "pravega_slo_ok": slo["ok"],
        "pravega_crashed": pravega.crashed,
        "kafka_produce_rate": kafka.produce_rate,
        "kafka_write_p99_ms": kafka.write_latency.p99 * 1e3,
        "kafka_crashed": kafka.crashed,
        "pravega_write_p99_ms": pravega.write_latency.p99 * 1e3,
        "offered_mean_eps": correlation["mean_offered_eps"],
    }


# ----------------------------------------------------------------------
# Multi-tenant SLO evaluation
# ----------------------------------------------------------------------
def workload_slo() -> dict:
    sim = Simulator()
    adapter = PravegaAdapter(sim)
    window = dict(duration=15.0, warmup=1.0)
    tenants = [
        TenantSpec(
            "steady",
            WorkloadSpec(
                event_size=100,
                partitions=2,
                consumers=1,
                arrival=Constant(3000.0),
                seed=31,
                **window,
            ),
            slo=SloSpec(p99_latency=0.050),
        ),
        TenantSpec(
            "bursty",
            WorkloadSpec(
                event_size=100,
                partitions=2,
                arrival=MMPP(rates_eps=(1000.0, 6000.0), mean_dwell=(6.0, 2.0)),
                seed=32,
                **window,
            ),
            slo=SloSpec(p99_latency=0.100),
        ),
        TenantSpec(
            "web",
            WorkloadSpec(
                event_size=400,
                partitions=4,
                arrival=Poisson(2000.0),
                key_skew=ZipfSkew(s=1.0),
                seed=33,
                **window,
            ),
            slo=SloSpec(p99_latency=0.100),
        ),
    ]
    run = run_tenants(sim, adapter, tenants)
    info = {}
    for name, report in run.slo.items():
        info[f"{name}.availability"] = report["availability"]
        info[f"{name}.burn_rate"] = round(report["burn_rate"], 4)
        info[f"{name}.latency_compliance"] = report["latency_compliance"]
        info[f"{name}.worst_window_p99_ms"] = round(report["worst_window_p99"] * 1e3, 3)
        info[f"{name}.slo_ok"] = report["ok"]
        info[f"{name}.windows"] = report["windows"]
        info[f"{name}.offered"] = report["offered"]
        info[f"{name}.headroom"] = round(run.capacity[name]["headroom"], 4)
        info[f"{name}.produce_rate"] = run.results[name].produce_rate
        info[f"{name}.crashed"] = run.results[name].crashed
    return info
