"""Claims as data: the one place a claim about a committed number is stated.

The paper's result is a set of comparative statements (Figs. 5-13,
Table 1: who wins, by what factor, where curves cross), and every
report bench's file states its own (the kernel records its collector
runs, coalescing cuts LTS ops, ...).
Each is one row of ``CLAIMS`` — ``(id, statement, predicate[, assumes[,
full_only]])``, the id being ``<scenario>.<what the row says>`` — whose
predicate is built from a closed vocabulary over *recorded* metric names:

=====================  ==============================================
``gt(a, b, k)``        ``a > k·b``   (``b`` a metric name or a number)
``ge`` / ``lt`` / ``le``   the same with ``>=``, ``<``, ``<=``
``between(a, lo, hi)`` ``lo < a < hi``
``equal(a, v)``        ``a == v`` (a flag, a count, a name)
``counts(a, n)``       ``a`` lists exactly ``n`` ints, none negative
``both(p, q, ...)``    every part holds
=====================  ==============================================

A row reads the *view* of its scenario's ``metrics``: nested keys
joined with ``.`` (``off.lts_fetch_ops``), list items keyed by position
(``gc_collections.0``), nulls left out — a null is not a measurement.
A predicate maps that view to ``(ok, margin)``.  For a comparison the
margin is the signed distance to the threshold, relative to it
(absolute when the threshold is 0): positive when the claim holds, and
the smaller it is the sooner a re-baseline will break the claim.  An
equality or a ``counts`` has margin 1 when it holds and 0 when it does
not; ``both`` has the margin of its weakest part.  A row over an
operand the view lacks (a null, an unrecorded metric) or cannot compare
does not hold, margin 0.  So ``ok`` implies ``margin >= 0`` and
``margin > 0`` implies ``ok``.

``evaluate(scenario, metrics)`` is the only evaluator: every bench of
``python -m repro.bench run`` applies it to a fresh run and stores the
verdicts in the scenario record (``claims: [{id, ok, margin}]``).
``check(report, scenarios)`` is the only check: what the regression
gate holds every committed ``BENCH_*.json`` to, and ``run`` a fresh one.

A ``full_only`` row is about what only a report bench's full-size run
has (a sweep point, an event count, a wall-clock ratio): ``run
--check`` skips it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "CLAIMS", "Claim", "MANIFEST", "check", "evaluate", "failures", "records", "view",
    "gt", "ge", "lt", "le", "between", "equal", "counts", "both",
]

Operand = Union[str, float]
_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


# ----------------------------------------------------------------------
# Vocabulary
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Compare:
    """``a <op> k·b``: ``b`` is a metric name or a constant."""

    a: str
    op: str
    b: Operand
    k: float = 1.0

    def __call__(self, metrics: dict) -> Tuple[bool, float]:
        value = metrics[self.a]
        threshold = self.k * (metrics[self.b] if isinstance(self.b, str) else self.b)
        distance = value - threshold if self.op[0] == ">" else threshold - value
        margin = distance / abs(threshold) if threshold else distance
        return _OPS[self.op](value, threshold), margin


@dataclass(frozen=True)
class Is:
    """``a == expected``."""

    a: str
    expected: object

    def __call__(self, metrics: dict) -> Tuple[bool, float]:
        ok = metrics[self.a] == self.expected
        return ok, float(ok)


@dataclass(frozen=True)
class Counts:
    """``a`` is a list of exactly ``n`` counts: ints (not flags), none
    negative."""

    a: str
    n: int

    def __call__(self, metrics: dict) -> Tuple[bool, float]:
        items = [metrics.get(f"{self.a}.{i}") for i in range(self.n)]
        ok = f"{self.a}.{self.n}" not in metrics and all(
            type(item) is int and item >= 0 for item in items
        )
        return ok, float(ok)


@dataclass(frozen=True)
class Both:
    parts: Tuple["Predicate", ...]

    def __call__(self, metrics: dict) -> Tuple[bool, float]:
        verdicts = [part(metrics) for part in self.parts]
        return all(ok for ok, _ in verdicts), min(m for _, m in verdicts)


Predicate = Union[Compare, Is, Counts, Both]


def _comparison(op: str):
    def build(a: str, b: Operand, k: float = 1.0) -> Compare:
        return Compare(a, op, b, k)

    return build


gt, ge, lt, le = (_comparison(op) for op in _OPS)
equal = Is
counts = Counts


def both(*parts: Predicate) -> Both:
    return Both(parts)


def between(a: str, lo: float, hi: float) -> Both:
    return both(gt(a, lo), lt(a, hi))


def _same(a: str, b: str, k: float = 1.0) -> Both:
    """``a == k·b`` between two recorded numbers."""
    return both(ge(a, b, k), le(a, b, k))


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Claim:
    id: str  # "<scenario>.<what it says>"
    statement: str
    predicate: Predicate
    #: what the row additionally rests on (a slice approximation)
    assumes: Optional[str] = None
    #: about the full-size run only: ``run --check`` skips the row
    full_only: bool = False

    @property
    def scenario(self) -> str:
        return self.id.partition(".")[0]


def _sliced(partitions: int) -> Optional[str]:
    """Fig. 10/11 simulate at most 25 partitions: a larger configuration
    runs as a 1/k slice against 1/k-bandwidth devices with k-scaled
    per-op costs — load-equivalent for the linear device models only."""
    k = max(1, partitions // 25)
    return f"slice factor k={k}" if k > 1 else None


def _fig10a_sweep() -> List[tuple]:
    # At 5 000 segments the sliced harness offers each of 100 writers
    # 0.25 events per driver tick, so every append is a single-record
    # batch paying the k-inflated per-op client cost; the model sustains
    # 0.81-0.88x across slice factors (k=50/100/200 -> 219/203/204 MB/s,
    # stable latency, zero errors).  The paper's claim survives
    # quantitatively weakened: >=0.8x the target there, >=0.9x elsewhere.
    rows = []
    for writers in (10, 100):
        rows.append((
            f"fig10a.stable_w{writers}", f"{writers} writers: no Pravega crash in the sweep",
            equal(f"pravega_w{writers}_crashes", 0), _sliced(5000),
        ))
        for segments in (10, 500, 5000):
            floor = 0.8 if segments >= 5000 else 0.9
            rows.append((
                f"fig10a.sustains_w{writers}_s{segments}",
                f"Pravega sustains >={floor:g}x the 250 MB/s target at "
                f"{segments} segments / {writers} writers",
                gt(f"pravega_w{writers}_s{segments}_mbps", 250.0, floor), _sliced(segments),
            ))
    return rows


#: Table 1 (§5.1): what the adapters must deploy, by recorded metric
_TABLE1 = {
    "pravega_stores": 3, "pravega_bookies": 3, "pravega_journal_sync": True,
    "pravega_lts": "efs",
    "kafka_brokers": 3, "kafka_replication_factor": 3, "kafka_min_insync_replicas": 2,
    "kafka_flush_every_message": False,
    "pulsar_brokers": 3, "pulsar_ensemble_size": 3, "pulsar_write_quorum": 3,
    "pulsar_ack_quorum": 2,
    "journal_disk_bandwidth": 800e6,  # one NVMe-model drive per server
}


def _tenant_rows(tenant: str) -> List[tuple]:
    return [
        (f"workload_slo.{tenant}_carried", f"the shared cluster carries tenant {tenant!r}",
         gt(f"{tenant}.produce_rate", 0)),
        (f"workload_slo.{tenant}_stable", f"tenant {tenant!r} sees no crash",
         equal(f"{tenant}.crashed", False)),
        (f"workload_slo.{tenant}_available", f"tenant {tenant!r} stays in its availability budget",
         ge(f"{tenant}.availability", 0.999)),
        (f"workload_slo.{tenant}_headroom", f"tenant {tenant!r} keeps near-total capacity headroom",
         ge(f"{tenant}.headroom", 0.99)),
        (f"workload_slo.{tenant}_windows", f"tenant {tenant!r}: one SLO window per measured second",
         equal(f"{tenant}.windows", 15.0)),
        (f"workload_slo.{tenant}_offered", f"tenant {tenant!r}: the SLO tracker saw offered load",
         gt(f"{tenant}.offered", 0)),
    ]


def _kernel_rows(scenario: str) -> List[tuple]:
    return [
        (f"{scenario}.events_counted",
         f"{scenario}: the record carries the kernel's own counters, every executed event "
         "plus microtasks", both(gt("events", 0), ge("events", "stats.events_executed"))),
        (f"{scenario}.gc_counted",
         f"{scenario}: the collector runs [gen0, gen1, gen2] of the best repeat are recorded",
         counts("gc_collections", 3)),
        (f"{scenario}.baseline_event_neutral",
         f"{scenario}: today's run executes no more kernel events than the parent's "
         "wall pair (equal when the change is event-neutral; a wall pair at a higher "
         "event count would hide a regression)",
         le("events", "baseline.events"), None, True),
    ]


def _fanout_rows(readers: int) -> List[tuple]:
    point = f"points.{readers}"
    full_only = readers != 100  # `run read --check` runs the 100-reader point only
    return [
        (f"fanout.caught_up_{readers}", f"all {readers} tail readers catch up",
         equal(f"{point}.caught_up", True), None, full_only),
        (f"fanout.delivers_all_{readers}", f"every append reaches every one of {readers} readers",
         _same(f"{point}.delivered_events", f"{point}.events", readers), None, full_only),
        (f"fanout.recorded_{readers}",
         f"the {readers}-reader point records the fields a re-run is compared on",
         both(gt(f"{point}.kernel_events", 0), gt(f"{point}.sim_time_s", 0)), None, full_only),
    ]


def _replay_rows(mode: str) -> List[tuple]:
    return [
        (f"replay.{mode}_caught_up", f"coalescing {mode}: every replaying reader catches up",
         equal(f"{mode}.caught_up", True)),
        (f"replay.{mode}_recorded",
         f"coalescing {mode}: the replay records the fields a re-run is compared on",
         both(gt(f"{mode}.kernel_events", 0), gt(f"{mode}.sim_time_s", 0))),
    ]


CLAIMS: Tuple[Claim, ...] = tuple(Claim(*row) for row in [
    # ---- Fig. 5: durability (§5.2) ------------------------------------
    ("fig05a.durable_beats_kafka",
     "1 segment: Pravega with durability out-writes Kafka without it (paper: +73%)",
     gt("pravega_flush_max_eps", "kafka_noflush_max_eps", 1.2)),
    ("fig05a.kafka_flush_collapses", "flush.messages=1 devastates Kafka's throughput",
     lt("kafka_flush_max_eps", "kafka_noflush_max_eps", 0.5)),
    ("fig05b.pravega_over_1m", "16 segments: one Pravega writer exceeds 1M events/s",
     gt("pravega_flush_max_eps", 1_000_000)),
    ("fig05b.kafka_over_1m", "16 partitions: one Kafka (no flush) producer exceeds 1M events/s",
     gt("kafka_noflush_max_eps", 1_000_000)),
    ("fig05c.noflush_gain_modest", "not flushing gains Pravega little (group commit)",
     lt("pravega_noflush_eps", "pravega_flush_eps", 1.5)),
    # ---- Fig. 6: client batching (§5.3) -------------------------------
    ("fig06a.pulsar_nobatch_low_latency", "Pulsar: no-batch has the lower low-rate latency ...",
     lt("pulsar_nobatch_p95_ms", "pulsar_batch_p95_ms")),
    ("fig06a.pulsar_batch_high_throughput", "... batch >2x the max throughput: never both",
     gt("pulsar_batch_max_eps", "pulsar_nobatch_max_eps", 2)),
    ("fig06a.pravega_beats_batch_latency", "Pravega's low-rate p95 is below Pulsar (batch)'s",
     lt("pravega_p95_ms", "pulsar_batch_p95_ms")),
    ("fig06a.pravega_beats_nobatch_throughput", "Pravega's max is above Pulsar (no batch)'s",
     gt("pravega_max_eps", "pulsar_nobatch_max_eps")),
    ("fig06b.big_linger_costs_latency", "Kafka 10 ms/1 MB batching costs >3x the p95 at 10k e/s",
     gt("kafka_bigbatch_p95_ms", "kafka_default_p95_ms", 3)),
    ("fig06b.keys_dilute_batches",
     "random keys dilute batches; the keyless sticky partitioner fills them >4x fuller",
     gt("sticky_avg_batch_bytes", "keyed_avg_batch_bytes", 4)),
    ("fig06b.more_batching_buys_nothing", "with random keys more batching buys no throughput",
     le("kafka_bigbatch_max_eps", "kafka_default_max_eps", 1.1)),
    # ---- Fig. 7: 10 KB events (§5.4) ----------------------------------
    # 7b: all three converge near the drive rate in the model; the
    # paper's Pravega > Kafka > Pulsar ordering at 16 segments is
    # reproduced only as "within a few percent" (EXPERIMENTS.md).
    ("fig07a.pravega_lts_bound",
     "1 segment: Pravega is LTS-bound near the per-stream EFS bandwidth (paper: ~160 MB/s)",
     lt("pravega_efs_mbps", 260)),
    ("fig07a.noop_lts_lifts_cap", "NoOp LTS lifts the cap: the bottleneck is tiering",
     gt("pravega_noop_mbps", "pravega_efs_mbps", 1.5)),
    ("fig07a.pulsar_above_pravega", "Pulsar (no tiering backpressure) exceeds Pravega",
     gt("pulsar_mbps", "pravega_efs_mbps")),
    ("fig07a.kafka_lowest", "Kafka sits below Pulsar", lt("kafka_mbps", "pulsar_mbps")),
    ("fig07b.parallel_flushes_lift_cap",
     "16 segments: parallel chunk flushes lift Pravega above 2x the single-stream LTS rate",
     gt("pravega_mbps", 160, 2)),
    ("fig07b.pravega_vs_kafka", "Pravega is competitive with Kafka (paper: 350 vs 330 MB/s)",
     ge("pravega_mbps", "kafka_mbps", 0.95)),
    ("fig07b.pravega_vs_pulsar", "Pravega is competitive with Pulsar (paper: 350 vs 250 MB/s)",
     ge("pravega_mbps", "pulsar_mbps", 0.9)),
    # ---- Fig. 8: tail reads (§5.5) ------------------------------------
    # 8b: the paper's -76% Pulsar read drop at 16 partitions has no
    # mechanism in the model and is not reproduced; the comparison is.
    ("fig08a.pulsar_latency_floor", "Pulsar's e2e p95 has a multi-ms floor (paper: >=12 ms)",
     ge("pulsar_e2e_p95_ms", 5)),
    ("fig08a.pravega_below_pulsar", "Pravega's e2e p95 is under half of Pulsar's",
     lt("pravega_e2e_p95_ms", "pulsar_e2e_p95_ms", 0.5)),
    ("fig08a.kafka_below_pulsar", "Kafka's e2e p95 is under half of Pulsar's",
     lt("kafka_e2e_p95_ms", "pulsar_e2e_p95_ms", 0.5)),
    ("fig08a.pravega_reads_above_kafka", "Pravega's max read throughput is above Kafka's",
     gt("pravega_read_max_eps", "kafka_read_max_eps")),
    ("fig08b.pravega_vs_pulsar_16p", "16 partitions: Pravega tail-reads on par with Pulsar",
     ge("pravega_read_16p_eps", "pulsar_read_16p_eps", 0.9)),
    ("fig08b.pravega_vs_kafka_16p", "16 partitions: Pravega tail-reads on par with Kafka",
     ge("pravega_read_16p_eps", "kafka_read_16p_eps", 0.9)),
    # ---- Fig. 9: routing keys (§5.5) ----------------------------------
    # The paper's +59.6% Kafka max-throughput gain without keys is no
    # longer reproduced at the probe: the producer's RecordAccumulator
    # parking (kafka/producer.py, needed to make the fig10/fig11 flush
    # modes measurable) re-fattens batches while a connection slot is
    # awaited, so both key modes saturate within ~10%
    # (kafka_nokeys_throughput_gain stays recorded, unclaimed).
    ("fig09.kafka_pays_for_keys", "random keys cost Kafka a clear e2e p95 penalty at 10k e/s",
     gt("kafka_keys_e2e_penalty", 1.15)),
    ("fig09.pravega_insensitive", "Pravega is insensitive to key dispersion (within 15-20%)",
     between("pravega_keys_vs_nokeys", 0.85, 1.2)),
    # ---- Fig. 10: parallelism at a fixed 250 MB/s (§5.6) --------------
    *_fig10a_sweep(),
    ("fig10a.pravega_3x_kafka_at_5000", "5 000 segments / 100 writers: Pravega >=3x Kafka's rate",
     gt("pravega_w100_s5000_mbps", "kafka_w100_s5000_mbps", 3.0), _sliced(5000)),
    ("fig10a.kafka_decays_with_partitions", "Kafka's steady-state delivery decays with partitions",
     lt("kafka_w100_s5000_mbps", "kafka_w100_s10_mbps", 0.6), _sliced(5000)),
    ("fig10a.kafka_flush_collapses", "flush.messages=1 collapses Kafka at 500 partitions (-80%)",
     lt("kafka_flush_w100_s500_mbps", "kafka_w100_s500_mbps", 0.4), _sliced(500)),
    ("fig10b.base_pulsar_unstable", "base Pulsar crashes at high parallelism",
     ge("pulsar_base_crashes", 1), _sliced(500)),
    ("fig10b.favorable_more_stable", "ackQ=3 + no routing keys is at least as stable",
     le("pulsar_favorable_crashes", "pulsar_base_crashes"), _sliced(500)),
    ("fig10b.favorable_throughput_holds", "favorable is no slower than base at 500 partitions",
     ge("pulsar_favorable_s500_mbps", "pulsar_base_s500_mbps", 0.9), _sliced(500)),
    # ---- Fig. 11: max throughput (§5.6) -------------------------------
    # The producer's RecordAccumulator-style parking is what makes flush
    # mode measurable (before it both flush probes measured 0); it also
    # re-fattens no-flush batches at saturation, so the paper's no-flush
    # 900 -> 140 collapse — broker-side file-switch overhead the linear
    # sliced model does not carry — is not reproduced at the probe (the
    # fixed-rate decay is: fig10a.kafka_decays_with_partitions).  Nor is
    # Pulsar < Pravega at 10 partitions: the model has no per-entry
    # broker CPU wall, so Pulsar pins the same ~800 MB/s envelope.
    ("fig11.pravega_flat_in_partitions", "Pravega's max is roughly flat from 10 to 500 segments",
     gt("pravega_500p_mbps", "pravega_10p_mbps", 0.7), _sliced(500)),
    ("fig11.pravega_near_drive_rate", "Pravega's max is near the drives' sequential capacity",
     gt("pravega_10p_mbps", 400)),
    ("fig11.kafka_noflush_near_drive_rate", "so is Kafka (no flush) at 10 partitions",
     gt("kafka_noflush_10p_mbps", 400)),
    ("fig11.kafka_flush_costs", "flush.messages=1 costs Kafka drastically at equal partitions",
     lt("kafka_flush_10p_mbps", "kafka_noflush_10p_mbps", 0.25)),
    ("fig11.kafka_flush_decays", "Kafka (flush) collapses outright at 500 partitions",
     lt("kafka_flush_500p_mbps", "kafka_flush_10p_mbps", 0.2), _sliced(500)),
    ("fig11.kafka_flush_vs_noflush_500p", "there flush is under a tenth of no-flush (22 vs 140)",
     lt("kafka_flush_500p_mbps", "kafka_noflush_500p_mbps", 0.1), _sliced(500)),
    ("fig11.pulsar_within_envelope", "Pulsar stays within the drive/network envelope",
     le("pulsar_10p_mbps", 810)),
    ("fig11.pulsar_degrades_with_partitions", "Pulsar degrades steeply with partition count",
     lt("pulsar_500p_mbps", "pulsar_10p_mbps", 0.5), _sliced(500)),
    ("fig11.pulsar_batch_delay_harmless", "a 10 ms batching delay does not hurt Pulsar (+20%)",
     gt("pulsar_10ms_10p_mbps", "pulsar_10p_mbps", 0.95)),
    ("fig11b.drive_overhead_modest",
     "drive-level exceeds benchmark-level throughput only by metadata overhead (paper: ~8%)",
     both(ge("metadata_overhead_ratio", 1.0), lt("metadata_overhead_ratio", 1.35))),
    # ---- Fig. 12: historical reads (§5.7) -----------------------------
    ("fig12.pravega_reads_above_write_rate",
     "Pravega reads the backlog far faster than the 100 MB/s write rate (paper: 731 MB/s)",
     gt("pravega_peak_read_mbps", 100, 2.5)),
    ("fig12.pravega_catches_up", "Pravega catches up while writes continue",
     equal("pravega_caught_up", True)),
    ("fig12.pulsar_bound_by_write_rate", "Pulsar's historical reads never outrun the writers",
     lt("pulsar_peak_read_mbps", 100, 1.5)),
    ("fig12.pulsar_never_catches_up", "Pulsar cannot catch up", equal("pulsar_caught_up", False)),
    ("fig12.pravega_tiering_bounded", "Pravega's integrated pipeline bounds its tiering backlog",
     lt("pravega_tiering_backlog_bytes", 128e6)),
    # ---- Fig. 13: auto-scaling (§5.8) ---------------------------------
    ("fig13.stream_scales_up", "the stream scales up automatically, 1 -> several segments",
     ge("final_segments", 4)),
    ("fig13.several_scale_events", "in more than one step", ge("scale_up_events", 2)),
    ("fig13.load_spreads", "more than one segment store carries the load at the end",
     ge("loaded_stores", 2)),
    ("fig13.latency_drops", "p50 write latency drops once the load is spread",
     lt("late_p50_ms", "early_p50_ms")),
    *((f"table1.{name}", f"the adapters deploy Table 1: {name} = {value!r}", equal(name, value))
      for name, value in _TABLE1.items()),
    # ---- repro.workload experiments -----------------------------------
    ("workload_diurnal.scales_up", "the stream splits on the day/night cycle's rising edge ...",
     ge("scale_up", 2)),
    ("workload_diurnal.scales_down", "... and merges back in the trough", ge("scale_down", 1)),
    ("workload_diurnal.peak_segments", "reaching at least 3 segments at the peak",
     ge("peak_segments", 3)),
    ("workload_diurnal.splits_track_load", "a split landed above the pattern's mean rate",
     ge("scale_up_above_mean", 1)),
    ("workload_diurnal.merges_track_load", "a merge landed below it",
     ge("scale_down_below_mean", 1)),
    ("workload_diurnal.traffic_carried", "nearly every offered event was acknowledged",
     ge("availability", 0.99)),
    ("workload_diurnal.stable", "no crash", equal("crashed", False)),
    ("workload_flash.pravega_splits", "Pravega reacts to the spike with at least one split ...",
     ge("pravega_scale_up", 1)),
    ("workload_flash.split_during_spike", "... landed while the offered load was above its mean",
     ge("pravega_scale_up_above_mean", 1)),
    ("workload_flash.within_error_budget", "the elastic stream carries the spike within its budget",
     ge("pravega_availability", 0.99)),
    ("workload_flash.volume_carried", "and nearly the whole offered volume",
     gt("pravega_produce_rate", "offered_mean_eps", 0.9)),
    ("workload_flash.stable", "neither system crashes",
     both(equal("pravega_crashed", False), equal("kafka_crashed", False))),
    ("workload_flash.fixed_partitions_pay_tail_latency",
     "unable to spread the spike, the fixed-partition topic pays more write p99",
     gt("kafka_write_p99_ms", "pravega_write_p99_ms")),
    *(row for tenant in ("steady", "bursty", "web") for row in _tenant_rows(tenant)),
    # ---- BENCH_kernel.json: the kernel's own wall-clock cost ----------
    *(row for scenario in (
        "timeout_churn", "ping_pong", "ping_pong_sliced", "cancel_storm", "mini_workload",
        "mini_tracer_off",
    ) for row in _kernel_rows(scenario)),
    # ---- BENCH_read.json: the read-path serving tier ------------------
    *((f"{family}.seeded", f"{family}: the record carries the seed its run replays from",
       ge("seed", 0)) for family in ("fanout", "replay", "reader_heavy")),
    *(row for readers in (10, 100, 1000) for row in _fanout_rows(readers)),
    *(row for mode in ("off", "on") for row in _replay_rows(mode)),
    ("replay.coalescing_cuts_ops", "single-flight coalescing never increases LTS fetch ops",
     le("on.lts_fetch_ops", "off.lts_fetch_ops")),
    ("replay.fetches_shared", "with coalescing on, concurrent readers share a fetch",
     gt("on.coalesced_fetches", 0)),
    ("replay.bytes_unchanged", "coalescing does not change the bytes readers observe",
     _same("on.delivered_bytes", "off.delivered_bytes")),
    ("replay.ops_cut_4x", "coalescing cuts LTS fetch ops >= 4x (the smoke backlog's floor)",
     ge("lts_ops_ratio", 4)),
    ("replay.ops_cut_10x", "at full size coalescing cuts LTS fetch ops >= 10x",
     ge("lts_ops_ratio", 10), None, True),
    ("reader_heavy.default_caught_up", "default config: all 64 reader groups catch up",
     equal("default.caught_up", True)),
    ("reader_heavy.default_event_neutral",
     "the default config runs exactly the pinned kernel events (re-pinned only by a "
     "deliberate re-sequencing)", _same("default.kernel_events", "baseline.kernel_events")),
    ("reader_heavy.default_speedup", "the default config is >= 1.3x the baseline's wall",
     ge("default.speedup", 1.3), None, True),
])


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
def view(metrics: dict) -> Dict[str, object]:
    """What a row reads of ``metrics``: nested keys joined with ``.``,
    list items keyed by position, nulls left out."""
    flat: Dict[str, object] = {}

    def walk(prefix: str, node) -> None:
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            if isinstance(value, (dict, list)):
                walk(f"{prefix}{key}.", value)
            elif value is not None:
                flat[f"{prefix}{key}"] = value

    walk("", metrics)
    return flat


def _judge(scenario: str, metrics: dict, full: bool) -> Tuple[List[dict], List[str]]:
    """The verdicts of ``evaluate`` and, per row that could not read its
    operands, what it could not read."""
    flat = view(metrics)
    verdicts, unread = [], []
    for claim in CLAIMS:
        if claim.scenario == scenario and (full or not claim.full_only):
            try:
                ok, margin = claim.predicate(flat)
            except (KeyError, TypeError) as exc:  # unrecorded, or not comparable
                ok, margin = False, 0.0
                unread.append(f"{claim.id} cannot read its operand ({type(exc).__name__}: {exc})")
            verdicts.append({"id": claim.id, "ok": bool(ok), "margin": float(margin)})
    return verdicts, unread


def evaluate(scenario: str, metrics: dict, full: bool = True) -> List[dict]:
    """Verdict of every row of ``scenario`` over the view of ``metrics``,
    in table order; ``full=False`` (a ``run --check``) skips the
    full-size-only rows.  A row over an operand the view lacks or cannot
    compare does not hold (margin 0): it never raises."""
    return _judge(scenario, metrics, full)[0]


def failures(verdicts: List[dict]) -> List[str]:
    """What a run and the gate say about the rows that do not hold."""
    rows = {claim.id: claim for claim in CLAIMS}
    messages = []
    for verdict in verdicts:
        if not verdict["ok"]:
            claim = rows[verdict["id"]]
            assumes = f"; assumes {claim.assumes}" if claim.assumes else ""
            messages.append(
                f"claim failed: {claim.id}: {claim.statement} "
                f"(margin {verdict['margin']:.3g}{assumes})"
            )
    return messages


#: what every report file records about the run that wrote it: the
#: commit its checkout was at, the interpreter, the core count
MANIFEST = ("git_sha", "python", "cpu_count")


def records(report: dict) -> Dict[str, dict]:
    """A report's scenario records by name; none when ``scenarios`` is
    not a list of records."""
    scenarios = report.get("scenarios") if isinstance(report, dict) else None
    if not isinstance(scenarios, list):
        return {}
    return {record.get("name"): record for record in scenarios if isinstance(record, dict)}


def check(report: dict, scenarios: Sequence[str], full: bool = True) -> List[str]:
    """Everything a report is held to, one message per violation: it
    carries the run manifest, it records exactly ``scenarios``, every row
    of each holds over its record, and each record's ``claims`` are the
    verdicts re-evaluated here.  ``full=False`` is a ``run --check``
    report, written nowhere: its full-size-only rows are skipped, and it
    may come from outside a git checkout (no ``git_sha``)."""
    try:
        return _problems(report, scenarios, full)
    except (AttributeError, TypeError) as exc:  # not shaped like a report
        return [f"malformed report: {type(exc).__name__}: {exc}"]


def _problems(report: dict, scenarios: Sequence[str], full: bool) -> List[str]:
    problems = []
    manifest = report.get("manifest") or {}
    lacking = [
        key for key in MANIFEST if manifest.get(key) is None and (full or key != "git_sha")
    ]
    if lacking:
        problems.append(f"manifest: lacks {lacking}")
    recorded = records(report)
    if not recorded:
        problems.append("no scenario recorded")
    problems.extend(f"{name}: not recorded" for name in scenarios if name not in recorded)
    problems.extend(
        f"{name}: recorded, but not a scenario of this file"
        for name in recorded if name not in scenarios
    )
    for name, record in recorded.items():
        if record.get("error") and not record.get("metrics"):
            # it died before it had metrics: its rows have nothing to read
            problems.append(f"{name}: not ok ({record['error']})")
            continue
        verdicts, unread = _judge(name, record.get("metrics") or {}, full)
        problems.extend(f"{name}: {message}" for message in unread)
        failed = failures(verdicts)
        problems.extend(f"{name}: {message}" for message in failed)
        if not failed and record.get("error"):
            problems.append(f"{name}: not ok ({record['error']})")
        if verdicts != record.get("claims"):
            problems.append(
                f"{name}: recorded claims are not what the claims table says "
                "of the recorded metrics (regenerate the file)"
            )
    return problems
