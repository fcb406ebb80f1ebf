"""Benchmark harness: OMB-like workloads, system adapters and result
tables (reproduces every figure of the paper's §5).  A figure's maximum
throughput is one search, :func:`repro.capacity.find_max_throughput`."""

from repro.bench.adapters import (
    KafkaAdapter,
    PravegaAdapter,
    PulsarAdapter,
    attach_tracer,
)
from repro.bench.keys import modulo_key_table, range_key_table
from repro.bench.results import (
    BenchResult,
    Table,
    fmt_bytes_rate,
    fmt_latency,
    fmt_rate,
)
from repro.bench.runner import WorkloadSpec, run_workload

__all__ = [
    "PravegaAdapter",
    "KafkaAdapter",
    "PulsarAdapter",
    "attach_tracer",
    "WorkloadSpec",
    "run_workload",
    "BenchResult",
    "Table",
    "fmt_rate",
    "fmt_bytes_rate",
    "fmt_latency",
    "modulo_key_table",
    "range_key_table",
]
