"""Benchmark harness: OMB-like workloads, system adapters, sweeps,
result tables (reproduces every figure of the paper's §5)."""

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
from repro.bench.sweeps import find_max_throughput

__all__ = [
    "PravegaAdapter",
    "KafkaAdapter",
    "PulsarAdapter",
    "attach_tracer",
    "WorkloadSpec",
    "run_workload",
    "find_max_throughput",
    "BenchResult",
    "Table",
    "fmt_rate",
    "fmt_bytes_rate",
    "fmt_latency",
    "modulo_key_table",
    "range_key_table",
]
