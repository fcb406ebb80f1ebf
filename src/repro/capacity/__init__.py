"""repro.capacity — the one sustainable-throughput search.

Karimov et al. (PAPERS.md) define *sustainable throughput* as the
highest offered rate a system holds without unbounded backlog.  This
package finds it with one search, :func:`find_sustainable_rate` (the
pure bracket-then-bisect driver, property-testable without a
simulator), and one oracle, :func:`find_max_throughput`: a
constant-rate workload per probe, judged by
:func:`repro.workload.slo.sustainable_verdict`.  Every max-throughput
figure (Figs. 5–9 and 11) asks it.
"""

from repro.capacity.search import Probe, SearchResult, find_max_throughput, find_sustainable_rate

__all__ = [
    "Probe",
    "SearchResult",
    "find_sustainable_rate",
    "find_max_throughput",
]
