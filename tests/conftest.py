"""Suite-wide collection honesty.

The suite grew domain markers (``DOMAIN_MARKERS`` below, registered in
pyproject) that Make targets select with ``-m``.  Two silent-skip
hazards come with that:

* a typo'd ``-m`` expression (or a typo'd marker on a test) deselects
  tests without any trace — ``--strict-markers`` (pyproject) rejects
  unregistered marks, and the audit line printed here reports exactly
  how many tests each domain marker contributed and how many were
  deselected or skipped, so ``python -m pytest -q`` accounts for every
  collected test;
* a fixture JSON under ``tests/data/`` can lose its last consumer in a
  refactor and keep green forever — ``test_meta_audit.py`` asserts
  every committed fixture is loaded by at least one test.
"""

from __future__ import annotations

from typing import Dict, List

DOMAIN_MARKERS = (
    "perf",
    "faults",
    "trace",
    "workload",
    "capacity",
    "gate",
    "read",
)

_deselected: List[object] = []
_selected: List[object] = []


def pytest_deselected(items) -> None:
    _deselected.extend(items)


def pytest_collection_finish(session) -> None:
    _selected.extend(session.items)


def _by_marker(items) -> Dict[str, int]:
    counts = {name: 0 for name in DOMAIN_MARKERS}
    for item in items:
        for name in DOMAIN_MARKERS:
            if item.get_closest_marker(name) is not None:
                counts[name] += 1
    return counts


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    selected = _by_marker(_selected)
    deselected = _by_marker(_deselected)
    skipped = len(terminalreporter.stats.get("skipped", []))
    parts = []
    for name in DOMAIN_MARKERS:
        entry = f"{name} {selected[name]}"
        if deselected[name]:
            entry += f" (-{deselected[name]} deselected)"
        parts.append(entry)
    terminalreporter.write_line(
        f"marker audit: {'; '.join(parts)}; "
        f"deselected total {len(_deselected)}, skipped {skipped}"
    )
