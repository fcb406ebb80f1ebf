"""The znode data model of the coordination service.

A znode has data, a monotonically increasing version (for compare-and-set),
an optional owner session (ephemeral nodes), and children.  Paths are
``/``-separated absolute strings, as in Apache Zookeeper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["ZNode", "split_path", "parent_path", "validate_path"]


def validate_path(path: str) -> None:
    """Reject paths that are not absolute, normalized znode paths."""
    if not path.startswith("/"):
        raise ValueError(f"znode path must be absolute: {path!r}")
    if path != "/" and path.endswith("/"):
        raise ValueError(f"znode path must not end with '/': {path!r}")
    if "//" in path:
        raise ValueError(f"znode path must not contain '//': {path!r}")


def split_path(path: str) -> list[str]:
    """Split an absolute znode path into its components."""
    validate_path(path)
    if path == "/":
        return []
    return path[1:].split("/")


def parent_path(path: str) -> str:
    """The parent znode's path; the root has no parent."""
    parts = split_path(path)
    if not parts:
        raise ValueError("root has no parent")
    if len(parts) == 1:
        return "/"
    return "/" + "/".join(parts[:-1])


@dataclass
class ZNode:
    """A node in the coordination-service tree."""

    name: str
    data: bytes = b""
    version: int = 0
    #: session id owning this node, if ephemeral
    ephemeral_owner: Optional[int] = None
    #: counter used to name sequential children
    child_sequence: int = 0
    children: Dict[str, "ZNode"] = field(default_factory=dict)
