"""An in-process coordination service with Zookeeper semantics.

Pravega uses Apache Zookeeper for "leader election and general cluster
management purposes" (§2.2) and to keep "the assignment of segment
containers to segment stores in a consistent store" (§4.4).  The
properties those uses rely on — a linearizable znode tree with versioned
compare-and-set and ephemeral nodes tied to client sessions — are
implemented here; the ZAB replication protocol itself is
below the level of abstraction the paper's evaluation exercises, so the
service is a single linearization point whose operations cost one network
round trip from the caller's host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.common.errors import (
    BadVersionError,
    NoNodeError,
    NodeExistsError,
    SessionExpiredError,
)
from repro.sim.core import SimFuture, Simulator
from repro.sim.network import Network
from repro.zookeeper.znode import ZNode, parent_path, split_path

__all__ = ["ZookeeperService", "ZkClient", "NodeStat"]


@dataclass(frozen=True)
class NodeStat:
    """Metadata returned with reads and writes."""

    version: int
    ephemeral_owner: Optional[int]
    num_children: int


class ZookeeperService:
    """The server side: the znode tree and sessions."""

    host = "zookeeper"

    def __init__(self, sim: Simulator, network: Network) -> None:
        self.sim = sim
        self.network = network
        self._root = ZNode(name="")
        self._next_session_id = 1
        self._sessions: Dict[int, List[str]] = {}
        self._session_hosts: Dict[int, str] = {}

    def connect(self, client_host: str) -> "ZkClient":
        """Open a session from ``client_host``."""
        session_id = self._next_session_id
        self._next_session_id += 1
        self._sessions[session_id] = []
        self._session_hosts[session_id] = client_host
        return ZkClient(self, client_host, session_id)

    # ------------------------------------------------------------------
    # Tree operations (synchronous core; latency added by ZkClient)
    # ------------------------------------------------------------------
    def _lookup(self, path: str) -> ZNode:
        node = self._root
        for part in split_path(path):
            child = node.children.get(part)
            if child is None:
                raise NoNodeError(path)
            node = child
        return node

    def _stat(self, node: ZNode) -> NodeStat:
        return NodeStat(node.version, node.ephemeral_owner, len(node.children))

    def do_create(
        self,
        path: str,
        data: bytes,
        session_id: Optional[int],
        ephemeral: bool,
        sequential: bool,
    ) -> str:
        parent = self._lookup(parent_path(path))
        parts = split_path(path)
        name = parts[-1]
        if sequential:
            name = f"{name}{parent.child_sequence:010d}"
            parent.child_sequence += 1
        if name in parent.children:
            raise NodeExistsError(path)
        owner = session_id if ephemeral else None
        if ephemeral:
            if session_id is None or session_id not in self._sessions:
                raise SessionExpiredError(f"session {session_id}")
        parent.children[name] = ZNode(name=name, data=data, ephemeral_owner=owner)
        created = (parent_path(path).rstrip("/") or "") + "/" + name
        if ephemeral and session_id is not None:
            self._sessions[session_id].append(created)
        return created

    def do_get(self, path: str) -> tuple[bytes, NodeStat]:
        node = self._lookup(path)
        return node.data, self._stat(node)

    def do_set(self, path: str, data: bytes, expected_version: int = -1) -> NodeStat:
        node = self._lookup(path)
        if expected_version != -1 and node.version != expected_version:
            raise BadVersionError(
                f"{path}: expected v{expected_version}, found v{node.version}"
            )
        node.data = data
        node.version += 1
        return self._stat(node)

    def do_delete(self, path: str, expected_version: int = -1) -> None:
        parent = self._lookup(parent_path(path))
        name = split_path(path)[-1]
        node = parent.children.get(name)
        if node is None:
            raise NoNodeError(path)
        if expected_version != -1 and node.version != expected_version:
            raise BadVersionError(
                f"{path}: expected v{expected_version}, found v{node.version}"
            )
        if node.children:
            raise NodeExistsError(f"{path} has children")
        del parent.children[name]
        if node.ephemeral_owner is not None:
            owned = self._sessions.get(node.ephemeral_owner)
            if owned and path in owned:
                owned.remove(path)

    def do_exists(self, path: str) -> Optional[NodeStat]:
        try:
            return self._stat(self._lookup(path))
        except NoNodeError:
            return None

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def expire_session(self, session_id: int) -> None:
        """Remove the session and delete its ephemeral nodes (crash model)."""
        owned = self._sessions.pop(session_id, [])
        self._session_hosts.pop(session_id, None)
        for path in list(owned):
            try:
                self.do_delete(path)
            except (NoNodeError, NodeExistsError):
                pass

    def expire_sessions_for_host(self, host_pattern: str) -> int:
        """Expire every session opened from a host matching the fnmatch
        pattern (fault injection: the host lost its zookeeper lease).
        Returns the number of sessions expired."""
        from fnmatch import fnmatch

        victims = [
            sid
            for sid, host in self._session_hosts.items()
            if fnmatch(host, host_pattern)
        ]
        for sid in victims:
            self.expire_session(sid)
        return len(victims)

    def session_alive(self, session_id: int) -> bool:
        return session_id in self._sessions


class ZkClient:
    """A client session; every operation costs one network round trip."""

    def __init__(self, service: ZookeeperService, client_host: str, session_id: int) -> None:
        self.service = service
        self.client_host = client_host
        self.session_id = session_id

    @property
    def alive(self) -> bool:
        return self.service.session_alive(self.session_id)

    def close(self) -> None:
        """Graceful close: ephemeral nodes are removed immediately."""
        self.service.expire_session(self.session_id)

    def _roundtrip(self, operation: Callable[[], Any]) -> SimFuture:
        """Request travels to the service host, executes, reply travels back."""
        sim = self.service.sim
        network = self.service.network
        result = sim.future()
        request = network.transfer(self.client_host, self.service.host, 128)

        def on_request_arrival(_: SimFuture) -> None:
            if not self.service.session_alive(self.session_id):
                outcome: tuple[Any, Optional[BaseException]] = (
                    None,
                    SessionExpiredError(f"session {self.session_id}"),
                )
            else:
                try:
                    outcome = (operation(), None)
                except Exception as exc:  # noqa: BLE001 - forwarded to caller
                    outcome = (None, exc)
            reply = network.transfer(self.service.host, self.client_host, 128)

            def on_reply(_: SimFuture) -> None:
                value, error = outcome
                if error is not None:
                    result.set_exception(error)
                else:
                    result.set_result(value)

            reply.add_callback(on_reply)

        request.add_callback(on_request_arrival)
        return result

    # ------------------------------------------------------------------
    def create(
        self,
        path: str,
        data: bytes = b"",
        ephemeral: bool = False,
        sequential: bool = False,
    ) -> SimFuture:
        """Create a znode; resolves with the actual created path."""
        return self._roundtrip(
            lambda: self.service.do_create(
                path, data, self.session_id, ephemeral, sequential
            )
        )

    def get(self, path: str) -> SimFuture:
        """Resolves with (data, NodeStat)."""
        return self._roundtrip(lambda: self.service.do_get(path))

    def set(self, path: str, data: bytes, expected_version: int = -1) -> SimFuture:
        """Compare-and-set when ``expected_version >= 0``."""
        return self._roundtrip(lambda: self.service.do_set(path, data, expected_version))

    def delete(self, path: str, expected_version: int = -1) -> SimFuture:
        return self._roundtrip(lambda: self.service.do_delete(path, expected_version))

    def exists(self, path: str) -> SimFuture:
        """Resolves with a NodeStat or None."""
        return self._roundtrip(lambda: self.service.do_exists(path))

    def ensure_path(self, path: str) -> SimFuture:
        """Create ``path`` and all missing ancestors (persistent nodes)."""

        def build() -> None:
            parts = split_path(path)
            current = ""
            for part in parts:
                current += "/" + part
                try:
                    self.service.do_create(current, b"", None, False, False)
                except NodeExistsError:
                    continue

        return self._roundtrip(build)
