"""Tests for the coordination service: znode tree, CAS and sessions."""

import pytest

from repro.common.errors import (
    BadVersionError,
    NoNodeError,
    NodeExistsError,
    SessionExpiredError,
)
from repro.sim import Network, Simulator
from repro.zookeeper import (
    ZookeeperService,
    parent_path,
    split_path,
    validate_path,
)


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def zk_service(sim):
    return ZookeeperService(sim, Network(sim))


@pytest.fixture()
def zk(sim, zk_service):
    return zk_service.connect("client-1")


def run(sim, fut):
    return sim.run_until_complete(fut)


class TestPaths:
    def test_validate_rejects_relative(self):
        with pytest.raises(ValueError):
            validate_path("relative/path")

    def test_validate_rejects_trailing_slash(self):
        with pytest.raises(ValueError):
            validate_path("/a/")

    def test_validate_rejects_double_slash(self):
        with pytest.raises(ValueError):
            validate_path("/a//b")

    def test_split_and_parent(self):
        assert split_path("/") == []
        assert split_path("/a/b") == ["a", "b"]
        assert parent_path("/a/b") == "/a"
        assert parent_path("/a") == "/"
        with pytest.raises(ValueError):
            parent_path("/")


class TestCrud:
    def test_create_and_get(self, sim, zk):
        run(sim, zk.create("/node", b"hello"))
        data, stat = run(sim, zk.get("/node"))
        assert data == b"hello"
        assert stat.version == 0

    def test_create_duplicate_rejected(self, sim, zk):
        run(sim, zk.create("/node"))
        with pytest.raises(NodeExistsError):
            run(sim, zk.create("/node"))

    def test_create_without_parent_rejected(self, sim, zk):
        with pytest.raises(NoNodeError):
            run(sim, zk.create("/a/b"))

    def test_ensure_path_creates_ancestors(self, sim, zk):
        run(sim, zk.ensure_path("/a/b/c"))
        assert run(sim, zk.exists("/a/b/c")) is not None
        # Idempotent.
        run(sim, zk.ensure_path("/a/b/c"))

    def test_set_bumps_version(self, sim, zk):
        run(sim, zk.create("/node", b"v0"))
        stat = run(sim, zk.set("/node", b"v1"))
        assert stat.version == 1
        data, _ = run(sim, zk.get("/node"))
        assert data == b"v1"

    def test_cas_succeeds_on_matching_version(self, sim, zk):
        run(sim, zk.create("/node", b"v0"))
        run(sim, zk.set("/node", b"v1", expected_version=0))
        with pytest.raises(BadVersionError):
            run(sim, zk.set("/node", b"v2", expected_version=0))

    def test_delete(self, sim, zk):
        run(sim, zk.create("/node"))
        run(sim, zk.delete("/node"))
        assert run(sim, zk.exists("/node")) is None

    def test_delete_with_children_rejected(self, sim, zk):
        run(sim, zk.ensure_path("/a/b"))
        with pytest.raises(NodeExistsError):
            run(sim, zk.delete("/a"))

    def test_delete_missing_rejected(self, sim, zk):
        with pytest.raises(NoNodeError):
            run(sim, zk.delete("/nope"))

    def test_sequential_nodes_numbered(self, sim, zk):
        run(sim, zk.create("/queue"))
        first = run(sim, zk.create("/queue/item-", sequential=True))
        second = run(sim, zk.create("/queue/item-", sequential=True))
        assert first == "/queue/item-0000000000"
        assert second == "/queue/item-0000000001"

    def test_operations_cost_simulated_time(self, sim, zk):
        run(sim, zk.create("/node"))
        assert sim.now > 0.0


class TestSessions:
    def test_ephemeral_removed_on_expiry(self, sim, zk_service):
        client = zk_service.connect("host-a")
        sim.run_until_complete(client.create("/live", ephemeral=True))
        zk_service.expire_session(client.session_id)
        other = zk_service.connect("host-b")
        assert sim.run_until_complete(other.exists("/live")) is None

    def test_persistent_survives_expiry(self, sim, zk_service):
        client = zk_service.connect("host-a")
        sim.run_until_complete(client.create("/durable"))
        zk_service.expire_session(client.session_id)
        other = zk_service.connect("host-b")
        assert sim.run_until_complete(other.exists("/durable")) is not None

    def test_expired_session_rejects_operations(self, sim, zk_service):
        client = zk_service.connect("host-a")
        zk_service.expire_session(client.session_id)
        with pytest.raises(SessionExpiredError):
            sim.run_until_complete(client.create("/x"))

    def test_close_is_graceful_expiry(self, sim, zk_service):
        client = zk_service.connect("host-a")
        sim.run_until_complete(client.create("/e", ephemeral=True))
        client.close()
        assert not client.alive
