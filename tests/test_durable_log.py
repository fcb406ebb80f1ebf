"""Tests for the durable log: frame batching (the paper's delay formula),
ledger rollover, truncation and recovery replay with fencing."""

import pytest

from repro.common.errors import ContainerOfflineError
from repro.common.payload import Payload
from repro.bookkeeper import Bookie, BookKeeperCluster
from repro.pravega.container.durable_log import (
    DataFrame,
    DurableLog,
    DurableLogConfig,
)
from repro.pravega.container.operations import AppendOperation
from repro.sim import Disk, Network, Simulator, all_of
from repro.zookeeper import ZookeeperService


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def env(sim):
    network = Network(sim)
    zk_service = ZookeeperService(sim, network)
    bk = BookKeeperCluster(sim, network)
    for i in range(3):
        bk.add_bookie(Bookie(sim, f"bookie-{i}", Disk(sim)))
    return network, zk_service, bk


def make_log(sim, env, config=None, applied=None):
    network, zk_service, bk = env
    applied = applied if applied is not None else []
    log = DurableLog(
        sim,
        container_id=0,
        bk_client=bk.client("store-0"),
        zk=zk_service.connect("store-0"),
        config=config or DurableLogConfig(),
        apply_callback=applied.append,
    )
    sim.run_until_complete(log.start())
    return log, applied


def append_op(segment, size, seq_hint=0):
    return AppendOperation(segment, payload=Payload.synthetic(size))


class TestWriteAndApply:
    def test_single_operation_applied(self, sim, env):
        log, applied = make_log(sim, env)
        op = append_op("seg", 100)
        result = sim.run_until_complete(log.add(op))
        assert result is op
        assert applied == [op]
        assert op.sequence_number == 0

    def test_operations_apply_in_sequence_order(self, sim, env):
        log, applied = make_log(sim, env)
        ops = [append_op("seg", 10) for _ in range(50)]
        futs = [log.add(op) for op in ops]
        sim.run_until_complete(all_of(sim, futs))
        assert [op.sequence_number for op in applied] == list(range(50))

    def test_concurrent_ops_batch_into_frames(self, sim, env):
        log, _ = make_log(sim, env)
        futs = [log.add(append_op("seg", 100)) for _ in range(200)]
        sim.run_until_complete(all_of(sim, futs))
        assert log.frames_written < 50  # heavily batched
        assert log.operations_applied == 200

    def test_frame_respects_max_size(self, sim, env):
        config = DurableLogConfig(max_frame_size=1024)
        log, _ = make_log(sim, env, config)
        futs = [log.add(append_op("seg", 300)) for _ in range(10)]
        sim.run_until_complete(all_of(sim, futs))
        # 300+32 bytes/op, 1024-byte frames: about 3 ops per frame.
        assert log.frames_written >= 3

    def test_oversized_single_op_still_written(self, sim, env):
        config = DurableLogConfig(max_frame_size=1024)
        log, applied = make_log(sim, env, config)
        sim.run_until_complete(log.add(append_op("seg", 10_000)))
        assert len(applied) == 1

    def test_adaptive_delay_bounded(self, sim, env):
        """A lone small op at low rate must not wait longer than the bound."""
        config = DurableLogConfig(max_batch_delay=0.005)
        log, _ = make_log(sim, env, config)
        start = sim.now
        sim.run_until_complete(log.add(append_op("seg", 10)))
        assert sim.now - start < 0.05

    def test_offline_log_rejects(self, sim, env):
        log, _ = make_log(sim, env)
        log.shutdown()
        with pytest.raises(ContainerOfflineError):
            sim.run_until_complete(log.add(append_op("seg", 1)))

    def test_shutdown_fails_queued_ops(self, sim, env):
        log, _ = make_log(sim, env)
        futs = [log.add(append_op("seg", 100)) for _ in range(5)]
        log.shutdown()
        sim.run()
        assert all(f.done for f in futs)


class TestRolloverAndTruncation:
    def test_ledger_rollover(self, sim, env):
        config = DurableLogConfig(ledger_rollover_bytes=5_000)
        log, _ = make_log(sim, env, config)
        for _ in range(10):
            sim.run_until_complete(log.add(append_op("seg", 1_000)))
        assert log.ledger_count > 1

    def test_truncate_deletes_old_ledgers(self, sim, env):
        network, zk_service, bk = env
        config = DurableLogConfig(ledger_rollover_bytes=5_000)
        log, _ = make_log(sim, env, config)
        last_seq = -1
        for _ in range(10):
            op = append_op("seg", 1_000)
            sim.run_until_complete(log.add(op))
            last_seq = op.sequence_number
        before = log.ledger_count
        deleted = sim.run_until_complete(log.truncate(last_seq))
        assert deleted >= 1
        assert log.ledger_count < before

    def test_truncate_never_deletes_current_ledger(self, sim, env):
        log, _ = make_log(sim, env)
        sim.run_until_complete(log.add(append_op("seg", 100)))
        sim.run_until_complete(log.truncate(10**9))
        assert log.ledger_count == 1

    def test_truncate_respects_sequence_bound(self, sim, env):
        config = DurableLogConfig(ledger_rollover_bytes=2_000)
        log, _ = make_log(sim, env, config)
        ops = []
        for _ in range(10):
            op = append_op("seg", 1_000)
            sim.run_until_complete(log.add(op))
            ops.append(op)
        # Nothing flushed: truncating below the first op removes nothing.
        deleted = sim.run_until_complete(log.truncate(-1))
        assert deleted == 0


class TestRecovery:
    def test_recover_replays_frames_in_order(self, sim, env):
        network, zk_service, bk = env
        log, _ = make_log(sim, env)
        ops = [append_op("seg", 50) for _ in range(20)]
        for op in ops:
            sim.run_until_complete(log.add(op))
        frames, new_log = sim.run_until_complete(
            DurableLog.recover(sim, 0, bk.client("store-1"), zk_service.connect("store-1"))
        )
        recovered = [op for frame in frames for op in frame.operations]
        assert [op.sequence_number for op in recovered] == list(range(20))
        assert new_log.online

    def test_recovery_fences_old_log(self, sim, env):
        network, zk_service, bk = env
        log, _ = make_log(sim, env)
        sim.run_until_complete(log.add(append_op("seg", 50)))
        sim.run_until_complete(
            DurableLog.recover(sim, 0, bk.client("store-1"), zk_service.connect("store-1"))
        )
        # The old owner can no longer append: its ledger is fenced.
        fut = log.add(append_op("seg", 50))
        sim.run()
        assert fut.done and fut.exception is not None
        assert not log.online

    def test_new_log_continues_sequence_numbers(self, sim, env):
        network, zk_service, bk = env
        log, _ = make_log(sim, env)
        for _ in range(5):
            sim.run_until_complete(log.add(append_op("seg", 10)))
        frames, new_log = sim.run_until_complete(
            DurableLog.recover(sim, 0, bk.client("store-1"), zk_service.connect("store-1"))
        )
        op = append_op("seg", 10)
        sim.run_until_complete(new_log.add(op))
        assert op.sequence_number == 5

    def test_recover_empty_container(self, sim, env):
        network, zk_service, bk = env
        frames, new_log = sim.run_until_complete(
            DurableLog.recover(sim, 7, bk.client("store-1"), zk_service.connect("store-1"))
        )
        assert frames == []
        assert new_log.online

    def test_recover_skips_truncated_ledgers(self, sim, env):
        network, zk_service, bk = env
        config = DurableLogConfig(ledger_rollover_bytes=2_000)
        log, _ = make_log(sim, env, config)
        ops = []
        for _ in range(10):
            op = append_op("seg", 1_000)
            sim.run_until_complete(log.add(op))
            ops.append(op)
        sim.run_until_complete(log.truncate(ops[5].sequence_number))
        frames, _ = sim.run_until_complete(
            DurableLog.recover(sim, 0, bk.client("store-1"), zk_service.connect("store-1"))
        )
        recovered = [op for frame in frames for op in frame.operations]
        assert recovered  # the tail survives
        assert all(op.sequence_number > ops[5].sequence_number for op in recovered)

    def test_second_crash_before_checkpoint_replays_everything(self, sim, env):
        """A repeat crash before any checkpoint lets truncation run must
        still find the ledgers the first recovery replayed: the recovered
        ledgers stay on the new log's ZK ledger list, not only the one it
        opened (losing them was silent data loss)."""
        network, zk_service, bk = env
        log, _ = make_log(sim, env)
        for _ in range(6):
            sim.run_until_complete(log.add(append_op("seg", 50)))
        _, second = sim.run_until_complete(
            DurableLog.recover(sim, 0, bk.client("store-1"), zk_service.connect("store-1"))
        )
        for _ in range(4):
            sim.run_until_complete(second.add(append_op("seg", 50)))
        frames, _ = sim.run_until_complete(
            DurableLog.recover(sim, 0, bk.client("store-2"), zk_service.connect("store-2"))
        )
        recovered = [op for frame in frames for op in frame.operations]
        assert [op.sequence_number for op in recovered] == list(range(10))
