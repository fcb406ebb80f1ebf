"""Tests for the Bookkeeper substrate: journal group commit, quorum
replication, LAC ordering, fencing and recovery."""

import pytest

from repro.common.errors import (
    BookkeeperError,
    LedgerClosedError,
    LedgerFencedError,
    NoSuchLedgerError,
    NotEnoughBookiesError,
)
from repro.common.payload import Payload
from repro.bookkeeper import Bookie, BookKeeperCluster, Entry
from repro.sim import Disk, DiskSpec, Network, Simulator, all_of


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def cluster(sim):
    network = Network(sim)
    cluster = BookKeeperCluster(sim, network)
    for i in range(3):
        name = f"bookie-{i}"
        cluster.add_bookie(Bookie(sim, name, Disk(sim, DiskSpec())))
    return cluster


@pytest.fixture()
def client(cluster):
    return cluster.client("client-host")


def run(sim, fut, timeout=None):
    return sim.run_until_complete(fut, timeout=timeout)


class TestBookieJournal:
    def test_add_entry_durable_after_ack(self, sim):
        bookie = Bookie(sim, "b0", Disk(sim))
        entry = Entry(0, 0, Payload.of(b"hello"))
        run(sim, bookie.add_entry(entry))
        assert bookie.read_entry(0, 0).payload.content == b"hello"
        assert bookie.entries_journaled == 1

    def test_group_commit_batches_concurrent_appends(self, sim):
        bookie = Bookie(sim, "b0", Disk(sim))
        futures = [
            bookie.add_entry(Entry(0, i, Payload.of(bytes([i])))) for i in range(50)
        ]
        run(sim, all_of(sim, futures))
        # First append starts a batch of its own; the rest coalesce.
        assert bookie.journal_batches < 10
        assert bookie.entries_journaled == 50

    def test_group_commit_amortizes_fsync(self, sim):
        """The mechanism of §5.2: Bookkeeper persists before acking but
        groups opportunistically, so per-append fsync cost is amortized."""
        disk = Disk(sim, DiskSpec())
        bookie = Bookie(sim, "b0", disk)
        futures = [
            bookie.add_entry(Entry(0, i, Payload.synthetic(100))) for i in range(1000)
        ]
        run(sim, all_of(sim, futures))
        grouped_time = sim.now

        sim2 = Simulator()
        disk2 = Disk(sim2, DiskSpec())
        serial_time = 0.0
        for _ in range(1000):
            serial_time += disk2.service_time("journal", 164, sync=True)
        assert grouped_time < serial_time / 5

    def test_no_flush_mode_uses_page_cache(self, sim):
        disk = Disk(sim, DiskSpec())
        bookie = Bookie(sim, "b0", disk, journal_sync=False)
        run(sim, bookie.add_entry(Entry(0, 0, Payload.synthetic(1000))))
        ack_time = sim.now
        assert ack_time < disk.service_time("journal", 1064, sync=True)

    def test_fence_rejects_future_appends(self, sim):
        bookie = Bookie(sim, "b0", Disk(sim))
        run(sim, bookie.add_entry(Entry(7, 0, Payload.of(b"a"))))
        last = bookie.fence(7)
        assert last == 0
        with pytest.raises(LedgerFencedError):
            run(sim, bookie.add_entry(Entry(7, 1, Payload.of(b"b"))))

    def test_fence_empty_ledger(self, sim):
        bookie = Bookie(sim, "b0", Disk(sim))
        assert bookie.fence(99) == -1

    def test_crashed_bookie_rejects(self, sim):
        bookie = Bookie(sim, "b0", Disk(sim))
        bookie.crash()
        with pytest.raises(BookkeeperError):
            run(sim, bookie.add_entry(Entry(0, 0, Payload.of(b"x"))))

    def test_delete_ledger_frees_entries(self, sim):
        bookie = Bookie(sim, "b0", Disk(sim))
        run(sim, bookie.add_entry(Entry(3, 0, Payload.of(b"abc"))))
        assert bookie.stored_bytes() == 3
        bookie.delete_ledger(3)
        assert bookie.stored_bytes() == 0
        with pytest.raises(NoSuchLedgerError):
            bookie.read_entry(3, 0)


class TestLedgerHandle:
    def test_append_and_read_roundtrip(self, sim, client):
        handle = client.create_ledger()
        for i in range(5):
            run(sim, handle.append(Payload.of(f"event-{i}".encode())))
        entries = run(sim, handle.read(0, 4))
        assert [e.payload.content for e in entries] == [
            f"event-{i}".encode() for i in range(5)
        ]

    def test_acks_respect_quorum(self, sim, cluster, client):
        handle = client.create_ledger(ensemble_size=3, write_quorum=3, ack_quorum=2)
        run(sim, handle.append(Payload.of(b"data")))
        stored = sum(
            1 for b in cluster.bookies.values() if b.has_entry(handle.ledger_id, 0)
        )
        assert stored >= 2

    def test_appends_complete_in_order(self, sim, client):
        handle = client.create_ledger()
        order = []
        futures = []
        for i in range(20):
            fut = handle.append(Payload.synthetic(100))
            fut.add_callback(lambda f, i=i: order.append(i))
            futures.append(fut)
        run(sim, all_of(sim, futures))
        assert order == list(range(20))
        assert handle.last_add_confirmed == 19

    def test_one_crashed_bookie_tolerated_with_ack_quorum_2(self, sim, cluster, client):
        handle = client.create_ledger(ensemble_size=3, write_quorum=3, ack_quorum=2)
        cluster.bookie(handle.metadata.ensemble[2]).crash()
        assert run(sim, handle.append(Payload.of(b"x"))) == 0

    def test_two_crashed_bookies_fail_append(self, sim, cluster, client):
        handle = client.create_ledger(ensemble_size=3, write_quorum=3, ack_quorum=2)
        cluster.bookie(handle.metadata.ensemble[1]).crash()
        cluster.bookie(handle.metadata.ensemble[2]).crash()
        with pytest.raises(BookkeeperError):
            run(sim, handle.append(Payload.of(b"x")))

    def test_not_enough_bookies_rejected(self, sim, cluster, client):
        cluster.bookie("bookie-0").crash()
        with pytest.raises(NotEnoughBookiesError):
            client.create_ledger(ensemble_size=3)

    def test_closed_ledger_rejects_appends(self, sim, client):
        handle = client.create_ledger()
        run(sim, handle.append(Payload.of(b"x")))
        handle.close()
        with pytest.raises(LedgerClosedError):
            run(sim, handle.append(Payload.of(b"y")))
        assert handle.metadata.last_entry_id == 0

    def test_failed_entry_fails_every_later_pending_add(self, sim, cluster, client):
        """An entry that loses its quorum fails every add still pending
        on the handle (BookKeeper's ``errorOutPendingAdds``): the LAC can
        never pass the failed entry, so a later entry that did reach a
        quorum must not wait forever."""
        handle = client.create_ledger(ensemble_size=3, write_quorum=3, ack_quorum=2)
        assert run(sim, handle.append(Payload.synthetic(100))) == 0
        down = [cluster.bookie(name) for name in handle.metadata.ensemble[:2]]
        for bookie in down:
            bookie.crash()
        first = handle.append(Payload.synthetic(100))
        later = []
        # e2 leaves 50 us after e1; both bookies are back 170 us after e1,
        # after e1's replicas bounced and before e2's arrive.
        sim.schedule(50e-6, lambda: later.append(handle.append(Payload.synthetic(100))))
        sim.schedule(170e-6, lambda: [bookie.restart() for bookie in down])
        sim.run()
        (second,) = later
        assert isinstance(first.exception, BookkeeperError)
        assert second.done, "a later in-flight add was stranded by the failed one"
        assert second.exception is first.exception
        assert handle.last_add_confirmed == 0
        with pytest.raises(LedgerFencedError):
            run(sim, handle.append(Payload.synthetic(100)))

    def test_striping_with_write_quorum_smaller_than_ensemble(self, sim, cluster, client):
        handle = client.create_ledger(ensemble_size=3, write_quorum=2, ack_quorum=2)
        futures = [handle.append(Payload.synthetic(10)) for _ in range(6)]
        run(sim, all_of(sim, futures))
        counts = [
            sum(1 for e in range(6) if b.has_entry(handle.ledger_id, e))
            for b in cluster.bookies.values()
        ]
        # Each entry on exactly 2 bookies, spread evenly.
        assert sum(counts) == 12
        assert all(c == 4 for c in counts)


class TestFencingRecovery:
    def test_recovery_fences_old_writer(self, sim, cluster, client):
        writer = client.create_ledger()
        run(sim, writer.append(Payload.of(b"before")))
        recovering = cluster.client("new-owner")
        handle = run(sim, recovering.open_ledger_with_recovery(writer.ledger_id))
        assert handle.metadata.last_entry_id == 0
        with pytest.raises((LedgerFencedError, BookkeeperError)):
            run(sim, writer.append(Payload.of(b"after")))

    def test_recovered_handle_reads_all_acked(self, sim, cluster, client):
        writer = client.create_ledger()
        for i in range(10):
            run(sim, writer.append(Payload.of(bytes([i]))))
        handle = run(
            sim, cluster.client("other").open_ledger_with_recovery(writer.ledger_id)
        )
        entries = run(sim, handle.read(0, handle.metadata.last_entry_id))
        assert len(entries) == 10

    def test_recovery_idempotent(self, sim, cluster, client):
        writer = client.create_ledger()
        run(sim, writer.append(Payload.of(b"x")))
        first = run(sim, cluster.client("a").open_ledger_with_recovery(writer.ledger_id))
        second = run(sim, cluster.client("b").open_ledger_with_recovery(writer.ledger_id))
        assert first.metadata.last_entry_id == second.metadata.last_entry_id == 0

    def test_delete_ledger_removes_metadata(self, sim, cluster, client):
        handle = client.create_ledger()
        run(sim, handle.append(Payload.of(b"x")))
        run(sim, client.delete_ledger(handle.ledger_id))
        with pytest.raises(NoSuchLedgerError):
            cluster.ledger_manager.get(handle.ledger_id)
        assert all(b.stored_bytes() == 0 for b in cluster.bookies.values())
