"""Exception hierarchy shared across the reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can distinguish faults of the system under test from programming
errors in the harness itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly."""


class CoordinationError(ReproError):
    """Base class for coordination-service (zookeeper) errors."""


class NoNodeError(CoordinationError):
    """The requested znode does not exist."""


class NodeExistsError(CoordinationError):
    """A znode already exists at the requested path."""


class BadVersionError(CoordinationError):
    """A compare-and-set failed because the version did not match."""


class SessionExpiredError(CoordinationError):
    """The client session has expired; ephemeral nodes were removed."""


class BookkeeperError(ReproError):
    """Base class for write-ahead-log (bookkeeper) errors."""


class LedgerFencedError(BookkeeperError):
    """An append was rejected because the ledger has been fenced."""


class LedgerClosedError(BookkeeperError):
    """An append was attempted on a closed ledger."""


class NoSuchLedgerError(BookkeeperError):
    """The requested ledger does not exist (e.g. already deleted)."""


class NotEnoughBookiesError(BookkeeperError):
    """An ensemble could not be formed from the available bookies."""


class StorageError(ReproError):
    """Base class for long-term-storage errors."""


class NoSuchChunkError(StorageError):
    """The requested LTS chunk/object/file does not exist."""


class StreamError(ReproError):
    """Base class for stream/controller errors."""


class StreamNotFoundError(StreamError):
    """The requested stream does not exist."""


class StreamExistsError(StreamError):
    """A stream already exists with the requested name."""


class StreamSealedError(StreamError):
    """The operation is not permitted on a sealed stream."""


class SegmentError(ReproError):
    """Base class for segment-level errors."""


class SegmentNotFoundError(SegmentError):
    """The requested segment does not exist (deleted or never created)."""


class SegmentSealedError(SegmentError):
    """An append/seal-sensitive operation hit a sealed segment."""


class SegmentExistsError(SegmentError):
    """A segment already exists with the requested id."""


class ContainerError(ReproError):
    """Base class for segment-container faults."""


class ContainerOfflineError(ContainerError):
    """The container is shut down or recovering."""


class ConditionalUpdateError(ReproError):
    """A conditional key-value-table update failed (version mismatch)."""


class WriterError(ReproError):
    """Base class for event-writer errors."""


class ReaderError(ReproError):
    """Base class for event-reader errors."""


class KafkaError(ReproError):
    """Base class for the Kafka baseline."""


class NotEnoughReplicasError(KafkaError):
    """acks=all could not be satisfied by the in-sync replica set."""


class PulsarError(ReproError):
    """Base class for the Pulsar baseline."""


class BrokerCrashedError(PulsarError):
    """The broker crashed (memory-pressure model) during the operation."""


class FaultInjectionError(ReproError):
    """Base class for failures injected by the fault engine (repro.faults)."""


class DiskFaultError(FaultInjectionError):
    """An injected disk failure: the I/O completes with a device error."""


class InjectedCrashError(FaultInjectionError):
    """An injected process crash fired inside a code path (e.g. recovery)."""
