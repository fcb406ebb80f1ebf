"""Pravega client libraries: writer, reader, reader groups, state
synchronizer, key-value tables (§2.1, §3)."""

from repro.pravega.client.controller_client import ControllerClient
from repro.pravega.client.reader import EventBatch, EventStreamReader, ReaderConfig
from repro.pravega.client.reader_group import ReaderGroup
from repro.pravega.client.state_synchronizer import StateSynchronizer
from repro.pravega.client.tables import KeyValueTable, TableEntry
from repro.pravega.client.writer import EventStreamWriter, WriterConfig

__all__ = [
    "KeyValueTable",
    "TableEntry",
    "ControllerClient",
    "EventStreamWriter",
    "WriterConfig",
    "EventStreamReader",
    "ReaderConfig",
    "EventBatch",
    "ReaderGroup",
    "StateSynchronizer",
]
