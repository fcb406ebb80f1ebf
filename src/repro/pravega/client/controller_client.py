"""Client-side stub for the controller: every call costs a network round
trip from the client host to the controller host."""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.common.keyspace import KeyRange
from repro.pravega.controller import Controller, SegmentLocation
from repro.pravega.model import StreamConfiguration
from repro.sim.core import SimFuture

__all__ = ["ControllerClient"]

_REQUEST_BYTES = 256


class ControllerClient:
    """Client-side controller stub; each call pays a network round trip."""
    def __init__(self, controller: Controller, client_host: str) -> None:
        self.controller = controller
        self.client_host = client_host

    def _roundtrip(self, operation: Callable[[], Any]) -> SimFuture:
        sim = self.controller.sim
        network = self.controller.network
        result = sim.future()

        def run():
            yield network.delay(self.client_host, self.controller.host, _REQUEST_BYTES)
            yield sim.timeout(self.controller.config.request_processing_time)
            value = operation()
            if isinstance(value, SimFuture):
                value = yield value
            yield network.delay(self.controller.host, self.client_host, _REQUEST_BYTES)
            return value

        proc = sim.process(run())
        proc.add_callback(
            lambda p: result.set_exception(p.exception)
            if p.exception is not None
            else result.set_result(p._value)
        )
        return result

    # ------------------------------------------------------------------
    def create_scope(self, scope: str) -> SimFuture:
        return self._roundtrip(lambda: self.controller.create_scope(scope))

    def create_stream(
        self, scope: str, stream: str, config: Optional[StreamConfiguration] = None
    ) -> SimFuture:
        return self._roundtrip(
            lambda: self.controller.create_stream(scope, stream, config)
        )

    def seal_stream(self, scope: str, stream: str) -> SimFuture:
        return self._roundtrip(lambda: self.controller.seal_stream(scope, stream))

    def delete_stream(self, scope: str, stream: str) -> SimFuture:
        return self._roundtrip(lambda: self.controller.delete_stream(scope, stream))

    def get_active_segments(self, scope: str, stream: str) -> SimFuture:
        """Resolves with List[SegmentLocation]."""
        return self._roundtrip(
            lambda: self.controller.get_active_segments(scope, stream)
        )

    def get_successors(self, scope: str, stream: str, segment_number: int) -> SimFuture:
        """Resolves with Dict[successor, List[predecessors]]."""
        return self._roundtrip(
            lambda: self.controller.get_successors(scope, stream, segment_number)
        )

    def get_location(self, scope: str, stream: str, segment_number: int) -> SimFuture:
        return self._roundtrip(
            lambda: self.controller.get_location(scope, stream, segment_number)
        )

    def head_segments(self, scope: str, stream: str) -> SimFuture:
        return self._roundtrip(lambda: self.controller.head_segments(scope, stream))

    def scale_stream(
        self,
        scope: str,
        stream: str,
        seal_segments: List[int],
        new_ranges: List[KeyRange],
    ) -> SimFuture:
        return self._roundtrip(
            lambda: self.controller.scale_stream(scope, stream, seal_segments, new_ranges)
        )

    def truncate_stream(self, scope: str, stream: str, cut: Dict[int, int]) -> SimFuture:
        return self._roundtrip(
            lambda: self.controller.truncate_stream(scope, stream, cut)
        )
