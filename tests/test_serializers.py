"""Tests for event wire framing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pravega.client.serializers import (
    EVENT_HEADER_SIZE,
    frame_event,
    frame_synthetic_event,
    framed_size,
    unframe_events,
)
from repro.pravega.client.serializers import unframe_fixed


class TestFraming:
    def test_frame_adds_header(self):
        framed = frame_event(b"abc")
        assert framed.size == EVENT_HEADER_SIZE + 3

    def test_framed_size(self):
        assert framed_size(100) == 108

    def test_unframe_single(self):
        events, consumed = unframe_events(frame_event(b"hello").content)
        assert events == [b"hello"]
        assert consumed == EVENT_HEADER_SIZE + 5

    def test_unframe_multiple(self):
        buffer = (frame_event(b"a") + frame_event(b"bb") + frame_event(b"")).content
        events, consumed = unframe_events(buffer)
        assert events == [b"a", b"bb", b""]
        assert consumed == len(buffer)

    def test_unframe_partial_frame_left(self):
        buffer = frame_event(b"full").content + b"\x00\x00\x00"
        events, consumed = unframe_events(buffer)
        assert events == [b"full"]
        assert consumed == len(buffer) - 3

    def test_unframe_partial_header(self):
        events, consumed = unframe_events(b"\x00" * 5)
        assert events == [] and consumed == 0

    def test_unframe_split_across_reads(self):
        whole = frame_event(b"payload-x").content
        first, second = whole[:7], whole[7:]
        events, consumed = unframe_events(first)
        assert events == []
        events, consumed = unframe_events(first[consumed:] + second)
        assert events == [b"payload-x"]

    def test_synthetic_frame_size_only(self):
        framed = frame_synthetic_event(100)
        assert framed.size == 108 and framed.is_synthetic

    def test_unframe_fixed(self):
        count, consumed = unframe_fixed(5 * 108 + 50, 100)
        assert count == 5
        assert consumed == 5 * 108

    @given(st.lists(st.binary(max_size=50), max_size=20))
    def test_frame_unframe_roundtrip(self, payloads):
        from repro.common.payload import Payload

        buffer = Payload.concat([frame_event(p) for p in payloads]).content or b""
        events, consumed = unframe_events(buffer)
        assert events == payloads
        assert consumed == len(buffer)
