"""Hypothesis fuzzing of everything the daemon reads off a socket.

Frame headers, whole frames and request dicts are fed arbitrary input:
each either parses or raises a typed ``FrameError``/``ProtocolError``.
A live server is fed damaged frames over a unix socket: each gets an
error reply and a closed connection (never a hang), is counted in
``protocol_errors`` and never enters the server's request-frame map.
"""

import asyncio
import json
import socket
import threading

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.schedule_cache import ScheduleCache
from repro.core.serialize import (
    FRAME_HEADER_SIZE,
    FRAME_MAGIC,
    MAX_FRAME_PAYLOAD,
    FrameError,
    frame_payload_length,
    pack_frame,
)
from repro.serve.protocol import (
    ProtocolError,
    ScheduleRequest,
    decode_message,
    encode_message,
)
from repro.serve.server import ScheduleServer

from tests.serve.test_server import reduce_dict, stencil_dict

FIELDS = [
    "op", "kind", "algorithm", "offsets", "weights", "dims", "periods",
    "send", "recv", "m_bytes", "dtype", "reduce_op", "rank", "sizes",
]
#: the byte range of the header's flags field, which readers ignore
FLAGS = range(6, 8)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8) | st.sampled_from(["alltoall", "reduce", "send"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=16,
)


@st.composite
def request_dicts(draw):
    """A valid request with up to three fields dropped or replaced, or a
    dict of arbitrary request-like fields."""
    if draw(st.booleans()):
        return draw(st.dictionaries(
            st.sampled_from(FIELDS) | st.text(max_size=6), json_values,
            max_size=8,
        ))
    d = dict(draw(st.sampled_from(
        [stencil_dict(), stencil_dict("allgather"), reduce_dict()]
    )))
    for name in draw(st.lists(st.sampled_from(FIELDS), max_size=3)):
        if draw(st.booleans()):
            d.pop(name, None)
        else:
            d[name] = draw(json_values)
    return d


@st.composite
def damaged_frames(draw):
    """A request frame with a flipped byte (outside the ignored flags),
    cut short, or replaced by bytes that do not start with the magic."""
    frame = bytearray(encode_message(draw(st.sampled_from(
        [{"op": "ping"}, {"op": "schedule", **stencil_dict()}]
    ))))
    how = draw(st.sampled_from(["flip", "cut", "garbage"]))
    if how == "flip":
        at = draw(st.integers(0, len(frame) - 1).filter(lambda i: i not in FLAGS))
        frame[at] ^= draw(st.integers(1, 255))
        return bytes(frame)
    if how == "cut":
        return bytes(frame[: draw(st.integers(1, len(frame) - 1))])
    return draw(st.binary(min_size=1, max_size=64).filter(
        lambda b: b[:4] != FRAME_MAGIC
    ))


class TestTypedErrors:
    @given(st.binary(max_size=64))
    def test_frame_payload_length(self, raw):
        try:
            n = frame_payload_length(raw)
        except FrameError:
            return
        assert len(raw) >= FRAME_HEADER_SIZE and 0 <= n <= MAX_FRAME_PAYLOAD

    @given(st.binary(max_size=256) | damaged_frames())
    def test_decode_message_on_arbitrary_bytes(self, raw):
        try:
            assert isinstance(decode_message(raw), dict)
        except (FrameError, ProtocolError):
            pass

    @given(st.binary(max_size=256))
    @example(b"[" * 100_000)  # nesting deeper than the parser recurses
    @example(b"1" * 5_000)  # an integer literal over the digit limit
    @example(b'{"m_bytes": Infinity}')
    def test_decode_message_on_well_framed_payloads(self, raw):
        try:
            assert isinstance(decode_message(pack_frame(raw)), dict)
        except ProtocolError:
            pass

    @given(request_dicts())
    @example(reduce_dict(m_bytes=float("inf")))
    @example(reduce_dict(offsets=[[10**30, 0]]))
    @example(reduce_dict(weights=[1, 2]))
    @example(reduce_dict(reduce_op=None))
    def test_from_dict_raises_only_protocol_errors(self, data):
        try:
            request = ScheduleRequest.from_dict(data)
        except ProtocolError:
            return
        hash(request.canonical_key())  # a parsed request is keyable


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    """One server on its own loop thread, with one request remembered."""
    path = str(tmp_path_factory.mktemp("fuzz") / "serve.sock")
    server = ScheduleServer(path, shm_plans=True, cache=ScheduleCache())
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(30)
    frame = encode_message({"op": "schedule", **stencil_dict()})
    for _ in range(2):
        assert decode_message(exchange(path, frame, close=False))["status"] == "ok"
    assert list(server._frames) == [frame]
    yield server
    asyncio.run_coroutine_threadsafe(server.stop(), loop).result(30)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(30)
    loop.close()


def exchange(path, frame, close=True):
    """Send ``frame`` (then end the stream if ``close``), return what the
    server writes: everything until it closes, else one reply frame.  A
    server that neither answers nor closes fails on the timeout."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(10)
        sock.connect(path)
        sock.sendall(frame)
        if close:
            sock.shutdown(socket.SHUT_WR)
        data = b""
        while True:
            if not close and len(data) >= FRAME_HEADER_SIZE:
                if len(data) >= FRAME_HEADER_SIZE + frame_payload_length(data):
                    return data
            chunk = sock.recv(1 << 16)
            if not chunk:
                return data
            data += chunk


class TestLiveServer:
    def _refused(self, server, frame):
        errors = server.stats.protocol_errors
        reply = exchange(server.address, frame)  # to the server's close
        assert decode_message(reply)["status"] == "error"
        assert server.stats.protocol_errors == errors + 1
        assert frame not in server._frames
        assert len(server._frames) == 1

    @given(damaged_frames())
    def test_damaged_frame_is_answered_counted_and_closed(self, live, frame):
        self._refused(live, frame)

    @given((st.binary(max_size=64) | json_values.map(
        lambda v: json.dumps(v).encode()
    )).filter(lambda b: not b.lstrip().startswith(b"{")))
    def test_well_framed_non_object_is_answered_counted_and_closed(
        self, live, payload
    ):
        self._refused(live, pack_frame(payload))
