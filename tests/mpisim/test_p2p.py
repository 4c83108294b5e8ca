"""Point-to-point semantics on the threaded engine."""

import numpy as np
import pytest

from repro.mpisim.engine import run_ranks
from repro.mpisim.mailbox import ANY_SOURCE, ANY_TAG


class TestObjectMode:
    def test_send_recv(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send({"a": [1, 2]}, dest=1, tag=7)
                return None
            return comm.recv(source=0, tag=7)

        assert run_ranks(2, fn, timeout=20)[1] == {"a": [1, 2]}

    def test_payload_isolated_from_sender_mutation(self):
        def fn(comm):
            if comm.rank == 0:
                data = [1, 2, 3]
                req = comm.isend(data, dest=1)
                data.append(99)  # must not reach the receiver
                req.wait()
                return None
            return comm.recv(source=0)

        assert run_ranks(2, fn, timeout=20)[1] == [1, 2, 3]

    def test_any_source_any_tag(self):
        def fn(comm):
            if comm.rank != 0:
                comm.send(comm.rank, dest=0, tag=comm.rank * 10)
                return None
            got = sorted(comm.recv(ANY_SOURCE, ANY_TAG) for _ in range(3))
            return got

        assert run_ranks(4, fn, timeout=20)[0] == [1, 2, 3]

    def test_tag_selectivity(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
                return None
            # receive out of tag order: matching is by tag, not arrival
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (first, second)

        assert run_ranks(2, fn, timeout=20)[1] == ("first", "second")

    def test_non_overtaking_same_tag(self):
        def fn(comm):
            if comm.rank == 0:
                for i in range(10):
                    comm.send(i, dest=1, tag=0)
                return None
            return [comm.recv(source=0, tag=0) for _ in range(10)]

        assert run_ranks(2, fn, timeout=20)[1] == list(range(10))

    def test_self_send(self):
        def fn(comm):
            req = comm.irecv(source=comm.rank, tag=5)
            comm.send("me", dest=comm.rank, tag=5)
            return req.wait(5.0)

        assert run_ranks(1, fn, timeout=20) == ["me"]

    def test_sendrecv_ring(self):
        def fn(comm):
            nxt = (comm.rank + 1) % comm.size
            prv = (comm.rank - 1) % comm.size
            return comm.sendrecv(comm.rank, nxt, prv)

        assert run_ranks(5, fn, timeout=20) == [4, 0, 1, 2, 3]

    def test_invalid_peer(self):
        def fn(comm):
            comm.send(1, dest=99)

        with pytest.raises(Exception, match="out of range"):
            run_ranks(2, fn, timeout=20)

    def test_request_status(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(b"payload", dest=1, tag=11)
                return None
            req = comm.irecv(ANY_SOURCE, ANY_TAG)
            req.wait(5.0)
            return (req.status["source"], req.status["tag"])

        assert run_ranks(2, fn, timeout=20)[1] == (0, 11)

    def test_isend_test_and_completed(self):
        def fn(comm):
            if comm.rank == 0:
                req = comm.isend(1, dest=1)
                assert req.test() and req.completed
                return None
            req = comm.irecv(source=0)
            req.wait(5.0)
            assert req.completed
            return None

        run_ranks(2, fn, timeout=20)


class TestBufferMode:
    def test_buffer_roundtrip(self):
        def fn(comm):
            if comm.rank == 0:
                comm.isend_buffer(np.arange(10, dtype=np.int32), dest=1)
                return None
            buf = np.zeros(10, dtype=np.int32)
            comm.recv_into(buf, source=0)
            return buf.tolist()

        assert run_ranks(2, fn, timeout=20)[1] == list(range(10))

    def test_bytes_roundtrip(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send_bytes(b"hello bytes", dest=1)
                return None
            buf = np.zeros(11, dtype=np.uint8)
            comm.recv_into(buf, source=0)
            return bytes(buf)

        assert run_ranks(2, fn, timeout=20)[1] == b"hello bytes"

    def test_truncation_raises(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send_bytes(b"x" * 100, dest=1)
                return None
            buf = np.zeros(10, dtype=np.uint8)
            comm.recv_into(buf, source=0)

        with pytest.raises(Exception, match="does not fit"):
            run_ranks(2, fn, timeout=20)

    def test_short_message_into_large_buffer_ok(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send_bytes(b"ab", dest=1)
                return None
            buf = np.full(6, 9, dtype=np.uint8)
            comm.recv_into(buf, source=0)
            return bytes(buf)

        assert run_ranks(2, fn, timeout=20)[1] == b"ab\x09\x09\x09\x09"

    def test_sendrecv_buffer(self):
        def fn(comm):
            nxt = (comm.rank + 1) % comm.size
            prv = (comm.rank - 1) % comm.size
            out = np.full(4, comm.rank, dtype=np.int64)
            inn = np.zeros(4, dtype=np.int64)
            comm.sendrecv_buffer(out, nxt, inn, prv)
            return inn[0]

        assert run_ranks(4, fn, timeout=20) == [3, 0, 1, 2]

    def test_noncontiguous_recv_refused(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send_bytes(b"abcd", dest=1)
                return None
            big = np.zeros((4, 4), dtype=np.uint8)
            comm.recv_into(big[:, 0], source=0)  # a strided view

        with pytest.raises(Exception, match="C-contiguous"):
            run_ranks(2, fn, timeout=20)


class TestCommunicatorDup:
    def test_dup_isolates_matching(self):
        def fn(comm):
            dup = comm.dup()
            if comm.rank == 0:
                comm.send("on-parent", dest=1, tag=0)
                dup.send("on-dup", dest=1, tag=0)
                return None
            # receive from the dup first: comm_id matching must keep the
            # parent's message out of the dup's receive
            got_dup = dup.recv(source=0, tag=0)
            got_parent = comm.recv(source=0, tag=0)
            return (got_parent, got_dup)

        assert run_ranks(2, fn, timeout=20)[1] == ("on-parent", "on-dup")

    def test_dup_ids_agree_across_ranks(self):
        def fn(comm):
            return comm.dup().comm_id

        ids = run_ranks(3, fn, timeout=20)
        assert len(set(ids)) == 1
