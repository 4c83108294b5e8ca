"""Harness-owned references and the per-op timeout.

Outputs are checked against what the paper's definitions say, computed
here with plain NumPy — never against ``repro.core.verify`` or any other
code of the program under test.  Ranks are numbered row-major over
``dims`` (the MPI convention), and every topology here is a torus.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np


class OracleMismatch(AssertionError):
    """An output differs from its reference."""


class OpTimeout(Exception):
    """One operation exceeded its time limit (counted as failed)."""


@contextmanager
def op_timeout(seconds: float) -> Iterator[None]:
    """Raise :class:`OpTimeout` in the main thread when the block runs
    longer than ``seconds``, so a hang is a failed op, not a stuck
    benchmark.  Outside the main thread (where signals cannot be
    delivered) the block runs unguarded; those callers bound their waits
    themselves (socket and engine timeouts)."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def on_alarm(signum: int, frame: object) -> None:
        raise OpTimeout(f"operation exceeded {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise OracleMismatch(what)


# ---------------------------------------------------------------------------
# Section 2: block i of rank r comes from rank r - N[i]
# ---------------------------------------------------------------------------


def source_ranks(dims: Sequence[int], offsets: np.ndarray) -> np.ndarray:
    """``src[r, i]`` = the rank at ``coords(r) - N[i]`` on the torus."""
    dims = tuple(int(d) for d in dims)
    p = int(np.prod(dims))
    coords = np.stack(np.unravel_index(np.arange(p), dims), axis=1)
    offsets = np.asarray(offsets, dtype=np.int64)
    shifted = (coords[:, None, :] - offsets[None, :, :]) % np.asarray(dims)
    return np.ravel_multi_index(tuple(np.moveaxis(shifted, 2, 0)), dims)


def check_alltoall(
    dims: Sequence[int], offsets: np.ndarray, send: np.ndarray, recv: np.ndarray
) -> None:
    """``send``/``recv`` are ``(p, t, m)``: receive block ``i`` of rank
    ``r`` is send block ``i`` of rank ``r - N[i]``."""
    src = source_ranks(dims, offsets)
    t = src.shape[1]
    expected = send[src, np.arange(t)[None, :]]
    _require(np.array_equal(recv, expected), "alltoall output differs from the definition")


def check_allgather(
    dims: Sequence[int], offsets: np.ndarray, send: np.ndarray, recv: np.ndarray
) -> None:
    """``send`` is ``(p, m)``, ``recv`` ``(p, t, m)``: receive block
    ``i`` of rank ``r`` is the whole send buffer of rank ``r - N[i]``."""
    src = source_ranks(dims, offsets)
    _require(np.array_equal(recv, send[src]), "allgather output differs from the definition")


def neighborhood_sum(
    dims: Sequence[int], offsets: np.ndarray, send: np.ndarray
) -> np.ndarray:
    """``(p, m)``: the sum over all source neighbors' send buffers."""
    return send[source_ranks(dims, offsets)].sum(axis=1, dtype=send.dtype)


def check_reduce(
    dims: Sequence[int], offsets: np.ndarray, send: np.ndarray, recv: np.ndarray
) -> None:
    _require(
        np.array_equal(recv, neighborhood_sum(dims, offsets, send)),
        "neighborhood reduction differs from the definition",
    )


def check_allreduce(
    dims: Sequence[int], offsets: np.ndarray, send: np.ndarray, recv: np.ndarray
) -> None:
    """``recv`` is ``(p, t, m)``: block ``i`` of rank ``r`` is the full
    neighborhood sum of rank ``r - N[i]``."""
    reduced = neighborhood_sum(dims, offsets, send)
    _require(
        np.array_equal(recv, reduced[source_ranks(dims, offsets)]),
        "neighborhood allreduce differs from the definition",
    )


# ---------------------------------------------------------------------------
# applications
# ---------------------------------------------------------------------------


def life_reference(board: np.ndarray, generations: int) -> np.ndarray:
    """Conway's Game of Life on the periodic global board via np.roll."""
    board = (np.asarray(board) != 0).astype(np.uint8)
    for _ in range(generations):
        neighbors = sum(
            np.roll(board, (dx, dy), axis=(0, 1)).astype(np.int64)
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            if dx or dy
        )
        board = ((neighbors == 3) | ((board == 1) & (neighbors == 2))).astype(np.uint8)
    return board


def check_equal(got: np.ndarray, expected: np.ndarray, what: str) -> None:
    """Shape, dtype and every element agree."""
    _require(
        got.shape == expected.shape and got.dtype == expected.dtype
        and np.array_equal(got, expected),
        f"{what} differs from its reference",
    )
