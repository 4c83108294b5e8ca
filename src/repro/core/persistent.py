"""Persistent collective operations (the paper's ``*_init`` calls).

The initialization calls take exactly the same arguments as the
corresponding collectives and return a handle with the communication
schedule precomputed and the buffers bound — the reuse pattern of
Listing 3, and the hook for the (then-upcoming) MPI persistent
collectives.  ``start()``/``wait()`` follow the MPI persistent-request
shape; since the collectives here are blocking, ``start`` performs the
operation and ``wait`` validates pairing.
"""

from __future__ import annotations

import weakref

from repro.core import plan as plan_mod
from repro.core.builders import algorithm_of
from repro.core.schedule import BoundOp
from repro.mpisim.exceptions import MpiSimError


class PersistentOp:
    """A precomputed, reusable Cartesian collective operation: one
    :class:`~repro.core.schedule.BoundOp` kept, with its scratch, for
    any number of executions."""

    def __init__(self, cart, bound: BoundOp):  # cart: CartComm (import cycle)
        self.cart = cart
        #: operation name under which executions are recorded in the
        #: communicator's OpStats (same keys as the direct calls)
        self.op = bound.op
        self.schedule = schedule = bound.schedule
        self.buffers = dict(bound.buffers)
        # Scratch space acquired once from the process pool and reused
        # across executions — the point of schedule persistence.  The
        # finalizer returns it when the handle is dropped; :meth:`free`
        # returns it early.
        self._temp_finalizer = None
        if schedule.temp_nbytes > 0 and "temp" not in self.buffers:
            temp = plan_mod.GLOBAL_POOL.acquire(schedule.temp_nbytes)
            self.buffers["temp"] = temp
            self._temp_finalizer = weakref.finalize(
                self, plan_mod.GLOBAL_POOL.release, temp
            )
        cart._check_bounds(BoundOp(self.op, schedule, self.buffers))
        #: the execution the first start bound
        #: (:data:`~repro.core.backend.base.Prepared`): on an all-ranks
        #: backend one for every rank, on ``threaded`` this rank's own
        self.prepared = None
        self._started = False
        self._freed = False
        self.executions = 0

    def free(self) -> None:
        """``MPI_Request_free`` flavour: return the pooled scratch now
        instead of at garbage collection.  Idempotent; starting the
        handle again afterwards is an error on every backend."""
        self._freed = True
        self.prepared = None
        if self._temp_finalizer is not None:
            self._temp_finalizer()
            self._temp_finalizer = None
            self.buffers.pop("temp", None)

    # ------------------------------------------------------------------
    def start(self) -> "PersistentOp":
        """Begin (and, in this blocking implementation, complete) one
        execution of the operation."""
        if self._freed:
            raise MpiSimError("persistent operation started after free()")
        if self._started:
            raise MpiSimError("persistent operation already started")
        # Persistent executions run on the communicator's selected
        # backend and count in its stats with the same (op, algorithm)
        # keys as the direct calls: they are the same launch.
        cart = self.cart
        moved = cart.backend.start(cart.comm, cart.topo, self)
        cart._record(self, cart.backend.name, *moved)
        self._started = True
        return self

    def wait(self) -> None:
        """Complete the pending execution started with :meth:`start`."""
        if not self._started:
            raise MpiSimError("wait() without a matching start()")
        self._started = False
        self.executions += 1

    def execute(self) -> None:
        """One full blocking execution (start + wait)."""
        self.start()
        self.wait()

    __call__ = execute

    # ------------------------------------------------------------------
    @property
    def algorithm(self) -> str:
        return algorithm_of(self.schedule.kind)

    @property
    def rounds(self) -> int:
        return self.schedule.num_rounds

    @property
    def volume_blocks(self) -> int:
        return self.schedule.volume_blocks

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.schedule.kind}, "
            f"rounds={self.rounds}, executions={self.executions})"
        )


class PersistentReduce(PersistentOp):
    """Persistent neighborhood reduction (``Cart_reduce_init`` flavour):
    a :class:`PersistentOp` over the bound reduction schedule — reverse
    allgather tree for ``combining``, per-neighbor rounds for
    ``trivial`` — so every ``execute`` re-reads the bound send buffer
    and refills the bound receive buffer through the common schedule
    interpreter, with the accumulator scratch acquired once."""

    # its own function, not an alias of PersistentOp.execute: tools that
    # wrap methods per class (benchmarks/e2e) must see one span per call
    def execute(self) -> None:
        """One full blocking reduction (start + wait)."""
        self.start()
        self.wait()
