"""Machine models: linear communication costs plus software overheads.

The base cost model is the paper's: a send-receive round of ``b`` bytes
costs ``α + β·b``.  On top of that, real implementations add per-request
CPU overheads (posting non-blocking operations) and — for the measured
``MPI_Neighbor_*`` baselines on Open MPI and Intel MPI — a *pathological*
software cost growing with the neighbor count, which the paper
attributes to implementation problems rather than the algorithm
("a problem with the MPI library implementations", Section 4.2).

Costs are grouped per *variant* so one machine can price the same
communication pattern differently depending on which library entry point
issues it:

=================  ====================================================
variant            corresponds to
=================  ====================================================
``cart``           the paper's library (schedules over plain
                   isend/irecv; lean request path)
``mpi_blocking``   ``MPI_Neighbor_*`` blocking entry points
``mpi_nonblock``   ``MPI_Ineighbor_*`` non-blocking entry points
=================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from repro.core.neighborhood import Neighborhood


@dataclass(frozen=True)
class NoiseModel:
    """Stochastic perturbation of message delivery and phase completion.

    ``per_message_scale`` adds an exponentially distributed delay with
    the given mean (seconds) to every message arrival — short-range
    congestion.  ``outlier_probability``/``outlier_scale`` add, with
    small probability, a large extra delay — the cross-cabinet /
    OS-noise events that produce the heavy tails and bimodal histograms
    of Figure 7 and Appendix A.
    """

    per_message_scale: float = 0.0
    outlier_probability: float = 0.0
    outlier_scale: float = 0.0

    def sample_message_delay(self, rng: np.random.Generator) -> float:
        delay = 0.0
        if self.per_message_scale > 0.0:
            delay += float(rng.exponential(self.per_message_scale))
        if self.outlier_probability > 0.0 and rng.random() < self.outlier_probability:
            delay += float(rng.exponential(self.outlier_scale))
        return delay

    @property
    def is_silent(self) -> bool:
        return self.per_message_scale == 0.0 and self.outlier_probability == 0.0


@dataclass(frozen=True)
class VariantCosts:
    """Per-library-entry-point software costs.

    ``request_overhead``
        CPU seconds to post one non-blocking send or receive.
    ``per_byte_overhead``
        extra seconds per byte (library-internal staging copies).
    ``per_neighbor_quadratic``
        the pathology knob: an extra ``q·t`` seconds *per posted
        request* when ``t`` requests are outstanding, i.e. ``q·t²``
        per collective — reproduces the superlinear blow-up of
        ``MPI_Neighbor_alltoall`` at d=5 in Figures 3 and 4.  Zero for
        well-behaved implementations (Cray MPI, and the paper's own
        library).
    """

    request_overhead: float = 0.0
    per_byte_overhead: float = 0.0
    per_neighbor_quadratic: float = 0.0


@dataclass(frozen=True)
class MachineModel:
    """One system of Table 2, reduced to model parameters."""

    name: str
    #: per-round startup latency (seconds)
    alpha: float
    #: transfer time per byte (seconds/byte)
    beta: float
    #: rank-local memory copy bandwidth (bytes/second) for the
    #: non-communication phase
    copy_bandwidth: float = 8.0e9
    #: per-variant software costs
    variants: dict = field(
        default_factory=lambda: {
            "cart": VariantCosts(request_overhead=2.0e-7),
            "mpi_blocking": VariantCosts(request_overhead=2.0e-7),
            "mpi_nonblock": VariantCosts(request_overhead=3.0e-7),
        }
    )
    noise: Optional[NoiseModel] = None
    #: free-form hardware description (Table 2 column)
    hardware: str = ""
    mpi_library: str = ""
    compiler: str = ""

    def costs(self, variant: str) -> VariantCosts:
        try:
            return self.variants[variant]
        except KeyError:
            raise KeyError(
                f"unknown cost variant {variant!r}; machine {self.name} "
                f"defines {sorted(self.variants)}"
            ) from None

    def with_noise(self, noise: Optional[NoiseModel]) -> "MachineModel":
        return replace(self, noise=noise)

    def without_noise(self) -> "MachineModel":
        return replace(self, noise=None)

    # ------------------------------------------------------------------
    def round_cost(self, nbytes: int, variant: str = "cart") -> float:
        """Cost of one isolated send-receive round of ``nbytes`` — the
        paper's ``α + β·m`` with software overheads added."""
        c = self.costs(variant)
        return (
            self.alpha
            + 2 * c.request_overhead
            + (self.beta + c.per_byte_overhead) * nbytes
        )

    def local_copy_cost(self, nbytes: int) -> float:
        if nbytes <= 0:
            return 0.0
        return nbytes / self.copy_bandwidth

    def select_algorithm(self, nbh: "Neighborhood", kind: str, m_bytes: int) -> str:
        """The paper's cut-off rule, the one decision ``algorithm="auto"``
        makes: ``"combining"`` iff ``Cα + βVm < t(α + βm)`` on this
        machine, counted by :func:`cutoff_counts`, else ``"trivial"``."""
        t, C, V = cutoff_counts(nbh, kind)
        alpha, beta = self.alpha, self.beta
        if C * alpha + beta * V * m_bytes < t * (alpha + beta * m_bytes):
            return "combining"
        return "trivial"

    def cutoff_block_bytes(self, t: int, C: int, V: int) -> float:
        """The cut-off ``m < (α/β)·(t−C)/(V−t)`` in closed form, for
        display (a tie or a float rounding can fall the other way: decide
        with :meth:`select_algorithm`); ``inf``/``0`` edge cases as in
        :meth:`repro.core.neighborhood.Neighborhood.cutoff_ratio`."""
        if t <= C:
            return 0.0
        if V <= t:
            return float("inf")
        return (self.alpha / self.beta) * (t - C) / (V - t)


def cutoff_counts(nbh: "Neighborhood", kind: str) -> tuple[int, int, int]:
    """``(t, C, V)`` as the cut-off rule counts them: the trivial rounds
    (a self block is a local copy, not a round), the combining rounds
    and the combining volume of ``kind`` (Props. 3.2 and 3.3)."""
    V = nbh.alltoall_volume if kind == "alltoall" else nbh.allgather_volume
    return nbh.trivial_rounds, nbh.combining_rounds, V
