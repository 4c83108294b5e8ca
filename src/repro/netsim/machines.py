"""The systems of Table 2 as calibrated machine models.

==========  =============================================  =============
Name        Hardware                                       MPI library
==========  =============================================  =============
Hydra       36 × dual Intel Xeon Gold 6130 (16 cores)      Open MPI 3.1.0
            @ 2.1 GHz, Intel OmniPath                      / Intel MPI 2018
Titan       Cray XK7, Opteron 6274 (16 cores) @ 2.2 GHz,   cray-mpich 7.6.3
            Cray Gemini
==========  =============================================  =============

The α/β/overhead values are *calibrated to be plausible for the listed
interconnects* and to reproduce the figures' qualitative structure; they
are not measurements (no such hardware is available here — see
EXPERIMENTS.md).  Two deliberate modeling choices, both taken from the
paper's own analysis:

* Open MPI and Intel MPI showed a pathological blow-up of the
  ``MPI_Neighbor_*`` entry points once the neighbor count grows past
  ~1000 (d=5, n=5 → t=3125): times of ~165 ms regardless of block size,
  a factor 190–250 over the Cartesian library.  The paper attributes
  this to the library implementations, not the algorithms; we model it
  as a per-request cost quadratic in the outstanding-request count,
  active above a threshold (``pathological_threshold``).
* Cray MPI on Titan behaved as expected; its model has no pathology but
  carries the system-noise model responsible for Figure 7's wide
  distributions at 1024 nodes.
"""

from __future__ import annotations

from repro.netsim.machine import MachineModel, NoiseModel, VariantCosts

#: Outstanding-request count above which the pathological per-request
#: cost applies (see module docstring).
PATHOLOGICAL_THRESHOLD = 1024

HYDRA_OPENMPI = MachineModel(
    name="hydra-openmpi",
    alpha=1.2e-6,
    # OmniPath ~12.5 GB/s per node shared by 32 ranks -> ~390 MB/s per rank
    beta=2.6e-9,
    copy_bandwidth=8.0e9,
    variants={
        "cart": VariantCosts(request_overhead=4.0e-7),
        "mpi_blocking": VariantCosts(
            request_overhead=5.0e-7, per_neighbor_quadratic=1.7e-8
        ),
        "mpi_nonblock": VariantCosts(
            request_overhead=6.5e-7, per_neighbor_quadratic=1.7e-8
        ),
    },
    noise=NoiseModel(per_message_scale=2.0e-7),
    hardware="36 x dual Intel Xeon Gold 6130 (16 cores) @ 2.1 GHz, Intel OmniPath",
    mpi_library="Open MPI 3.1.0",
    compiler="gcc 6.3.0",
)

HYDRA_INTELMPI = MachineModel(
    name="hydra-intelmpi",
    alpha=1.1e-6,
    # same fabric and rank-per-node sharing as hydra-openmpi
    beta=2.6e-9,
    copy_bandwidth=8.0e9,
    variants={
        "cart": VariantCosts(request_overhead=3.5e-7),
        "mpi_blocking": VariantCosts(
            request_overhead=4.5e-7, per_neighbor_quadratic=1.6e-8
        ),
        "mpi_nonblock": VariantCosts(
            request_overhead=4.5e-7, per_neighbor_quadratic=1.6e-8
        ),
    },
    noise=NoiseModel(per_message_scale=2.0e-7),
    hardware="32 x dual Intel Xeon Gold 6130 (16 cores) @ 2.1 GHz, Intel OmniPath",
    mpi_library="Intel MPI 2018",
    compiler="icc 18.0.5",
)

TITAN_CRAYMPI = MachineModel(
    name="titan-craympi",
    alpha=5.5e-6,
    # Gemini ~5 GB/s per node shared by 16 ranks -> ~310 MB/s per rank
    beta=3.2e-9,
    copy_bandwidth=5.0e9,
    variants={
        # Cray MPI behaved "more in line with expectations" (Sec. 4.2):
        # no pathology, but Gemini small-message injection is expensive
        # (a few microseconds per posted request), which is what lets
        # message combining win even at m=100 ints on Titan.
        "cart": VariantCosts(request_overhead=2.5e-6),
        "mpi_blocking": VariantCosts(request_overhead=4.0e-6),
        "mpi_nonblock": VariantCosts(request_overhead=4.5e-6),
    },
    noise=NoiseModel(
        per_message_scale=8.0e-7,
        # rare cross-cabinet / OS-noise events: at 128x16 processes a
        # run almost never sees one (Figure 7a, tight); at 1024x16 the
        # expected count approaches one per run (Figure 7b, dispersed)
        outlier_probability=2.0e-6,
        outlier_scale=5.0e-4,
    ),
    hardware="Cray XK7, Opteron 6274 (16 cores) @ 2.2 GHz, Cray Gemini",
    mpi_library="cray-mpich/7.6.3",
    compiler="PGI 18.4.0",
)

#: The model ``algorithm="auto"`` decides with (see
#: :meth:`MachineModel.select_algorithm`): 1.5 µs latency and 10 GB/s,
#: ballpark for the paper's OmniPath cluster.  A library default, not a
#: Table 2 system, so not in :data:`MACHINES`.
LIBRARY_DEFAULT = MachineModel(name="library-default", alpha=1.5e-6, beta=1.0e-10)

MACHINES: dict[str, MachineModel] = {
    m.name: m for m in (HYDRA_OPENMPI, HYDRA_INTELMPI, TITAN_CRAYMPI)
}


def get_machine(name: str) -> MachineModel:
    """Look up a Table 2 machine model by name."""
    try:
        return MACHINES[name]
    except KeyError:
        raise KeyError(
            f"unknown machine {name!r}; available: {sorted(MACHINES)}"
        ) from None


def table2_rows() -> list[dict]:
    """The contents of Table 2, for the experiment driver."""
    return [
        {
            "name": m.name.split("-")[0].capitalize(),
            "hardware": m.hardware,
            "mpi_library": m.mpi_library,
            "compiler": m.compiler,
        }
        for m in MACHINES.values()
    ]
