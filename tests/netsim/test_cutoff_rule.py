"""The paper's cut-off rule is one function: ``MachineModel.select_algorithm``.

``algorithm="auto"`` decides with it on the library's default model, the
examples with their machine, and it must decide exactly as the rule did
when it was ``repro.core.cartcomm.select_algorithm(nbh, kind, m, α, β)``
— whose expression :func:`_reference` keeps.  The closed-form cut-off
is for display: a tie or a float boundary can fall the other way, so
the sweep compares decisions, never ``m < cutoff``.
"""

import math
import os
import subprocess
import sys

import pytest

from repro.core.cartcomm import CartComm, CommRecord
from repro.core.stencils import (
    moore_neighborhood,
    parameterized_stencil,
    von_neumann_neighborhood,
)
from repro.core.topology import CartTopology
from repro.netsim import machines
from repro.netsim.machine import cutoff_counts
from repro.netsim.machines import HYDRA_OPENMPI, LIBRARY_DEFAULT, MACHINES

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

MODELS = [*MACHINES.values(), LIBRARY_DEFAULT]
KINDS = ("alltoall", "allgather")
M_GRID = (0, 1, 2, 3, 4, 7, 8, 16, 64, 100, 255, 256, 400, 1000, 4096,
          10_000, 65_536, 10**6, 10**8)


def _reference(nbh, kind, m_bytes, alpha, beta):
    """The rule as ``select_algorithm`` computed it before it moved onto
    the machine model (arguments, counts and expression unchanged)."""
    t = nbh.trivial_rounds
    C = nbh.combining_rounds
    V = nbh.alltoall_volume if kind == "alltoall" else nbh.allgather_volume
    if C * alpha + beta * V * m_bytes < t * (alpha + beta * m_bytes):
        return "combining"
    return "trivial"


def _neighborhoods():
    for d in (2, 3, 4, 5):
        for n in (3, 4, 5):
            for f in (-1, 0, 1):
                yield f"stencil({d},{n},{f})", parameterized_stencil(d, n, f)
    for d in (1, 2, 3):
        for include_self in (True, False):
            yield f"moore({d},{include_self})", moore_neighborhood(
                d, include_self=include_self
            )
            yield f"von_neumann({d},{include_self})", von_neumann_neighborhood(
                d, include_self=include_self
            )


NEIGHBORHOODS = list(_neighborhoods())


def _block_sizes(model, nbh, kind):
    """The grid, plus the integers around the displayed boundary."""
    sizes = set(M_GRID)
    boundary = model.cutoff_block_bytes(*cutoff_counts(nbh, kind))
    if 0 < boundary < math.inf:
        b = math.floor(boundary)
        sizes.update(m for m in (b - 1, b, b + 1) if m >= 0)
    return sorted(sizes)


@pytest.mark.parametrize("label,nbh", NEIGHBORHOODS, ids=[n for n, _ in NEIGHBORHOODS])
def test_every_decision_is_the_parents(label, nbh):
    points = 0
    for model in MODELS:
        for kind in KINDS:
            for m in _block_sizes(model, nbh, kind):
                want = _reference(nbh, kind, m, model.alpha, model.beta)
                got = model.select_algorithm(nbh, kind, m)
                assert got == want, (label, model.name, kind, m)
                points += 1
    assert points >= len(MODELS) * len(KINDS) * len(M_GRID)


@pytest.mark.parametrize("label,nbh", NEIGHBORHOODS[::7], ids=[n for n, _ in NEIGHBORHOODS[::7]])
def test_auto_decides_on_the_library_default(label, nbh):
    """``auto`` on a torus is the rule on the library default, which
    carries the constants the rule defaulted to (1.5 µs, 0.1 ns/B)."""
    assert (LIBRARY_DEFAULT.alpha, LIBRARY_DEFAULT.beta) == (1.5e-6, 1.0e-10)
    assert LIBRARY_DEFAULT not in MACHINES.values()
    cart = CartComm(None, CommRecord(CartTopology((3,) * nbh.d), nbh))
    for kind in KINDS:
        for m in _block_sizes(LIBRARY_DEFAULT, nbh, kind):
            want = _reference(nbh, kind, m, 1.5e-6, 1.0e-10)
            assert cart._resolve_algorithm("auto", kind, m) == want, (kind, m)


def test_hydra_9_point_stencil_at_765_bytes(monkeypatch):
    """One case where the three former copies of the rule disagreed: the
    9-point stencil with its self block (t = 9, 8 trivial rounds, C = 4,
    V = 12) on Hydra/Open MPI at m = 765 B.  The decision, the displayed
    cut-off and ``auto`` (on this machine) all say trivial; Table 1's
    ratio, which counts the self block, would have put the boundary at
    769 B."""
    nbh = parameterized_stencil(2, 3, -1)
    assert (nbh.t, *cutoff_counts(nbh, "alltoall")) == (9, 8, 4, 12)
    m = 765
    cutoff = HYDRA_OPENMPI.cutoff_block_bytes(*cutoff_counts(nbh, "alltoall"))
    assert math.floor(cutoff) == 461
    assert HYDRA_OPENMPI.select_algorithm(nbh, "alltoall", m) == "trivial"
    assert not m < cutoff
    monkeypatch.setattr(machines, "LIBRARY_DEFAULT", HYDRA_OPENMPI)
    cart = CartComm(None, CommRecord(CartTopology((4, 4)), nbh))
    assert cart._resolve_algorithm("auto", "alltoall", m) == "trivial"
    assert cart._resolve_algorithm("auto", "alltoall", 461) == "combining"
    table1 = HYDRA_OPENMPI.alpha / HYDRA_OPENMPI.beta * nbh.cutoff_ratio()
    assert math.floor(table1) == 769


def test_importing_repro_loads_no_model():
    """The model is imported where ``auto`` decides, not with repro."""
    code = (
        "import sys, repro; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.netsim')))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
