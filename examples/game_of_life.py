#!/usr/bin/env python
"""Conway's Game of Life on a distributed periodic grid.

The application now lives in the library (:mod:`repro.apps`): this
example builds a :class:`repro.apps.GameOfLife` instance — a glider
crossing process boundaries on a 2×2 torus — and certifies it against
the sequential oracle on every registered execution backend with both
the message-combining and the trivial halo exchange, then prints a few
frames and the communication statistics of one run.

Run:  python examples/game_of_life.py
"""

import numpy as np

from repro.apps import GameOfLife

DIMS = (2, 2)
GRID = (16, 16)
GENERATIONS = 24


def render(grid: np.ndarray) -> str:
    return "\n".join("".join("#" if c else "." for c in row) for row in grid)


def main():
    app = GameOfLife.glider(GRID, DIMS, GENERATIONS)
    runs = app.certify()  # every backend; raises on any bit divergence
    print(
        f"certified {len(runs)} backend/algorithm legs bit-identical to "
        f"the sequential oracle: "
        + ", ".join(f"{b}/{a}" for b, a in sorted(runs))
    )

    run = runs[("threaded", "combining")]
    print(f"\ngeneration 0:\n{render(app.board)}\n")
    print(f"generation {GENERATIONS} (distributed == serial):")
    print(render(run.output))
    alive = int(run.output.sum())
    print(
        f"\nglider intact after {GENERATIONS} generations across process "
        f"boundaries: {alive} live cells"
    )
    print(f"\ncommunication profile of {run.describe()}:")
    print(run.stats.summary())

    assert np.array_equal(run.output, app.sequential()), "evolution mismatch"


if __name__ == "__main__":
    main()
