"""A fixed interpreter loop that gauges how fast the host runs right now.

On a shared machine the speed one process gets switches between fast and
slow spells a few seconds long, by up to 1.7x, and their mix drifts over
minutes; no number of repeats inside one run averages that away. So each
worker times this loop just before its set-up, and before every basis and
oracle solve of its pass, and scales the set-up and pass times by how much
slower than NOMINAL_DRAW_S per draw the loop ran around them. A scaled time
reads as it would on a host that runs the loop at the nominal speed. The
loop never changes, so a change to the package moves the scaled times while
the host's speed mostly cancels. The loops' own time is taken out of the
pass time before scaling.
"""

from __future__ import annotations

import random
import time

#: Seconds per draw of the loop on the nominal host that scaled times mean.
NOMINAL_DRAW_S = 6.0e-8
#: Draws timed just before set-up, and before each solve of a pass.
SETUP_DRAWS = 1_000_000
PACE_DRAWS = 20_000


def reference_seconds(draws: int) -> float:
    """Wall time of ``draws`` seeded random draws compared with a constant."""
    rng = random.Random(0)
    hits = 0
    start = time.perf_counter()
    for _ in range(draws):
        if rng.random() < 0.01:
            hits += 1
    return time.perf_counter() - start


def host_scale(loop_seconds: float, draws: int) -> float:
    """Factor from times measured beside ``draws`` loop draws to nominal ones."""
    return NOMINAL_DRAW_S * draws / loop_seconds


class PacedSolver:
    """Delegates to a solver, timing the reference loop before each solve."""

    def __init__(self, inner, loop_seconds: list[float]):
        self._inner = inner
        self._loop_seconds = loop_seconds
        self.name = inner.name
        self.quality = inner.quality

    def solve(self, g, threshold, seed=0):
        self._loop_seconds.append(reference_seconds(PACE_DRAWS))
        return self._inner.solve(g, threshold, seed=seed)
