"""Reference kernels: how fast the host runs at the moment of a measurement.

On a shared host the same code can run up to twice as slow for seconds or
minutes at a time, with CPU time rising as much as wall time, so no amount
of repetition inside one run averages the slowdown away.  Where a kernel
was found that slows down with the host in step with a workload's
operations, the worker runs that kernel, which calls nothing of diraclab,
between operations and reports each operation's time scaled to the
kernel's nominal speed:

    normalised = wall * NOMINAL_S[kind] / mean(kernel before, kernel after)

A program change cannot move the kernel, so it moves the normalised time
as it moves the wall time on a steady host.  Raw wall times are reported
beside the normalised ones.

Kernels, chosen per workload as the one whose ratio to the workload's
operations held steadiest through slow and fast spells of the host (each
kernel run beside each operation for five minutes or more, ratios compared
over 20 s windows): `matrices`, a chain of 4x4 complex products, for the
seed sweep and the trajectory export, whose work is small arrays driven by
the interpreter (the export is timed step by step, trajectory, CSV and fit,
so that the kernel runs at least every second or so); and `cache`, sweeps
over a 48^3 complex grid (three 1.8 MB arrays, allocated once per worker,
so the lattice worker's peak RSS includes their 5.3 MB), for
the lattice, whose work is sweeps over whole grids.  The pairing matters:
on the lattice the `matrices` kernel tracked worse than raw wall time, and
on the other two `cache` tracked two to three times worse than `matrices`.
On the fresh-interpreter CLI calls every kernel tried spread the results
wider than raw wall time did, so cli_cold reports wall time as measured.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Seconds one kernel run takes when the host is not slowed (a 2-vCPU x86-64
# sandbox, numpy with OpenBLAS).  Fixed constants: they only set the scale
# of the normalised times.
NOMINAL_S = {"cache": 0.0035, "matrices": 0.0007}

SAMPLE_RUNS = 5

# The kernel each workload is normalised by; a workload not named here
# reports wall time.
KIND = {"seed_sweep": "matrices", "lattice_refine": "cache", "zbw_export": "matrices"}

_H = np.array([[2.0, 1.0 - 1.0j, 0.5, 0.0],
               [1.0 + 1.0j, -1.0, 0.0, 0.5j],
               [0.5, 0.0, 1.5, -1.0],
               [0.0, -0.5j, -1.0, 0.5]])


def _sweep_kernel(n: int, passes: int):
    """Sweeps over an n^3 complex grid in buffers allocated once, here.

    A kernel that allocated its arrays on each run timed twice as fast in
    some worker processes as in others, as the allocator served them from
    the heap or from fresh pages; in-place sweeps take the same path in
    every process.
    """
    grid, a, b = (np.empty((n, n, n), dtype=complex) for _ in range(3))

    def kernel() -> None:
        grid.fill(1.0)
        for _ in range(passes):
            a[1:] = grid[:-1]  # roll by +1 along axis 0
            a[:1] = grid[-1:]
            b[..., :-1] = grid[..., 1:]  # roll by -1 along axis 2
            b[..., -1:] = grid[..., :1]
            np.subtract(a, b, out=a)
            np.multiply(a, 0.5, out=a)
            np.add(grid, a, out=grid)

    return kernel


def _products(count: int) -> None:
    m = _H
    for _ in range(count):
        m = _H @ m
        m = m / np.abs(m).max()


_KERNELS = {"cache": lambda: _sweep_kernel(48, 3), "matrices": lambda: lambda: _products(150)}


class Reference:
    """Times the reference kernel of one kind and scales wall times by it."""

    def __init__(self, kind: str):
        self.nominal = NOMINAL_S[kind]
        self._kernel = _KERNELS[kind]()
        for _ in range(2):  # first runs pay for page faults and lazy set-up
            self._kernel()

    def sample(self) -> float:
        """Median time of SAMPLE_RUNS back-to-back kernel runs.

        One run takes a few milliseconds, short enough for a single hiccup
        of the host (a timer tick, a burst of another tenant) to stretch it
        by a large share; the median of several runs is not moved by one.
        """
        times = []
        for _ in range(SAMPLE_RUNS):
            start = perf_counter()
            self._kernel()
            times.append(perf_counter() - start)
        return sorted(times)[SAMPLE_RUNS // 2]

    def normalise(self, wall: float, before: float, after: float) -> float:
        return normalise(wall, before, after, self.nominal)


def normalise(wall: float, before: float, after: float, nominal: float) -> float:
    """wall scaled to nominal host speed, given the kernel times around it."""
    return wall * nominal / ((before + after) / 2.0)
