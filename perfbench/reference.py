"""A fixed reference kernel, timed beside the jobs to track the host's speed.

On a shared host the speed of identical work drifts: a pure-Python loop
repeated for minutes in one process took 5.2 ms and later 9.5 ms per call,
and an unchanged ``verify`` pass 5.1 s and later 2.5 s.  The drift lasts
longer than a run, so medians inside a run do not remove it.  The ratio of a
job's time to the time of this kernel, run just before and just after the
job, moved far less over the same minutes (see ``README.md``).

The kernel does the two kinds of work that take most of the program's time:
a pure-Python explicit integrator step loop, like the radial shoot, and a
SuperLU factorization of a five-point Laplacian, like the Newton solves.  Its
work is fixed; it never calls ``nvortex``, so a change to the program leaves
it alone.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: Side of the square grid whose Laplacian is factorized.
GRID = 150
#: Steps of the pure-Python loop.
STEPS = 200_000
#: Loops and factorizations, alternating, in one run of the kernel (about
#: 0.5 s).
REPEAT = 2


def _laplacian(n: int) -> sp.csc_matrix:
    ones = np.ones(n)
    second = sp.diags([-ones[:-1], 2.0 * ones, -ones[:-1]], [-1, 0, 1])
    eye = sp.identity(n)
    return (sp.kron(second, eye) + sp.kron(eye, second) + 0.01 * sp.identity(n * n)).tocsc()


def _integrate(steps: int) -> float:
    """RK4 for ``y'' = -y`` in plain Python floats."""
    h = 1.0 / steps
    y, v = 1.0, 0.0
    for _ in range(steps):
        k1y, k1v = v, -y
        k2y, k2v = v + 0.5 * h * k1v, -(y + 0.5 * h * k1y)
        k3y, k3v = v + 0.5 * h * k2v, -(y + 0.5 * h * k2y)
        k4y, k4v = v + h * k3v, -(y + h * k3y)
        y += h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        v += h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return y


class Reference:
    """Calling it runs the kernel once and returns its wall time in seconds.

    ``last`` is the time of the latest run; making the object runs it once.
    """

    def __init__(self):
        self.matrix = _laplacian(GRID)
        self.last = self()

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(REPEAT):
            y = _integrate(STEPS)
            spla.splu(self.matrix)
        self.last = time.perf_counter() - start
        if not abs(y - np.cos(1.0)) < 1e-9:
            raise RuntimeError(f"reference kernel computed {y}, not cos(1)")
        return self.last
