"""Seeded job lists for the benchmark workloads.

A job is either one ``nvortex`` CLI invocation (a command plus the JSON
configuration it reads) or one call of a public Green-function routine.  The
seed draws vortex positions, boundary angles, Green source nodes and the
conformal-factor table.  Nothing is filtered or redrawn: the program's own
checks (the existence bound, the node-coincidence check of
``build_singular_part``) decide whether an input is valid.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

RADIUS = 3.0
#: Grid of the seeded ``solve-2d`` jobs and the Green solves on ``field``.
FIELD_NR = 256
#: 320^2 = 102,400 unknowns, just above ``solver2d.DIRECT_SOLVE_LIMIT``, so
#: this job takes the Jacobi-CG branch; larger grids cost minutes per solve.
CG_NR = 320
#: ``metric`` and ``acceptance`` are sized so that one pass of their jobs
#: takes a few seconds and a run makes several passes, whose mean is
#: steadier than one long pass.  Shooting is still the largest part of both.
METRIC_NR = 64
#: Radial steps of the shoots on ``metric``.
METRIC_STEPS = 10_000
VERIFY_NR = 64
#: Radial steps of ``verify``'s shoots (it also shoots at twice this); the
#: step-halving check on ``h0`` still passes.
VERIFY_STEPS = 8_000
#: Seeded interior vortices are drawn uniformly from the disk ``|X| <= 2``.
MAX_INTERIOR_RADIUS = 2.0
#: Radii of the seeded conformal-factor table on ``metric``.
OMEGA_KNOTS = (0.0, 0.75, 1.5, 2.25, 3.0)
OMEGA_RANGE = (1.0, 1.5)


@dataclass(frozen=True)
class Job:
    """One unit of work in a workload's closed-loop sequence.

    ``command`` is a CLI sub-command (``solve-2d``, ``metric``, ``verify``)
    or ``green`` / ``boundary-green`` for a direct library call; ``config``
    is the JSON document handed to the CLI; ``nr`` is the grid of a Green or
    ``verify`` job and ``node`` the source node ``(i, j)`` of a Green job.
    """

    command: str
    label: str
    config: Optional[dict] = None
    nr: Optional[int] = None
    node: Optional[tuple] = None

    @property
    def is_green(self) -> bool:
        return self.command in ("green", "boundary-green")


def _interior_point(rng: random.Random) -> dict:
    rho = MAX_INTERIOR_RADIUS * math.sqrt(rng.random())
    phi = 2.0 * math.pi * rng.random()
    return {"x": rho * math.cos(phi), "y": rho * math.sin(phi), "n": 1}


def _boundary_point(rng: random.Random) -> dict:
    return {"theta": 2.0 * math.pi * rng.random(), "m": 1}


def _config(nr: int, **vortices) -> dict:
    return {"radius": RADIUS, "grid": {"nr": nr, "ntheta": nr}, **vortices}


CENTRED = [{"x": 0.0, "y": 0.0, "n": 1}]


def field_jobs(rng: random.Random) -> list[Job]:
    n = FIELD_NR
    return [
        Job("solve-2d", f"centred N=1 {n}^2", _config(n, interior=CENTRED)),
        Job("solve-2d", f"boundary M=1 {n}^2", _config(n, boundary=[_boundary_point(rng)])),
        Job(
            "solve-2d",
            f"off-centre N=2 {n}^2",
            _config(n, interior=[_interior_point(rng), _interior_point(rng)]),
        ),
        Job(
            "solve-2d",
            f"N=1 + M=1 {n}^2",
            _config(n, interior=[_interior_point(rng)], boundary=[_boundary_point(rng)]),
        ),
        Job("solve-2d", f"centred N=1 {CG_NR}^2 (CG)", _config(CG_NR, interior=CENTRED)),
        Job("green", f"neumann_green {n}^2", nr=n, node=(rng.randrange(n), rng.randrange(n))),
        Job("green", f"neumann_green {n}^2", nr=n, node=(rng.randrange(n), rng.randrange(n))),
        Job("boundary-green", f"boundary_neumann_green {n}^2", nr=n, node=(n - 1, rng.randrange(n))),
    ]


def metric_jobs(rng: random.Random) -> list[Job]:
    values = sorted(rng.uniform(*OMEGA_RANGE) for _ in OMEGA_KNOTS)
    table = [[r, w] for r, w in zip(OMEGA_KNOTS, values)]
    radial = {"steps": METRIC_STEPS}
    return [
        Job(
            "metric",
            f"metric flat {METRIC_NR}^2",
            _config(METRIC_NR, interior=CENTRED, radial=radial),
        ),
        Job(
            "metric",
            f"metric table-Omega {METRIC_NR}^2",
            _config(METRIC_NR, interior=CENTRED, omega=table, radial=radial),
        ),
    ]


def acceptance_jobs(rng: random.Random) -> list[Job]:
    config = {"radius": RADIUS, "interior": CENTRED, "radial": {"steps": VERIFY_STEPS}}
    return [Job("verify", f"verify --nr {VERIFY_NR}", config, nr=VERIFY_NR)]


WORKLOADS = {
    "field": field_jobs,
    "metric": metric_jobs,
    "acceptance": acceptance_jobs,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job sequence for ``seed`` (same seed, same jobs)."""
    return WORKLOADS[workload](random.Random(seed))
