"""Disk domains, vortex configurations, the existence gate and the polar grid."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Tuple

import numpy as np

__all__ = [
    "BradlowViolation",
    "ConformalDisk",
    "VortexConfiguration",
    "PolarGrid",
    "ScalarField",
    "bradlow_margin",
    "check_bradlow",
    "build_grid",
]

#: Minimum grid points per direction; below this the flux-form stencil is meaningless.
MIN_GRID_POINTS = 8

#: Radial panels used for the one-off area quadrature of a disk.
AREA_PANELS = 10_000


class BradlowViolation(Exception):
    """The configuration carries too much vorticity for the disk area.

    The field equations admit a solution if and only if N + M/2 < A/(4*pi).
    The offending (nonpositive) margin is carried on the exception.
    """

    def __init__(self, margin: float):
        self.margin = float(margin)
        super().__init__(
            "existence bound violated: margin A/(4*pi) - N - M/2 = "
            f"{margin:.6g} <= 0"
        )


def _unit_factor(r):
    return np.ones_like(np.asarray(r, dtype=float))


@dataclass(frozen=True)
class ConformalDisk:
    """Round disk of radius ``radius`` with a radial conformal factor.

    The metric is ``Omega(r) * (dr^2 + r^2 dtheta^2)``.  ``omega`` must accept
    and return numpy arrays.  The area is evaluated once by composite midpoint
    quadrature over ``AREA_PANELS`` radial panels.  ``breakpoints`` are the
    radii in ``(0, radius)`` where ``Omega`` has a kink, on which the radial
    solvers put a step node: the interior sample radii of ``from_samples``,
    none for a flat or callable ``Omega``.

    Immutable after construction; safe to share across threads.
    """

    radius: float
    omega: Callable[[np.ndarray], np.ndarray] = _unit_factor
    area: float = field(init=False, default=0.0)
    breakpoints: Tuple[float, ...] = field(init=False, default=())

    def __post_init__(self):
        radius = float(self.radius)
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError(f"disk radius must be positive, got {self.radius!r}")
        object.__setattr__(self, "radius", radius)
        panel = radius / AREA_PANELS
        r_mid = (np.arange(AREA_PANELS) + 0.5) * panel
        w = np.asarray(self.omega(r_mid), dtype=float)
        if w.shape != r_mid.shape:
            raise ValueError("omega must map an array of radii to an array of values")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("conformal factor must be finite and positive on [0, R]")
        object.__setattr__(self, "area", 2.0 * np.pi * float(np.sum(w * r_mid)) * panel)

    @classmethod
    def flat(cls, radius: float) -> "ConformalDisk":
        """Euclidean disk, ``Omega == 1``."""
        return cls(radius=radius, omega=_unit_factor)

    @classmethod
    def from_samples(cls, radius, r_samples, omega_samples) -> "ConformalDisk":
        """Disk whose conformal factor linearly interpolates sampled (r, Omega) pairs."""
        r_s = np.asarray(r_samples, dtype=float)
        w_s = np.asarray(omega_samples, dtype=float)
        if r_s.ndim != 1 or r_s.shape != w_s.shape or r_s.size < 2:
            raise ValueError("need matching 1-d arrays of at least two samples")
        if not (np.isfinite(r_s).all() and np.isfinite(w_s).all()):
            raise ValueError("sample radii and values must be finite")
        if np.any(np.diff(r_s) <= 0):
            raise ValueError("sample radii must be strictly increasing")
        if r_s[0] > 0.0 or r_s[-1] < radius:
            raise ValueError("samples must cover [0, radius]")

        def interpolated(r, _r=r_s, _w=w_s):
            return np.interp(np.asarray(r, dtype=float), _r, _w)

        disk = cls(radius=radius, omega=interpolated)
        kinks = r_s[(r_s > 0.0) & (r_s < disk.radius)]
        object.__setattr__(disk, "breakpoints", tuple(float(r) for r in kinks))
        return disk

    def omega_at(self, r) -> np.ndarray:
        """Conformal factor evaluated at radius array ``r``."""
        return np.asarray(self.omega(np.asarray(r, dtype=float)), dtype=float)


def _as_integer(value, what: str, least: int) -> int:
    # float() would take True as 1 and "2" as 2.
    n = math.nan if isinstance(value, (bool, np.bool_, str, bytes)) else float(value)
    if not n.is_integer() or n < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(n)


@dataclass(frozen=True)
class VortexConfiguration:
    """Interior and boundary vortex positions with multiplicities.

    ``interior`` holds ``(position, multiplicity)`` pairs with complex
    positions strictly inside the disk; ``boundary`` holds
    ``(angle, multiplicity)`` pairs living on the boundary circle, identified
    by angle so that membership of the circle is exact.  Coincident positions
    are merged by summing multiplicities; angles are normalised to
    ``[0, 2*pi)``.  ``N`` and ``M`` are the total interior and boundary
    multiplicities; at least one vortex is required.
    """

    interior: Tuple[Tuple[complex, int], ...] = ()
    boundary: Tuple[Tuple[float, int], ...] = ()
    N: int = field(init=False, default=0)
    M: int = field(init=False, default=0)

    def __post_init__(self):
        merged_i: dict[complex, int] = {}
        for pos, n in self.interior:
            z = complex(pos)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError(f"interior position must be finite, got {pos!r}")
            merged_i[z] = merged_i.get(z, 0) + _as_integer(n, "multiplicity", 1)
        merged_b: dict[float, int] = {}
        for theta, m in self.boundary:
            # A tiny negative angle rounds up to 2*pi itself; the second ``%`` maps it to 0.
            t = float(theta) % math.tau % math.tau
            if not math.isfinite(t):
                raise ValueError(f"boundary angle must be finite, got {theta!r}")
            merged_b[t] = merged_b.get(t, 0) + _as_integer(m, "multiplicity", 1)
        object.__setattr__(self, "interior", tuple(merged_i.items()))
        object.__setattr__(self, "boundary", tuple(merged_b.items()))
        object.__setattr__(self, "N", sum(merged_i.values()))
        object.__setattr__(self, "M", sum(merged_b.values()))
        if self.N + self.M < 1:
            raise ValueError("configuration must contain at least one vortex")

    @classmethod
    def centered(cls, n: int = 1) -> "VortexConfiguration":
        """Single interior vortex of multiplicity ``n`` at the origin."""
        return cls(interior=((0j, n),))

    @classmethod
    def boundary_point(cls, theta: float = 0.0, m: int = 1) -> "VortexConfiguration":
        """Single boundary vortex of multiplicity ``m`` at angle ``theta``."""
        return cls(boundary=((theta, m),))

    def validate_inside(self, disk: ConformalDisk) -> None:
        """Raise if any interior position is not strictly inside the disk."""
        for pos, _ in self.interior:
            if abs(pos) >= disk.radius:
                raise ValueError(
                    f"interior vortex at {pos} is not strictly inside radius {disk.radius}"
                )


@dataclass(frozen=True)
class PolarGrid:
    """Cell-centred polar grid on a disk of radius ``radius``.

    Radial nodes sit at ``r_i = (i - 1/2) * dr`` so no node falls on the
    pole; the innermost cell face sits exactly at ``r = 0`` and needs no
    special-case value.  ``theta`` is periodic with nodes ``theta_j = j * dtheta``.
    Fields on the grid are stored as ``(nr, ntheta)`` arrays, radial index first.
    """

    radius: float
    nr: int
    ntheta: int
    dr: float = field(init=False, default=0.0)
    dtheta: float = field(init=False, default=0.0)

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"grid radius must be positive and finite, got {self.radius!r}")
        for name in ("nr", "ntheta"):
            object.__setattr__(self, name, _as_integer(getattr(self, name), f"grid {name}", MIN_GRID_POINTS))
        object.__setattr__(self, "dr", self.radius / self.nr)
        object.__setattr__(self, "dtheta", 2.0 * np.pi / self.ntheta)

    @cached_property
    def r(self) -> np.ndarray:
        """Radial node positions, shape ``(nr,)``."""
        r = (np.arange(self.nr) + 0.5) * self.dr
        r.setflags(write=False)
        return r

    @cached_property
    def theta(self) -> np.ndarray:
        """Angular node positions, shape ``(ntheta,)``."""
        t = np.arange(self.ntheta) * self.dtheta
        t.setflags(write=False)
        return t

    @cached_property
    def r_faces(self) -> np.ndarray:
        """Radial cell-face positions ``i * dr``, shape ``(nr + 1,)``."""
        f = np.arange(self.nr + 1) * self.dr
        f.setflags(write=False)
        return f

    @cached_property
    def nodes_complex(self) -> np.ndarray:
        """Node positions as complex numbers, shape ``(nr, ntheta)``."""
        z = self.r[:, None] * np.exp(1j * self.theta[None, :])
        z.setflags(write=False)
        return z

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nr, self.ntheta)

    @property
    def size(self) -> int:
        return self.nr * self.ntheta

    def flat_weights(self) -> np.ndarray:
        """Flat cell measures ``r_i * dr * dtheta`` flattened to ``(size,)``."""
        return np.repeat(self.r * self.dr * self.dtheta, self.ntheta)

    def curved_weights(self, disk: ConformalDisk) -> np.ndarray:
        """Metric cell measures ``Omega(r_i) * r_i * dr * dtheta``, shape ``(size,)``."""
        return np.repeat(disk.omega_at(self.r) * self.r * self.dr * self.dtheta, self.ntheta)


@dataclass(frozen=True)
class ScalarField:
    """Grid function: ``values[i, j]`` at node ``(r_i, theta_j)``, radial-major."""

    grid: PolarGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite at every node")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def bradlow_margin(config: VortexConfiguration, disk: ConformalDisk) -> float:
    """Existence margin ``A/(4*pi) - N - M/2``; a solution exists iff positive."""
    config.validate_inside(disk)
    return disk.area / (4.0 * np.pi) - config.N - 0.5 * config.M


def check_bradlow(config: VortexConfiguration, disk: ConformalDisk) -> float:
    """Gate used by the solvers: return the margin, raising if it is not positive.

    Raises
    ------
    BradlowViolation
        If the margin is <= 0, i.e. the continuum problem has no solution and
        a Newton iteration would diverge.
    """
    margin = bradlow_margin(config, disk)
    if margin <= 0.0:
        raise BradlowViolation(margin)
    return margin


def build_grid(disk: ConformalDisk, nr: int, ntheta: int) -> PolarGrid:
    """Cell-centred polar grid with ``nr * ntheta`` nodes on ``disk``."""
    return PolarGrid(radius=disk.radius, nr=nr, ntheta=ntheta)
