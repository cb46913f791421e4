"""Gauge-invariant observables, quantization integrals and file export.

On shell the magnetic field is ``B = (1 - exp(h))/2`` and the energy density

    eps = B^2 + (1/4) exp(h) |grad h|^2 / Omega

(per unit metric volume), obtained by eliminating the connection through the
first-order equations: the covariant-derivative term collapses to
``|D phi|^2 = exp(h) |grad h|^2 / 2`` and the potential term equals ``B^2``.
Totals are midpoint quadratures against the metric volume ``Omega r dr dtheta``
and quantize to ``(2N + M) pi`` (flux) and ``(N + M/2) pi`` (energy).

CSV tables print every number as ``%.17g``: 17 significant digits identify
any float64 uniquely, so reading a table back gives the same doubles
(``nan`` and ``inf`` are spelled as Python spells them).  Converting a
double to text costs about a microsecond in CPython whatever the route, so
the writer saves by converting less and by paying per-call overhead less
often: in the node table ``r`` and ``theta`` are formatted once per call and
spliced into one template per ring, and each ring is one ``%`` over its seven
node columns and one write.  Working ring by ring holds no text or column
stack for the whole grid.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .geometry import ConformalDisk, PolarGrid, ScalarField
from .shooting import RadialProfile
from .singular import SingularPart

__all__ = [
    "ObservableSet",
    "magnetic_field",
    "total_flux",
    "energy_density",
    "total_energy",
    "compute_observables",
    "radial_observables",
    "export_field_csv",
    "export_profile_csv",
    "export_json",
    "solution_summary",
]

SCHEMA_VERSION = 1
FIELD_CSV_HEADER = "r,theta,x,y,htilde,h,exp_h,B,energy_density"
PROFILE_CSV_HEADER = "r,htilde,dhtilde,phi_sq,B,energy_density"
_FLOAT_FMT = b"%.17g"
#: Rows per ``%`` in tables without a grid (about 100 kB of text).
_ROWS_PER_BLOCK = 1024


@dataclass(frozen=True)
class ObservableSet:
    """Derived fields and totals of one converged solve."""

    B: ScalarField
    energy_density: ScalarField
    flux: float
    energy: float
    bc_residual: float


def magnetic_field(h: ScalarField) -> ScalarField:
    """``B = (1 - exp(h))/2``; equals 1/2 exactly where ``exp(h)`` underflows."""
    with np.errstate(over="ignore"):
        return ScalarField(h.grid, 0.5 * (1.0 - np.exp(h.values)))


def total_flux(B: ScalarField, disk: ConformalDisk, grid: PolarGrid) -> float:
    """Midpoint quadrature of ``B`` against the metric volume."""
    w = disk.omega_at(grid.r) * grid.r * grid.dr * grid.dtheta
    return float(np.sum(B.values * w[:, None]))


def _density_from_parts(e_h, grad_r, grad_t, omega_col):
    """Energy density from ``exp(h)`` and the flat gradient components."""
    B = 0.5 * (1.0 - e_h)
    return B * B + 0.25 * e_h * (grad_r**2 + grad_t**2) / omega_col


def _radial_derivative(values: np.ndarray, dr: float) -> np.ndarray:
    """Second-order radial derivative: central inside, one-sided at the ends."""
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * dr)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dr)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * dr)
    return out


def energy_density(
    htilde: ScalarField,
    singular: SingularPart,
    disk: ConformalDisk,
    grid: PolarGrid,
) -> ScalarField:
    """On-shell energy density per unit metric volume.

    The gradient of ``h`` splits into finite differences of the smooth
    ``htilde`` plus the exact analytic gradient of the core logarithms, which
    removes the dominant near-core differencing error.  The density is
    integrable at the cores since ``exp(h) |grad h|^2`` vanishes there.
    """
    h = htilde.values + singular.v0.values
    with np.errstate(over="ignore"):
        e_h = np.exp(h)
    d_r = _radial_derivative(htilde.values, grid.dr)
    d_t = (np.roll(htilde.values, -1, axis=1) - np.roll(htilde.values, 1, axis=1)) / (
        2.0 * grid.dtheta
    )
    v0_r, v0_t = singular.gradient_polar()
    grad_r = d_r + v0_r
    grad_t = d_t / grid.r[:, None] + v0_t
    omega_col = disk.omega_at(grid.r)[:, None]
    return ScalarField(grid, _density_from_parts(e_h, grad_r, grad_t, omega_col))


def total_energy(density: ScalarField, disk: ConformalDisk, grid: PolarGrid) -> float:
    """Midpoint quadrature of the energy density against the metric volume."""
    w = disk.omega_at(grid.r) * grid.r * grid.dr * grid.dtheta
    return float(np.sum(density.values * w[:, None]))


def compute_observables(
    htilde: ScalarField,
    singular: SingularPart,
    disk: ConformalDisk,
    grid: PolarGrid,
    bc_residual: float = 0.0,
) -> ObservableSet:
    """Bundle ``B``, the energy density and their quantization integrals."""
    h = ScalarField(grid, htilde.values + singular.v0.values)
    B = magnetic_field(h)
    dens = energy_density(htilde, singular, disk, grid)
    return ObservableSet(
        B=B,
        energy_density=dens,
        flux=total_flux(B, disk, grid),
        energy=total_energy(dens, disk, grid),
        bc_residual=bc_residual,
    )


def radial_observables(profile: RadialProfile, disk: ConformalDisk) -> dict:
    """Profile observables: ``|phi|^2 = r^{2n} exp(htilde)``, ``B`` and density."""
    r = profile.r
    with np.errstate(over="ignore"):
        phi_sq = r ** (2 * profile.n) * np.exp(profile.htilde)
    B = 0.5 * (1.0 - phi_sq)
    dh = profile.dhtilde + 2.0 * profile.n / r
    omega = disk.omega_at(r)
    dens = B * B + 0.25 * phi_sq * dh * dh / omega
    return {"r": r, "phi_sq": phi_sq, "B": B, "energy_density": dens}


def _require_path(path) -> str:
    p = os.fspath(path) if path is not None else ""
    if not str(p).strip():
        raise ValueError("output path must be a non-empty string")
    return str(p)


def _write_csv(path: str, header: str, blocks) -> None:
    """Write ``header`` and then ``template % values`` for each block in order.

    Templates are ASCII bytes, formatted straight into bytes and written to a
    binary file, so line ends are ``\\n`` on every platform.  Formatting into
    ``str`` and encoding it costs one more copy of each block; in a
    benchmark run that also left glibc's heap about 1 MB more fragmented.
    """
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for template, values in blocks:
            fh.write(template % tuple(values))


def _field_blocks(grid: PolarGrid, columns):
    """One block per ring: its ``ntheta`` rows, ``r`` and ``theta`` already formatted."""
    rest = b",".join([_FLOAT_FMT] * len(columns)) + b"\n"
    tails = [b"," + _FLOAT_FMT % t + b"," + rest for t in grid.theta.tolist()]
    ring = np.empty((grid.ntheta, len(columns)))
    for i, r in enumerate(grid.r.tolist()):
        r_txt = _FLOAT_FMT % r
        np.stack([c[i] for c in columns], axis=1, out=ring)
        yield r_txt + r_txt.join(tails), ring.ravel().tolist()


def _row_blocks(table: np.ndarray):
    """Blocks of up to ``_ROWS_PER_BLOCK`` whole rows of a 2-d table."""
    row = b",".join([_FLOAT_FMT] * table.shape[1]) + b"\n"
    template = row * _ROWS_PER_BLOCK
    for lo in range(0, len(table), _ROWS_PER_BLOCK):
        chunk = table[lo : lo + _ROWS_PER_BLOCK]
        yield (template if len(chunk) == _ROWS_PER_BLOCK else row * len(chunk)), chunk.ravel().tolist()


def export_field_csv(
    path,
    grid: PolarGrid,
    htilde: ScalarField,
    h: ScalarField,
    B: ScalarField,
    density: ScalarField,
) -> str:
    """Write the node table ``r,theta,x,y,htilde,h,exp_h,B,energy_density``.

    Raises ``ValueError`` when a field's shape is not ``grid.shape``.
    """
    path = _require_path(path)
    for name, f in (("htilde", htilde), ("h", h), ("B", B), ("density", density)):
        if f.values.shape != grid.shape:
            raise ValueError(f"{name} has shape {f.values.shape}, grid has {grid.shape}")
    z = grid.nodes_complex
    with np.errstate(over="ignore"):
        e_h = np.exp(h.values)
    columns = (z.real, z.imag, htilde.values, h.values, e_h, B.values, density.values)
    _write_csv(path, FIELD_CSV_HEADER, _field_blocks(grid, columns))
    return path


def export_profile_csv(path, profile: RadialProfile, disk: ConformalDisk) -> str:
    """Write the radial table ``r,htilde,dhtilde,phi_sq,B,energy_density``."""
    path = _require_path(path)
    obs = radial_observables(profile, disk)
    cols = np.column_stack(
        [
            profile.r,
            profile.htilde,
            profile.dhtilde,
            obs["phi_sq"],
            obs["B"],
            obs["energy_density"],
        ]
    )
    _write_csv(path, PROFILE_CSV_HEADER, _row_blocks(cols))
    return path


def export_json(path, document: dict) -> str:
    """Write a JSON document with stable key order (bit-identical reruns)."""
    path = _require_path(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def solution_summary(
    observables: ObservableSet,
    n_interior: int,
    m_boundary: int,
    bradlow_margin: float,
    iterations: int,
    converged: bool,
) -> dict:
    """Quantization summary for one solve (JSON-ready)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "flux": observables.flux,
        "energy": observables.energy,
        "expected_flux": (2 * n_interior + m_boundary) * math.pi,
        "expected_energy": (n_interior + 0.5 * m_boundary) * math.pi,
        "bc_residual": observables.bc_residual,
        "bradlow_margin": bradlow_margin,
        "iterations": iterations,
        "converged": converged,
    }
