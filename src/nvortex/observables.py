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
(``nan`` and ``inf`` are spelled as Python spells them).  In CPython the
per-value call, not the decimal conversion, sets the cost of ``%``, so one
numpy formatter (``_g17_cells``) writes the same bytes for a whole block of
values at once, into fixed-width cells padded with bytes that one
``bytes.translate`` then deletes.  In the node table ``r`` and ``theta`` are
formatted once per call and their cells copied into each block of rings.
Blocks are a few thousand values, so no text or column stack is held for
the whole grid.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .geometry import ConformalDisk, ScalarField
from .shooting import RadialProfile
from .solver2d import SolveReport

__all__ = [
    "ObservableSet",
    "magnetic_field",
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
#: Bytes per formatted value: its ``%.17g`` text (at most 24 bytes) padded
#: with the bytes of ``_PAD``, then its separator.
_CELL = 32
_PAD = b"\0 "
_EXACT_FMT = b"%%-%d.17g" % (_CELL - 1)
_FIELD_SEPS = np.frombuffer(b",,,,,,\n", dtype=np.uint8)
_PROFILE_SEPS = np.frombuffer(b",,,,,\n", dtype=np.uint8)
#: Values formatted at a time: the temporaries (about 2 MB) stay in cache.
_BLOCK_VALUES = 8192
#: Error bound of the long-double scaling in ``_g17_cells``, in units of
#: ``np.finfo(np.longdouble).eps`` relative to the scaled value: the table
#: power and the product each round by at most half of it.
_TIE_MARGIN = 2.0
#: Decimal exponents of the nonzero float64 values.
_KMIN, _KMAX = -324, 308


@dataclass(frozen=True)
class ObservableSet:
    """``h = htilde + v0``, the derived fields and the totals of one solve."""

    h: ScalarField
    B: ScalarField
    energy_density: ScalarField
    flux: float
    energy: float


def magnetic_field(h: ScalarField) -> ScalarField:
    """``B = (1 - exp(h))/2``; equals 1/2 exactly where ``exp(h)`` underflows."""
    with np.errstate(over="ignore"):
        return ScalarField(h.grid, 0.5 * (1.0 - np.exp(h.values)))


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


def compute_observables(htilde: ScalarField, report: SolveReport) -> ObservableSet:
    """``h``, ``B``, the energy density and their quantization integrals.

    Takes the pair that ``solve_taubes_2d`` returns: the grid is
    ``htilde.grid``, and the core logarithms ``v0`` and the disk come from
    ``report.singular``.

    The energy density is per unit metric volume.  The gradient of ``h``
    splits into finite differences of the smooth ``htilde`` plus the exact
    analytic gradient of the core logarithms, which removes the dominant
    near-core differencing error.  The density is integrable at the cores
    since ``exp(h) |grad h|^2`` vanishes there.  Flux and energy are midpoint
    quadratures of ``B`` and the density against the metric volume.
    """
    singular = report.singular
    grid = htilde.grid
    h = ScalarField(grid, htilde.values + singular.v0.values)
    B = magnetic_field(h)
    with np.errstate(over="ignore"):
        e_h = np.exp(h.values)
    d_r = _radial_derivative(htilde.values, grid.dr)
    d_t = (np.roll(htilde.values, -1, axis=1) - np.roll(htilde.values, 1, axis=1)) / (
        2.0 * grid.dtheta
    )
    v0_r, v0_t = singular.gradient_polar()
    grad_r = d_r + v0_r
    grad_t = d_t / grid.r[:, None] + v0_t
    omega = singular.disk.omega_at(grid.r)
    density = ScalarField(grid, _density_from_parts(e_h, grad_r, grad_t, omega[:, None]))
    w = (omega * grid.r * grid.dr * grid.dtheta)[:, None]
    return ObservableSet(
        h=h,
        B=B,
        energy_density=density,
        flux=float(np.sum(B.values * w)),
        energy=float(np.sum(density.values * w)),
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


@functools.cache
def _g17_tables() -> SimpleNamespace:
    """Lookup tables of ``_g17_cells``, built on first use.

    ``by k`` means indexed by ``k - _KMIN`` for the decimal exponent ``k``;
    ``[w, q]`` is word ``w`` of a 3-word mask over the digit bytes for the
    digit position ``q``, where ``q = 18`` means none:

    - ``eps``: ``np.finfo(np.longdouble).eps``;
    - ``scale``, by k: ``10**(16 - k)`` in long double, parsed by the C
      library's ``strtold`` and so correctly rounded;
    - ``group``, by ``g < 10**4``: the word whose 4 low bytes spell ``%04d``;
    - ``sig[i, g]``: how many leading digits end at group ``i``'s last
      nonzero digit;
    - ``point``, by k: the digit position of the decimal point (18: none);
    - ``frac``, by k: the first digit that may be dropped as a trailing zero;
    - ``head``, by k and then by k again for negatives: the sign and the
      ``0.00`` lead, from byte 1;
    - ``expo``, by k: ``e-05`` and the like, from byte 2 of the last word;
    - ``before[w, q]`` and ``after[w, q]``: the bytes before and after ``q``;
    - ``dot[w, q]``: a ``.`` at byte ``q``.
    """
    ks = np.arange(_KMIN, _KMAX + 1)
    g = np.arange(10_000)
    chars = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10]) + ord("0")
    shifts = np.arange(0, 32, 8, dtype=np.uint64)[:, None]
    nonzero = chars > ord("0")
    last = np.where(nonzero[3], 4, np.where(nonzero[2], 3, np.where(nonzero[1], 2, 1)))
    fixed = (ks >= -4) & (ks < 17)
    point = np.where(fixed, np.where(ks < 0, 18, ks + 1), 1)
    lead = [_word(b"0." + b"0" * (-k - 1), 1) if -4 <= k < 0 else 0 for k in ks.tolist()]
    expo = [0 if f else _word(b"e%+03d" % k, 2) for k, f in zip(ks.tolist(), fixed)]

    def words(masks):
        return np.array([[(m >> (64 * w)) % 2**64 for m in masks] for w in range(3)], dtype=np.uint64)

    return SimpleNamespace(
        eps=float(np.finfo(np.longdouble).eps),
        scale=np.array([f"1e{16 - k}" for k in ks.tolist()], dtype=np.longdouble),
        group=np.bitwise_or.reduce(chars.astype(np.uint64) << shifts),
        sig=np.stack([np.where(g == 0, 1, 1 + 4 * i + last) for i in range(4)]).astype(np.int8),
        point=point,
        frac=np.where(point == 18, 0, point),
        head=np.array(lead + [w | ord("-") for w in lead], dtype=np.uint64),
        expo=np.array(expo, dtype=np.uint64),
        before=words([(1 << (8 * q)) - 1 for q in range(19)]),
        after=words([(1 << 192) - (1 << (8 * (q + 1))) for q in range(19)]),
        dot=words([ord(".") << (8 * q) if q < 18 else 0 for q in range(19)]),
    )


def _word(text: bytes, at: int) -> int:
    """The integer whose little-endian bytes hold ``text`` from byte ``at``."""
    return int.from_bytes(b"\0" * at + text, "little")


def _g17_cells(values: np.ndarray, seps) -> np.ndarray:
    """Each value's ``%.17g`` text and then its separator, in fixed-width cells.

    Returns ``uint8`` cells of shape ``values.shape + (_CELL,)``.  Deleting
    the bytes of ``_PAD`` from ``cells.tobytes()`` leaves ``b"%.17g" % v``
    followed by its byte of ``seps`` (broadcast to ``values.shape``) for each
    value in order, so cells of several calls can be interleaved first.

    A nonzero finite value with decimal exponent ``k`` is scaled to
    ``y = |v| 10**(16 - k)`` in long double.  Its 17 digits are ``round(y)``
    when ``y`` is farther from a rounding tie than the scaling's error bound;
    table lookups then spell them out and place the point, the trailing zeros
    dropped, the sign, the ``0.`` lead and the exponent.  The rest are
    formatted by ``%`` itself: zero, inf, nan, near-ties and values whose
    ``k`` came out wrong (about 2% of field data), and every value where long
    double is no wider than double.
    """
    t = _g17_tables()
    v = np.asarray(values, dtype=np.float64).ravel()
    ax = np.abs(v)
    ok = np.isfinite(ax) & (ax > 0)
    ax = np.where(ok, ax, 1.0)
    ki = np.floor(np.log10(ax)).astype(np.intp) - _KMIN
    y = ax.astype(np.longdouble) * t.scale[ki]
    whole = y.astype(np.int64)
    frac = (y - whole.astype(np.longdouble)).astype(np.float64)
    d = whole + (frac > 0.5)
    # a wrong k shows as a 16- or 18-digit ``whole``; a carry to 10**17 changes k
    ok &= (np.abs(frac - 0.5) > (_TIE_MARGIN * t.eps) * whole) & (whole >= 10**16) & (d < 10**17)

    cells = np.empty((v.size, _CELL // 8), dtype="<u8")
    # none is certified in a block of zeros and nans, nor where long double is no
    # wider than double: then ``%`` formats every value
    if ok.any():
        d0, rest = np.divmod(d, 10**16)
        hi, lo = np.divmod(rest, 10**8)
        g = (hi // 10**4, hi % 10**4, lo // 10**4, lo % 10**4)
        nsig = np.maximum(np.maximum(t.sig[0][g[0]], t.sig[1][g[1]]), np.maximum(t.sig[2][g[2]], t.sig[3][g[3]]))
        # digit bytes d0..d16 in three words, trailing fraction zeros cleared
        w = [t.group[x] for x in g]
        keep = np.maximum(t.frac[ki], nsig)
        u8, u24, u40, u56 = (np.uint64(s) for s in (8, 24, 40, 56))
        a0 = ((d0.astype(np.uint64) + np.uint64(ord("0"))) | (w[0] << u8) | (w[1] << u40)) & t.before[0][keep]
        a1 = ((w[1] >> u24) | (w[2] << u8) | (w[3] << u40)) & t.before[1][keep]
        a2 = (w[3] >> u24) & t.before[2][keep]
        # the bytes from the point on move up one place; the point stays if a digit follows
        p = t.point[ki]
        q = np.where(nsig > p, p, 18)
        cells[:, 0] = t.head[ki + (v < 0) * (_KMAX - _KMIN + 1)]
        cells[:, 1] = (a0 & t.before[0][p]) | ((a0 << u8) & t.after[0][p]) | t.dot[0][q]
        cells[:, 2] = (a1 & t.before[1][p]) | (((a1 << u8) | (a0 >> u56)) & t.after[1][p]) | t.dot[1][q]
        cells[:, 3] = (a2 & t.before[2][p]) | (((a2 << u8) | (a1 >> u56)) & t.after[2][p]) | t.dot[2][q] | t.expo[ki]

    flat = cells.view(np.uint8)
    exact = np.flatnonzero(~ok)
    if exact.size:
        text = (_EXACT_FMT * exact.size) % tuple(v[exact].tolist())
        flat[exact, :-1] = np.frombuffer(text, dtype=np.uint8).reshape(exact.size, _CELL - 1)
    out = flat.reshape(np.shape(values) + (_CELL,))
    out[..., -1] = seps
    return out


def export_field_csv(path, htilde: ScalarField, observables: ObservableSet) -> str:
    """Write the node table ``r,theta,x,y,htilde,h,exp_h,B,energy_density``.

    ``observables`` is ``compute_observables`` of the solve that gave
    ``htilde``.  Raises ``ValueError`` when its fields are not on
    ``htilde.grid``.
    """
    path = _require_path(path)
    grid = htilde.grid
    h, B, density = observables.h, observables.B, observables.energy_density
    if any(f.grid != grid for f in (h, B, density)):
        raise ValueError(f"observables are not on the grid of htilde, {grid}")
    z = grid.nodes_complex
    with np.errstate(over="ignore"):
        e_h = np.exp(h.values)
    columns = (z.real, z.imag, htilde.values, h.values, e_h, B.values, density.values)
    comma = ord(",")
    r_cells = _g17_cells(grid.r, comma)
    rings = max(1, _BLOCK_VALUES // (len(columns) * grid.ntheta))
    stack = np.empty((rings, grid.ntheta, len(columns)))
    rows = np.empty((rings, grid.ntheta, 2 + len(columns), _CELL), dtype=np.uint8)
    rows[:, :, 1] = _g17_cells(grid.theta, comma)
    with open(path, "wb") as fh:
        fh.write(FIELD_CSV_HEADER.encode("ascii") + b"\n")
        for lo in range(0, grid.nr, rings):
            n = min(rings, grid.nr - lo)
            np.stack([c[lo : lo + n] for c in columns], axis=-1, out=stack[:n])
            rows[:n, :, 0] = r_cells[lo : lo + n, None]
            rows[:n, :, 2:] = _g17_cells(stack[:n], _FIELD_SEPS)
            fh.write(rows[:n].tobytes().translate(None, _PAD))
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
    rows = _BLOCK_VALUES // cols.shape[1]
    with open(path, "wb") as fh:
        fh.write(PROFILE_CSV_HEADER.encode("ascii") + b"\n")
        for lo in range(0, len(cols), rows):
            cells = _g17_cells(cols[lo : lo + rows], _PROFILE_SEPS)
            fh.write(cells.tobytes().translate(None, _PAD))
    return path


def export_json(path, document: dict) -> str:
    """Write a JSON document with stable key order (bit-identical reruns)."""
    path = _require_path(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def solution_summary(observables: ObservableSet, report: SolveReport, bradlow_margin: float) -> dict:
    """The ``report.json`` document of one solve (JSON-ready).

    ``observables`` is ``compute_observables`` of the solve that gave
    ``report``; ``N`` and ``M`` come from ``report.singular.config``.
    """
    config = report.singular.config
    return {
        "schema_version": SCHEMA_VERSION,
        "flux": observables.flux,
        "energy": observables.energy,
        "expected_flux": (2 * config.N + config.M) * math.pi,
        "expected_energy": (config.N + 0.5 * config.M) * math.pi,
        "bc_residual": report.bc_residual,
        "bradlow_margin": bradlow_margin,
        "iterations": report.iterations,
        "converged": report.converged,
        "residual_history": report.residual_history,
        "damping_events": report.damping_events,
    }
