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
``bytes.translate`` then deletes.  It scales each value to 17 digits in
float64 double-double arithmetic, with an error below ``2**-47``, and puts
each part of the text at a fixed byte of the cell; ``%`` itself formats
only zeros, non-finite values, magnitudes beyond ``1e290`` or below
``1e-290``, and values within ``2**-40`` of a rounding tie.  In the node
table ``r`` and ``theta`` are formatted once per call and their cells copied
into each block of rings.  Blocks are a few thousand values, so no text or
column stack is held for the whole grid.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .geometry import ScalarField
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
#: Magnitudes outside ``[1/_LIMIT, _LIMIT]`` go to ``%``: beyond them the
#: split of ``|v|`` in ``_scaled`` could overflow, or the low part of the
#: scaling underflow.
_LIMIT = 1e290
#: Decimal exponents in the tables: those of ``[1/_LIMIT, _LIMIT]``, and one
#: below, where ``floor(log10)`` may round down.
_KMIN, _KMAX = -291, 290
#: Veltkamp's constant ``2**27 + 1``: it splits a double into two halves
#: whose products with each other's halves are exact.
_SPLIT = 134217729.0
#: A scaled value is certified when its fraction is farther than this from
#: one half; ``_scaled`` bounds the scaling error by ``2**-47``.
_TIE_MARGIN = 2.0**-40


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


def radial_observables(profile: RadialProfile) -> dict:
    """Profile observables on the profile's own disk: ``|phi|^2 = r^{2n} exp(htilde)``, ``B``, density."""
    r = profile.r
    dh = profile.dhtilde + 2.0 * profile.n / r
    omega = profile.disk.omega_at(r)
    with np.errstate(over="ignore", invalid="ignore"):  # an unconverged profile may overflow
        phi_sq = r ** (2 * profile.n) * np.exp(profile.htilde)
        B = 0.5 * (1.0 - phi_sq)
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
    ``[w, n]`` is word ``w`` of a mask over words 0 to 2 of a cell:

    - ``hi`` and ``lo``, by k: ``10**(16 - k)`` as the sum of two doubles.
      ``hi`` is the correctly rounded power (``float("1e...")``), and ``lo``
      the correctly rounded rest, found with exact integers.  ``hi_h`` and
      ``hi_l`` are Veltkamp's split of ``hi``;
    - ``group``, by ``g < 10**4``: the word whose 4 low bytes spell ``%04d``;
      ``group_hi`` holds the same in its 4 high bytes;
    - ``sig[i, g]``: how many leading digits end at group ``i``'s last
      nonzero digit (1 for ``g = 0``);
    - ``head``, by k and then by k again for negatives: word 0 of the cell,
      a ``0`` at byte 6 where ``d0`` goes, and before it the sign and the
      ``0.00`` lead, or after it the point;
    - ``expo``, by k: word 3, ``e-05`` and the like from its first byte;
    - ``keep[w, n]``: the bytes up to digit ``n - 1``, without the point
      when ``n = 1``;
    - ``shift[k]``, for ``0 < k < 17``: the byte order that moves the point
      from byte 7 to just after digit ``k``.
    """
    ks = range(_KMIN, _KMAX + 1)
    hi = np.array([float(f"1e{16 - k}") for k in ks])
    mantissa, exponent = np.frexp(hi)
    c = _SPLIT * mantissa
    hi_h = np.ldexp(c - (c - mantissa), exponent)
    g = np.arange(10_000)
    chars = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10]) + ord("0")
    shifts = np.arange(0, 32, 8, dtype=np.uint64)[:, None]
    group = np.bitwise_or.reduce(chars.astype(np.uint64) << shifts)
    nonzero = chars > ord("0")
    last = np.where(nonzero[3], 4, np.where(nonzero[2], 3, np.where(nonzero[1], 2, 1)))
    lead = [b"0." + b"0" * (-k - 1) if -4 <= k < 0 else b"" for k in ks]
    return SimpleNamespace(
        hi=hi,
        hi_h=hi_h,
        hi_l=hi - hi_h,
        lo=np.array([_low_part(16 - k, h) for k, h in zip(ks, hi.tolist())]),
        group=group,
        group_hi=group << np.uint64(32),
        sig=np.stack([np.where(g == 0, 1, 1 + 4 * i + last) for i in range(4)]).astype(np.int8),
        head=_words([(s + x).rjust(6, b"\0") + (b"0" if x else b"0.") for s in (b"", b"-") for x in lead]),
        expo=_words([b"" if -4 <= k < 17 else b"e%+03d" % k for k in ks]),
        keep=_words([b"\xff" * (6 + n + (n > 1)) for n in range(18)], 24).reshape(18, 3).T,
        shift=np.array([[*range(7), *range(8, 8 + k), 7, *range(8 + k, _CELL)] for k in range(17)]),
    )


def _low_part(p: int, hi: float) -> float:
    """``10**p - hi``, correctly rounded: Python rounds ``int / int`` once."""
    num, den = hi.as_integer_ratio()
    top, bottom = (10**p, 1) if p >= 0 else (1, 10**-p)
    return (top * den - num * bottom) / (bottom * den)


def _words(texts, width: int = 8) -> np.ndarray:
    """The 8-byte words that hold ``texts``, each NUL-padded to ``width`` bytes."""
    return np.array(texts, dtype=f"S{width}").view("<u8")


def _scaled(ax: np.ndarray, ki: np.ndarray, t: SimpleNamespace) -> tuple:
    """``y = ax 10**(16 - k)`` as an integer part and a fraction, ``(whole, frac)``.

    ``ki`` is ``k - _KMIN``, and ``1/_LIMIT <= ax <= _LIMIT``.  Where
    ``y < 1e17 < 2**57``, ``whole + frac`` is within ``2**-47`` of ``y``:

    - Dekker's product gives ``ax hi = s + e`` exactly, and ``s`` is then an
      integer (``s >= 2**53`` once ``y >= 1e16``), with ``|e| <= ulp(s)/2 <= 8``;
    - ``|lo| <= 2**-53 hi``, so ``|ax lo| < 16``, and rounding ``ax lo`` costs
      at most ``2**-49``;
    - ``lo`` itself is off by at most ``2**-53 |lo|``, ``2**-49`` after
      scaling by ``ax``;
    - rounding the sum ``low`` of ``e`` and ``ax lo`` (below 32) costs at
      most ``2**-49``, and ``low - floor(low)`` at most ``2**-54``.
    """
    # Veltkamp splits ax = ah + al into halves whose products with hi's are exact
    c = _SPLIT * ax
    ah = c - (c - ax)
    al = ax - ah
    bh, bl = t.hi_h[ki], t.hi_l[ki]
    s = ax * t.hi[ki]
    low = (((ah * bh - s) + ah * bl + al * bh) + al * bl) + ax * t.lo[ki]
    below = np.floor(low)
    return s.astype(np.int64) + below.astype(np.int64), low - below


def _g17_cells(values: np.ndarray, seps) -> np.ndarray:
    """Each value's ``%.17g`` text and then its separator, in fixed-width cells.

    Returns ``uint8`` cells of shape ``values.shape + (_CELL,)``.  Deleting
    the bytes of ``_PAD`` from ``cells.tobytes()`` leaves ``b"%.17g" % v``
    followed by its byte of ``seps`` (broadcast to ``values.shape``) for each
    value in order, so cells of several calls can be interleaved first.

    A value with ``1/_LIMIT <= |v| <= _LIMIT`` and decimal exponent ``k`` is
    scaled to ``y = |v| 10**(16 - k)`` in double-double arithmetic, where
    ``10**(16 - k)`` is the sum ``hi + lo`` of two doubles: Dekker's exact
    product of ``|v|`` and ``hi`` plus the product with ``lo`` give ``y`` as
    an integer part and a fraction, within ``2**-47`` (``_scaled`` derives
    the bound).  Its 17 digits ``d = round(y)`` are certified when the
    fraction is farther than ``_TIE_MARGIN`` from one half.  Each cell is
    four words of 8 bytes, and every part of the text has a fixed place:

    - word 0: the sign and the ``0.000`` lead, ``d0`` at byte 6 and the
      point at byte 7;
    - words 1 and 2: ``d1..d8`` and ``d9..d16``, each from two lookups of a
      group of 4 digits;
    - word 3: the exponent from byte 24 and the separator at byte 31.

    One mask, looked up by the number of significant digits, clears the
    trailing zeros, and the point when no digit follows it; the last group
    of digits gives that number unless it is zero.  For
    ``10 <= |v| < 1e17`` the point falls among the digits: those cells alone
    have their bytes permuted.  The rest are formatted by ``%`` itself: zero,
    inf, nan, magnitudes outside the range, values within the margin of a
    tie (exact ties included) and values whose ``k`` came out wrong.  In
    256^2 field tables that is 0.05% of the values, all of them zeros.
    """
    t = _g17_tables()
    v = np.asarray(values, dtype=np.float64).ravel()
    ax = np.abs(v)
    ok = (ax >= 1.0 / _LIMIT) & (ax <= _LIMIT)  # false for zero, inf and nan
    ax = np.where(ok, ax, 1.0)
    ki = np.floor(np.log10(ax)).astype(np.intp) - _KMIN
    whole, frac = _scaled(ax, ki, t)
    d = whole + (frac > 0.5)
    # a wrong k shows as whole < 1e16 or d >= 1e17; a carry to 1e17 would change k
    ok &= (np.abs(frac - 0.5) > _TIE_MARGIN) & (whole >= 10**16) & (d < 10**17)

    q = d // 10**8
    lo8 = d - q * 10**8
    d0 = q // 10**8
    hi8 = q - d0 * 10**8
    g0, g2 = hi8 // 10**4, lo8 // 10**4
    g1, g3 = hi8 - g0 * 10**4, lo8 - g2 * 10**4
    nsig = t.sig[3][g3].astype(np.intp)  # an index: gathers by int8 are slower
    zero = np.flatnonzero(g3 == 0)
    nsig[zero] = np.maximum(np.maximum(t.sig[0][g0[zero]], t.sig[1][g1[zero]]), t.sig[2][g2[zero]])
    # 10 <= |v| < 1e17: the integer digits stay, and the point moves after digit k
    inside = np.flatnonzero(ok & (ki > -_KMIN) & (ki <= 16 - _KMIN))
    k = ki[inside] + _KMIN
    point = nsig[inside] > k + 1
    nsig[inside] = np.maximum(nsig[inside], k + 1)

    cells = np.empty((v.size, _CELL // 8), dtype="<u8")
    # the head holds "0" at byte 6, so or-ing d0 in there spells it
    head = t.head[ki + (v < 0) * (_KMAX - _KMIN + 1)] | (d0.view(np.uint64) << np.uint64(48))
    cells[:, 0] = head & t.keep[0][nsig]
    cells[:, 1] = (t.group[g0] | t.group_hi[g1]) & t.keep[1][nsig]
    cells[:, 2] = (t.group[g2] | t.group_hi[g3]) & t.keep[2][nsig]
    cells[:, 3] = t.expo[ki]
    flat = cells.view(np.uint8)
    if inside.size:
        rows = flat[inside]
        rows[~point, 7] = 0
        flat[inside] = np.take_along_axis(rows, t.shift[k], axis=1)

    exact = np.flatnonzero(~ok)
    if exact.size:
        flat[exact, :-1] = _exact_text(v[exact])
    out = flat.reshape(np.shape(values) + (_CELL,))
    out[..., -1] = seps
    return out


def _exact_text(values: np.ndarray) -> np.ndarray:
    """``%`` itself: each value's ``%.17g`` text, padded with spaces to a cell."""
    text = (_EXACT_FMT * values.size) % tuple(values.tolist())
    return np.frombuffer(text, dtype=np.uint8).reshape(values.size, _CELL - 1)


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


def export_profile_csv(path, profile: RadialProfile) -> str:
    """Write the radial table ``r,htilde,dhtilde,phi_sq,B,energy_density``."""
    path = _require_path(path)
    obs = radial_observables(profile)
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
