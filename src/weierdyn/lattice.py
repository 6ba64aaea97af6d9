"""Weierstrass elliptic functions on triangular and square lattices.

Two one-parameter families of lattices are supported, indexed by a nonzero
complex scale lambda:

    triangular   [lambda, e^(2*pi*i/3) * lambda]
    square       [lambda, i * lambda]

Both are invariant under multiplication by their root of unity, which forces
g2 = 0 (triangular) and g3 = 0 (square).  The Weierstrass function

    wp(z) = 1/z^2 + sum over nonzero lattice points w of (1/(z-w)^2 - 1/w^2)

is evaluated by reducing z to the fundamental cell, re-centering on the
nearest lattice translate (decoded in closed form, with a nine-way comparison
only at Voronoi cell edges), and summing the Laurent expansion

    wp(z) = 1/z^2 + sum_{k>=1} c_k z^(2k),   c_1 = g2/20,  c_2 = g3/28,
    c_k = 3/((2k+3)(k-2)) * sum_{m=1}^{k-2} c_m c_{k-1-m}   (k >= 3),

whose coefficients are the Eisenstein numbers of the defining series
(c_k = (2k+1) * sum w^(-2k-2)).  After re-centering, |z| is at most the
covering radius of the lattice (|z|^2 <= |lambda|^2 / 3 triangular,
<= |lambda|^2 / 2 square), so the series converges geometrically and the
truncation length is chosen from that explicit tail bound.  The literal
truncated lattice sum converges far too slowly for the tolerances used
here (its tail decays only like 1/radius), so it serves only as a test
oracle.

Everything is computed on the normalized lattice [1, tau] and rescaled with
the homogeneity laws wp(cz; cL) = c^-2 wp(z; L), g2(cL) = c^-4 g2(L),
g3(cL) = c^-6 g3(L), so the per-kind constants are computed once and cached.

Spherical (chordal) metric of diameter 2 on the Riemann sphere:

    sph_dist(z, w)   = 2 |z - w| / sqrt((1 + |z|^2)(1 + |w|^2))
    sph_deriv(f', z, fz) = |f'| (1 + |z|^2) / (1 + |fz|^2)

Any complex number with a non-finite component is treated as the point at
infinity.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

__all__ = [
    "LatticeKind",
    "ToleranceConfig",
    "Lattice",
    "ZeroParameter",
    "PoleHit",
    "make_lattice",
    "reduce",
    "wp",
    "wp_pair",
    "wp_array",
    "sph_dist",
    "sph_deriv",
    "is_infinite",
]


class LatticeKind(Enum):
    TRIANGULAR = "triangular"
    SQUARE = "square"


# e^(2*pi*i/3) and i: the rotations fixing each lattice family.
ROT_TRIANGULAR = complex(-0.5, math.sqrt(3.0) / 2.0)
ROT_SQUARE = 1j


class ZeroParameter(ValueError):
    """The lattice scale must be a nonzero finite complex number."""


class PoleHit(ArithmeticError):
    """Evaluation refused: the point is within pole_eps of the lattice point
    m*gen1 + n*gen2."""

    def __init__(self, m: int, n: int):
        super().__init__(f"point within pole_eps of lattice point ({m}, {n})")
        self.m = m
        self.n = n

    def __reduce__(self):
        # rebuilt from (m, n), so it crosses a process pool intact
        return type(self), (self.m, self.n)


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical knobs shared across the package.

    eval_tol           absolute truncation target for wp on the normalized
                       lattice (the actual-lattice error rescales by
                       |lambda|^-2)
    pole_eps           evaluation refusal radius around lattice points, in
                       normalized units (Euclidean distance of z/lambda to
                       the nearest lattice point of [1, tau])
    newton_tol         residual threshold for Newton refinements
    """

    eval_tol: float = 1e-12
    pole_eps: float = 1e-6
    newton_tol: float = 1e-9

    def __post_init__(self):
        if not (self.eval_tol > 0 and self.pole_eps > 0 and self.newton_tol > 0):
            raise ValueError("tolerances must be positive")
        if not all(map(math.isfinite, (self.eval_tol, self.pole_eps, self.newton_tol))):
            raise ValueError("tolerances must be finite")
        if not self.eval_tol < self.pole_eps:
            raise ValueError("eval_tol must be smaller than pole_eps")
        # wp and wp_pair divide by u0^2 and u0^3 with |u0| >= pole_eps; below
        # this those can underflow to zero
        if self.pole_eps**3 < sys.float_info.min:
            raise ValueError("pole_eps**3 must not underflow (pole_eps >= about 2.81e-103)")


@dataclass(frozen=True)
class Lattice:
    """A concrete lattice with cached invariants and critical data.

    half_periods are (gen1/2, gen2/2, (gen1+gen2)/2); crit_values are the
    wp-images of the half periods in the same order, so crit_values[0] is
    the distinguished critical value e1 = wp(gen1/2).
    """

    kind: LatticeKind
    lam: complex
    gen1: complex
    gen2: complex
    g2: complex
    g3: complex
    half_periods: tuple[complex, complex, complex]
    crit_values: tuple[complex, complex, complex]
    n_terms: int


# ---------------------------------------------------------------------------
# per-kind normalized data


@dataclass(frozen=True)
class _KindData:
    tau: complex
    inv_im_tau: float
    g2: complex
    g3: complex
    coeffs: tuple[complex, ...]   # c_k for k = 1..len
    dcoeffs: tuple[complex, ...]  # 2k * c_k
    max_ratio_sq: float           # worst |z|^2 after re-centering, lattice [1, tau]
    hexagonal: bool               # Voronoi cells are hexagons (triangular kind)


_ZETA4 = math.pi ** 4 / 90.0
_ZETA6 = math.pi ** 6 / 945.0


def _row_sum_invariants(tau: complex) -> tuple[complex, complex]:
    """Eisenstein sums G4 and G6 for the lattice [1, tau].

    Rows with fixed second index are summed in closed form,

        sum_m (m+w)^-4 = pi^4 (3 - 2 s^2) / (3 s^4),      s = sin(pi w),
        sum_m (m+w)^-6 = pi^6 (1/s^6 - 1/s^4 + 2/(15 s^2)),

    and the row totals decay like exp(-4*pi*Im(tau)*n), so a short loop
    reaches machine precision.
    """
    g4 = 2.0 * _ZETA4 + 0j
    g6 = 2.0 * _ZETA6 + 0j
    pi4 = math.pi ** 4
    pi6 = math.pi ** 6
    for n in range(1, 64):
        s = cmath.sin(math.pi * n * tau)
        s2 = s * s
        s4 = s2 * s2
        s6 = s4 * s2
        r4 = pi4 * (3.0 - 2.0 * s2) / (3.0 * s4)
        r6 = pi6 * (1.0 / s6 - 1.0 / s4 + 2.0 / (15.0 * s2))
        g4 += 2.0 * r4
        g6 += 2.0 * r6
        if abs(r4) < 1e-18 and abs(r6) < 1e-18:
            break
    return g4, g6


def _series_coeffs(g2: complex, g3: complex, count: int) -> list[complex]:
    """Laurent coefficients c_k of wp - 1/z^2 via the classical recursion."""
    c = [0j] * (count + 1)  # c[0] unused
    c[1] = g2 / 20.0
    c[2] = g3 / 28.0
    for k in range(3, count + 1):
        acc = 0j
        for m in range(1, k - 1):
            acc += c[m] * c[k - 1 - m]
        c[k] = 3.0 * acc / ((2 * k + 3) * (k - 2))
    return c[1:]


@lru_cache(maxsize=None)
def _kind_data(kind: LatticeKind) -> _KindData:
    tau = ROT_TRIANGULAR if kind is LatticeKind.TRIANGULAR else ROT_SQUARE
    g4, g6 = _row_sum_invariants(tau)
    g2 = 60.0 * g4
    g3 = 140.0 * g6
    coeffs = tuple(_series_coeffs(g2, g3, 90))
    dcoeffs = tuple(2.0 * (k + 1) * c for k, c in enumerate(coeffs))
    max_ratio_sq = 1.0 / 3.0 if kind is LatticeKind.TRIANGULAR else 0.5
    return _KindData(
        tau=tau,
        inv_im_tau=1.0 / tau.imag,
        g2=g2,
        g3=g3,
        coeffs=coeffs,
        dcoeffs=dcoeffs,
        max_ratio_sq=max_ratio_sq,
        hexagonal=kind is LatticeKind.TRIANGULAR,
    )


@lru_cache(maxsize=None)
def _terms_for_tol(kind: LatticeKind, eval_tol: float) -> int:
    # |c_k z^(2k)| <= (2k+1) * S(2k+2) * q^(2k) with S bounded by a handful of
    # nearest lattice points; keep terms until the geometric tail bound drops
    # two decades below eval_tol.
    kd = _kind_data(kind)
    q2 = kd.max_ratio_sq
    target = eval_tol * 1e-2
    bound = 8.0
    for k in range(1, len(kd.coeffs) + 1):
        bound = (2 * k + 3) * 8.0 * q2 ** k / (1.0 - q2)
        if bound < target:
            return max(k, 8)
    return len(kd.coeffs)


def _check_scale(lam: complex) -> complex:
    """lam as a complex, or ZeroParameter unless lam^6, formed as make_lattice
    forms it, is nonzero and finite.  That refuses lam = 0, a non-finite lam,
    and the scales whose powers underflow to 0 (|lam| below about 1e-54) or
    overflow (|lam| above about 1e51), which no later step could carry."""
    lam = complex(lam)
    lam2 = lam * lam
    lam6 = lam2 * lam2 * lam2
    if lam6 == 0 or is_infinite(lam6):
        raise ZeroParameter("lattice scale must be nonzero and finite")
    return lam


def _scales_ok(lams: np.ndarray) -> np.ndarray:
    """_check_scale on a complex array: True where it accepts the scale, from
    lam^6 formed by CPython's products, so with the same bits."""
    lr, li = lams.real, lams.imag
    with np.errstate(over="ignore", invalid="ignore"):
        r2, i2 = _cmul(lr, li, lr, li)
        r4, i4 = _cmul(r2, i2, r2, i2)
        r6, i6 = _cmul(r4, i4, r2, i2)
    return np.isfinite(r6) & np.isfinite(i6) & ((r6 != 0) | (i6 != 0))


def make_lattice(kind: LatticeKind, lam: complex, cfg: ToleranceConfig) -> Lattice:
    """Build a lattice for the given family and scale.

    Raises ZeroParameter for a scale _check_scale refuses: lam = 0, a
    non-finite lam, or one whose sixth power underflows or overflows.
    """
    lam = _check_scale(lam)
    kd = _kind_data(kind)
    gen1 = lam
    gen2 = kd.tau * lam
    lam2 = lam * lam
    lam4 = lam2 * lam2
    g2 = kd.g2 / lam4
    g3 = kd.g3 / (lam4 * lam2)
    half = (gen1 / 2.0, gen2 / 2.0, (gen1 + gen2) / 2.0)
    # wp reads only kind, lam and n_terms, so the critical values come from
    # a provisional lattice that lacks them
    lat = Lattice(
        kind=kind,
        lam=lam,
        gen1=gen1,
        gen2=gen2,
        g2=g2,
        g3=g3,
        half_periods=half,
        crit_values=(0j, 0j, 0j),
        n_terms=_terms_for_tol(kind, cfg.eval_tol),
    )
    return replace(lat, crit_values=tuple(wp(h, lat, cfg) for h in half))


# ---------------------------------------------------------------------------
# reduction and evaluation

# Re-centering decodes the translate (a - dm) + (b - dn)*tau of the box
# representative a + b*tau nearest to 0 in closed form: (0, 0) on the square
# lattice; on the triangular one, dm = round(p) or dn = round(q) for the larger
# of |p| and |q|, where p = a - b/2, q = b - a/2 and the hexagon edges are at
# +-1/2.  A translate not strictly inside its Voronoi cell shrunk by
# _CELL_MARGIN (near an edge, or non-finite: NaN fails every comparison) is
# replaced by the argmin over the nine offsets below.  Inside, every other
# offset is farther in squared distance by >= 2 * _CELL_MARGIN, about 1e9
# times the rounding error of the distances, so the argmin and its first-
# minimum tie rule pick the same offset, computed with the same operations.
_CELL_MARGIN = 1e-6
_NEIGHBOR_OFFSETS = [(dm, dn) for dm in (-1, 0, 1) for dn in (-1, 0, 1)]


def _inside_cell(aa, bb, hexagonal: bool):
    """Whether aa + bb*tau is strictly inside the Voronoi cell of 0 shrunk by
    _CELL_MARGIN, for floats or arrays."""
    h = 0.5 - _CELL_MARGIN
    if not hexagonal:
        return (abs(aa) < h) & (abs(bb) < h)
    return (abs(aa - 0.5 * bb) < h) & (abs(bb - 0.5 * aa) < h) & (abs(aa + bb) < 2.0 * h)


def _reduce_coords(u: complex, kd: _KindData) -> tuple[float, float, int, int]:
    # u = a + b*tau with a, b real
    b = u.imag * kd.inv_im_tau
    a = u.real - b * kd.tau.real
    m = math.floor(a + 0.5)
    n = math.floor(b + 0.5)
    return a - m, b - n, m, n


def _recenter(u: complex, kd: _KindData) -> tuple[complex, int, int]:
    """The representative u0 = u - (m + n*tau) of smallest modulus, as
    (u0, m, n): the closed form above, or _recenter_argmin."""
    a0, b0, m, n = _reduce_coords(u, kd)
    dm = dn = 0
    if kd.hexagonal:
        p, q = a0 - 0.5 * b0, b0 - 0.5 * a0
        if abs(p) >= abs(q):
            dm = math.floor(p + 0.5)
        else:
            dn = math.floor(q + 0.5)
    aa, bb = a0 - dm, b0 - dn
    if _inside_cell(aa, bb, kd.hexagonal):
        u0 = complex(aa + bb * kd.tau.real, bb * kd.tau.imag)
    else:
        u0, dm, dn = _recenter_argmin(a0, b0, kd)
    return u0, m + dm, n + dn


def _recenter_argmin(a0: float, b0: float, kd: _KindData) -> tuple[complex, int, int]:
    # nearest of the nine translates, Euclidean norm; min keeps the first on a tie
    t = kd.tau
    cands = [(a0 - dm + (b0 - dn) * t.real, (b0 - dn) * t.imag, dm, dn) for dm, dn in _NEIGHBOR_OFFSETS]
    re, im, dm, dn = min(cands, key=lambda c: c[0] * c[0] + c[1] * c[1])
    return complex(re, im), dm, dn


def reduce(z: complex, lat: Lattice) -> tuple[complex, int, int]:
    """Reduce z modulo the lattice: z = z_red + m*gen1 + n*gen2 with the
    generator coordinates of z_red in [-1/2, 1/2)."""
    kd = _kind_data(lat.kind)
    u = complex(z) / lat.lam
    a0, b0, m, n = _reduce_coords(u, kd)
    z_red = z - (m * lat.gen1 + n * lat.gen2)
    return z_red, m, n


def _norm_point(z: complex, lat: Lattice, cfg: ToleranceConfig) -> tuple[complex, int, int]:
    """Normalized re-centered representative u0 = z/lam - (m + n*tau) with
    |u0| minimal; raises PoleHit when |u0| < pole_eps."""
    u0, m, n = _recenter(complex(z) / lat.lam, _kind_data(lat.kind))
    if abs(u0) < cfg.pole_eps:
        raise PoleHit(m, n)
    return u0, m, n


def wp(z: complex, lat: Lattice, cfg: ToleranceConfig) -> complex:
    """Evaluate the Weierstrass function of the lattice at z."""
    kd = _kind_data(lat.kind)
    u0, _, _ = _norm_point(z, lat, cfg)
    u2 = u0 * u0
    acc = 0j
    coeffs = kd.coeffs
    for k in range(lat.n_terms - 1, -1, -1):
        acc = acc * u2 + coeffs[k]
    val = 1.0 / u2 + acc * u2
    return val / (lat.lam * lat.lam)


def wp_pair(z: complex, lat: Lattice, cfg: ToleranceConfig) -> tuple[complex, complex]:
    """wp and its derivative wp' together, sharing the reduction."""
    kd = _kind_data(lat.kind)
    u0, _, _ = _norm_point(z, lat, cfg)
    u2 = u0 * u0
    acc = 0j
    dacc = 0j
    coeffs = kd.coeffs
    dcoeffs = kd.dcoeffs
    for k in range(lat.n_terms - 1, -1, -1):
        acc = acc * u2 + coeffs[k]
        dacc = dacc * u2 + dcoeffs[k]
    lam2 = lat.lam * lat.lam
    val = (1.0 / u2 + acc * u2) / lam2
    dval = (-2.0 / (u2 * u0) + dacc * u0) / (lam2 * lat.lam)
    return val, dval


def wp_array(z: np.ndarray, lat: Lattice, cfg: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized wp.  Returns (values, pole_mask); entries within pole_eps
    of a lattice point are flagged in the mask and set to nan instead of
    raising."""
    kd = _kind_data(lat.kind)
    u = np.asarray(z, dtype=complex) / lat.lam
    re, im, _, _ = _nearest_translate(u.real.ravel(), u.imag.ravel(), kd)
    best = (re + 1j * im).reshape(u.shape)
    pole = np.abs(best) < cfg.pole_eps
    u0 = np.where(pole, 1.0 + 0j, best)
    u2 = u0 * u0
    acc = np.zeros_like(u2)
    coeffs = kd.coeffs
    for k in range(lat.n_terms - 1, -1, -1):
        np.multiply(acc, u2, out=acc)
        np.add(acc, coeffs[k], out=acc)
    val = (1.0 / u2 + acc * u2) / (lat.lam * lat.lam)
    val = np.where(pole, np.nan + 1j * np.nan, val)
    return val, pole


# ---------------------------------------------------------------------------
# the scalar path on split float64 arrays: wp, half-periods, critical values
# and chordal distances bit for bit
#
# numpy's complex ufuncs round differently from CPython's complex type, so
# these helpers carry real and imaginary parts as separate float64 arrays and
# spell out CPython's own formulas: each elementwise float operation is
# correctly rounded, so the same sequence of operations gives the same bits.
# Where an operand can be zero or non-finite, the caller silences numpy's
# floating-point warnings.


def _cmul(ar, ai, br, bi):
    """CPython's complex product (ac - bd, ad + bc)."""
    return ar * br - ai * bi, ar * bi + ai * br


def _divisor(br, bi):
    """A divisor prepared for _cdiv_by as (p, q, denom).  CPython's complex
    quotient is Smith's method: ratio = b.imag/b.real, denom = b.real +
    b.imag*ratio, and p = 1, q = ratio; or, when |b.imag| > |b.real|,
    ratio = b.real/b.imag, denom = b.real*ratio + b.imag, p = ratio and
    q = 1.  Prepare a divisor once to divide many times by it."""
    second = np.abs(bi) > np.abs(br)
    big = np.where(second, bi, br)
    small = np.where(second, br, bi)
    ratio = small / big
    # on the second branch big + small*ratio is b.real*ratio + b.imag, as
    # IEEE addition commutes
    return np.where(second, ratio, 1.0), np.where(second, 1.0, ratio), big + small * ratio


def _cdiv_by(ar, ai, divisor):
    """CPython's complex quotient by a _divisor: ((ar*p + ai*q)/denom,
    (ai*p - ar*q)/denom), where a product by p = 1 or q = 1 is exact, so each
    branch does Smith's operations."""
    p, q, denom = divisor
    return (ar * p + ai * q) / denom, (ai * p - ar * q) / denom


def _cdiv(ar, ai, br, bi):
    """CPython's complex quotient (ar + i*ai) / (br + i*bi)."""
    return _cdiv_by(ar, ai, _divisor(br, bi))


_OFFSET_M = np.array([dm for dm, _ in _NEIGHBOR_OFFSETS], dtype=float)
_OFFSET_N = np.array([dn for _, dn in _NEIGHBOR_OFFSETS], dtype=float)


@lru_cache(maxsize=None)
def _split_coeffs(kind: LatticeKind) -> np.ndarray:
    """The series coefficients as (real, imag) columns, shape (count, 2, 1)."""
    return np.array([[[c.real], [c.imag]] for c in _kind_data(kind).coeffs])


@lru_cache(maxsize=None)
def _pair_columns(kind: LatticeKind) -> np.ndarray:
    """The coefficients of wp and of wp' (the dcoeffs) as the columns
    _wp_pair_split's Horner adds, shape (count, 4, 1): rows c.real, d.real,
    c.imag and d.imag."""
    kd = _kind_data(kind)
    return np.array([
        [[c.real], [d.real], [c.imag], [d.imag]] for c, d in zip(kd.coeffs, kd.dcoeffs)
    ])


def _pair_rows(kind: LatticeKind, n_terms: int, size: int) -> np.ndarray:
    """_pair_columns' first n_terms entries spread over `size` points, shape
    (n_terms, 4, size): the contiguous rows that _wp_pair_split adds fastest,
    for a caller that evaluates many times at one width."""
    return np.repeat(_pair_columns(kind)[:n_terms], size, axis=2)


# _translate_argmin holds nine candidates per point at once, so it takes
# longer inputs in column chunks of this many points
_TRANSLATE_CHUNK = 4608


def _nearest_translate(ur, ui, kd: _KindData):
    """_recenter on split 1-D arrays: (u0_re, u0_im, m, n) with m and n as
    floats, each element the same bits as the scalar form."""
    b = ui * kd.inv_im_tau
    a = ur - b * kd.tau.real
    fa = np.floor(a + 0.5)
    fb = np.floor(b + 0.5)
    a -= fa
    b -= fb
    aa, bb, m, n = a, b, fa, fb
    if kd.hexagonal:
        p, q = a - 0.5 * b, b - 0.5 * a
        on_p = np.abs(p) >= np.abs(q)
        # +0.0 where no step is taken, as the argmin's offset rows hold
        dm = np.where(on_p, np.floor(p + 0.5), 0.0)
        dn = np.where(on_p, 0.0, np.floor(q + 0.5))
        aa, bb, m, n = a - dm, b - dn, fa + dm, fb + dn
        del p, q, on_p, dm, dn  # long inputs: free them before the cell test
    re = aa + bb * kd.tau.real
    im = bb * kd.tau.imag
    out = np.flatnonzero(~_inside_cell(aa, bb, kd.hexagonal))
    if out.size:
        re[out], im[out], m[out], n[out] = _translate_argmin(a[out], b[out], fa[out], fb[out], kd)
    return re, im, m, n


def _translate_argmin(a, b, fa, fb, kd: _KindData):
    """_recenter_argmin on split arrays, adding its offsets to fa and fb."""
    if a.size > _TRANSLATE_CHUNK:
        parts = [
            _translate_argmin(*(x[at : at + _TRANSLATE_CHUNK] for x in (a, b, fa, fb)), kd)
            for at in range(0, a.size, _TRANSLATE_CHUNK)
        ]
        return tuple(np.concatenate(col) for col in zip(*parts))
    # the nine translates, one per row; argmin keeps the first minimum, as
    # the strict < scan does
    re = a - _OFFSET_M[:, None]
    im = b - _OFFSET_N[:, None]
    re += im * kd.tau.real
    im *= kd.tau.imag
    d = re * re
    d += im * im
    pick = d.argmin(axis=0)
    cols = np.arange(pick.size)
    return re[pick, cols], im[pick, cols], fa + _OFFSET_M[pick], fb + _OFFSET_N[pick]


def _reduced_split(zr, zi, lam, kind: LatticeKind, pole_eps: float):
    """_norm_point on split arrays, with lam a _divisor of each element's
    lat.lam: (u0_re, u0_im, pole, m, n), pole flagging the points scalar wp
    refuses with PoleHit(m, n)."""
    ur, ui = _cdiv_by(zr, zi, lam)
    re, im, m, n = _nearest_translate(ur, ui, _kind_data(kind))
    return re, im, np.hypot(re, im) < pole_eps, m, n


def _horner_split(u2r, u2i, coeffs: np.ndarray, n_terms: int) -> np.ndarray:
    """The scalar loop acc = acc*u2 + c_k, k = n_terms-1 .. 0, from acc = 0j,
    for each coefficient row of coeffs, of shape (count, 2, 1) as
    _split_coeffs or (count, rows, 2, 1) as _split_pair_coeffs: acc of shape
    (2, size) or (rows, 2, size).

    With uv = [u^2, i*u^2] = [(u2r, u2i), (-u2i, u2r)], acc*u^2 =
    acc.re*uv[0] + acc.im*uv[1], whose parts are exactly CPython's
    (ac - bd, ad + bc), since x - y is x + (-y) in IEEE arithmetic.  Every
    product of a term comes from one multiply, so a term takes three numpy
    calls for any number of rows.
    """
    uv = np.array([[u2r, u2i], [-u2i, u2r]])
    acc = np.zeros(coeffs.shape[1:-1] + uv.shape[2:])
    tw = np.empty(acc.shape[:-2] + uv.shape)
    # views that stay valid, as the loop writes acc and tw in place
    acc_col, tw0, tw1 = acc[..., None, :], tw[..., 0, :, :], tw[..., 1, :, :]
    for k in range(n_terms - 1, -1, -1):
        np.multiply(acc_col, uv, out=tw)
        np.add(tw0, tw1, out=acc)
        np.add(acc, coeffs[k], out=acc)
    return acc


def _wp_split(zr, zi, lam, lam2, kind: LatticeKind, n_terms: int, pole_eps: float):
    """wp at zr + i*zi, element by element the same bits as scalar `wp`.

    lam and lam2 are _divisor preparations of each element's lat.lam and
    lat.lam * lat.lam.  Returns (val_re, val_im, pole, m, n): pole flags the
    points scalar wp refuses with PoleHit(m, n), and val is meaningless
    there.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        re, im, pole, m, n = _reduced_split(zr, zi, lam, kind, pole_eps)
        u2r, u2i = _cmul(re, im, re, im)
        ar, ai = _horner_split(u2r, u2i, _split_coeffs(kind), n_terms)
        ir, ii = _cdiv(1.0, 0.0, u2r, u2i)
        pr, pi = _cmul(ar, ai, u2r, u2i)
        vr, vi = _cdiv_by(ir + pr, ii + pi, lam2)
    return vr, vi, pole, m, n


def _pair_horner(u2r, u2i, rows, n_terms: int):
    """The scalar loops acc = acc*u2 + c_k and dacc = dacc*u2 + d_k,
    k = n_terms-1 .. 0, from 0j, on one flat buffer: (acc.re, dacc.re,
    acc.im, dacc.im), each of shape (size,).

    rows is _pair_columns(kind) or a _pair_rows table of this width.  The
    buffer Z = [R, I, R] holds the real parts R = [acc.re, dacc.re] and the
    imaginary parts I = [acc.im, dacc.im], each 2 * size = m long.  A term is
    Z[:2m]*[u2r]*4 + Z[m:]*[-u2i, -u2i, u2i, u2i], the coefficients added,
    and R copied to the tail: the real parts are CPython's ac + (-bd) and the
    imaginary ones bc + ad, with x - y as x + (-y) and one commuted add, so
    each element has the bits of the scalar loop.  Each of the five calls
    runs on contiguous 1-D operands: that takes about 0.6 of the time of
    _horner_split's broadcast 4-D views at the pullback lockstep's 81-126
    points and about 0.7 at 1,025 (2-vCPU Xeon, numpy 2.4).
    """
    size = u2r.size
    m = 2 * size
    z = np.zeros(3 * m)
    t = np.empty(2 * m)
    neg = -u2i
    u1 = np.concatenate([u2r, u2r, u2r, u2r])
    u2 = np.concatenate([neg, neg, u2i, u2i])
    head, tail, re = z[: 2 * m], z[m:], z[:m]
    acc, copy = head.reshape(4, size), z[2 * m :]
    # positional outputs and a slice copy: numpy's keyword parsing and
    # copyto's dispatch cost as much as the arithmetic at these widths
    mul, add = np.multiply, np.add
    for k in range(n_terms - 1, -1, -1):
        mul(tail, u2, t)
        mul(head, u1, head)
        add(head, t, head)
        add(acc, rows[k], acc)
        copy[:] = re
    return acc


def _wp_pair_split(
    zr, zi, lam, lam2, lam3, kind: LatticeKind, n_terms: int, pole_eps: float, rows=None
):
    """wp and wp' at zr + i*zi, element by element the same bits as scalar
    `wp_pair`.

    lam, lam2 and lam3 are _divisor preparations of each element's lat.lam,
    lam2 = lat.lam * lat.lam and lam2 * lat.lam.  rows, when given, is
    _pair_rows(kind, n_terms, zr.size), prepared once by a caller that
    evaluates many times at one width; without it the Horner adds
    _pair_columns, which takes no memory per point.  Returns (val_re, val_im,
    dval_re, dval_im, pole), with pole as in _wp_split and both values
    meaningless there.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        re, im, pole, _, _ = _reduced_split(zr, zi, lam, kind, pole_eps)
        u2r, u2i = _cmul(re, im, re, im)
        ar, dr, ai, di = _pair_horner(
            u2r, u2i, _pair_columns(kind) if rows is None else rows, n_terms
        )
        # (1/u2 + acc*u2) / lam2 and (-2/(u2*u0) + dacc*u0) / (lam2*lam)
        ir, ii = _cdiv(1.0, 0.0, u2r, u2i)
        pr, pi = _cmul(ar, ai, u2r, u2i)
        vr, vi = _cdiv_by(ir + pr, ii + pi, lam2)
        cr, ci = _cmul(u2r, u2i, re, im)
        qr, qi = _cdiv(-2.0, 0.0, cr, ci)
        sr, si = _cmul(dr, di, re, im)
        dvr, dvi = _cdiv_by(qr + sr, qi + si, lam3)
    return vr, vi, dvr, dvi, pole


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array with exactly these parts (re + 1j*im may flip the
    sign of a zero)."""
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _split_scales(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lam, lam2) for a complex array of scales: lat.lam and CPython's
    lat.lam * lat.lam, each as a (real, imag) array of shape (2, size)."""
    lr = np.ascontiguousarray(lams.real, dtype=float)
    li = np.ascontiguousarray(lams.imag, dtype=float)
    return np.array([lr, li]), np.array(_cmul(lr, li, lr, li))


def _half_periods_split(kind: LatticeKind, lam: np.ndarray) -> np.ndarray:
    """make_lattice's half_periods for each scale of the split pair lam, as
    an array of shape (3, 2, size): tau*lam as CPython's product and each
    half as its quotient by complex(2.0, 0.0)."""
    tau = _kind_data(kind).tau
    lr, li = lam
    gr, gi = _cmul(tau.real, tau.imag, lr, li)
    two, zero = np.float64(2.0), np.float64(0.0)
    return np.array([
        _cdiv(lr, li, two, zero), _cdiv(gr, gi, two, zero), _cdiv(lr + gr, li + gi, two, zero)
    ])


def _crit_values_hits(
    kind: LatticeKind, lam: np.ndarray, lam2: np.ndarray, half: np.ndarray, cfg: ToleranceConfig
) -> tuple[np.ndarray, dict[int, PoleHit]]:
    """make_lattice's crit_values for the leading half-periods given, shape
    (count, 2, size) like half, all through one _wp_split call, and
    {i: the PoleHit make_lattice raises for scale i} for the scales with one
    of these half-periods within pole_eps of a lattice point (only a pole_eps
    of about 1/2 reaches one)."""
    count, _, size = half.shape
    vr, vi, pole, m, n = _wp_split(
        half[:, 0].ravel(), half[:, 1].ravel(), _divisor(*np.tile(lam, count)),
        _divisor(*np.tile(lam2, count)), kind, _terms_for_tol(kind, cfg.eval_tol), cfg.pole_eps,
    )
    hits: dict[int, PoleHit] = {}
    # scale by scale, each at its first half-period in pole
    for at in np.flatnonzero(pole.reshape(count, size).T).tolist():
        i, c = divmod(at, count)
        hits.setdefault(i, PoleHit(int(m[c * size + i]), int(n[c * size + i])))
    return np.stack([vr.reshape(count, size), vi.reshape(count, size)], axis=1), hits


def _crit_values_split(
    kind: LatticeKind, lam: np.ndarray, lam2: np.ndarray, half: np.ndarray, cfg: ToleranceConfig
) -> np.ndarray:
    """The crit_values of _crit_values_hits.  Raises make_lattice's PoleHit
    for the first scale it has one for."""
    crit, hits = _crit_values_hits(kind, lam, lam2, half, cfg)
    if hits:
        raise hits[min(hits)]
    return crit


# ---------------------------------------------------------------------------
# spherical metric


def is_infinite(z: complex) -> bool:
    """True when z represents the point at infinity (non-finite component)."""
    return not (math.isfinite(z.real) and math.isfinite(z.imag))


def sph_dist(z: complex, w: complex) -> float:
    """Chordal distance on the Riemann sphere of diameter 2."""
    z = complex(z)
    w = complex(w)
    zi = is_infinite(z)
    wi = is_infinite(w)
    if zi and wi:
        return 0.0
    if zi or wi:
        h = abs(w if zi else z)
        return 2.0 / math.sqrt(1.0 + h * h)
    hz = abs(z)
    hw = abs(w)
    return 2.0 * abs(z - w) / (math.sqrt(1.0 + hz * hz) * math.sqrt(1.0 + hw * hw))


def sph_deriv(fprime: complex, z: complex, fz: complex) -> float:
    """Spherical derivative factor |f'| (1+|z|^2) / (1+|fz|^2); fz finite."""
    return abs(fprime) * (1.0 + abs(z) ** 2) / (1.0 + abs(fz) ** 2)


def sph_dist_to_inf(z: complex) -> float:
    """Chordal distance from z to the point at infinity."""
    if is_infinite(z):
        return 0.0
    h = abs(z)
    return 2.0 / math.sqrt(1.0 + h * h)


def crit_sph_dist(z: complex, lat: Lattice) -> float:
    """Chordal distance from z to the critical-point set of wp, the three
    half-periods and all their lattice translates.

    The set accumulates at infinity on the sphere, so the distance from the
    point at infinity is 0.
    """
    if is_infinite(z):
        return 0.0
    kd = _kind_data(lat.kind)
    best = math.inf
    for c in lat.half_periods:
        u0, _, _ = _recenter((complex(z) - c) / lat.lam, kd)
        nearest = z - u0 * lat.lam
        d = sph_dist(z, nearest)
        if d < best:
            best = d
    return best


# The split forms of the chordal distances below follow the scalar formulas
# operation by operation, so they give the same bits.  Points must be finite.


def _sph_dist_split(zr, zi, wr, wi):
    """sph_dist for finite points."""
    hz = np.hypot(zr, zi)
    hw = np.hypot(wr, wi)
    return 2.0 * np.hypot(zr - wr, zi - wi) / (np.sqrt(1.0 + hz * hz) * np.sqrt(1.0 + hw * hw))


def _sph_dist_to_inf_split(zr, zi):
    """sph_dist_to_inf for finite points."""
    h = np.hypot(zr, zi)
    return 2.0 / np.sqrt(1.0 + h * h)


def _crit_sph_dist_split(kind: LatticeKind, zr, zi, lam: np.ndarray, half: np.ndarray):
    """crit_sph_dist for finite points; lam (2, size) and half (3, 2, size)
    hold each point's lattice scale and half_periods in split form."""
    count = half.shape[0]
    zr = np.tile(zr, count)
    zi = np.tile(zi, count)
    lr, li = np.tile(lam, count)
    with np.errstate(invalid="ignore", over="ignore"):
        ur, ui = _cdiv(zr - half[:, 0].ravel(), zi - half[:, 1].ravel(), lr, li)
        u0r, u0i, _, _ = _nearest_translate(ur, ui, _kind_data(kind))
        pr, pi = _cmul(u0r, u0i, lr, li)
        d = _sph_dist_split(zr, zi, zr - pr, zi - pi)
    # the scalar loop keeps the smallest with d < best, so it skips NaN
    return np.fmin.reduce(d.reshape(count, -1), axis=0)
