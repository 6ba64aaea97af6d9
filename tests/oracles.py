"""Independent oracles the tests check the library against.

None of these is on a production path: each is a literal, slow form of a
quantity the library computes another way.
"""

import math
from functools import lru_cache
from typing import Optional

import numpy as np

from weierdyn.dynamics import iterate
from weierdyn.hyperbolic import (
    DISTORTION_BUDGET,
    DegenerateRadius,
    DistortionReport,
    HyperbolicSample,
    x_function,
)
from weierdyn.lattice import (
    _TRANSLATE_CHUNK,
    Lattice,
    LatticeKind,
    ToleranceConfig,
    _cdiv,
    _cdiv_by,
    _cmul,
    _horner_split,
    _kind_data,
    _nearest_translate,
    _recenter,
    _reduced_split,
    _split_coeffs,
    make_lattice,
    sph_dist,
)
from weierdyn.misiurewicz import _g_batch, _pole_coef

# ---------------------------------------------------------------------------
# direct lattice sums

_DISK_FACTOR = {LatticeKind.TRIANGULAR: math.sqrt(3.0) / 2.0, LatticeKind.SQUARE: 1.0}


def _disk_points(kind: LatticeKind, radius: int) -> np.ndarray:
    """Nonzero lattice points of [1, tau] inside the disk |w| <= factor*radius.

    A disk is invariant under the lattice rotation, so symmetric cancellation
    in the truncated sums is exact up to roundoff; an index box is not.
    """
    kd = _kind_data(kind)
    idx = np.arange(-radius, radius + 1)
    m, n = np.meshgrid(idx, idx, indexing="ij")
    w = m + n * kd.tau
    r = abs(w)
    cutoff = _DISK_FACTOR[kind] * radius
    mask = (r > 0) & (r <= cutoff)
    return w[mask]


def eisenstein_direct_sum(kind: LatticeKind, power: int, radius: int) -> complex:
    """Literal truncated Eisenstein sum over the disk of index radius."""
    w = _disk_points(kind, radius)
    terms = w ** (-power)
    return complex(np.sum(terms))


def wp_direct_sum(z: complex, lat: Lattice, radius: int) -> complex:
    """Literal truncated lattice sum for wp, the defining series itself.

    Slowly convergent (the tail decays like radius^-2 after symmetric
    pairing).
    """
    kd = _kind_data(lat.kind)
    u0, _, _ = _recenter(complex(z) / lat.lam, kd)
    w = _disk_points(lat.kind, radius)
    terms = 1.0 / ((u0 - w) ** 2) - 1.0 / (w ** 2)
    total = 1.0 / (u0 * u0) + complex(np.sum(terms))
    return total / (lat.lam * lat.lam)


# ---------------------------------------------------------------------------
# nearest lattice translate by comparing all nine neighbouring offsets
#
# The library's re-centering before it decoded the translate in closed form,
# kept verbatim apart from the names: the scalar loop takes the box
# representative of lattice._reduce_coords and returns (u0, dm, dn); the
# array form takes u and returns (u0_re, u0_im, m, n).

_NEIGHBOR_OFFSETS = [(dm, dn) for dm in (-1, 0, 1) for dn in (-1, 0, 1)]
_OFFSET_M = np.array([dm for dm, _ in _NEIGHBOR_OFFSETS], dtype=float)
_OFFSET_N = np.array([dn for _, dn in _NEIGHBOR_OFFSETS], dtype=float)


def recenter_nine(a0: float, b0: float, kd) -> tuple[complex, int, int]:
    # nearest lattice translate of the box representative, Euclidean norm
    tau = kd.tau
    best = None
    best_d = math.inf
    for dm, dn in _NEIGHBOR_OFFSETS:
        aa = a0 - dm
        bb = b0 - dn
        re = aa + bb * tau.real
        im = bb * tau.imag
        d = re * re + im * im
        if d < best_d:
            best_d = d
            best = (complex(re, im), dm, dn)
    return best


def nearest_translate_nine(ur, ui, kd):
    """_reduce_coords and _recenter on split 1-D arrays: the representative
    u0 = u - (m + n*tau) of smallest modulus, as (u0_re, u0_im, m, n) with m
    and n as floats, each element the same bits as the scalar pair."""
    if ur.size > _TRANSLATE_CHUNK:
        parts = [
            nearest_translate_nine(ur[at : at + _TRANSLATE_CHUNK], ui[at : at + _TRANSLATE_CHUNK], kd)
            for at in range(0, ur.size, _TRANSLATE_CHUNK)
        ]
        return tuple(np.concatenate(col) for col in zip(*parts))
    b = ui * kd.inv_im_tau
    a = ur - b * kd.tau.real
    fa = np.floor(a + 0.5)
    fb = np.floor(b + 0.5)
    a -= fa
    b -= fb
    # the nine translates of _recenter, one per row; argmin keeps the first
    # minimum, as its strict < scan does
    re = a - _OFFSET_M[:, None]
    im = b - _OFFSET_N[:, None]
    re += im * kd.tau.real
    im *= kd.tau.imag
    d = re * re
    d += im * im
    pick = d.argmin(axis=0)
    cols = np.arange(pick.size)
    return re[pick, cols], im[pick, cols], fa + _OFFSET_M[pick], fb + _OFFSET_N[pick]


# ---------------------------------------------------------------------------
# split-array wp with four numpy calls per Horner term
#
# lattice._wp_split before its Horner loop took both products of a term from
# one multiply, kept verbatim apart from the name.


def wp_split_four_calls(zr, zi, lam, lam2, kind: LatticeKind, n_terms: int, pole_eps: float):
    """wp at zr + i*zi, element by element the same bits as scalar `wp`.

    lam and lam2 are (real, imag) pairs of arrays holding each element's
    lat.lam and lat.lam * lat.lam.  Returns (val_re, val_im, pole, m, n):
    pole flags the points scalar wp refuses with PoleHit(m, n), and val is
    meaningless there.
    """
    ur, ui = _cdiv(zr, zi, lam[0], lam[1])
    re, im, m, n = _nearest_translate(ur, ui, _kind_data(kind))
    pole = np.hypot(re, im) < pole_eps

    # Horner in u^2 on stacked (real, imag) rows: with v = i*u^2 = (-u2i, u2r),
    # acc*u^2 = acc.re*u^2 + acc.im*v, whose rows are exactly CPython's
    # (ac - bd, ad + bc), since x - y is x + (-y) in IEEE arithmetic
    u2r, u2i = _cmul(re, im, re, im)
    u2 = np.array([u2r, u2i])
    v = np.array([-u2i, u2r])
    acc = np.zeros_like(u2)
    t = np.empty_like(u2)
    w = np.empty_like(u2)
    coeffs = _split_coeffs(kind)
    for k in range(n_terms - 1, -1, -1):
        np.multiply(acc[0], u2, out=t)
        np.multiply(acc[1], v, out=w)
        np.add(t, w, out=acc)
        np.add(acc, coeffs[k], out=acc)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ir, ii = _cdiv(1.0, 0.0, u2r, u2i)
        pr, pi = _cmul(acc[0], acc[1], u2r, u2i)
        vr, vi = _cdiv(ir + pr, ii + pi, lam2[0], lam2[1])
    return vr, vi, pole, m, n


# ---------------------------------------------------------------------------
# split-array wp_pair on broadcast 4-D Horner views
#
# lattice._wp_pair_split before its Horner ran on one flat buffer: the pair
# Horner was _horner_split with both coefficient rows, kept verbatim apart
# from the names.


@lru_cache(maxsize=None)
def _split_pair_coeffs(kind: LatticeKind) -> np.ndarray:
    """The coefficients of wp (row 0) and of wp' (row 1, the dcoeffs) as
    (real, imag) columns, shape (count, 2, 2, 1)."""
    kd = _kind_data(kind)
    return np.array([
        [[[c.real], [c.imag]], [[d.real], [d.imag]]] for c, d in zip(kd.coeffs, kd.dcoeffs)
    ])


def wp_pair_split_broadcast(zr, zi, lam, lam2, lam3, kind: LatticeKind, n_terms: int, pole_eps: float):
    """wp and wp' at zr + i*zi, element by element the same bits as scalar
    `wp_pair`, with lam, lam2 and lam3 _divisor preparations as
    lattice._wp_pair_split takes them.  Returns (val_re, val_im, dval_re,
    dval_im, pole)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        re, im, pole, _, _ = _reduced_split(zr, zi, lam, kind, pole_eps)
        u2r, u2i = _cmul(re, im, re, im)
        (ar, ai), (dr, di) = _horner_split(u2r, u2i, _split_pair_coeffs(kind), n_terms)
        ir, ii = _cdiv(1.0, 0.0, u2r, u2i)
        pr, pi = _cmul(ar, ai, u2r, u2i)
        vr, vi = _cdiv_by(ir + pr, ii + pi, lam2)
        cr, ci = _cmul(u2r, u2i, re, im)
        qr, qi = _cdiv(-2.0, 0.0, cr, ci)
        sr, si = _cmul(dr, di, re, im)
        dvr, dvi = _cdiv_by(qr + sr, qi + si, lam3)
    return vr, vi, dvr, dvi, pole


# ---------------------------------------------------------------------------
# scalar distortion
#
# hyperbolic.distortion_report before its critical orbits and x values came
# from one _pullback_batch: one iterate per orbit and one x_function per x,
# kept verbatim apart from the names.


def param_orbit(
    kind: LatticeKind, lam: complex, n_max: int, cfg: ToleranceConfig
) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """Critical orbit of lam with flat derivatives, stopping early at poles."""
    lat = make_lattice(kind, lam, cfg)
    trace = iterate(lat, lat.crit_values[0], n_max, cfg)
    return trace.points, trace.derivs


def close_horizon(sample: HyperbolicSample, pts: tuple[complex, ...], delta_p: float) -> int:
    """Largest n with the orbit within delta_p of the reference at all k <= n."""
    n = 0
    limit = min(len(pts), len(sample.points))
    for k in range(limit):
        if sph_dist(pts[k], sample.points[k]) >= delta_p:
            break
        n = k
    return n


def pair_ratio(
    sample: HyperbolicSample, a: complex, b: complex, delta_p: float, cfg: ToleranceConfig
) -> tuple[float, int]:
    """(|product of f_a'/f_b' over the first n steps - 1|, n) for one pair:
    n is the largest step both critical orbits stay within delta_p of the
    reference orbit, at most the derivatives either orbit has."""
    M = len(sample.points) - 1
    pts_a, ders_a = param_orbit(sample.kind, a, M, cfg)
    pts_b, ders_b = param_orbit(sample.kind, b, M, cfg)
    n = min(close_horizon(sample, pts_a, delta_p), close_horizon(sample, pts_b, delta_p))
    n = min(n, len(ders_a), len(ders_b))
    prod = 1.0 + 0j
    for k in range(n):
        prod *= ders_a[k] / ders_b[k]
    return abs(prod - 1.0), n


def distortion_report_scalar(
    sample: HyperbolicSample, r: float, n_pairs: int, cfg: ToleranceConfig
) -> DistortionReport:
    """hyperbolic.distortion_report, one scalar orbit and chain at a time."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be at least 1")
    if r <= 0:
        raise ValueError("r must be positive")
    if r / 100.0 == 0:
        raise ValueError("r/100 must not underflow to zero")
    delta_p = min(sample.delta / 4.0, r * DISTORTION_BUDGET)
    M = len(sample.points) - 1
    if M < 3:
        raise DegenerateRadius("no pair kept its orbits close for 3 steps")

    max_ratio = 0.0
    pairs_used = 0
    for i in range(n_pairs):
        t = 2.0 * math.pi * i / n_pairs
        a = sample.lambda0 + r * complex(math.cos(t), math.sin(t))
        t2 = t + math.pi / n_pairs
        b = sample.lambda0 + 0.5 * r * complex(math.cos(t2), math.sin(t2))
        ratio, n = pair_ratio(sample, a, b, delta_p, cfg)
        if n < 3:
            continue
        max_ratio = max(max_ratio, ratio)
        pairs_used += 1
    if pairs_used == 0:
        raise DegenerateRadius("no pair kept its orbits close for 3 steps")

    lam_e = sample.lambda0 + 0.5 * r
    h = r / 100.0
    pts_e, ders_e = param_orbit(sample.kind, lam_e, M, cfg)
    n_e = min(close_horizon(sample, pts_e, delta_p), len(ders_e))
    corollary = math.nan
    if n_e >= 1:
        pts_p, _ = param_orbit(sample.kind, lam_e + h, n_e, cfg)
        pts_m, _ = param_orbit(sample.kind, lam_e - h, n_e, cfg)
        if len(pts_p) > n_e and len(pts_m) > n_e:
            xi_prime = (pts_p[n_e] - pts_m[n_e]) / (2.0 * h)
            x_prime = (
                x_function(sample, lam_e + h, cfg) - x_function(sample, lam_e - h, cfg)
            ) / (2.0 * h)
            deriv = 1.0 + 0j
            for k in range(n_e):
                deriv *= ders_e[k]
            denom = deriv * x_prime
            if denom != 0:
                corollary = abs(xi_prime / denom - 1.0)
    return DistortionReport(
        max_ratio=max_ratio, corollary_ratio=corollary, pairs_used=pairs_used
    )


# ---------------------------------------------------------------------------
# argument principle


def _g_array(
    kind: LatticeKind, n: int, j: int, k: int, lam: np.ndarray, cfg: ToleranceConfig
) -> np.ndarray:
    """g of the (n, j, k) prepole equation over an array of parameters: the
    one-pair form of misiurewicz._g_batch."""
    return _g_batch(kind, n, _pole_coef(kind, j, k), lam, cfg)


def winding_count(
    kind: LatticeKind,
    n: int,
    j: int,
    k: int,
    center: complex,
    radius: float,
    cfg: ToleranceConfig,
) -> Optional[int]:
    """Roots of the prepole equation g inside the circle by the argument
    principle; None when the circle cannot be resolved (undersampled or
    orbit death on the contour).

    This is the plain full-ladder rule, each level sampled afresh, that
    misiurewicz._certify_roots reaches the same decisions as with fewer
    evaluations; it is kept independent of it as the oracle behind
    criterion 3's spot-check.
    """
    n_pts = 64
    while n_pts <= 1024:
        t = 2.0 * math.pi * np.arange(n_pts) / n_pts
        vals = _g_array(kind, n, j, k, center + radius * np.exp(1j * t), cfg)
        if np.any(np.isnan(vals)) or np.any(vals == 0):
            return None
        inc = np.angle(np.roll(vals, -1) / vals)
        if float(np.max(np.abs(inc))) < math.pi / 2.0:
            w = float(inc.sum()) / (2.0 * math.pi)
            if abs(w - round(w)) > 0.25:
                return None
            return int(round(w))
        n_pts *= 2
    return None


def recount(
    kind: LatticeKind,
    n: int,
    j: int,
    k: int,
    center: complex,
    radius: float,
    cfg: ToleranceConfig,
) -> Optional[int]:
    """Roots of the prepole equation g inside the circle, counted where the
    argument cannot alias: the sampling doubles from 64 points until every
    argument increment is below pi/8.  None means unresolved: no level up to
    65,536 points got there, or g is 0 or NaN on the circle.

    Unlike winding_count, a level whose increments are merely below pi/2 is
    not trusted, so a pair of roots that a coarse level winds around once is
    counted as two.
    """
    n_pts = 64
    while n_pts <= 65536:
        t = 2.0 * math.pi * np.arange(n_pts) / n_pts
        vals = _g_array(kind, n, j, k, center + radius * np.exp(1j * t), cfg)
        if np.any(np.isnan(vals)) or np.any(vals == 0):
            return None
        inc = np.angle(np.roll(vals, -1) / vals)
        if float(np.max(np.abs(inc))) < math.pi / 8.0:
            w = float(inc.sum()) / (2.0 * math.pi)
            return int(round(w)) if abs(w - round(w)) <= 0.25 else None
        n_pts *= 2
    return None
