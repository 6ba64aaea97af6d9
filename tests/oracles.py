"""Independent oracles the tests check the library against.

None of these is on a production path: each is a literal, slow form of a
quantity the library computes another way.
"""

import math
from functools import lru_cache
from typing import Optional

import numpy as np

from weierdyn.dynamics import BudgetExhausted, iterate
from weierdyn.hyperbolic import (
    _NEWTON_ITERS,
    A_TILDE,
    DEFAULT_N_STEPS,
    DISTORTION_BUDGET,
    EXTENSION,
    N_EXP_MAX,
    DegenerateRadius,
    DistortionReport,
    ExpansionReport,
    HyperbolicSample,
    MotionFrame,
    NoExpansion,
    SeparationViolated,
    ShadowLost,
    _anchor,
)
from weierdyn.lattice import (
    _TRANSLATE_CHUNK,
    Lattice,
    LatticeKind,
    ToleranceConfig,
    _cdiv,
    _cdiv_by,
    _cmul,
    _kind_data,
    _nearest_translate,
    _recenter,
    _reduced_split,
    _split_coeffs,
    is_infinite,
    make_lattice,
    sph_dist,
    wp,
    wp_pair,
)
from weierdyn.lattice import PoleHit as PoleError
from weierdyn.misiurewicz import _g_batch, _pole_coef
from weierdyn.rng import SplitMix

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
# lattice._wp_split and lattice._wp_pair_split before their Horner ran on one
# flat buffer, kept verbatim apart from the names: _horner_split was the
# Horner of both, on wp's coefficient row or on the rows of wp and wp'.


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
# scalar pullback
#
# hyperbolic's holomorphic motion before every chain ran in _pullback_batch:
# one Newton pullback chain at a time on a Lattice of the scale tracked to,
# kept verbatim apart from the names.


def pullback_chain(
    sample: HyperbolicSample,
    lat: Lattice,
    anchor: int,
    n_steps: int,
    cfg: ToleranceConfig,
) -> tuple[complex, int]:
    """Backward Newton shadowing of the reference orbit starting at anchor,
    on the lattice lat of the parameter tracked to.

    Returns (h_value approximating h_lambda(points[anchor]), horizon used).
    At pullback step k, a pole hit, a non-finite Newton iterate, a zero
    derivative, _NEWTON_ITERS iterations without convergence or a result
    farther than delta/2 from the reference point raise ShadowLost(step=k).
    """
    refs = sample.ext_points
    horizon = min(n_steps, sample.ext_usable - anchor)
    if horizon < 1:
        raise ValueError("no reference orbit beyond the anchor point")
    eps = sample.delta / 2.0
    w = refs[anchor + horizon]
    for k in range(horizon - 1, -1, -1):
        target = w
        ref = refs[anchor + k]
        w = ref
        for _ in range(_NEWTON_ITERS):
            if is_infinite(w):
                raise ShadowLost(step=k)
            try:
                val, dval = wp_pair(w, lat, cfg)
            except PoleError:
                raise ShadowLost(step=k) from None
            g = val - target
            if abs(g) < cfg.newton_tol:
                break
            if dval == 0:
                raise ShadowLost(step=k)
            w = w - g / dval
        else:
            raise ShadowLost(step=k)
        if sph_dist(w, ref) > eps:
            raise ShadowLost(step=k)
    return w, horizon


def track_motion_scalar(
    sample: HyperbolicSample,
    z0: complex,
    lam: complex,
    n_steps: int,
    cfg: ToleranceConfig,
) -> MotionFrame:
    """hyperbolic.track_motion from two scalar chains: h_lambda(z0), and the
    conjugacy residual |h(f_lambda0(z0)) - f_lambda(h(z0))| from a second
    chain anchored one step downstream, NaN when no such chain exists."""
    anchor = _anchor(sample, z0, cfg)
    lat = make_lattice(sample.kind, lam, cfg)
    h_value, used = pullback_chain(sample, lat, anchor, n_steps, cfg)

    conj = math.nan
    if anchor + 2 <= sample.ext_usable:
        try:
            h_next, _ = pullback_chain(sample, lat, anchor + 1, n_steps, cfg)
            conj = abs(h_next - wp(h_value, lat, cfg))
        except (ShadowLost, PoleError, ValueError):
            conj = math.nan
    return MotionFrame(
        z0=complex(z0), lam=complex(lam), h_value=h_value, conj_residual=conj, steps_used=used
    )


def x_function_scalar(sample: HyperbolicSample, lam: complex, cfg: ToleranceConfig) -> complex:
    """hyperbolic.x_function from one scalar chain: e_lambda - h_lambda(e_lambda0)."""
    lat = make_lattice(sample.kind, lam, cfg)
    h_value, _ = pullback_chain(sample, lat, 0, DEFAULT_N_STEPS, cfg)
    return lat.crit_values[0] - h_value


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
    if not math.isfinite(r):
        raise ValueError("r must be finite")
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
                x_function_scalar(sample, lam_e + h, cfg)
                - x_function_scalar(sample, lam_e - h, cfg)
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
# scalar separation and expansion
#
# lattice's scalar chordal distances, and hyperbolic.build_sample and
# fit_expansion before the sample's separation ran on the split distance
# kernels and both read one table of least log-products, kept verbatim apart
# from the names.


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


def build_sample_scalar(
    kind: LatticeKind, lambda0: complex, M: int, delta: float, cfg: ToleranceConfig
) -> HyperbolicSample:
    """Record the critical orbit of lambda0 with its separation and expansion
    certificates.

    The orbit is continued EXTENSION steps past M so that derivative products
    of length up to N_EXP_MAX start at every sample point; the continuation
    is allowed to die early, the sample itself is not.
    """
    if M < 0:
        raise ValueError("M must be nonnegative")
    if math.isnan(delta) or delta < 0:
        raise ValueError("delta must be non-negative")
    lat = make_lattice(kind, lambda0, cfg)
    trace = iterate(lat, lat.crit_values[0], M + EXTENSION, cfg)
    if not isinstance(trace.outcome, BudgetExhausted) and trace.outcome.step <= M:
        raise SeparationViolated(step=trace.outcome.step, kind="infinity")
    ext_points = trace.points
    ext_factors = trace.sph_derivs

    points = ext_points[: M + 1]
    inf_dists, crit_dists = [], []
    for s, p in enumerate(points):
        inf_dists.append(sph_dist_to_inf(p))
        if inf_dists[-1] < delta:
            raise SeparationViolated(step=s, kind="infinity")
        crit_dists.append(crit_sph_dist(p, lat))
        if crit_dists[-1] < delta:
            raise SeparationViolated(step=s, kind="crit")

    ext_usable = M
    for s in range(M + 1, len(ext_points)):
        p = ext_points[s]
        if sph_dist_to_inf(p) < delta or crit_sph_dist(p, lat) < delta:
            break
        ext_usable = s

    # cumulative log derivative products; factors are positive here since a
    # zero factor would mean a sample point is exactly critical, which the
    # separation test above has excluded for delta > 0
    logs = [0.0]
    for f in ext_factors:
        logs.append(logs[-1] + (math.log(f) if f > 0 else -math.inf))
    n_avail = len(ext_factors) - M
    N_exp = None
    for N in range(1, min(N_EXP_MAX, max(n_avail, 0)) + 1):
        worst = min(logs[i + N] - logs[i] for i in range(M + 1))
        if worst >= math.log(A_TILDE):
            N_exp = N
            break
    if N_exp is None:
        raise NoExpansion(f"no uniform expansion up to N = {N_EXP_MAX}")

    return HyperbolicSample(
        kind=kind,
        lambda0=complex(lambda0),
        points=points,
        delta=delta,
        min_crit_dist=min(crit_dists),
        min_inf_dist=min(inf_dists),
        N_exp=N_exp,
        a_tilde=A_TILDE,
        ext_points=ext_points,
        ext_factors=ext_factors,
        ext_usable=ext_usable,
    )


def fit_expansion_scalar(sample: HyperbolicSample, n_range: int) -> ExpansionReport:
    """Lower-envelope expansion constants: per_step_min[k] >= C * a^k, a > 1.

    per_step_min[k] is the minimum over sample points of the spherical
    |(f^k)'|; the pair (C, a) comes from the steepest supporting edge of the
    lower convex hull of (k, log per_step_min[k]).
    """
    if n_range < 1:
        raise ValueError("n_range must be at least 1")
    if len(sample.ext_factors) < len(sample.points) - 1 + n_range:
        raise ValueError("sample orbit too short for the requested range")
    M = len(sample.points) - 1
    logs = [0.0]
    for f in sample.ext_factors:
        logs.append(logs[-1] + (math.log(f) if f > 0 else -math.inf))
    mins = []
    for k in range(n_range + 1):
        mins.append(min(logs[i + k] - logs[i] for i in range(M + 1)))
    if any(math.isinf(v) for v in mins):
        raise NoExpansion("a sample point runs through a critical point")

    # lower convex hull of (k, mins[k]), left to right
    hull: list[tuple[float, float]] = []
    for k, y in enumerate(mins):
        pt = (float(k), y)
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    (x1, y1), (x2, y2) = hull[-2], hull[-1]
    slope = (y2 - y1) / (x2 - x1)
    if not slope > 0.0:
        raise NoExpansion("no supporting line with a > 1")
    intercept = min(y - slope * k for k, y in enumerate(mins))
    # back the intercept off one part in 1e9 so the recorded inequality
    # survives roundoff in exp/log round trips
    C = math.exp(intercept) * (1.0 - 1e-9)
    a = math.exp(slope)
    return ExpansionReport(
        C=C, a=a, n_range=n_range, per_step_min=tuple(math.exp(v) for v in mins)
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


# ---------------------------------------------------------------------------
# sampler
#
# rng.unit_disc_point before its key prefix was folded once: one SplitMix per
# sample, kept verbatim.


def unit_disc_point(*keys: int) -> complex:
    """Deterministic uniform point of the closed unit disc for this key tuple.

    Rejection sampling from the square; the stream is private to the keys, so
    the draw count of one sample never shifts another.
    """
    g = SplitMix(*keys)
    while True:
        x = g.uniform_signed()
        y = g.uniform_signed()
        if x * x + y * y <= 1.0:
            return complex(x, y)
