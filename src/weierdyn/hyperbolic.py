"""Expansion data along a critical orbit, the adapted metric, holomorphic
motion tracking, the transversality function x, and distortion ratios.

Everything here works on a HyperbolicSample: the first M+1 points of the
critical orbit of a parameter lambda0 whose orbit stays chordal distance
delta away from the critical points and from infinity.  On such a sample
the spherical derivative of some iterate f^N is uniformly at least
a_tilde = 2, which is the quantitative form of expansion used by all
downstream estimates:

  * adapted_metric averages the spherical derivatives of f^0..f^(N-1); in
    that metric a single application of f expands by at least
    1 + (a_tilde - 1) / (N * C1) with C1 the metric's maximum.
  * track_motion follows a point of the sample to a nearby parameter by
    pulling a far-ahead reference point backward through Newton solves of
    f_lambda(w) = w_next, each pullback required to stay inside the
    shadowing ball around the reference orbit.  Expansion of f_lambda0
    makes the pullback a contraction, so the chain converges geometrically
    in the horizon length.  Every chain here runs in _pullback_batch.
  * x_function is e_lambda - h_lambda(e_lambda0), the transversality
    quantity: zero at lambda0, not identically zero nearby, and its
    vanishing order K is read off as a winding number.
  * distortion_report compares flat derivative products along critical
    orbits of parameter pairs, and the parameter-vs-space derivative ratio
    xi_n' / ((f^n)'(e) * x'), both of which stay near 1 at small radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .lattice import (
    Lattice,
    LatticeKind,
    ToleranceConfig,
    ZeroParameter,
    _cdiv,
    _cmul,
    _complex,
    _crit_values_hits,
    _divisor,
    _half_periods_split,
    _lattice_crit_dist,
    _pair_rows,
    _scales_ok,
    _sph_dist_split,
    _sph_dist_to_inf_split,
    _split_scales,
    _terms_for_tol,
    _wp_pair_split,
    make_lattice,
)
from .dynamics import BudgetExhausted, escape_scale, iterate

__all__ = [
    "HyperbolicSample",
    "MotionFrame",
    "MotionCheck",
    "ExpansionReport",
    "DistortionReport",
    "SeparationViolated",
    "NoExpansion",
    "ShadowLost",
    "PoleOnOrbit",
    "InsufficientSampling",
    "NearZero",
    "DegenerateRadius",
    "A_TILDE",
    "N_EXP_MAX",
    "DEFAULT_N_STEPS",
    "build_sample",
    "adapted_metric",
    "track_motion",
    "x_function",
    "order_K",
    "verify_motion",
    "winding_number",
    "fit_expansion",
    "distortion_report",
]

A_TILDE = 2.0
N_EXP_MAX = 64
# per-pair orbit deviation budget in distortion_report, per unit radius.
# Tying the budget to r keeps each pair's comparison depth the same when r
# is halved (the pair directions are deterministic), so the reported max
# scales with r instead of sitting at a fixed ceiling with quantization
# noise.  delta/4 still caps it for large r where shadowing would break.
DISTORTION_BUDGET = 1000.0
# extra orbit length kept beyond M so every sample point has N_EXP_MAX
# derivative factors and track_motion has reference points ahead of it
EXTENSION = 64
DEFAULT_N_STEPS = 48
# Newton iterations a pullback step may take
_NEWTON_ITERS = 40


class SeparationViolated(RuntimeError):
    """The critical orbit entered the delta-neighborhood of the critical
    points ("crit") or of infinity ("infinity")."""

    def __init__(self, step: int, kind: str):
        super().__init__(f"separation violated at step {step} ({kind})")
        self.step = step
        self.kind = kind


class NoExpansion(RuntimeError):
    """No iterate up to N_EXP_MAX expands uniformly on the sample."""


class ShadowLost(RuntimeError):
    """A Newton pullback failed or left the shadowing ball."""

    def __init__(self, step: int):
        super().__init__(f"shadowing lost at pullback step {step}")
        self.step = step


class PoleOnOrbit(ArithmeticError):
    """The orbit below an adapted-metric evaluation hit a pole."""

    def __init__(self, step: int):
        super().__init__(f"orbit hit a pole at step {step}")
        self.step = step


class InsufficientSampling(RuntimeError):
    """Winding increments too large to resolve; raise n_samples."""


class NearZero(RuntimeError):
    """|x| on the circle is too close to 0 to trust its argument."""


class DegenerateRadius(RuntimeError):
    """No distortion pair kept its orbits close for at least 3 steps."""


@dataclass(frozen=True)
class HyperbolicSample:
    kind: LatticeKind
    lambda0: complex
    points: tuple[complex, ...]
    delta: float
    min_crit_dist: float
    min_inf_dist: float
    N_exp: int
    a_tilde: float
    # orbit continuation used for derivative products and shadowing
    # references; ext_points[i] = f^i(e), ext_factors[i] = spherical factor
    # of the step i -> i+1
    ext_points: tuple[complex, ...]
    ext_factors: tuple[float, ...]
    # last continuation index that still keeps the sample's separation; the
    # inverse branch is only well defined inside delta-balls, so pullback
    # chains never reach past this point
    ext_usable: int


@dataclass(frozen=True)
class MotionFrame:
    z0: complex
    lam: complex
    h_value: complex
    conj_residual: float
    steps_used: int


@dataclass(frozen=True)
class MotionCheck:
    """verify_motion's results.  Each field holds the value, or the exception
    the stand-alone call raises in its place."""

    identity_residual: float | Exception
    frames: tuple[MotionFrame | Exception, ...]
    order: int | Exception
    distortion: DistortionReport | Exception

    @property
    def conj_residual(self) -> float | Exception:
        """The largest conjugacy residual of the frames, NaNs skipped, or the
        exception of the first frame that fails."""
        worst = 0.0
        for frame in self.frames:
            if isinstance(frame, Exception):
                return frame
            if not math.isnan(frame.conj_residual):
                worst = max(worst, frame.conj_residual)
        return worst


@dataclass(frozen=True)
class ExpansionReport:
    C: float
    a: float
    n_range: int
    per_step_min: tuple[float, ...]


@dataclass(frozen=True)
class DistortionReport:
    max_ratio: float
    corollary_ratio: float
    pairs_used: int


def build_sample(
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

    # every point's separation at once: the first violation ends the sample
    # (infinity outranks crit at one step), or the usable continuation
    zs = np.array(ext_points)
    inf_dists = _sph_dist_to_inf_split(zs.real, zs.imag)
    crit_dists = _lattice_crit_dist(lat, zs.real, zs.imag)
    bad = np.flatnonzero((inf_dists < delta) | (crit_dists < delta)).tolist()
    if bad and bad[0] <= M:
        raise SeparationViolated(bad[0], "infinity" if inf_dists[bad[0]] < delta else "crit")
    ext_usable = (bad[0] if bad else len(ext_points)) - 1

    n_avail = min(N_EXP_MAX, len(ext_factors) - M)
    worst = _least_log_products(ext_factors, M, n_avail)
    N_exp = next((N for N in range(1, n_avail + 1) if worst[N] >= math.log(A_TILDE)), None)
    if N_exp is None:
        raise NoExpansion(f"no uniform expansion up to N = {N_EXP_MAX}")

    return HyperbolicSample(
        kind=kind,
        lambda0=complex(lambda0),
        points=ext_points[: M + 1],
        delta=delta,
        min_crit_dist=min(crit_dists[: M + 1].tolist()),
        min_inf_dist=min(inf_dists[: M + 1].tolist()),
        N_exp=N_exp,
        a_tilde=A_TILDE,
        ext_points=ext_points,
        ext_factors=ext_factors,
        ext_usable=ext_usable,
    )


def _least_log_products(factors: Sequence[float], M: int, n: int) -> list[float]:
    """worst[k], k = 0..n: the least log-product of k consecutive factors over
    the starts 0..M, from cumulative log sums (a zero factor adds -inf), each
    Python's min over the starts in order, so NaN keeps its place."""
    logs = [0.0]
    for f in factors:
        logs.append(logs[-1] + (math.log(f) if f > 0 else -math.inf))
    cum = np.array(logs[: M + n + 1])
    with np.errstate(invalid="ignore"):
        windows = np.lib.stride_tricks.sliding_window_view(cum, M + 1) - cum[: M + 1]
    return [min(row) for row in windows.tolist()]


def adapted_metric(z: complex, lat: Lattice, N: int, cfg: ToleranceConfig) -> float:
    """d(z) = (1/N) * sum of spherical |(f^n)'(z)| for n = 0..N-1.

    The n = 0 term is 1.  In this metric one application of f expands by at
    least 1 + (a_tilde - 1)/(N * max d) on an expanding sample.  A pole hit or
    escape of iterate(lat, z, N - 1, cfg) at step s raises PoleOnOrbit(step=s).
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    total = prod = 1.0
    if N > 1:
        trace = iterate(lat, z, N - 1, cfg)
        if not isinstance(trace.outcome, BudgetExhausted):
            raise PoleOnOrbit(step=trace.outcome.step)
        for factor in trace.sph_derivs:
            prod *= factor
            total += prod
    return total / N


@dataclass(frozen=True)
class _Walks:
    """The forward critical orbits of _pullback_batch, one row per scale.

    Row j of points holds iterate(make_lattice(kind, orbits[j]),
    crit_values[0], M)'s points and row j of derivs its derivs, NaN past
    size[j] points and size[j] - 1 derivs; errors[j] is make_lattice's
    refusal of the scale, or None.
    """

    points: np.ndarray
    derivs: np.ndarray
    size: np.ndarray
    errors: list[Optional[Exception]]


def _pullback_batch(
    sample: HyperbolicSample,
    lams: np.ndarray,
    anchors: list[int],
    n_steps: list[int],
    cfg: ToleranceConfig,
    orbits: Sequence[complex] = (),
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[Optional[Exception]], _Walks]:
    """The pullback chains of elements i at once, and the forward critical
    orbits of the scales in orbits, M = len(sample.points) - 1 steps each.

    Chain i runs on the lattice of lams[i] over horizon = min(n_steps[i],
    ext_usable - anchors[i]) steps, a ValueError below 1: from w =
    ext_points[anchor + horizon], step k = horizon - 1, ..., 0 solves wp(w')
    = w by Newton from ext_points[anchor + k].  A pole hit, a non-finite
    iterate, a zero derivative, _NEWTON_ITERS iterations or a result farther
    than delta/2 from ext_points[anchor + k] raise ShadowLost(step=k).

    Returns (h, fh, e, errors, walks): h[i] is the chain's last w, its
    h_lambda(points[anchors[i]]), fh[i] is wp(h[i]) on that lattice, from
    the round that solved h[i], e[i] the lattice's crit_values[0], and
    errors[i] the exception make_lattice or the chain raises for element i,
    or None.  h[i] and fh[i] are meaningless where errors[i] is not None,
    and e[i] where the lattice is refused.  walks holds the forward orbits.

    Orbits and chains are the columns of one lockstep table, and a round
    evaluates lattice._wp_pair_split once on all of it.  The orbits' columns
    lead for M rounds: an orbit takes step s in round s, and once iterate's
    escape or pole rule ends it, its column runs on unrecorded.  Each chain
    keeps its own pullback step and Newton iteration count, so chains of any
    anchors, horizons and scales share every round.  Element by element the
    arithmetic and the order of the checks are those of one chain of scalar
    wp_pair calls on make_lattice(kind, lams[i]), and of iterate, so each h
    and orbit point has their bits and each error is the scalar one.  No
    scale gets a Lattice.
    """
    kind = sample.kind
    n_chains = len(anchors)
    lam_c = np.concatenate([
        np.asarray(lams, dtype=complex).reshape(-1), np.asarray(orbits, dtype=complex).reshape(-1)
    ])
    errors: list[Optional[Exception]] = [None] * lam_c.size
    # make_lattice's refusals come first, as a chain needs the lattice
    ok = _scales_ok(lam_c)
    for i in np.flatnonzero(~ok).tolist():
        errors[i] = ZeroParameter("lattice scale must be nonzero and finite")
    good = np.flatnonzero(ok)
    lam, lam2 = _split_scales(lam_c[good])
    crit, hits = _crit_values_hits(kind, lam, lam2, _half_periods_split(kind, lam), cfg)
    for at, hit in hits.items():
        errors[int(good[at])] = hit
    h = np.full(n_chains, complex(math.nan, math.nan))
    e, fh = h.copy(), h.copy()
    chain_at = good < n_chains
    e[good[chain_at]] = _complex(crit[0, 0, chain_at], crit[0, 1, chain_at])

    # the orbits that start, at their critical value; and the chains that
    # start, at step k = horizon - 1: Newton for f(w) = refs[anchor + horizon]
    # from w = refs[anchor + k]
    walking, live, steps, first = [], [], [], []
    for at, i in enumerate(good.tolist()):
        if errors[i] is not None:
            continue
        if i >= n_chains:
            walking.append(at)
            continue
        horizon = min(n_steps[i], sample.ext_usable - anchors[i])
        if horizon < 1:
            errors[i] = ValueError("no reference orbit beyond the anchor point")
            continue
        live.append(at)
        steps.append(horizon - 1)
        first.append(anchors[i] + horizon - 1)
    M = len(sample.points) - 1
    walks = _Walks(
        points=np.full((lam_c.size - n_chains, M + 1), complex(math.nan, math.nan)),
        derivs=np.full((lam_c.size - n_chains, M), complex(math.nan, math.nan)),
        size=np.zeros(lam_c.size - n_chains, dtype=int),
        errors=errors[n_chains:],
    )
    row = good[walking] - n_chains
    walks.points[row, 0] = _complex(crit[0, 0, walking], crit[0, 1, walking])
    walks.size[row] = 1
    if M < 1:
        walking, row = [], row[:0]
    # the table's rows: the iterate z, then the _divisor rows of lam, lam2
    # and lam3 = lam2 * lam; its columns: the orbits, then the chains
    nw = len(walking)
    table = np.vstack([
        crit[0], _divisor(*lam), _divisor(*lam2), _divisor(*_cmul(*lam2, *lam))
    ])[:, walking + live]
    refs = np.array(sample.ext_points, dtype=complex)
    ref_r, ref_i = refs.real.copy(), refs.imag.copy()
    table[:2, nw:] = ref_r[first], ref_i[first]
    # per orbit: its row, escape scale and whether it goes on, as iterate's
    # escape rule ends an orbit before its step
    esc = np.array([escape_scale(v, cfg.pole_eps) for v in lam_c[good[walking]].tolist()])
    going = ~(np.hypot(table[0, :nw], table[1, :nw]) > esc)
    # per chain: its element, step k, reference index anchor + k, Newton
    # iteration count and target t.  The counters are floats and the index
    # moves back by lookup in `back`, because integer arithmetic would be
    # numpy loops that verify runs nowhere else, each adding resident pages.
    elem = good[live]
    k = np.array(steps, dtype=float)
    ref = np.array(first, dtype=int)
    it = np.zeros(elem.size)
    back = np.arange(-1, refs.size - 1)
    target = [r + 1 for r in first]
    tr, ti = ref_r[target], ref_i[target]
    s, rows = 0, None
    n_terms = _terms_for_tol(kind, cfg.eval_tol)
    eps = sample.delta / 2.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while table.shape[1]:
            if rows is None or rows.shape[2] != table.shape[1]:
                # the old rows go first, so two tables of them never coexist
                rows = None
                rows = _pair_rows(kind, n_terms, table.shape[1])
            vr, vi, dr, di, pole = _wp_pair_split(
                *table[:2], table[2:5], table[5:8], table[8:11], kind, n_terms, cfg.pole_eps, rows
            )
            if nw:
                # the orbits take step s: a pole hit ends an orbit there, and
                # the escape rule before its next step
                going &= ~pole[:nw]
                at = row[going]
                walks.derivs[at, s] = _complex(dr[:nw][going], di[:nw][going])
                s += 1
                walks.points[at, s] = _complex(vr[:nw][going], vi[:nw][going])
                walks.size[at] = s + 1
                going &= ~(np.hypot(vr[:nw], vi[:nw]) > esc)
                table[:2, :nw] = vr[:nw], vi[:nw]
            zr, zi = table[0, nw:], table[1, nw:]
            vr, vi, dr, di, pole = vr[nw:], vi[nw:], dr[nw:], di[nw:], pole[nw:]
            gr, gi = vr - tr, vi - ti
            fail = pole | ~(np.isfinite(zr) & np.isfinite(zi))
            done = ~fail & (np.hypot(gr, gi) < cfg.newton_tol)
            fail |= ~done & (dr == 0) & (di == 0)
            fail |= done & (_sph_dist_split(zr, zi, ref_r[ref], ref_i[ref]) > eps)
            done &= ~fail
            it += 1.0
            fail |= ~done & (it == _NEWTON_ITERS)
            # a solved step moves its chain one step back: the next step
            # solves for the w just found from the next reference point; the
            # other chains take their Newton update
            k[done] -= 1.0
            ref[done] = back[ref[done]]
            qr, qi = _cdiv(gr, gi, dr, di)
            tr, ti = np.where(done, zr, tr), np.where(done, zi, ti)
            table[0, nw:] = np.where(done, ref_r[ref], zr - qr)
            table[1, nw:] = np.where(done, ref_i[ref], zi - qi)
            it[done] = 0.0
            # the one compaction: the orbits' columns leave after round M, a
            # chain's when it fails or ends.  After step 0 a chain is finished:
            # its w, now its target, is h and this round's wp value is wp(h),
            # as scalar wp is wp_pair's value
            end = done & (k < 0.0)
            drop = np.full(table.shape[1], s == M)
            drop[nw:] = fail | end
            if drop.any():
                for at in np.flatnonzero(fail).tolist():
                    errors[int(elem[at])] = ShadowLost(step=int(k[at]))
                h[elem[end]] = _complex(tr[end], ti[end])
                fh[elem[end]] = _complex(vr[end], vi[end])
                table = table[:, ~drop]
                keep = ~drop[nw:]
                elem, k, ref, it, tr, ti = (a[keep] for a in (elem, k, ref, it, tr, ti))
                nw = table.shape[1] - elem.size
    return h, fh, e, errors[:n_chains], walks


def _anchor(sample: HyperbolicSample, z0: complex, cfg: ToleranceConfig) -> int:
    """Index of the first sample point that z0 matches to eval_tol."""
    for i, p in enumerate(sample.points):
        if p == z0 or abs(p - z0) <= cfg.eval_tol * max(1.0, abs(p)):
            return i
    raise ValueError("z0 is not a sample point")


def _frame(
    sample: HyperbolicSample, z0: complex, lam: complex, n_steps: int, anchor: int, chains: dict
) -> MotionFrame | Exception:
    """track_motion's frame at z0 from chains, which maps the anchors of
    _pullback_batch chains to their (h, fh, error): the error of the chain
    at anchor, or its h with the conjugacy residual |h(anchor + 1) -
    fh(anchor)|, NaN where the chain at anchor + 1 fails or did not run."""
    h, fh, err = chains[anchor]
    if err is not None:
        return err
    downstream = chains.get(anchor + 1)
    conj = math.nan
    if downstream is not None and downstream[2] is None:
        conj = abs(downstream[0] - fh)
    return MotionFrame(
        z0=complex(z0), lam=complex(lam), h_value=h, conj_residual=conj,
        steps_used=min(n_steps, sample.ext_usable - anchor),
    )


def track_motion(
    sample: HyperbolicSample,
    z0: complex,
    lam: complex,
    n_steps: int,
    cfg: ToleranceConfig,
) -> MotionFrame:
    """h_lambda(z0) for z0 a sample point, by backward pullback shadowing,
    and the conjugacy residual |h(f_lambda0(z0)) - f_lambda(h(z0))| from a
    second, independent chain anchored one step downstream, NaN when that
    chain fails.  Both chains run in one _pullback_batch."""
    anchor = _anchor(sample, z0, cfg)
    anchors = [anchor, anchor + 1]
    h, fh, _, errors, _ = _pullback_batch(sample, np.array([lam] * 2), anchors, [n_steps] * 2, cfg)
    chains = dict(zip(anchors, zip(h.tolist(), fh.tolist(), errors)))
    frame = _frame(sample, z0, lam, n_steps, anchor, chains)
    if isinstance(frame, Exception):
        raise frame
    return frame


def x_function(sample: HyperbolicSample, lam: complex, cfg: ToleranceConfig) -> complex:
    """x(lambda) = e_lambda - h_lambda(e_lambda0); zero exactly at lambda0.

    h is track_motion's h_value at points[0], from the one _pullback_batch
    chain it needs; the conjugacy chain track_motion also runs is not.
    """
    h, _, e, errors, _ = _pullback_batch(sample, np.array([lam]), [0], [DEFAULT_N_STEPS], cfg)
    if errors[0] is not None:
        raise errors[0]
    return (e - h).tolist()[0]


def winding_number(values: list[complex]) -> int:
    """Winding of a sampled closed loop about 0 by summed argument increments.

    Raises InsufficientSampling when consecutive samples turn by a quarter
    circle or more, or when the total fails to close up to an integer.
    """
    n = len(values)
    total = 0.0
    for i in range(n):
        a = values[i]
        b = values[(i + 1) % n]
        ratio = b / a
        inc = math.atan2(ratio.imag, ratio.real)
        if abs(inc) >= math.pi / 2.0:
            raise InsufficientSampling(f"argument increment {inc:.3f} at sample {i}")
        total += inc
    w = total / (2.0 * math.pi)
    if abs(w - round(w)) > 0.1:
        raise InsufficientSampling(f"winding sum {w:.4f} is not near an integer")
    return int(round(w))


def _circle(sample: HyperbolicSample, rho: float, n_samples: int) -> list[complex]:
    """The n_samples scales on |lambda - lambda0| = rho that order_K winds on."""
    if n_samples < 4:
        raise ValueError("n_samples must be at least 4")
    lams = []
    for i in range(n_samples):
        t = 2.0 * math.pi * i / n_samples
        lams.append(sample.lambda0 + rho * complex(math.cos(t), math.sin(t)))
    return lams


def _winding_order(x: np.ndarray, errors: list[Optional[Exception]], cfg: ToleranceConfig) -> int:
    """order_K from the circle's x values and their errors: the first error,
    or the winding number of x around 0."""
    for err in errors:
        if err is not None:
            raise err
    vals = x.tolist()
    if min(abs(v) for v in vals) <= 10.0 * cfg.eval_tol:
        raise NearZero("|x| on the circle is within noise of zero")
    return winding_number(vals)


def order_K(sample: HyperbolicSample, rho: float, n_samples: int, cfg: ToleranceConfig) -> int:
    """Vanishing order of x at lambda0: the winding number of x around the
    circle |lambda - lambda0| = rho.  x comes from _pullback_batch, with the
    bits of x_function, and the error of the first sample that fails is the
    one x_function raises there.  A non-finite rho is refused first."""
    if not math.isfinite(rho):
        raise ValueError("rho must be finite")
    lams = _circle(sample, rho, n_samples)
    h, _, e, errors, _ = _pullback_batch(
        sample, np.array(lams), [0] * n_samples, [DEFAULT_N_STEPS] * n_samples, cfg
    )
    return _winding_order(e - h, errors, cfg)


def verify_motion(
    sample: HyperbolicSample,
    rho: float,
    n_steps: int,
    n_samples: int,
    r: float,
    n_pairs: int,
    cfg: ToleranceConfig,
) -> MotionCheck:
    """The motion and distortion checks of `weierdyn verify`, from one
    _pullback_batch:

      * identity_residual: |h - points[0]| for h the h_value of
        track_motion(sample, points[0], lambda0, n_steps, cfg);
      * frames: track_motion(sample, z, lambda0 + rho, n_steps, cfg) for
        every sample point z;
      * order: order_K(sample, rho, n_samples, cfg);
      * distortion: distortion_report(sample, r, n_pairs, cfg).

    Each is the value, or the exception that call raises, with the same
    bits.  The frames' chains run once per anchor: the conjugacy chain of the
    frame anchored at a is the main chain of the frame anchored at a + 1.
    The identity's conjugacy chain is not reported, so it does not run.  A
    non-finite rho raises ValueError before anything runs.
    """
    if not math.isfinite(rho):
        raise ValueError("rho must be finite")
    probe = sample.lambda0 + rho
    anchors = [_anchor(sample, z, cfg) for z in sample.points]
    chained = sorted(set(anchors) | {a + 1 for a in anchors if a + 2 <= sample.ext_usable})
    order: int | Exception | None = None
    try:
        circle = _circle(sample, rho, n_samples)
    except ValueError as exc:
        circle, order = [], exc
    distortion: DistortionReport | Exception | None = None
    try:
        orbits, xs = _distortion_scales(sample, r, n_pairs)
    except (ValueError, DegenerateRadius) as exc:
        orbits, xs, distortion = [], [], exc
    lams = [sample.lambda0] + [probe] * len(chained) + circle + xs
    h, fh, e, errors, walks = _pullback_batch(
        sample,
        np.array(lams),
        [0] + chained + [0] * (len(circle) + len(xs)),
        [n_steps] * (1 + len(chained)) + [DEFAULT_N_STEPS] * (len(circle) + len(xs)),
        cfg,
        orbits,
    )
    hv = h.tolist()
    identity = errors[0] if errors[0] is not None else abs(hv[0] - sample.points[0])
    # chain i + 1 is anchored at chained[i]
    chains = dict(zip(chained, zip(hv[1:], fh.tolist()[1:], errors[1:])))
    frames = tuple(
        _frame(sample, z, probe, n_steps, a, chains) for z, a in zip(sample.points, anchors)
    )

    at = 1 + len(chained)
    end = at + len(circle)
    if order is None:
        try:
            order = _winding_order(e[at:end] - h[at:end], errors[at:end], cfg)
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            order = exc
    if distortion is None:
        try:
            distortion = _distortion(sample, r, n_pairs, walks, e[end:] - h[end:], errors[end:])
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            distortion = exc
    return MotionCheck(
        identity_residual=identity, frames=frames, order=order, distortion=distortion
    )


def fit_expansion(sample: HyperbolicSample, n_range: int) -> ExpansionReport:
    """Lower-envelope expansion constants: per_step_min[k] >= C * a^k, a > 1.

    per_step_min[k] is the minimum over sample points of the spherical
    |(f^k)'|; the pair (C, a) comes from the steepest supporting edge of the
    lower convex hull of (k, log per_step_min[k]).
    """
    if n_range < 1:
        raise ValueError("n_range must be at least 1")
    if len(sample.ext_factors) < len(sample.points) - 1 + n_range:
        raise ValueError("sample orbit too short for the requested range")
    mins = _least_log_products(sample.ext_factors, len(sample.points) - 1, n_range)
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


def _distortion_scales(
    sample: HyperbolicSample, r: float, n_pairs: int
) -> tuple[list[complex], list[complex]]:
    """distortion_report's argument checks, then its scales: the forward
    orbits' a_0, b_0, a_1, b_1, ..., lambda_e, lambda_e + h, lambda_e - h and
    the x chains' lambda_e + h, lambda_e - h, with lambda_e = lambda0 + r/2
    and h = r/100."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be at least 1")
    if r <= 0:
        raise ValueError("r must be positive")
    if not math.isfinite(r):
        raise ValueError("r must be finite")
    if r / 100.0 == 0:
        # the central differences divide by 2 * (r/100)
        raise ValueError("r/100 must not underflow to zero")
    if len(sample.points) - 1 < 3:
        # an orbit of M steps has M derivatives, too few for any pair
        raise DegenerateRadius("no pair kept its orbits close for 3 steps")
    orbits = []
    for i in range(n_pairs):
        t = 2.0 * math.pi * i / n_pairs
        orbits.append(sample.lambda0 + r * complex(math.cos(t), math.sin(t)))
        t2 = t + math.pi / n_pairs
        orbits.append(sample.lambda0 + 0.5 * r * complex(math.cos(t2), math.sin(t2)))
    lam_e = sample.lambda0 + 0.5 * r
    h = r / 100.0
    xs = [lam_e + h, lam_e - h]
    return orbits + [lam_e] + xs, xs


def _distortion(
    sample: HyperbolicSample,
    r: float,
    n_pairs: int,
    walks: _Walks,
    x: np.ndarray,
    x_errors: list[Optional[Exception]],
) -> DistortionReport:
    """distortion_report from the forward orbits of _distortion_scales' scales
    and the x values (with their errors) of its two x chains.  Raises the
    first error the scalar loop meets, in its order."""
    delta_p = min(sample.delta / 4.0, r * DISTORTION_BUDGET)
    # each orbit's close horizon: the largest n with every point k <= n
    # within delta_p of the reference point k (NaN past the orbit is not far)
    pts = walks.points
    ref = np.array(sample.points)
    far = _sph_dist_split(pts.real, pts.imag, ref.real, ref.imag) >= delta_p
    close = np.where(far.any(axis=1), np.maximum(far.argmax(axis=1) - 1, 0), walks.size - 1)
    close = close.tolist()
    derivs = walks.derivs.tolist()

    def orbit(j: int) -> int:
        if walks.errors[j] is not None:
            raise walks.errors[j]
        return close[j]

    max_ratio = 0.0
    pairs_used = 0
    for i in range(n_pairs):
        # n is the largest step both orbits stay within delta_p of the
        # reference orbit, at most the derivatives either has
        a, b = 2 * i, 2 * i + 1
        n = min(orbit(a), orbit(b))
        prod = 1.0 + 0j
        for k in range(n):
            prod *= derivs[a][k] / derivs[b][k]
        if n < 3:
            continue
        max_ratio = max(max_ratio, abs(prod - 1.0))
        pairs_used += 1
    if pairs_used == 0:
        raise DegenerateRadius("no pair kept its orbits close for 3 steps")

    # the parameter-derivative ratio at lambda_e, with central differences
    at = 2 * n_pairs
    n_e = orbit(at)
    h = r / 100.0
    corollary = math.nan
    if n_e >= 1:
        # the scalar loop builds both lattices here, in this order
        orbit(at + 1)
        orbit(at + 2)
        if walks.size[at + 1] > n_e and walks.size[at + 2] > n_e:
            xi_prime = (complex(pts[at + 1, n_e]) - complex(pts[at + 2, n_e])) / (2.0 * h)
            for err in x_errors:
                if err is not None:
                    raise err
            x_p, x_m = x.tolist()
            x_prime = (x_p - x_m) / (2.0 * h)
            deriv = 1.0 + 0j
            for k in range(n_e):
                deriv *= derivs[at][k]
            denom = deriv * x_prime
            if denom != 0:
                corollary = abs(xi_prime / denom - 1.0)
    return DistortionReport(
        max_ratio=max_ratio, corollary_ratio=corollary, pairs_used=pairs_used
    )


def distortion_report(
    sample: HyperbolicSample, r: float, n_pairs: int, cfg: ToleranceConfig
) -> DistortionReport:
    """Main distortion ratio over parameter pairs in B(lambda0, r).

    For each deterministic pair (a, b) the comparison length n is the largest
    step both critical orbits stay within delta/4 of the reference orbit; the
    ratio is |product of f_a' along a's orbit / product of f_b' along b's - 1|
    accumulated as a product of per-step quotients.  Also evaluates the
    parameter-derivative ratio |xi_n'/((f^n)'(e) * x') - 1| at lambda0 + r/2
    with central differences of step r/100.  All critical orbits and both x
    values come from one _pullback_batch, with the bits of iterate and
    x_function.
    """
    orbits, xs = _distortion_scales(sample, r, n_pairs)
    h, _, e, errors, walks = _pullback_batch(
        sample, np.array(xs), [0, 0], [DEFAULT_N_STEPS] * 2, cfg, orbits
    )
    return _distortion(sample, r, n_pairs, walks, e - h, errors)
