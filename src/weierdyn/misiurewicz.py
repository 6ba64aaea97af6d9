"""Prepole parameters, orbit separation checks, and density experiments.

A parameter lambda* is a prepole parameter of order n for the chosen family
when the n-th iterate of the critical value lands exactly on a pole:

    g(lambda) = f^n_lambda(e_lambda) - p_{j,k}(lambda) = 0,
    p_{j,k}(lambda) = j*lambda + k*tau*lambda,

with tau the family's generator ratio.  g is holomorphic in lambda away from
premature pole hits, so roots are isolated and can be located by a seeded
Newton iteration and certified by the argument principle on small circles.

misiurewicz_check tests the separation condition behind the Misiurewicz
property at finite resolution (delta, M): the first M orbit points of every
non-pole critical value must stay chordal distance delta away from the
critical points (half-period translates) and from infinity, and must not be
captured by a pole outright.  density_scan measures the fraction of
parameters failing that check in shrinking balls, the observable analogue of
the density statement the prepole construction feeds.

covering_steps estimates how many iterations a small disc needs before its
image covers the delta-neighborhood U_delta of the singular set, using a
forward-image cell dilation bound; it is a desk-scale demonstration, not a
rigorous covering proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import islice
from typing import Iterator, Optional, Sequence

import numpy as np

from . import rng
from .dynamics import _POLE, _STOPPED, OrbitBatch, escape_scale, orbit_array
from .lattice import (
    Lattice,
    LatticeKind,
    ToleranceConfig,
    ZeroParameter,
    _check_scale,
    _cmul,
    _complex,
    _crit_sph_dist_split,
    _crit_starts,
    _divisor,
    _half_periods_split,
    _kind_data,
    _lattice_crit_dist,
    _reduced_split,
    _scales_ok,
    _sph_dist_to_inf_split,
    _split_scales,
    _wp_pair_split,
    make_lattice,
    wp_array,
)

__all__ = [
    "PrepoleRoot",
    "CheckReport",
    "Violation",
    "ViolationKind",
    "DensityRow",
    "PrematurePole",
    "DiscTouchesU",
    "pole_location",
    "prepole_residual",
    "find_prepole_params",
    "find_prepole_params_batch",
    "misiurewicz_check",
    "density_scan",
    "covering_steps",
]

# grid minima of |g| above this are noise, not root candidates
SEED_THRESHOLD = 10.0

# certification contours evaluated together per round, across every (j, k)
# of a batch; finished contours are replaced from the queue
LIVE_CONTOURS = 64

# density samples whose critical orbits run in one lockstep batch, enough
# for a radius at the CLI's 2,000 samples; a batch's peak memory is about
# 0.93 KiB per sample (tracemalloc, criterion 6), so it stays bounded
BLOCK_SIZE = 2048


class PrematurePole(ArithmeticError):
    """The critical orbit hit a pole before the requested iterate."""

    def __init__(self, step: int):
        super().__init__(f"orbit hit a pole at step {step}")
        self.step = step


class DiscTouchesU(ValueError):
    """The starting disc intersects the delta-neighborhood it must cover."""


class ViolationKind(Enum):
    NEAR_CRITICAL = "NearCritical"
    NEAR_INFINITY = "NearInfinity"
    POLE_HIT = "PoleHit"


@dataclass(frozen=True)
class Violation:
    step: int
    kind: ViolationKind


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    iterations: int
    first_violation: Optional[Violation]


@dataclass(frozen=True)
class PrepoleRoot:
    lambda_star: complex
    n: int
    j: int
    k: int
    residual: float
    isolation_radius: float


@dataclass(frozen=True)
class DensityRow:
    radius: float
    n_samples: int
    fail_fraction: float
    seed: int


def pole_location(kind: LatticeKind, lam: complex, j: int, k: int) -> complex:
    """The pole p_{j,k} = j*lambda + k*tau*lambda of the family member."""
    tau = _kind_data(kind).tau
    return j * lam + k * tau * lam


def _orbit_values(kind: LatticeKind, lams: np.ndarray, n: int, cfg: ToleranceConfig) -> OrbitBatch:
    """f^n_lambda(e_lambda) for every scale of lams, as the last point of
    each orbit of the batch (tail 1); an orbit captured by a pole before
    step n ends in PoleHit there.  The critical values and orbits have the
    bits of make_lattice's e1 iterated by scalar wp.  Raises ZeroParameter,
    before any scale is squared, when one is a scale make_lattice refuses."""
    if not _scales_ok(lams).all():
        raise ZeroParameter("lattice scale must be nonzero and finite")
    return orbit_array(kind, lams, _crit_starts(kind, lams, 1, cfg), n, cfg, escape=False, tail=1)


def prepole_residual(
    kind: LatticeKind, lam: complex, n: int, j: int, k: int, cfg: ToleranceConfig
) -> complex:
    """g(lambda) = f^n_lambda(e_lambda) - p_{j,k}(lambda); raises
    PrematurePole when the orbit is captured before step n."""
    batch = _orbit_values(kind, np.array([_check_scale(lam)]), n, cfg)
    if batch.status[0] == _POLE:
        raise PrematurePole(int(batch.step[0]))
    return complex(batch.ring[0, 0]) - pole_location(kind, lam, j, k)


# ---------------------------------------------------------------------------
# root finding


@lru_cache(maxsize=None)
def _unit_lattice(kind: LatticeKind, cfg: ToleranceConfig) -> Lattice:
    """The normalized (lambda = 1) lattice every _critical_orbit call works on."""
    return make_lattice(kind, 1.0 + 0j, cfg)


def _pole_coef(kind: LatticeKind, j: int, k: int) -> complex:
    """j + k*tau, the coefficient of the target pole p_{j,k}(lambda)."""
    return j + k * _kind_data(kind).tau


def _critical_orbit(
    kind: LatticeKind, n: int, lam: np.ndarray, cfg: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray]:
    """f^n_lambda(e_lambda) over an array of parameters, and the mask of the
    orbits still alive, vectorized through the normalized lattice.

    f_lambda(z) = lambda^-2 * wp_norm(z / lambda), so the whole array is
    advanced with one wp_array call per step.  Orbits that die early (pole
    capture, lambda = 0) are masked out.  The orbit does not depend on the
    target pole, so one call serves every (j, k).
    """
    latn = _unit_lattice(kind, cfg)
    e1n = latn.crit_values[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam2 = lam * lam
        alive = np.isfinite(lam) & (lam != 0)
        w = np.where(alive, e1n / np.where(alive, lam2, 1.0), 0.0)
        for _ in range(n):
            vals, poles = wp_array(np.where(alive, w / np.where(alive, lam, 1.0), 2.0 + 2.0j), latn, cfg)
            alive &= ~poles
            w = np.where(alive, vals / lam2, w)
    return w, alive


def _minus_pole(w: np.ndarray, alive: np.ndarray, coef, lam: np.ndarray) -> np.ndarray:
    """g = w - coef*lambda, NaN where the orbit died; coef is one j + k*tau
    or one per element."""
    with np.errstate(invalid="ignore"):
        g = w - coef * lam
    return np.where(alive, g, complex(np.nan, np.nan))


def _g_batch(kind: LatticeKind, n: int, coef, lam: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """g over an array of parameters, each element with its own pole
    coefficient coef (or one for all); entries whose orbit dies early are
    NaN.  An element's value does not depend on the rest of the array."""
    lam = np.asarray(lam, dtype=complex)
    w, alive = _critical_orbit(kind, n, lam, cfg)
    return _minus_pole(w, alive, coef, lam)


def _local_minima(absg: np.ndarray) -> list[tuple[int, int]]:
    """8-neighbor local minima below the seed threshold.

    Ties count as minima (symmetric grids straddle the real axis with equal
    rows); duplicate seeds collapse in the dedup pass after polishing.
    """
    rows, cols = absg.shape
    inner = absg[1:-1, 1:-1]
    mask = inner < SEED_THRESHOLD
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            mask &= inner <= absg[1 + dr : rows - 1 + dr, 1 + dc : cols - 1 + dc]
    return [(int(r) + 1, int(c) + 1) for r, c in zip(*np.nonzero(mask))]


def _polish_batch(
    kind: LatticeKind,
    n: int,
    seeds: Sequence[complex],
    coef: Sequence[complex],
    fd_step: float,
    cfg: ToleranceConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Newton on g for every seed in lockstep, central FD derivative; seed i
    solves for the pole coefficient coef[i].  Returns the final parameters
    and the mask of converged seeds.

    A seed retires once its residual clears newton_tol; it dies when the
    derivative degenerates or its orbit hits a pole (NaN from the array
    evaluator is absorbing).  Unconverged seeds after 60 rounds are dropped.
    Each round evaluates only the seeds still active, g at lambda and at
    lambda +- fd_step in one array.
    """
    lam = np.asarray(seeds, dtype=complex)
    coef = np.asarray(coef, dtype=complex)
    done = np.zeros(lam.shape, dtype=bool)
    act = np.arange(lam.size)
    for _ in range(60):
        if not act.size:
            break
        la, ca = lam[act], coef[act]
        g = _g_batch(
            kind, n, np.tile(ca, 3), np.concatenate((la, la + fd_step, la - fd_step)), cfg
        )
        g0, gplus, gminus = g[: act.size], g[act.size : 2 * act.size], g[2 * act.size :]
        absg = np.abs(g0)
        finite = np.isfinite(absg)
        newly = finite & (absg < cfg.newton_tol)
        done[act[newly]] = True
        gp = (gplus - gminus) / (2.0 * fd_step)
        keep = finite & ~newly & np.isfinite(gp) & (gp != 0)
        act = act[keep]
        lam[act] = la[keep] - g0[keep] / gp[keep]
    return lam, done


def _nearest_dists(pts: Sequence[complex]) -> list[float]:
    """Nearest-neighbor distance per point via a sorted real-axis sweep."""
    order = sorted(range(len(pts)), key=lambda i: (pts[i].real, pts[i].imag))
    out = [math.inf] * len(pts)
    for pos, i in enumerate(order):
        best = out[i]
        for nxt in order[pos + 1 :]:
            dre = pts[nxt].real - pts[i].real
            if dre >= best:
                break
            d = abs(pts[nxt] - pts[i])
            if d < best:
                best = d
            if d < out[nxt]:
                out[nxt] = d
        out[i] = best
    return out


_RING = 1024
_RING_START = 64
_BAD_TURN = math.pi / 2.0


@lru_cache(maxsize=None)
def _unit_ring() -> np.ndarray:
    """The finest contour, 1024 points on the unit circle, read-only.

    Level m (64 ... 1024 points) takes every (1024 // m)-th point.  For a
    power of two s, 2*pi*(s*p)/(s*m) rounds exactly as 2*pi*p/m, so these are
    the bits a fresh m-point sampling gives.
    """
    ring = np.exp(1j * (2.0 * math.pi * np.arange(_RING) / _RING))
    ring.flags.writeable = False
    return ring


@lru_cache(maxsize=None)
def _level_masks() -> np.ndarray:
    """Row s flags the ring positions of the level of stride s; row 0, a
    free row's, flags none."""
    s = np.arange(_RING // _RING_START + 1)[:, None]
    return (np.arange(_RING) % np.maximum(s, 1) == 0) & (s > 0)


class _Slots:
    """The live certification contours, one row each.

    Row r certifies root index[r] of (j, k) group group[r], whose pole
    coefficient is coef[r], on the circle center[r] + radius[r] * ring.  Its
    level samples every stride[r]-th of the 1024 ring positions (strides 16
    ... 1 for 64 ... 1024 points); a free row has stride 0.  vals and known
    hold a row's samples by ring position, so a sample keeps its place at
    every finer level.  A row with chase[r] set evaluates only its target
    positions, the midpoints of the previous level's bad arcs; any other row
    fills in its level and checks it in full.
    """

    def __init__(self, size: int, floor: float):
        self.floor = floor
        self.group, self.index, self.stride = np.zeros((3, size), dtype=np.int64)
        self.coef, self.center = np.zeros((2, size), dtype=complex)
        self.radius = np.zeros(size)
        self.chase = np.zeros(size, dtype=bool)
        self.vals = np.zeros((size, _RING), dtype=complex)
        self.known, self.target = np.zeros((2, size, _RING), dtype=bool)

    def refill(self, queue: Iterator[tuple]) -> None:
        """Start the next contours of the queue in the free rows, in order."""
        free = (self.stride == 0).nonzero()[0]
        new = list(islice(queue, free.size))
        if new:
            rows = free[: len(new)]
            group, index, coef, center, radius = zip(*new)
            self.group[rows], self.index[rows], self.coef[rows] = group, index, coef
            self.center[rows], self.radius[rows] = center, radius
            self._restart(rows)

    def _restart(self, rows: np.ndarray) -> None:
        self.stride[rows] = _RING // _RING_START
        self.chase[rows] = False
        self.known[rows] = False

    def wanted(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, ring positions) of the samples every row needs next."""
        want = _level_masks()[self.stride]
        want &= ~self.known
        want[self.chase] = self.target[self.chase]
        return np.divmod(np.flatnonzero(want), _RING)

    def settle(self, rows: np.ndarray, pos: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Store the samples g at (rows, pos) and act on every row at once;
        returns the rows certified.  Rows dropped at the radius floor or
        certified are freed."""
        vals, stride = self.vals, self.stride
        vals[rows, pos] = g
        self.known[rows, pos] = True
        halve, certify, escalate = np.zeros((3, stride.size), dtype=bool)
        # chase rows: the arcs (p - s, p) and (p, p + s) around each midpoint
        # p, a NaN or zero halving the radius
        chased = self.chase[rows]
        cr, cp, cg = rows[chased], pos[chased], g[chased]
        s = stride[cr]
        self.target[cr, cp] = False
        self.chase[cr] = False
        halve[cr[np.isnan(cg) | (cg == 0)]] = True
        with np.errstate(divide="ignore", invalid="ignore"):
            left = np.abs(np.angle(cg / vals[cr, cp - s])) >= _BAD_TURN
            right = np.abs(np.angle(vals[cr, (cp + s) % _RING] / cg)) >= _BAD_TURN
        bad_rows = [cr[left], cr[right]]
        bad_mids = [cp[left] - s[left] // 2, cp[right] + s[right] // 2]
        escalate[np.concatenate(bad_rows)] = True
        escalate &= ~halve
        # full checks, one (rows, m) array per level, of the rows whose level
        # is now complete
        full = (stride > 0) & ~self.chase & ~halve & ~escalate
        for step in (16, 8, 4, 2, 1):
            at = (full & (stride == step)).nonzero()[0]
            at = at[self.known[:, ::step][at].all(axis=1)]
            if not at.size:
                continue
            level = vals[:, ::step][at]
            spoiled = (np.isnan(level) | (level == 0)).any(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                inc = np.angle(np.concatenate((level[:, 1:], level[:, :1]), axis=1) / level)
            bad = (np.abs(inc) >= _BAD_TURN) & ~spoiled[:, None]
            turned = bad.any(axis=1)
            w = inc.sum(axis=1) / (2.0 * math.pi)
            # a winding sum within 0.25 of an integer, and that integer 1
            certify[at] = ~spoiled & ~turned & (np.abs(w - 1.0) <= 0.25)
            halve[at] = ~certify[at] & ~turned
            escalate[at] = turned
            arc_row, arc = bad.nonzero()
            bad_rows.append(at[arc_row])
            bad_mids.append(arc * step + step // 2)
        # a level of 1024 points cannot escalate: it halves instead
        halve |= escalate & (stride == 1)
        escalate &= stride > 1
        bad_rows, bad_mids = np.concatenate(bad_rows), np.concatenate(bad_mids)
        keep = escalate[bad_rows]
        self.target[bad_rows[keep], bad_mids[keep]] = True
        stride[escalate] //= 2
        self.chase[escalate] = True
        halved = halve.nonzero()[0]
        self.radius[halved] *= 0.5
        self._restart(halved)
        stride[halved[self.radius[halved] < self.floor]] = 0
        stride[certify] = 0
        return certify.nonzero()[0]


def _certify_roots(
    kind: LatticeKind,
    n: int,
    pairs: Sequence[tuple[int, int]],
    root_lists: Sequence[Sequence[complex]],
    cfg: ToleranceConfig,
) -> list[dict[int, float]]:
    """Certified isolation radius per root index, one dict per (j, k) group.

    Each contour follows the plain argument-principle rule that samples
    each level afresh (kept in the tests as the oracle behind criterion 3's
    spot-check): a contour with an arc turning by at least pi/2 escalates
    its sampling from 64 up to 1024 points, any other failure halves the
    radius and resets the sampling, and a winding count of one certifies.
    Roots that reach the radius floor uncertified are dropped.

    The decisions are the same at every (root, radius, level) while g is
    evaluated far less often:

    - Nested grid.  Level m samples every (1024/m)-th point of one cached
      1024-point circle, with the same bits as sampling m points afresh, so
      a sample once taken is reused at every finer level.
    - Bad-arc chase.  One bad arc settles a level, so escalating evaluates
      only the midpoints of the known bad arcs.  A bad half escalates again
      (or halves the radius at 1024 points) and the chase goes on; when
      none is bad the rest of the level is filled in and checked in full.
      A NaN or zero met on the way halves the radius: being on every finer
      level too, it would halve the full ladder as well.

    Up to LIVE_CONTOURS contours of any groups are the rows of one set of
    arrays (_Slots).  A round evaluates every row's samples in one g batch
    and settles all rows at once, in array operations whose count does not
    grow with the rows; a finished row is refilled from the queue.
    """
    floor = max(10.0 * cfg.newton_tol, 1e-10)
    # the queue as (group, index, coef, center, radius): every root of every
    # group in order, each starting just inside its nearest-neighbor distance
    # in its group (capped at |root| / 4 so the circle stays clear of 0)
    queue = (
        (group, i, _pole_coef(kind, j, k), z, max(min(0.25 * abs(z), 0.75 * nn), floor))
        for group, ((j, k), roots) in enumerate(zip(pairs, root_lists))
        for i, (z, nn) in enumerate(zip(roots, _nearest_dists(roots)))
    )
    slots = _Slots(LIVE_CONTOURS, floor)
    slots.refill(queue)
    out: list[dict[int, float]] = [{} for _ in pairs]
    while slots.stride.any():
        rows, pos = slots.wanted()
        pts = slots.center[rows] + slots.radius[rows] * _unit_ring()[pos]
        g = _g_batch(kind, n, slots.coef[rows], pts, cfg)
        for r in slots.settle(rows, pos, g).tolist():
            out[int(slots.group[r])][int(slots.index[r])] = float(slots.radius[r])
        slots.refill(queue)
    return out


def _dedup(polished: list[complex], dup_tol: float) -> list[complex]:
    """Roots sorted by (re, im), each kept unless within dup_tol of one
    already kept."""
    polished = sorted(polished, key=lambda z: (z.real, z.imag))
    dedup: list[complex] = []
    for z in polished:
        dup = False
        for q in reversed(dedup):
            if z.real - q.real > dup_tol:
                break
            if abs(z - q) <= dup_tol:
                dup = True
                break
        if not dup:
            dedup.append(z)
    return dedup


def find_prepole_params_batch(
    kind: LatticeKind,
    n: int,
    pairs: Sequence[tuple[int, int]],
    region: tuple[float, float, float, float],
    grid: int,
    cfg: ToleranceConfig,
) -> list[list[PrepoleRoot]]:
    """All certified roots of the (n, j, k) prepole equations in a rectangle,
    one list per (j, k) of pairs, in order.

    region is (re_min, re_max, im_min, im_max) and must exclude lambda = 0.
    Grid points that are local minima of |g| under a coarse threshold seed a
    Newton polish; converged roots are deduplicated and kept only when an
    argument-principle circle around them counts exactly one root.

    g_{n,j,k}(lambda) = f^n(e_lambda) - (j + k*tau)*lambda, and the orbit
    term does not depend on (j, k): the seeding grid is iterated once for
    all pairs, the seeds of every pair are polished in one lockstep batch,
    and the certification contours of every pair share one queue.  Each
    pair's roots are those find_prepole_params finds for it alone.
    """
    re_min, re_max, im_min, im_max = region
    if grid < 8:
        raise ValueError("grid must be at least 8")
    if not (re_min < re_max and im_min < im_max):
        raise ValueError("region must have re_min < re_max and im_min < im_max")
    if n < 0:
        raise ValueError("n must be non-negative")
    res = np.linspace(re_min, re_max, grid)
    ims = np.linspace(im_min, im_max, grid)
    lam_grid = res[None, :] + 1j * ims[:, None]
    w, alive = _critical_orbit(kind, n, lam_grid, cfg)
    coefs = [_pole_coef(kind, j, k) for j, k in pairs]
    seeds: list[complex] = []
    seed_group: list[int] = []
    for group, coef in enumerate(coefs):
        g = _minus_pole(w, alive, coef, lam_grid)
        absg = np.where(np.isnan(g), np.inf, np.abs(g))
        for r, c in _local_minima(absg):
            seeds.append(complex(lam_grid[r, c]))
            seed_group.append(group)

    diameter = math.hypot(re_max - re_min, im_max - im_min)
    lam, done = _polish_batch(
        kind, n, seeds, [coefs[p] for p in seed_group], 1e-7 * diameter, cfg
    )
    polished: list[list[complex]] = [[] for _ in pairs]
    for z, group, ok in zip(lam, seed_group, done):
        z = complex(z)
        if ok and re_min <= z.real <= re_max and im_min <= z.imag <= im_max:
            polished[group].append(z)

    # the residual re-check of every deduplicated root, one orbit batch
    deduped = [_dedup(zs, 10.0 * cfg.newton_tol) for zs in polished]
    batch = _orbit_values(kind, np.array([z for zs in deduped for z in zs], dtype=complex), n, cfg)
    status = batch.status.tolist()
    ends = batch.ring[:, 0].tolist()
    kept: list[list[tuple[complex, float]]] = []
    pos = 0
    for (j, k), zs in zip(pairs, deduped):
        kept.append([])
        for i, z in enumerate(zs, start=pos):
            if status[i] == _POLE:
                continue
            res_val = abs(ends[i] - pole_location(kind, z, j, k))
            if res_val < cfg.newton_tol:
                kept[-1].append((z, res_val))
        pos += len(zs)

    radii = _certify_roots(kind, n, pairs, [[z for z, _ in ks] for ks in kept], cfg)
    return [
        [
            PrepoleRoot(
                lambda_star=z, n=n, j=j, k=k, residual=res_val, isolation_radius=rad[i]
            )
            for i, (z, res_val) in enumerate(ks)
            if i in rad
        ]
        for (j, k), ks, rad in zip(pairs, kept, radii)
    ]


def find_prepole_params(
    kind: LatticeKind,
    n: int,
    j: int,
    k: int,
    region: tuple[float, float, float, float],
    grid: int,
    cfg: ToleranceConfig,
) -> list[PrepoleRoot]:
    """All certified roots of the (n, j, k) prepole equation in a rectangle:
    the one-pair case of find_prepole_params_batch."""
    return find_prepole_params_batch(kind, n, [(j, k)], region, grid, cfg)[0]


# ---------------------------------------------------------------------------
# separation check and density experiment


# violation codes of _violation_codes, indices into _VIOLATION_KINDS
_VIOLATION_KINDS = (
    None, ViolationKind.NEAR_CRITICAL, ViolationKind.NEAR_INFINITY, ViolationKind.POLE_HIT
)
_NEAR_CRITICAL, _NEAR_INFINITY, _POLE_HIT = 1, 2, 3


def _violation_codes(
    kind: LatticeKind, lams: np.ndarray, delta: float, M: int, cfg: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray]:
    """(step, code) of the first violation along the non-pole critical
    orbits, for every scale of lams (each one make_lattice accepts), code 0
    where there is none; all orbits run in one lockstep orbit_array batch
    with no Lattice per parameter.

    Pole capture is a violation at any step including 0; proximity checks
    apply to iterates only (step >= 1).  A value chordally close to infinity
    is also chordally close to far-out critical translates, so the infinity
    label takes precedence; exact capture outranks both.  An orbit ends at
    its first violation.  One that escapes or runs out of steps is tested at
    its last point, and the earliest violation of a parameter's orbits wins,
    the first orbit on a tie.
    """
    lams = np.asarray(lams, dtype=complex).reshape(-1)
    # the orbits of e1 (and e2, e3 for triangular) one after the other
    per = _kind_data(kind).crit_orbits
    starts = _crit_starts(kind, lams, per, cfg)
    lam = _split_scales(lams)[0]
    half = _half_periods_split(kind, lam)
    consts = np.tile(np.concatenate([lam, half.reshape(6, -1)]), per)
    orbit_lams = np.tile(lams, per)

    def near_codes(idx: np.ndarray, zr: np.ndarray, zi: np.ndarray) -> np.ndarray:
        """The proximity code of the point zr + i*zi of each orbit idx, the
        infinity label before the crit one."""
        c = consts[:, idx]
        d_inf = _sph_dist_to_inf_split(zr, zi)
        d_crit = _crit_sph_dist_split(kind, zr, zi, c[:2], c[2:].reshape(3, 2, -1))
        return np.where(d_inf < delta, _NEAR_INFINITY, np.where(d_crit < delta, _NEAR_CRITICAL, 0))

    near = np.zeros(orbit_lams.size, dtype=np.int64)

    def stop(step: int, idx: np.ndarray, zr: np.ndarray, zi: np.ndarray) -> np.ndarray:
        if step == 0:
            return np.zeros(idx.size, dtype=bool)
        near[idx] = near_codes(idx, zr, zi)
        return near[idx] != 0

    batch = orbit_array(kind, orbit_lams, starts, M, cfg, tail=1, stop=stop)
    step = np.where(batch.status == _STOPPED, batch.step, batch.size - 1)
    code = np.where(batch.status == _POLE, _POLE_HIT, near)
    # an orbit that escaped or ran out of steps is tested at its last point
    last = ((batch.status != _POLE) & (batch.status != _STOPPED) & (step >= 1)).nonzero()[0]
    code[last] = near_codes(last, batch.ring.real[last, 0], batch.ring.imag[last, 0])
    step = np.where(code != 0, step, M + 1).reshape(per, -1)
    first = step.argmin(axis=0)
    cols = np.arange(lams.size)
    return step[first, cols], code.reshape(per, -1)[first, cols]


def misiurewicz_check(
    kind: LatticeKind, lam: complex, delta: float, M: int, cfg: ToleranceConfig
) -> CheckReport:
    """Separation check at resolution (delta, M) along the critical orbits.

    Passes when the first M iterates of every non-pole critical value keep
    chordal distance at least delta from the critical points and from
    infinity and never land on a pole outright.  The one-parameter case of
    _violation_codes; raises ZeroParameter for lam = 0.
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    step, code = _violation_codes(kind, np.array([_check_scale(lam)]), delta, M, cfg)
    if code[0] == 0:
        return CheckReport(passed=True, iterations=M, first_violation=None)
    violation = Violation(step=int(step[0]), kind=_VIOLATION_KINDS[code[0]])
    return CheckReport(passed=False, iterations=violation.step + 1, first_violation=violation)


def _density_params(lambda0: complex, r: float, seed: int, ri: int, n_samples: int) -> np.ndarray:
    """lambda0 + r * rng.unit_disc_point(seed, ri, i) for i < n_samples,
    drawn in one rng.unit_disc_points call and formed on split float arrays
    with CPython's bits: r * u is complex(r, 0.0) * u."""
    lambda0, r = complex(lambda0), float(r)
    ux, uy = rng.unit_disc_points((seed, ri), range(n_samples))
    return _complex(lambda0.real + (r * ux - 0.0 * uy), lambda0.imag + (r * uy + 0.0 * ux))


def density_scan(
    kind: LatticeKind,
    lambda0: complex,
    radii: Sequence[float],
    n_samples: int,
    delta: float,
    M: int,
    seed: int,
    cfg: Optional[ToleranceConfig] = None,
) -> list[DensityRow]:
    """Fraction of parameters failing the separation check in shrinking balls.

    Sample i of radius index ri is lambda0 + r * unit_disc_point(seed, ri, i),
    a counter-based substream, so rows are reproducible independently of
    evaluation order.  Parameters that make_lattice refuses count as
    failures: lambda = 0, where the family is undefined, and scales too
    small or too large to carry.  The samples of a radius are checked in
    blocks of BLOCK_SIZE, each one _violation_codes batch, and the draws
    of a radius are one rng.unit_disc_points call: nothing runs per sample
    in Python but the masking of its key.
    """
    if cfg is None:
        cfg = ToleranceConfig()
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if not all(math.isfinite(r) and r > 0 for r in radii):
        raise ValueError("radii must be finite and positive")
    if M < 1:
        raise ValueError("M must be at least 1")
    if math.isnan(delta) or delta < 0:
        raise ValueError("delta must be non-negative")
    rows = []
    for ri, r in enumerate(radii):
        lams = _density_params(lambda0, r, seed, ri, n_samples)
        lams = lams[_scales_ok(lams)]
        fails = n_samples - lams.size
        for at in range(0, lams.size, BLOCK_SIZE):
            _, code = _violation_codes(kind, lams[at : at + BLOCK_SIZE], delta, M, cfg)
            fails += int(np.count_nonzero(code))
        rows.append(
            DensityRow(
                radius=float(r),
                n_samples=n_samples,
                fail_fraction=fails / n_samples,
                seed=seed,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# covering count


# balls per coverage test of covering_steps: its (targets x balls) distance
# matrix is built a chunk of balls at a time
_COVER_CHUNK = 256


def covering_steps(
    lat: Lattice,
    center: complex,
    d: float,
    delta: float,
    maxN: int,
    grid: int,
    cfg: Optional[ToleranceConfig] = None,
) -> Optional[int]:
    """Least m <= maxN such that the m-th image of the disc B(center, d)
    covers the delta-neighborhood of the singular set, or None.

    The disc is discretized into grid cells carried forward as balls whose
    radii are dilated by the flat derivative along the center orbit, all of
    them in one split-array pass per step.  A cell ball that swallows a pole
    is promoted to a neighborhood of infinity, and a neighborhood of
    infinity contains complete fundamental cells, whose image is the whole
    sphere one step later.  Coverage is tested against a discretization of
    U_delta in one fundamental cell (critical-point balls), the chordal
    circle bounding the ball at infinity, and infinity itself.
    """
    if cfg is None:
        cfg = ToleranceConfig()
    if grid < 64:
        raise ValueError("grid must be at least 64")
    if not (math.isfinite(d) and d > 0):
        raise ValueError("disc radius must be finite and positive")
    if math.isnan(delta) or delta < 0:
        raise ValueError("delta must be non-negative")

    # cell balls tiling the disc, row by row, as split centres and radii
    h = 2.0 * d / grid
    offsets = -d + (np.arange(grid) + 0.5) * h
    center = complex(center)
    wr = np.tile(center.real + offsets, grid)
    wi = np.repeat(center.imag + offsets, grid)
    inside = np.hypot(wr - center.real, wi - center.imag) <= d
    wr, wi = wr[inside], wi[inside]
    rho = np.full(wr.size, h * math.sqrt(0.5))

    # precondition: the disc avoids U_delta (tested on the discretization);
    # a cell whose |z|^2 overflows is at distance 0 from infinity
    with np.errstate(over="ignore"):
        touch = (_sph_dist_to_inf_split(wr, wi) < delta) | (_lattice_crit_dist(lat, wr, wi) < delta)
    if np.any(touch):
        raise DiscTouchesU("disc discretization meets the delta-neighborhood")

    # targets: critical-point balls inside one fundamental cell, the chordal
    # boundary circle of the ball at infinity, and infinity itself
    targets = None
    if delta > 0:
        x = np.arange(grid) / grid
        ar, ai = _cmul(x, 0.0, lat.gen1.real, lat.gen1.imag)
        br, bi = _cmul(x, 0.0, lat.gen2.real, lat.gen2.imag)
        zr = (ar + br[:, None]).ravel()
        zi = (ai + bi[:, None]).ravel()
        near = _lattice_crit_dist(lat, zr, zi) <= delta
        ring_r = math.sqrt(max(4.0 / (delta * delta) - 1.0, 0.0))
        angles = [2.0 * math.pi * i / 64.0 for i in range(64)] if delta < 2.0 else []
        ring = [ring_r * complex(math.cos(t), math.sin(t)) for t in angles]
        targets = np.concatenate([_complex(zr[near], zi[near]), lat.half_periods, ring])
        tr, ti = targets.real, targets.imag
        t_inf = _sph_dist_to_inf_split(tr, ti)

    bound_part = 10.0 * max(abs(v) for v in lat.crit_values) + 1.0
    esc = escape_scale(lat.lam, cfg.pole_eps)
    lam2 = lat.lam * lat.lam
    divisors = [_divisor(z.real, z.imag) for z in (lat.lam, lam2, lam2 * lat.lam)]

    # the live balls, and whether one of them reached infinity last step: a
    # neighborhood of infinity contains complete fundamental cells, whose
    # image is the whole sphere
    reached = False
    for m in range(1, maxN + 1):
        if reached:
            return m
        with np.errstate(invalid="ignore", over="ignore"):
            u0r, u0i, _, _, _ = _reduced_split(wr, wi, divisors[0], lat.kind, cfg.pole_eps)
        pd = np.hypot(u0r, u0i) * abs(lat.lam)
        # a ball that swallows a pole keeps clearance rho - pd from it; one
        # that escapes is dropped; one whose centre hits a pole keeps rho
        swallow = pd < rho
        step = ~swallow & ~(np.hypot(wr, wi) > esc)
        vr, vi, dvr, dvi, pole = _wp_pair_split(
            wr[step], wi[step], *divisors, lat.kind, lat.n_terms, cfg.pole_eps
        )
        s = np.concatenate([rho[swallow] - pd[swallow], rho[step][pole]])
        rho = rho[step][~pole] * np.hypot(dvr[~pole], dvi[~pole])
        wr, wi = vr[~pole], vi[~pole]
        if not s.size:
            continue
        reached = True
        s = np.maximum(s, cfg.pole_eps)
        with np.errstate(divide="ignore", over="ignore"):
            big = 1.0 / (s * s) + bound_part
            inf_radius = (2.0 / np.sqrt(1.0 + big * big)).max()
        if not inf_radius > 0.0:
            continue
        if targets is None:
            return m
        covered = t_inf < inf_radius
        # the balls in chunks, each tested against the targets still open
        for at in range(0, wr.size, _COVER_CHUNK):
            open_ = np.flatnonzero(~covered)
            if not open_.size:
                break
            chunk = slice(at, at + _COVER_CHUNK)
            dist = np.hypot(tr[open_, None] - wr[None, chunk], ti[open_, None] - wi[None, chunk])
            covered[open_] = np.any(dist <= rho[None, chunk], axis=1)
        if covered.all():
            return m
    return None
