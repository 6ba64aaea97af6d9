"""Orbit dynamics of f = wp on a fixed lattice.

Iteration traces, attracting-cycle detection with Newton refinement, and
classification of a parameter by the fate of its critical orbits.

The triangular family carries a rotational symmetry: with zeta = e^(2*pi*i/3),
f^n(e2) = zeta * f^n(e1) and f^n(e3) = zeta^2 * f^n(e1), and the derivative of
f takes the same value along the three orbits (zeta^3 = 1 cancels the cubic
scaling of wp').  A triangular parameter therefore has either one
rotation-invariant attracting cycle or three rotated copies sharing one
multiplier.  The square family is simpler: e2 = -e1 lands on e1's orbit after
one step because f is even, and e3 = 0 is itself a pole, so only e1 needs
iterating and the cycle count is always one.

Escape to infinity is a pole phenomenon here: wp is periodic, so an orbit
value can only be enormous because the previous point sat close to a lattice
point.  The iterate loop refuses points beyond the scale that pole_eps
permits and reports them as EscapedSphericalBall rather than overflowing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .lattice import (
    Lattice,
    LatticeKind,
    ToleranceConfig,
    ZeroParameter,
    _complex,
    _crit_values_split,
    _divisor,
    _half_periods_split,
    _kind_data,
    _scales_ok,
    _split_scales,
    _terms_for_tol,
    _wp_split,
    make_lattice,
    sph_deriv,
    sph_dist,
    wp_pair,
)
from .lattice import PoleHit as PoleError

__all__ = [
    "BudgetExhausted",
    "PoleHit",
    "EscapedSphericalBall",
    "Stopped",
    "OrbitTrace",
    "OrbitBatch",
    "Cycle",
    "AttractingCycles",
    "AllCriticalPrepole",
    "Indeterminate",
    "NewtonDivergence",
    "DEFAULT_BUDGET",
    "DEFAULT_MAX_PERIOD",
    "CYCLE_DETECTION_TOL",
    "escape_scale",
    "iterate",
    "orbit_array",
    "find_cycle",
    "classify",
    "classify_batch",
]

DEFAULT_BUDGET = 2000
DEFAULT_MAX_PERIOD = 64
CYCLE_DETECTION_TOL = 1e-6
# |multiplier| must clear 1 by this much before a cycle counts as attracting;
# parabolic and rotation-domain parameters stay Indeterminate.
ATTRACTING_MARGIN = 1e-8
# parameters per tail chunk of classify_batch: the ring of DEFAULT_MAX_PERIOD
# + 1 points per orbit is the memory a wide block would otherwise grow by
TAIL_CHUNK = 1024


@dataclass(frozen=True)
class BudgetExhausted:
    pass


@dataclass(frozen=True)
class PoleHit:
    """points[step] lies within pole_eps of the lattice point m*gen1 + n*gen2."""

    step: int
    m: int
    n: int


@dataclass(frozen=True)
class EscapedSphericalBall:
    """points[step] exceeded the modulus any non-refused evaluation can produce."""

    step: int


@dataclass(frozen=True)
class Stopped:
    """The caller's stop(step, points[step]) returned True; the orbit ends
    at points[step + 1]."""

    step: int


Outcome = Union[BudgetExhausted, PoleHit, EscapedSphericalBall, Stopped]


@dataclass(frozen=True)
class OrbitTrace:
    """derivs[k] is the flat derivative wp'(points[k]) of the step
    points[k] -> points[k+1]."""

    start: complex
    points: tuple[complex, ...]
    derivs: tuple[complex, ...]
    outcome: Outcome

    @property
    def sph_derivs(self) -> tuple[float, ...]:
        """The spherical derivative factor of each recorded step."""
        pts = self.points
        return tuple(sph_deriv(d, pts[k], pts[k + 1]) for k, d in enumerate(self.derivs))


@dataclass(frozen=True)
class Cycle:
    period: int
    point: complex
    multiplier: complex


@dataclass(frozen=True)
class AttractingCycles:
    count: int
    cycle: Cycle


@dataclass(frozen=True)
class AllCriticalPrepole:
    steps: tuple[int, ...]


@dataclass(frozen=True)
class Indeterminate:
    iterations_used: int


Verdict = Union[AttractingCycles, AllCriticalPrepole, Indeterminate]


class NewtonDivergence(RuntimeError):
    """Cycle refinement failed to converge."""


def escape_scale(lam: complex, pole_eps: float) -> float:
    """Largest modulus wp on the lattice of scale lam can emit:
    1/(pole_eps*|lam|)^2 up to the series correction.  Anything bigger marks
    the orbit as numerically at infinity."""
    return 1.0 / (pole_eps * abs(lam)) ** 2


def iterate(
    lat: Lattice,
    z0: complex,
    max_iter: int,
    cfg: ToleranceConfig,
    stop: Optional[Callable[[int, complex], bool]] = None,
) -> OrbitTrace:
    """Forward orbit of z0 under wp, at most max_iter applications.

    points[0] = z0; derivs[k] is wp'(points[k]), the flat derivative of the
    step points[k] -> points[k+1].  Stops early at a pole hit or once a point
    exceeds the escape scale; those outcomes are encoded, never thrown.
    stop(step, z), when given, is asked about z = points[step] once wp has
    evaluated it without a pole hit; True ends the orbit with Stopped(step)
    after recording that step, so a pole hit at a step outranks a stop there.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    esc = escape_scale(lat.lam, cfg.pole_eps)
    z = complex(z0)
    points = [z]
    derivs: list[complex] = []
    outcome: Outcome = BudgetExhausted()
    for step in range(max_iter):
        if abs(z) > esc:
            outcome = EscapedSphericalBall(step=step)
            break
        try:
            val, dval = wp_pair(z, lat, cfg)
        except PoleError as hit:
            outcome = PoleHit(step=step, m=hit.m, n=hit.n)
            break
        derivs.append(dval)
        points.append(val)
        if stop is not None and stop(step, z):
            outcome = Stopped(step=step)
            break
        z = val
    else:
        if abs(z) > esc:
            outcome = EscapedSphericalBall(step=len(points) - 1)
    return OrbitTrace(
        start=complex(z0),
        points=tuple(points),
        derivs=tuple(derivs),
        outcome=outcome,
    )


_EXHAUSTED, _POLE, _ESCAPED, _STOPPED = 0, 1, 2, 3


@dataclass(frozen=True)
class OrbitBatch:
    """Outcomes of orbit_array, one entry per orbit, in input order.

    status holds _EXHAUSTED, _POLE, _ESCAPED or _STOPPED; step, m and n are
    the fields of the matching iterate outcome (m, n only for pole hits, as
    integer-valued floats).
    size is the length iterate's points would have; ring holds the last
    ring.shape[1] of them, point k of the orbit in column k % ring.shape[1].
    """

    starts: np.ndarray
    status: np.ndarray
    step: np.ndarray
    m: np.ndarray
    n: np.ndarray
    size: np.ndarray
    ring: np.ndarray

    def __len__(self) -> int:
        return len(self.status)

    def outcome(self, i: int) -> Outcome:
        code = self.status[i]
        if code == _POLE:
            return PoleHit(step=int(self.step[i]), m=int(self.m[i]), n=int(self.n[i]))
        if code == _ESCAPED:
            return EscapedSphericalBall(step=int(self.step[i]))
        if code == _STOPPED:
            return Stopped(step=int(self.step[i]))
        return BudgetExhausted()

    def trace(self, i: int) -> OrbitTrace:
        """The OrbitTrace iterate gives for orbit i, except that points holds
        only its kept tail and derivs is empty."""
        size = int(self.size[i])
        width = self.ring.shape[1]
        row = self.ring[i].tolist()
        cut = size % width if 0 < width < size else 0
        points = row[cut:size] + row[:cut]
        return OrbitTrace(
            start=complex(self.starts[i]),
            points=tuple(points),
            derivs=(),
            outcome=self.outcome(i),
        )


def orbit_array(
    kind: LatticeKind,
    lams: Sequence[complex],
    starts: Sequence[complex],
    max_iter: int,
    cfg: ToleranceConfig,
    *,
    escape: bool = True,
    tail: int = 0,
    stop: Optional[Callable[[int, np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None,
) -> OrbitBatch:
    """Orbit i is the iterate orbit of starts[i] on the lattice of kind and
    scale lams[i]; all advance in lockstep, up to max_iter steps, dropping
    out of the batch as they hit a pole or (with escape) pass the escape
    scale.  escape=False drops the escape test, as a bare loop over wp does.
    The last `tail` points of each orbit are kept in a ring buffer.

    stop(step, idx, re, im), when given, is asked about the points
    re + i*im of the orbits idx (batch indices) at the point where iterate
    asks its stop: once wp has evaluated them without a pole hit.  It
    returns a mask over idx; the orbits it flags end with Stopped(step).

    Raises ZeroParameter when a scale is one make_lattice refuses.  The
    truncation is make_lattice's, _terms_for_tol(kind, cfg.eval_tol).

    Element by element the result has the same bits as scalar iterate, for
    any batch: each element's arithmetic depends on nothing else in it.
    That holds only because the evaluation follows CPython's arithmetic
    rule: real and imaginary parts are separate float64 arrays, combined by
    the formulas CPython's complex type uses, namely the product
    (ac - bd, ad + bc), Smith's quotient dividing by denom, and hypot for
    abs.  numpy's complex ufuncs must not be used there: their products,
    quotients and moduli round differently from CPython's in a large share
    of cases (numpy multiplies by 1/denom, for one), and a single differing
    bit moves an orbit off the scalar reference.
    """
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    lam_c = np.asarray(lams, dtype=complex).reshape(-1)
    z0 = np.asarray(starts, dtype=complex).reshape(-1)
    count = z0.size
    if lam_c.size != count:
        raise ValueError("orbit_array needs one scale per start")
    if not _scales_ok(lam_c).all():
        raise ZeroParameter("lattice scale must be nonzero and finite")
    status = np.zeros(count, dtype=np.int64)  # _EXHAUSTED
    step = np.zeros(count, dtype=np.int64)
    # pole-hit m, n stay the floats _wp_split gives: at tiny scales they
    # pass 2**63, and int() in outcome() converts them exactly
    m = np.zeros(count)
    n = np.zeros(count)
    size = np.full(count, max_iter + 1, dtype=np.int64)
    ring = np.zeros((count, tail), dtype=complex)
    if count == 0:
        return OrbitBatch(z0, status, step, m, n, size, ring)

    n_terms = _terms_for_tol(kind, cfg.eval_tol)
    lam, lam2 = _split_scales(lam_c)
    if tail:
        ring[:, 0] = z0
    # the orbits still running: batch index, current point, per-orbit
    # constants (lat.lam and its square as _divisor rows, prepared once)
    live = {
        "idx": np.arange(count),
        "re": z0.real.copy(),
        "im": z0.imag.copy(),
        "lam": np.array(_divisor(*lam)),
        "lam2": np.array(_divisor(*lam2)),
    }
    if escape:
        live["esc"] = np.array([escape_scale(v, cfg.pole_eps) for v in lam_c.tolist()])

    def retire(mask: np.ndarray, code: int, at: int, hit_m=None, hit_n=None) -> None:
        nonlocal live
        idx = live["idx"][mask]
        if not idx.size:
            return
        status[idx] = code
        step[idx] = at
        # iterate records the point wp gave before it asks stop
        size[idx] = at + (2 if code == _STOPPED else 1)
        if hit_m is not None:
            m[idx] = hit_m[mask]
            n[idx] = hit_n[mask]
        live = {key: arr[..., ~mask] for key, arr in live.items()}

    def check_escape(at: int) -> None:
        retire(np.hypot(live["re"], live["im"]) > live["esc"], _ESCAPED, at)

    for s in range(max_iter):
        if escape:
            check_escape(s)
        if live["idx"].size == 0:
            break
        zr, zi = live["re"], live["im"]
        live["re"], live["im"], pole, hit_m, hit_n = _wp_split(
            zr, zi, live["lam"], live["lam2"], kind, n_terms, cfg.pole_eps
        )
        retire(pole, _POLE, s, hit_m, hit_n)
        if tail:
            col = (s + 1) % tail
            ring.real[live["idx"], col] = live["re"]
            ring.imag[live["idx"], col] = live["im"]
        if stop is not None and live["idx"].size:
            retire(np.asarray(stop(s, live["idx"], zr[~pole], zi[~pole]), dtype=bool), _STOPPED, s)
    else:
        if escape:
            check_escape(max_iter)
    return OrbitBatch(z0, status, step, m, n, size, ring)


def _refine(w: complex, p: int, lat: Lattice, cfg: ToleranceConfig) -> tuple[Cycle, list[complex]]:
    """Polish a periodic-point candidate by Newton on f^p(w) - w, walking with
    iterate, whose pole hit or escape (the last point too) raises
    NewtonDivergence; returns the cycle and its points.  The period is the
    smallest divisor d of p with |f^d(w) - w| < newton_tol (d = p qualifies)."""
    for _ in range(50):
        trace = iterate(lat, w, p, cfg)
        if not isinstance(trace.outcome, BudgetExhausted):
            raise NewtonDivergence("cycle refinement stepped onto a pole or past the escape scale")
        points = list(trace.points)
        mults = [1.0 + 0j]  # of f^k at w, by the chain rule
        for dv in trace.derivs:
            mults.append(mults[-1] * dv)
        g = points[p] - w
        if abs(g) < cfg.newton_tol:
            d = next(
                d for d in range(1, p + 1) if p % d == 0 and abs(points[d] - w) < cfg.newton_tol
            )
            return Cycle(period=d, point=w, multiplier=mults[d]), points[:d]
        dg = mults[p] - 1.0
        if dg == 0:
            raise NewtonDivergence("singular derivative in cycle refinement")
        w = w - g / dg
    raise NewtonDivergence("cycle refinement did not converge in 50 steps")


def _near_return(trace: OrbitTrace, tol: float, max_period: int) -> Optional[int]:
    """The smallest period p <= max_period with |z_last - z_{last-p}| < tol,
    or None; it needs no lattice."""
    pts = trace.points
    for p in range(1, min(max_period, len(pts) - 1) + 1):
        # not >=, rather than <: a NaN distance counts as a near-return
        if not abs(pts[-1] - pts[-1 - p]) >= tol:
            return p
    return None


def _near_returns(points: np.ndarray, last: int, tol: float) -> np.ndarray:
    """_near_return for each row of points, whose columns 0 .. last hold an
    orbit's last last + 1 points in order, with max_period at least last:
    the period, or 0 where there is none.  Each period is one array test
    over every row, the largest first, so the smallest near one is written
    last; np.hypot has the bits of CPython's complex abs."""
    period = np.zeros(len(points), dtype=np.int64)
    end = points[:, last]
    for p in range(last, 0, -1):
        diff = end - points[:, last - p]
        period[~(np.hypot(diff.real, diff.imag) >= tol)] = p
    return period


def find_cycle(
    trace: OrbitTrace,
    lat: Lattice,
    tol: float,
    max_period: int,
    cfg: Optional[ToleranceConfig] = None,
) -> Optional[Cycle]:
    """Detect a periodic cycle in the tail of a completed orbit.

    Scans periods 1..max_period for the smallest near-return at the last
    point, refines it by Newton, and reduces the period to the smallest
    divisor that still closes up.  Returns None for traces that ended in a
    pole hit or escape, or when no near-return exists.  Raises
    NewtonDivergence when polishing fails; callers treat that as no cycle.
    """
    if cfg is None:
        cfg = ToleranceConfig()
    if not isinstance(trace.outcome, BudgetExhausted):
        return None
    p = _near_return(trace, tol, max_period)
    if p is None:
        return None
    return _refine(trace.points[-1], p, lat, cfg)[0]


def _prepole(kind: LatticeKind, steps: Sequence[int]) -> AllCriticalPrepole:
    """The verdict on critical orbits that all hit poles, at these steps;
    square reports (s, s, 0), as e2 = -e1 shares e1's orbit and e3 = 0 is
    the pole itself."""
    if kind is LatticeKind.TRIANGULAR:
        return AllCriticalPrepole(steps=tuple(steps))
    return AllCriticalPrepole(steps=(steps[0], steps[0], 0))


def _cycle_verdict(
    kind: LatticeKind,
    lam: complex,
    returns: Sequence[tuple[complex, Optional[int]]],
    budget: int,
    cfg: ToleranceConfig,
) -> Verdict:
    """The verdict on critical orbits that all exhausted their budget, from
    each one's last point and near-return period (None where it has none).
    The lattice of lam is built only when every orbit has a period to
    refine."""
    if any(p is None for _, p in returns):
        return Indeterminate(iterations_used=budget)
    lat = make_lattice(kind, lam, cfg)
    cycles: list[Cycle] = []
    distinct: list[list[complex]] = []
    separation = 10.0 * cfg.newton_tol
    for w, p in returns:
        try:
            c, ps = _refine(w, p, lat, cfg)
        except NewtonDivergence:
            return Indeterminate(iterations_used=budget)
        if abs(c.multiplier) >= 1.0 - ATTRACTING_MARGIN:
            return Indeterminate(iterations_used=budget)
        cycles.append(c)
        if all(min(sph_dist(x, y) for x in ps for y in q) > separation for q in distinct):
            distinct.append(ps)
    count = len(distinct)
    if kind is LatticeKind.TRIANGULAR and count not in (1, 3):
        return Indeterminate(iterations_used=budget)
    return AttractingCycles(count=count, cycle=cycles[0])


def classify(kind: LatticeKind, lam: complex, budget: int, cfg: ToleranceConfig) -> Verdict:
    """Classify a parameter by the fate of its critical orbits.

    All critical orbits converging to attracting cycles gives
    AttractingCycles with the count of distinct cycles (1 or 3 in the
    triangular family, always 1 in the square family, where only e1 needs
    iterating).  All critical orbits landing on poles gives
    AllCriticalPrepole with the hit steps; the square family reports
    (s, s, 0) since e2 = -e1 shares the orbit and e3 = 0 is the pole itself.
    Everything else, including parabolic and rotation-domain behavior and
    exhausted budgets, is Indeterminate.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    lat = make_lattice(kind, lam, cfg)
    crit = lat.crit_values[: _kind_data(kind).crit_orbits]
    traces = [iterate(lat, e, budget, cfg) for e in crit]
    if all(isinstance(t.outcome, PoleHit) for t in traces):
        return _prepole(kind, [t.outcome.step for t in traces])
    if not all(isinstance(t.outcome, BudgetExhausted) for t in traces):
        return Indeterminate(iterations_used=budget)
    returns = [
        (t.points[-1], _near_return(t, CYCLE_DETECTION_TOL, DEFAULT_MAX_PERIOD)) for t in traces
    ]
    return _cycle_verdict(kind, lat.lam, returns, budget, cfg)


def classify_batch(
    kind: LatticeKind, lams: Sequence[complex], budget: int, cfg: ToleranceConfig
) -> list[Optional[Verdict]]:
    """classify for many parameters: entry i equals classify(kind, lams[i],
    budget, cfg), or None where classify raises ZeroParameter.

    The critical values come from one split-array call with make_lattice's
    bits.  Every critical orbit runs its head, all but the last
    DEFAULT_MAX_PERIOD steps, in one orbit_array lockstep that keeps only
    its current point; the surviving orbits then run those last steps in
    chunks of TAIL_CHUNK parameters (_tail_verdicts), which is where the
    near-return ring is kept."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    lam_c = np.asarray(lams, dtype=complex).reshape(-1)
    ok = _scales_ok(lam_c)
    good = lam_c[ok]
    lam, lam2 = _split_scales(good)
    # the orbits of e1 (and e2, e3 for triangular) one after the other
    per = _kind_data(kind).crit_orbits
    crit = _crit_values_split(kind, lam, lam2, _half_periods_split(kind, lam)[:per], cfg)
    starts = _complex(crit[:, 0].ravel(), crit[:, 1].ravel())
    head_steps = max(budget - DEFAULT_MAX_PERIOD, 0)
    head = orbit_array(kind, np.tile(good, per), starts, head_steps, cfg, tail=1)
    verdicts: list[Verdict] = []
    for at in range(0, good.size, TAIL_CHUNK):
        params = np.arange(at, min(at + TAIL_CHUNK, good.size))
        verdicts += _tail_verdicts(kind, good, params, head, head_steps, budget, cfg)
    decided = iter(verdicts)
    return [next(decided) if keep else None for keep in ok.tolist()]


def _tail_verdicts(
    kind: LatticeKind,
    lams: np.ndarray,
    params: np.ndarray,
    head: OrbitBatch,
    head_steps: int,
    budget: int,
    cfg: ToleranceConfig,
) -> list[Verdict]:
    """The verdicts on the parameters lams[params], given head, the batch
    that ran every critical orbit of lams (orbit k of lams[i] at k *
    lams.size + i) for head_steps steps with a one-point ring.

    The orbits of these parameters that head left running take the other
    budget - head_steps steps with a ring of all their points, and
    _near_returns reads from it the period of each orbit that exhausts its
    budget.  Outcome steps count from the orbit's start, as classify's do."""
    per = len(head) // lams.size
    orbits = np.arange(per)[:, None] * lams.size + params  # row k: orbit k
    status = head.status[orbits]
    step = head.step[orbits]
    live = status == _EXHAUSTED
    steps = budget - head_steps
    tail = orbit_array(
        kind, lams[np.broadcast_to(params, orbits.shape)[live]], head.ring[orbits[live], 0],
        steps, cfg, tail=DEFAULT_MAX_PERIOD + 1,
    )
    status[live] = tail.status
    step[live] = tail.step + head_steps
    # an exhausted tail holds its points 0 .. steps in ring columns 0 .. steps
    period = np.zeros_like(status)
    period[live] = np.where(
        tail.status == _EXHAUSTED, _near_returns(tail.ring, steps, CYCLE_DETECTION_TOL), 0
    )
    last = np.zeros(status.shape, dtype=complex)
    last[live] = tail.ring[:, steps]

    verdicts: list[Verdict] = [Indeterminate(iterations_used=budget)] * params.size
    for j in np.flatnonzero((status == _POLE).all(axis=0)).tolist():
        verdicts[j] = _prepole(kind, step[:, j].tolist())
    for j in np.flatnonzero((period > 0).all(axis=0)).tolist():
        returns = list(zip(last[:, j].tolist(), period[:, j].tolist()))
        verdicts[j] = _cycle_verdict(kind, complex(lams[params[j]]), returns, budget, cfg)
    return verdicts
