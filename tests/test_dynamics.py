import cmath
import math

import numpy as np
import pytest

from conftest import (
    ATTRACTING_SQ,
    CANDIDATE,
    PREPOLE_SQ,
    SUPER_SQ,
    TRI_ONE,
    TRI_THREE,
)
from oracles import near_return
from weierdyn import dynamics
from weierdyn.dynamics import (
    CYCLE_DETECTION_TOL,
    DEFAULT_BUDGET,
    DEFAULT_MAX_PERIOD,
    AllCriticalPrepole,
    AttractingCycles,
    BudgetExhausted,
    Cycle,
    Indeterminate,
    OrbitTrace,
    PoleHit,
    classify,
    classify_batch,
    find_cycle,
    iterate,
)
from weierdyn.lattice import LatticeKind, _kind_data, make_lattice, sph_deriv, sph_dist, wp, wp_pair

ZETA = cmath.exp(2j * math.pi / 3)


def _crit_orbit_trace(kind, lam, which, budget, cfg):
    lat = make_lattice(kind, lam, cfg)
    return iterate(lat, lat.crit_values[which], budget, cfg)


def test_iterate_pole_start(cfg, square2):
    trace = iterate(square2, 0j, 50, cfg)
    assert isinstance(trace.outcome, PoleHit)
    assert trace.outcome.step == 0
    assert trace.points == (0j,)


def test_iterate_records_composition(cfg, square2):
    trace = iterate(square2, 0.3 + 0.4j, 12, cfg)
    assert len(trace.sph_derivs) == len(trace.points) - 1
    for a, b in zip(trace.points, trace.points[1:]):
        assert abs(wp(a, square2, cfg) - b) < 1e-12 * max(1.0, abs(b))
    # the stored flat derivatives and the spherical factors made from them
    # are wp_pair's and sph_deriv's own bits
    assert len(trace.derivs) == len(trace.points) - 1
    sph = trace.sph_derivs
    for k, d in enumerate(trace.derivs):
        assert d == wp_pair(trace.points[k], square2, cfg)[1]
        assert sph[k] == sph_deriv(d, trace.points[k], trace.points[k + 1])


def test_attracting_orbit_steps_shrink(cfg):
    # convergence toward an attracting fixed point shows up as strictly
    # shrinking steps once transients die out and before the orbit reaches
    # the floating-point floor
    trace = _crit_orbit_trace(LatticeKind.SQUARE, ATTRACTING_SQ, 0, 40, cfg)
    assert isinstance(trace.outcome, BudgetExhausted)
    steps = [abs(b - a) for a, b in zip(trace.points, trace.points[1:])][5:25]
    assert steps[-1] > 1e-13
    assert all(s2 < s1 for s1, s2 in zip(steps, steps[1:]))


def test_coarse_grid_scan_finds_attracting_orbits(cfg):
    # a 6x6 sweep of the square family picks out parameters whose verdict
    # must then be consistent with direct iteration
    found = []
    for a in np.linspace(0.6, 3.0, 6):
        for b in np.linspace(0.2, 2.6, 6):
            v = classify(LatticeKind.SQUARE, complex(a, b), 300, cfg)
            if isinstance(v, AttractingCycles):
                found.append((complex(a, b), v))
    assert len(found) == 2
    for lam, verdict in found:
        assert abs(verdict.cycle.multiplier) < 1.0
        trace = _crit_orbit_trace(LatticeKind.SQUARE, lam, 0, 400, cfg)
        tail = trace.points[-1]
        cycle_pts = [verdict.cycle.point]
        lat = make_lattice(LatticeKind.SQUARE, lam, cfg)
        for _ in range(verdict.cycle.period - 1):
            cycle_pts.append(wp(cycle_pts[-1], lat, cfg))
        assert min(sph_dist(tail, q) for q in cycle_pts) < 1e-6


def test_triangular_orbit_equivariance(cfg):
    # one rotated critical orbit mirrors the other for 20 steps
    for lam in (TRI_THREE, TRI_ONE):
        lat = make_lattice(LatticeKind.TRIANGULAR, lam, cfg)
        t1 = iterate(lat, lat.crit_values[0], 20, cfg)
        t2 = iterate(lat, lat.crit_values[1], 20, cfg)
        t3 = iterate(lat, lat.crit_values[2], 20, cfg)
        for n in range(1, min(len(t1.points), len(t2.points), len(t3.points))):
            w = t1.points[n]
            assert abs(t2.points[n] - ZETA * w) < 1e-8 * max(1.0, abs(w))
            assert abs(t3.points[n] - ZETA * ZETA * w) < 1e-8 * max(1.0, abs(w))


def test_square_critical_orbits_merge(cfg):
    # e2 = -e1 and wp is even, so the two orbits agree from step 1 on
    lat = make_lattice(LatticeKind.SQUARE, 1.7 + 0.6j, cfg)
    t1 = iterate(lat, lat.crit_values[0], 10, cfg)
    t2 = iterate(lat, lat.crit_values[1], 10, cfg)
    for n in range(1, min(len(t1.points), len(t2.points))):
        assert abs(t1.points[n] - t2.points[n]) < 1e-10 * max(1.0, abs(t1.points[n]))


def test_find_cycle_superattracting(cfg):
    lam = complex(SUPER_SQ)
    trace = _crit_orbit_trace(LatticeKind.SQUARE, lam, 0, 100, cfg)
    lat = make_lattice(LatticeKind.SQUARE, lam, cfg)
    cycle = find_cycle(trace, lat, 1e-6, 16)
    assert cycle is not None
    assert cycle.period == 1
    assert abs(cycle.multiplier) < 1e-6
    # the critical point itself is the fixed point
    assert abs(cycle.point - lat.gen1 / 2.0) < 1e-8


def test_find_cycle_attracting_multiplier(cfg):
    trace = _crit_orbit_trace(LatticeKind.SQUARE, ATTRACTING_SQ, 0, 400, cfg)
    lat = make_lattice(LatticeKind.SQUARE, ATTRACTING_SQ, cfg)
    cycle = find_cycle(trace, lat, 1e-6, 16)
    assert cycle is not None
    assert cycle.period == 1
    assert abs(abs(cycle.multiplier) - 0.3625086441895705) < 1e-9


def test_find_cycle_none_for_pole_bound_orbit(cfg):
    trace = _crit_orbit_trace(LatticeKind.SQUARE, PREPOLE_SQ, 0, 50, cfg)
    assert isinstance(trace.outcome, PoleHit)
    lat = make_lattice(LatticeKind.SQUARE, PREPOLE_SQ, cfg)
    assert find_cycle(trace, lat, 1e-6, 16) is None


def test_classify_attracting(cfg):
    v = classify(LatticeKind.SQUARE, ATTRACTING_SQ, DEFAULT_BUDGET, cfg)
    assert isinstance(v, AttractingCycles)
    assert v.count == 1 and v.cycle.period == 1


def test_classify_prepole_square(cfg):
    v = classify(LatticeKind.SQUARE, PREPOLE_SQ, DEFAULT_BUDGET, cfg)
    assert isinstance(v, AllCriticalPrepole)
    assert v.steps == (1, 1, 0)


def test_classify_triangular_counts(cfg):
    v3 = classify(LatticeKind.TRIANGULAR, TRI_THREE, DEFAULT_BUDGET, cfg)
    assert isinstance(v3, AttractingCycles)
    assert v3.count == 3 and v3.cycle.period == 1
    assert abs(v3.cycle.multiplier - (-0.23425108408283554)) < 1e-9
    v1 = classify(LatticeKind.TRIANGULAR, TRI_ONE, DEFAULT_BUDGET, cfg)
    assert isinstance(v1, AttractingCycles)
    assert v1.count == 1 and v1.cycle.period == 3


def test_triangular_rotated_cycles_share_multiplier(cfg):
    # the three attracting orbits are rotations of each other, so their
    # multipliers agree
    lat = make_lattice(LatticeKind.TRIANGULAR, TRI_THREE, cfg)
    mults = []
    for e in lat.crit_values:
        trace = iterate(lat, e, 400, cfg)
        cycle = find_cycle(trace, lat, 1e-6, 16)
        assert cycle is not None
        mults.append(cycle.multiplier)
    for m in mults[1:]:
        assert abs(m - mults[0]) < 1e-6


def test_classify_budget_exhaustion(cfg):
    v = classify(LatticeKind.SQUARE, CANDIDATE, 5, cfg)
    assert isinstance(v, Indeterminate)
    assert v.iterations_used == 5
    v2 = classify(LatticeKind.SQUARE, CANDIDATE, DEFAULT_BUDGET, cfg)
    assert isinstance(v2, Indeterminate)


def test_verdict_survives_budget_doubling(cfg):
    # soundness: the reported attractor still captures the orbit when the
    # orbit is run twice as long
    for kind, lam in (
        (LatticeKind.SQUARE, ATTRACTING_SQ),
        (LatticeKind.TRIANGULAR, TRI_ONE),
    ):
        v = classify(kind, lam, DEFAULT_BUDGET, cfg)
        assert isinstance(v, AttractingCycles)
        lat = make_lattice(kind, lam, cfg)
        trace = iterate(lat, lat.crit_values[0], 2 * DEFAULT_BUDGET, cfg)
        again = find_cycle(trace, lat, 1e-6, 16)
        assert again is not None
        assert again.period == v.cycle.period
        assert abs(again.multiplier - v.cycle.multiplier) < 1e-8


# verdicts at budget 300 where Newton refines a near-return of period p and
# the cycle closes up at a proper divisor of p, recorded before the period
# came from the prefixes of the final Newton walk: (kind, lambda, p, verdict)
PERIOD_REDUCTIONS = [
    (
        LatticeKind.TRIANGULAR, 0.39152542372881355 + 2.4033898305084747j, 6,
        AttractingCycles(count=1, cycle=Cycle(
            period=3, point=-1.002952905008075 - 0.35711015307779j,
            multiplier=-0.8379638660166651 - 0.29454029627324996j,
        )),
    ),
    (
        LatticeKind.SQUARE, 2.6338983050847458 + 0.01694915254237289j, 2,
        AttractingCycles(count=1, cycle=Cycle(
            period=1, point=1.0937142183129558 - 0.003684832659584773j,
            multiplier=-0.9694804256081626 - 0.03721113774716862j,
        )),
    ),
    (
        LatticeKind.SQUARE, 2.9084745762711863 - 0.037288135593220334j, 4,
        AttractingCycles(count=1, cycle=Cycle(
            period=2, point=0.8257806686906853 + 0.014623237888642681j,
            multiplier=-0.908577788123505 + 0.24062179852755208j,
        )),
    ),
]


@pytest.mark.parametrize("kind, lam, p, want", PERIOD_REDUCTIONS)
def test_period_reduction_verdicts_are_pinned(cfg, kind, lam, p, want):
    trace = _crit_orbit_trace(kind, lam, 0, 300, cfg)
    assert near_return(trace, CYCLE_DETECTION_TOL, DEFAULT_MAX_PERIOD) == p
    lat = make_lattice(kind, lam, cfg)
    assert find_cycle(trace, lat, CYCLE_DETECTION_TOL, DEFAULT_MAX_PERIOD, cfg) == want.cycle
    assert repr(classify(kind, lam, 300, cfg)) == repr(want)
    assert repr(classify_batch(kind, [lam], 300, cfg)[0]) == repr(want)


# parameters whose critical orbits near-return within a few steps, or not
SHORT_TRACE_PARAMS = [
    (LatticeKind.SQUARE, SUPER_SQ), (LatticeKind.SQUARE, ATTRACTING_SQ),
    (LatticeKind.SQUARE, CANDIDATE), (LatticeKind.TRIANGULAR, TRI_ONE),
    (LatticeKind.TRIANGULAR, TRI_THREE),
]


def _classify_by_near_return(kind, lam, budget, cfg):
    """classify's verdict with each period taken from the near_return oracle."""
    lat = make_lattice(kind, lam, cfg)
    traces = [iterate(lat, e, budget, cfg) for e in lat.crit_values[: _kind_data(kind).crit_orbits]]
    if all(isinstance(t.outcome, PoleHit) for t in traces):
        return dynamics._prepole(kind, [t.outcome.step for t in traces])
    if not all(isinstance(t.outcome, BudgetExhausted) for t in traces):
        return Indeterminate(iterations_used=budget)
    returns = [
        (t.points[-1], near_return(t, CYCLE_DETECTION_TOL, DEFAULT_MAX_PERIOD) or 0) for t in traces
    ]
    return dynamics._cycle_verdict(kind, lat.lam, returns, budget, cfg)


def test_classify_on_short_budgets_equals_near_return(cfg):
    # budgets below DEFAULT_MAX_PERIOD + 1 points scan fewer periods than
    # max_period; budget 1 leaves one
    seen = set()
    for kind, lam in SHORT_TRACE_PARAMS:
        for budget in (1, 2, 5, 20, 63, 64, 65):
            got = classify(kind, lam, budget, cfg)
            assert repr(got) == repr(_classify_by_near_return(kind, lam, budget, cfg))
            assert repr(classify_batch(kind, [lam], budget, cfg)[0]) == repr(got)
            seen.add((type(got).__name__, budget < 64))
    assert {("AttractingCycles", True), ("Indeterminate", True)} <= seen


def test_find_cycle_on_short_traces_equals_near_return(cfg):
    # the period find_cycle refines is near_return's, for traces shorter
    # than max_period, a one-point trace, and max_period 0 and -1
    found = 0
    for kind, lam in SHORT_TRACE_PARAMS:
        lat = make_lattice(kind, lam, cfg)
        z = lat.crit_values[0]
        traces = [OrbitTrace(z, (z,), (), BudgetExhausted())]
        traces += [iterate(lat, z, budget, cfg) for budget in (1, 2, 5, 63)]
        for trace in traces:
            for tol in (CYCLE_DETECTION_TOL, 0.05):
                for max_period in (-1, 0, 1, 3, DEFAULT_MAX_PERIOD):
                    p = near_return(trace, tol, max_period)
                    want = None if p is None else dynamics._refine(trace.points[-1], p, lat, cfg)[0]
                    assert find_cycle(trace, lat, tol, max_period, cfg) == want
                    found += want is not None
    assert found > 0


@pytest.mark.parametrize("kind, lam, p, want", PERIOD_REDUCTIONS)
def test_refine_returns_the_cycle_points_of_its_walk(cfg, kind, lam, p, want):
    # the points are the orbit of the cycle point over one period, which
    # closes up, and the multiplier is the chain-rule product along them
    lat = make_lattice(kind, lam, cfg)
    trace = _crit_orbit_trace(kind, lam, 0, 300, cfg)
    cycle, points = dynamics._refine(trace.points[-1], p, lat, cfg)
    assert cycle == want.cycle and isinstance(points, list)
    assert len(points) == cycle.period and points[0] == cycle.point
    images = []
    mult = 1.0 + 0j
    for z in points:
        val, deriv = wp_pair(z, lat, cfg)
        images.append(val)
        mult *= deriv
    assert images[:-1] == points[1:]
    assert abs(images[-1] - cycle.point) < cfg.newton_tol
    assert mult == cycle.multiplier


def test_refine_refuses_a_walk_past_the_escape_scale(cfg, square2):
    # _refine walks with iterate, whose escape rule ends a walk from beyond
    # 1/(pole_eps*|lam|)^2 before its first step: a point numerically at
    # infinity is no cycle candidate
    w = (1.3 + 0.7j) * dynamics.escape_scale(square2.lam, cfg.pole_eps)
    assert isinstance(iterate(square2, w, 1, cfg).outcome, dynamics.EscapedSphericalBall)
    for start in (w, square2.gen1):
        with pytest.raises(dynamics.NewtonDivergence, match="onto a pole or past the escape scale"):
            dynamics._refine(start, 1, square2, cfg)
