"""The lockstep orbit kernel against the scalar path it replaces: equal bits,
not closeness, for orbits, verdicts and separation reports."""

import cmath
import math
import random
import warnings

import numpy as np
import pytest

from conftest import ATTRACTING_SQ, CANDIDATE, PREPOLE_SQ, PREPOLE_TRI, SUPER_SQ, TRI_ONE, TRI_THREE
from oracles import crit_sph_dist, near_return, sph_dist_to_inf
from weierdyn import dynamics, lattice, rng
from weierdyn.dynamics import (
    CYCLE_DETECTION_TOL,
    DEFAULT_MAX_PERIOD,
    AllCriticalPrepole,
    AttractingCycles,
    BudgetExhausted,
    EscapedSphericalBall,
    Indeterminate,
    NewtonDivergence,
    PoleHit,
    Stopped,
    classify,
    classify_batch,
    find_cycle,
    iterate,
    orbit_array,
)
from weierdyn.lattice import (
    LatticeKind,
    ToleranceConfig,
    ZeroParameter,
    make_lattice,
    wp,
)
from weierdyn.lattice import PoleHit as PoleError
from weierdyn.misiurewicz import misiurewicz_check

KINDS = (LatticeKind.SQUARE, LatticeKind.TRIANGULAR)

# refusing a large disc around each lattice point makes pole hits and
# escapes common at every step, not only at the first
WIDE_POLES = ToleranceConfig(pole_eps=0.4)


def _random_orbits(kind, cfg, count, seed):
    gen = random.Random(seed)
    lats, starts = [], []
    for _ in range(count):
        lam = complex(gen.uniform(0.3, 3.0), gen.uniform(-3.0, 3.0))
        lats.append(make_lattice(kind, lam, cfg))
        starts.append(complex(gen.uniform(-4.0, 4.0), gen.uniform(-4.0, 4.0)))
    return lats, starts


def _lams(lats):
    return [lat.lam for lat in lats]


def _assert_matches_iterate(kind, lats, starts, budget, cfg):
    batch = orbit_array(kind, _lams(lats), starts, budget, cfg, tail=budget + 1)
    outcomes = set()
    for i, (lat, z0) in enumerate(zip(lats, starts)):
        want = iterate(lat, z0, budget, cfg)
        got = batch.trace(i)
        assert got.points == want.points
        assert got.outcome == want.outcome
        assert got.start == want.start
        outcomes.add(type(want.outcome))
    return outcomes


@pytest.mark.parametrize("kind", KINDS)
def test_orbit_array_points_equal_iterate(kind, cfg):
    lats, starts = _random_orbits(kind, cfg, 60, seed=3)
    # a start on a lattice point, one past the escape scale, and the
    # critical orbits of a prepole and an attracting parameter
    lat = make_lattice(kind, 1.7 + 0.4j, cfg)
    lats += [lat, lat]
    starts += [lat.gen1 + lat.gen2, complex(1e13, -1e13)]
    for lam in (PREPOLE_SQ if kind is LatticeKind.SQUARE else PREPOLE_TRI, ATTRACTING_SQ):
        crit = make_lattice(kind, lam, cfg)
        lats.append(crit)
        starts.append(crit.crit_values[0])
    outcomes = _assert_matches_iterate(kind, lats, starts, 120, cfg)
    assert outcomes == {BudgetExhausted, PoleHit, EscapedSphericalBall}


@pytest.mark.parametrize("kind", KINDS)
def test_orbit_array_pole_and_escape_steps_equal_iterate(kind):
    lats, starts = _random_orbits(kind, WIDE_POLES, 200, seed=5)
    batch = orbit_array(kind, _lams(lats), starts, 40, WIDE_POLES)
    late = {PoleHit: 0, EscapedSphericalBall: 0}
    for i, (lat, z0) in enumerate(zip(lats, starts)):
        want = iterate(lat, z0, 40, WIDE_POLES)
        assert batch.outcome(i) == want.outcome
        if type(want.outcome) in late and want.outcome.step > 0:
            late[type(want.outcome)] += 1
    assert all(late.values())
    _assert_matches_iterate(kind, lats[:40], starts[:40], 40, WIDE_POLES)


def test_orbit_array_tail_and_block_independence(cfg):
    lats, starts = _random_orbits(LatticeKind.SQUARE, cfg, 12, seed=9)
    whole = orbit_array(LatticeKind.SQUARE, _lams(lats), starts, 90, cfg, tail=7)
    for i in range(12):
        alone = orbit_array(LatticeKind.SQUARE, [lats[i].lam], starts[i:i + 1], 90, cfg, tail=7)
        assert alone.trace(0) == whole.trace(i)
        full = iterate(lats[i], starts[i], 90, cfg)
        assert whole.trace(i).points == full.points[-7:]


def _bare_wp_loop(lat, z, budget, cfg):
    """The dynamical-plane loop: wp until a pole hit, with no escape test."""
    points = [z]
    for step in range(budget):
        try:
            z = wp(z, lat, cfg)
        except PoleError as hit:
            return points, PoleHit(step=step, m=hit.m, n=hit.n)
        points.append(z)
    return points, BudgetExhausted()


@pytest.mark.parametrize("kind", KINDS)
def test_orbit_array_without_escape_equals_bare_wp_loop(kind):
    lats, starts = _random_orbits(kind, WIDE_POLES, 40, seed=17)
    lats.append(lats[0])
    starts.append(complex(1e13, -3e12))
    batch = orbit_array(kind, _lams(lats), starts, 30, WIDE_POLES, escape=False, tail=31)
    for i, (lat, z0) in enumerate(zip(lats, starts)):
        points, outcome = _bare_wp_loop(lat, z0, 30, WIDE_POLES)
        assert batch.trace(i).points == tuple(points)
        assert batch.outcome(i) == outcome


@pytest.mark.parametrize("kind", KINDS)
def test_orbit_array_stop_equals_iterate_stop(kind):
    # stop at the first point past modulus 4 from step 2 on: orbit_array
    # asks about all live points, and the reference is the unstopped
    # iterate orbit cut at the first step >= 2 where that holds, ending in
    # Stopped there; three orbits start past the escape scale
    cfg = ToleranceConfig(pole_eps=0.1)
    lats, starts = _random_orbits(kind, cfg, 120, seed=23)
    lats += lats[:3]
    starts += [complex(1e4, 0.0)] * 3
    asked = []

    def stop_array(step, idx, re, im):
        asked.append((step, idx.copy()))
        return (np.hypot(re, im) > 4.0) & (step >= 2)

    batch = orbit_array(kind, _lams(lats), starts, 6, cfg, tail=7, stop=stop_array)
    seen = set()
    for i, (lat, z0) in enumerate(zip(lats, starts)):
        want = iterate(lat, z0, 6, cfg)
        points, outcome = want.points, want.outcome
        # a step asks stop only once wp has evaluated its point
        evaluated = len(want.derivs)
        cut = next((s for s in range(2, evaluated) if abs(points[s]) > 4.0), None)
        if cut is not None:
            points, outcome = points[: cut + 2], Stopped(step=cut)
        assert batch.trace(i).points == points
        assert batch.outcome(i) == outcome
        seen.add(type(outcome))
    assert seen == {Stopped, PoleHit, EscapedSphericalBall, BudgetExhausted}
    # stop is asked once per step, about the orbits still running there
    assert [step for step, _ in asked] == list(range(6))
    for step, idx in asked:
        assert (batch.size[idx] >= step + 2).all()


def test_orbit_array_rejects_bad_scales_and_lengths(cfg):
    for lams in ([1.0, 0j], [1.0, complex(math.nan, 1.0)], [complex(math.inf, 0.0), 1.0]):
        with pytest.raises(ZeroParameter):
            orbit_array(LatticeKind.SQUARE, lams, [0.3j, 0.3j], 5, cfg)
    with pytest.raises(ValueError):
        orbit_array(LatticeKind.SQUARE, [1.0 + 0j], [0.3j, 0.3j], 5, cfg)
    with pytest.raises(ValueError):
        orbit_array(LatticeKind.SQUARE, [1.0 + 0j], [0.3j], -1, cfg)


def test_split_lattice_data_equals_make_lattice(cfg):
    # half-periods, critical values and lam * lam for many scales, with the
    # bits of make_lattice's Python complex arithmetic
    gen = random.Random(29)
    lams = [complex(gen.uniform(-3.0, 3.0), gen.uniform(-3.0, 3.0)) for _ in range(300)]
    lams += [1.0 + 0j, -0.0 + 1j, 1e-3 + 0j, CANDIDATE, PREPOLE_SQ, PREPOLE_TRI]
    lam, lam2 = lattice._split_scales(np.array(lams))
    for kind in KINDS:
        half = lattice._half_periods_split(kind, lam)
        crit = lattice._crit_starts(kind, np.array(lams), 3, cfg).tolist()
        for i, value in enumerate(lams):
            lat = make_lattice(kind, value, cfg)
            assert complex(*lam2[:, i]) == value * value
            assert tuple(complex(*half[c, :, i]) for c in range(3)) == lat.half_periods
            assert tuple(crit[c * len(lams) + i] for c in range(3)) == lat.crit_values


def test_complex_keeps_the_parts_bit_for_bit():
    # numpy's re + 1j*im turns an imaginary -0.0 into +0.0
    re = np.array([0.0, -0.0, 1.5, -0.0, math.nan, math.inf])
    im = np.array([-0.0, -0.0, -0.0, 0.0, 2.0, -math.inf])
    got = lattice._complex(re, im)
    assert np.array_equal(got.real.view(np.int64), re.view(np.int64))
    assert np.array_equal(got.imag.view(np.int64), im.view(np.int64))
    naive = re[:4] + 1j * im[:4]
    assert not np.array_equal(naive.imag.view(np.int64), im[:4].view(np.int64))


@pytest.mark.parametrize("kind", KINDS)
def test_split_distances_within_ulps_of_scalar(kind, cfg):
    # the split forms take the scalar helpers' operations one for one, so
    # they agree to the last bit: points on the cell scale, then |z| from
    # 1e-3 to 1e3 on a log scale
    gen = random.Random(31)
    lams = [complex(gen.uniform(0.3, 3.0), gen.uniform(-3.0, 3.0)) for _ in range(2400)]
    zs = [complex(gen.uniform(-6.0, 6.0), gen.uniform(-6.0, 6.0)) for _ in range(400)]
    zs += [cmath.rect(10.0 ** gen.uniform(-3.0, 3.0), gen.uniform(-math.pi, math.pi)) for _ in range(2000)]
    lam, _ = lattice._split_scales(np.array(lams))
    half = lattice._half_periods_split(kind, lam)
    zr = np.array([z.real for z in zs])
    zi = np.array([z.imag for z in zs])
    d_crit = lattice._crit_sph_dist_split(kind, zr, zi, lam, half)
    d_inf = lattice._sph_dist_to_inf_split(zr, zi)
    for i, (value, z) in enumerate(zip(lams, zs)):
        lat = make_lattice(kind, value, cfg)
        assert d_crit[i] == crit_sph_dist(z, lat)
        assert d_inf[i] == sph_dist_to_inf(z)


def test_classify_batch_equals_classify_square(cfg):
    lams = [PREPOLE_SQ, ATTRACTING_SQ, CANDIDATE, 0j, 1.4 + 0.9j, 2.6 - 0.3j]
    got = classify_batch(LatticeKind.SQUARE, lams, 200, cfg)
    assert got[3] is None
    with pytest.raises(ZeroParameter):
        classify(LatticeKind.SQUARE, 0j, 200, cfg)
    want = [None if lam == 0 else classify(LatticeKind.SQUARE, lam, 200, cfg) for lam in lams]
    assert got == want
    assert isinstance(got[0], AllCriticalPrepole)
    assert isinstance(got[1], AttractingCycles)
    assert isinstance(got[2], Indeterminate)


def test_classify_batch_equals_classify_triangular(cfg):
    lams = [TRI_THREE, TRI_ONE, PREPOLE_TRI, 0j, 0.9 + 1.7j]
    got = classify_batch(LatticeKind.TRIANGULAR, lams, 300, cfg)
    want = [None if lam == 0 else classify(LatticeKind.TRIANGULAR, lam, 300, cfg) for lam in lams]
    assert got == want
    assert got[0].count == 3 and got[1].count == 1
    assert isinstance(got[2], AllCriticalPrepole)


@pytest.mark.parametrize("kind", KINDS)
def test_classify_batch_equals_classify_with_escapes(kind):
    # with pole_eps = 0.4 critical orbits escape or hit a pole within a few
    # steps (in the square family the critical value itself is past the
    # escape scale)
    gen = random.Random(13)
    lams = [complex(gen.uniform(0.5, 3.0), gen.uniform(0.5, 3.0)) for _ in range(30)]
    got = classify_batch(kind, lams, 50, WIDE_POLES)
    assert got == [classify(kind, lam, 50, WIDE_POLES) for lam in lams]
    escaped = 0
    for lam in lams:
        lat = make_lattice(kind, lam, WIDE_POLES)
        outcome = iterate(lat, lat.crit_values[0], 50, WIDE_POLES).outcome
        escaped += isinstance(outcome, EscapedSphericalBall)
    assert escaped > 0


# attracting parameters of several periods, one per (period, count) met by
# classify on 3,000 seeded points of [0.5, 3]^2 (budget 200)
ATTRACTING_BY_PERIOD = {
    LatticeKind.SQUARE: [  # periods 1 to 6
        1.2534 + 2.0078j, 1.4033 + 2.4651j, 1.3412 + 1.9793j,
        1.4697 + 2.5603j, 2.2549 + 1.0778j, 2.3937 + 1.5554j,
    ],
    LatticeKind.TRIANGULAR: [  # (period, count) (1, 3) (2, 3) (3, 1) (3, 3) (4, 3) (6, 1) (12, 1)
        1.2534 + 2.0078j, 1.2278 + 2.1862j, 2.2811 + 0.8366j, 1.6392 + 1.5544j,
        1.3494 + 2.3163j, 2.4143 + 0.899j, 2.49 + 0.8983j,
    ],
}

# scales make_lattice refuses: zeros of every sign, and non-finite parts
REFUSED_SCALES = [
    0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
    complex(math.nan, 1.0), complex(1.0, math.nan), complex(math.inf, 1.0), complex(1.0, -math.inf),
]


def _spy_make_lattice(monkeypatch):
    """The scales dynamics.make_lattice is called with, in call order."""
    built = []
    real = dynamics.make_lattice

    def spy(kind, lam, cfg):
        built.append(lam)
        return real(kind, lam, cfg)

    monkeypatch.setattr(dynamics, "make_lattice", spy)
    return built


def _needs_lattice(kind, lam, budget, cfg):
    """Whether the verdict on lam refines a cycle, so needs its lattice: all
    critical orbits run out of steps and every one nears a cycle (the
    verdict is Indeterminate where one does not)."""
    lat = make_lattice(kind, lam, cfg)
    traces = [iterate(lat, e, budget, cfg) for e in lat.crit_values[: 3 if kind is LatticeKind.TRIANGULAR else 1]]
    if not all(isinstance(t.outcome, BudgetExhausted) for t in traces):
        return False
    tails = [t.points[-DEFAULT_MAX_PERIOD - 1:] for t in traces]
    return all(
        any(abs(pts[-1] - pts[-1 - p]) < CYCLE_DETECTION_TOL for p in range(1, len(pts)))
        for pts in tails
    )


@pytest.mark.parametrize("kind", KINDS)
def test_classify_batch_equals_classify_with_lazy_lattices(kind, cfg, monkeypatch):
    gen = random.Random(977)
    lams = [complex(gen.uniform(0.5, 3.0), gen.uniform(0.5, 3.0)) for _ in range(110)]
    for scale in (1e-3, 1e3):
        lams += [scale * cmath.exp(1j * gen.uniform(-math.pi, math.pi)) for _ in range(8)]
    lams += ATTRACTING_BY_PERIOD[kind] + [PREPOLE_SQ, PREPOLE_TRI, CANDIDATE, ATTRACTING_SQ, TRI_ONE]
    # real and imaginary scales give critical values with zero parts
    lams += [complex(SUPER_SQ), TRI_THREE, complex(0.0, 2.3), complex(-1.7, -0.0)]
    lams += REFUSED_SCALES
    gen.shuffle(lams)

    built = _spy_make_lattice(monkeypatch)
    got = classify_batch(kind, lams, 200, cfg)
    monkeypatch.undo()

    want, needs = [], []
    for lam in lams:
        if lam == 0 or not cmath.isfinite(lam):
            with pytest.raises(ZeroParameter):
                classify(kind, lam, 200, cfg)
            want.append(None)
            continue
        want.append(classify(kind, lam, 200, cfg))
        if _needs_lattice(kind, lam, 200, cfg):
            needs.append(lam)
    assert got == want
    assert repr(got) == repr(want)  # signed zeros too
    # one lattice for each parameter whose verdict refines a cycle, no other
    assert sorted(built, key=repr) == sorted(needs, key=repr)
    assert 0 < len(needs) < len(lams) // 4

    assert got.count(None) == len(REFUSED_SCALES)
    assert any(isinstance(v, AllCriticalPrepole) for v in got)
    assert any(isinstance(v, Indeterminate) for v in got)
    periods = {v.cycle.period for v in got if isinstance(v, AttractingCycles)}
    assert len(periods) >= 5
    tiny = [v for lam, v in zip(lams, got) if v is not None and abs(lam) < 1e-2]
    huge = [v for lam, v in zip(lams, got) if v is not None and abs(lam) > 1e2]
    assert len(tiny) == len(huge) == 8


@pytest.mark.parametrize("kind", KINDS)
def test_classify_batch_equals_classify_when_newton_diverges(kind, monkeypatch):
    # Newton rarely brings a residual below 1e-300, so most near-return
    # refinements diverge: the lattice is still built, and the verdict is
    # Indeterminate
    never = ToleranceConfig(newton_tol=1e-300)
    lams = ATTRACTING_BY_PERIOD[kind]
    built = _spy_make_lattice(monkeypatch)
    got = classify_batch(kind, lams, 200, never)
    monkeypatch.undo()
    assert got == [classify(kind, lam, 200, never) for lam in lams]
    assert built == lams
    diverged = 0
    for lam, verdict in zip(lams, got):
        lat = make_lattice(kind, lam, never)
        trace = iterate(lat, lat.crit_values[0], 200, never)
        try:
            find_cycle(trace, lat, CYCLE_DETECTION_TOL, DEFAULT_MAX_PERIOD, cfg=never)
        except NewtonDivergence:
            diverged += 1
            assert verdict == Indeterminate(iterations_used=200)
    assert diverged >= 4


@pytest.mark.parametrize("kind", KINDS)
def test_classify_batch_raises_the_pole_hit_of_classify(kind):
    # with pole_eps past 1/2 the half-periods themselves are refused, and
    # make_lattice raises PoleHit for the first parameter
    wide = ToleranceConfig(pole_eps=0.6)
    with pytest.raises(PoleError) as want:
        classify(kind, 1.5 + 0.5j, 20, wide)
    with pytest.raises(PoleError) as got:
        classify_batch(kind, [0j, 1.5 + 0.5j, 2.0 - 1.0j], 20, wide)
    assert (got.value.m, got.value.n) == (want.value.m, want.value.n)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "cfg", [ToleranceConfig(), ToleranceConfig(pole_eps=0.05)], ids=["default", "wide"]
)
def test_classify_batch_equals_classify_across_the_head_tail_split(kind, cfg, monkeypatch):
    # classify_batch runs all but the last DEFAULT_MAX_PERIOD steps in one
    # head and the rest in tail chunks; with chunks of 7 parameters the
    # chunk edges fall inside the batch, and budgets around 64 put the split
    # at and next to the start.  pole_eps 0.05 makes prepoles common
    monkeypatch.setattr(dynamics, "TAIL_CHUNK", 7)
    gen = random.Random(1909)
    lams = [complex(gen.uniform(0.15, 2.35), gen.uniform(0.15, 2.35)) for _ in range(60)]
    lams += [0j, 1e-300 + 0j]
    seen = set()
    for budget in (1, 2, 63, 64, 65, 66, 130):
        got = classify_batch(kind, lams, budget, cfg)
        want = []
        for lam in lams:
            try:
                want.append(classify(kind, lam, budget, cfg))
            except ZeroParameter:
                want.append(None)
        assert repr(got) == repr(want)
        seen.update(type(v).__name__ for v in want)
    assert {"AttractingCycles", "Indeterminate", "NoneType"} <= seen
    assert ("AllCriticalPrepole" in seen) == (cfg.pole_eps == 0.05)


def test_near_returns_equals_near_return():
    # the period of each row, as near_return gives it for the same points,
    # with NaN distances counted as near and the smallest period winning
    gen = np.random.default_rng(23)
    rows = []
    for _ in range(200):
        pts = gen.normal(size=65) + 1j * gen.normal(size=65)
        for p in gen.choice(64, size=gen.integers(0, 3), replace=False) + 1:
            pts[64 - p] = pts[64] + 1e-7 * (gen.normal() + 1j * gen.normal())
        rows.append(pts)
    rows[0][10] = complex(math.nan, 0.0)
    rows[1][64] = complex(math.inf, math.nan)
    points = np.array(rows)
    for last in (1, 5, 64):
        got = dynamics._near_returns(points, last, CYCLE_DETECTION_TOL).tolist()
        want = []
        for row in points[:, : last + 1].tolist():
            trace = dynamics.OrbitTrace(row[0], tuple(row), (), BudgetExhausted())
            want.append(near_return(trace, CYCLE_DETECTION_TOL, DEFAULT_MAX_PERIOD) or 0)
        assert got == want
    assert 0 < sum(p > 0 for p in got) < len(got)


def test_classify_batch_rejects_zero_budget(cfg):
    with pytest.raises(ValueError):
        classify_batch(LatticeKind.SQUARE, [ATTRACTING_SQ], 0, cfg)


# misiurewicz_check reports recorded before the check learned to stop each
# orbit at its first violation: (passed, iterations, violation step, kind)
# for samples lambda0 + r * unit_disc_point(7, ri, i), delta 0.05, M 200
PINNED_REPORTS = {
    PREPOLE_SQ: [
        (False, 2, 1, "NEAR_CRITICAL"), (False, 3, 2, "NEAR_CRITICAL"),
        (False, 4, 3, "NEAR_CRITICAL"), (False, 3, 2, "NEAR_CRITICAL"),
        (False, 3, 2, "NEAR_CRITICAL"), (False, 2, 1, "NEAR_CRITICAL"),
        (False, 3, 2, "NEAR_INFINITY"), (False, 3, 2, "NEAR_INFINITY"),
        (False, 3, 2, "NEAR_INFINITY"), (False, 3, 2, "NEAR_INFINITY"),
        (False, 3, 2, "NEAR_INFINITY"), (False, 3, 2, "NEAR_INFINITY"),
    ],
    CANDIDATE: [
        (False, 7, 6, "NEAR_CRITICAL"), (False, 9, 8, "NEAR_INFINITY"),
        (False, 6, 5, "NEAR_CRITICAL"), (False, 5, 4, "NEAR_CRITICAL"),
        (False, 5, 4, "NEAR_CRITICAL"), (False, 17, 16, "NEAR_CRITICAL"),
        (False, 11, 10, "NEAR_CRITICAL"), (False, 14, 13, "NEAR_CRITICAL"),
        (False, 11, 10, "NEAR_CRITICAL"), (False, 17, 16, "NEAR_CRITICAL"),
        (False, 11, 10, "NEAR_CRITICAL"), (False, 9, 8, "NEAR_CRITICAL"),
    ],
}


def _report(lam, delta, M, cfg):
    rep = misiurewicz_check(LatticeKind.SQUARE, lam, delta, M, cfg)
    v = rep.first_violation
    return (rep.passed, rep.iterations, v and v.step, v and v.kind.name)


@pytest.mark.parametrize("lam0", sorted(PINNED_REPORTS, key=abs))
def test_misiurewicz_check_reports_pinned(lam0, cfg):
    got = [
        _report(lam0 + r * rng.unit_disc_point(7, ri, i), 0.05, 200, cfg)
        for ri, r in enumerate((1e-2, 1e-4))
        for i in range(6)
    ]
    assert got == PINNED_REPORTS[lam0]


def test_misiurewicz_check_reports_pinned_fixed_parameters(cfg):
    assert _report(PREPOLE_SQ, 0.05, 200, cfg) == (False, 2, 1, "POLE_HIT")
    assert _report(CANDIDATE, 0.05, 16, cfg) == (True, 16, None, None)
    assert _report(CANDIDATE, 0.05, 200, cfg) == (False, 29, 28, "NEAR_CRITICAL")


@pytest.mark.parametrize("kind", KINDS)
def test_scales_make_lattice_refuses_are_refused_by_the_batches(cfg, kind):
    # scales whose sixth power underflows or overflows: classify_batch gives
    # None next to real verdicts, orbit_array and classify raise ZeroParameter,
    # and density_scan's screen counts them as failures
    extreme = [1e-170 + 0j, 1e-160j, 5e-324 + 0j, 1e300 + 1e300j]
    got = classify_batch(kind, [PREPOLE_SQ] + extreme + [TRI_ONE], 60, cfg)
    assert got[1:5] == [None] * 4
    assert got[0] == classify(kind, PREPOLE_SQ, 60, cfg)
    assert got[5] == classify(kind, TRI_ONE, 60, cfg)
    for lam in extreme:
        with pytest.raises(ZeroParameter):
            classify(kind, lam, 60, cfg)
        with pytest.raises(ZeroParameter):
            orbit_array(kind, [1.0 + 0j, lam], [0.3j, 0.3j], 5, cfg)
    assert lattice._scales_ok(np.array(extreme)).tolist() == [False] * 4


@pytest.mark.parametrize("kind", list(LatticeKind))
@pytest.mark.parametrize("lam", [1e-6 + 7e-7j, 1e-8 + 3e-9j, 3e-45 + 2e-45j])
def test_orbit_array_pole_hit_at_tiny_scales_equals_iterate(kind, lam, cfg):
    # the critical value lies about e1/lam**3 lattice units out, so the
    # pole hit's m, n pass 2**63: the batch keeps them as floats and gives
    # iterate's exact integers, with no cast warning
    lat = make_lattice(kind, lam, cfg)
    want = iterate(lat, lat.crit_values[0], 200, cfg).outcome
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = orbit_array(kind, [lam], [lat.crit_values[0]], 200, cfg).outcome(0)
    assert isinstance(want, PoleHit)
    assert got == want


def test_classify_batch_is_mirror_symmetric_on_the_square_lattice(cfg):
    # i*Lambda0 = conj(Lambda0) = Lambda0, so lambda -> i*conj(lambda), the
    # swap of real and imaginary parts, conjugates f_lambda: a grid symmetric
    # about Re = Im gets mirror-equal verdicts, with conjugate multipliers
    size = 64
    x = (0.15 + (np.arange(size) + 0.5) * (2.2 / size)).tolist()
    lams = [complex(a, b) for a in x for b in x]
    verdicts = classify_batch(LatticeKind.SQUARE, lams, 200, cfg)
    kinds = set()
    for j in range(size):
        for k in range(size):
            a, b = verdicts[j * size + k], verdicts[k * size + j]
            assert type(a) is type(b)
            kinds.add(type(a))
            if isinstance(a, AttractingCycles):
                assert (a.count, a.cycle.period) == (b.count, b.cycle.period)
                assert abs(a.cycle.multiplier - b.cycle.multiplier.conjugate()) <= 1e-12
            else:
                assert a == b
    assert {AttractingCycles, Indeterminate} <= kinds
