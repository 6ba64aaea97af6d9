
import math
import random
import tracemalloc
from typing import Optional

import numpy as np
import pytest

from conftest import CANDIDATE, CANDIDATE_ABS_MULT, PREPOLE_SQ, PREPOLE_TRI
import oracles
from oracles import (
    _g_array, crit_sph_dist, first_violations, recount, sph_dist_to_inf, winding_count,
)
from weierdyn import lattice, misiurewicz, rng
from weierdyn.dynamics import AllCriticalPrepole, EscapedSphericalBall, PoleHit, classify, iterate
from weierdyn.lattice import (
    LatticeKind,
    ToleranceConfig,
    ZeroParameter,
    make_lattice,
    wp,
)
from weierdyn.misiurewicz import (
    DiscTouchesU,
    PrematurePole,
    Violation,
    ViolationKind,
    _certify_roots,
    _g_batch,
    _nearest_dists,
    _pole_coef,
    covering_steps,
    density_scan,
    find_prepole_params,
    find_prepole_params_batch,
    misiurewicz_check,
    pole_location,
    prepole_residual,
)


def test_splitmix_streams_are_deterministic():
    a = rng.SplitMix(1, 2, 3)
    assert a.uniform() == 0.4849690070744087
    assert a.uniform() == 0.2061471874853088
    # distinct keys give distinct streams, same keys replay
    assert rng.SplitMix(1, 2, 3).uniform() == 0.4849690070744087
    assert rng.SplitMix(1, 2, 4).uniform() != 0.4849690070744087


def test_unit_disc_point_stays_in_disc():
    for i in range(200):
        p = rng.unit_disc_point(9, 0, i)
        assert abs(p) <= 1.0
    assert rng.unit_disc_point(9, 0, 0) == rng.unit_disc_point(9, 0, 0)


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _rejections(*keys: int) -> int:
    """The square points the reference stream of these keys rejects."""
    g = rng.SplitMix(*keys)
    count = 0
    while True:
        x, y = g.uniform_signed(), g.uniform_signed()
        if x * x + y * y <= 1.0:
            return count
        count += 1


@pytest.mark.parametrize("keys", [
    (),
    (5,),
    (1, 2, 3),
    (1, 2, 3, 4),
    (-1, -7, 3),
    (4, -2),
    (2**64 + 3, 2**70, 9),
    (6, 2**64 + 5),
], ids=["none", "one", "three", "four", "negative", "negative-last", "wide", "wide-last"])
def test_unit_disc_point_is_the_reference_stream(keys):
    assert _bits(rng.unit_disc_point(*keys)) == _bits(oracles.unit_disc_point(*keys))


def test_unit_disc_point_masks_its_keys_to_64_bits():
    assert _bits(rng.unit_disc_point(-1, -7, 3)) == _bits(rng.unit_disc_point(2**64 - 1, 2**64 - 7, 3))
    assert _bits(rng.unit_disc_point(6, 2**64 + 5)) == _bits(rng.unit_disc_point(6, 5))


def test_unit_disc_point_is_the_reference_on_the_criterion_6_keys():
    for ri in range(2):
        for i in range(2000):
            keys = (20260816, ri, i)
            assert _bits(rng.unit_disc_point(*keys)) == _bits(oracles.unit_disc_point(*keys))


def test_unit_disc_point_is_the_reference_through_rejections():
    keys = [(7, 1, i) for i in range(3000) if _rejections(7, 1, i) >= 3]
    assert len(keys) >= 10
    for k in keys:
        assert _bits(rng.unit_disc_point(*k)) == _bits(oracles.unit_disc_point(*k))


def test_unit_disc_point_does_not_depend_on_call_order():
    # two seeds and two radius indices, each prefix's samples in turn, then
    # from a cold memo one sample of every prefix in turn
    prefixes = [(seed, ri) for seed in (3, 20260816) for ri in (0, 1)]
    in_order = {(*p, i): _bits(rng.unit_disc_point(*p, i)) for p in prefixes for i in range(300)}
    rng._folded.cache_clear()
    interleaved = {(*p, i): _bits(rng.unit_disc_point(*p, i)) for i in range(300) for p in prefixes}
    assert interleaved == in_order


def test_pole_location_linear_in_lambda():
    assert pole_location(LatticeKind.SQUARE, 2.0 + 1.0j, 1, 0) == 2.0 + 1.0j
    tau = pole_location(LatticeKind.SQUARE, 1.0 + 0j, 0, 1)
    assert abs(tau - 1j) < 1e-15


def test_prepole_residual_small_at_pinned_roots(cfg):
    r_sq = prepole_residual(LatticeKind.SQUARE, PREPOLE_SQ, 1, 1, 0, cfg)
    assert abs(r_sq) < 1e-9
    r_tri = prepole_residual(LatticeKind.TRIANGULAR, PREPOLE_TRI, 1, 1, 0, cfg)
    assert abs(r_tri) < 1e-9


def test_find_prepole_params_locates_pinned_root(cfg):
    roots = find_prepole_params(
        LatticeKind.SQUARE, 1, 1, 0, (0.45, 0.7, 0.6, 0.85), 64, cfg
    )
    assert len(roots) >= 1
    match = [r for r in roots if abs(r.lambda_star - PREPOLE_SQ) < 1e-9]
    assert len(match) == 1
    root = match[0]
    assert root.residual < cfg.newton_tol
    assert root.isolation_radius > 0
    # the reported circle really does count exactly one root
    count = winding_count(
        LatticeKind.SQUARE, 1, 1, 0, root.lambda_star, root.isolation_radius, cfg
    )
    assert count == 1


def test_find_prepole_order_zero_closed_form(cfg):
    # n = 0 means e_lambda = j*lambda itself: e1_norm / lambda^2 = lambda,
    # so the real root is the cube root of e1_norm
    lat = make_lattice(LatticeKind.SQUARE, 1.0 + 0j, cfg)
    expected = lat.crit_values[0].real ** (1.0 / 3.0)
    roots = find_prepole_params(
        LatticeKind.SQUARE, 0, 1, 0, (1.5, 2.2, -0.2, 0.4), 64, cfg
    )
    match = [r for r in roots if abs(r.lambda_star - expected) < 1e-8]
    assert len(match) == 1


def test_find_prepole_params_rejects_coarse_grid(cfg):
    with pytest.raises(ValueError):
        find_prepole_params(LatticeKind.SQUARE, 1, 1, 0, (0.5, 1.0, 0.5, 1.0), 4, cfg)


def test_triangular_roots_hit_poles_simultaneously(cfg):
    roots = find_prepole_params(
        LatticeKind.TRIANGULAR, 1, 1, 0, (0.52, 0.56, 0.09, 0.13), 64, cfg
    )
    match = [r for r in roots if abs(r.lambda_star - PREPOLE_TRI) < 1e-9]
    assert len(match) == 1
    # rotation symmetry forces all three orbits onto poles at the same step
    for r in roots[:20]:
        v = classify(LatticeKind.TRIANGULAR, r.lambda_star, 64, cfg)
        assert isinstance(v, AllCriticalPrepole)
        assert len(set(v.steps)) == 1


def test_check_rejects_zero_window():
    with pytest.raises(ValueError):
        misiurewicz_check(LatticeKind.SQUARE, 2.0 + 0j, 0.05, 0, None)


def test_check_passes_at_candidate_within_window(cfg):
    rep = misiurewicz_check(LatticeKind.SQUARE, CANDIDATE, 0.05, 16, cfg)
    assert rep.passed
    assert rep.iterations == 16
    assert rep.first_violation is None


def test_check_fails_at_candidate_past_window(cfg):
    # the orbit runs close to a critical point at step 28, so any window
    # reaching that far reports the near pass
    rep = misiurewicz_check(LatticeKind.SQUARE, CANDIDATE, 0.05, 48, cfg)
    assert not rep.passed
    assert rep.iterations == 29
    assert rep.first_violation.step == 28
    assert rep.first_violation.kind is ViolationKind.NEAR_CRITICAL
    # failures are monotone in the resolution parameters
    wider = misiurewicz_check(LatticeKind.SQUARE, CANDIDATE, 0.06, 60, cfg)
    assert not wider.passed


def test_check_reports_pole_capture(cfg):
    rep = misiurewicz_check(LatticeKind.SQUARE, PREPOLE_SQ, 0.05, 16, cfg)
    assert not rep.passed
    assert rep.iterations == 2
    assert rep.first_violation.step == 1
    assert rep.first_violation.kind is ViolationKind.POLE_HIT


def test_density_scan_is_reproducible(cfg):
    radii = (1e-3, 1e-4)
    rows1 = density_scan(LatticeKind.SQUARE, PREPOLE_SQ, radii, 200, 0.05, 200, 20260816, cfg)
    rows2 = density_scan(LatticeKind.SQUARE, PREPOLE_SQ, radii, 200, 0.05, 200, 20260816, cfg)
    assert rows1 == rows2
    for row in rows1:
        assert row.n_samples == 200
        assert row.seed == 20260816
        assert 0.0 <= row.fail_fraction <= 1.0
    # near a prepole parameter every sampled neighbor fails the check
    assert [r.fail_fraction for r in rows1] == [1.0, 1.0]


def test_density_scan_seed_changes_stream(cfg):
    a = density_scan(LatticeKind.SQUARE, 2.0 + 0j, (0.5,), 64, 0.05, 6, 1, cfg)
    b = density_scan(LatticeKind.SQUARE, 2.0 + 0j, (0.5,), 64, 0.05, 6, 2, cfg)
    assert a[0].seed != b[0].seed
    assert 0.0 <= a[0].fail_fraction <= 1.0


def test_covering_steps_pinned_values(cfg, square2):
    # a ball that needs two steps to swallow the delta-neighborhood
    assert covering_steps(square2, 0j, 0.6, 0.05, 12, 64, cfg) == 2
    # the full fundamental cell contains critical points, so only delta = 0
    # keeps the disjointness precondition satisfiable; one step suffices
    center = (square2.gen1 + square2.gen2) / 2.0
    d = abs(square2.gen1 + square2.gen2) / 2.0 * 1.05
    assert covering_steps(square2, center, d, 0.0, 12, 64, cfg) == 1


def test_covering_steps_budget_exhaustion(cfg, square2):
    assert covering_steps(square2, 0j, 0.6, 0.05, 0, 64, cfg) is None


def test_covering_steps_monotone_in_radius(cfg, square2):
    center = 0.45 + 0.3j
    got = [
        covering_steps(square2, center, d, 0.05, 12, 64, cfg)
        for d in (0.02, 0.1, 0.5)
    ]
    assert got == [4, 2, 2]
    assert got[0] >= got[1] >= got[2]


def test_covering_steps_rejects_disc_touching_singular_set(cfg, square2):
    with pytest.raises(DiscTouchesU):
        covering_steps(square2, square2.half_periods[0], 0.1, 0.05, 12, 64, cfg)


def test_covering_steps_validates_inputs(cfg, square2):
    with pytest.raises(ValueError):
        covering_steps(square2, 0j, 0.5, 0.05, 12, 32, cfg)
    with pytest.raises(ValueError):
        covering_steps(square2, 0j, -1.0, 0.05, 12, 64, cfg)
    for d in (math.nan, math.inf, -math.inf, 0.0):
        with pytest.raises(ValueError, match="^disc radius must be finite and positive$"):
            covering_steps(square2, 0j, d, 0.05, 12, 64, cfg)
    for delta in (math.nan, -1.0, -math.inf, -5e-324):
        with pytest.raises(ValueError, match="^delta must be non-negative$"):
            covering_steps(square2, 0j, 0.01, delta, 12, 64, cfg)


# (kind, lambda, center, d, delta, maxN, grid, result) recorded from the
# per-cell scalar implementation over seeded random discs: both kinds,
# delta = 0 (no targets) and delta >= 2 (no ring), every outcome, and the
# budgets 0, 1, one short of the covering step and the covering step itself
SQ, TRI = LatticeKind.SQUARE, LatticeKind.TRIANGULAR
COVERING_CASES = [
    (TRI, (2.7430345024239386+2.102742760980774j), (-0.11578785111634182-0.8424316395740058j), 0.7875924369387635, 0.2, 12, 80, DiscTouchesU),
    (SQ, (2.5530710459569157+2.188277715008185j), (0.3491554074886004-0.573039436202783j), 0.018972777247036374, 1.0, 12, 64, DiscTouchesU),
    (TRI, (1.7613706473948834+1.2139894082979699j), (0.30732775714958993+0.87031193094946j), 0.10221047958708177, 0.05, 12, 64, 4),
    (TRI, (1.0382717455889974-0.3591518645686218j), (0.21175292241452306-0.5323893792094603j), 0.0013713658414525672, 0.0, 12, 80, 3),
    (TRI, (2.7929194329821305+1.5169050179640418j), (0.04790287107644616+0.016224135427386634j), 0.014798787366235733, 0.05, 12, 80, 3),
    (SQ, (0.9810053599632766+1.7681284835273567j), (-0.0630298432154181-0.6573513576749809j), 0.002069514944996531, 0.2, 12, 80, 5),
    (TRI, (1.1689982614094636+2.5213286159233146j), (-0.9494781631934687-0.06150534885203324j), 0.14807743261625378, 0.0, 12, 64, 4),
    (SQ, (1.4690795027768218+0.2921453850328266j), (-0.6063011252291562+0.36253328943259044j), 0.015833651564573354, 0.0, 12, 80, 4),
    (TRI, (1.9749792325265256+1.4202250153194051j), (-0.11872754599224133+0.3724840249177924j), 0.00620932633976958, 0.2, 12, 64, 4),
    (SQ, (1.506245745259954-0.6131836242730175j), (0.5299091541282448-0.7161384560276691j), 0.10574698938418031, 0.01, 12, 64, 3),
    (SQ, (2.685192565373761+1.6488589533538152j), (-1.5581613561393097+0.31917744053533303j), 1.1190240352128855, 0.2, 12, 80, DiscTouchesU),
    (TRI, (1.6693255420352402+1.190540796854941j), (-0.7657645703846216+0.0020068695048316154j), 0.0023979425164898736, 2.5, 12, 80, DiscTouchesU),
    (SQ, (0.5758757359602791-0.5084315911799626j), (0.3492298728611992-0.14666234412343498j), 0.010995867237574166, 0.0, 12, 80, 2),
    (SQ, (1.3605266674900656+1.3611639291588586j), (0.4467130396985656+0.05331113122875927j), 0.04845683130009701, 2.5, 12, 80, DiscTouchesU),
    (TRI, (2.7729482849763754-0.39575088769273803j), (1.7183160614720259-1.45772413541628j), 0.30170603666540213, 1.0, 12, 80, DiscTouchesU),
    (SQ, (1.4956888991984263-0.18835299114593518j), (-0.7260815571940152-0.3447737907270175j), 0.4457268854735562, 0.01, 12, 80, DiscTouchesU),
    (TRI, (0.7810143537314475+1.4151161012674613j), (-0.1692617748352528-0.03239162843606771j), 0.09725113809907737, 0.05, 12, 64, 2),
    (SQ, (1.1214244330224572-0.24998666257613378j), (-0.04004935788679301-0.5337556020793184j), 0.04505471778640033, 0.0, 12, 64, 3),
    (TRI, (2.0268769640338156-0.2349892796604105j), (0.5236116074080372-0.8795671778543415j), 0.2974369160268487, 0.05, 12, 80, DiscTouchesU),
    (SQ, (1.9341029487463077+1.5549998640884115j), (0.8393016262289266-0.6108876699274682j), 0.1511065267554728, 0.01, 12, 64, 4),
    (SQ, (0.5667558752157116+1.6032297736889145j), (-0.26385022557939397-0.4213316341403594j), 0.60334405053291, 0.0, 12, 80, 1),
    (SQ, (2.5763813306579597+0.5074151256351298j), (-0.35054190078270875+0.03673365764985506j), 0.00999328498485825, 0.2, 12, 80, 2),
    (SQ, (2.407952378503703-0.4756840468347172j), (-1.0588985504876618-0.7148170000080581j), 0.004067105179838011, 0.0, 12, 80, 5),
    (TRI, (2.3041005462991553+0.525843477593583j), (0.08756548211621362+0.9005803997382457j), 0.026253966549033798, 0.2, 12, 80, 5),
    (TRI, (0.5825598116643391+1.013345791945628j), (0.158808691043092-0.38119632043822094j), 0.24556272475878535, 0.0, 12, 80, 2),
    (SQ, (0.7288851830405902+2.861710836338295j), (-0.8140654989479492+0.4370425766076493j), 0.01702844110223296, 0.2, 12, 80, 6),
    (TRI, (2.2571049139727446+1.574725879170741j), (1.1827274190001598+0.6318742209230852j), 0.036306303126992595, 0.0, 12, 80, 5),
    (SQ, (2.319605163610679-0.9382700921979867j), (1.033794904823661-0.5027298165051586j), 0.031797209567711066, 0.0, 12, 80, 6),
    (TRI, (2.3271221383081584-0.6609684210651574j), (0.11177365274888904+0.09480973526010887j), 0.7932563743796235, 0.2, 12, 80, 1),
    (TRI, (2.8697464486895314+2.556291574874076j), (0.49792404708377597-0.5954492401123981j), 0.9368209642664214, 0.01, 12, 64, 1),
    (TRI, (2.5435748392455313+0.7807742929930659j), (-1.469238519458302-0.010110323449213476j), 0.012285306347613193, 0.05, 12, 80, 5),
    (SQ, (2.092908800969737+0.03253952031058516j), (-0.049908776122485635+0.05087850445643113j), 0.10565460715576136, 0.05, 12, 64, 1),
    (SQ, (2.905127688006227+0.15655230297342593j), (-0.525386428495708-0.7383116380079953j), 0.004424979863846273, 0.2, 12, 64, 6),
    (SQ, (1.6858700628840309-0.9397088858783333j), (-0.38726928436085106-0.5289639542371167j), 0.010311605545646876, 0.0, 12, 80, 5),
    (TRI, (2.506945935468722+1.201882721826816j), (-0.9465381833158424-0.23290384857633328j), 0.05876127458242078, 0.2, 12, 64, 6),
    (SQ, (2.047914627901198+2.2678421697417277j), (-0.8492393708060466-0.7355182294766925j), 0.29194745605452443, 0.01, 12, 64, 4),
    (TRI, (1.3310485349115682-0.23002154780627082j), (-0.23714939426142684+0.5414720703653554j), 0.002089196661839325, 0.0, 12, 80, 4),
    (SQ, (0.6676290953006452+1.2743669017140435j), (-0.10905230394161983-0.009797792792289498j), 0.1404908693603786, 0.2, 12, 80, 1),
    (SQ, (1.0479775112112368-0.8982635056679986j), (-0.27211029655807906+0.47540936758938745j), 0.002576647503666616, 0.0, 12, 64, 4),
    (TRI, (2.101815896526186+1.075274315295208j), (-1.7935505292196279-0.02023760683299558j), 0.0035769645711147342, 0.0, 12, 64, 7),
    (SQ, (1.6067861730222135-0.20178012566881565j), (0.34189213432186405-0.038737981879277704j), 0.35839589973391045, 0.0, 12, 80, 1),
    (TRI, (1.7613706473948834+1.2139894082979699j), (0.30732775714958993+0.87031193094946j), 0.10221047958708177, 0.05, 0, 64, None),
    (TRI, (1.7613706473948834+1.2139894082979699j), (0.30732775714958993+0.87031193094946j), 0.10221047958708177, 0.05, 1, 64, None),
    (TRI, (1.7613706473948834+1.2139894082979699j), (0.30732775714958993+0.87031193094946j), 0.10221047958708177, 0.05, 3, 64, None),
    (TRI, (1.7613706473948834+1.2139894082979699j), (0.30732775714958993+0.87031193094946j), 0.10221047958708177, 0.05, 4, 64, 4),
    (TRI, (1.0382717455889974-0.3591518645686218j), (0.21175292241452306-0.5323893792094603j), 0.0013713658414525672, 0.0, 0, 80, None),
    (TRI, (1.0382717455889974-0.3591518645686218j), (0.21175292241452306-0.5323893792094603j), 0.0013713658414525672, 0.0, 1, 80, None),
    (TRI, (1.0382717455889974-0.3591518645686218j), (0.21175292241452306-0.5323893792094603j), 0.0013713658414525672, 0.0, 2, 80, None),
    (TRI, (1.0382717455889974-0.3591518645686218j), (0.21175292241452306-0.5323893792094603j), 0.0013713658414525672, 0.0, 3, 80, 3),
    (TRI, (2.7929194329821305+1.5169050179640418j), (0.04790287107644616+0.016224135427386634j), 0.014798787366235733, 0.05, 0, 80, None),
    (TRI, (2.7929194329821305+1.5169050179640418j), (0.04790287107644616+0.016224135427386634j), 0.014798787366235733, 0.05, 1, 80, None),
    (TRI, (2.7929194329821305+1.5169050179640418j), (0.04790287107644616+0.016224135427386634j), 0.014798787366235733, 0.05, 2, 80, None),
    (TRI, (2.7929194329821305+1.5169050179640418j), (0.04790287107644616+0.016224135427386634j), 0.014798787366235733, 0.05, 3, 80, 3),
    (SQ, (0.9810053599632766+1.7681284835273567j), (-0.0630298432154181-0.6573513576749809j), 0.002069514944996531, 0.2, 0, 80, None),
    (SQ, (0.9810053599632766+1.7681284835273567j), (-0.0630298432154181-0.6573513576749809j), 0.002069514944996531, 0.2, 1, 80, None),
    (SQ, (0.9810053599632766+1.7681284835273567j), (-0.0630298432154181-0.6573513576749809j), 0.002069514944996531, 0.2, 4, 80, None),
    (SQ, (0.9810053599632766+1.7681284835273567j), (-0.0630298432154181-0.6573513576749809j), 0.002069514944996531, 0.2, 5, 80, 5),
    (TRI, (2.7430345024239386+2.102742760980774j), (-0.11578785111634182-0.8424316395740058j), 0.7875924369387635, 2.0, 12, 80, DiscTouchesU),
    (TRI, (2.7430345024239386+2.102742760980774j), (-0.11578785111634182-0.8424316395740058j), 0.7875924369387635, 0.2, 0, 80, DiscTouchesU),
    (SQ, (0.5667558752157116+1.6032297736889145j), (-0.26385022557939397-0.4213316341403594j), 0.60334405053291, 0.0, 1, 80, 1),
    (TRI, (2.3271221383081584-0.6609684210651574j), (0.11177365274888904+0.09480973526010887j), 0.7932563743796235, 0.2, 1, 80, 1),
]


def test_covering_steps_pinned_cases(cfg):
    got, want = [], []
    for kind, lam, center, d, delta, max_n, grid, result in COVERING_CASES:
        lat = make_lattice(kind, lam, cfg)
        try:
            got.append(covering_steps(lat, center, d, delta, max_n, grid, cfg))
        except DiscTouchesU:
            got.append(DiscTouchesU)
        want.append(result)
    assert got == want


# covering_steps over 150 discs drawn by _seeded_covering_discs, with maxN 12
# and grid 64, recorded while its infinity and ball distances came from
# numpy's complex abs: "U" marks DiscTouchesU
SEEDED_COVERING_RESULTS = [
    2, 3, 2, 4, "U", 2, "U", 2, 2, 2, 5, 3, 4, 4, "U", 4, 5, 5, 4, 3, 2, 2, 4, "U", "U", 8, 2,
    3, 4, 3, "U", "U", 6, None, "U", 7, "U", 2, "U", 3, 2, 4, 1, 4, "U", 1, None, 5, 3, 4, 5,
    6, 4, 5, "U", 4, 6, 4, 2, "U", 4, "U", "U", "U", 3, 2, 4, 2, 2, "U", 7, 3, "U", 5, 4, 3,
    "U", "U", "U", 4, 2, 5, 4, 6, "U", 1, "U", "U", 3, 5, "U", 2, 7, 2, 2, "U", 2, 3, 2, 2,
    "U", 6, 3, "U", 2, 4, 3, "U", 4, "U", "U", 2, 2, 5, "U", 4, "U", 6, "U", 6, 3, "U", 2, 3,
    4, "U", 3, 2, "U", 1, 3, 6, 4, 5, 10, 4, 3, "U", 4, 2, 5, 2, 4, 4, 4, 4, 3, "U", "U", 5,
]


def _seeded_covering_discs():
    """(kind, lambda, center, d, delta) of 150 seeded discs: both kinds, d
    from 1e-3 to 1 and delta in {0, 0.01, 0.05, 0.2, 1}."""
    gen = random.Random(61)
    for _ in range(150):
        kind = gen.choice((SQ, TRI))
        lam = complex(gen.uniform(0.5, 3.0), gen.uniform(-1.0, 3.0))
        center = complex(gen.uniform(-1.0, 1.0), gen.uniform(-1.0, 1.0))
        d = 10.0 ** gen.uniform(-3.0, 0.0)
        yield kind, lam, center, d, gen.choice((0.0, 0.01, 0.05, 0.2, 1.0))


def test_covering_steps_seeded_discs_are_pinned(cfg):
    got = []
    for kind, lam, center, d, delta in _seeded_covering_discs():
        try:
            got.append(covering_steps(make_lattice(kind, lam, cfg), center, d, delta, 12, 64, cfg))
        except DiscTouchesU:
            got.append("U")
    assert got == SEEDED_COVERING_RESULTS


def test_covering_steps_tests_coverage_in_chunks_of_balls(cfg):
    # 3 at a tracemalloc peak of 260 MiB while the whole (targets x balls)
    # distance matrix was built at once
    lat = make_lattice(LatticeKind.SQUARE, 0.98 + 1.77j, cfg)
    tracemalloc.start()
    try:
        steps = covering_steps(lat, 0.3 + 0.2j, 0.0021, 0.2, 5, 80, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert steps == 3
    assert peak < 32 * 2**20


def test_covering_steps_returns_the_step_after_a_ball_reaches_infinity():
    # the step after a ball reaches infinity covers everything.  With an
    # absurd pole_eps the chordal radius of a swallowed ball can underflow
    # to 0, and coverage is not tested at that step: at d = 3e-63 four cells
    # swallow the pole at 0 in step 1 with radius 0, and step 2 returns.  At
    # d = 1e-62 every cell reaches infinity in step 2 with a radius too
    # small to cover the targets, and step 3 returns
    cfg = ToleranceConfig(eval_tol=1e-110, pole_eps=1e-100)
    lat = make_lattice(LatticeKind.SQUARE, 2.0, cfg)
    assert [covering_steps(lat, 0j, 3e-63, 0.05, n, 64, cfg) for n in (1, 2)] == [None, 2]
    assert [covering_steps(lat, 0j, 1e-62, 0.05, n, 64, cfg) for n in (2, 3)] == [None, 3]


def test_covering_steps_makes_no_scalar_wp_pair_call(cfg, square2, monkeypatch):
    calls = []
    real = lattice.wp_pair

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lattice, "wp_pair", spy)
    monkeypatch.setattr(misiurewicz, "wp_pair", spy, raising=False)
    assert covering_steps(square2, 0j, 0.6, 0.05, 12, 64, cfg) == 2
    assert calls == []


# ---------------------------------------------------------------------------
# certification on nested contours against the full-ladder certifier


def _certify_roots_full_ladder(
    kind: LatticeKind,
    n: int,
    j: int,
    k: int,
    roots,
    cfg,
) -> dict[int, float]:
    """The full-ladder certifier, every level sampled afresh at m = 64 ...
    1024 points: the oracle _certify_roots must agree with exactly."""
    floor = max(10.0 * cfg.newton_tol, 1e-10)
    nn = _nearest_dists(roots)
    state = {}
    for i, z in enumerate(roots):
        r0 = max(min(0.25 * abs(z), 0.75 * nn[i]), floor)
        state[i] = (r0, 64)
    out: dict[int, float] = {}
    while state:
        idx = sorted(state)
        chunks = []
        for i in idx:
            r, m = state[i]
            t = 2.0 * math.pi * np.arange(m) / m
            chunks.append(roots[i] + r * np.exp(1j * t))
        vals = _g_array(kind, n, j, k, np.concatenate(chunks), cfg)
        pos = 0
        for i in idx:
            r, m = state[i]
            v = vals[pos : pos + m]
            pos += m
            escalate = False
            if not (np.any(np.isnan(v)) or np.any(v == 0)):
                inc = np.angle(np.roll(v, -1) / v)
                if float(np.max(np.abs(inc))) >= math.pi / 2.0:
                    escalate = True
                else:
                    w = float(inc.sum()) / (2.0 * math.pi)
                    if abs(w - round(w)) <= 0.25 and int(round(w)) == 1:
                        out[i] = r
                        del state[i]
                        continue
            if escalate and m < 1024:
                state[i] = (r, m * 2)
                continue
            r *= 0.5
            if r < floor:
                del state[i]
            else:
                state[i] = (r, 64)
    return out


# (kind, n, j, k, region, grid): small regions of the acceptance sweep; the
# n = 2 ones hold contours that stay undersampled at 1024 points and halve
CERTIFY_CASES = [
    (LatticeKind.SQUARE, 2, -1, -1, (0.52, 0.62, 0.88, 0.98), 16),
    (LatticeKind.SQUARE, 2, 0, 1, (0.52, 0.64, 0.78, 0.9), 16),
    (LatticeKind.TRIANGULAR, 2, 1, 0, (0.52, 0.64, 1.1, 1.22), 16),
    (LatticeKind.SQUARE, 1, 1, -1, (0.5, 0.7, 0.6, 0.8), 16),
    (LatticeKind.TRIANGULAR, 1, -1, 0, (0.5, 0.6, 0.6, 0.85), 16),
]


def _certifier_input(monkeypatch, kind, n, j, k, region, grid, cfg):
    """The root list find_prepole_params hands to the certifier."""
    seen = []
    real = misiurewicz._certify_roots

    def spy(*args):
        seen.append(args[3][0])
        return real(*args)

    with monkeypatch.context() as mp:
        mp.setattr(misiurewicz, "_certify_roots", spy)
        find_prepole_params(kind, n, j, k, region, grid, cfg)
    return seen[0]


def _unresolved_at_1024(kind, n, j, k, center, radius, cfg):
    t = 2.0 * math.pi * np.arange(1024) / 1024
    v = _g_array(kind, n, j, k, center + radius * np.exp(1j * t), cfg)
    return float(np.max(np.abs(np.angle(np.roll(v, -1) / v)))) >= math.pi / 2.0


def test_nested_ring_has_the_bits_of_fresh_sampling():
    for m in (64, 128, 256, 512, 1024):
        fresh = np.exp(1j * (2.0 * math.pi * np.arange(m) / m))
        assert fresh.tobytes() == misiurewicz._unit_ring()[:: 1024 // m].tobytes()


def test_level_rows_sum_as_one_contour_does():
    # the stacked full check sums each row of a (rows, m) gather of the
    # ring buffer; every row must give the bits of the 1-D sum of that
    # contour's increments alone
    gen = np.random.default_rng(11)
    vals = gen.normal(size=(64, 1024)) + 1j * gen.normal(size=(64, 1024))
    for step in (16, 8, 4, 2, 1):
        rows = np.sort(gen.choice(64, 23, replace=False))
        level = vals[:, ::step][rows]
        inc = np.angle(np.concatenate((level[:, 1:], level[:, :1]), axis=1) / level)
        sums = inc.sum(axis=1)
        for i, r in enumerate(rows):
            v = vals[r, ::step].copy()
            one = np.angle(np.concatenate((v[1:], v[:1])) / v)
            assert one.tobytes() == inc[i].tobytes()
            assert float(one.sum()) == sums[i]


def test_certify_roots_matches_full_ladder(cfg, monkeypatch):
    halved_at_1024 = 0
    for kind, n, j, k, region, grid in CERTIFY_CASES:
        roots = _certifier_input(monkeypatch, kind, n, j, k, region, grid, cfg)
        assert roots
        radii = _certify_roots(kind, n, [(j, k)], [roots], cfg)[0]
        assert radii == _certify_roots_full_ladder(kind, n, j, k, roots, cfg)
        nn = _nearest_dists(roots)
        for i, z in enumerate(roots):
            r0 = max(min(0.25 * abs(z), 0.75 * nn[i]), max(10.0 * cfg.newton_tol, 1e-10))
            if radii.get(i, 0.0) < r0 and _unresolved_at_1024(kind, n, j, k, z, r0, cfg):
                halved_at_1024 += 1
    assert halved_at_1024 > 0


def _spoiled(lam, modulus):
    """A fixed pseudo-random 1-in-modulus subset of the parameters, chosen by
    their bits, so both certifiers spoil the same samples."""
    bits = np.ascontiguousarray(lam, dtype=complex).view(np.uint64).reshape(-1, 2)
    h = (bits[:, 0] ^ (bits[:, 1] >> np.uint64(17))) * np.uint64(0x9E3779B97F4A7C15)
    return ((h >> np.uint64(40)) % np.uint64(modulus)).astype(np.int64)


def test_certify_roots_matches_full_ladder_through_nan_and_zero(cfg, monkeypatch):
    # orbit deaths and exact zeros on the contour: rare enough that most
    # contours resolve, frequent enough to land on chased midpoints too
    # the certifier evaluates g through _g_batch, the oracle through _g_array
    real = misiurewicz._g_batch

    def spoil(g, lam):
        h = _spoiled(lam, 1500)
        g[h == 0] = complex(np.nan, np.nan)
        g[h == 1] = 0.0
        return g

    def spoiled_batch(kind, n, coef, lam, cfg):
        return spoil(real(kind, n, coef, lam, cfg), lam)

    def spoiled_g(kind, n, j, k, lam, cfg):
        return spoil(real(kind, n, _pole_coef(kind, j, k), lam, cfg), lam)

    changed = 0
    for kind, n, j, k, region, grid in CERTIFY_CASES[:3]:
        roots = _certifier_input(monkeypatch, kind, n, j, k, region, grid, cfg)
        clean = _certify_roots(kind, n, [(j, k)], [roots], cfg)[0]
        with monkeypatch.context() as mp:
            mp.setattr(misiurewicz, "_g_batch", spoiled_batch)
            mp.setitem(globals(), "_g_array", spoiled_g)
            radii = _certify_roots(kind, n, [(j, k)], [roots], cfg)[0]
            assert radii == _certify_roots_full_ladder(kind, n, j, k, roots, cfg)
        changed += radii != clean
    assert changed > 0


def test_g_batch_has_the_bits_of_g_array_per_pair(cfg):
    # one orbit for many (j, k): each element keeps the bits _g_array gives
    # it, wherever it sits in the array
    pairs = [(j, k) for j in (-1, 0, 1) for k in (-1, 0, 1)]
    gen = np.random.default_rng(7)
    lam = gen.uniform(0.5, 3.0, 900) + 1j * gen.uniform(0.5, 3.0, 900)
    lam[::97] = 0.0
    which = gen.integers(0, len(pairs), lam.size)
    for kind in LatticeKind:
        coef = np.array([_pole_coef(kind, j, k) for j, k in pairs])[which]
        for n in (0, 1, 2):
            g = _g_batch(kind, n, coef, lam, cfg)
            for p, (j, k) in enumerate(pairs):
                sel = which == p
                assert g[sel].tobytes() == _g_array(kind, n, j, k, lam[sel], cfg).tobytes()


def test_certify_settles_every_level_and_mode_in_one_round(cfg, monkeypatch):
    # two groups in one queue of 64 rows, with NaN and zero samples spoiled
    # in: some round holds rows at every level in full mode and at every
    # level above 64 in chase mode, and each group's radii are still the
    # full ladder's
    real_g = misiurewicz._g_batch
    real_settle = misiurewicz._Slots.settle

    def spoil(g, lam):
        h = _spoiled(lam, 1500)
        g[h == 0] = complex(np.nan, np.nan)
        g[h == 1] = 0.0
        return g

    def spoiled_batch(kind, n, coef, lam, cfg):
        return spoil(real_g(kind, n, coef, lam, cfg), lam)

    def spoiled_g(kind, n, j, k, lam, cfg):
        return spoil(real_g(kind, n, _pole_coef(kind, j, k), lam, cfg), lam)

    rounds = []

    def spy(slots, rows, pos, g):
        busy = slots.stride > 0
        rounds.append(set(zip((1024 // slots.stride[busy]).tolist(), slots.chase[busy].tolist())))
        return real_settle(slots, rows, pos, g)

    cases = CERTIFY_CASES[:2]
    kind, n = cases[0][:2]
    pairs = [(j, k) for _, _, j, k, _, _ in cases]
    root_lists = [_certifier_input(monkeypatch, *case, cfg) for case in cases]
    with monkeypatch.context() as mp:
        mp.setattr(misiurewicz, "_g_batch", spoiled_batch)
        mp.setitem(globals(), "_g_array", spoiled_g)
        mp.setattr(misiurewicz._Slots, "settle", spy)
        radii = _certify_roots(kind, n, pairs, root_lists, cfg)
        for (j, k), roots, got in zip(pairs, root_lists, radii):
            assert got == _certify_roots_full_ladder(kind, n, j, k, roots, cfg)
    levels = (64, 128, 256, 512, 1024)
    every = {(m, False) for m in levels} | {(m, True) for m in levels[1:]}
    assert any(every <= seen for seen in rounds)


@pytest.mark.parametrize("slots", [1, 2, 3])
def test_certify_queue_refills_across_groups(cfg, monkeypatch, slots):
    # several (j, k) groups in one queue, with so few live contours that
    # finished ones are replaced mid-queue: each group's radii are still the
    # full ladder's
    for cases in (CERTIFY_CASES[:2], CERTIFY_CASES[3:4] + CERTIFY_CASES[3:4]):
        kind, n = cases[0][:2]
        pairs, root_lists = [], []
        for _, _, j, k, region, grid in cases:
            pairs.append((j, k))
            root_lists.append(_certifier_input(monkeypatch, kind, n, j, k, region, grid, cfg))
        with monkeypatch.context() as mp:
            mp.setattr(misiurewicz, "LIVE_CONTOURS", slots)
            radii = _certify_roots(kind, n, pairs, root_lists, cfg)
        assert len(radii) == len(pairs)
        for (j, k), roots, got in zip(pairs, root_lists, radii):
            assert len(roots) > slots
            assert got == _certify_roots_full_ladder(kind, n, j, k, roots, cfg)


@pytest.mark.parametrize("kind", list(LatticeKind))
def test_batch_equals_one_pair_calls(cfg, kind):
    pairs = [(j, k) for j in (-1, 0, 1) for k in (-1, 0, 1)] + [(1, 0)]
    region = (0.5, 1.5, 0.5, 1.5)
    for n in (1, 2):
        batch = find_prepole_params_batch(kind, n, pairs, region, 16, cfg)
        single = [find_prepole_params(kind, n, j, k, region, 16, cfg) for j, k in pairs]
        assert [list(map(repr, roots)) for roots in batch] == [
            list(map(repr, roots)) for roots in single
        ]
        assert sum(map(len, batch)) > 0


def test_find_prepole_params_rejects_empty_region(cfg):
    for region in ((1.0, 0.5, 0.5, 1.0), (0.5, 1.0, 1.0, 1.0), (0.5, math.nan, 0.5, 1.0)):
        with pytest.raises(ValueError):
            find_prepole_params_batch(LatticeKind.SQUARE, 1, [(1, 0)], region, 16, cfg)
    with pytest.raises(ValueError):
        find_prepole_params(LatticeKind.SQUARE, -1, 1, 0, (0.5, 1.0, 0.5, 1.0), 16, cfg)


# ---------------------------------------------------------------------------
# the lockstep separation check against the scalar check it replaced


def _orbit_first_violation(
    kind: LatticeKind, lam: complex, delta: float, M: int, cfg: ToleranceConfig
) -> Optional[Violation]:
    """First violation along the non-pole critical orbits.

    Pole capture is a violation at any step including 0; proximity checks
    apply to iterates only (step >= 1).  A value chordally close to infinity
    is also chordally close to far-out critical translates, so the infinity
    label takes precedence; exact capture outranks both.
    """
    lat = make_lattice(kind, lam, cfg)
    crits = lat.crit_values if kind is LatticeKind.TRIANGULAR else (lat.crit_values[0],)

    best: Optional[Violation] = None
    for e in crits:
        # the whole orbit, scanned up to its first violation
        trace = iterate(lat, e, M, cfg)
        pole_step = trace.outcome.step if isinstance(trace.outcome, PoleHit) else None
        for s in range(0, len(trace.points)):
            if best is not None and s > best.step:
                break
            v: Optional[Violation] = None
            if pole_step == s:
                v = Violation(step=s, kind=ViolationKind.POLE_HIT)
            elif s >= 1:
                z = trace.points[s]
                if sph_dist_to_inf(z) < delta:
                    v = Violation(step=s, kind=ViolationKind.NEAR_INFINITY)
                elif crit_sph_dist(z, lat) < delta:
                    v = Violation(step=s, kind=ViolationKind.NEAR_CRITICAL)
            if v is not None:
                if best is None or v.step < best.step:
                    best = v
                break
    return best


# refusing a large disc around each lattice point makes pole hits and
# escapes common at every step
WIDE_POLES = ToleranceConfig(pole_eps=0.4)

# (kind, lambda0, radius, delta, M, cfg) of the agreement cases
VIOLATION_CASES = [
    (LatticeKind.SQUARE, PREPOLE_SQ, 1e-3, 0.05, 200, None),
    (LatticeKind.SQUARE, PREPOLE_SQ, 1e-4, 0.05, 200, None),
    (LatticeKind.SQUARE, CANDIDATE, 1e-3, 0.05, 200, None),
    (LatticeKind.SQUARE, CANDIDATE, 1e-5, 0.05, 200, None),
    (LatticeKind.SQUARE, CANDIDATE, 1e-8, 0.05, 200, None),
    (LatticeKind.SQUARE, 2.0 + 0j, 0.5, 0.05, 6, None),
    (LatticeKind.SQUARE, 1.5 + 1.0j, 1.0, 0.5, 30, WIDE_POLES),
    (LatticeKind.TRIANGULAR, PREPOLE_TRI, 1e-3, 0.05, 200, None),
    (LatticeKind.TRIANGULAR, 1.5 + 1.0j, 0.3, 0.05, 200, None),
    (LatticeKind.TRIANGULAR, 2.2 + 0.3j, 0.3, 0.05, 200, None),
    (LatticeKind.TRIANGULAR, 1.5 + 1.0j, 1.0, 0.5, 30, WIDE_POLES),
]


@pytest.mark.parametrize("case", VIOLATION_CASES, ids=lambda c: f"{c[0].name}-{c[1]}-{c[2]}")
def test_first_violations_equal_scalar_check(case, cfg):
    kind, lam0, r, delta, M, case_cfg = case
    case_cfg = case_cfg or cfg
    lams = [lam0 + r * rng.unit_disc_point(41, 0, i) for i in range(40)]
    got = first_violations(kind, np.array(lams), delta, M, case_cfg)
    want = [_orbit_first_violation(kind, lam, delta, M, case_cfg) for lam in lams]
    assert got == want
    # a parameter the family excludes is refused, as the scalar check did
    with pytest.raises(ZeroParameter):
        _orbit_first_violation(kind, 0j, delta, M, case_cfg)
    with pytest.raises(ZeroParameter):
        misiurewicz_check(kind, 0j, delta, M, case_cfg)


def test_first_violations_cover_every_outcome(cfg):
    # the cases above reach every ranking rule: pole hits, both proximity
    # labels, parameters that pass, and violations found at the point where
    # an orbit escapes
    seen = set()
    at_escape = 0
    for kind, lam0, r, delta, M, case_cfg in VIOLATION_CASES:
        case_cfg = case_cfg or cfg
        lams = [lam0 + r * rng.unit_disc_point(41, 0, i) for i in range(40)]
        got = first_violations(kind, np.array(lams), delta, M, case_cfg)
        seen |= {v and v.kind for v in got}
        for lam, v in zip(lams, got):
            lat = make_lattice(kind, lam, case_cfg)
            outcome = iterate(lat, lat.crit_values[0], M, case_cfg).outcome
            if isinstance(outcome, EscapedSphericalBall) and v is not None:
                at_escape += v.step == outcome.step
    assert seen == {None, *ViolationKind}
    assert at_escape > 0


def _step_one_label(dists, delta):
    """The proximity label the scalar rules give step 1, from the (crit, inf)
    distances of the z_1 of each critical orbit in order: infinity before
    the critical points, the first near orbit on a tie."""
    for d_crit, d_inf in dists:
        if d_inf < delta:
            return ViolationKind.NEAR_INFINITY
        if d_crit < delta:
            return ViolationKind.NEAR_CRITICAL
    return None


@pytest.mark.parametrize("which", [0, 1], ids=["crit", "inf"])
def test_first_violations_decide_at_the_exact_distance(cfg, which):
    # delta is d, the smallest scalar distance of the z_1 of the critical
    # orbits (which = 0: to the critical points, 1: to infinity), then the
    # next float above it: the strict test calls that z_1 near only at the
    # second, and the lockstep check must draw the line where the scalar
    # check does.  Parameters whose step-1 label at the second delta is
    # the other one are skipped.
    label = (ViolationKind.NEAR_CRITICAL, ViolationKind.NEAR_INFINITY)[which]
    for kind in (LatticeKind.SQUARE, LatticeKind.TRIANGULAR):
        tried = 0
        for i in range(200):
            lam = 1.7 + 1.7j + 1.2 * rng.unit_disc_point(43, 0, i)
            lat = make_lattice(kind, lam, cfg)
            crits = lat.crit_values if kind is LatticeKind.TRIANGULAR else lat.crit_values[:1]
            try:
                zs = [wp(e, lat, cfg) for e in crits]
            except lattice.PoleHit:
                continue
            dists = [(crit_sph_dist(z, lat), sph_dist_to_inf(z)) for z in zs]
            d = min(pair[which] for pair in dists)
            above = math.nextafter(d, math.inf)
            if _step_one_label(dists, above) is not label:
                continue
            assert _step_one_label(dists, d) is not label
            for delta in (d, above):
                got = first_violations(kind, np.array([lam]), delta, 40, cfg)
                assert got == [_orbit_first_violation(kind, lam, delta, 40, cfg)]
                assert (got[0] == Violation(step=1, kind=label)) == (delta == above)
            tried += 1
            if tried == 4:
                break
        assert tried == 4


@pytest.mark.parametrize("block", [1, 7])
def test_density_scan_rows_do_not_depend_on_block_size(cfg, monkeypatch, block):
    cases = [
        (LatticeKind.SQUARE, CANDIDATE, (1e-3, 1e-5), 20),
        (LatticeKind.TRIANGULAR, 1.5 + 1.0j, (0.3,), 12),
    ]
    def scan_all():
        return [
            density_scan(kind, lam0, radii, 30, 0.05, M, 5, cfg) for kind, lam0, radii, M in cases
        ]

    whole = scan_all()
    assert any(0.0 < row.fail_fraction < 1.0 for rows in whole for row in rows)
    monkeypatch.setattr(misiurewicz, "BLOCK_SIZE", block)
    assert scan_all() == whole


def test_density_scan_counts_excluded_parameters_as_failures(cfg):
    for lam0 in (complex(math.nan, 0.0), complex(math.inf, 1.0)):
        rows = density_scan(LatticeKind.SQUARE, lam0, (1e-3,), 5, 0.05, 10, 1, cfg)
        assert [r.fail_fraction for r in rows] == [1.0]


@pytest.mark.parametrize(
    "lam0",
    [PREPOLE_SQ, 0j, complex(-0.0, -0.0), 2.0, complex(math.nan, 0.0), complex(math.inf, 1.0)],
    ids=["prepole", "zero", "negative-zero", "float", "nan", "inf"],
)
def test_density_params_have_the_bits_of_the_scalar_sum(lam0):
    # at the subnormal radius r * u rounds to signed zeros, whose signs only
    # CPython's complex(r, 0.0) * u terms give
    for ri, r in enumerate((1e-3, 0.7, 2, 5e-324)):
        got = misiurewicz._density_params(lam0, r, 11, ri, 500)
        want = np.array([lam0 + r * rng.unit_disc_point(11, ri, i) for i in range(500)])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_density_scan_counts_equal_the_violation_list(cfg):
    # density_scan counts the nonzero codes of _violation_codes; on sets of
    # both kinds that reach every outcome, the count is the refused scales
    # plus the Violations of first_violations
    seen = set()
    for kind, lam0, r, delta, M, case_cfg in VIOLATION_CASES:
        case_cfg = case_cfg or cfg
        lams = np.array([lam0 + r * rng.unit_disc_point(41, 0, i) for i in range(40)])
        kept = lams[lattice._scales_ok(lams)]
        violations = first_violations(kind, kept, delta, M, case_cfg)
        seen |= {v and v.kind for v in violations}
        fails = lams.size - kept.size + sum(v is not None for v in violations)
        [row] = density_scan(kind, lam0, (r,), 40, delta, M, 41, case_cfg)
        assert row.fail_fraction == fails / 40
    assert seen == {None, *ViolationKind}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_first_violation_step_grows_per_decade_as_the_multiplier_predicts(cfg, seed):
    # near CANDIDATE the critical value lands on a repelling fixed point of
    # multiplier mult, so a parameter r away leaves its delta-neighborhood
    # after about log(1/r)/log|mult| steps: the median first-violation step
    # rises by 1/log10|mult| (about 1.86) per decade of r.  Near a prepole the
    # step does not depend on r at all (the criterion-6 input).
    radii = [10.0 ** -k for k in range(2, 7)]
    medians = []
    for ri, r in enumerate(radii):
        lams = np.array([CANDIDATE + r * rng.unit_disc_point(seed, ri, i) for i in range(300)])
        steps = [v.step for v in first_violations(LatticeKind.SQUARE, lams, 0.05, 200, cfg)]
        medians.append(np.median(steps))
    slope = np.polyfit(-np.log10(radii), medians, 1)[0]
    assert abs(slope - 1.0 / math.log10(CANDIDATE_ABS_MULT)) < 0.3


@pytest.mark.parametrize(
    "override",
    [
        {"n_samples": 0},
        {"n_samples": -3},
        {"radii": (1e-3, 0.0)},
        {"radii": (-1e-3,)},
        {"radii": (1e-3, math.nan)},
        {"radii": (math.inf,)},
        {"M": 0},
        {"delta": math.nan},
        {"delta": -0.05},
    ],
    ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()),
)
def test_density_scan_rejects_bad_input(cfg, override):
    args = {"radii": (1e-3,), "n_samples": 4, "delta": 0.05, "M": 10} | override
    with pytest.raises(ValueError):
        density_scan(
            LatticeKind.SQUARE, PREPOLE_SQ, args["radii"], args["n_samples"],
            args["delta"], args["M"], 1, cfg,
        )


def test_prepole_residual_equals_scalar_wp_loop(cfg):
    cases = ((LatticeKind.SQUARE, PREPOLE_SQ, 1), (LatticeKind.TRIANGULAR, 1.3 + 0.8j, 3))
    for kind, lam, n in cases:
        lat = make_lattice(kind, lam, cfg)
        z = lat.crit_values[0]
        for _ in range(n):
            z = wp(z, lat, cfg)
        assert prepole_residual(kind, lam, n, 1, -1, cfg) == z - pole_location(kind, lam, 1, -1)
    with pytest.raises(PrematurePole) as hit:
        prepole_residual(LatticeKind.SQUARE, PREPOLE_SQ, 3, 0, 0, ToleranceConfig(pole_eps=1e-4))
    assert hit.value.step == 1
    with pytest.raises(ZeroParameter):
        prepole_residual(LatticeKind.SQUARE, 0j, 1, 1, 0, cfg)


def test_recount_finds_two_roots_in_a_disc_certified_as_one(cfg):
    # the grid-48 square sweep certifies this (1, -1, -1) disc as holding one
    # root: its 64-point contour winds once with every increment below pi/2,
    # while 256 points and more wind twice; the first-clean-level rule of
    # winding_count shares that aliasing
    center = 1.1387665584241071 + 0.5664061019804183j
    radius = 0.06176243100760888
    assert recount(LatticeKind.SQUARE, 1, -1, -1, center, radius, cfg) == 2
    assert winding_count(LatticeKind.SQUARE, 1, -1, -1, center, radius, cfg) == 1
    # an isolated root counts once
    assert recount(LatticeKind.SQUARE, 1, 1, 0, PREPOLE_SQ, 1e-3, cfg) == 1
