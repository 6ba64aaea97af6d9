import cmath
import math

import numpy as np
import pytest

from conftest import ATTRACTING_SQ, CANDIDATE, CANDIDATE_ABS_MULT
from weierdyn import hyperbolic
from weierdyn.hyperbolic import (
    DEFAULT_N_STEPS,
    DegenerateRadius,
    InsufficientSampling,
    NearZero,
    NoExpansion,
    PoleOnOrbit,
    SeparationViolated,
    adapted_metric,
    build_sample,
    distortion_report,
    fit_expansion,
    order_K,
    track_motion,
    winding_number,
    x_function,
)
from weierdyn.lattice import LatticeKind, make_lattice, sph_deriv, wp_pair


def test_build_sample_certificates(candidate_sample):
    s = candidate_sample
    assert len(s.points) == 17
    assert s.N_exp == 1
    assert s.ext_usable == 27
    assert len(s.ext_points) == len(s.points) + 64
    assert abs(s.min_crit_dist - 0.28292) < 1e-4
    assert abs(s.min_inf_dist - 1.04802) < 1e-4
    # the orbit settles on the repelling fixed point, so late factors match
    # the fixed-point multiplier
    assert abs(s.ext_factors[20] - CANDIDATE_ABS_MULT) < 1e-3


def test_build_sample_expansion_certificate(cfg, candidate_sample, square2):
    # N_exp = 1 promises every one-step window expands by at least a_tilde
    s = candidate_sample
    assert s.a_tilde == 2.0
    assert min(s.ext_factors[: len(s.points)]) > s.a_tilde


def test_build_sample_degenerate_single_point(cfg):
    s = build_sample(LatticeKind.SQUARE, CANDIDATE, 0, 0.02, cfg)
    assert len(s.points) == 1
    assert s.N_exp >= 1


def test_build_sample_separation_violation(cfg):
    # the critical value itself sits 0.283 from the nearest critical point,
    # so delta = 0.3 dies at step 0
    with pytest.raises(SeparationViolated) as info:
        build_sample(LatticeKind.SQUARE, CANDIDATE, 16, 0.3, cfg)
    assert info.value.step == 0
    assert info.value.kind == "crit"


def test_build_sample_no_expansion_at_attracting(cfg):
    with pytest.raises(NoExpansion):
        build_sample(LatticeKind.SQUARE, ATTRACTING_SQ, 48, 0.02, cfg)


def test_adapted_metric_single_step_is_unit(cfg, square2):
    assert adapted_metric(0.3 + 0.4j, square2, 1, cfg) == 1.0


def test_adapted_metric_critical_point_averages_half(cfg, square2):
    # the derivative vanishes at a half-period, so the two-step average is
    # (1 + 0)/2
    h = square2.gen1 / 2.0
    assert abs(adapted_metric(h, square2, 2, cfg) - 0.5) < 1e-12


def test_adapted_metric_pole_on_orbit(cfg, square2):
    with pytest.raises(PoleOnOrbit):
        adapted_metric(square2.gen1, square2, 2, cfg)


def test_adapted_metric_expansion_bound(cfg, candidate_sample):
    # in the adapted metric every sample point expands by at least
    # 1 + (a_tilde - 1)/(N * C1) in one step
    from weierdyn.lattice import make_lattice

    s = candidate_sample
    lat = make_lattice(s.kind, s.lambda0, cfg)
    N = s.N_exp
    dvals = [adapted_metric(z, lat, N, cfg) for z in s.points]
    C1 = max(dvals)
    bound = 1.0 + (s.a_tilde - 1.0) / (N * C1)
    for z, dz in zip(s.points, dvals):
        p, dp = wp_pair(z, lat, cfg)
        factor = sph_deriv(dp, z, p) * adapted_metric(p, lat, N, cfg) / dz
        assert factor >= bound - 1e-9


def test_track_motion_identity_within_eval_tol(cfg, candidate_sample):
    # anchored at the critical value the chain replays the stored orbit
    # bit for bit; downstream anchors drift by Newton rounding only
    frame0 = track_motion(candidate_sample, candidate_sample.points[0], CANDIDATE, 12, cfg)
    assert frame0.h_value == candidate_sample.points[0]
    for z0 in candidate_sample.points[:4]:
        frame = track_motion(candidate_sample, z0, CANDIDATE, 12, cfg)
        assert abs(frame.h_value - z0) <= cfg.eval_tol * max(1.0, abs(z0))
        assert frame.conj_residual <= cfg.eval_tol
        assert frame.steps_used == 12


def test_track_motion_rejects_foreign_point(cfg, candidate_sample):
    with pytest.raises(ValueError):
        track_motion(candidate_sample, 123.0 + 0j, CANDIDATE, 12, cfg)


def test_track_motion_conjugacy_residual(cfg, candidate_sample):
    lam = CANDIDATE + 1e-3
    worst = 0.0
    for z0 in candidate_sample.points:
        frame = track_motion(candidate_sample, z0, lam, 20, cfg)
        if not math.isnan(frame.conj_residual):
            worst = max(worst, frame.conj_residual)
    assert worst > 0.0
    assert worst < 10.0 * cfg.newton_tol


def test_track_motion_is_cauchy_in_depth(cfg, candidate_sample):
    # deeper pullbacks converge geometrically at the fixed-point rate
    lam = CANDIDATE + 1e-3
    z0 = candidate_sample.points[0]
    ref = track_motion(candidate_sample, z0, lam, 20, cfg).h_value
    diffs = {
        n: abs(track_motion(candidate_sample, z0, lam, n, cfg).h_value - ref)
        for n in (2, 6, 10)
    }
    assert diffs[2] > diffs[6] > diffs[10] > 0.0
    rate = (diffs[2] / diffs[10]) ** (1.0 / 8.0)
    assert 3.3 < rate < 3.6
    # diameter bound: runs n and n+10 apart differ by < 2 eps rate^-n
    eps = candidate_sample.delta / 2.0
    for n, d in diffs.items():
        assert d < 2.0 * eps * rate ** (-n)


def test_x_function_zero_only_at_base(cfg, candidate_sample):
    assert x_function(candidate_sample, CANDIDATE, cfg) == 0j
    for kk in range(16):
        lam = CANDIDATE + 1e-3 * cmath.exp(2j * math.pi * kk / 16.0)
        assert abs(x_function(candidate_sample, lam, cfg)) > 1e-4


def test_x_function_runs_one_chain_and_equals_track_motion(cfg, candidate_sample, monkeypatch):
    # the order_K circle: x is e_lambda minus track_motion's h_value, bit for
    # bit, from one pullback chain per call (track_motion runs two)
    lams = [
        candidate_sample.lambda0 + 1e-3 * complex(math.cos(t), math.sin(t))
        for t in (2.0 * math.pi * i / 64 for i in range(64))
    ]
    e0 = candidate_sample.points[0]
    want = [
        make_lattice(LatticeKind.SQUARE, lam, cfg).crit_values[0]
        - track_motion(candidate_sample, e0, lam, DEFAULT_N_STEPS, cfg).h_value
        for lam in lams
    ]
    calls = []
    real = hyperbolic._pullback_chain

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hyperbolic, "_pullback_chain", spy)
    for lam, w in zip(lams, want):
        calls.clear()
        assert x_function(candidate_sample, lam, cfg) == w
        assert len(calls) == 1


def test_winding_number_synthetic_loops():
    circle = [cmath.exp(2j * math.pi * t / 64.0) for t in range(64)]
    assert winding_number(circle) == 1
    assert winding_number([c**3 for c in circle]) == 3
    assert winding_number([2.0 + 0.1 * c for c in circle]) == 0


def test_winding_number_rejects_undersampling():
    coarse = [cmath.exp(2j * math.pi * t / 3.0) for t in range(3)]
    with pytest.raises(InsufficientSampling):
        winding_number(coarse)


def test_order_K_stable_under_doubling(cfg, candidate_sample):
    assert order_K(candidate_sample, 1e-3, 64, cfg) == 1
    assert order_K(candidate_sample, 1e-3, 128, cfg) == 1
    assert order_K(candidate_sample, 5e-4, 64, cfg) == 1


def test_order_K_near_zero_radius(cfg, candidate_sample):
    with pytest.raises(NearZero):
        order_K(candidate_sample, 1e-14, 64, cfg)


def test_fit_expansion_envelope(candidate_sample):
    rep = fit_expansion(candidate_sample, 8)
    assert rep.a > 1.0
    assert abs(rep.a - 3.455251) < 1e-5
    assert abs(rep.C - 1.0) < 1e-9
    assert rep.per_step_min[0] == 1.0
    # fitted envelope really is a lower envelope
    for k, m in enumerate(rep.per_step_min):
        assert m >= rep.C * rep.a**k - 1e-9 * rep.a**k


def test_fit_expansion_rejects_bad_range(candidate_sample):
    with pytest.raises(ValueError):
        fit_expansion(candidate_sample, 0)


def test_distortion_report_pinned_values(cfg, candidate_sample):
    rep = distortion_report(candidate_sample, 1e-6, 20, cfg)
    assert rep.pairs_used == 20
    assert rep.max_ratio < 0.1
    assert abs(rep.max_ratio - 1.139210e-4) < 1e-8
    assert abs(rep.corollary_ratio - 1.213e-4) < 1e-5


def test_distortion_shrinks_with_radius(cfg, candidate_sample):
    ratios = [
        distortion_report(candidate_sample, r, 20, cfg).max_ratio
        for r in (1e-6, 5e-7, 2.5e-7)
    ]
    assert ratios[0] >= ratios[1] >= ratios[2]


def test_distortion_identical_parameters_give_unit_product(cfg, candidate_sample):
    # the pair ratio is a product of derivative quotients; the same parameter
    # on both sides of distortion_report's pair loop collapses it to 1
    r = 1e-6
    delta_p = min(candidate_sample.delta / 4.0, r * hyperbolic.DISTORTION_BUDGET)
    a = CANDIDATE + r * cmath.exp(0.3j)
    ratio, n = hyperbolic._pair_ratio(candidate_sample, a, a, delta_p, cfg)
    assert n >= 3
    assert ratio <= 1e-15
    # a distinct pair through the same loop does not collapse
    ratio, n = hyperbolic._pair_ratio(candidate_sample, a, CANDIDATE + 0.5 * r, delta_p, cfg)
    assert n >= 3
    assert ratio > 1e-9


def test_distortion_rejects_degenerate_radius(cfg, candidate_sample):
    with pytest.raises(DegenerateRadius):
        distortion_report(candidate_sample, 1.0, 20, cfg)
    with pytest.raises(ValueError):
        distortion_report(candidate_sample, -1e-6, 20, cfg)
    with pytest.raises(ValueError):
        distortion_report(candidate_sample, 1e-6, 0, cfg)


def test_distortion_rejects_single_point_sample(cfg):
    # an M = 0 sample compares no steps: the radius is degenerate, whatever r
    sample = build_sample(LatticeKind.SQUARE, CANDIDATE, 0, 0.02, cfg)
    with pytest.raises(DegenerateRadius):
        distortion_report(sample, 1e-6, 20, cfg)


def test_distortion_reruns_identically(cfg, candidate_sample):
    a = distortion_report(candidate_sample, 1e-6, 20, cfg)
    b = distortion_report(candidate_sample, 1e-6, 20, cfg)
    assert a == b
