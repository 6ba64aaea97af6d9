import cmath
import dataclasses
import math
import random
import sys
from collections import Counter

import numpy as np
import pytest

from conftest import (
    ATTRACTING_SQ, CANDIDATE, CANDIDATE_ABS_MULT, PREPOLE_SQ, PREPOLE_TRI, SUPER_SQ, TRI_ONE,
)
from oracles import (
    build_sample_scalar,
    close_horizon,
    distortion_report_scalar,
    fit_expansion_scalar,
    pair_ratio,
    param_orbit,
    pullback_chain,
    track_motion_scalar,
    x_function_scalar,
)
from weierdyn import dynamics, hyperbolic, lattice
from weierdyn.cli import main
from weierdyn.hyperbolic import (
    DEFAULT_N_STEPS,
    DegenerateRadius,
    InsufficientSampling,
    NearZero,
    NoExpansion,
    PoleOnOrbit,
    SeparationViolated,
    ShadowLost,
    adapted_metric,
    build_sample,
    distortion_report,
    fit_expansion,
    order_K,
    track_motion,
    winding_number,
    x_function,
)
from weierdyn.dynamics import iterate
from weierdyn.lattice import (
    LatticeKind,
    ToleranceConfig,
    ZeroParameter,
    make_lattice,
    sph_deriv,
    sph_dist,
    wp,
    wp_pair,
)


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


@pytest.mark.parametrize("delta", [math.nan, -1.0, -math.inf, -5e-324])
def test_build_sample_refuses_a_nan_or_negative_delta(cfg, delta):
    with pytest.raises(ValueError, match="^delta must be non-negative$"):
        build_sample(LatticeKind.SQUARE, CANDIDATE, 16, delta, cfg)


def test_build_sample_no_expansion_at_attracting(cfg):
    with pytest.raises(NoExpansion):
        build_sample(LatticeKind.SQUARE, ATTRACTING_SQ, 48, 0.02, cfg)


def _sample_or_error(build, *args):
    """build(*args), or its exception as (type, message, step, kind)."""
    try:
        return build(*args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return type(exc), str(exc), getattr(exc, "step", None), getattr(exc, "kind", None)


@pytest.mark.parametrize("kind", list(LatticeKind), ids=lambda k: k.value)
def test_build_sample_and_fit_expansion_equal_the_scalar_oracles(cfg, kind):
    # whole samples, expansion reports and errors, bit for bit (repr), over
    # pinned and seeded parameters: expanding, attracting, superattracting
    # and prepole orbits, with violations at every step and continuations
    # cut short
    gen = random.Random(28)
    pinned = {
        LatticeKind.SQUARE: [CANDIDATE, ATTRACTING_SQ, PREPOLE_SQ, SUPER_SQ],
        LatticeKind.TRIANGULAR: [TRI_SAMPLE, TRI_ONE, PREPOLE_TRI],
    }[kind]
    lams = pinned + [complex(gen.uniform(0.5, 3.0), gen.uniform(0.5, 3.0)) for _ in range(3)]
    outcomes = Counter()
    for lam in lams:
        for M in (0, 1, 2, 3, 5, 8, 16, 26, 30, 48):
            for delta in (0.0, 0.005, 0.01, 0.02, 0.05, 0.2, math.inf):
                got = _sample_or_error(build_sample, kind, lam, M, delta, cfg)
                want = _sample_or_error(build_sample_scalar, kind, lam, M, delta, cfg)
                assert repr(got) == repr(want)
                outcomes[want[0].__name__ if isinstance(want, tuple) else "sample"] += 1
                if isinstance(want, tuple):
                    continue
                for n_range in (1, 2, 8, 20, 64, 65):
                    assert repr(_sample_or_error(fit_expansion, got, n_range)) == repr(
                        _sample_or_error(fit_expansion_scalar, want, n_range)
                    )
    assert set(outcomes) == {"sample", "SeparationViolated", "NoExpansion"}


def test_adapted_metric_single_step_is_unit(cfg, square2):
    assert adapted_metric(0.3 + 0.4j, square2, 1, cfg) == 1.0


def test_adapted_metric_critical_point_averages_half(cfg, square2):
    # the derivative vanishes at a half-period, so the two-step average is
    # (1 + 0)/2
    h = square2.gen1 / 2.0
    assert abs(adapted_metric(h, square2, 2, cfg) - 0.5) < 1e-12


def test_adapted_metric_pole_on_orbit(cfg, square2):
    with pytest.raises(PoleOnOrbit) as info:
        adapted_metric(square2.gen1, square2, 2, cfg)
    assert info.value.step == 0


def test_adapted_metric_stops_at_the_escape_scale(cfg, square2):
    # the products run along iterate, which ends an orbit from beyond
    # 1/(pole_eps*|lam|)^2 before its first step, as it ends one at a pole
    z = (1.3 + 0.7j) * dynamics.escape_scale(square2.lam, cfg.pole_eps)
    with pytest.raises(PoleOnOrbit) as info:
        adapted_metric(z, square2, 2, cfg)
    assert info.value.step == 0
    assert adapted_metric(z, square2, 1, cfg) == 1.0


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


def _spy_batches(monkeypatch):
    """The anchors of each hyperbolic._pullback_batch call, as they happen."""
    calls = []
    real = hyperbolic._pullback_batch

    def spy(*args):
        calls.append(list(args[2]))
        return real(*args)

    monkeypatch.setattr(hyperbolic, "_pullback_batch", spy)
    return calls


def test_x_function_runs_one_chain_and_equals_track_motion(cfg, candidate_sample, monkeypatch):
    # the order_K circle: x is e_lambda minus track_motion's h_value, bit for
    # bit, from one _pullback_batch of one chain per call; track_motion's
    # batch holds its two chains
    lams = _circle(candidate_sample, 1e-3, 64)
    e0 = candidate_sample.points[0]
    calls = _spy_batches(monkeypatch)
    for lam in lams:
        e = make_lattice(LatticeKind.SQUARE, lam, cfg).crit_values[0]
        calls.clear()
        h = track_motion(candidate_sample, e0, lam, DEFAULT_N_STEPS, cfg).h_value
        assert calls == [[0, 1]]
        calls.clear()
        assert _bits(x_function(candidate_sample, lam, cfg)) == _bits(e - h)
        assert calls == [[0]]


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


def _one_pair_report(sample, a, b, r, cfg):
    """distortion_report's reduction over the single pair (a, b), with the
    corollary orbits and x chains of radius r."""
    orbits, xs = hyperbolic._distortion_scales(sample, r, 1)
    h, _, e, errors, walks = hyperbolic._pullback_batch(
        sample, np.array(xs), [0, 0], [DEFAULT_N_STEPS] * 2, cfg, [a, b] + orbits[2:]
    )
    return hyperbolic._distortion(sample, r, 1, walks, e - h, errors)


def test_distortion_identical_parameters_give_unit_product(cfg, candidate_sample):
    # the pair ratio is a product of derivative quotients; the same parameter
    # on both sides of distortion_report's pair loop collapses it to 1
    r = 1e-6
    a = CANDIDATE + r * cmath.exp(0.3j)
    rep = _one_pair_report(candidate_sample, a, a, r, cfg)
    assert rep.pairs_used == 1
    assert rep.max_ratio <= 1e-15
    # a distinct pair through the same loop does not collapse
    rep = _one_pair_report(candidate_sample, a, CANDIDATE + 0.5 * r, r, cfg)
    assert rep.pairs_used == 1
    assert rep.max_ratio > 1e-9
    # the oracle's scalar pair loop agrees
    delta_p = min(candidate_sample.delta / 4.0, r * hyperbolic.DISTORTION_BUDGET)
    ratio, n = pair_ratio(candidate_sample, a, CANDIDATE + 0.5 * r, delta_p, cfg)
    assert n >= 3 and ratio == rep.max_ratio


def _outcome(fn, *args):
    """fn(*args), or the exception it raises."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return exc


@pytest.fixture(scope="module")
def distortion_samples(cfg):
    samples = {}
    for kind, lam0 in ((LatticeKind.SQUARE, CANDIDATE), (LatticeKind.TRIANGULAR, TRI_SAMPLE)):
        for M in (2, 3, 16):
            samples[kind, M] = build_sample(kind, lam0, M, 0.02, cfg)
    return samples


@pytest.mark.parametrize("kind", [LatticeKind.SQUARE, LatticeKind.TRIANGULAR], ids=lambda k: k.value)
@pytest.mark.parametrize("M", [2, 3, 16])
def test_distortion_report_equals_the_scalar_oracle(cfg, distortion_samples, kind, M):
    # the report compares with ==, so every float has the oracle's bits; an
    # error has the oracle's type and message
    sample = distortion_samples[kind, M]
    kinds = set()
    for r in (1e-6, 5e-7, 2.5e-7, 1e-3, 1.0):
        for n_pairs in (1, 3, 20):
            got = _outcome(distortion_report, sample, r, n_pairs, cfg)
            want = _outcome(distortion_report_scalar, sample, r, n_pairs, cfg)
            kinds.add(type(want).__name__)
            if isinstance(want, Exception):
                assert type(got) is type(want) and str(got) == str(want)
            else:
                assert _same_report(got, want)
    assert kinds == ({"DegenerateRadius"} if M == 2 else {"DistortionReport", "DegenerateRadius"})


def test_distortion_report_raises_the_errors_of_the_scalar_loop(cfg, candidate_sample):
    # a refused scale, a lost x chain and rejected arguments, each the
    # oracle's exception at the oracle's point of the loop
    no_ref = dataclasses.replace(candidate_sample, ext_usable=0)
    tight = dataclasses.replace(candidate_sample, delta=1e-9)
    refs = list(candidate_sample.ext_points)
    refs[20] = complex(math.nan, 0.0)
    lost = dataclasses.replace(candidate_sample, ext_points=tuple(refs))
    # every scale of a radius 1e-200 around 0 has a cube that underflows
    at_zero = dataclasses.replace(candidate_sample, lambda0=0j)
    cases = [
        (candidate_sample, math.nan, 20), (candidate_sample, math.inf, 3), (at_zero, 1e-200, 20),
        (candidate_sample, 1e-300, 3), (candidate_sample, 5e-324, 2),
        (candidate_sample, 0.0, 3), (candidate_sample, 1e-6, 0),
        (no_ref, 1e-6, 3), (tight, 1e-10, 3), (lost, 1e-6, 3),
    ]
    names = []
    for sample, r, n_pairs in cases:
        got = _outcome(distortion_report, sample, r, n_pairs, cfg)
        want = _outcome(distortion_report_scalar, sample, r, n_pairs, cfg)
        names.append(type(want).__name__)
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert _same_report(got, want)
    assert set(names) == {
        "ZeroParameter", "ValueError", "DegenerateRadius", "ShadowLost", "DistortionReport",
    }


@pytest.mark.parametrize("r", [math.nan, math.inf])
def test_distortion_report_refuses_a_non_finite_radius(cfg, candidate_sample, r):
    # a NaN or infinite r once made every scale NaN, and the refusal of the
    # first one was blamed on the lattice scale
    with pytest.raises(ValueError, match="^r must be finite$"):
        distortion_report(candidate_sample, r, 3, cfg)
    got = hyperbolic.verify_motion(candidate_sample, 1e-3, 12, 64, r, 3, cfg)
    assert str(got.distortion) == "r must be finite" and got.order == 1


@pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
def test_order_K_and_verify_motion_refuse_a_non_finite_rho(
    cfg, candidate_sample, monkeypatch, rho
):
    # the batch never runs: a NaN or infinite rho made every frame's scale
    # NaN or infinite, which make_lattice refused as the lattice scale
    def refuse(*args):
        raise AssertionError("the batch must not run")

    monkeypatch.setattr(hyperbolic, "_pullback_batch", refuse)
    with pytest.raises(ValueError, match="^rho must be finite$"):
        order_K(candidate_sample, rho, 64, cfg)
    with pytest.raises(ValueError, match="^rho must be finite$"):
        hyperbolic.verify_motion(candidate_sample, rho, 12, 64, 1e-6, 20, cfg)


def test_distortion_corollary_reads_the_scalar_loop_in_order(cfg, candidate_sample):
    # the corollary's orbits at lambda_e + h and lambda_e - h are checked
    # before the x chains, each pair in that order, and an orbit that ends
    # at step n_e (iterate's points one short) gives no xi'
    r, n_pairs = 1e-6, 3
    orbits, xs = hyperbolic._distortion_scales(candidate_sample, r, n_pairs)
    h, _, e, errors, walks = hyperbolic._pullback_batch(
        candidate_sample, np.array(xs), [0, 0], [DEFAULT_N_STEPS] * 2, cfg, orbits
    )
    at = 2 * n_pairs
    delta_p = min(candidate_sample.delta / 4.0, r * hyperbolic.DISTORTION_BUDGET)
    pts_e, ders_e = param_orbit(LatticeKind.SQUARE, orbits[at], 16, cfg)
    n_e = min(close_horizon(candidate_sample, pts_e, delta_p), len(ders_e))
    assert 1 <= n_e < 16

    def report(orbit_errors=(None, None), x_errors=(None, None), size=None):
        err = list(walks.errors)
        err[at + 1 : at + 3] = orbit_errors
        sizes = walks.size.copy()
        if size is not None:
            sizes[at + 1] = size
        cut = dataclasses.replace(walks, errors=err, size=sizes)
        return _outcome(
            hyperbolic._distortion, candidate_sample, r, n_pairs, cut, e - h, list(x_errors)
        )

    assert report() == distortion_report(candidate_sample, r, n_pairs, cfg)
    refused = ZeroParameter("lattice scale must be nonzero and finite")
    lost, lost_too = ShadowLost(step=5), ShadowLost(step=7)
    assert report((None, refused), (lost, None)) is refused
    assert report((None, None), (None, lost)) is lost
    assert report((None, None), (lost_too, lost)) is lost_too
    # one point short of n_e + 1: no xi', so no x chain is read either
    short = report(x_errors=(lost, lost), size=n_e)
    assert math.isnan(short.corollary_ratio)
    assert report(x_errors=(lost, lost), size=n_e + 1) is lost


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


# the triangular sample of the lockstep tests: orbit expanding with N_exp = 1
TRI_SAMPLE = 2.3364428785230364 + 0.7841800498035085j


def _circle(sample, rho, count):
    return [
        sample.lambda0 + rho * complex(math.cos(t), math.sin(t))
        for t in (2.0 * math.pi * i / count for i in range(count))
    ]


def _scalar_outcomes(sample, lams, cfg):
    """The scalar x_function per scale: the value, or the exception it raises."""
    out = []
    for lam in lams:
        try:
            out.append(x_function_scalar(sample, lam, cfg))
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            out.append(exc)
    return out


def _x_batch(sample, lams, cfg):
    """x on the circle lams from one anchor-0 batch, as order_K forms it."""
    n = len(lams)
    h, _, e, errors, _ = hyperbolic._pullback_batch(
        sample, np.array(lams), [0] * n, [DEFAULT_N_STEPS] * n, cfg
    )
    return e - h, errors


def _bits(z):
    return np.array([z], dtype=complex).view(np.int64).tolist()


def _same_report(got, want):
    """Whether two DistortionReports are equal, a NaN corollary equal to NaN."""
    if math.isnan(want.corollary_ratio):
        return math.isnan(got.corollary_ratio) and dataclasses.replace(
            got, corollary_ratio=0.0
        ) == dataclasses.replace(want, corollary_ratio=0.0)
    return got == want


def _same_outcome(got, err, want):
    """Whether a batch element (value got, error err) is the scalar outcome
    want: the same exception type, message and step, or no error and the
    same bits."""
    if isinstance(want, Exception):
        return (
            type(err) is type(want) and str(err) == str(want)
            and getattr(err, "step", None) == getattr(want, "step", None)
        )
    return err is None and _bits(got) == _bits(want)


def _assert_batch_is_scalar(sample, lams, cfg):
    x, errors = _x_batch(sample, lams, cfg)
    want = _scalar_outcomes(sample, lams, cfg)
    assert len(errors) == len(want) == x.size
    for got, err, w in zip(x.tolist(), errors, want):
        assert _same_outcome(got, err, w)
    return want


@pytest.mark.parametrize("count", [64, 128])
@pytest.mark.parametrize(
    "kind, lambda0", [(LatticeKind.SQUARE, CANDIDATE), (LatticeKind.TRIANGULAR, TRI_SAMPLE)]
)
def test_pullback_batch_has_the_bits_of_x_function(cfg, kind, lambda0, count):
    sample = build_sample(kind, lambda0, 16, 0.02, cfg)
    want = _assert_batch_is_scalar(sample, _circle(sample, 1e-3, count), cfg)
    assert not any(isinstance(w, Exception) for w in want)
    assert order_K(sample, 1e-3, count, cfg) == winding_number(want) == 1


def _refuse_scalar_path(monkeypatch, refuse):
    """Patch refuse over every scalar way into wp: hyperbolic's make_lattice
    and iterate, and wp_pair where lattice's wp and dynamics' iterate look it
    up.  hyperbolic itself holds no wp_pair."""
    assert not hasattr(hyperbolic, "wp_pair")
    for module, name in [(hyperbolic, "make_lattice"), (hyperbolic, "iterate"),
                         (lattice, "wp_pair"), (dynamics, "wp_pair")]:
        monkeypatch.setattr(module, name, refuse)


def test_order_K_builds_no_lattice_and_calls_no_scalar_wp(cfg, candidate_sample, monkeypatch):
    calls = []

    def refuse(*args):
        calls.append(args)
        raise AssertionError("order_K must not take the scalar path")

    _refuse_scalar_path(monkeypatch, refuse)
    assert order_K(candidate_sample, 1e-3, 64, cfg) == 1
    assert calls == []


@pytest.mark.parametrize("failing", [1, 32, 63])
def test_order_K_raises_the_shadow_lost_of_the_scalar_loop(cfg, candidate_sample, failing):
    # shrink delta until sph_dist > delta/2 trips at step 0 for the `failing`
    # circle samples whose h lies farthest from points[0]; their distances
    # come from the scalar chains
    lams = _circle(candidate_sample, 1e-3, 64)
    e0 = candidate_sample.points[0]
    dist = []
    for lam in lams:
        e = make_lattice(LatticeKind.SQUARE, lam, cfg).crit_values[0]
        dist.append(sph_dist(e - x_function_scalar(candidate_sample, lam, cfg), e0))
    cut = sorted(dist)[64 - failing]
    sample = dataclasses.replace(candidate_sample, delta=2.0 * cut * (1.0 - 1e-9))
    want = _assert_batch_is_scalar(sample, lams, cfg)
    lost = [i for i, w in enumerate(want) if isinstance(w, ShadowLost)]
    assert lost == [i for i, d in enumerate(dist) if d >= cut]
    assert {want[i].step for i in lost} == {0}
    with pytest.raises(ShadowLost) as info:
        order_K(sample, 1e-3, 64, cfg)
    assert info.value.step == 0


def test_order_K_raises_at_the_first_pullback_step(cfg, candidate_sample):
    # a delta below every step-26 distance fails each chain on its first step
    sample = dataclasses.replace(candidate_sample, delta=5e-4)
    want = _assert_batch_is_scalar(sample, _circle(sample, 1e-3, 64), cfg)
    assert {w.step for w in want} == {sample.ext_usable - 1}
    with pytest.raises(ShadowLost) as info:
        order_K(sample, 1e-3, 64, cfg)
    assert info.value.step == sample.ext_usable - 1


@pytest.mark.parametrize(
    "bad", [complex(math.nan, 0.0), complex(math.inf, 1.0), complex(1e300, 1e300)]
)
@pytest.mark.parametrize("at", [5, 27])
def test_non_finite_newton_iterate_is_shadow_lost(cfg, candidate_sample, bad, at):
    # a non-finite reference point at step 5 is the first Newton iterate
    # there; a non-finite or huge target at the horizon (27) makes the
    # update w - g/dval non-finite, so the next iterate of step 26 is
    refs = list(candidate_sample.ext_points)
    refs[at] = bad
    sample = dataclasses.replace(candidate_sample, ext_points=tuple(refs))
    lams = _circle(sample, 1e-3, 16)
    want = _assert_batch_is_scalar(sample, lams, cfg)
    step = min(at, sample.ext_usable - 1)
    assert all(isinstance(w, ShadowLost) and w.step == step for w in want)
    with pytest.raises(ShadowLost) as info:
        order_K(sample, 1e-3, 16, cfg)
    assert info.value.step == step


def test_pullback_batch_records_refusals_in_the_scalar_order(cfg, candidate_sample):
    # make_lattice's refusal of a scale comes before any pullback step,
    # and order_K raises the error of the lowest circle index
    lams = _circle(candidate_sample, 1e-3, 8)
    lams[2] = 0j
    lams[3] = 1e-170 + 0j
    lams[5] = complex(math.nan, 1.0)
    want = _assert_batch_is_scalar(candidate_sample, lams, cfg)
    assert [type(w).__name__ for w in want].count("ZeroParameter") == 3
    # a pole_eps of 0.6 puts every half-period in pole: make_lattice's PoleHit
    wide = dataclasses.replace(cfg, pole_eps=0.6)
    want = _assert_batch_is_scalar(candidate_sample, lams, wide)
    assert [type(w).__name__ for w in want] == [
        "PoleHit", "PoleHit", "ZeroParameter", "ZeroParameter",
        "PoleHit", "ZeroParameter", "PoleHit", "PoleHit",
    ]
    # no reference orbit beyond the anchor: ValueError after the refusals
    short = dataclasses.replace(candidate_sample, ext_usable=0)
    want = _assert_batch_is_scalar(short, lams, cfg)
    assert [type(w).__name__ for w in want].count("ValueError") == 5
    with pytest.raises(ValueError, match="no reference orbit"):
        order_K(short, 1e-3, 8, cfg)


def test_x_function_and_track_motion_build_no_lattice(cfg, candidate_sample, monkeypatch):
    # each public call is one _pullback_batch call, which gives no scale a
    # Lattice and evaluates no scalar wp
    def refuse(*args, **kwargs):
        raise AssertionError("the motion views must not take the scalar path")

    monkeypatch.setattr(lattice.Lattice, "__init__", refuse)
    _refuse_scalar_path(monkeypatch, refuse)
    calls = _spy_batches(monkeypatch)
    lam = CANDIDATE + 1e-3j
    x_function(candidate_sample, lam, cfg)
    assert calls == [[0]]
    calls.clear()
    z = candidate_sample.points[2]
    a = hyperbolic._anchor(candidate_sample, z, cfg)
    frame = track_motion(candidate_sample, z, lam, 20, cfg)
    assert calls == [[a, a + 1]]
    assert not math.isnan(frame.conj_residual)
    # at the last anchor of a sample with no reference point two steps past
    # it, the downstream chain has no horizon: a NaN residual
    calls.clear()
    short = dataclasses.replace(candidate_sample, ext_usable=17)
    frame = track_motion(short, short.points[16], lam, 20, cfg)
    assert calls == [[16, 17]] and math.isnan(frame.conj_residual)


def _chain_outcome(sample, lam, anchor, n_steps, cfg):
    """The scalar pullback chain on make_lattice(lam): its h_value, or the
    exception."""
    try:
        lat = make_lattice(sample.kind, lam, cfg)
        return pullback_chain(sample, lat, anchor, n_steps, cfg)[0]
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return exc


def _mixed_batch(sample):
    """Elements of every kind of outcome: (scales, anchors, n_steps)."""
    lam0 = sample.lambda0
    scales = [lam0, lam0 + 1e-3, lam0 + 1e-3j, lam0 - 2e-3, 0j, complex(math.nan, 1.0)]
    rows = []
    for at, lam in enumerate(scales):
        for anchor, n in [(0, 48), (0, 12), (3, 5), (8, 12), (10, 12), (20, 12),
                          (sample.ext_usable - 1, 12), (sample.ext_usable, 12), (at, 1)]:
            rows.append((lam, anchor, n))
    return [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]


def _assert_mixed_is_scalar(sample, cfg):
    lams, anchors, steps = _mixed_batch(sample)
    h, _, _, errors, _ = hyperbolic._pullback_batch(sample, np.array(lams), anchors, steps, cfg)
    want = [_chain_outcome(sample, *row, cfg) for row in zip(lams, anchors, steps)]
    for got, err, w in zip(h.tolist(), errors, want):
        assert _same_outcome(got, err, w)
    return anchors, want


def test_pullback_batch_gives_wp_of_each_h(cfg, candidate_sample):
    # fh[i] is scalar wp of h[i] on the chain's lattice, the value
    # track_motion computes for its conjugacy residual
    lams, anchors, steps = _mixed_batch(candidate_sample)
    h, fh, _, errors, _ = hyperbolic._pullback_batch(
        candidate_sample, np.array(lams), anchors, steps, cfg
    )
    solved = [i for i, err in enumerate(errors) if err is None]
    assert len(solved) >= 16
    for i in solved:
        lat = make_lattice(LatticeKind.SQUARE, lams[i], cfg)
        assert _bits(fh[i]) == _bits(wp(h[i], lat, cfg))


def test_pullback_batch_mixed_chains_have_the_scalar_bits(cfg, candidate_sample):
    # refs[20] non-finite: a chain through it loses shadowing at a step fixed
    # by its anchor, here at 20 - anchor, or at horizon - 1 when refs[20] is
    # its first target
    refs = list(candidate_sample.ext_points)
    refs[20] = complex(math.nan, 0.0)
    sample = dataclasses.replace(candidate_sample, ext_points=tuple(refs))
    anchors, want = _assert_mixed_is_scalar(sample, cfg)
    kinds = [type(w).__name__ for w in want]
    assert kinds.count("complex") == 16
    assert {"ZeroParameter", "ValueError", "ShadowLost"} <= set(kinds)
    # the pinned steps: anchor 10 meets refs[20] at step 10, anchor 8 has it
    # as the target of step 11
    at10 = anchors.index(10)
    at8 = anchors.index(8)
    assert isinstance(want[at10], ShadowLost) and want[at10].step == 10
    assert isinstance(want[at8], ShadowLost) and want[at8].step == 11
    # on the clean orbit, anchor 20 with 12 steps runs ext_usable - 20 = 7
    _, clean = _assert_mixed_is_scalar(candidate_sample, cfg)
    assert isinstance(clean[anchors.index(20)], complex)
    lat = make_lattice(LatticeKind.SQUARE, candidate_sample.lambda0, cfg)
    _, used = pullback_chain(candidate_sample, lat, 20, 12, cfg)
    assert used == candidate_sample.ext_usable - 20 < 12


def test_pullback_batch_newton_cap_has_the_scalar_steps(candidate_sample):
    # at newton_tol 1e-16 some Newton solves never converge: those chains
    # stop after 40 iterations at steps that differ from chain to chain
    tight = ToleranceConfig(newton_tol=1e-16)
    _, want = _assert_mixed_is_scalar(candidate_sample, tight)
    lost = {w.step for w in want if isinstance(w, ShadowLost)}
    assert len(lost) >= 4
    assert sum(isinstance(w, complex) for w in want) >= 8


@pytest.mark.parametrize("kind, lambda0, prepole", [
    (LatticeKind.SQUARE, CANDIDATE, 0.5783308619020432 + 0.7360677656029049j),
    (LatticeKind.TRIANGULAR, TRI_SAMPLE, 0.5392909261501828 + 0.11091500820528369j),
], ids=["square", "triangular"])
@pytest.mark.parametrize("pole_eps", [1e-6, 0.3])
def test_pullback_batch_orbits_are_iterate(cfg, kind, lambda0, prepole, pole_eps):
    # each forward orbit riding the lockstep has iterate's points, derivs and
    # end: a pole hit, an escape or the step budget; the chains it rides
    # with keep their bits and errors
    tol = ToleranceConfig(pole_eps=pole_eps)
    sample = build_sample(kind, lambda0, 16, 0.02, cfg)
    gen = np.random.default_rng(2101)
    scales = [complex(gen.uniform(0.5, 3.0), gen.uniform(0.5, 3.0)) for _ in range(60)]
    scales += [prepole, 0j, complex(math.nan, 1.0), lambda0]
    lams, anchors, steps = _mixed_batch(sample)
    h, fh, e, errors, walks = hyperbolic._pullback_batch(
        sample, np.array(lams), anchors, steps, tol, scales
    )
    h0, fh0, e0, errors0, _ = hyperbolic._pullback_batch(sample, np.array(lams), anchors, steps, tol)
    for got, want in ((h, h0), (fh, fh0), (e, e0)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert [repr(x) for x in errors] == [repr(x) for x in errors0]
    ends = set()
    for j, lam in enumerate(scales):
        try:
            lat = make_lattice(kind, lam, tol)
        except ValueError as exc:
            assert type(walks.errors[j]) is type(exc) and str(walks.errors[j]) == str(exc)
            continue
        assert walks.errors[j] is None
        trace = iterate(lat, lat.crit_values[0], 16, tol)
        ends.add(type(trace.outcome).__name__)
        n = walks.size[j]
        assert n == len(trace.points)
        assert _bits(walks.points[j, :n]) == _bits(trace.points)
        assert _bits(walks.derivs[j, : n - 1]) == _bits(trace.derivs)
        assert np.isnan(walks.points[j, n:]).all() and np.isnan(walks.derivs[j, n - 1 :]).all()
    # wp on a scale of pole_eps 0.3 emits values beyond the escape scale
    escaped = {"EscapedSphericalBall"} if pole_eps == 0.3 else set()
    assert ends == {"BudgetExhausted", "PoleHit"} | escaped


SQUARE_PREPOLE_0 = 1.1978657560733494 + 1.1978657560733494j


def _assert_walks_are_iterate(walks, kind, scales, M, tol):
    """Each orbit of walks has iterate's points and derivs over M steps, and
    nothing past them; returns iterate's outcomes."""
    ends = []
    for j, lam in enumerate(scales):
        lat = make_lattice(kind, lam, tol)
        assert walks.errors[j] is None
        trace = iterate(lat, lat.crit_values[0], max(M, 1), tol)
        n = min(len(trace.points), M + 1)
        assert walks.size[j] == n
        assert _bits(walks.points[j, :n]) == _bits(trace.points[:n])
        assert _bits(walks.derivs[j, : n - 1]) == _bits(trace.derivs[: n - 1])
        assert np.isnan(walks.points[j, n:]).all() and np.isnan(walks.derivs[j, n - 1 :]).all()
        ends.append(trace.outcome)
    return ends


def _assert_chains_are_scalar(sample, batch, h, errors, tol):
    want = [_chain_outcome(sample, *row, tol) for row in zip(*batch)]
    assert len(errors) == len(want)
    for got, err, w in zip(h.tolist(), errors, want):
        assert _same_outcome(got, err, w)


def _widths_of(monkeypatch):
    """The widths of the _wp_pair_split calls made from hyperbolic."""
    widths = []
    real = hyperbolic._wp_pair_split

    def spy(*args):
        widths.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(hyperbolic, "_wp_pair_split", spy)
    return widths


@pytest.mark.parametrize("chains", [False, True], ids=["orbits-only", "with-chains"])
def test_pullback_batch_orbits_escaping_before_their_first_step(candidate_sample, chains):
    # at pole_eps 0.4 both critical values lie beyond the escape scale, so
    # iterate ends each orbit at step 0; the chains riding along keep their
    # scalar outcomes
    tol = ToleranceConfig(pole_eps=0.4)
    scales = [CANDIDATE, 2.3 + 1.1j]
    batch = _mixed_batch(candidate_sample) if chains else ([], [], [])
    h, _, _, errors, walks = hyperbolic._pullback_batch(
        candidate_sample, np.array(batch[0], dtype=complex), batch[1], batch[2], tol, scales
    )
    ends = _assert_walks_are_iterate(walks, LatticeKind.SQUARE, scales, 16, tol)
    assert ends == [dynamics.EscapedSphericalBall(step=0)] * 2
    _assert_chains_are_scalar(candidate_sample, batch, h, errors, tol)


def test_pullback_batch_orbit_hitting_a_pole_at_step_0(cfg, candidate_sample):
    # the critical value of an order-0 prepole parameter is a pole
    scales = [SQUARE_PREPOLE_0, CANDIDATE]
    batch = _mixed_batch(candidate_sample)
    h, _, _, errors, walks = hyperbolic._pullback_batch(
        candidate_sample, np.array(batch[0]), batch[1], batch[2], cfg, scales
    )
    ends = _assert_walks_are_iterate(walks, LatticeKind.SQUARE, scales, 16, cfg)
    assert type(ends[0]) is dynamics.PoleHit and ends[0].step == 0
    assert ends[1] == dynamics.BudgetExhausted()
    _assert_chains_are_scalar(candidate_sample, batch, h, errors, cfg)


@pytest.mark.parametrize("M", [0, 1])
def test_pullback_batch_on_the_shortest_samples(cfg, M):
    # M = 0 gives the orbits no column and M = 1 one round
    sample = build_sample(LatticeKind.SQUARE, CANDIDATE, M, 0.02, cfg)
    gen = np.random.default_rng(2301)
    scales = [complex(gen.uniform(0.5, 3.0), gen.uniform(0.5, 3.0)) for _ in range(20)]
    scales += [SQUARE_PREPOLE_0, CANDIDATE]
    batch = _mixed_batch(sample)
    h, _, _, errors, walks = hyperbolic._pullback_batch(
        sample, np.array(batch[0]), batch[1], batch[2], cfg, scales
    )
    assert walks.points.shape == (len(scales), M + 1) and walks.derivs.shape == (len(scales), M)
    _assert_walks_are_iterate(walks, LatticeKind.SQUARE, scales, M, cfg)
    _assert_chains_are_scalar(sample, batch, h, errors, cfg)


def test_pullback_batch_orbits_without_chains(cfg, candidate_sample, monkeypatch):
    # orbits alone take M rounds at their full width, whether or not they
    # have ended: an ended orbit keeps its column to round M
    gen = np.random.default_rng(2302)
    scales = [complex(gen.uniform(0.5, 3.0), gen.uniform(0.5, 3.0)) for _ in range(30)]
    scales += [SQUARE_PREPOLE_0, CANDIDATE]
    widths = _widths_of(monkeypatch)
    h, fh, e, errors, walks = hyperbolic._pullback_batch(
        candidate_sample, np.array([], dtype=complex), [], [], cfg, scales
    )
    assert h.size == fh.size == e.size == len(errors) == 0
    assert widths == [len(scales)] * 16
    ends = _assert_walks_are_iterate(walks, LatticeKind.SQUARE, scales, 16, cfg)
    assert {type(end).__name__ for end in ends} == {"BudgetExhausted", "PoleHit"}


def test_pullback_batch_chains_failing_as_the_orbits_leave(cfg, candidate_sample, monkeypatch):
    # a NaN reference point at step 19 fails both x chains of a distortion
    # batch at r = 1e-4 in round 15, the last round of the M = 16 orbits:
    # every column leaves at the one compaction after it
    refs = list(candidate_sample.ext_points)
    refs[19] = complex(math.nan, 0.0)
    lost = dataclasses.replace(candidate_sample, ext_points=tuple(refs))
    orbits, xs = hyperbolic._distortion_scales(lost, 1e-4, 3)
    widths = _widths_of(monkeypatch)
    h, _, e, errors, walks = hyperbolic._pullback_batch(
        lost, np.array(xs), [0, 0], [DEFAULT_N_STEPS] * 2, cfg, orbits
    )
    assert widths == [len(orbits) + 2] * 16
    want = _scalar_outcomes(lost, xs, cfg)
    assert all(isinstance(w, ShadowLost) and w.step == 19 for w in want)
    for got, err, w in zip((e - h).tolist(), errors, want):
        assert _same_outcome(got, err, w)
    _assert_walks_are_iterate(walks, LatticeKind.SQUARE, orbits, 16, cfg)


def test_pullback_batch_is_invariant_under_permutation(cfg, candidate_sample):
    lams, anchors, steps = _mixed_batch(candidate_sample)
    h, _, e, errors, _ = hyperbolic._pullback_batch(
        candidate_sample, np.array(lams), anchors, steps, cfg
    )
    perm = np.random.default_rng(20261018).permutation(len(lams)).tolist()
    hp, _, ep, errp, _ = hyperbolic._pullback_batch(
        candidate_sample, np.array([lams[i] for i in perm]), [anchors[i] for i in perm],
        [steps[i] for i in perm], cfg,
    )
    for j, i in enumerate(perm):
        assert _same_outcome(hp[j], errp[j], h[i] if errors[i] is None else errors[i])
        assert _bits(ep[j]) == _bits(e[i])


# the motion views' scales: lambda0, 0, NaN, a scale whose cube underflows,
# and offsets from 1e-6 to 0.3, each in two opposite directions
_VIEW_OFFSETS = [1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.3]
_VIEW_STEPS = [0, 1, 5, 12, 20, 48]


def _view_scales(sample):
    lams = [sample.lambda0, 0j, complex(math.nan, 0.0), 1e-60 + 0j]
    for i, off in enumerate(_VIEW_OFFSETS):
        lams += [sample.lambda0 + off * cmath.exp(1j * math.pi * (i + d) / 4.0) for d in (0, 4)]
    return lams


def _assert_same_view(got, want):
    """got is the library's outcome, want the oracle's: the same exception
    type, message and step, or the same bits in every field."""
    if isinstance(want, Exception):
        assert _same_outcome(None, got, want)
    elif isinstance(want, complex):
        assert _bits(got) == _bits(want)
    else:
        got_bits, want_bits = (
            [_bits(v) for v in (f.z0, f.lam, f.h_value, f.conj_residual)] for f in (got, want)
        )
        assert got_bits == want_bits and got.steps_used == want.steps_used


def _view_cases():
    """(id, kind, lambda0, M, delta, pole_eps) of the motion views' samples."""
    return [
        ("square", LatticeKind.SQUARE, CANDIDATE, 16, 0.02, 1e-6),
        ("square-26", LatticeKind.SQUARE, CANDIDATE, 26, 0.02, 1e-6),
        ("square-delta-0", LatticeKind.SQUARE, CANDIDATE, 16, 0.0, 1e-6),
        ("triangular", LatticeKind.TRIANGULAR, TRI_SAMPLE, 16, 0.02, 1e-6),
        ("pole-eps-0.49", LatticeKind.SQUARE, CANDIDATE, 16, 0.02, 0.49),
    ]


@pytest.mark.parametrize("case", _view_cases(), ids=lambda c: c[0])
def test_track_motion_and_x_function_have_the_oracle_bits(cfg, case):
    # every sample point and one point off the sample, the i-th with the
    # n_steps of index i mod 6 and two seeded draws of the scale; x at every
    # scale
    name, kind, lambda0, M, delta, pole_eps = case
    sample = build_sample(kind, lambda0, M, delta, cfg)
    tol = ToleranceConfig(pole_eps=pole_eps)
    lams = _view_scales(sample)
    gen = np.random.default_rng(2701)
    seen = set()
    for i, z in enumerate(list(sample.points) + [sample.points[0] + 0.5]):
        n_steps = _VIEW_STEPS[i % len(_VIEW_STEPS)]
        for lam in (lams[j] for j in gen.choice(len(lams), 2, replace=False)):
            got = _outcome(track_motion, sample, z, lam, n_steps, tol)
            _assert_same_view(got, _outcome(track_motion_scalar, sample, z, lam, n_steps, tol))
            seen.add(type(got).__name__)
            if isinstance(got, hyperbolic.MotionFrame) and math.isnan(got.conj_residual):
                seen.add("NaN residual")
    for lam in lams:
        got = _outcome(x_function, sample, lam, tol)
        _assert_same_view(got, _outcome(x_function_scalar, sample, lam, tol))
        seen.add(type(got).__name__)
    errors = {"ShadowLost", "ValueError", "ZeroParameter"}
    values = {"MotionFrame", "complex"} if pole_eps < 0.49 else set()
    assert seen == errors | values | ({"NaN residual"} if name == "square-26" else set())
    # a pole_eps of 0.49 loses every chain through refs[25]
    lost = _outcome(x_function, sample, sample.lambda0, tol)
    assert isinstance(lost, ShadowLost) == (pole_eps == 0.49)
    assert pole_eps < 0.49 or lost.step == 25


def _motion_samples(cfg, candidate_sample):
    tri = build_sample(LatticeKind.TRIANGULAR, TRI_SAMPLE, 16, 0.02, cfg)
    return {
        "square": candidate_sample,
        "triangular": tri,
        # the last anchor has no conjugacy chain: a NaN residual
        "short": dataclasses.replace(candidate_sample, ext_usable=17),
        # the last anchor has no reference orbit: ValueError
        "shortest": dataclasses.replace(candidate_sample, ext_usable=16),
        # shadowing is lost at the first frame's step 0
        "tight": dataclasses.replace(candidate_sample, delta=0.001),
    }


@pytest.mark.parametrize("which", ["square", "triangular", "short", "shortest", "tight"])
def test_verify_motion_equals_the_scalar_calls(cfg, candidate_sample, which):
    sample = _motion_samples(cfg, candidate_sample)[which]
    rho = 1e-3
    got = hyperbolic.verify_motion(sample, rho, 12, 64, 1e-6, 20, cfg)

    ident = track_motion_scalar(sample, sample.points[0], sample.lambda0, 12, cfg)
    assert got.identity_residual == abs(ident.h_value - sample.points[0])
    assert len(got.frames) == len(sample.points)
    nan_seen = False
    for z, frame in zip(sample.points, got.frames):
        try:
            want = track_motion_scalar(sample, z, sample.lambda0 + rho, 12, cfg)
        except (ValueError, ShadowLost) as exc:
            assert _same_outcome(None, frame, exc)
            continue
        assert frame.z0 == want.z0 and frame.lam == want.lam
        assert _same_outcome(frame.h_value, None, want.h_value)
        assert frame.steps_used == want.steps_used
        if math.isnan(want.conj_residual):
            nan_seen = True
            assert math.isnan(frame.conj_residual)
        else:
            assert frame.conj_residual == want.conj_residual
    assert nan_seen == (which in ("short", "shortest"))
    try:
        want_K = order_K(sample, rho, 64, cfg)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        assert _same_outcome(None, got.order, exc)
    else:
        assert got.order == want_K
    want = _outcome(distortion_report_scalar, sample, 1e-6, 20, cfg)
    if isinstance(want, Exception):
        assert _same_outcome(None, got.distortion, want)
    else:
        assert _same_report(got.distortion, want)


def test_verify_motion_reports_the_first_failing_frame_and_order_errors(cfg, candidate_sample):
    tight = dataclasses.replace(candidate_sample, delta=0.001)
    got = hyperbolic.verify_motion(tight, 1e-3, 12, 64, 1e-6, 20, cfg)
    assert isinstance(got.conj_residual, ShadowLost) and got.conj_residual.step == 0
    got = hyperbolic.verify_motion(candidate_sample, 1e-3, 12, 3, 1e-6, 20, cfg)
    assert isinstance(got.order, ValueError) and str(got.order) == "n_samples must be at least 4"
    assert got.conj_residual == 5.89368419225394e-10
    assert got.distortion == distortion_report(candidate_sample, 1e-6, 20, cfg)
    got = hyperbolic.verify_motion(candidate_sample, 0.0, 12, 64, 1e-6, 20, cfg)
    assert isinstance(got.order, NearZero)
    # the distortion's argument checks and its degenerate radius come back
    # as values, with the motion checks still computed
    for r, n_pairs, want in ((0.0, 20, "r must be positive"), (1e-6, 0, "n_pairs must be at least 1"),
                             (1.0, 20, "no pair kept its orbits close for 3 steps")):
        got = hyperbolic.verify_motion(candidate_sample, 1e-3, 12, 64, r, n_pairs, cfg)
        assert str(got.distortion) == want and got.order == 1


def test_verify_runs_one_pullback_batch(capsys, monkeypatch):
    calls, widths = [], []
    real = hyperbolic._pullback_batch
    real_pair = hyperbolic._wp_pair_split

    def spy(*args):
        calls.append((len(args[1]), len(args[5])))
        return real(*args)

    def spy_pair(*args):
        widths.append(len(args[0]))
        return real_pair(*args)

    monkeypatch.setattr(hyperbolic, "_pullback_batch", spy)
    monkeypatch.setattr(hyperbolic, "_wp_pair_split", spy_pair)
    for name in ("track_motion", "order_K", "x_function", "distortion_report"):
        monkeypatch.setattr(hyperbolic, name, None)
    argv = ["verify", "--kind", "square", "--lambda0", "1.9101297082387314+0.7624256939043886i",
            "--m-steps", "16"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "order K = 1" in out and "distortion max_ratio=" in out
    # the identity, 16 distinct frame anchors, the 64 circle chains and the
    # two x chains; the 2 * 20 + 3 critical orbits of the distortion pairs
    assert calls == [(1 + 16 + 64 + 2, 2 * 20 + 3)]
    # the orbits ride the first 16 rounds: as many rounds as the chains alone
    assert len(widths) == 81
    assert widths[:16] == [126] * 12 + [125] * 4 and max(widths[16:]) == 82


def test_verify_runs_scalar_wp_pair_only_in_build_sample(capsys, monkeypatch):
    # every wp and wp' of verify after build_sample comes from the lockstep;
    # wp_pair is looked up in lattice (by wp) and dynamics (by iterate), and
    # hyperbolic holds no wp_pair of its own
    callers = []
    real = lattice.wp_pair

    def spy(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args)

    assert not hasattr(hyperbolic, "wp_pair")
    for module in (lattice, dynamics):
        monkeypatch.setattr(module, "wp_pair", spy)
    argv = ["verify", "--kind", "square", "--lambda0", "1.9101297082387314+0.7624256939043886i",
            "--m-steps", "16"]
    real_build = hyperbolic.build_sample
    seen = {}

    def build(*args):
        sample = real_build(*args)
        seen["build"] = len(callers)
        return sample

    monkeypatch.setattr(hyperbolic, "build_sample", build)
    assert main(argv) == 0
    assert "distortion max_ratio=" in capsys.readouterr().out
    # build_sample's make_lattice (3 wp calls, one per half-period) and its
    # iterate of M + EXTENSION = 80 steps, and nothing after
    assert callers == ["wp"] * 3 + ["iterate"] * 80 and seen["build"] == len(callers)


def test_verify_makes_no_wp_split_call_from_hyperbolic(capsys, monkeypatch):
    # wp at each frame's h comes from the _pullback_batch round that solved
    # h, so hyperbolic evaluates no wp of its own
    callers = []
    real = lattice._wp_split

    def spy(*args):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return real(*args)

    for module in (lattice, hyperbolic):
        monkeypatch.setattr(module, "_wp_split", spy, raising=False)
    argv = ["verify", "--kind", "square", "--lambda0", "1.9101297082387314+0.7624256939043886i",
            "--m-steps", "16"]
    assert main(argv) == 0
    assert "order K = 1" in capsys.readouterr().out
    assert callers and "weierdyn.hyperbolic" not in callers
