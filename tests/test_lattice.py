import cmath
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from conftest import E1_SQUARE_NORM, E1_TRI_NORM
from oracles import (
    eisenstein_direct_sum,
    wp_direct_sum,
    wp_pair_split_broadcast,
    wp_split_four_calls,
)
from weierdyn import lattice
from weierdyn.lattice import (
    LatticeKind,
    PoleHit,
    ToleranceConfig,
    ZeroParameter,
    is_infinite,
    make_lattice,
    reduce,
    sph_deriv,
    sph_dist,
    wp,
    wp_array,
    wp_pair,
)

ZETA = cmath.exp(2j * math.pi / 3)


def _interior_points(lat, count, seed):
    """Cell points with both coordinates in [0.15, 0.85], clear of poles."""
    gen = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        a, b = gen.uniform(0.15, 0.85, size=2)
        pts.append(a * lat.gen1 + b * lat.gen2)
    return pts


def test_make_lattice_generators(cfg):
    tri = make_lattice(LatticeKind.TRIANGULAR, 1.0 + 0j, cfg)
    assert tri.gen1 == 1.0 + 0j
    assert abs(tri.gen2 - ZETA) < 1e-15
    sq = make_lattice(LatticeKind.SQUARE, 2j, cfg)
    assert abs(sq.gen2 - (-2.0)) < 1e-15


def test_make_lattice_rejects_zero(cfg):
    with pytest.raises(ZeroParameter):
        make_lattice(LatticeKind.SQUARE, 0j, cfg)
    with pytest.raises(ZeroParameter):
        make_lattice(LatticeKind.TRIANGULAR, complex("inf"), cfg)


def test_tolerance_config_refuses_a_pole_eps_whose_cube_underflows():
    # wp and wp_pair divide by u0^2 and u0^2 * u0 with |u0| >= pole_eps: at
    # pole_eps 1e-160 and z = 1e-150 on the lattice of scale 2, wp_pair
    # divided by an underflowed 0
    with pytest.raises(ValueError):
        ToleranceConfig(eval_tol=1e-170, pole_eps=1e-160)
    tiny = ToleranceConfig(eval_tol=1e-110, pole_eps=1e-100)
    lat = make_lattice(LatticeKind.SQUARE, 2.0, tiny)
    with pytest.raises(PoleHit):
        wp_pair(1e-150, lat, tiny)


@pytest.mark.parametrize("field", ["eval_tol", "pole_eps", "newton_tol"])
def test_tolerance_config_refuses_an_infinite_tolerance(field):
    # an infinite tolerance would pass checks vacuously: a residual is always
    # below 10 * inf, and no point is ever within eval_tol of a pole
    with pytest.raises(ValueError, match="^tolerances must be finite$"):
        ToleranceConfig(**{field: math.inf})
    # the other refusals keep their own messages
    with pytest.raises(ValueError, match="^tolerances must be positive$"):
        ToleranceConfig(**{field: -math.inf})
    with pytest.raises(ValueError, match="^tolerances must be positive$"):
        ToleranceConfig(**{field: math.nan})
    with pytest.raises(ValueError, match="^eval_tol must be smaller than pole_eps$"):
        ToleranceConfig(eval_tol=1e-3, pole_eps=1e-6)


def test_reduce_roundtrip(cfg, square2):
    gen = np.random.default_rng(41)
    for _ in range(100):
        z = complex(gen.uniform(-9, 9), gen.uniform(-9, 9))
        u, m, n = reduce(z, square2)
        back = u + m * square2.gen1 + n * square2.gen2
        assert abs(back - z) < 1e-12 * max(1.0, abs(z))


def test_reduce_prefers_small_representative(cfg, square2):
    # 0.6*gen1 re-centers to the equivalent -0.4*gen1
    u, m, n = reduce(0.6 * square2.gen1, square2)
    assert abs(u - (-0.4) * square2.gen1) < 1e-12
    assert (m, n) == (1, 0)


def test_wp_critical_value_against_direct_sum(cfg):
    for kind, norm in (
        (LatticeKind.SQUARE, E1_SQUARE_NORM),
        (LatticeKind.TRIANGULAR, E1_TRI_NORM),
    ):
        lat = make_lattice(kind, 1.0 + 0j, cfg)
        e1 = wp(lat.gen1 / 2.0, lat, cfg)
        assert abs(e1 - norm) < 1e-10
        direct = wp_direct_sum(lat.gen1 / 2.0, lat, 300)
        assert abs(e1 - direct) < 1e-5


def test_eisenstein_row_sums_match_disk_sums(cfg, square2, tri1):
    # direct disk sums converge slowly for g2; tolerances follow the
    # measured radius-300 accuracy per kind
    g2_direct = eisenstein_direct_sum(LatticeKind.SQUARE, 4, 300) * 60.0
    g2_norm = square2.g2 * (2.0 + 0j) ** 4
    assert abs(g2_direct - g2_norm) / abs(g2_norm) < 1e-6
    g3_direct = eisenstein_direct_sum(LatticeKind.TRIANGULAR, 6, 300) * 140.0
    g3_norm = tri1.g3
    assert abs(g3_direct - g3_norm) / abs(g3_norm) < 1e-11


def test_wp_is_even_and_wp_prime_is_odd(cfg, square2):
    for z in _interior_points(square2, 50, 7):
        assert abs(wp(z, square2, cfg) - wp(-z, square2, cfg)) < 1e-9
        assert abs(wp_pair(z, square2, cfg)[1] + wp_pair(-z, square2, cfg)[1]) < 1e-9


def test_wp_periodicity(cfg, tri1):
    for z in _interior_points(tri1, 30, 11):
        base = wp(z, tri1, cfg)
        assert abs(wp(z + tri1.gen1, tri1, cfg) - base) < 1e-10
        assert abs(wp(z + 3 * tri1.gen2, tri1, cfg) - base) < 1e-10


def test_wp_prime_vanishes_at_half_periods(cfg, square2, tri1):
    for lat in (square2, tri1):
        for h in lat.half_periods:
            assert abs(wp_pair(h, lat, cfg)[1]) < 1e-9


def test_wp_pole_principal_part(cfg, square2):
    # wp(z) - 1/z^2 stays bounded near the origin pole
    for z in (1e-3 + 0j, 1e-3j, 7e-4 - 7e-4j):
        v = wp(z, square2, cfg)
        assert abs(v - 1.0 / (z * z)) < 1e-3


def test_wp_raises_at_lattice_points(cfg, square2):
    with pytest.raises(PoleHit) as info:
        wp(square2.gen1, square2, cfg)
    assert (info.value.m, info.value.n) == (1, 0)
    with pytest.raises(PoleHit):
        wp_pair(0j, square2, cfg)


def test_pole_hit_pickles_with_its_lattice_point():
    hit = pickle.loads(pickle.dumps(PoleHit(2, -1)))
    assert (type(hit), hit.m, hit.n) == (PoleHit, 2, -1)
    assert str(hit) == "point within pole_eps of lattice point (2, -1)"


def test_differential_equation(cfg):
    gen = np.random.default_rng(13)
    for kind in LatticeKind:
        for _ in range(60):
            lam = complex(gen.uniform(0.5, 2.5), gen.uniform(0.2, 2.0))
            lat = make_lattice(kind, lam, cfg)
            a, b = gen.uniform(0.15, 0.85, size=2)
            z = a * lat.gen1 + b * lat.gen2
            p, dp = wp_pair(z, lat, cfg)
            lhs = dp * dp
            rhs = 4.0 * p**3 - lat.g2 * p - lat.g3
            assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0) < 1e-8


def test_homogeneity(cfg):
    c = 1.7 - 0.9j
    for kind in LatticeKind:
        lat1 = make_lattice(kind, 1.0 + 0j, cfg)
        lat2 = make_lattice(kind, c, cfg)
        for z in _interior_points(lat1, 20, 17):
            a = wp(z, lat1, cfg)
            b = wp(c * z, lat2, cfg)
            assert abs(b - a / (c * c)) < 1e-10 * max(1.0, abs(a))


def test_kind_invariants(cfg):
    for lam in (1.0 + 0j, 2.3 + 0j, 0.7 - 1.1j):
        tri = make_lattice(LatticeKind.TRIANGULAR, lam, cfg)
        assert abs(tri.g2) < 1e-10
        sq = make_lattice(LatticeKind.SQUARE, lam, cfg)
        assert abs(sq.g3) < 1e-10


def test_crit_value_symmetry(cfg):
    tri = make_lattice(LatticeKind.TRIANGULAR, 1.8 + 1.44j, cfg)
    e1, e2, e3 = tri.crit_values
    assert abs(e2 / e1 - ZETA) < 1e-10
    assert abs(e3 / e1 - ZETA * ZETA) < 1e-10
    sq = make_lattice(LatticeKind.SQUARE, 1.7 - 0.4j, cfg)
    f1, f2, f3 = sq.crit_values
    assert abs(f2 + f1) < 1e-10 * abs(f1)
    assert abs(f3) < 1e-10


def test_wp_array_matches_scalar(cfg, square2, tri1):
    for lat in (square2, tri1):
        pts = np.array(_interior_points(lat, 40, 23) + [lat.gen1, 0j])
        vals, poles = wp_array(pts, lat, cfg)
        assert poles[-2] and poles[-1]
        for i in range(40):
            assert not poles[i]
            assert abs(vals[i] - wp(complex(pts[i]), lat, cfg)) < 1e-9


def test_wp_array_keeps_shape_with_the_bits_of_the_raveled_call(cfg, square2, tri1):
    gen = np.random.default_rng(37)
    for lat in (square2, tri1):
        flat = gen.uniform(-4, 4, 60) + 1j * gen.uniform(-4, 4, 60)
        flat[:6] = [0j, lat.gen1, lat.half_periods[2], complex(np.nan, 1.0), complex(np.inf, 0.0), -0.0j]
        with np.errstate(invalid="ignore"):  # the nan and inf entries
            vals, poles = wp_array(flat, lat, cfg)
        for shape in ((6, 10), (3, 4, 5)):
            with np.errstate(invalid="ignore"):
                got, got_poles = wp_array(flat.reshape(shape), lat, cfg)
            assert got.shape == got_poles.shape == shape
            assert np.array_equal(got.ravel().view(np.int64), vals.view(np.int64))
            assert np.array_equal(got_poles.ravel(), poles)


def test_wp_array_chunks_long_inputs_with_the_same_bits(cfg, square2, tri1, monkeypatch):
    # a fallback subset longer than the chunk runs in pieces, with the bits
    # of one whole-array pass (a chunk as long as the input); half-periods
    # and their translates lie on cell edges, so every one falls back
    gen = np.random.default_rng(41)
    size = 3 * lattice._TRANSLATE_CHUNK + 17
    z = gen.uniform(-4, 4, size) + 1j * gen.uniform(-4, 4, size)
    m, n, k = gen.integers(-3, 4, size), gen.integers(-3, 4, size), gen.integers(0, 3, size)
    for lat in (square2, tri1):
        z[::2] = (np.array(lat.half_periods)[k] + m * lat.gen1 + n * lat.gen2)[::2]
        chunked = wp_array(z, lat, cfg)
        monkeypatch.setattr(lattice, "_TRANSLATE_CHUNK", z.size)
        whole = wp_array(z, lat, cfg)
        monkeypatch.undo()
        assert chunked[0].tobytes() == whole[0].tobytes()
        assert np.array_equal(chunked[1], whole[1])


def test_wp_array_peak_memory_on_a_long_input(cfg, square2, tri1):
    # 50,000 points: the closed-form translate holds a few arrays of the
    # input's length, and the nine candidate translates only for points at a
    # cell edge, one chunk at a time.  Measured peaks: 6.5 MiB for both kinds
    # (7.7 MiB triangular while the decode's temporaries lived to the end of
    # the call), 17.2 MiB with all nine rows of the whole input at once,
    # 9.3 MiB for the older loop that kept one candidate at a time.
    gen = np.random.default_rng(43)
    z = gen.uniform(-3, 3, 50_000) + 1j * gen.uniform(-3, 3, 50_000)
    for lat in (square2, tri1):
        wp_array(z[:10], lat, cfg)
        tracemalloc.start()
        try:
            wp_array(z, lat, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9.3 * 2**20


def test_wp_array_matches_scalar_on_box_ties(cfg, square2, tri1):
    # generator coordinates at exactly +-1/2 put a point on the edge of the
    # reduction box, where two or four translates are equally near: the
    # half-periods, the box corners, edge points, and lattice points
    gen = np.random.default_rng(29)
    coords = [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]
    for lat in (square2, tri1):
        pts = [a * lat.gen1 + b * lat.gen2 for a in coords for b in coords]
        for t in gen.uniform(-0.5, 0.5, 12):
            for half in (-0.5, 0.5):
                pts.append(half * lat.gen1 + t * lat.gen2)
                pts.append(t * lat.gen1 + half * lat.gen2)
        pts.extend(lat.half_periods)
        vals, poles = wp_array(np.array(pts), lat, cfg)
        hits = 0
        for z, val, pole in zip(pts, vals, poles):
            try:
                ref = wp(complex(z), lat, cfg)
            except PoleHit:
                assert pole
                hits += 1
                continue
            assert not pole
            assert abs(val - ref) <= 1e-9 * max(1.0, abs(ref))
        assert hits == 9  # the integer (a, b) pairs of coords
    for lat, e in ((square2, E1_SQUARE_NORM), (tri1, E1_TRI_NORM)):
        vals, _ = wp_array(np.array([lat.half_periods[0]]), lat, cfg)
        assert abs(vals[0] * lat.lam * lat.lam - e) < 1e-9


@pytest.mark.parametrize("kind", [LatticeKind.SQUARE, LatticeKind.TRIANGULAR])
def test_wp_split_has_the_bits_of_the_four_call_horner_loop(cfg, kind):
    # the Horner loop takes both products of a term from one multiply; each
    # element still gets (ar*u2r + (-ai*u2i), ar*u2i + ai*u2r) + c, so every
    # output must keep its bits, NaN payloads and signed zeros included
    gen = np.random.default_rng(59)
    tau = lattice._kind_data(kind).tau
    lams, zs = [], []
    # random points and scales
    for _ in range(400):
        lams.append(complex(gen.uniform(0.3, 3.0), gen.uniform(-3.0, 3.0)))
        zs.append(complex(gen.uniform(-4.0, 4.0), gen.uniform(-4.0, 4.0)))
    # points on the real and imaginary axes, with both signs of zero, on real,
    # imaginary and generic scales
    for lam in (1.3 + 0j, -0.7 + 0j, 1.3j, 0.9 + 1.1j):
        for x in gen.uniform(-4.0, 4.0, 10).tolist() + [0.5, 1.0]:
            for z in (complex(x, 0.0), complex(x, -0.0), complex(0.0, x), complex(-0.0, x)):
                lams.append(lam)
                zs.append(z)
        for z in (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)):
            lams.append(lam)
            zs.append(z)
    # points around lattice points, inside and just outside pole_eps
    for _ in range(40):
        lam = complex(gen.uniform(0.3, 3.0), gen.uniform(-3.0, 3.0))
        m, n = gen.integers(-3, 4, 2).tolist()
        for r in (0.0, 0.5, 0.999, 1.001, 2.0, 1e3):
            off = r * cfg.pole_eps * cmath.exp(1j * gen.uniform(-math.pi, math.pi))
            lams.append(lam)
            zs.append((m + n * tau + off) * lam)
    # non-finite points
    for z in (complex(math.nan, 1.0), complex(1.0, math.nan), complex(math.nan, math.nan),
              complex(math.inf, 1.0), complex(-1.0, -math.inf)):
        lams.append(1.1 + 0.2j)
        zs.append(z)
    z = np.array(zs)
    lam, lam2 = lattice._split_scales(np.array(lams))
    args = (z.real.copy(), z.imag.copy(), lam, lam2, kind,
            lattice._terms_for_tol(kind, cfg.eval_tol), cfg.pole_eps)
    with np.errstate(invalid="ignore"):
        got = lattice._wp_split(
            *args[:2], lattice._divisor(*lam), lattice._divisor(*lam2), *args[4:]
        )
        want = wp_split_four_calls(*args)
    assert got[2].any() and not got[2].all()
    assert np.isnan(got[0]).any()
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g.view(np.uint8), w.view(np.uint8))


def _bits(values):
    """The IEEE bit patterns of a sequence of floats."""
    return np.array(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("kind", [LatticeKind.SQUARE, LatticeKind.TRIANGULAR])
def test_wp_pair_split_has_the_bits_of_wp_pair(cfg, kind):
    # value, derivative and pole flag of every element equal scalar wp_pair's,
    # at random scales and points, around lattice points (inside and just
    # outside pole_eps) and around the half-periods, where wp' nearly vanishes
    gen = np.random.default_rng(71)
    tau = lattice._kind_data(kind).tau
    lams, zs = [], []
    for _ in range(3000):
        lam = complex(gen.uniform(-3.0, 3.0), gen.uniform(-3.0, 3.0))
        if lam != 1:
            lams.append(lam)
            zs.append(complex(gen.uniform(-6.0, 6.0), gen.uniform(-6.0, 6.0)))
    for _ in range(100):
        lam = complex(gen.uniform(0.3, 3.0), gen.uniform(-3.0, 3.0))
        m, n = gen.integers(-3, 4, 2).tolist()
        for r in (0.0, 0.5, 0.999, 1.001, 2.0, 1e3):
            lams.append(lam)
            turn = cmath.exp(1j * gen.uniform(-math.pi, math.pi))
            zs.append((m + n * tau + r * cfg.pole_eps * turn) * lam)
        for h in (0.5, 0.5 * tau, 0.5 + 0.5 * tau):
            for r in (0.0, 1e-12, 1e-6, 1e-3):
                lams.append(lam)
                turn = cmath.exp(1j * gen.uniform(-math.pi, math.pi))
                zs.append((m + n * tau + h + r * turn) * lam)
    lam_c = np.array(lams)
    lam, lam2 = lattice._split_scales(lam_c)
    lam3 = lattice._cmul(*lam2, *lam)
    z = np.array(zs)
    vr, vi, dr, di, pole = lattice._wp_pair_split(
        z.real.copy(), z.imag.copy(), lattice._divisor(*lam), lattice._divisor(*lam2),
        lattice._divisor(*lam3), kind, lattice._terms_for_tol(kind, cfg.eval_tol), cfg.pole_eps,
    )
    want_pole, want = [], []
    for value, point in zip(lams, zs):
        try:
            want.append(wp_pair(point, make_lattice(kind, value, cfg), cfg))
            want_pole.append(False)
        except PoleHit:
            want.append((0j, 0j))
            want_pole.append(True)
    assert pole.tolist() == want_pole
    assert 100 < sum(want_pole) < 600
    keep = ~pole
    assert _bits(vr[keep]) == _bits([v.real for (v, _), p in zip(want, want_pole) if not p])
    assert _bits(vi[keep]) == _bits([v.imag for (v, _), p in zip(want, want_pole) if not p])
    assert _bits(dr[keep]) == _bits([d.real for (_, d), p in zip(want, want_pole) if not p])
    assert _bits(di[keep]) == _bits([d.imag for (_, d), p in zip(want, want_pole) if not p])


def _special_pair_points(kind, cfg, gen, width):
    """width (scale, point) pairs: points next to lattice points (inside and
    just outside pole_eps), on the real axis of scale 1 with a signed zero
    imaginary part, signed zeros, NaN and infinities, then random ones."""
    tau = lattice._kind_data(kind).tau
    special = [(1.0 + 0j, complex(x, y)) for x in (0.3, 0.0, -0.3, -0.0) for y in (0.0, -0.0)]
    for z in (complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 1.0),
              complex(1.0, -math.inf), complex(-math.inf, math.inf)):
        special.append((1.5 - 0.5j, z))
    for r in (0.0, 0.999, 1.001, 3.0):
        lam = complex(gen.uniform(0.3, 3.0), gen.uniform(-3.0, 3.0))
        m, n = gen.integers(-3, 4, 2).tolist()
        turn = cmath.exp(1j * gen.uniform(-math.pi, math.pi))
        special.append((lam, (m + n * tau + r * cfg.pole_eps * turn) * lam))
    pairs = special[:width]
    while len(pairs) < width:
        lam = complex(gen.uniform(-3.0, 3.0), gen.uniform(-3.0, 3.0))
        pairs.append((lam, complex(gen.uniform(-6.0, 6.0), gen.uniform(-6.0, 6.0))))
    return [p[0] for p in pairs], [p[1] for p in pairs]


@pytest.mark.parametrize("kind", [LatticeKind.SQUARE, LatticeKind.TRIANGULAR], ids=lambda k: k.value)
@pytest.mark.parametrize("width", [1, 2, 63, 64, 65, 81, 128, 1025, 4096, 4097])
def test_wp_pair_split_has_the_bits_of_wp_pair_at_every_width(cfg, kind, width):
    # the flat Horner, with two accumulator pairs (_wp_pair_split, on the
    # coefficient columns and on rows prepared for the width) and with one
    # (_wp_split), gives the bits of its broadcast oracle on every element
    # (NaN included) and scalar wp_pair's and wp's where those accept the
    # point; scalar wp_pair and wp refuse a non-finite point outright
    gen = np.random.default_rng(width)
    lams, zs = _special_pair_points(kind, cfg, gen, width)
    lam, lam2 = lattice._split_scales(np.array(lams))
    z = np.array(zs)
    n_terms = lattice._terms_for_tol(kind, cfg.eval_tol)
    zr, zi = z.real.copy(), z.imag.copy()
    lam_div, lam2_div = lattice._divisor(*lam), lattice._divisor(*lam2)
    args = (
        zr, zi, lam_div, lam2_div, lattice._divisor(*lattice._cmul(*lam2, *lam)), kind, n_terms,
        cfg.pole_eps,
    )
    flat = lattice._wp_pair_split(*args)
    rows = lattice._wp_pair_split(*args, lattice._pair_rows(kind, n_terms, width))
    broadcast = wp_pair_split_broadcast(*args)
    for got, same, want in zip(flat, rows, broadcast):
        assert np.array_equal(got.view(np.uint8), same.view(np.uint8))
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
    with np.errstate(invalid="ignore"):
        single = lattice._wp_split(zr, zi, lam_div, lam2_div, kind, n_terms, cfg.pole_eps)
        four = wp_split_four_calls(zr, zi, lam, lam2, kind, n_terms, cfg.pole_eps)
    for got, want in zip(single, four):
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
    vr, vi, dr, di, pole = flat
    sr, si, spole, sm, sn = single
    assert np.array_equal(spole, pole)
    assert not pole.all()
    for i, (value, point) in enumerate(zip(lams, zs)):
        lat = make_lattice(kind, value, cfg)
        if not (math.isfinite(point.real) and math.isfinite(point.imag)):
            for scalar in (wp_pair, wp):
                with pytest.raises((ValueError, OverflowError)):
                    scalar(point, lat, cfg)
            assert not pole[i] and math.isnan(vr[i]) and math.isnan(dr[i]) and math.isnan(sr[i])
            continue
        try:
            val, dval = wp_pair(point, lat, cfg)
        except PoleHit as hit:
            assert pole[i] and (sm[i], sn[i]) == (hit.m, hit.n)
            continue
        assert not pole[i]
        assert _bits([vr[i], vi[i], dr[i], di[i]]) == _bits(
            [val.real, val.imag, dval.real, dval.imag]
        )
        val = wp(point, lat, cfg)
        assert _bits([sr[i], si[i]]) == _bits([val.real, val.imag])


@pytest.mark.parametrize("kind", [LatticeKind.SQUARE, LatticeKind.TRIANGULAR])
def test_wp_has_the_value_bits_of_wp_pair(cfg, kind):
    # a caller holding wp_pair's value may use it as wp's: scalar wp and
    # wp_pair(...)[0] agree bit for bit, and so do the values and pole flags
    # of _wp_split and _wp_pair_split, at random points and around lattice
    # points (inside and just outside pole_eps)
    gen = np.random.default_rng(97)
    tau = lattice._kind_data(kind).tau
    lams, zs = [], []
    for _ in range(2000):
        lams.append(complex(gen.uniform(0.3, 3.0), gen.uniform(-3.0, 3.0)))
        zs.append(complex(gen.uniform(-6.0, 6.0), gen.uniform(-6.0, 6.0)))
    for _ in range(50):
        lam = complex(gen.uniform(0.3, 3.0), gen.uniform(-3.0, 3.0))
        m, n = gen.integers(-3, 4, 2).tolist()
        for r in (0.0, 0.999, 1.001, 2.0):
            turn = cmath.exp(1j * gen.uniform(-math.pi, math.pi))
            lams.append(lam)
            zs.append((m + n * tau + r * cfg.pole_eps * turn) * lam)
    poles = 0
    for value, point in zip(lams, zs):
        lat = make_lattice(kind, value, cfg)
        try:
            got = wp(point, lat, cfg)
        except PoleHit:
            with pytest.raises(PoleHit):
                wp_pair(point, lat, cfg)
            poles += 1
            continue
        want = wp_pair(point, lat, cfg)[0]
        assert _bits([got.real, got.imag]) == _bits([want.real, want.imag])
    assert 50 <= poles < 150

    lam, lam2 = lattice._split_scales(np.array(lams))
    z = np.array(zs)
    n_terms = lattice._terms_for_tol(kind, cfg.eval_tol)
    vr, vi, pole, _, _ = lattice._wp_split(
        z.real.copy(), z.imag.copy(), lattice._divisor(*lam), lattice._divisor(*lam2), kind,
        n_terms, cfg.pole_eps,
    )
    pr, pi, _, _, pair_pole = lattice._wp_pair_split(
        z.real.copy(), z.imag.copy(), lattice._divisor(*lam), lattice._divisor(*lam2),
        lattice._divisor(*lattice._cmul(*lam2, *lam)), kind, n_terms, cfg.pole_eps,
    )
    assert pole.tolist() == pair_pole.tolist() and pole.sum() == poles
    assert _bits(vr[~pole]) == _bits(pr[~pole])
    assert _bits(vi[~pole]) == _bits(pi[~pole])


def test_cdiv_has_the_bits_of_complex_division():
    # Smith's two branches, the tie |b.real| == |b.imag| (first branch),
    # signed zeros, subnormals and 40 decades of magnitude; the prepared
    # divisor of _cdiv_by gives the same quotients for every numerator
    gen = np.random.default_rng(83)
    parts = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-308, 1.0, -1.0, 2.5, -0.75, 1e300, -1e-300]
    pairs = [
        (complex(a, b), complex(c, d)) for a in parts for b in parts for c in parts for d in parts
    ]
    for _ in range(4000):
        a, b, c, d = gen.uniform(-1.0, 1.0, 4) * 10.0 ** gen.uniform(-20.0, 20.0, 4)
        pairs.append((complex(a, b), complex(c, d)))
        # ties: b = c or b = -c
        pairs.append((complex(a, b), complex(c, c)))
        pairs.append((complex(a, b), complex(c, -c)))
        pairs.append((complex(a, b), complex(-c, c)))
    pairs = [(x, y) for x, y in pairs if y != 0]
    num = np.array([x for x, _ in pairs])
    den = np.array([y for _, y in pairs])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        qr, qi = lattice._cdiv(num.real, num.imag, den.real, den.imag)
        divisor = lattice._divisor(den.real, den.imag)
        pr, pi = lattice._cdiv_by(num.real, num.imag, divisor)
        sr, si = lattice._cdiv_by(-num.imag, num.real, divisor)
    want = [x / y for x, y in pairs]
    assert _bits(qr) == _bits([w.real for w in want]) == _bits(pr)
    assert _bits(qi) == _bits([w.imag for w in want]) == _bits(pi)
    other = [complex(-x.imag, x.real) / y for x, y in pairs]
    assert _bits(sr) == _bits([w.real for w in other])
    assert _bits(si) == _bits([w.imag for w in other])


EXTREME_SCALES = [1e-170 + 0j, 1e-160j, 5e-324 + 0j, 1e300 + 1e300j]


@pytest.mark.parametrize("kind", [LatticeKind.SQUARE, LatticeKind.TRIANGULAR])
def test_make_lattice_refuses_scales_it_cannot_carry(cfg, kind):
    # lam^6 = lam4 * lam2 must be nonzero and finite; the array screen
    # agrees with the scalar check, also at the edges of the range
    for lam in EXTREME_SCALES:
        with pytest.raises(ZeroParameter):
            make_lattice(kind, lam, cfg)
    for lam in (1e-50 + 0j, 1e-50j, 1e50 + 1e50j):
        lat = make_lattice(kind, lam, cfg)
        assert not any(is_infinite(c) for c in lat.crit_values)
    lams = [
        10.0 ** e * cmath.exp(1j * t)
        for e in np.arange(-56.0, 54.0, 0.125)
        for t in (0.0, 0.4, math.pi / 4, 1.3, math.pi / 2)
    ]
    lams += EXTREME_SCALES + [0j, complex(math.nan, 1.0), complex(1.0, math.inf)]
    lams += [1e-54 + 0j, 3e-54j, 5.6e51 + 0j]
    accepted = []
    for lam in lams:
        try:
            lattice._check_scale(lam)
            accepted.append(True)
        except ZeroParameter:
            accepted.append(False)
    assert lattice._scales_ok(np.array(lams)).tolist() == accepted
    assert 0 < sum(accepted) < len(lams)


def test_sph_dist_closed_forms():
    inf = complex("inf")
    assert sph_dist(0j, inf) == 2.0
    assert sph_dist(1 + 1j, 1 + 1j) == 0.0
    assert abs(sph_dist(1 + 0j, -1 + 0j) - 2.0) < 1e-15
    assert is_infinite(inf) and not is_infinite(1e300 + 0j)
    assert lattice._sph_dist_to_inf_split(np.zeros(1), np.zeros(1)).tolist() == [2.0]


def test_sph_deriv_basics():
    # euclidean derivative 1 at the origin fixed point has spherical factor 1
    assert sph_deriv(1.0 + 0j, 0j, 0j) == 1.0
    assert sph_deriv(0j, 1 + 1j, 2 - 1j) == 0.0


def test_sph_deriv_chain_rule_matches_finite_difference(cfg, square2):
    # composite three-step factor vs a central difference of f(f(f(z))),
    # converted to the chordal scale; step 1e-6 keeps truncation ~1e-9
    gen = np.random.default_rng(314)
    kept = 0
    for _ in range(200):
        if kept >= 8:
            break
        z = complex(gen.uniform(-1.0, 1.0), gen.uniform(-1.0, 1.0)) * 2.0
        try:
            pts = [z]
            fac = 1.0
            tame = True
            for _ in range(3):
                p, dp = wp_pair(pts[-1], square2, cfg)
                fac *= sph_deriv(dp, pts[-1], p)
                pts.append(p)
                if abs(p) > 4.0 or abs(dp) > 60.0:
                    tame = False
                    break
            if not tame:
                continue

            def f3(w):
                for _ in range(3):
                    w = wp(w, square2, cfg)
                return w

            h = 1e-6
            d = (f3(z + h) - f3(z - h)) / (2.0 * h)
        except PoleHit:
            continue
        fd = abs(d) * (1.0 + abs(z) ** 2) / (1.0 + abs(pts[-1]) ** 2)
        assert abs(fac - fd) < 1e-7 * max(fd, 1.0)
        kept += 1
    assert kept == 8


def test_crit_sph_dist_is_zero_at_critical_points(cfg, square2):
    # the half-periods, then a translate by a full period, which counts as a
    # critical point too
    zs = np.array(list(square2.half_periods) + [square2.half_periods[0] + square2.gen1])
    d = lattice._lattice_crit_dist(square2, zs.real, zs.imag).tolist()
    assert max(d[:3]) < 1e-12 and d[3] < 1e-9
