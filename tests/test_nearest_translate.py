"""The closed-form nearest lattice translate against the nine-offset argmin.

lattice._recenter (scalar) and lattice._nearest_translate (split arrays)
decode the nearest translate in closed form and fall back on the argmin over
nine offsets only near a Voronoi cell edge.  Both must give every bit of the
argmin they replaced, kept in tests/oracles.py, on inputs that sit on, or a
few ulps from, every cell edge and vertex.
"""
import math
import struct

import numpy as np
import pytest

from oracles import nearest_translate_nine, recenter_nine
from weierdyn import lattice
from weierdyn.lattice import LatticeKind, _kind_data, _reduce_coords

HALVES = [0.5, 0.49999999999999994, 0.5000000000000001]


def _nudged(u: np.ndarray, steps: int = 2) -> np.ndarray:
    """u with its real and imaginary parts each moved by up to `steps` ulps
    either way: (2 * steps + 1)**2 copies."""
    def moves(x):
        out, up, down = [x], x, x
        for _ in range(steps):
            up = np.nextafter(up, np.inf)
            down = np.nextafter(down, -np.inf)
            out += [up, down]
        return out
    return np.concatenate([re + 1j * im for re in moves(u.real) for im in moves(u.imag)])


def _cell_boundary(kind: LatticeKind, gen) -> np.ndarray:
    """Vertices, edge midpoints and random edge points of the Voronoi cell of
    0 (normalized lattice), with the two points (1 + tau)/3 and (1 - tau)/2."""
    tau = _kind_data(kind).tau
    if kind is LatticeKind.SQUARE:
        verts = np.array([0.5 + 0.5j, -0.5 + 0.5j, -0.5 - 0.5j, 0.5 - 0.5j])
    else:
        verts = np.exp(1j * (np.pi / 6 + np.arange(6) * np.pi / 3)) / math.sqrt(3.0)
    ends = np.roll(verts, -1)
    t = gen.uniform(0.0, 1.0, (16, 1))
    edges = verts + t * (ends - verts)
    extra = np.array([(1 + tau) / 3, (1 - tau) / 2])
    return np.concatenate([verts, (verts + ends) / 2, edges.ravel(), extra])


def _hard_inputs(kind: LatticeKind, seed: int) -> np.ndarray:
    """Finite test points u for one kind: random at three scales, generator
    coordinates at and next to +-1/2, and the cell boundary moved to nearby
    lattice points and nudged by ulps."""
    gen = np.random.default_rng(seed)
    tau = _kind_data(kind).tau
    parts = [
        gen.uniform(-s, s, 4000) + 1j * gen.uniform(-s, s, 4000) for s in (0.5, 3.0, 1e3)
    ]
    coords = np.array([x for h in HALVES for x in (h, -h, h + 1.0, -h - 1.0)] + [0.0, -0.0])
    a, b = np.meshgrid(coords, coords)
    parts.append(a.ravel() + b.ravel() * tau.real + 1j * (b.ravel() * tau.imag))
    parts.append((a + 1j * b).ravel())
    shifts = np.array([m + n * tau for m in (-1, 0, 1, 2) for n in (-1, 0, 2)])
    boundary = (_cell_boundary(kind, gen)[:, None] + shifts).ravel()
    parts.append(_nudged(boundary))
    return np.concatenate(parts)


def _non_finite() -> np.ndarray:
    vals = [0.0, -0.0, np.nan, np.inf, -np.inf, 0.25, -0.5]
    return np.array([complex(x, y) for x in vals for y in vals])


def _bits(*arrays) -> list:
    return [np.ascontiguousarray(x).tobytes() for x in arrays]


@pytest.mark.parametrize("kind", list(LatticeKind))
def test_nearest_translate_has_the_bits_of_the_nine_offset_argmin(kind, monkeypatch):
    kd = _kind_data(kind)
    u = np.concatenate([_hard_inputs(kind, 11), _non_finite()])
    assert u.size > lattice._TRANSLATE_CHUNK
    sizes = []
    argmin = lattice._translate_argmin

    def spy(a, b, fa, fb, kd):
        sizes.append(a.size)
        return argmin(a, b, fa, fb, kd)

    monkeypatch.setattr(lattice, "_translate_argmin", spy)
    with np.errstate(invalid="ignore"):  # inf - inf in the reduction
        got = lattice._nearest_translate(u.real.copy(), u.imag.copy(), kd)
        want = nearest_translate_nine(u.real.copy(), u.imag.copy(), kd)
    assert _bits(*got) == _bits(*want)
    # the boundary points alone outnumber a chunk, so the fallback is chunked
    assert sizes[0] > lattice._TRANSLATE_CHUNK


@pytest.mark.parametrize("kind", list(LatticeKind))
def test_recenter_has_the_bits_of_the_nine_offset_loop(kind):
    # the scalar form takes finite points only: _reduce_coords floors them
    kd = _kind_data(kind)
    for u in _hard_inputs(kind, 13).tolist():
        a0, b0, m, n = _reduce_coords(u, kd)
        u0, dm, dn = recenter_nine(a0, b0, kd)
        got = lattice._recenter(u, kd)
        assert struct.pack("dd", got[0].real, got[0].imag) == struct.pack("dd", u0.real, u0.imag)
        assert got[1:] == (m + dm, n + dn)


@pytest.mark.parametrize("kind", list(LatticeKind))
def test_uniform_points_rarely_take_the_argmin(kind, monkeypatch):
    # a point falls back within _CELL_MARGIN = 1e-6 of a cell edge, about 1e-5
    # of a uniform sample; the bound is 1%
    kd = _kind_data(kind)
    gen = np.random.default_rng(17)
    ur, ui = gen.uniform(-3, 3, (2, 100_000))
    taken = [0, 0]
    array_argmin, scalar_argmin = lattice._translate_argmin, lattice._recenter_argmin

    def array_spy(a, *rest):
        taken[0] += a.size
        return array_argmin(a, *rest)

    def scalar_spy(*args):
        taken[1] += 1
        return scalar_argmin(*args)

    monkeypatch.setattr(lattice, "_translate_argmin", array_spy)
    monkeypatch.setattr(lattice, "_recenter_argmin", scalar_spy)
    lattice._nearest_translate(ur, ui, kd)
    for x, y in zip(ur[:20_000].tolist(), ui[:20_000].tolist()):
        lattice._recenter(complex(x, y), kd)
    assert taken[0] < 0.01 * ur.size
    assert taken[1] < 0.01 * 20_000
