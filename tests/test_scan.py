"""Rendering tests: grid geometry, verdict colors, parallel determinism,
and the PPM byte format."""

import cmath
import hashlib

import pytest

from conftest import ATTRACTING_SQ, PREPOLE_SQ, PREPOLE_TRI
from weierdyn import dynamics, scan
from weierdyn.lattice import LatticeKind, ToleranceConfig, ZeroParameter, make_lattice
from weierdyn.scan import (
    CSV_HEADER,
    EXHAUSTED_COLOR,
    HIT_PALETTE,
    Image,
    IoFailure,
    PREPOLE_COLOR,
    RESERVED_COLOR,
    ScanGrid,
    render_dynamical_plane,
    render_parameter_plane,
    write_ppm,
)

ZETA = cmath.exp(2j * cmath.pi / 3)


def _ppm_bytes(image):
    head = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    return head + bytes(c for pixel in image.pixels for c in pixel)


def _single_pixel_dyn(kind, lam, z, budget, cfg):
    grid = ScanGrid(origin=z, extent=0j, width_px=1, height_px=1)
    return render_dynamical_plane(kind, lam, grid, budget, cfg).pixels[0]


def test_grid_corners_map_to_origin_and_extent():
    # binary-friendly spacing so corner arithmetic is exact
    grid = ScanGrid(origin=-1.0 + 0.5j, extent=2.0 + 1.0j, width_px=9, height_px=5)
    assert grid.pixel_to_plane(0, 0) == -1.0 + 0.5j
    assert grid.pixel_to_plane(8, 4) == 1.0 + 1.5j
    assert grid.pixel_to_plane(4, 2) == 0.0 + 1.0j


def test_single_pixel_grid_ignores_extent():
    grid = ScanGrid(origin=0.3 + 0.7j, extent=5.0 + 5.0j, width_px=1, height_px=1)
    assert grid.pixel_to_plane(0, 0) == 0.3 + 0.7j


def test_grid_roundtrip_recovers_pixel_indices():
    grid = ScanGrid(origin=-2.0 - 1.0j, extent=3.0 + 1.5j, width_px=4, height_px=4)
    sre = grid.extent.real / 3
    sim = grid.extent.imag / 3
    for px in range(4):
        for py in range(4):
            z = grid.pixel_to_plane(px, py)
            assert (z - grid.origin).real / sre == px
            assert (z - grid.origin).imag / sim == py


def test_grid_rejects_empty_dimensions():
    with pytest.raises(ValueError):
        ScanGrid(origin=0j, extent=1j, width_px=0, height_px=4)
    with pytest.raises(ValueError):
        ScanGrid(origin=0j, extent=1j, width_px=4, height_px=0)


def test_image_rejects_mismatched_pixel_count():
    with pytest.raises(ValueError):
        Image(width=2, height=2, pixels=((0, 0, 0),) * 3)


def test_param_render_prepole_pixel_and_csv_row(cfg):
    grid = ScanGrid(origin=PREPOLE_SQ, extent=0j, width_px=1, height_px=1)
    image, csv = render_parameter_plane(LatticeKind.SQUARE, grid, 50, cfg)
    assert image.pixels == (PREPOLE_COLOR,)
    lines = csv.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == "px,py,lambda_re,lambda_im,verdict,count,period,mult_re,mult_im,abs_mult"
    assert lines[1] == (
        "0,0,0.5783308619020432,0.7360677656029049,prepole,1,0,0.0,0.0,0.0"
    )
    assert csv.endswith("\n")


def test_param_render_zero_lambda_reserved(cfg):
    grid = ScanGrid(origin=0j, extent=0j, width_px=1, height_px=1)
    image, csv = render_parameter_plane(LatticeKind.SQUARE, grid, 50, cfg)
    assert image.pixels == (RESERVED_COLOR,)
    assert csv.splitlines()[1] == "0,0,0.0,0.0,excluded,0,0,0.0,0.0,0.0"


def test_dyn_render_pole_start_hit_step_zero(cfg):
    # z on a lattice point hits immediately, step 0 of the cyclic palette
    color = _single_pixel_dyn(LatticeKind.SQUARE, 2.0 + 0j, 2.0 + 0j, 30, cfg)
    assert color == HIT_PALETTE[0]
    assert color == (230, 25, 75)


def test_dyn_render_budget_exhaustion_is_black(cfg):
    lat = make_lattice(LatticeKind.SQUARE, ATTRACTING_SQ, cfg)
    color = _single_pixel_dyn(
        LatticeKind.SQUARE, ATTRACTING_SQ, lat.crit_values[0], 60, cfg
    )
    assert color == EXHAUSTED_COLOR == (0, 0, 0)


def test_dyn_render_rejects_zero_lambda(cfg):
    grid = ScanGrid(origin=0.5j, extent=0j, width_px=1, height_px=1)
    with pytest.raises(ZeroParameter):
        render_dynamical_plane(LatticeKind.SQUARE, 0j, grid, 10, cfg)


def test_tri_render_rotation_invariant_at_lattice_points(cfg, tri1):
    lat = make_lattice(LatticeKind.TRIANGULAR, 2.3 + 0j, cfg)
    for z in (lat.gen1, lat.gen1 + lat.gen2, 2 * lat.gen2):
        a = _single_pixel_dyn(LatticeKind.TRIANGULAR, 2.3 + 0j, z, 20, cfg)
        b = _single_pixel_dyn(LatticeKind.TRIANGULAR, 2.3 + 0j, ZETA * z, 20, cfg)
        assert a == b == HIT_PALETTE[0]


def test_tri_render_rotation_invariant_at_prepole_orbit(cfg):
    # critical value of the prepole parameter hits a pole one step in; its
    # rotation is another critical value and hits at the same step
    lat = make_lattice(LatticeKind.TRIANGULAR, PREPOLE_TRI, cfg)
    e1 = lat.crit_values[0]
    a = _single_pixel_dyn(LatticeKind.TRIANGULAR, PREPOLE_TRI, e1, 20, cfg)
    b = _single_pixel_dyn(LatticeKind.TRIANGULAR, PREPOLE_TRI, ZETA * e1, 20, cfg)
    assert a == b == HIT_PALETTE[1]


# pixels per block for the tall grids: 16 rows of 16 pixels
TALL_BLOCK = 256


def _tall_grid(origin, extent):
    # 16 pixels a row; at BLOCK_SIZE = TALL_BLOCK the height leaves a partial
    # last block, and the pool splits the rows into blocks of another size
    return ScanGrid(origin=origin, extent=extent, width_px=16, height_px=TALL_BLOCK // 16 + 5)


def test_param_render_serial_matches_pool(cfg, monkeypatch):
    grid = ScanGrid(origin=0.2 + 0.2j, extent=1.6 + 1.6j, width_px=16, height_px=16)
    img1, csv1 = render_parameter_plane(LatticeKind.SQUARE, grid, 100, cfg, threads=1)
    img2, csv2 = render_parameter_plane(LatticeKind.SQUARE, grid, 100, cfg, threads=2)
    assert img1 == img2
    assert csv1 == csv2
    assert hashlib.sha256(_ppm_bytes(img1)).hexdigest() == (
        "6b2bbadbfa23177ab48f196dc973df6640e34fb852e447420366e1ee4eb2845c"
    )
    assert hashlib.sha256(csv1.encode()).hexdigest() == (
        "add13304a597eb273d777520fb6c518813d68cecd687414aee35210f42b79798"
    )
    monkeypatch.setattr(scan, "BLOCK_SIZE", TALL_BLOCK)
    tall = _tall_grid(0.2 + 0.2j, 1.6 + 2.0j)
    serial = render_parameter_plane(LatticeKind.SQUARE, tall, 60, cfg, threads=1)
    assert render_parameter_plane(LatticeKind.SQUARE, tall, 60, cfg, threads=2) == serial
    monkeypatch.setattr(scan, "BLOCK_SIZE", 16)  # one row per block
    assert render_parameter_plane(LatticeKind.SQUARE, tall, 60, cfg, threads=1) == serial
    rows = render_parameter_plane(LatticeKind.SQUARE, tall, 90, cfg, threads=1)  # 26 head steps
    # the whole image in one block, in tail chunks of 5 parameters whose
    # edges fall inside it
    monkeypatch.setattr(scan, "BLOCK_SIZE", 4096)
    monkeypatch.setattr(dynamics, "TAIL_CHUNK", 5)
    assert render_parameter_plane(LatticeKind.SQUARE, tall, 60, cfg, threads=1) == serial
    assert render_parameter_plane(LatticeKind.SQUARE, tall, 90, cfg, threads=1) == rows


def test_param_render_refines_only_pixels_with_near_returns(cfg, monkeypatch):
    # on the 64x64 square golden grid a cycle is refined once per pixel
    # whose critical orbit has a near-return, which are exactly its 177
    # attracting pixels, and never where the orbit has none
    refined = []
    real = dynamics._refine

    def spy(w, p, lat, cfg):
        refined.append(lat.lam)
        return real(w, p, lat, cfg)

    monkeypatch.setattr(dynamics, "_refine", spy)
    grid = ScanGrid(origin=0.15 + 0.1j, extent=2.2 + 2.2j, width_px=64, height_px=64)
    _, csv_text = render_parameter_plane(LatticeKind.SQUARE, grid, 200, cfg, threads=1)
    attracting = [
        complex(float(row[2]), float(row[3]))
        for row in (line.split(",") for line in csv_text.splitlines()[1:])
        if row[4] == "attracting"
    ]
    assert len(refined) == len(attracting) == 177
    assert refined == attracting


def test_dyn_render_serial_matches_pool(cfg, monkeypatch):
    grid = ScanGrid(origin=-0.9 - 0.9j, extent=1.8 + 1.8j, width_px=16, height_px=16)
    img1 = render_dynamical_plane(LatticeKind.SQUARE, 2.0 + 0j, grid, 40, cfg, threads=1)
    img2 = render_dynamical_plane(LatticeKind.SQUARE, 2.0 + 0j, grid, 40, cfg, threads=2)
    assert img1 == img2
    assert hashlib.sha256(_ppm_bytes(img1)).hexdigest() == (
        "498fc6af35b825a3125e21b0e91fdd6eb8cf0dfb21e0f5d68ddc4edfca2efef9"
    )
    monkeypatch.setattr(scan, "BLOCK_SIZE", TALL_BLOCK)
    tall = _tall_grid(-0.9 - 0.9j, 1.8 + 2.2j)
    serial = _ppm_bytes(render_dynamical_plane(LatticeKind.SQUARE, 2.0, tall, 40, cfg, threads=1))
    pooled = render_dynamical_plane(LatticeKind.SQUARE, 2.0, tall, 40, cfg, threads=2)
    assert _ppm_bytes(pooled) == serial
    monkeypatch.setattr(scan, "BLOCK_SIZE", 16)  # one row per block
    single_rows = render_dynamical_plane(LatticeKind.SQUARE, 2.0, tall, 40, cfg, threads=1)
    assert _ppm_bytes(single_rows) == serial
    monkeypatch.setattr(scan, "BLOCK_SIZE", 4096)  # the whole image in one block
    whole = render_dynamical_plane(LatticeKind.SQUARE, 2.0, tall, 40, cfg, threads=1)
    assert _ppm_bytes(whole) == serial


def test_write_ppm_red_pixel_exact_bytes(tmp_path):
    path = tmp_path / "red.ppm"
    write_ppm(Image(width=1, height=1, pixels=((255, 0, 0),)), str(path))
    assert path.read_bytes() == b"P6\n1 1\n255\n\xff\x00\x00"


def test_write_ppm_roundtrip(tmp_path):
    pixels = tuple((r * 40, 10 + r * 30, 255 - r * 35) for r in range(6))
    image = Image(width=2, height=3, pixels=pixels)
    path = tmp_path / "img.ppm"
    write_ppm(image, str(path))
    raw = path.read_bytes()
    header, body = raw[:11], raw[11:]
    assert header == b"P6\n2 3\n255\n"
    assert body == bytes(c for p in pixels for c in p)


def test_write_ppm_missing_directory_fails_cleanly(tmp_path):
    target = tmp_path / "missing" / "img.ppm"
    with pytest.raises(IoFailure):
        write_ppm(Image(width=1, height=1, pixels=((1, 2, 3),)), str(target))
    assert not (tmp_path / "missing").exists()
    assert list(tmp_path.iterdir()) == []
