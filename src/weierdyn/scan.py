"""Batch rendering of parameter-plane classification maps and
dynamical-plane pole-escape images.

Both renderers work in blocks of whole image rows, about BLOCK_SIZE pixels
each.  A dynamical-plane block is one dynamics.orbit_array lockstep.  A
parameter-plane block is one dynamics.classify_batch call, split in two:
the head, every critical orbit of the block for all but its last 64 steps,
is one lockstep that keeps only each orbit's current point; the tail, the
last 64 steps of the orbits still running, runs in chunks of
dynamics.TAIL_CHUNK parameters, each keeping the 65-point ring that the
near-return test reads.  A pixel depends only on its own coordinates and
the scan inputs, never on the block or the chunk it shares, so serial and
multi-process runs fill the same buffer with the same bytes; tests compare
them byte for byte.
"""

from __future__ import annotations

import colorsys
import math
import os
from dataclasses import dataclass
from typing import Optional

from .dynamics import (
    AllCriticalPrepole,
    AttractingCycles,
    PoleHit,
    classify_batch,
    orbit_array,
)
from .lattice import LatticeKind, ToleranceConfig, _check_scale, _kind_data

# pixels per block, rounded down to whole rows.  A parameter holds no
# lattice: the head keeps one point per critical orbit, and the tail's ring
# (65 points per orbit) lives only for one chunk of dynamics.TAIL_CHUNK
# parameters, so a wider block adds only the head's per-step arrays.  Wider
# blocks are faster, as numpy's fixed per-call cost dominates each step.  One
# render-param pass of the 64x64 square golden in a fresh process that
# imported only the CLI (2-vCPU Xeon VM, 3 processes each, best of 2
# passes), block: s per pass, peak RSS in MiB:
#   1024: 0.82-0.85, 31.9-32.1    2048: 0.72-0.79, 32.1
#   4096: 0.56-0.71, 32.8-32.9
# 4096 holds each 64x64 golden in one block.
BLOCK_SIZE = 4096

CSV_HEADER = "px,py,lambda_re,lambda_im,verdict,count,period,mult_re,mult_im,abs_mult"

# color map for parameter-plane verdicts; the CSV row is the authoritative
# record, the colors are a fixed presentation table
PREPOLE_COLOR = (255, 255, 255)
INDETERMINATE_COLOR = (0, 0, 0)
RESERVED_COLOR = (128, 128, 128)
ATTRACTING_SATURATION = 0.85
# golden-ratio hue stride decorrelates consecutive periods
HUE_STRIDE = 0.381966011250105
DIM_VALUE = 0.55

# cyclic 12-color palette for pole-hit steps in the dynamical plane
HIT_PALETTE = (
    (230, 25, 75),
    (60, 180, 75),
    (255, 225, 25),
    (0, 130, 200),
    (245, 130, 48),
    (145, 30, 180),
    (70, 240, 240),
    (240, 50, 230),
    (210, 245, 60),
    (250, 190, 190),
    (0, 128, 128),
    (170, 110, 40),
)
EXHAUSTED_COLOR = (0, 0, 0)


class IoFailure(OSError):
    """An output file could not be written; no partial output is left behind."""


@dataclass(frozen=True)
class ScanGrid:
    """Affine pixel-to-plane map: pixel (0, 0) sits at origin, the last
    pixel in each direction sits at origin + extent, endpoints inclusive."""

    origin: complex
    extent: complex
    width_px: int
    height_px: int

    def __post_init__(self) -> None:
        if self.width_px < 1 or self.height_px < 1:
            raise ValueError("grid must be at least 1x1")

    def pixel_to_plane(self, px: int, py: int) -> complex:
        sre = self.extent.real / (self.width_px - 1) if self.width_px > 1 else 0.0
        sim = self.extent.imag / (self.height_px - 1) if self.height_px > 1 else 0.0
        return self.origin + complex(px * sre, py * sim)


@dataclass(frozen=True)
class Image:
    width: int
    height: int
    # row-major RGB triples, row 0 first
    pixels: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if len(self.pixels) != self.width * self.height:
            raise ValueError("pixel count does not match dimensions")


def _attracting_color(kind: LatticeKind, period: int, count: int) -> tuple[int, int, int]:
    hue = (period * HUE_STRIDE) % 1.0
    value = 1.0 if (kind is not LatticeKind.TRIANGULAR or count == 3) else DIM_VALUE
    r, g, b = colorsys.hsv_to_rgb(hue, ATTRACTING_SATURATION, value)
    return (int(round(r * 255)), int(round(g * 255)), int(round(b * 255)))


def _param_rows(
    kind: LatticeKind, grid: ScanGrid, budget: int, cfg: ToleranceConfig, rows: range
) -> list[tuple[tuple[int, int, int], str]]:
    """(color, CSV line) of each pixel of the rows, in row-major order."""
    coords = [(px, py) for py in rows for px in range(grid.width_px)]
    lams = [grid.pixel_to_plane(px, py) for px, py in coords]
    out = []
    for (px, py), lam, verdict in zip(coords, lams, classify_batch(kind, lams, budget, cfg)):
        count, period = 0, 0
        mult = 0j
        if verdict is None:
            tag = "excluded"
            color = RESERVED_COLOR
        elif isinstance(verdict, AttractingCycles):
            tag = "attracting"
            count = verdict.count
            period = verdict.cycle.period
            mult = verdict.cycle.multiplier
            color = _attracting_color(kind, period, count)
        elif isinstance(verdict, AllCriticalPrepole):
            tag = "prepole"
            count = _kind_data(kind).crit_orbits
            color = PREPOLE_COLOR
        else:
            tag = "indeterminate"
            color = INDETERMINATE_COLOR
        out.append((
            color,
            f"{px},{py},{lam.real!r},{lam.imag!r},{tag},{count},{period},"
            f"{mult.real!r},{mult.imag!r},{abs(mult)!r}",
        ))
    return out


def _dyn_rows(
    kind: LatticeKind,
    lam: complex,
    grid: ScanGrid,
    budget: int,
    cfg: ToleranceConfig,
    rows: range,
) -> list[tuple[int, int, int]]:
    """The color of each pixel of the rows, in row-major order."""
    starts = [grid.pixel_to_plane(px, py) for py in rows for px in range(grid.width_px)]
    batch = orbit_array(kind, [lam] * len(starts), starts, budget, cfg, escape=False)
    colors = []
    for i in range(len(batch)):
        outcome = batch.outcome(i)
        hit = isinstance(outcome, PoleHit)
        colors.append(HIT_PALETTE[outcome.step % len(HIT_PALETTE)] if hit else EXHAUSTED_COLOR)
    return colors


def _run_blocks(fn, args: tuple, grid: ScanGrid, threads: int) -> list:
    """Evaluate fn(*args, rows) over blocks of whole rows, serially or in a
    process pool, and concatenate the blocks' lists.  Executor.map yields
    results in input order, as the serial loop does, so worker count cannot
    reorder them."""
    height = grid.height_px
    per_block = max(1, min(BLOCK_SIZE // grid.width_px, math.ceil(height / max(threads, 1))))
    blocks = [range(y, min(y + per_block, height)) for y in range(0, height, per_block)]
    if threads <= 1:
        results = [fn(*args, rows) for rows in blocks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(fn, *[[a] * len(blocks) for a in args], blocks))
    return [item for block in results for item in block]


def render_parameter_plane(
    kind: LatticeKind,
    grid: ScanGrid,
    budget: int,
    cfg: ToleranceConfig,
    threads: int = 1,
) -> tuple[Image, str]:
    """Classify every pixel's lambda and color it by verdict.

    Returns the image together with a CSV report; the CSV carries the cycle
    data (count, period, multiplier) and is the color-free record of the
    scan.
    """
    records = _run_blocks(_param_rows, (kind, grid, budget, cfg), grid, threads)
    pixels = tuple(color for color, _ in records)
    lines = [CSV_HEADER] + [line for _, line in records]
    image = Image(width=grid.width_px, height=grid.height_px, pixels=pixels)
    return image, "\n".join(lines) + "\n"


def render_dynamical_plane(
    kind: LatticeKind,
    lam: complex,
    grid: ScanGrid,
    budget: int,
    cfg: ToleranceConfig,
    threads: int = 1,
) -> Image:
    """Color every pixel by the step at which its forward orbit first hits a
    pole, cycling a fixed palette; budget exhaustion paints black.  A budget
    below 1, then a scale make_lattice refuses, raises before any block
    runs."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    _check_scale(lam)
    pixels = _run_blocks(_dyn_rows, (kind, lam, grid, budget, cfg), grid, threads)
    return Image(width=grid.width_px, height=grid.height_px, pixels=tuple(pixels))


def write_atomic(path: str, data: bytes) -> None:
    """Write data to a temp file in the target directory, then rename it
    into place, so a failed write never leaves a partial file at path."""
    import tempfile

    directory = os.path.dirname(os.path.abspath(path))
    tmp_path: Optional[str] = None
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".part")
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp_path, path)
        tmp_path = None
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp_path is not None:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass


def write_ppm(image: Image, path: str) -> None:
    """Binary PPM (P6, 8-bit), written atomically."""
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    write_atomic(path, header + bytes(c for pixel in image.pixels for c in pixel))
