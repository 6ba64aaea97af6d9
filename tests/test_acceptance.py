"""Whole-package acceptance gates, one test per numbered criterion.

Each test prints a single "criterion N <name>: PASS|FAIL" line to the real
stdout so the verdicts survive pytest's capture and land in piped logs; the
asserts behind each line carry the diagnostic detail.
"""

import cmath
import contextlib
import hashlib
import math
import sys
import time

import numpy as np

import conftest
from conftest import CANDIDATE, DEMO_REGION, PREPOLE_SQ
from oracles import winding_count
from weierdyn.cli import main
from weierdyn.dynamics import AllCriticalPrepole, classify
from weierdyn.hyperbolic import distortion_report, order_K, track_motion
from weierdyn.lattice import (
    LatticeKind,
    ToleranceConfig,
    make_lattice,
    wp,
    wp_array,
    wp_pair,
)
from weierdyn.misiurewicz import density_scan, find_prepole_params
from weierdyn.rng import SplitMix
from weierdyn.scan import Image, write_ppm

ZETA = cmath.exp(2j * cmath.pi / 3)

# goldens pinned by pilot renders at the demo settings
DEMO_PARAM_PPM_SHA = "39d75a7d0cabad52a2f87beee220d2ae0c080091ad40cc18a6476b3f8abfa95a"
DEMO_DYN_PPM_SHA = "938acdf23ae712af24773f3d72bc743d0c0fbb1b40a1283f98897174372b7428"

PREPOLE_SQ_ARG = "0.5783308619020432+0.7360677656029049i"


def _record(num: int, name: str, status: str) -> None:
    line = f"criterion {num} {name}: {status}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


@contextlib.contextmanager
def _criterion(num: int, name: str):
    """Collects problem strings; records the one-line verdict either way."""
    problems: list[str] = []
    try:
        yield problems
    except BaseException:
        _record(num, name, "FAIL")
        raise
    _record(num, name, "PASS" if not problems else "FAIL")
    assert not problems, f"criterion {num} {name}: " + "; ".join(problems)


def _check(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def test_criterion_1_wp_correctness(cfg):
    with _criterion(1, "wp correctness") as problems:
        t0 = time.perf_counter()
        for ki, kind in enumerate((LatticeKind.SQUARE, LatticeKind.TRIANGULAR)):
            latn = make_lattice(kind, 1.0 + 0j, cfg)
            worst_per = worst_even = worst_res = worst_hom = 0.0
            for i in range(1000):
                g = SplitMix(20260816, ki, i)
                lam = (0.5 + 2.5 * g.uniform()) * cmath.exp(
                    2j * math.pi * g.uniform()
                )
                u1 = 0.15 + 0.7 * g.uniform()
                u2 = 0.15 + 0.7 * g.uniform()
                lat = make_lattice(kind, lam, cfg)
                z = u1 * lat.gen1 + u2 * lat.gen2
                vals, poles = wp_array(
                    np.array([z, z + lat.gen1, z + lat.gen2, -z]), lat, cfg
                )
                _check(problems, not poles.any(), f"pole flag at sample {kind} {i}")
                worst_per = max(
                    worst_per, abs(vals[1] - vals[0]), abs(vals[2] - vals[0])
                )
                worst_even = max(worst_even, abs(vals[3] - vals[0]))
                p, pp = wp_pair(z, lat, cfg)
                worst_res = max(
                    worst_res, abs(pp * pp - 4 * p**3 + lat.g2 * p + lat.g3)
                )
                hom = wp(z / lam, latn, cfg) / (lam * lam)
                worst_hom = max(worst_hom, abs(vals[0] - hom))
            _check(problems, worst_per < 1e-8, f"{kind} periodicity {worst_per:.3e}")
            _check(problems, worst_even < 1e-8, f"{kind} evenness {worst_even:.3e}")
            _check(problems, worst_res < 1e-8, f"{kind} diff-eq {worst_res:.3e}")
            _check(problems, worst_hom < 1e-10, f"{kind} homogeneity {worst_hom:.3e}")
        elapsed = time.perf_counter() - t0
        _check(problems, elapsed < 10.0, f"runtime {elapsed:.1f}s")


def test_criterion_2_lattice_symmetry(cfg):
    with _criterion(2, "lattice symmetry") as problems:
        for lam in (1.0 + 0j, 2.3 + 0j, 0.7 + 1.1j):
            tri = make_lattice(LatticeKind.TRIANGULAR, lam, cfg)
            e1, e2, e3 = tri.crit_values
            _check(problems, abs(tri.g2) < 1e-10, f"tri g2 at {lam}")
            _check(problems, abs(e2 / e1 - ZETA) < 1e-10, f"tri e2/e1 at {lam}")
            sq = make_lattice(LatticeKind.SQUARE, lam, cfg)
            f1, f2, f3 = sq.crit_values
            _check(problems, abs(sq.g3) < 1e-10, f"square g3 at {lam}")
            _check(problems, abs(f2 + f1) < 1e-10, f"square e2+e1 at {lam}")
            _check(problems, abs(f3) < 1e-10, f"square e3 at {lam}")
        # orbit equivariance f^n(e2) = zeta f^n(e1), tame parameters
        for lam in (2.3 + 0j, 1.8 + 1.44j):
            tri = make_lattice(LatticeKind.TRIANGULAR, lam, cfg)
            a, b = tri.crit_values[0], tri.crit_values[1]
            for n in range(1, 21):
                a = wp(a, tri, cfg)
                b = wp(b, tri, cfg)
                rel = abs(b - ZETA * a) / max(1.0, abs(a))
                _check(
                    problems, rel < 1e-8, f"equivariance step {n} at {lam}: {rel:.3e}"
                )


def test_criterion_3_prepole_solver(cfg):
    with _criterion(3, "prepole solver") as problems:
        t0 = time.perf_counter()
        square_roots = []
        for n in range(3):
            for j in range(-1, 2):
                for k in range(-1, 2):
                    square_roots.extend(
                        find_prepole_params(
                            LatticeKind.SQUARE, n, j, k, DEMO_REGION, 256, cfg
                        )
                    )
        elapsed = time.perf_counter() - t0
        _check(problems, elapsed < 60.0, f"square sweep runtime {elapsed:.1f}s")
        _check(problems, len(square_roots) >= 1, "no square roots found")
        _check(
            problems,
            all(r.residual < 1e-9 for r in square_roots),
            "square residual above 1e-9",
        )
        _check(
            problems,
            all(r.isolation_radius > 0 for r in square_roots),
            "missing isolation radius",
        )
        # spot-check the certification on a few roots spread over the sweep
        for root in (square_roots[0], square_roots[len(square_roots) // 2],
                     square_roots[-1]):
            count = winding_count(
                LatticeKind.SQUARE, root.n, root.j, root.k,
                root.lambda_star, root.isolation_radius, cfg,
            )
            _check(problems, count == 1, f"winding count {count} at {root.lambda_star}")

        tri_roots = []
        for n in range(3):
            for j in range(-1, 2):
                for k in range(-1, 2):
                    tri_roots.extend(
                        find_prepole_params(
                            LatticeKind.TRIANGULAR, n, j, k, DEMO_REGION, 256, cfg
                        )
                    )
        _check(problems, len(tri_roots) >= 1, "no triangular roots found")
        bad = 0
        for root in tri_roots:
            verdict = classify(LatticeKind.TRIANGULAR, root.lambda_star, 64, cfg)
            if not (
                isinstance(verdict, AllCriticalPrepole)
                and len(set(verdict.steps)) == 1
            ):
                bad += 1
        _check(problems, bad == 0, f"{bad} simultaneity violations of {len(tri_roots)}")


def test_criterion_4_holomorphic_motion(cfg, candidate_sample):
    with _criterion(4, "holomorphic motion") as problems:
        for z in candidate_sample.points:
            frame = track_motion(candidate_sample, z, CANDIDATE, 12, cfg)
            _check(
                problems,
                abs(frame.h_value - z) <= cfg.eval_tol,
                f"identity drift {abs(frame.h_value - z):.3e} at {z}",
            )
        probe = CANDIDATE + 1e-3
        worst = 0.0
        for z in candidate_sample.points:
            frame = track_motion(candidate_sample, z, probe, 12, cfg)
            if not math.isnan(frame.conj_residual):
                worst = max(worst, frame.conj_residual)
        _check(
            problems, worst < 10.0 * cfg.newton_tol, f"conjugacy residual {worst:.3e}"
        )
        # shadowing values settle geometrically as the step count grows
        anchor = candidate_sample.points[3]
        ref = track_motion(candidate_sample, anchor, probe, 20, cfg).h_value
        diffs = [
            abs(track_motion(candidate_sample, anchor, probe, n, cfg).h_value - ref)
            for n in (2, 6, 10)
        ]
        _check(
            problems,
            diffs[0] > diffs[1] > diffs[2] > 0,
            f"differences not Cauchy: {diffs}",
        )
        rate = (diffs[0] / diffs[2]) ** (1.0 / 8.0)
        _check(problems, rate > 1.0, f"geometric rate {rate:.3f}")
        k64 = order_K(candidate_sample, 1e-3, 64, cfg)
        k128 = order_K(candidate_sample, 1e-3, 128, cfg)
        _check(problems, k64 >= 1, f"order K = {k64}")
        _check(problems, k64 == k128, f"order unstable: {k64} vs {k128}")


def test_criterion_5_distortion(cfg, candidate_sample):
    with _criterion(5, "distortion") as problems:
        reports = [
            distortion_report(candidate_sample, r, 20, cfg)
            for r in (1e-6, 5e-7, 2.5e-7)
        ]
        _check(problems, reports[0].pairs_used >= 20, "fewer than 20 pairs")
        _check(
            problems,
            reports[0].max_ratio < 0.1,
            f"max ratio {reports[0].max_ratio:.3e}",
        )
        _check(
            problems,
            reports[0].max_ratio >= reports[1].max_ratio >= reports[2].max_ratio,
            "ratio not non-increasing across r, r/2, r/4",
        )


def test_criterion_6_density_experiment(cfg):
    with _criterion(6, "density experiment") as problems:
        t0 = time.perf_counter()
        roots = find_prepole_params(
            LatticeKind.SQUARE, 1, 1, 0, (0.52, 0.64, 0.68, 0.80), 64, cfg
        )
        target = min(roots, key=lambda r: abs(r.lambda_star - PREPOLE_SQ))
        _check(problems, target.residual < cfg.newton_tol, "root not verified")
        _check(problems, target.isolation_radius > 0, "root not certified")
        rows = density_scan(
            LatticeKind.SQUARE, target.lambda_star, (1e-3, 1e-4), 2000,
            0.05, 200, 20260816, cfg,
        )
        for row in rows:
            _check(problems, row.n_samples == 2000, "sample count off")
            _check(
                problems,
                row.fail_fraction > 0,
                f"fail fraction {row.fail_fraction} at {row.radius}",
            )
            # pilot regression value is 1.0; binomial SD is 0 there, so the
            # +-3 SD band degenerates to exact equality
            _check(
                problems,
                row.fail_fraction == 1.0,
                f"fail fraction {row.fail_fraction} != pilot 1.0 at {row.radius}",
            )
        rerun = density_scan(
            LatticeKind.SQUARE, target.lambda_star, (1e-3, 1e-4), 2000,
            0.05, 200, 20260816, cfg,
        )
        _check(problems, rows == rerun, "same seed did not reproduce exactly")
        elapsed = time.perf_counter() - t0
        _check(problems, elapsed < 300.0, f"runtime {elapsed:.0f}s")


def test_criterion_7_determinism(cfg, tmp_path, capsys):
    with _criterion(7, "determinism") as problems:
        outs = []
        files = []
        for tag in ("a", "b"):
            path = tmp_path / f"density_{tag}.csv"
            code = main([
                "density", "--kind", "square", "--lambda0", PREPOLE_SQ_ARG,
                "--radii", "1e-3,1e-4", "--samples", "200",
                "--seed", "20260816", "--out", str(path),
            ])
            _check(problems, code == 0, f"density run {tag} exit {code}")
            outs.append(capsys.readouterr().out.replace(str(path), "OUT"))
            files.append(path.read_bytes())
        _check(problems, outs[0] == outs[1], "density stdout differs across reruns")
        _check(problems, files[0] == files[1], "density file differs across reruns")

        param_files = []
        for tag, threads in (("a", "1"), ("b", "1"), ("c", "2")):
            ppm = tmp_path / f"param_{tag}.ppm"
            csv = tmp_path / f"param_{tag}.csv"
            code = main([
                "render-param", "--kind", "square", "--origin", "0.2+0.2i",
                "--extent", "1.6+1.6i", "--width-px", "16", "--height-px", "16",
                "--budget", "100", "--out", str(ppm), "--csv-out", str(csv),
                "--threads", threads,
            ])
            capsys.readouterr()
            _check(problems, code == 0, f"render-param {tag} exit {code}")
            param_files.append((ppm.read_bytes(), csv.read_bytes()))
        _check(
            problems,
            param_files[0] == param_files[1] == param_files[2],
            "render-param differs across reruns or thread counts",
        )

        dyn_files = []
        for tag, threads in (("a", "1"), ("b", "1"), ("c", "2")):
            ppm = tmp_path / f"dyn_{tag}.ppm"
            code = main([
                "render-dyn", "--kind", "square", "--lambda", "2.0",
                "--origin=-0.9-0.9i", "--extent", "1.8+1.8i",
                "--width-px", "16", "--height-px", "16", "--budget", "40",
                "--out", str(ppm), "--threads", threads,
            ])
            capsys.readouterr()
            _check(problems, code == 0, f"render-dyn {tag} exit {code}")
            dyn_files.append(ppm.read_bytes())
        _check(
            problems,
            dyn_files[0] == dyn_files[1] == dyn_files[2],
            "render-dyn differs across reruns or thread counts",
        )


def test_criterion_8_ppm_bit_exactness(cfg, tmp_path, capsys):
    with _criterion(8, "ppm bit-exactness") as problems:
        red = tmp_path / "red.ppm"
        write_ppm(Image(width=1, height=1, pixels=((255, 0, 0),)), str(red))
        _check(
            problems,
            red.read_bytes() == b"P6\n1 1\n255\n\xff\x00\x00",
            "red pixel bytes differ",
        )

        ppm = tmp_path / "demo_param.ppm"
        csv = tmp_path / "demo_param.csv"
        code = main([
            "render-param", "--kind", "square", "--origin", "0.15+0.1i",
            "--extent", "2.2+2.2i", "--width-px", "64", "--height-px", "64",
            "--budget", "200", "--out", str(ppm), "--csv-out", str(csv),
            "--threads", "1",
        ])
        capsys.readouterr()
        _check(problems, code == 0, f"demo param render exit {code}")
        digest = hashlib.sha256(ppm.read_bytes()).hexdigest()
        _check(
            problems, digest == DEMO_PARAM_PPM_SHA, f"param golden mismatch {digest}"
        )

        dyn = tmp_path / "demo_dyn.ppm"
        code = main([
            "render-dyn", "--kind", "square", "--lambda", "2.0",
            "--origin=-1.8-1.8i", "--extent", "3.6+3.6i",
            "--width-px", "64", "--height-px", "64", "--budget", "60",
            "--out", str(dyn), "--threads", "1",
        ])
        capsys.readouterr()
        _check(problems, code == 0, f"demo dyn render exit {code}")
        digest = hashlib.sha256(dyn.read_bytes()).hexdigest()
        _check(problems, digest == DEMO_DYN_PPM_SHA, f"dyn golden mismatch {digest}")
