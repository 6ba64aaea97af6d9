"""Command-line surface: option parsing, config precedence, exit codes, and
byte-identical reruns of the file-producing subcommands."""

import hashlib
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

from conftest import CANDIDATE, PREPOLE_SQ
from weierdyn.cli import (
    UsageError,
    load_config,
    main,
    parse_complex,
    parse_kind,
    parse_radii,
)
from weierdyn.lattice import LatticeKind

PREPOLE_SQ_ARG = "0.5783308619020432+0.7360677656029049i"
CANDIDATE_ARG = "1.9101297082387314+0.7624256939043886i"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_complex_accepts_strict_forms():
    assert parse_complex("1.0+0.5i") == 1.0 + 0.5j
    assert parse_complex("-1.2-0.4i") == -1.2 - 0.4j
    assert parse_complex("2.0") == 2.0 + 0j
    assert parse_complex("1.5i") == 1.5j
    assert parse_complex(" 3.25e-1+1e2i ") == 0.325 + 100j


def test_parse_complex_rejects_ambiguous_forms():
    for bad in ("i", "1+i", "1+2j", "abc", "1 + 2i", ""):
        with pytest.raises(UsageError):
            parse_complex(bad)


def test_parse_kind():
    assert parse_kind("square") is LatticeKind.SQUARE
    assert parse_kind(" Triangular ") is LatticeKind.TRIANGULAR
    with pytest.raises(UsageError):
        parse_kind("hex")


def test_parse_radii():
    assert parse_radii("1e-3,1e-4") == (1e-3, 1e-4)
    assert parse_radii("0.5") == (0.5,)
    with pytest.raises(UsageError):
        parse_radii("1e-3,,1e-4")
    with pytest.raises(UsageError):
        parse_radii("1e-3,-1")
    with pytest.raises(UsageError):
        parse_radii("fast")
    for bad in ("1e-3,nan", "1e-3,inf", "-inf"):
        with pytest.raises(UsageError):
            parse_radii(bad)


def test_load_config_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# header\n\nbudget = 9  # inline note\nkind = square\n")
    assert load_config(str(path)) == {"budget": "9", "kind": "square"}


def test_load_config_unknown_key_cites_location(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("budget = 9\nbogus = 3\n")
    with pytest.raises(UsageError) as err:
        load_config(str(path))
    assert f"{path}:2" in str(err.value)
    assert "bogus" in str(err.value)


def test_load_config_missing_equals_cites_location(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("budget 9\n")
    with pytest.raises(UsageError) as err:
        load_config(str(path))
    assert f"{path}:1" in str(err.value)


def test_flag_beats_config_beats_default(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(
        "budget = 7\n"
        "lambda_re = 0.5783308619020432\n"
        "lambda_im = 0.7360677656029049\n"
    )
    code, out, _ = _run(
        capsys, "classify", "--config", str(path), "--kind", "square",
        "--budget", "100",
    )
    assert code == 0
    assert "  budget = 100" in out
    assert "  lambda_re = 0.5783308619020432" in out

    code, out, _ = _run(capsys, "classify", "--config", str(path), "--kind", "square")
    assert code == 0
    assert "  budget = 7" in out

    code, out, _ = _run(
        capsys, "classify", "--kind", "square", "--lambda", PREPOLE_SQ_ARG
    )
    assert code == 0
    assert "  budget = 2000" in out


def test_cli_import_loads_only_the_layers_classify_needs(capsys):
    # a fresh interpreter that imports the CLI has not loaded the layers of
    # the other commands, nor the process pool; classify still echoes the
    # default budget it takes from dynamics
    probe = (
        "import sys, weierdyn.cli\n"
        "names = ('weierdyn.hyperbolic', 'weierdyn.misiurewicz', 'weierdyn.scan',\n"
        "         'multiprocessing')\n"
        "print([n for n in names if n in sys.modules])\n"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
    code, echo, _ = _run(capsys, "classify", "--kind", "square", "--lambda", PREPOLE_SQ_ARG)
    assert code == 0
    assert "  budget = 2000" in echo


def test_pole_eps_whose_cube_underflows_exits_one(capsys):
    # wp_pair divides by u0^3 with |u0| >= pole_eps, which underflows to 0
    # below about 2.81e-103; the config is refused before any evaluation
    code, _, err = _run(
        capsys, "classify", "--kind", "square", "--lambda", "2.0",
        "--pole-eps", "1e-150", "--eval-tol", "1e-170",
    )
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["verify", "--kind", "square", "--lambda0", CANDIDATE_ARG, "--m-steps", "16",
     "--newton-tol", "inf"],
    ["classify", "--kind", "square", "--lambda", "2.0", "--pole-eps", "inf"],
], ids=["verify-newton-tol", "classify-pole-eps"])
def test_infinite_tolerance_exits_one(capsys, argv):
    # an infinite newton_tol passed every verify check vacuously, and an
    # infinite pole_eps put every half-period in pole; the config is refused
    code, _, err = _run(capsys, *argv)
    assert code == 1
    assert err.splitlines() == ["error: tolerances must be finite"]


def test_verify_refuses_a_distortion_radius_whose_step_underflows(capsys):
    # the corollary's central differences divide by 2 * (r/100), which is 0
    # at r = 5e-324
    code, out, err = _run(
        capsys, "verify", "--kind", "square", "--lambda0", CANDIDATE_ARG, "--m-steps", "16",
        "--n-pairs", "2", "--r-distortion", "5e-324",
    )
    assert code == 1
    assert err.splitlines() == ["error: r/100 must not underflow to zero"]
    assert "order K = 1" in out


EXPANSION_LINE = "expansion C=0.999999999 a=3.4552512445372425 n_range=8"


@pytest.mark.parametrize("option, error, last", [
    ("--rho=nan", "rho must be finite", EXPANSION_LINE),
    ("--rho=inf", "rho must be finite", EXPANSION_LINE),
    ("--rho=-inf", "rho must be finite", EXPANSION_LINE),
    ("--r-distortion=nan", "r must be finite", "order K = 1"),
    ("--r-distortion=inf", "r must be finite", "order K = 1"),
    ("--r-distortion=0", "r must be positive", "order K = 1"),
    ("--r-distortion=-1", "r must be positive", "order K = 1"),
    ("--r-distortion=-inf", "r must be positive", "order K = 1"),
])
def test_verify_refuses_a_non_finite_rho_or_distortion_radius(capsys, option, error, last):
    # a NaN or infinite rho or r once reached make_lattice as a NaN or
    # infinite scale, and the error blamed the lattice scale
    code, out, err = _run(
        capsys, "verify", "--kind", "square", "--lambda0", CANDIDATE_ARG, "--m-steps", "16",
        option,
    )
    assert (code, err) == (1, f"error: {error}\n")
    assert out.splitlines()[-1] == last


@pytest.mark.parametrize("rho", ["0", "5e-324"])
def test_verify_keeps_its_output_at_a_zero_or_subnormal_rho(capsys, rho):
    # every circle scale is lambda0 itself, where x is 0
    code, out, err = _run(
        capsys, "verify", "--kind", "square", "--lambda0", CANDIDATE_ARG, "--m-steps", "16",
        "--rho", rho,
    )
    assert (code, err) == (2, "")
    assert out.splitlines()[-3:] == [
        "identity residual at lambda0 = 0.0",
        "max conjugacy residual at lambda0+rho = 0.0",
        "order_K failed: |x| on the circle is within noise of zero",
    ]


def test_config_complex_needs_both_halves(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("lambda_re = 2.0\n")
    code, _, err = _run(capsys, "classify", "--config", str(path), "--kind", "square")
    assert code == 1
    assert "lambda_im" in err


def test_classify_attracting_exit_zero(capsys):
    code, out, _ = _run(
        capsys, "classify", "--kind", "square", "--lambda", "1.2+2.04i"
    )
    assert code == 0
    assert "AttractingCycles count=1 period=1" in out


def test_classify_prepole_exit_zero(capsys):
    code, out, _ = _run(
        capsys, "classify", "--kind", "square", "--lambda", PREPOLE_SQ_ARG
    )
    assert code == 0
    assert "AllCriticalPrepole steps=[1,1,0]" in out


def test_classify_indeterminate_exit_two(capsys):
    code, out, _ = _run(
        capsys, "classify", "--kind", "square", "--lambda", CANDIDATE_ARG,
        "--budget", "100",
    )
    assert code == 2
    assert "Indeterminate iterations_used=" in out


def test_classify_zero_lambda_exit_one(capsys):
    code, _, err = _run(capsys, "classify", "--kind", "square", "--lambda", "0.0")
    assert code == 1
    assert "error:" in err


# classify's echo, whose lambda and budget lines each case fills in
CLASSIFY_ECHO = """resolved config for classify:
  kind = {}
  lambda_re = {}
  lambda_im = {}
  budget = {}
  eval_tol = 1e-12
  pole_eps = 1e-06
  newton_tol = 1e-09
"""

# (kind, --lambda, --budget, echoed lambda_re and lambda_im, exit code, the
# verdict line or None for the error exit); recorded from the scalar
# classify path, which stays because it is faster than a one-element batch
CLASSIFY_STDOUT = [
    ("square", "1.2+2.04i", None, "1.2", "2.04", 0,
     "AttractingCycles count=1 period=1 multiplier=0.2579624230351499+0.2546917851325303i "
     "abs=0.3625086441895705"),
    ("square", PREPOLE_SQ_ARG, None, "0.5783308619020432", "0.7360677656029049", 0,
     "AllCriticalPrepole steps=[1,1,0]"),
    ("square", CANDIDATE_ARG, None, "1.9101297082387314", "0.7624256939043886", 2,
     "Indeterminate iterations_used=2000"),
    ("square", "2.0", "1", "2.0", "0.0", 2, "Indeterminate iterations_used=1"),
    ("square", "0.0", None, "0.0", "0.0", 1, None),
    ("triangular", "1.8+1.44i", None, "1.8", "1.44", 0,
     "AttractingCycles count=1 period=3 multiplier=0.12941511517819912+0.10539925240983103i "
     "abs=0.16690498628003245"),
    ("triangular", "2.3", None, "2.3", "0.0", 0,
     "AttractingCycles count=3 period=1 multiplier=-0.23425108408283554-9.733636867914196e-17i "
     "abs=0.23425108408283554"),
    ("triangular", "0.5392909261501828+0.11091500820528369i", None, "0.5392909261501828",
     "0.11091500820528369", 0, "AllCriticalPrepole steps=[1,1,1]"),
    ("triangular", "2.3364428785230364+0.7841800498035085i", None, "2.3364428785230364",
     "0.7841800498035085", 2, "Indeterminate iterations_used=2000"),
    ("triangular", "2.3", "1", "2.3", "0.0", 2, "Indeterminate iterations_used=1"),
    ("triangular", "0.0", None, "0.0", "0.0", 1, None),
]


@pytest.mark.parametrize(
    "kind, lam, budget, re, im, code, verdict", CLASSIFY_STDOUT,
    ids=[f"{c[0]}-{c[1]}-budget-{c[2] or 2000}" for c in CLASSIFY_STDOUT],
)
def test_classify_stdout_is_pinned(capsys, kind, lam, budget, re, im, code, verdict):
    argv = ["classify", "--kind", kind, "--lambda", lam]
    if budget is not None:
        argv += ["--budget", budget]
    want = CLASSIFY_ECHO.format(kind, re, im, budget or "2000")
    if verdict is not None:
        want += verdict + "\n"
    err = "" if code != 1 else "error: lattice scale must be nonzero and finite\n"
    assert _run(capsys, *argv) == (code, want, err)


def test_echo_reports_resolved_values(capsys):
    code, out, _ = _run(
        capsys, "classify", "--kind", "square", "--lambda", PREPOLE_SQ_ARG
    )
    assert code == 0
    assert "resolved config for classify:" in out
    assert "  kind = square" in out
    assert "  lambda_im = 0.7360677656029049" in out
    assert "  eval_tol = 1e-12" in out


def test_density_requires_seed(capsys):
    code, _, err = _run(
        capsys, "density", "--kind", "square", "--lambda0", PREPOLE_SQ_ARG,
        "--radii", "1e-3",
    )
    assert code == 1
    assert "--seed" in err


def test_density_reruns_identical(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    runs = []
    for out_path in (out_a, out_b):
        code, out, _ = _run(
            capsys, "density", "--kind", "square", "--lambda0", PREPOLE_SQ_ARG,
            "--radii", "1e-3,1e-4", "--samples", "50", "--seed", "7",
            "--out", str(out_path),
        )
        assert code == 0
        runs.append(out.replace(str(out_path), "OUT"))
    assert runs[0] == runs[1]
    assert out_a.read_bytes() == out_b.read_bytes()
    text = out_a.read_text()
    assert text.splitlines()[0] == "radius,n_samples,fail_fraction,seed"
    assert len(text.splitlines()) == 3


@pytest.mark.parametrize(
    "override",
    [
        ("--samples", "0"),
        ("--samples", "-3"),
        ("--radii", "1e-3,nan"),
        ("--radii", "1e-3,inf"),
        ("--m-steps", "0"),
        ("--delta", "nan"),
        ("--delta", "-0.05"),
    ],
)
def test_density_rejects_bad_input(tmp_path, capsys, override):
    path = tmp_path / "d.csv"
    code, out, err = _run(
        capsys, "density", "--kind", "square", "--lambda0", PREPOLE_SQ_ARG,
        "--radii", "1e-3", "--samples", "5", "--seed", "7", *override, "--out", str(path),
    )
    assert code == 1
    assert "error:" in err
    assert "fail_fraction" not in out
    assert not path.exists()


def test_find_prepoles_rejects_tiny_grid(tmp_path, capsys):
    code, _, err = _run(
        capsys, "find-prepoles", "--kind", "square", "--re-min", "0.4",
        "--re-max", "0.8", "--im-min", "0.6", "--im-max", "0.9",
        "--grid", "4", "--csv-out", str(tmp_path / "r.csv"),
    )
    assert code == 1
    assert "error:" in err


_SWEEP_ARGS = (
    "find-prepoles", "--n-max", "2", "--j-range", "1", "--k-range", "1",
    "--re-min", "0.5", "--re-max", "3", "--im-min", "0.5", "--im-max", "3",
)

# SHA-256 of the grid-16 sweep CSV of both kinds; the batched solver must
# write these bytes exactly
SWEEP_CSV_SHA256 = {
    "square": "b690bf70e6bc584c415a0a60620fb2347c59ade050c2a15f265054220f27c391",
    "triangular": "0241535b7c845f7784c2b80ca14c4281695321c81ec807434835d5f641007b9d",
}


@pytest.mark.parametrize("kind", sorted(SWEEP_CSV_SHA256))
def test_find_prepoles_sweep_csv_bytes_pinned(tmp_path, capsys, kind):
    path = tmp_path / f"{kind}.csv"
    code, _, _ = _run(
        capsys, *_SWEEP_ARGS, "--kind", kind, "--grid", "16", "--csv-out", str(path)
    )
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SWEEP_CSV_SHA256[kind]


@pytest.mark.parametrize(
    "override",
    [
        ("--re-min", "3.0", "--re-max", "0.5"),
        ("--re-max", "0.5"),
        ("--im-min", "3.0", "--im-max", "0.5"),
        ("--im-max", "0.5"),
        ("--n-max", "-1"),
        ("--j-range", "-1"),
        ("--k-range", "-1"),
    ],
)
def test_find_prepoles_rejects_empty_input(tmp_path, capsys, override):
    path = tmp_path / "r.csv"
    code, out, err = _run(
        capsys, *_SWEEP_ARGS, *override, "--kind", "square", "--grid", "16",
        "--csv-out", str(path),
    )
    assert code == 1
    assert "error:" in err
    assert "found" not in out
    assert not path.exists()


def test_find_prepoles_demo_region_deterministic(tmp_path, capsys):
    paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
    for path in paths:
        code, out, _ = _run(
            capsys, "find-prepoles", "--kind", "square", "--n-max", "1",
            "--j-range", "1", "--k-range", "1", "--re-min", "0.4",
            "--re-max", "0.8", "--im-min", "0.6", "--im-max", "0.9",
            "--grid", "64", "--csv-out", str(path),
        )
        assert code == 0
        assert "found 988 roots" in out
    assert paths[0].read_bytes() == paths[1].read_bytes()

    lines = paths[0].read_text().splitlines()
    assert lines[0] == "n,j,k,lambda_re,lambda_im,residual,isolation_radius"
    hits = []
    for line in lines[1:]:
        n, j, k, lre, lim, res, iso = line.split(",")
        if (n, j, k) == ("1", "1", "0"):
            lam = complex(float(lre), float(lim))
            if abs(lam - PREPOLE_SQ) < 1e-9:
                hits.append((lam, float(res), float(iso)))
    assert len(hits) == 1
    assert hits[0][1] < 1e-9
    assert hits[0][2] > 0


def test_verify_candidate_passes(capsys):
    code, out, _ = _run(
        capsys, "verify", "--kind", "square", "--lambda0", CANDIDATE_ARG,
        "--m-steps", "16",
    )
    assert code == 0
    assert "order K = 1" in out
    assert "expansion C=" in out
    assert "distortion max_ratio=" in out


# verify's whole stdout at the criterion-4 candidate, recorded from the scalar
# pullback path: a changed bit in any residual or ratio shows here, where the
# substring checks above would pass it
VERIFY_STDOUT = {
    "16": """resolved config for verify:
  kind = square
  lambda0_re = 1.9101297082387314
  lambda0_im = 0.7624256939043886
  delta = 0.02
  m_steps = 16
  rho = 0.001
  circle_samples = 64
  n_range = 8
  r_distortion = 1e-06
  n_pairs = 20
  eval_tol = 1e-12
  pole_eps = 1e-06
  newton_tol = 1e-09
sample M=16 delta=0.02 N_exp=1 min_crit=0.2829191301802507 min_inf=1.04801601007968
expansion C=0.999999999 a=3.4552512445372425 n_range=8
identity residual at lambda0 = 0.0
max conjugacy residual at lambda0+rho = 5.89368419225394e-10
order K = 1
distortion max_ratio=0.00011392096443627826 corollary_ratio=0.00012127330869062856 pairs=20
""",
    None: """resolved config for verify:
  kind = square
  lambda0_re = 1.9101297082387314
  lambda0_im = 0.7624256939043886
  delta = 0.02
  m_steps = 48
  rho = 0.001
  circle_samples = 64
  n_range = 8
  r_distortion = 1e-06
  n_pairs = 20
  eval_tol = 1e-12
  pole_eps = 1e-06
  newton_tol = 1e-09
separation violated at step 28 (crit)
""",
}


@pytest.mark.parametrize("m_steps, code", [("16", 0), (None, 2)])
def test_verify_stdout_is_pinned(capsys, m_steps, code):
    argv = ["verify", "--kind", "square", "--lambda0", CANDIDATE_ARG]
    if m_steps is not None:
        argv += ["--m-steps", m_steps]
    got, out, err = _run(capsys, *argv)
    assert (got, out, err) == (code, VERIFY_STDOUT[m_steps], "")


def test_verify_attracting_reports_no_expansion(capsys):
    code, out, _ = _run(
        capsys, "verify", "--kind", "square", "--lambda0", "1.2+2.04i",
        "--m-steps", "48",
    )
    assert code == 2
    assert "no expansion" in out


def test_verify_degenerate_single_point(capsys):
    code, out, _ = _run(
        capsys, "verify", "--kind", "square", "--lambda0", CANDIDATE_ARG,
        "--m-steps", "0",
    )
    assert code == 0
    assert "degenerate single-point sample" in out


@pytest.mark.parametrize("m_steps, code, last", [
    # distortion_report has too few sample steps for any pair
    ("1", 2, "distortion failed: no pair kept its orbits close for 3 steps"),
    ("2", 2, "distortion failed: no pair kept its orbits close for 3 steps"),
    ("26", 0, "distortion max_ratio=0.00011392096443627826 "
              "corollary_ratio=0.00012127330869062856 pairs=20"),
    # M = ext_usable: the last sample point has no reference orbit ahead
    ("27", 2, "motion failed: no reference orbit beyond the anchor point"),
    ("30", 2, "separation violated at step 28 (crit)"),
])
def test_verify_exit_codes_by_sample_length(capsys, m_steps, code, last):
    got, out, err = _run(
        capsys, "verify", "--kind", "square", "--lambda0", CANDIDATE_ARG,
        "--m-steps", m_steps,
    )
    assert (got, err) == (code, "")
    assert out.splitlines()[-1] == last


@pytest.mark.parametrize("delta", ["nan", "-1", "-inf", "-5e-324"])
def test_verify_refuses_a_nan_or_negative_delta(capsys, delta):
    # NaN once passed every separation test and exited 0; a negative delta
    # died in a ShadowLost traceback from the identity residual
    code, out, err = _run(
        capsys, "verify", "--kind", "square", "--lambda0", CANDIDATE_ARG, "--m-steps", "16",
        f"--delta={delta}",
    )
    assert (code, err) == (1, "error: delta must be non-negative\n")
    assert out.splitlines()[-1] == "  newton_tol = 1e-09"


@pytest.mark.parametrize("delta, tail", [
    ("0", [
        "sample M=16 delta=0.0 N_exp=1 min_crit=0.2829191301802507 min_inf=1.04801601007968",
        "expansion C=0.999999999 a=3.4552512445372425 n_range=8",
        "identity residual at lambda0 = 0.0",
        "shadowing lost at step 11",
    ]),
    ("inf", ["separation violated at step 0 (infinity)"]),
])
def test_verify_keeps_its_output_at_delta_zero_and_infinity(capsys, delta, tail):
    code, out, err = _run(
        capsys, "verify", "--kind", "square", "--lambda0", CANDIDATE_ARG, "--m-steps", "16",
        "--delta", delta,
    )
    assert (code, err) == (2, "")
    lines = out.splitlines()
    assert lines[-len(tail) - 1] == "  newton_tol = 1e-09" and lines[-len(tail):] == tail


def test_render_param_writes_both_files(tmp_path, capsys):
    ppm = tmp_path / "p.ppm"
    csv = tmp_path / "p.csv"
    code, out, _ = _run(
        capsys, "render-param", "--kind", "square", "--origin", "0.2+0.2i",
        "--extent", "1.6+1.6i", "--width-px", "4", "--height-px", "4",
        "--budget", "60", "--out", str(ppm), "--csv-out", str(csv),
        "--threads", "1",
    )
    assert code == 0
    assert ppm.read_bytes().startswith(b"P6\n4 4\n255\n")
    assert csv.read_text().splitlines()[0].startswith("px,py,lambda_re")
    assert "wrote" in out


def test_render_dyn_writes_file(tmp_path, capsys):
    ppm = tmp_path / "d.ppm"
    code, _, _ = _run(
        capsys, "render-dyn", "--kind", "square", "--lambda", "2.0",
        "--origin=-0.9-0.9i", "--extent", "1.8+1.8i", "--width-px", "4",
        "--height-px", "4", "--budget", "40", "--out", str(ppm),
        "--threads", "1",
    )
    assert code == 0
    assert ppm.read_bytes().startswith(b"P6\n4 4\n255\n")


EXTREME_SCALE_ARGS = ["1e-170", "1e-160i", "5e-324", "1e300+1e300i"]


@pytest.mark.parametrize("lam", EXTREME_SCALE_ARGS)
def test_scales_too_small_or_large_exit_one_without_traceback(tmp_path, capsys, lam):
    # a scale whose sixth power underflows to 0 or overflows is refused
    # like lambda = 0, with exit 1 and an error line
    runs = [
        ("classify", "--kind", "square", "--lambda", lam),
        ("verify", "--kind", "square", "--lambda0", lam, "--m-steps", "4"),
        ("render-dyn", "--kind", "triangular", "--lambda", lam, "--origin=-0.9-0.9i",
         "--extent", "1.8+1.8i", "--width-px", "2", "--height-px", "2", "--budget", "10",
         "--out", str(tmp_path / "d.ppm"), "--threads", "1"),
    ]
    for argv in runs:
        code, _, err = _run(capsys, *argv)
        assert code == 1
        assert "error: lattice scale must be nonzero and finite" in err
    # render-param marks such a parameter excluded, as it does lambda = 0
    csv = tmp_path / "p.csv"
    code, _, _ = _run(
        capsys, "render-param", "--kind", "square", "--origin", lam, "--extent", "0.0+0.0i",
        "--width-px", "1", "--height-px", "1", "--budget", "10",
        "--out", str(tmp_path / "p.ppm"), "--csv-out", str(csv), "--threads", "1",
    )
    assert code == 0
    assert csv.read_text().splitlines()[1].split(",")[4] == "excluded"


def test_render_missing_directory_exit_one(tmp_path, capsys):
    target = tmp_path / "nope" / "d.ppm"
    code, _, err = _run(
        capsys, "render-dyn", "--kind", "square", "--lambda", "2.0",
        "--origin=-0.9-0.9i", "--extent", "1.8+1.8i", "--width-px", "2",
        "--height-px", "2", "--budget", "10", "--out", str(target),
        "--threads", "1",
    )
    assert code == 1
    assert "error:" in err
    assert not (tmp_path / "nope").exists()


def test_covering_reports_steps(capsys):
    code, out, _ = _run(
        capsys, "covering", "--kind", "square", "--lambda", "2.0",
        "--center", "0.0+0.0i", "--d", "0.6", "--delta", "0.05",
        "--max-n", "12", "--grid", "64",
    )
    assert code == 0
    assert "covering_steps = 2" in out


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["classify", "--help"]) == 0
    capsys.readouterr()


def test_unknown_command_exit_one(capsys):
    code, _, err = _run(capsys, "frobnicate")
    assert code == 1
    assert "error:" in err


_RENDER_AT_POLE_EPS = (
    "render-param", "--kind", "square", "--origin", "1.0+1.0i", "--extent", "0.5+0.5i",
    "--width-px", "2", "--height-px", "2", "--budget", "10", "--out", "o.ppm", "--csv-out", "o.csv",
)


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--kind", "square", "--lambda", "1.5+0.5i"),
        ("verify", "--kind", "square", "--lambda0", CANDIDATE_ARG),
        (*_RENDER_AT_POLE_EPS, "--threads", "1"),
        (*_RENDER_AT_POLE_EPS, "--threads", "2"),
        ("density", "--kind", "square", "--lambda0", CANDIDATE_ARG, "--radii", "1e-3",
         "--samples", "4", "--seed", "1"),
        ("covering", "--kind", "square", "--lambda", "2.0", "--center", "0.0+0.0i", "--d", "0.6",
         "--delta", "0.05"),
        ("find-prepoles", "--kind", "square", "--n-max", "0", "--re-min", "0.5", "--re-max", "1",
         "--im-min", "0.5", "--im-max", "1", "--grid", "8", "--csv-out", "r.csv"),
    ],
    ids=["classify", "verify", "render-param", "render-param-2-workers", "density", "covering",
         "find-prepoles"],
)
def test_pole_eps_past_half_exits_one_without_traceback(tmp_path, monkeypatch, capsys, argv):
    # at pole_eps 0.6 every half-period is within pole_eps of a lattice
    # point, so building the lattice raises lattice.PoleHit
    monkeypatch.chdir(tmp_path)
    code, _, err = _run(capsys, *argv, "--pole-eps", "0.6")
    assert code == 1
    assert err.splitlines() == ["error: point within pole_eps of lattice point (0, 0)"]


@pytest.mark.parametrize("extra, message", [
    (("--d", "nan"), "disc radius must be finite and positive"),
    (("--d", "inf"), "disc radius must be finite and positive"),
    (("--d", "0.01", "--delta", "nan"), "delta must be non-negative"),
    (("--d", "0.01", "--delta=-1"), "delta must be non-negative"),
], ids=["d-nan", "d-inf", "delta-nan", "delta-negative"])
def test_covering_refuses_a_bad_radius_or_delta(capsys, extra, message):
    # each of these once exited 0, with covering_steps = none or 3
    code, out, err = _run(
        capsys, "covering", "--kind", "square", "--lambda", "1.9+0.7i",
        "--center", "0.3+0.2i", *extra,
    )
    assert (code, err.splitlines()) == (1, [f"error: {message}"])
    assert "covering_steps" not in out


_COVERING = ("covering", "--kind", "square", "--lambda", "2.0", "--d", "0.6", "--delta", "0.05")
_FIND_PREPOLES = ("find-prepoles", "--kind", "square", "--n-max", "1", "--grid", "8",
                  "--csv-out", "r.csv")


@pytest.mark.parametrize("argv, message", [
    ((*_COVERING, "--center", "1e300+0.0i"), "disc discretization meets the delta-neighborhood"),
    ((*_FIND_PREPOLES, "--re-min", "1e200", "--re-max", "1e300", "--im-min", "1", "--im-max", "2"),
     "lattice scale must be nonzero and finite"),
], ids=["covering-far-center", "find-prepoles-huge-scales"])
def test_overflowing_inputs_give_one_error_line_and_no_warning(tmp_path, monkeypatch, capsys, argv,
                                                               message):
    # squares that overflow to inf are intended there, so numpy must not
    # print a RuntimeWarning before the error line
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = _run(capsys, *argv)
    assert [str(w.message) for w in caught] == []
    assert (code, err.splitlines()) == (1, [f"error: {message}"])


@pytest.mark.parametrize("argv, target", [
    ((*_COVERING, "--center", "0.0+0.0i", "--grid", "100000"), "covering_steps"),
    ((*_FIND_PREPOLES, "--re-min", "0.5", "--re-max", "1", "--im-min", "0.5", "--im-max", "1"),
     "find_prepole_params_batch"),
], ids=["covering", "find-prepoles"])
def test_out_of_memory_gives_one_error_line(tmp_path, monkeypatch, capsys, argv, target):
    # a grid too large for the machine makes numpy refuse its array with a
    # MemoryError; the library call raises one here instead of allocating
    from weierdyn import misiurewicz

    text = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"

    def refuse(*args, **kwargs):
        raise MemoryError(text)

    monkeypatch.setattr(misiurewicz, target, refuse)
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(capsys, *argv)
    assert (code, err.splitlines()) == (1, [f"error: out of memory: {text}"])
    assert "covering_steps =" not in out and "found" not in out


_RENDER_DYN = (
    "render-dyn", "--kind", "square", "--lambda", "2.0", "--origin=-0.9-0.9i",
    "--extent", "1.8+1.8i", "--width-px", "2", "--height-px", "2", "--budget", "10",
    "--out", "d.ppm",
)


# _RENDER_AT_POLE_EPS is the small render-param of the pole_eps test above
@pytest.mark.parametrize("argv", [_RENDER_AT_POLE_EPS, _RENDER_DYN], ids=["param", "dyn"])
def test_render_refuses_a_negative_thread_count(tmp_path, monkeypatch, capsys, argv):
    # --threads -3 once ran silently on every core
    monkeypatch.chdir(tmp_path)
    code, _, err = _run(capsys, *argv, "--threads=-3")
    assert (code, err.splitlines()) == (1, ["error: threads must be non-negative"])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    (*_RENDER_AT_POLE_EPS, "--threads", "1"),
    ("classify", "--kind", "square", "--lambda", "2.0"),
    # the budget is checked before the scale, so lambda = 0 reports it too
    ("classify", "--kind", "square", "--lambda", "0.0"),
], ids=["render-param", "classify", "classify-zero-lambda"])
def test_zero_budget_is_reported_by_its_option_name(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, _, err = _run(capsys, *argv, "--budget", "0")
    assert (code, err.splitlines()) == (1, ["error: budget must be at least 1"])


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_render_dyn_refuses_a_budget_below_one(tmp_path, monkeypatch, capsys, budget):
    # --budget 0 once wrote an image of orbits that took no step, and
    # --budget=-5 was refused under the name max_iter
    monkeypatch.chdir(tmp_path)
    code, _, err = _run(capsys, *_RENDER_DYN, f"--budget={budget}", "--threads", "1")
    assert (code, err.splitlines()) == (1, ["error: budget must be at least 1"])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("lam", ["0.0", "1e-60", "1e300+1e300i"])
def test_render_dyn_refuses_the_scale_before_starting_workers(tmp_path, monkeypatch, capsys, lam):
    # a refused scale once started a process pool and failed in a worker
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.chdir(tmp_path)
    argv = [a if a != "2.0" else lam for a in _RENDER_DYN]
    code, _, err = _run(capsys, *argv, "--threads", "2")
    assert (code, err.splitlines()) == (1, ["error: lattice scale must be nonzero and finite"])
    assert list(tmp_path.iterdir()) == []
