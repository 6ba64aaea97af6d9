"""The benchmark's workloads: the CLI calls of one pass, the items each call
completes, and the check of each call's output against a recorded reference.

A pass is a closed loop: its calls run one after another through
``weierdyn.cli.main`` in one process, each after the previous one returns.
The CLI inputs are fixed, because the references were recorded for exactly
these inputs; the run seed only permutes the order of the calls in a pass.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# criterion-4 candidate and criterion-6 prepole parameter, as the tests pin them
CANDIDATE = "1.9101297082387314+0.7624256939043886i"
PREPOLE_SQ = "0.5783308619020432+0.7360677656029049i"

# criterion-8 goldens, copied by value from the acceptance tests
DEMO_PARAM_PPM_SHA = "39d75a7d0cabad52a2f87beee220d2ae0c080091ad40cc18a6476b3f8abfa95a"
DEMO_DYN_PPM_SHA = "938acdf23ae712af24773f3d72bc743d0c0fbb1b40a1283f98897174372b7428"

# tolerances of the CLI defaults, used by the checks
EVAL_TOL = 1e-12
NEWTON_TOL = 1e-9

WORKLOADS = ("sweep", "render", "density", "motion")

# "full" is what the benchmark measures; "toy" is the same loop at a size the
# self-test can run in seconds.  Each has its own recorded references.
SIZES = {
    "full": {
        "sweep_grid": 48,
        "param_px": 64,
        "param_budget": 200,
        "dyn_px": 64,
        "dyn_budget": 60,
        "density_samples": 2000,
        "motion_calls": 8,
    },
    "toy": {
        "sweep_grid": 16,
        "param_px": 8,
        "param_budget": 200,
        "dyn_px": 16,
        "dyn_budget": 60,
        "density_samples": 100,
        "motion_calls": 1,
    },
}

REFERENCE_ROOT = Path(__file__).resolve().parent / "reference"


@dataclass
class Call:
    """One CLI call of a pass: its argv, the files it writes, how many items
    it completes, and the label its reference is stored under."""

    label: str
    argv: list[str]
    outputs: dict[str, str] = field(default_factory=dict)  # role -> path
    items: int = 0


@dataclass
class Outcome:
    """What one call left behind: exit code, stdout and output bytes."""

    rc: int
    stdout: str
    files: dict[str, bytes]


def sweep_calls(size: dict, workdir: str) -> list[Call]:
    calls = []
    for kind in ("square", "triangular"):
        csv = os.path.join(workdir, f"sweep_{kind}.csv")
        argv = [
            "find-prepoles", "--kind", kind, "--n-max", "2",
            "--j-range", "1", "--k-range", "1",
            "--re-min", "0.5", "--re-max", "3.0", "--im-min", "0.5", "--im-max", "3.0",
            "--grid", str(size["sweep_grid"]), "--csv-out", csv,
        ]
        calls.append(Call(f"sweep.{kind}", argv, {"csv": csv}))
    return calls


def render_calls(size: dict, workdir: str) -> list[Call]:
    ppm = os.path.join(workdir, "param.ppm")
    csv = os.path.join(workdir, "param.csv")
    px = str(size["param_px"])
    param = Call(
        "render.param",
        [
            "render-param", "--kind", "square", "--origin", "0.15+0.1i",
            "--extent", "2.2+2.2i", "--width-px", px, "--height-px", px,
            "--budget", str(size["param_budget"]), "--out", ppm, "--csv-out", csv,
            "--threads", "1",
        ],
        {"ppm": ppm, "csv": csv},
        size["param_px"] ** 2,
    )
    dyn_ppm = os.path.join(workdir, "dyn.ppm")
    px = str(size["dyn_px"])
    dyn = Call(
        "render.dyn",
        [
            "render-dyn", "--kind", "square", "--lambda", "2.0",
            "--origin=-1.8-1.8i", "--extent", "3.6+3.6i",
            "--width-px", px, "--height-px", px, "--budget", str(size["dyn_budget"]),
            "--out", dyn_ppm, "--threads", "1",
        ],
        {"ppm": dyn_ppm},
        size["dyn_px"] ** 2,
    )
    return [param, dyn]


def density_calls(size: dict, workdir: str) -> list[Call]:
    csv = os.path.join(workdir, "density.csv")
    argv = [
        "density", "--kind", "square", "--lambda0", PREPOLE_SQ,
        "--radii", "1e-3,1e-4", "--samples", str(size["density_samples"]),
        "--seed", "20260816", "--delta", "0.05", "--m-steps", "200", "--out", csv,
    ]
    return [Call("density", argv, {"csv": csv}, 2 * size["density_samples"])]


def motion_calls(size: dict, workdir: str) -> list[Call]:
    argv = ["verify", "--kind", "square", "--lambda0", CANDIDATE, "--m-steps", "16"]
    return [Call("motion", list(argv), {}, 1) for _ in range(size["motion_calls"])]


BUILDERS: dict[str, Callable[[dict, str], list[Call]]] = {
    "sweep": sweep_calls,
    "render": render_calls,
    "density": density_calls,
    "motion": motion_calls,
}


def build(workload: str, size_name: str, workdir: str) -> list[Call]:
    return BUILDERS[workload](SIZES[size_name], workdir)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# references


class Reference:
    """The recorded outputs of one size, read from its directory.

    expected.json holds digests and scalars; the root sets and CSVs sit
    beside it as files.  Nothing here ever rewrites them.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        with open(self.directory / "expected.json", encoding="utf-8") as fh:
            self.expected = json.load(fh)

    def read(self, name: str) -> bytes:
        path = self.directory / name
        if name.endswith(".gz"):
            with gzip.open(path, "rb") as fh:
                return fh.read()
        return path.read_bytes()

    def check(self, call: Call, out: Outcome) -> list[str]:
        """Problems with one call's outcome; empty means it passed."""
        if out.rc != 0:
            return [f"{call.label}: exit code {out.rc}"]
        family = call.label.split(".")[0]
        return CHECKS[family](self, call, out)


def parse_roots(text: str) -> dict[tuple[int, int, int], list[tuple[complex, float, float]]]:
    """find-prepoles CSV -> {(n, j, k): [(lambda, residual, radius), ...]}."""
    groups: dict[tuple[int, int, int], list[tuple[complex, float, float]]] = {}
    lines = text.strip().splitlines()
    for line in lines[1:]:
        n, j, k, re_, im, res, rad = line.split(",")
        groups.setdefault((int(n), int(j), int(k)), []).append(
            (complex(float(re_), float(im)), float(res), float(rad))
        )
    return groups


def _check_sweep(ref: Reference, call: Call, out: Outcome) -> list[str]:
    """Same root count per (n, j, k), each recorded lambda matched one to one
    within newton_tol, residual < 1e-9 and isolation radius > 0."""
    want = parse_roots(ref.read(f"{call.label}.csv").decode())
    got = parse_roots(out.files["csv"].decode())
    problems = []
    for key in sorted(set(want) | set(got)):
        w, g = want.get(key, []), got.get(key, [])
        if len(w) != len(g):
            problems.append(f"{call.label} {key}: {len(g)} roots, reference {len(w)}")
            continue
        unmatched = [lam for lam, _, _ in g]
        for lam, _, _ in w:
            best = min(range(len(unmatched)), key=lambda i: abs(unmatched[i] - lam))
            if abs(unmatched[best] - lam) > NEWTON_TOL:
                problems.append(f"{call.label} {key}: root {lam} lost")
                break
            unmatched.pop(best)
        for lam, res, rad in g:
            if not (res < NEWTON_TOL and rad > 0):
                problems.append(f"{call.label} {key}: root {lam} residual {res} radius {rad}")
                break
    return problems


def _check_render(ref: Reference, call: Call, out: Outcome) -> list[str]:
    expected = ref.expected[call.label]
    problems = []
    digest = sha256(out.files["ppm"])
    if digest != expected["ppm_sha256"]:
        problems.append(f"{call.label}: PPM sha256 {digest}, reference {expected['ppm_sha256']}")
    if "csv" in call.outputs:
        want = ref.read(f"{call.label}.csv.gz")
        if out.files["csv"] != want:
            got_lines = out.files["csv"].decode().splitlines()
            want_lines = want.decode().splitlines()
            first = next(
                (i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
                min(len(got_lines), len(want_lines)),
            )
            problems.append(f"{call.label}: CSV differs from the reference at line {first + 1}")
    return problems


def _check_density(ref: Reference, call: Call, out: Outcome) -> list[str]:
    if out.files["csv"] != ref.read("density.csv"):
        return ["density: CSV differs from the reference"]
    return []


_MOTION_PATTERNS = {
    "order_K": re.compile(r"^order K = (-?\d+)$", re.M),
    "identity": re.compile(r"^identity residual at lambda0 = (\S+)$", re.M),
    "conjugacy": re.compile(r"^max conjugacy residual at lambda0\+rho = (\S+)$", re.M),
}


def parse_motion(stdout: str) -> dict[str, float]:
    found = {}
    for key, pattern in _MOTION_PATTERNS.items():
        m = pattern.search(stdout)
        if m:
            found[key] = float(m.group(1))
    return found


def _check_motion(ref: Reference, call: Call, out: Outcome) -> list[str]:
    """Same order K; criterion-4 bounds on the identity and conjugacy residuals."""
    found = parse_motion(out.stdout)
    missing = sorted(set(_MOTION_PATTERNS) - set(found))
    if missing:
        return [f"motion: verify printed no {', '.join(missing)}"]
    problems = []
    if found["order_K"] != ref.expected["motion"]["order_K"]:
        problems.append(f"motion: order K {found['order_K']:g}, reference {ref.expected['motion']['order_K']}")
    if not found["identity"] <= EVAL_TOL:
        problems.append(f"motion: identity residual {found['identity']!r} above {EVAL_TOL}")
    if not found["conjugacy"] < 10.0 * NEWTON_TOL:
        problems.append(f"motion: conjugacy residual {found['conjugacy']!r} not below {10.0 * NEWTON_TOL}")
    return problems


CHECKS = {
    "sweep": _check_sweep,
    "render": _check_render,
    "density": _check_density,
    "motion": _check_motion,
}


def items_of(call: Call, ref: Reference) -> int:
    """Items the call completes when it passes its check: certified roots for
    the sweep (the reference count), pixels, samples or verify calls."""
    if call.label.startswith("sweep."):
        groups = parse_roots(ref.read(f"{call.label}.csv").decode())
        return sum(len(v) for v in groups.values())
    return call.items
