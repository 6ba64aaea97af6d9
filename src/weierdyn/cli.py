"""Command-line front door: classify, find-prepoles, verify, render-param,
render-dyn, density, covering.

Flag values override config-file values, which override defaults; every run
echoes the fully resolved configuration before doing work.  Exit codes:
0 success, 1 invalid input or I/O failure, 2 indeterminate verdict or a
failed verification.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .dynamics import (
    DEFAULT_BUDGET,
    AllCriticalPrepole,
    AttractingCycles,
    Indeterminate,
    classify,
)
from .lattice import LatticeKind, PoleHit, ToleranceConfig, ZeroParameter, make_lattice

# each command imports the layers it runs (hyperbolic, misiurewicz, scan)
# itself, so a process loads only what its commands use

_UNSET = object()

_FLOAT = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_RE_REAL = re.compile(rf"^([+-]?{_FLOAT})$")
_RE_IMAG = re.compile(rf"^([+-]?{_FLOAT})i$")
_RE_BOTH = re.compile(rf"^([+-]?{_FLOAT})([+-]{_FLOAT})i$")


class UsageError(ValueError):
    """Bad command line or config file; maps to exit code 1."""


def parse_complex(text: str) -> complex:
    """Strict "a+bi" form: both parts need explicit digits, so ambiguous
    spellings like "1+i" or "i" are rejected rather than guessed at."""
    s = text.strip()
    m = _RE_BOTH.match(s)
    if m:
        return complex(float(m.group(1)), float(m.group(2)))
    m = _RE_REAL.match(s)
    if m:
        return complex(float(m.group(1)), 0.0)
    m = _RE_IMAG.match(s)
    if m:
        return complex(0.0, float(m.group(1)))
    raise UsageError(f"cannot parse complex number {text!r}; expected a+bi")


def parse_kind(text: str) -> LatticeKind:
    name = text.strip().lower()
    if name == "square":
        return LatticeKind.SQUARE
    if name == "triangular":
        return LatticeKind.TRIANGULAR
    raise UsageError(f"unknown lattice kind {text!r}; expected square or triangular")


def parse_radii(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(not p for p in parts):
        raise UsageError(f"cannot parse radii list {text!r}")
    try:
        radii = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"cannot parse radii list {text!r}") from exc
    if not all(math.isfinite(r) and r > 0 for r in radii):
        raise UsageError("radii must be finite and positive")
    return radii


_PARSERS: dict[str, Callable[[str], object]] = {
    "complex": parse_complex,
    "float": float,
    "int": int,
    "str": str,
    "kind": parse_kind,
    "radii": parse_radii,
}


@dataclass(frozen=True)
class Opt:
    """One resolvable option: a flag, its config-file key(s), and a type.

    Complex options occupy two config keys, <name>_re and <name>_im,
    mirroring the flat RunConfig layout; everything else uses <name>.
    """

    name: str
    kind: str
    default: object = None
    required: bool = False
    help: str = ""

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_") + "_opt"

    @property
    def config_keys(self) -> tuple[str, ...]:
        base = self.name.replace("-", "_")
        if self.kind == "complex":
            return (base + "_re", base + "_im")
        return (base,)


TOL_OPTS = (
    Opt("eval-tol", "float", 1e-12, help="series evaluation tolerance"),
    Opt("pole-eps", "float", 1e-6, help="pole exclusion radius"),
    Opt("newton-tol", "float", 1e-9, help="Newton residual tolerance"),
)

COMMANDS: dict[str, tuple[Opt, ...]] = {
    "classify": (
        Opt("kind", "kind", required=True, help="square or triangular"),
        Opt("lambda", "complex", required=True, help="parameter as a+bi"),
        Opt("budget", "int", DEFAULT_BUDGET, help="iteration budget"),
    )
    + TOL_OPTS,
    "find-prepoles": (
        Opt("kind", "kind", required=True),
        Opt("n-max", "int", 2, help="largest prepole order to solve"),
        Opt("j-range", "int", 1, help="|j| bound for pole targets"),
        Opt("k-range", "int", 1, help="|k| bound for pole targets"),
        Opt("re-min", "float", required=True),
        Opt("re-max", "float", required=True),
        Opt("im-min", "float", required=True),
        Opt("im-max", "float", required=True),
        Opt("grid", "int", 64, help="seeding grid resolution"),
        Opt("csv-out", "str", "prepoles.csv", help="output CSV path"),
    )
    + TOL_OPTS,
    "verify": (
        Opt("kind", "kind", required=True),
        Opt("lambda0", "complex", required=True, help="candidate parameter"),
        Opt("delta", "float", 0.02, help="separation radius"),
        Opt("m-steps", "int", 48, help="orbit sample length M"),
        Opt("rho", "float", 1e-3, help="order_K circle radius"),
        Opt("circle-samples", "int", 64, help="order_K circle sample count"),
        Opt("n-range", "int", 8, help="expansion fit range"),
        Opt("r-distortion", "float", 1e-6, help="distortion pair radius"),
        Opt("n-pairs", "int", 20, help="distortion pair count"),
    )
    + TOL_OPTS,
    "render-param": (
        Opt("kind", "kind", required=True),
        Opt("origin", "complex", required=True, help="pixel (0,0) parameter"),
        Opt("extent", "complex", required=True, help="width+heighti in plane units"),
        Opt("width-px", "int", 64),
        Opt("height-px", "int", 64),
        Opt("budget", "int", 200),
        Opt("out", "str", required=True, help="output PPM path"),
        Opt("csv-out", "str", required=True, help="output CSV path"),
        Opt("threads", "int", 0, help="worker count; 0 means all cores"),
    )
    + TOL_OPTS,
    "render-dyn": (
        Opt("kind", "kind", required=True),
        Opt("lambda", "complex", required=True),
        Opt("origin", "complex", required=True, help="pixel (0,0) plane point"),
        Opt("extent", "complex", required=True),
        Opt("width-px", "int", 64),
        Opt("height-px", "int", 64),
        Opt("budget", "int", 60),
        Opt("out", "str", required=True, help="output PPM path"),
        Opt("threads", "int", 0, help="worker count; 0 means all cores"),
    )
    + TOL_OPTS,
    "density": (
        Opt("kind", "kind", required=True),
        Opt("lambda0", "complex", required=True, help="center parameter"),
        Opt("radii", "radii", required=True, help="comma-separated ball radii"),
        Opt("samples", "int", 2000, help="samples per radius"),
        Opt("delta", "float", 0.05),
        Opt("m-steps", "int", 200),
        Opt("seed", "int", required=True, help="explicit RNG seed"),
        Opt("out", "str", None, help="optional CSV path"),
    )
    + TOL_OPTS,
    "covering": (
        Opt("kind", "kind", required=True),
        Opt("lambda", "complex", required=True),
        Opt("center", "complex", required=True, help="disc center"),
        Opt("d", "float", required=True, help="disc radius"),
        Opt("delta", "float", 0.05),
        Opt("max-n", "int", 12),
        Opt("grid", "int", 64),
    )
    + TOL_OPTS,
}

# every config key any subcommand accepts; unknown keys are hard errors
_ALL_CONFIG_KEYS = {
    key for opts in COMMANDS.values() for opt in opts for key in opt.config_keys
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise UsageError(message)


def load_config(path: str) -> dict[str, str]:
    """Flat key = value lines; # starts a comment; unknown keys error."""
    mapping: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key = key.strip()
        if key not in _ALL_CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        mapping[key] = value.strip()
    return mapping


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    # built on the first call of main and reused: parsing does not change
    # the parser, and rebuilding it per call left a process that calls main
    # repeatedly with a heap that grew by about 1 MiB per 90 calls
    parser = _Parser(prog="weierdyn")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, opts in COMMANDS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="flat key = value config file")
        for opt in opts:
            parser_fn = _PARSERS[opt.kind]
            p.add_argument(
                "--" + opt.name,
                dest=opt.dest,
                type=parser_fn,
                default=_UNSET,
                help=opt.help,
            )
    return parser


def _resolve(
    opts: tuple[Opt, ...], ns: argparse.Namespace, config: dict[str, str]
) -> dict[str, object]:
    values: dict[str, object] = {}
    for opt in opts:
        value = getattr(ns, opt.dest)
        if value is _UNSET:
            keys = opt.config_keys
            present = [k for k in keys if k in config]
            if opt.kind == "complex" and present:
                if len(present) != len(keys):
                    missing = set(keys) - set(present)
                    raise UsageError(f"config sets {present[0]} but not {missing.pop()}")
                value = complex(float(config[keys[0]]), float(config[keys[1]]))
            elif opt.kind != "complex" and present:
                value = _PARSERS[opt.kind](config[keys[0]])
            elif opt.required:
                raise UsageError(f"missing required option --{opt.name}")
            else:
                value = opt.default
        values[opt.name] = value
    return values


def _echo_config(command: str, values: dict[str, object]) -> None:
    print(f"resolved config for {command}:")
    for name, value in values.items():
        base = name.replace("-", "_")
        if isinstance(value, complex):
            print(f"  {base}_re = {value.real!r}")
            print(f"  {base}_im = {value.imag!r}")
        elif isinstance(value, LatticeKind):
            print(f"  {base} = {value.name.lower()}")
        elif isinstance(value, tuple):
            print(f"  {base} = {','.join(repr(v) for v in value)}")
        elif isinstance(value, float):
            print(f"  {base} = {value!r}")
        else:
            print(f"  {base} = {value}")


def _tolerances(values: dict[str, object]) -> ToleranceConfig:
    return ToleranceConfig(
        eval_tol=values["eval-tol"],
        pole_eps=values["pole-eps"],
        newton_tol=values["newton-tol"],
    )


def _format_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _cmd_classify(values: dict[str, object]) -> int:
    cfg = _tolerances(values)
    verdict = classify(values["kind"], values["lambda"], values["budget"], cfg)
    if isinstance(verdict, AttractingCycles):
        c = verdict.cycle
        print(
            f"AttractingCycles count={verdict.count} period={c.period} "
            f"multiplier={_format_complex(c.multiplier)} abs={abs(c.multiplier)!r}"
        )
        return 0
    if isinstance(verdict, AllCriticalPrepole):
        steps = ",".join(str(s) for s in verdict.steps)
        print(f"AllCriticalPrepole steps=[{steps}]")
        return 0
    assert isinstance(verdict, Indeterminate)
    print(f"Indeterminate iterations_used={verdict.iterations_used}")
    return 2


def _cmd_find_prepoles(values: dict[str, object]) -> int:
    from .misiurewicz import find_prepole_params_batch
    from .scan import write_atomic

    cfg = _tolerances(values)
    region = (
        values["re-min"],
        values["re-max"],
        values["im-min"],
        values["im-max"],
    )
    for name in ("n-max", "j-range", "k-range"):
        if values[name] < 0:
            raise ValueError(f"{name} must be non-negative")
    jr, kr = values["j-range"], values["k-range"]
    pairs = [(j, k) for j in range(-jr, jr + 1) for k in range(-kr, kr + 1)]
    lines = ["n,j,k,lambda_re,lambda_im,residual,isolation_radius"]
    count = 0
    for n in range(values["n-max"] + 1):
        batch = find_prepole_params_batch(values["kind"], n, pairs, region, values["grid"], cfg)
        for roots in batch:
            for root in roots:
                lines.append(
                    f"{root.n},{root.j},{root.k},{root.lambda_star.real!r},"
                    f"{root.lambda_star.imag!r},{root.residual!r},"
                    f"{root.isolation_radius!r}"
                )
                count += 1
    write_atomic(values["csv-out"], ("\n".join(lines) + "\n").encode("utf-8"))
    print(f"found {count} roots; wrote {values['csv-out']}")
    return 0


def _value(result):
    """A verify_motion result: raise it if it is an exception."""
    if isinstance(result, Exception):
        raise result
    return result


def _cmd_verify(values: dict[str, object]) -> int:
    from .hyperbolic import (
        DegenerateRadius,
        InsufficientSampling,
        NearZero,
        NoExpansion,
        SeparationViolated,
        ShadowLost,
        build_sample,
        fit_expansion,
        verify_motion,
    )

    cfg = _tolerances(values)
    lam0 = values["lambda0"]
    M = values["m-steps"]
    try:
        sample = build_sample(values["kind"], lam0, M, values["delta"], cfg)
    except SeparationViolated as exc:
        print(f"separation violated at step {exc.step} ({exc.kind})")
        return 2
    except NoExpansion as exc:
        print(f"no expansion: {exc}")
        return 2
    print(
        f"sample M={M} delta={values['delta']!r} N_exp={sample.N_exp} "
        f"min_crit={sample.min_crit_dist!r} min_inf={sample.min_inf_dist!r}"
    )
    if M == 0:
        print("degenerate single-point sample; motion and distortion skipped")
        return 0

    ok = True
    try:
        rep = fit_expansion(sample, values["n-range"])
        print(f"expansion C={rep.C!r} a={rep.a!r} n_range={rep.n_range}")
        ok = ok and rep.a > 1.0
    except NoExpansion as exc:
        print(f"no expansion: {exc}")
        return 2

    motion = verify_motion(
        sample, values["rho"], 12, values["circle-samples"], values["r-distortion"],
        values["n-pairs"], cfg,
    )
    id_err = _value(motion.identity_residual)
    print(f"identity residual at lambda0 = {id_err!r}")
    ok = ok and id_err <= cfg.eval_tol

    try:
        worst = _value(motion.conj_residual)
    except ShadowLost as exc:
        print(f"shadowing lost at step {exc.step}")
        return 2
    except ZeroParameter:
        raise
    except ValueError as exc:
        # the frame anchored at ext_usable has no reference point ahead of it
        print(f"motion failed: {exc}")
        return 2
    print(f"max conjugacy residual at lambda0+rho = {worst!r}")
    ok = ok and worst < 10.0 * cfg.newton_tol

    try:
        K = _value(motion.order)
        print(f"order K = {K}")
        ok = ok and K >= 1
    except (NearZero, InsufficientSampling, ShadowLost) as exc:
        print(f"order_K failed: {exc}")
        return 2

    try:
        dist = _value(motion.distortion)
        print(
            f"distortion max_ratio={dist.max_ratio!r} "
            f"corollary_ratio={dist.corollary_ratio!r} pairs={dist.pairs_used}"
        )
    except ShadowLost as exc:
        print(f"shadowing lost at step {exc.step}")
        return 2
    except DegenerateRadius as exc:
        print(f"distortion failed: {exc}")
        return 2
    return 0 if ok else 2


def _scan_grid(values: dict[str, object]):
    from .scan import ScanGrid

    return ScanGrid(
        origin=values["origin"],
        extent=values["extent"],
        width_px=values["width-px"],
        height_px=values["height-px"],
    )


def _thread_count(values: dict[str, object]) -> int:
    threads = values["threads"]
    if threads < 0:
        raise ValueError("threads must be non-negative")
    return threads or (os.cpu_count() or 1)


def _cmd_render_param(values: dict[str, object]) -> int:
    from .scan import render_parameter_plane, write_atomic, write_ppm

    cfg = _tolerances(values)
    image, csv_text = render_parameter_plane(
        values["kind"], _scan_grid(values), values["budget"], cfg, _thread_count(values)
    )
    write_ppm(image, values["out"])
    write_atomic(values["csv-out"], csv_text.encode("utf-8"))
    print(f"wrote {values['out']} and {values['csv-out']}")
    return 0


def _cmd_render_dyn(values: dict[str, object]) -> int:
    from .scan import render_dynamical_plane, write_ppm

    cfg = _tolerances(values)
    image = render_dynamical_plane(
        values["kind"],
        values["lambda"],
        _scan_grid(values),
        values["budget"],
        cfg,
        _thread_count(values),
    )
    write_ppm(image, values["out"])
    print(f"wrote {values['out']}")
    return 0


def _cmd_density(values: dict[str, object]) -> int:
    from .misiurewicz import density_scan
    from .scan import write_atomic

    cfg = _tolerances(values)
    rows = density_scan(
        values["kind"],
        values["lambda0"],
        values["radii"],
        values["samples"],
        values["delta"],
        values["m-steps"],
        values["seed"],
        cfg,
    )
    lines = ["radius,n_samples,fail_fraction,seed"]
    for row in rows:
        lines.append(f"{row.radius!r},{row.n_samples},{row.fail_fraction!r},{row.seed}")
        print(
            f"radius={row.radius!r} samples={row.n_samples} "
            f"fail_fraction={row.fail_fraction!r} seed={row.seed}"
        )
    if values["out"] is not None:
        write_atomic(values["out"], ("\n".join(lines) + "\n").encode("utf-8"))
        print(f"wrote {values['out']}")
    return 0


def _cmd_covering(values: dict[str, object]) -> int:
    from .misiurewicz import covering_steps

    cfg = _tolerances(values)
    lat = make_lattice(values["kind"], values["lambda"], cfg)
    steps = covering_steps(
        lat,
        values["center"],
        values["d"],
        values["delta"],
        values["max-n"],
        values["grid"],
        cfg,
    )
    print(f"covering_steps = {'none' if steps is None else steps}")
    return 0


_RUNNERS = {
    "classify": _cmd_classify,
    "find-prepoles": _cmd_find_prepoles,
    "verify": _cmd_verify,
    "render-param": _cmd_render_param,
    "render-dyn": _cmd_render_dyn,
    "density": _cmd_density,
    "covering": _cmd_covering,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse --help path
        return int(exc.code or 0)
    try:
        config = load_config(ns.config) if ns.config else {}
        values = _resolve(COMMANDS[ns.command], ns, config)
        _echo_config(ns.command, values)
        return _RUNNERS[ns.command](values)
    except (ValueError, OSError, PoleHit, MemoryError) as exc:
        # UsageError, ZeroParameter and DiscTouchesU are ValueErrors,
        # IoFailure is an OSError; PoleHit is make_lattice refusing a
        # pole_eps that reaches the half-periods; MemoryError is numpy
        # refusing an array too large for the machine
        oom = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"error: {oom}{exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
