"""Traced runs: wrap each library module's public functions from outside the
program and turn the spans into per-layer metrics.

Modules bind library names with ``from .lattice import wp_pair``, so a
wrapper only counts calls if it replaces the name in the module its caller
looks it up in.  ``Tracer.install`` therefore patches every attribute of every
``weierdyn`` module that is bound to a wrapped function, and
``Tracer.uninstall`` puts the originals back.

Spans are not stored one by one.  Each call pushes a frame; on return its
duration is added to the function's total and to its parent frame's child
time, so a function's self time is its span minus its child spans.  The
layer of a function is the module that defines it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import Counter, defaultdict

LAYERS = ("lattice", "dynamics", "misiurewicz", "hyperbolic", "scan", "rng")
PATCHED_MODULES = ("cli",) + LAYERS


class Stat:
    __slots__ = ("calls", "seconds", "self_seconds")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.extra: Counter = Counter()
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.active: Counter = Counter()
        self._stack: list[list[float]] = [[0.0]]  # root frame: no span
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        """fn with a span named ``layer.function`` around every call."""
        stat = self.stats[name]
        stack = self._stack
        push, pop = stack.append, stack.pop
        active = self.active if name in TRACK_ACTIVE else None
        observe = OBSERVERS.get(name)
        durations = self.durations[name] if name in KEEP_DURATIONS else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            push(frame)
            if active is not None:
                active[name] += 1
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                pop()
                stack[-1][0] += dt
                stat.calls += 1
                stat.seconds += dt
                stat.self_seconds += dt - frame[0]
                if active is not None:
                    active[name] -= 1
                if durations is not None:
                    durations.append(dt)
                if observe is not None:
                    observe(self, args, kwargs, result, dt)

        return traced

    def install(self) -> None:
        """Wrap every public function the library modules define, at each
        module attribute bound to it."""
        modules = {m: importlib.import_module(f"weierdyn.{m}") for m in PATCHED_MODULES}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and f"{layer}.{attr}" not in UNWRAPPED
                ):
                    wrappers[value] = self.wrap(value, f"{layer}.{attr}")
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def layer_self_seconds(self, layer: str) -> float:
        return sum(s.self_seconds for n, s in self.stats.items() if n.split(".")[0] == layer)


# ---------------------------------------------------------------------------
# counters gathered where the work happens


def _obs_wp_array(t: Tracer, args, kwargs, result, dt) -> None:
    z = _arg(args, kwargs, 0, "z")
    kind = _arg(args, kwargs, 1, "lat").kind.name.lower()
    t.extra[f"wp_array.calls.{kind}"] += 1
    t.extra[f"wp_array.points.{kind}"] += getattr(z, "size", 1)
    t.extra[f"wp_array.seconds.{kind}"] += dt
    if t.active["misiurewicz.find_prepole_params"]:
        t.extra["find_prepole_params.wp_array_seconds"] += dt


def _obs_wp(t: Tracer, args, kwargs, result, dt) -> None:
    # evaluations the dynamical-plane renderer makes itself, not those
    # make_lattice makes for the critical values of each row's lattice
    if t.active["scan.render_dynamical_plane"] and not t.active["lattice.make_lattice"]:
        t.extra["scan.dyn.wp"] += 1


def _obs_iterate(t: Tracer, args, kwargs, result, dt) -> None:
    steps = len(result.points) - 1 if result is not None else 0
    t.extra["iterate.steps"] += steps
    if t.active["misiurewicz.misiurewicz_check"]:
        t.extra["misiurewicz_check.iterate_steps"] += steps


def _obs_find_prepole_params(t: Tracer, args, kwargs, result, dt) -> None:
    n = _arg(args, kwargs, 1, "n")
    t.extra[f"find_prepole_params.seconds.n{n}"] += dt
    t.extra["find_prepole_params.roots"] += len(result) if result is not None else 0


def _obs_misiurewicz_check(t: Tracer, args, kwargs, result, dt) -> None:
    if result is not None:
        t.extra["misiurewicz_check.iterations"] += result.iterations


def _obs_render_dyn(t: Tracer, args, kwargs, result, dt) -> None:
    grid = _arg(args, kwargs, 2, "grid")
    t.extra["scan.dyn.pixels"] += grid.width_px * grid.height_px


OBSERVERS = {
    "lattice.wp_array": _obs_wp_array,
    "lattice.wp": _obs_wp,
    "dynamics.iterate": _obs_iterate,
    "misiurewicz.find_prepole_params": _obs_find_prepole_params,
    "misiurewicz.misiurewicz_check": _obs_misiurewicz_check,
    "scan.render_dynamical_plane": _obs_render_dyn,
}

# spans other counters look for: "is this call inside that one"
TRACK_ACTIVE = {
    "lattice.make_lattice",
    "misiurewicz.find_prepole_params",
    "misiurewicz.misiurewicz_check",
    "scan.render_dynamical_plane",
}

# one-line metric helpers that cost less than a span does; their time stays
# in the caller's self time
UNWRAPPED = {
    "lattice.is_infinite",
    "lattice.sph_dist",
    "lattice.sph_deriv",
    "lattice.sph_dist_to_inf",
    "lattice.pole_euclid_dist",
    "lattice.crit_sph_dist",
    "dynamics.escape_scale",
}

KEEP_DURATIONS = {
    "dynamics.classify",
    "misiurewicz.misiurewicz_check",
    "hyperbolic.track_motion",
}


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 where the layer did no work on this workload."""
    return num / den if den else 0.0


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def per_layer(t: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit), for one traced pass."""
    x = t.extra
    m: dict[str, tuple[float, str]] = {}
    for kind in ("square", "triangular"):
        points = x[f"wp_array.points.{kind}"]
        m[f"lattice.wp_array.calls.{kind}"] = (x[f"wp_array.calls.{kind}"], "count")
        m[f"lattice.wp_array.points.{kind}"] = (points, "count")
        m[f"lattice.wp_array.ns_per_point.{kind}"] = (
            _ratio(x[f"wp_array.seconds.{kind}"] * 1e9, points), "ns")
    for fn in ("wp_pair", "wp", "make_lattice"):
        name = f"lattice.{fn}"
        m[f"{name}.calls"] = (t.stats[name].calls, "count")
        m[f"{name}.us_per_call"] = (_ratio(t.stats[name].seconds * 1e6, t.stats[name].calls), "us")

    classify = t.durations["dynamics.classify"]
    m["dynamics.classify.calls"] = (t.stats["dynamics.classify"].calls, "count")
    m["dynamics.classify.ms_p50"] = (_pct(classify, 0.50) * 1e3, "ms")
    m["dynamics.classify.ms_p99"] = (_pct(classify, 0.99) * 1e3, "ms")
    m["dynamics.find_cycle.calls"] = (t.stats["dynamics.find_cycle"].calls, "count")
    m["dynamics.find_cycle.s"] = (t.stats["dynamics.find_cycle"].seconds, "s")
    m["dynamics.iterate.calls"] = (t.stats["dynamics.iterate"].calls, "count")
    m["dynamics.iterate.steps"] = (x["iterate.steps"], "count")
    m["dynamics.iterate.steps_per_s"] = (
        _ratio(x["iterate.steps"], t.stats["dynamics.iterate"].seconds), "1/s")

    fpp = "misiurewicz.find_prepole_params"
    m[f"{fpp}.calls"] = (t.stats[fpp].calls, "count")
    m[f"{fpp}.roots"] = (x["find_prepole_params.roots"], "count")
    for n in range(3):
        m[f"{fpp}.s_n{n}"] = (x[f"find_prepole_params.seconds.n{n}"], "s")
    m[f"{fpp}.ms_per_root"] = (
        _ratio(t.stats[fpp].seconds * 1e3, x["find_prepole_params.roots"]), "ms")
    m[f"{fpp}.eval_share"] = (
        _ratio(x["find_prepole_params.wp_array_seconds"], t.stats[fpp].seconds), "ratio")
    m["misiurewicz.prepole_residual.calls"] = (t.stats["misiurewicz.prepole_residual"].calls, "count")
    check = t.durations["misiurewicz.misiurewicz_check"]
    m["misiurewicz.misiurewicz_check.calls"] = (t.stats["misiurewicz.misiurewicz_check"].calls, "count")
    m["misiurewicz.misiurewicz_check.ms_p50"] = (_pct(check, 0.50) * 1e3, "ms")
    m["misiurewicz.misiurewicz_check.ms_p99"] = (_pct(check, 0.99) * 1e3, "ms")
    m["misiurewicz.misiurewicz_check.useful_step_ratio"] = (
        _ratio(x["misiurewicz_check.iterations"], x["misiurewicz_check.iterate_steps"]), "ratio")
    m["misiurewicz.density_scan.s"] = (t.stats["misiurewicz.density_scan"].seconds, "s")

    m["hyperbolic.build_sample.ms"] = (t.stats["hyperbolic.build_sample"].seconds * 1e3, "ms")
    m["hyperbolic.track_motion.calls"] = (t.stats["hyperbolic.track_motion"].calls, "count")
    m["hyperbolic.track_motion.ms_p50"] = (
        _pct(t.durations["hyperbolic.track_motion"], 0.50) * 1e3, "ms")
    m["hyperbolic.order_K.ms"] = (t.stats["hyperbolic.order_K"].seconds * 1e3, "ms")
    m["hyperbolic.distortion_report.ms"] = (t.stats["hyperbolic.distortion_report"].seconds * 1e3, "ms")

    m["scan.render_parameter_plane.s"] = (t.stats["scan.render_parameter_plane"].seconds, "s")
    m["scan.render_dynamical_plane.s"] = (t.stats["scan.render_dynamical_plane"].seconds, "s")
    m["scan.dyn.wp_per_pixel"] = (_ratio(x["scan.dyn.wp"], x["scan.dyn.pixels"]), "calls/pixel")
    m["scan.write_ppm.ms"] = (t.stats["scan.write_ppm"].seconds * 1e3, "ms")

    m["rng.unit_disc_point.calls"] = (t.stats["rng.unit_disc_point"].calls, "count")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = (t.layer_self_seconds(layer), "s")
    m["cli.self_s"] = (t.stats["cli.main"].self_seconds, "s")
    return m
