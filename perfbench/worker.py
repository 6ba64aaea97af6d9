"""One fresh benchmark process: set up, then run a workload's passes through
``weierdyn.cli.main`` and print the result as one JSON line.

    python3 perfbench/worker.py --probe
        set up (import weierdyn.cli, build one lattice per kind), print
        "ready" and exit; run.py times this to get setup_s.
    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 ...
        run passes of W; run.py starts it and reads the last line.

With --trace 0 the worker repeats the pass until another one would end after
--seconds, and reports each pass's time.  With --trace 1 it runs exactly one
untraced pass and one traced pass of the same calls, so count metrics repeat
exactly, and requires the two to print and write the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def import_program():
    """Import weierdyn from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import weierdyn
    import weierdyn.cli

    if Path(weierdyn.__file__).resolve().parent != src / "weierdyn":
        raise ImportError(f"weierdyn imported from {weierdyn.__file__}, not {src}")
    return weierdyn.cli


def set_up():
    """Everything a run pays once: the import and the per-kind series cache."""
    cli = import_program()
    from weierdyn.lattice import LatticeKind, ToleranceConfig, make_lattice

    cfg = ToleranceConfig()
    for kind in LatticeKind:
        make_lattice(kind, 1.0 + 0j, cfg)
    return cli


def run_call(main, call: workloads.Call) -> tuple[workloads.Outcome, float]:
    """One CLI call with its stdout captured; returns the outcome and the
    call's wall time."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = main(call.argv)
        dt = time.perf_counter() - t0
    files = {}
    for role, path in call.outputs.items():
        with contextlib.suppress(OSError):
            files[role] = Path(path).read_bytes()
            os.unlink(path)
    return workloads.Outcome(rc, out.getvalue() + err.getvalue(), files), dt


class Tally:
    """Attempted and failed calls, with the first few problems for the log."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 20 - len(self.problems))])


def run_pass(main, calls, ref, tally) -> tuple[float, int, list]:
    """All calls of one pass; returns wall time, items completed, and per
    call its outcome, or None for a call that raised or failed its check."""
    seconds = 0.0
    items = 0
    outcomes = []
    for call in calls:
        try:
            outcome, dt = run_call(main, call)
        except Exception as exc:  # a crash inside the CLI is a failed call
            tally.add([f"{call.label}: raised {exc!r}"])
            outcomes.append(None)
            continue
        problems = ref.check(call, outcome)
        tally.add(problems)
        seconds += dt
        if not problems:
            items += workloads.items_of(call, ref)
        outcomes.append(None if problems else outcome)
    return seconds, items, outcomes


def measure(main, args, calls, ref) -> dict:
    """Untraced passes until the next one would end after --seconds."""
    order = random.Random(args.seed)
    tally = Tally()
    pass_seconds: list[float] = []
    pass_items: list[int] = []
    start = time.perf_counter()
    while True:
        order.shuffle(calls)
        seconds, items, _ = run_pass(main, calls, ref, tally)
        pass_seconds.append(seconds)
        pass_items.append(items)
        elapsed = time.perf_counter() - start
        if elapsed + seconds > args.seconds:
            break
    return {
        "pass_seconds": pass_seconds,
        "pass_items": pass_items,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(main, args, calls, ref) -> dict:
    """One untraced and one traced pass of the same calls."""
    import tracing

    random.Random(args.seed).shuffle(calls)
    tally = Tally()
    plain_seconds, _, plain = run_pass(main, calls, ref, tally)

    tracer = tracing.Tracer()
    traced_main = tracer.wrap(main, "cli.main")
    tracer.install()
    try:
        traced_seconds, _, traced = run_pass(traced_main, calls, ref, tally)
    finally:
        tracer.uninstall()

    # a traced call that passed its check but differs from its untraced twin
    for call, a, b in zip(calls, plain, traced):
        if a is not None and b is not None and (a.stdout, a.files) != (b.stdout, b.files):
            tally.failed += 1
            tally.problems.append(f"{call.label}: traced output differs from untraced output")

    metrics = tracing.per_layer(tracer)
    metrics["trace.untraced_wall_s"] = (plain_seconds, "s")
    metrics["trace.traced_wall_s"] = (traced_seconds, "s")
    metrics["trace.overhead_s"] = (traced_seconds - plain_seconds, "s")
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--probe", action="store_true")
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    p.add_argument("--reference", type=Path)
    p.add_argument("--workdir", type=Path)
    args = p.parse_args()

    cli = set_up()
    if args.probe:
        print("ready", flush=True)
        return 0

    ref = workloads.Reference(args.reference or workloads.REFERENCE_ROOT / args.size)
    args.workdir.mkdir(parents=True, exist_ok=True)
    calls = workloads.build(args.workload, args.size, str(args.workdir))
    run = trace if args.trace else measure
    result = run(cli.main, args, calls, ref)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
