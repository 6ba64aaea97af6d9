"""weierdyn benchmark: one workload (or all of them) through the CLI in a
fresh process, outputs checked against recorded references.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

--trace 0 prints the end-to-end metrics (wall_s, items_per_s, setup_s,
peak_rss_mib) and fail_frac; --trace 1 prints the per-layer metrics of one
traced pass and the tracing overhead.  The last line of stdout is always one
JSON object with the keys correct, attempted, failed and metrics.  Run from
the root of a checkout; the program is imported from its src/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 7
WORKER_TIMEOUT_S = 170.0
END_TO_END_UNITS = {"wall_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():  # an exported checkout, or one nested in another repo
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    """sha256 over src/weierdyn/*.py: names the code measured where no git
    commit is available."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "weierdyn").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _numpy_version() -> str:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "loadavg_start": list(os.getloadavg()),
    }


def _worker_cmd(*extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), *extra]


def setup_seconds() -> list[float]:
    """Fresh processes from start to ready: interpreter, import, first lattices."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(_worker_cmd("--probe"), stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            proc.wait(timeout=WORKER_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe did not get ready")
    return samples


def run_worker(args, workload: str, workdir: Path) -> dict:
    cmd = _worker_cmd(
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--workdir", str(workdir),
    )
    if args.reference:
        cmd += ["--reference", str(args.reference)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(res: dict, setup: list[float]) -> dict:
    total = sum(res["pass_seconds"])
    values = {
        "wall_s": statistics.median(res["pass_seconds"]),
        "items_per_s": sum(res["pass_items"]) / total if total else 0.0,
        "setup_s": statistics.median(setup),
        "peak_rss_mib": res["peak_rss_mib"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def run_one(args, workload: str, workdir: Path) -> dict:
    """One workload's result: {correct, attempted, failed, metrics}, plus the
    problems found."""
    setup = setup_seconds() if not args.trace else []
    res = run_worker(args, workload, workdir)
    metrics = res["metrics"] if args.trace else end_to_end(res, setup)
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
        "problems": res["problems"],
    }


def _print_result(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:8s} {name:50s} {m['value']:.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"{workload:8s} {'fail_frac':50s} {frac:.6g} ({result['failed']}/{result['attempted']} calls)")
    for problem in result["problems"]:
        print(f"{workload:8s} FAILED: {problem}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                   help="full is the benchmark; toy is for the self-test")
    p.add_argument("--reference", type=Path,
                   help="reference directory (default perfbench/reference/<size>)")
    p.add_argument("--record", type=Path, help="also write facts and result here as JSON")
    args = p.parse_args()

    if not (ROOT / "src" / "weierdyn" / "cli.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'weierdyn'}; run from a weierdyn checkout",
              file=sys.stderr)
        return 2

    facts = machine_facts()
    print("facts " + json.dumps(facts, sort_keys=True))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    workdir = HERE / ".work" / str(os.getpid())
    results = {}
    try:
        for name in names:
            results[name] = run_one(args, name, workdir)
            _print_result(name, results[name])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    if args.workload == "all":
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    if args.record:
        record = {"facts": facts, "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "size": args.size,
                  "result": summary}
        args.record.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
