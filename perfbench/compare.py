"""Compare two sets of benchmark records written with run.py --record.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds *.json records.  Records whose machine facts (nproc,
CPU model, Python, numpy) differ are not comparable, and the comparison says
so instead of printing numbers.  Otherwise, for each workload and metric it
prints the two medians, the change as a share of the base median, the base's
quartile spread, and whether the change is worse than the metric's bound in
BENCHMARK.json.  A high load average at the start of a run is reported too.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPARABLE_FACTS = ("nproc", "cpu_model", "python", "numpy")


def load(directory: str) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]


def machine(record: dict) -> tuple:
    return tuple(record["facts"].get(k) for k in COMPARABLE_FACTS)


def series(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = {}
    for r in records:
        for name, m in r["result"]["metrics"].items():
            # a --workload all record names its metrics <workload>.<metric>
            key = tuple(name.split(".", 1)) if r["workload"] == "all" else (r["workload"], name)
            out.setdefault(key, []).append(m["value"])
    return out


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    base, change = load(sys.argv[1]), load(sys.argv[2])
    machines = {machine(r) for r in base + change}
    if len(machines) != 1:
        print("NOT COMPARABLE: the records come from different machines or versions:")
        for m in sorted(machines, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(COMPARABLE_FACTS, m)))
        return 1
    for r in base + change:
        load1 = r["facts"]["loadavg_start"][0]
        if load1 > 0.5 * r["facts"]["nproc"]:
            print(f"note: {r['workload']} seed {r['seed']} started at load {load1:.2f}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in declared["end_to_end"]}
    a, b = series(base), series(change)
    print(f"{'workload':9s} {'metric':45s} {'base':>12s} {'change':>12s} {'delta':>8s} {'spread':>7s}")
    worse_any = False
    for key in sorted(set(a) & set(b)):
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        delta = (mb - ma) / ma if ma else float("nan")
        verdict = ""
        if key[1] in bounds:
            bound, better = bounds[key[1]]
            worse = delta > bound if better == "lower" else -delta > bound
            if spread(a[key]) > bound:
                verdict = "unresolved (spread above bound)"
            elif worse:
                verdict = "WORSE than bound"
                worse_any = True
        print(f"{key[0]:9s} {key[1]:45s} {ma:12.6g} {mb:12.6g} {delta:+8.2%} {spread(a[key]):7.2%} {verdict}")
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main())
