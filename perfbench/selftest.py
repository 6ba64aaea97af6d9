"""The benchmark's own test, at toy size.

    python3 perfbench/selftest.py

For every workload: two traced runs must give identical count metrics and
no failed call; a timed run must report every end-to-end metric and
fail_frac 0; a run against a deliberately corrupted copy of the references
must report fail_frac above 0, so the check is able to fail.  The metric
names printed must be exactly those BENCHMARK.json declares.  Exits 0 when
everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

COUNT_UNITS = {"count"}
failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message, flush=True)
    if not ok:
        failures.append(message)


def bench(workload: str, trace: int, reference: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "toy"]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def corrupt(src: Path, dst: Path) -> None:
    """A copy of the toy references with one wrong value per workload."""
    shutil.copytree(src, dst)
    sweep = dst / "sweep.square.csv"
    lines = sweep.read_text().splitlines()
    cols = lines[1].split(",")
    cols[3] = repr(float(cols[3]) + 1e-6)  # one root moved by 1000 x newton_tol
    lines[1] = ",".join(cols)
    sweep.write_text("\n".join(lines) + "\n")
    expected = json.loads((dst / "expected.json").read_text())
    expected["render.dyn"]["ppm_sha256"] = "0" * 64
    expected["motion"]["order_K"] += 1
    (dst / "expected.json").write_text(json.dumps(expected))
    density = dst / "density.csv"
    density.write_text(density.read_text().replace(",1.0,", ",0.5,"))


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_names = {m["name"] for m in declared["end_to_end"]}
    layer_names = {m["name"] for m in declared["per_layer"]}
    bad_ref = HERE / ".work" / "selftest-corrupt"
    shutil.rmtree(bad_ref, ignore_errors=True)
    corrupt(workloads.REFERENCE_ROOT / "toy", bad_ref)
    try:
        for w in workloads.WORKLOADS:
            a, b = bench(w, 1), bench(w, 1)
            expect(set(a["metrics"]) == layer_names, f"{w}: traced metrics are the per_layer set")
            counts = {k: v["value"] for k, v in a["metrics"].items() if v["unit"] in COUNT_UNITS}
            again = {k: v["value"] for k, v in b["metrics"].items() if v["unit"] in COUNT_UNITS}
            expect(counts == again, f"{w}: {len(counts)} count metrics repeat exactly")
            expect(any(counts.values()), f"{w}: some layer counted work")
            expect(a["failed"] == 0 and b["failed"] == 0, f"{w}: traced runs fail_frac 0")
            if w == "density":
                draws = 2 * workloads.SIZES["toy"]["density_samples"]  # radii x samples
                expect(counts["rng.unit_disc_point.calls"] == draws, f"density: {draws} rng draws")

            timed = bench(w, 0)
            expect(set(timed["metrics"]) == e2e_names, f"{w}: timed metrics are the end_to_end set")
            expect(all(v["value"] > 0 for v in timed["metrics"].values()), f"{w}: end-to-end metrics nonzero")
            expect(timed["failed"] == 0 and timed["correct"], f"{w}: timed run fail_frac 0")

            broken = bench(w, 0, bad_ref)
            expect(broken["failed"] > 0 and not broken["correct"],
                   f"{w}: corrupted reference gives fail_frac {broken['failed']}/{broken['attempted']} > 0")
    finally:
        shutil.rmtree(bad_ref, ignore_errors=True)
        if not any(bad_ref.parent.iterdir()):
            bad_ref.parent.rmdir()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
