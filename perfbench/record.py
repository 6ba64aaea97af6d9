"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py --size full
    python3 perfbench/record.py --size toy

Runs each workload's calls once through weierdyn.cli.main and writes
perfbench/reference/<size>/.  It refuses to write into a directory that
already holds references: a reference is recorded once, at the commit that
defines it, and a later mismatch is a failure to explain, not a reason to
re-record.  At full size the render PPMs must also match the criterion-8
goldens pinned in workloads.py.
"""

from __future__ import annotations

import argparse
import gzip
import json
import shutil
import sys
import tempfile

import worker
import workloads


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--size", choices=sorted(workloads.SIZES), required=True)
    args = p.parse_args()

    out_dir = workloads.REFERENCE_ROOT / args.size
    if out_dir.exists():
        print(f"error: {out_dir} exists; references are never re-recorded", file=sys.stderr)
        return 1
    cli = worker.set_up()
    expected: dict = {}
    files: dict[str, bytes] = {}
    scratch = tempfile.mkdtemp(dir=workloads.REFERENCE_ROOT.parent)
    try:
        for name in workloads.WORKLOADS:
            for call in workloads.build(name, args.size, scratch):
                outcome, _ = worker.run_call(cli.main, call)
                if outcome.rc != 0:
                    print(f"error: {call.label} exited {outcome.rc}", file=sys.stderr)
                    return 1
                if name == "sweep":
                    files[f"{call.label}.csv"] = outcome.files["csv"]
                elif name == "render":
                    expected[call.label] = {"ppm_sha256": workloads.sha256(outcome.files["ppm"])}
                    if "csv" in outcome.files:
                        files[f"{call.label}.csv.gz"] = gzip.compress(outcome.files["csv"], mtime=0)
                elif name == "density":
                    files["density.csv"] = outcome.files["csv"]
                else:
                    expected["motion"] = {"order_K": int(workloads.parse_motion(outcome.stdout)["order_K"])}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.size == "full":
        pinned = {"render.param": workloads.DEMO_PARAM_PPM_SHA, "render.dyn": workloads.DEMO_DYN_PPM_SHA}
        for label, sha in pinned.items():
            if expected[label]["ppm_sha256"] != sha:
                print(f"error: {label} does not reproduce its pinned golden", file=sys.stderr)
                return 1

    out_dir.mkdir(parents=True)
    for name, data in files.items():
        (out_dir / name).write_bytes(data)
    (out_dir / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sorted(files) + ['expected.json']} in {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
