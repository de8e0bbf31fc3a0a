"""Rebuild perfbench/reference.json: the outputs of one unit per workload and seed.

    python3 perfbench/make_reference.py

Run it from the checkout root, on a commit whose outputs are the reference
(bitwise RFECV results and feature_sets.json, held-out MSE within a relative
tolerance). A benchmark run checks its first unit against the entry for its
seed when the table has one.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run  # pins the BLAS thread variables before numpy loads

# the seeds reference.json covers
SEEDS = range(0, 32)


def main() -> int:
    if not run.use_checkout():
        return 2
    import workloads

    table: dict[str, dict[str, dict]] = {}
    for name, cls in workloads.WORKLOADS.items():
        table[name] = {}
        for seed in SEEDS:
            work_dir = run.WORK / f"reference-{name}-s{seed}-p{os.getpid()}"
            wl = cls(seed, work_dir, {})
            try:
                generated = wl.setup()  # pipeline_cli returns (seconds, exit code, stderr)
                if generated is not None and generated[1] != 0:
                    print(f"{name} seed {seed}: generate failed: {generated[2]}", file=sys.stderr)
                    return 1
                unit = wl.unit(0, "plain")
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            failed = [op for op in unit["ops"] if not op[1]]
            if failed:
                print(f"{name} seed {seed}: failed {failed}", file=sys.stderr)
                return 1
            table[name][str(seed)] = unit["reference_values"]
            print(name, seed, unit["reference_values"], flush=True)
    if run.WORK.is_dir() and not any(run.WORK.iterdir()):
        run.WORK.rmdir()
    (run.HERE / "reference.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
