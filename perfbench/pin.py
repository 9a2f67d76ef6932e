"""Re-pin the SHA-256 digests of every workload's outputs at seed 0.

Usage (from the repository root):  python3 perfbench/pin.py

Runs one pass of each workload at both scales, checks it against the
workload's invariants, and rewrites perfbench/digests.json.  Only re-pin
when the program's deterministic outputs are meant to change.
"""
import json
import os
import sys

import run
import workloads as wl

SEED = 0


def main() -> int:
    pins = {}
    for scale in wl.PARAMS:
        for name in wl.NAMES:
            bench = run.Workbench(name, SEED, scale)
            bench.reference = None
            bench.cli_pass("pin")
            if bench.failures:
                print(f"{scale} {name}: {bench.failures}", file=sys.stderr)
                return 1
            pins.setdefault(scale, {}).setdefault(name, {})[str(SEED)] = bench.reference
            print(f"pinned {scale} {name}")
    with open(os.path.join(run.BENCH, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
