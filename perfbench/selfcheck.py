"""Fast self-check of the benchmark harness at reduced scale.

Usage (from the repository root):  python3 perfbench/selfcheck.py

Runs every workload at the small scale for about a second in both trace
modes and checks that
  * each pass clears the correctness gate, and every metric BENCHMARK.json
    names is emitted, with its unit, and no other;
  * a corrupted output (one flipped byte) is counted as a failed pass, and
    the result still names every metric;
  * perfbench/layers.json names only metrics and workloads BENCHMARK.json
    defines, and covers every per-layer metric.
Exits 0 when every check holds, 1 otherwise.
"""
from __future__ import annotations

import json
import os
import sys

import run
import workloads as wl

SECONDS = 1.0


def flip_one_byte():
    """A tamper hook that flips one bit in the first output file of the
    first pass it sees, and leaves later passes alone."""
    done = []

    def tamper(bench, outdir: str) -> None:
        if done:
            return
        done.append(outdir)
        path = os.path.join(outdir, bench.workload.outputs[0])
        with open(path, "r+b") as fh:
            fh.seek(os.path.getsize(path) // 2)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 0x01]))

    return tamper


def main() -> int:
    spec = run.spec()
    problems: list[str] = []
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[kind]}
        for name in wl.NAMES:
            result = run.measure(name, 0, SECONDS, trace, scale="small")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            tag = f"{name} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: not correct: {result['failures'] or result['missing']}")
            if got != expected:
                problems.append(f"{tag}: metrics/units differ from BENCHMARK.json: "
                                f"missing {sorted(set(expected) - set(got))}, "
                                f"wrong unit {sorted(k for k in got if got[k] != expected.get(k))}")
            print(f"ok  {tag}: {len(got)} metrics, {result['attempted']} attempted")

    end_to_end_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name in wl.NAMES:
        result = run.measure(name, 0, SECONDS, False, scale="small", tamper=flip_one_byte())
        frac = result["failed"] / result["attempted"]
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != end_to_end_units:
            problems.append(f"{name}: a failed pass drops metrics from the result: {sorted(got)}")
        if result["correct"] or frac <= 0:
            problems.append(f"{name}: flipped byte not counted (failed_frac {frac})")
        else:
            print(f"ok  {name}: flipped byte counted, failed_frac {frac:.3f}")

    with open(os.path.join(run.BENCH, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    mapped = {m for entry in layers for m in entry["metrics"]}
    if mapped != per_layer:
        problems.append(f"layers.json vs per_layer: {sorted(mapped ^ per_layer)}")
    for entry in layers:
        unknown = (set(entry["moves"]) - end_to_end) | (set(entry["most"] + entry["least"])
                                                         - workloads)
        if unknown:
            problems.append(f"layers.json {entry['layer']}: unknown names {sorted(unknown)}")
    if workloads != set(wl.NAMES):
        problems.append(f"BENCHMARK.json workloads {sorted(workloads)} != {sorted(wl.NAMES)}")

    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
