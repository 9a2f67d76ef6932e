"""Benchmark of the `primetime` CLI: four workloads, end-to-end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Every pass is a fresh `python -m primetime ...` process on a config generated
from the seed, timed from outside with its rusage, so each starts with cold
codec caches as a CLI user's does.  Passes are sequential and repeat until
`--seconds` have elapsed.

--trace 0 reports the end-to-end metrics (medians over passes; set-up is the
median of separate probe processes that stop before round 0).
--trace 1 alternates a traced pass (perfbench/traced.py records spans at
every layer boundary), an untraced pass and a cold-codec pass, and reports
the per-layer metrics.  Traced outputs must be byte-identical to untraced.

Every pass goes through the correctness gate in workloads.py; a pass that
exits non-zero or fails the gate counts as failed.  Metric names and units
come from BENCHMARK.json.  The last stdout line is one JSON object with keys
correct, attempted, failed and metrics; the lines above it give each metric
with its unit and sample count, and provenance.  Full results, with every
sample, go to .perfbench/<workload>/result-trace<0|1>.json.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from array import array
from dataclasses import dataclass
from time import perf_counter

import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
PROBES_PER_PASS = 2
CHILD_TIMEOUT_S = 60.0


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def pinned_digests() -> dict:
    with open(os.path.join(BENCH, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Outcome:
    """One finished child process: exit code, wall and CPU seconds, peak RSS."""
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    errfile: str

    def failure(self) -> str | None:
        """Why the child failed (its exit code and stderr tail), or None."""
        if self.code == 0:
            return None
        with open(self.errfile, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-300:].strip()
        return f"exit {self.code}: {tail}"


def spawn(argv: list[str], outfile: str, errfile: str) -> Outcome:
    """Run a child against the checkout's package, timed from outside with its rusage."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(outfile, "wb") as out, open(errfile, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall_s = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(code=proc.returncode, wall_s=wall_s,
                   cpu_s=usage.ru_utime + usage.ru_stime,
                   rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
                   errfile=errfile)


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Workbench:
    """One workload at one seed and scale: its config, its passes and their tally."""

    def __init__(self, name: str, seed: int, scale: str, tamper=None):
        self.workload = wl.WORKLOADS[name]
        self.seed, self.scale, self.tamper = seed, scale, tamper
        self.dir = fresh_dir(os.path.join(WORK, name if scale == "full" else f"{name}-{scale}"))
        self.config = os.path.join(self.dir, "config.ini")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(wl.config_text(name, seed, scale))
        pins = pinned_digests().get(scale, {}).get(name, {})
        self.reference = pins.get(str(seed))
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, reason: str | None) -> bool:
        """Count one attempt; `reason` says why it failed, None if it did not."""
        self.attempted += 1
        if reason is not None:
            self.failures.append(reason)
        return reason is None

    def cli_pass(self, label: str, traced: bool = False) -> tuple[Outcome, int] | None:
        """Run one CLI pass and gate it: the child and the rounds it simulated
        (0 if the gate failed), or None if the child exited non-zero.  A pass
        that fails the gate is counted as failed but keeps its timings, so
        the result still names every metric."""
        outdir = fresh_dir(os.path.join(self.dir, label))
        if traced:
            spans = fresh_dir(os.path.join(self.dir, "spans"))
            argv = [sys.executable, os.path.join(BENCH, "traced.py"), spans, "--"]
        else:
            argv = [sys.executable, "-m", "primetime"]
        argv += [self.workload.command, "--config", self.config, "--out", outdir]
        child = spawn(argv, os.path.join(self.dir, f"{label}.out"),
                      os.path.join(self.dir, f"{label}.err"))
        if self.tamper is not None:
            self.tamper(self, outdir)
        reason = child.failure()
        rounds = 0
        if reason is None:
            try:
                rounds, got = self.workload.check(outdir, self.seed, self.scale)
            except wl.GateError as exc:
                reason = f"{label}: {exc}"
            else:
                if self.reference is None:
                    self.reference = got
                elif got != self.reference:
                    changed = sorted(k for k in got if got[k] != self.reference.get(k))
                    reason = f"{label}: outputs differ from the reference: {changed}"
        if not self.record(reason):
            rounds = 0
        return (child, rounds) if child.code == 0 else None

    def setup_probe(self, warm_up: bool = False) -> Outcome | None:
        argv = [sys.executable, os.path.join(BENCH, "probe.py"), self.config]
        if self.workload.command == "sweep":
            argv.append("sweep")
        child = spawn(argv, os.path.join(self.dir, "probe.out"),
                      os.path.join(self.dir, "probe.err"))
        if warm_up:
            return None
        return child if self.record(child.failure()) else None

    def cold_pass(self) -> float | None:
        argv = [sys.executable, os.path.join(BENCH, "cold_decode.py"),
                os.path.join(self.dir, "spans", "messages.txt")]
        out = os.path.join(self.dir, "cold.out")
        child = spawn(argv, out, os.path.join(self.dir, "cold.err"))
        if not self.record(child.failure()):
            return None
        with open(out, encoding="utf-8") as fh:
            return float(fh.read())


def span_stats(spans_dir: str) -> tuple[dict, dict]:
    """Per span name: (calls, inclusive seconds, self seconds); plus the header.

    Self time is a span's duration minus the durations of its child spans.
    """
    with open(os.path.join(spans_dir, "spans.json"), encoding="utf-8") as fh:
        header = json.load(fh)
    count = header["count"]
    name, parent, start, end = array("H"), array("q"), array("d"), array("d")
    with open(os.path.join(spans_dir, "spans.bin"), "rb") as fh:
        for arr in (name, parent, start, end):
            arr.fromfile(fh, count)
    duration = [e - s for s, e in zip(start, end)]
    in_children = [0.0] * count
    for i, p in enumerate(parent):
        if p >= 0:
            in_children[p] += duration[i]
    stats: dict[str, list] = {n: [0, 0.0, 0.0] for n in header["names"]}
    for i in range(count):
        entry = stats[header["names"][name[i]]]
        entry[0] += 1
        entry[1] += duration[i]
        entry[2] += duration[i] - in_children[i]
    return stats, header


def layer_metrics(spans_dir: str) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but the cold and overhead ones)."""
    stats, header = span_stats(spans_dir)
    c = header["counters"]
    calls = {n: s[0] for n, s in stats.items()}
    incl = {n: s[1] for n, s in stats.items()}
    own = {n: s[2] for n, s in stats.items()}
    decodes = calls["primes.decode"]
    return {
        "primes.encode.calls": calls["primes.encode"],
        "primes.encode.self_s": own["primes.encode"],
        "primes.decode.calls": decodes,
        "primes.decode.self_s": own["primes.decode"],
        "primes.decode.bits": c["decode_bits"],
        "primes.decode.distinct_ratio": header["distinct_messages"] / decodes if decodes else 0.0,
        "protocol.receive_message.calls": calls["protocol.receive_message"],
        "protocol.receive_message.self_s": own["protocol.receive_message"],
        "protocol.pairs_decoded": c["pairs_decoded"],
        "protocol.pairs_learned": c["pairs_learned"],
        "protocol.merge_yield": (c["pairs_learned"] / c["pairs_decoded"]
                                 if c["pairs_decoded"] else 0.0),
        "protocol.goodbyes_seen": c["goodbyes_seen"],
        "protocol.churn.calls": calls["protocol.churn"],
        "protocol.form_message.calls": calls["protocol.form_message"],
        "protocol.form_message.self_s": own["protocol.form_message"],
        "sim.run.s": incl["sim.run"],
        "sim.engine.self_s": own["sim.run"],
        "sim.apply_loss.self_s": own["sim.apply_loss"],
        "sim.rounds": c["rounds"],
        "sim.deliveries": c["deliveries"],
        "sim.drops": c["drops"],
        "sim.write_trace_csv.s": incl["sim.write_trace_csv"],
        "sim.write_summary.s": incl["sim.write_summary"],
        "graph.bfs_distances.calls": calls["graph.bfs_distances"],
        "graph.bfs_distances.self_s": own["graph.bfs_distances"],
        "graph.hop_sets.calls": calls["graph.hop_sets"],
        "graph.diameter.s": incl["graph.diameter"],
        "graph.generate.s": incl["graph.generate"],
        "analysis.check_hop_equations.self_s": own["analysis.check_hop_equations"],
        "analysis.check_diameter_completion.s": incl["analysis.check_diameter_completion"],
        "analysis.write_verdicts_json.s": incl["analysis.write_verdicts_json"],
        "config.load.s": incl["config.load"],
        "cli.self_s": own["cli.main"],
    }


def measure_end_to_end(bench: Workbench, seconds: float) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {k: [] for k in
                                       ("wall_s", "cpu_s", "peak_rss_mb", "rounds_per_s",
                                        "setup_s")}
    start, passes = perf_counter(), 0
    while passes == 0 or perf_counter() - start < seconds:
        passes += 1
        # Probes are spread between the passes so both medians see the same
        # spells of host contention.
        for _ in range(PROBES_PER_PASS):
            child = bench.setup_probe()
            if child is not None:
                samples["setup_s"].append(child.wall_s)
        done = bench.cli_pass("pass")
        if done is not None:
            child, rounds = done
            samples["wall_s"].append(child.wall_s)
            samples["cpu_s"].append(child.cpu_s)
            samples["peak_rss_mb"].append(child.rss_mb)
            if rounds:
                samples["rounds_per_s"].append(rounds / child.wall_s)
    return samples


def measure_layers(bench: Workbench, seconds: float) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {"trace.overhead_s": [], "primes.decode.cold_s": []}
    traced_walls, untraced_walls = [], []
    start, cycles = perf_counter(), 0
    while cycles == 0 or perf_counter() - start < seconds:
        cycles += 1
        traced = bench.cli_pass("traced", traced=True)
        if traced is None:
            continue
        traced_walls.append(traced[0].wall_s)
        for key, value in layer_metrics(os.path.join(bench.dir, "spans")).items():
            samples.setdefault(key, []).append(value)
        cold = bench.cold_pass()
        if cold is not None:
            samples["primes.decode.cold_s"].append(cold)
        untraced = bench.cli_pass("pass")
        if untraced is not None:
            untraced_walls.append(untraced[0].wall_s)
    if traced_walls and untraced_walls:
        samples["trace.overhead_s"].append(statistics.median(traced_walls)
                                           - statistics.median(untraced_walls))
    return samples


def measure(name: str, seed: int, seconds: float, trace: bool, scale: str = "full",
            tamper=None) -> dict:
    """Run one workload; the result object with every sample kept under `samples`."""
    bench = Workbench(name, seed, scale, tamper)
    bench.setup_probe(warm_up=True)  # byte-compiles the package and warms the page cache
    samples = (measure_layers if trace else measure_end_to_end)(bench, seconds)
    wanted = spec()["per_layer" if trace else "end_to_end"]
    # A metric without samples (every pass failed) reads 0 and makes the
    # result incorrect, so the result line still names every metric.
    missing = sorted(m["name"] for m in wanted if not samples.get(m["name"]))
    metrics = {m["name"]: {"value": statistics.median(samples[m["name"]])
                           if m["name"] not in missing else 0.0, "unit": m["unit"]}
               for m in wanted}
    extra = sorted(set(samples) - {m["name"] for m in wanted})
    if extra:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {extra}")
    failed = len(bench.failures)
    return {
        "correct": failed == 0 and not missing,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "failures": bench.failures,
        "missing": missing,
        "provenance": provenance(name, seed, scale, seconds, trace),
        "dir": bench.dir,
    }


def git_commit() -> str:
    """HEAD of the checkout's git repository, read from .git; 'none' outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest() -> str:
    """SHA-256 over the package sources, identifying the code measured."""
    h = hashlib.sha256()
    package = os.path.join(SRC, "primetime")
    for fname in sorted(os.listdir(package)):
        if fname.endswith(".py"):
            h.update(fname.encode())
            with open(os.path.join(package, fname), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(name: str, seed: int, scale: str, seconds: float, trace: bool) -> dict:
    return {
        "workload": name, "seed": seed, "scale": scale, "seconds": seconds,
        "trace": int(trace), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
        "git_commit": git_commit(), "src_sha256": source_digest(),
    }


def report(result: dict) -> None:
    """Human-readable lines for one workload, and the full result file."""
    prov = result["provenance"]
    print(f"# {prov['workload']} seed={prov['seed']} trace={prov['trace']} "
          f"python={prov['python']} nproc={prov['nproc']} platform={prov['platform']} "
          f"commit={prov['git_commit']} src_sha256={prov['src_sha256'][:16]}")
    for key, metric in result["metrics"].items():
        values = result["samples"].get(key, [])
        spread = ""
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"  p25 {q1:.6g}  p75 {q3:.6g}"
        print(f"{key:40s} {metric['value']:>14.6g} {metric['unit']:6s} "
              f"n={len(values)}{spread}")
    frac = result["failed"] / result["attempted"]
    print(f"{'failed_frac':40s} {frac:>14.6g} {'ratio':6s} "
          f"n={result['attempted']}  ({result['failed']} failed)")
    for reason in result["failures"][:5]:
        print(f"#   failed: {reason}")
    for key in result["missing"]:
        print(f"#   missing metric: {key}")
    path = os.path.join(result["dir"], f"result-trace{prov['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({k: v for k, v in result.items() if k != "dir"}, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "primetime", "__init__.py")):
        print(f"perfbench: no primetime package under {SRC}", file=sys.stderr)
        return 2
    names = wl.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        report(results[name])
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
