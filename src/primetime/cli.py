"""Command-line front end.

Subcommands (all but demo drain one `iter_rounds` stream, a round at a time):
  run           execute one simulation, streaming trace.csv, then summary.txt
  sweep         run a parameter grid, write sweep.csv
  check         run and verify the diameter-exact completion and hop-set
                message characterizations, write verdicts.json
  compare-size  run and write the product-vs-tabular size report CSV
  demo          bundled 7-node walkthrough of both variants

Exit codes: 0 success, 2 config error, 3 anomalies under --strict,
1 unexpected failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys

from .analysis import (check_hop_equations, check_diameter_completion,
                       require_closed_lossless, write_size_report_csv,
                       write_verdicts_json)
from .config import load_config, load_sweep
from .errors import ConfigError, PrimeTimeError
from .graph import Topology, diameter
from .protocol import Variant
from .sim import (SimConfig, TopologySpec, iter_rounds, run, summary_text,
                  write_summary, write_trace_csv)

DEMO_EDGES = ((1, 2), (2, 3), (3, 4), (2, 5), (3, 6), (2, 7), (5, 7))
DEMO_VALUES = (2, 1, 4, 3, 4, 2, 2)
DEMO_MAX_VALUE = 4
DEMO_FOCUS = 7


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primetime",
        description="Synchronous-round simulator for prime-exponent dissemination protocols",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="INI config file (see CONFIG.md)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override [sim] seed (for sweep, the [sweep] seeds)")
        p.add_argument("--variant", choices=[v.value for v in Variant], default=None,
                       help="override [protocol] variant (for sweep, the [sweep] variants)")
        p.add_argument("--strict", action="store_true",
                       help="exit 3 if the run logged any anomalies")

    add_common(sub.add_parser("run", help="execute one simulation"))
    sweep = sub.add_parser("sweep", help="run the [sweep] grid of a config")
    add_common(sweep)
    sweep.add_argument("--verbose", action="store_true",
                       help="print each grid point's completion round")
    add_common(sub.add_parser("check", help="run and verify completion/message oracles"))
    add_common(sub.add_parser("compare-size", help="run and write the size report"))
    sub.add_parser("demo", help="print a round-by-round walkthrough")
    return parser


def _load(args) -> SimConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.variant is not None:
        cfg = dataclasses.replace(cfg, variant=Variant(args.variant))
    return cfg


def _finish(anomaly_count: int, args) -> int:
    if args.strict and anomaly_count > 0:
        print(f"strict mode: {anomaly_count} anomalies logged", file=sys.stderr)
        return 3
    return 0


def cmd_run(args) -> int:
    cfg = _load(args)
    os.makedirs(args.out, exist_ok=True)
    rounds = iter_rounds(cfg)
    write_trace_csv(rounds, os.path.join(args.out, "trace.csv"))
    write_summary(rounds, os.path.join(args.out, "summary.txt"))
    sys.stdout.write(summary_text(rounds))
    return _finish(rounds.anomaly_count, args)


SWEEP_COLUMNS = ("n", "max_value", "q", "variant", "seed", "diameter", "rounds_run",
                 "completion_round", "completed", "peak_message_bits",
                 "total_bits_transmitted", "error")


def cmd_sweep(args) -> int:
    base, grid = load_sweep(args.config)
    if args.seed is not None:
        grid = dataclasses.replace(grid, seeds=(args.seed,))
    if args.variant is not None:
        grid = dataclasses.replace(grid, variant=(Variant(args.variant),))
    os.makedirs(args.out, exist_ok=True)
    anomalies = 0
    rows = []
    for n, m, q, variant, seed in grid.points():
        spec = TopologySpec(family=base.topology.family, n=n, p=base.topology.p)
        cfg = dataclasses.replace(base, topology=spec, max_value=m, loss_q=q,
                                  variant=variant, seed=seed)
        try:
            rounds = iter_rounds(cfg)
            for _ in rounds:
                pass
        except PrimeTimeError as exc:
            rows.append((n, m, q, variant.value, seed, "", "", "", 0, "", "", str(exc)))
            continue
        completion = rounds.completion_round
        rows.append((
            n, m, q, variant.value, seed, rounds.diameter, rounds.rounds_run,
            completion if completion is not None else "never",
            1 if completion is not None else 0,
            rounds.peak_message_bits, rounds.total_bits_transmitted, "",
        ))
        anomalies += rounds.anomaly_count
        if args.verbose:
            print(f"n={n} M={m} q={q} {variant.value} seed={seed}: "
                  f"completion={completion}")
    with open(os.path.join(args.out, "sweep.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows(rows)
    completed: dict[tuple, list[int]] = {}
    for row in rows:
        completed.setdefault(row[:4], []).append(row[SWEEP_COLUMNS.index("completed")])
    for (n, m, q, variant), flags in completed.items():
        print(f"n={n} M={m} q={q} {variant}: {sum(flags)}/{len(flags)} completed "
              f"(rate {sum(flags) / len(flags):.3f})")
    return _finish(anomalies, args)


def cmd_check(args) -> int:
    cfg = _load(args)
    require_closed_lossless(cfg, "check")
    os.makedirs(args.out, exist_ok=True)
    rounds = iter_rounds(cfg)
    hop = check_hop_equations(rounds)
    verdicts = [check_diameter_completion(rounds), hop]
    write_verdicts_json(verdicts, os.path.join(args.out, "verdicts.json"))
    for v in verdicts:
        print(f"{v.check}: {'pass' if v.passed else 'FAIL'} ({v.detail})")
    if not all(v.passed for v in verdicts):
        return 1
    return _finish(rounds.anomaly_count, args)


def cmd_compare_size(args) -> int:
    cfg = _load(args)
    os.makedirs(args.out, exist_ok=True)
    rounds = iter_rounds(cfg)
    write_size_report_csv(rounds, os.path.join(args.out, "size_report.csv"))
    return _finish(rounds.anomaly_count, args)


def _format_pairs(pairs: dict[int, int]) -> str:
    if not pairs:
        return "(empty)"
    return "*".join(f"{p}^{x}" for p, x in sorted(pairs.items()))


def demo(stream=None) -> None:
    """Round-by-round view of one agent under both variants: its table, the
    message it sent, and what each neighbor delivered."""
    out = stream if stream is not None else sys.stdout
    topology = Topology(range(1, 8), DEMO_EDGES)
    d = diameter(topology)
    out.write(f"demo graph: 7 nodes, diameter {d}, edges "
              + " ".join(f"{u}-{v}" for u, v in sorted(topology.edges)) + "\n")
    for variant in (Variant.PRIMETIME, Variant.INCREMENTAL):
        cfg = SimConfig(
            topology=TopologySpec(edges=DEMO_EDGES),
            variant=variant,
            max_value=DEMO_MAX_VALUE,
            data_values=DEMO_VALUES,
        )
        result = run(cfg)
        primes = result.agent_primes
        out.write(f"\n=== {variant.value}: agent {DEMO_FOCUS} "
                  f"(prime {primes[DEMO_FOCUS]}) ===\n")
        out.write("agents: " + " ".join(
            f"{i}->{primes[i]}^{result.agent_values[i]}" for i in sorted(primes)) + "\n")
        for trace in result.traces:
            sent = trace.messages[DEMO_FOCUS]
            incoming = trace.incoming(DEMO_FOCUS)
            recv = "  ".join(
                f"from {s}: {m}" for s, m in sorted(incoming.items()))
            out.write(
                f"round {trace.round_index} | table {_format_pairs(trace.tables[DEMO_FOCUS])}"
                f" | sent {sent} | recv {recv}\n"
            )
        out.write(f"completion_round = {result.completion_round} (diameter {d})\n")


def cmd_demo(args) -> int:
    demo()
    return 0


_COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "check": cmd_check,
    "compare-size": cmd_compare_size,
    "demo": cmd_demo,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PrimeTimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
