"""The benchmark's four workloads: INI inputs made from a seed, and the
correctness gate each CLI pass must clear.

Every workload drives one `primetime` subcommand on a config generated here.
`full` is the measured scale; `small` is the reduced scale the harness
self-check runs.  Gates check the paper's invariants at any seed; at seeds
with pinned digests (see digests.json) the outputs must also match byte for
byte.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

SWEEP_RUNS = 6

# Per-scale topology and protocol parameters.  The full-scale values are the
# benchmark's definition; changing them changes every baseline.
PARAMS = {
    "full": {
        "flood_full": {"n": 128},
        "check_incr": {"n": 160},
        "lossy_incr": {"n": 256, "p": 0.03, "q": 0.2, "max_rounds": 200, "starve_rounds": 12},
        "churn_sweep": {"n": 64, "q": 0.2, "join": "70 join 65 10,40 2",
                        "leave": "110 leave 20", "max_rounds": 200},
    },
    "small": {
        "flood_full": {"n": 16},
        "check_incr": {"n": 20},
        "lossy_incr": {"n": 32, "p": 0.15, "q": 0.3, "max_rounds": 30, "starve_rounds": 6},
        "churn_sweep": {"n": 12, "q": 0.2, "join": "12 join 13 2,6 2",
                        "leave": "24 leave 4", "max_rounds": 80},
    },
}


class GateError(Exception):
    """A pass produced outputs that break an invariant."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GateError(message)


def config_text(name: str, seed: int, scale: str) -> str:
    """The INI config of workload `name` at `seed`."""
    p = PARAMS[scale][name]
    if name == "flood_full":
        return (f"[topology]\nfamily = path\nn = {p['n']}\n\n"
                f"[protocol]\nvariant = primetime\nmax_value = 4\n\n"
                f"[data]\nmode = random\n\n[sim]\nseed = {seed}\n")
    if name == "check_incr":
        return (f"[topology]\nfamily = cycle\nn = {p['n']}\n\n"
                f"[protocol]\nvariant = incremental\nmax_value = 4\n\n"
                f"[sim]\nseed = {seed}\n")
    if name == "lossy_incr":
        return (f"[topology]\nfamily = random_connected\nn = {p['n']}\np = {p['p']}\n\n"
                f"[protocol]\nvariant = incremental\nmax_value = 4\n\n"
                f"[loss]\nmode = bernoulli\nq = {p['q']}\ndrops ={_starve_agent_1(p)}\n\n"
                f"[sim]\nseed = {seed}\nmax_rounds = {p['max_rounds']}\n"
                f"extra_rounds = {p['max_rounds']}\n")
    if name == "churn_sweep":
        return (f"[topology]\nfamily = cycle\nn = {p['n']}\n\n"
                f"[protocol]\nvariant = primetime\nmax_value = 4\n\n"
                f"[loss]\nmode = bernoulli\nq = {p['q']}\n\n"
                f"[events]\nschedule =\n    {p['join']}\n    {p['leave']}\n\n"
                f"[sim]\nseed = {seed}\nmax_rounds = {p['max_rounds']}\n\n"
                f"[sweep]\nseeds = {seed}..{seed + SWEEP_RUNS - 1}\n")
    raise KeyError(name)


def _starve_agent_1(p: dict) -> str:
    """Forced drops of every message to agent 1 in the first rounds, one
    continuation line per round.  The incremental variant relays each pair
    once, so agent 1 misses the pairs its neighbours relay meanwhile.  Which
    agents starve otherwise depends on the seed, and the engine's completion
    checks scan agents in id order up to the first incomplete table, so a
    starved agent 1 keeps that scan, and the run's cost, the same at every
    seed."""
    return "".join("\n    " + " ".join(f"{r}:{j}>1" for j in range(2, p["n"] + 1))
                   for r in range(p["starve_rounds"]))


def _summary(outdir: str) -> dict[str, str]:
    with open(os.path.join(outdir, "summary.txt"), encoding="utf-8") as fh:
        return dict(line.split(" = ", 1) for line in fh.read().splitlines())


def _trace_rounds(outdir: str, summary: dict[str, str], agents: int) -> tuple[int, str]:
    """Rounds recorded in trace.csv and the first round in which every table
    is full ("never" if none), after checking the file is a full rectangle of
    active agents whose bit counts agree with summary.txt."""
    with open(os.path.join(outdir, "trace.csv"), encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        _require(next(rows) == ["round", "agent", "prime", "message_decimal",
                                "message_bits", "table_size", "active"],
                 "trace.csv: unexpected header")
        count = total = peak = 0
        last_round = -1
        full_tables: dict[int, int] = {}
        for row in rows:
            bits = int(row[4])
            count += 1
            total += bits
            peak = max(peak, bits)
            last_round = int(row[0])
            if int(row[5]) == agents:
                full_tables[last_round] = full_tables.get(last_round, 0) + 1
            _require(row[6] == "1", f"trace.csv: inactive agent in closed run: {row[:2]}")
    rounds = last_round + 1
    _require(count == rounds * agents, f"trace.csv: {count} rows for {rounds} rounds")
    _require(total == int(summary["total_bits_transmitted"]),
             "trace.csv bits disagree with summary total_bits_transmitted")
    _require(peak == int(summary["peak_message_bits"]),
             "trace.csv bits disagree with summary peak_message_bits")
    complete = [r for r, full in full_tables.items() if full == agents]
    return rounds, str(min(complete)) if complete else "never"


def _gate_flood(outdir: str, seed: int, scale: str) -> int:
    summary = _summary(outdir)
    _require(summary["completion_round"] == summary["diameter"],
             f"completion_round {summary['completion_round']} != diameter {summary['diameter']}")
    rounds, first_full = _trace_rounds(outdir, summary, PARAMS[scale]["flood_full"]["n"])
    _require(first_full == summary["completion_round"],
             f"trace.csv: tables first full at round {first_full}")
    return rounds


def _gate_check(outdir: str, seed: int, scale: str) -> int:
    with open(os.path.join(outdir, "verdicts.json"), encoding="utf-8") as fh:
        verdicts = {v["check"]: v for v in json.load(fh)}
    _require(set(verdicts) == {"diameter_completion", "hop_equations"},
             f"verdicts.json: unexpected checks {sorted(verdicts)}")
    for v in verdicts.values():
        _require(v["passed"] is True, f"verdict {v['check']} failed: {v['detail']}")
    # "<count> messages match": one message per agent per round on a closed graph.
    messages = int(verdicts["hop_equations"]["detail"].split()[0])
    agents = PARAMS[scale]["check_incr"]["n"]
    _require(messages % agents == 0, f"{messages} messages for {agents} agents")
    return messages // agents


def _gate_lossy(outdir: str, seed: int, scale: str) -> int:
    """Whether loss starves the incremental variant depends on the draws, so
    a run may complete or not; extra_rounds = max_rounds makes it last all
    max_rounds either way.  A completion must be the first round in which
    trace.csv shows every table full, and no earlier than the diameter."""
    summary = _summary(outdir)
    p = PARAMS[scale]["lossy_incr"]
    rounds, first_full = _trace_rounds(outdir, summary, p["n"])
    _require(rounds == p["max_rounds"], f"{rounds} rounds run, not max_rounds")
    completion = summary["completion_round"]
    _require(completion == first_full,
             f"completion_round {completion}, but trace.csv tables first full at {first_full}")
    _require(completion == "never" or int(completion) >= int(summary["diameter"]),
             f"completion_round {completion} before diameter {summary['diameter']}")
    return rounds


def _gate_churn(outdir: str, seed: int, scale: str) -> int:
    with open(os.path.join(outdir, "sweep.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require([int(r["seed"]) for r in rows] == list(range(seed, seed + SWEEP_RUNS)),
             f"sweep.csv: seeds {[r['seed'] for r in rows]}")
    for r in rows:
        _require(r["completed"] == "1" and r["error"] == "",
                 f"sweep seed {r['seed']}: completed={r['completed']} error={r['error']!r}")
    return sum(int(r["rounds_run"]) for r in rows)


@dataclass(frozen=True)
class Workload:
    command: str
    outputs: tuple[str, ...]
    gate: Callable[[str, int, str], int]

    def check(self, outdir: str, seed: int, scale: str) -> tuple[int, dict[str, str]]:
        """The rounds a pass simulated and the digests of its outputs.

        Raises GateError if an output is missing, malformed or breaks an
        invariant."""
        try:
            return self.gate(outdir, seed, scale), digests(outdir, self.outputs)
        except (OSError, ValueError, KeyError, IndexError, StopIteration, csv.Error) as exc:
            raise GateError(f"{type(exc).__name__}: {exc}") from exc


WORKLOADS = {
    "flood_full": Workload("run", ("summary.txt", "trace.csv"), _gate_flood),
    "check_incr": Workload("check", ("verdicts.json",), _gate_check),
    "lossy_incr": Workload("run", ("summary.txt", "trace.csv"), _gate_lossy),
    "churn_sweep": Workload("sweep", ("sweep.csv",), _gate_churn),
}
NAMES = tuple(WORKLOADS)


def digests(outdir: str, outputs: tuple[str, ...]) -> dict[str, str]:
    """SHA-256 of each deterministic output file."""
    out = {}
    for name in outputs:
        h = hashlib.sha256()
        with open(os.path.join(outdir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[name] = h.hexdigest()
    return out
