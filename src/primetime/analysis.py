"""Message-size metrics, the tabular baseline, and trace checkers.

The checkers read a loss-free closed-graph run round by round against the
BFS oracle: tables must grow exactly along inclusive hop sets, completion
must land exactly on the diameter, and messages must match the hop-set
products (inclusive sets for the full variant, exclusive sets for the
incremental one).
"""
from __future__ import annotations

import csv
import json
import math
from bisect import bisect_left
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import graph as graphmod
from .errors import ConfigError
from .primes import decimal, encode, first_primes, prime_count
from .protocol import Variant
from .sim import Rounds, SimConfig, with_final_primes


def ceil_log2(x: int) -> int:
    """Exact ceil(log2 x) for integer x >= 1, via bit twiddling."""
    if x < 1:
        raise ValueError(f"ceil_log2 needs x >= 1, got {x}")
    return (x - 1).bit_length()


def tabular_bits(pair_count: int, n_max: int, max_value: int) -> int:
    """Bits for the flat-table baseline: fixed-width id and value fields
    per pair, plus a pair-count header sized for up to n_max entries."""
    id_bits = ceil_log2(n_max)
    value_bits = ceil_log2(max_value + 1)
    header = ceil_log2(n_max + 1)
    return pair_count * (id_bits + value_bits) + header


def compare_encodings(pairs: Iterable[tuple[int, int]], n_max: int,
                      max_value: int) -> tuple[int, int]:
    """(product-encoding bits, tabular bits) for one pair set."""
    pair_list = list(pairs)
    product_bits = encode(pair_list, max_exponent=max_value + 1).bit_length()
    return product_bits, tabular_bits(len(pair_list), n_max, max_value)


class CheckVerdict(NamedTuple):
    check: str
    passed: bool
    detail: str = ""
    counterexample: dict | None = None


def require_closed_lossless(cfg: SimConfig, check: str) -> None:
    """Raise ConfigError unless `cfg` has no loss, no forced drops and no churn."""
    if cfg.loss_q != 0 or cfg.drop_schedule or cfg.events:
        raise ConfigError(f"{check} requires a loss-free closed-graph run "
                          "(no loss, forced drops or events)")


def check_diameter_completion(result: Rounds) -> CheckVerdict:
    """Completion must land exactly on the diameter: the stream, drained
    first, is complete at d and, for d >= 1, incomplete at d - 1."""
    require_closed_lossless(result.config, "check_diameter_completion")
    for _ in result:
        pass
    d = result.diameter
    observed = result.completion_round
    if observed != d:
        return CheckVerdict(
            "diameter_completion", False,
            detail=f"completion_round {observed} != diameter {d}",
            counterexample={"completion_round": observed, "diameter": d},
        )
    return CheckVerdict("diameter_completion", True, detail=f"complete at d={d}, incomplete before")


def check_hop_equations(result: Rounds) -> CheckVerdict:
    """Every recorded message must equal the hop-set product from the BFS
    oracle: inclusive sets for the full variant, exclusive for incremental
    (whose sets empty out past each node's eccentricity, giving message 1).

    Reads the stream from round 0: raises ValueError if it was already
    consumed, in whole or in part, as the rounds it missed are unchecked."""
    require_closed_lossless(result.config, "check_hop_equations")
    topology = result.initial_topology
    primes, values = result.agent_primes, result.agent_values
    pair_of = {i: (primes[i], values[i]) for i in topology.nodes}
    incremental = result.config.variant is Variant.INCREMENTAL
    # Each agent's nodes by hop distance, once: the ring at hop d is
    # order[i][start[i][d]:start[i][d + 1]], and hops 0..d are a prefix.
    order, start = {}, {}
    for i in topology.nodes:
        distances = graphmod.bfs_distances(topology, i)
        order[i] = sorted(distances, key=distances.get)
        hops = [distances[j] for j in order[i]]
        start[i] = [bisect_left(hops, d) for d in range(hops[-1] + 2)]
    count = 0
    for trace in result:
        k = trace.round_index
        count += len(trace.messages)
        for agent, message in trace.messages.items():
            bounds = start[agent]
            last = len(bounds) - 1
            lo = bounds[min(k, last)] if incremental else 0
            members = order[agent][lo:bounds[min(k + 1, last)]]
            expected = encode((pair_of[j] for j in members),
                              max_exponent=result.config.max_value + 1)
            if message != expected:
                return CheckVerdict(
                    "hop_equations", False,
                    detail=f"agent {agent} round {k}: message {decimal(message)} "
                           f"!= oracle {decimal(expected)}",
                    counterexample={"agent": agent, "round": k, "message": decimal(message),
                                    "expected": decimal(expected)},
                )
    if count != result.rounds_run * len(topology.nodes):
        raise ValueError(f"check_hop_equations saw {count} messages of "
                         f"{result.rounds_run} rounds: the stream was already consumed")
    return CheckVerdict("hop_equations", True, detail=f"{count} messages match")


class GrowthRow(NamedTuple):
    n: int
    message_bits: int
    exceeds_factorial: bool | None  # value-level primorial vs n!, only meaningful at M=1


def steady_state_growth(n_values: Sequence[int], max_value: int) -> list[GrowthRow]:
    """Steady-state full-variant message sizes: all n primes raised to M.

    At M = 1 the message value is the primorial, which is compared against
    n! to back the factorial-growth claim at the value level.
    """
    rows = []
    for n in n_values:
        primes = first_primes(n)
        message = 1
        for p in primes:
            message *= p**max_value
        exceeds = None
        if max_value == 1:
            exceeds = message > math.factorial(n)
        rows.append(GrowthRow(n=n, message_bits=message.bit_length(), exceeds_factorial=exceeds))
    return rows


SIZE_REPORT_COLUMNS = ("n", "M", "round", "agent", "primetime_bits", "tabular_bits")


def size_report_rows(result: Rounds) -> Iterator[tuple]:
    """Per-transmission size comparison rows for one run, as its rounds end.

    The `n_max` check runs in the call itself, once the run has passed its
    last join, so a writer can make it before it creates its file; the rows
    follow from the returned iterator.  The pair count behind each tabular
    row is recovered from the traced message itself (its number of distinct
    prime factors).  A message often repeats from one round to the next
    (the full variant resends an unchanged table), so the counts of the
    previous round's messages are kept for reuse, and only those.
    """
    cfg = result.config
    traces = with_final_primes(result)
    agents = len(result.agent_primes)
    n_max = cfg.n_max if cfg.n_max is not None else agents
    if n_max < agents:
        raise ConfigError(f"analysis.n_max: {n_max} is below the {agents} agents of the run")

    def rows() -> Iterator[tuple]:
        previous: dict[int, int] = {}
        for trace in traces:
            current: dict[int, int] = {}
            for agent in sorted(trace.messages):
                message = trace.messages[agent]
                pair_count = current.get(message)
                if pair_count is None:
                    pair_count = current[message] = (
                        previous[message] if message in previous
                        else prime_count(message, max_exponent=2 * cfg.max_value + 1))
                yield (len(result.initial_topology.nodes), cfg.max_value,
                       trace.round_index, agent, message.bit_length(),
                       tabular_bits(pair_count, n_max, cfg.max_value))
            previous = current
    return rows()


def write_size_report_csv(result: Rounds, path) -> None:
    rows = size_report_rows(result)  # a config error leaves no file
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SIZE_REPORT_COLUMNS)
        writer.writerows(rows)


def write_verdicts_json(verdicts: Sequence[CheckVerdict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump([v._asdict() for v in verdicts], fh, indent=2, sort_keys=True)
        fh.write("\n")
