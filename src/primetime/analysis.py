"""Message-size metrics, the tabular baseline, and trace checkers.

The checkers read a loss-free closed-graph run round by round against the
BFS oracle: completion must land exactly on the diameter, and every
message must match its hop-set product (inclusive sets for the full
variant, whose message is its table, exclusive sets for the incremental
one).
"""
from __future__ import annotations

import csv
import json
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
    """Every recorded message must equal its hop-set product from the BFS
    oracle.  Agent i's ring d is the product of p**v over the agents
    exactly d hops from i, and 1 past i's eccentricity.  At round k the
    incremental variant sends ring k (the exclusive k-hop set) and the full
    variant sends the product of rings 0..k (the inclusive set), kept as a
    running product that each round multiplies by its ring.

    Reads the stream from round 0: raises ValueError if it was already
    consumed, in whole or in part, as the rounds it missed are unchecked."""
    require_closed_lossless(result.config, "check_hop_equations")
    topology = result.initial_topology
    primes, values = result.agent_primes, result.agent_values
    incremental = result.config.variant is Variant.INCREMENTAL
    # The BFS lists nodes by non-decreasing distance, so each agent's rings
    # are built in one pass.
    rings: dict[int, list[int]] = {}
    for i in topology.nodes:
        ring = rings[i] = []
        for j, d in graphmod.bfs_distances(topology, i).items():
            if d == len(ring):
                ring.append(1)
            ring[d] *= primes[j] ** values[j]
    running = dict.fromkeys(topology.nodes, 1)
    count = 0
    for trace in result:
        k = trace.round_index
        if count == 0 and k != 0:
            break  # consumed in part: the running products start at round 0
        count += len(trace.messages)
        for agent, message in trace.messages.items():
            expected = rings[agent][k] if k < len(rings[agent]) else 1
            if not incremental:
                expected = running[agent] = running[agent] * expected
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
    tabular_bits: int  # the table of the same n pairs, with n_max = n


def steady_state_growth(n_values: Sequence[int], max_value: int) -> list[GrowthRow]:
    """Steady-state full-variant message sizes for each n >= 1 of `n_values`:
    all n primes raised to M, beside the table of the same n pairs.  One
    running product, and one running factorial, serve every n.

    At M = 1 the message value is the primorial, which is compared against
    n! to back the factorial-growth claim at the value level.
    """
    wanted, rows = set(n_values), {}
    message = factorial = 1
    for n, p in enumerate(first_primes(max(wanted, default=0)), 1):
        message *= p**max_value
        factorial *= n
        if n in wanted:
            rows[n] = GrowthRow(n, message.bit_length(),
                                message > factorial if max_value == 1 else None,
                                tabular_bits(n, n, max_value))
    return [rows[n] for n in n_values]


def steady_state_crossover(max_value: int, n_limit: int) -> int | None:
    """The first n <= n_limit at which the steady-state product is longer
    than the table of the same n pairs, or None.  Past it the product can
    still win again (at M = 2 it loses at n = 8 and wins at n = 9)."""
    return next((row.n for row in steady_state_growth(range(1, n_limit + 1), max_value)
                 if row.message_bits > row.tabular_bits), None)


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
    n_max = cfg.n_max or agents  # validated >= 1
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


SIZE_SUMMARY_COLUMNS = ("n", "M", "n_max", "primetime_bits", "tabular_bits", "transmissions",
                        "primetime_wins", "nonempty_transmissions", "nonempty_wins", "crossover")


def write_size_report_csv(result: Rounds, path) -> tuple:
    """Write the run's size report to `path` and return its summary row
    (SIZE_SUMMARY_COLUMNS), totalled over the rows as they are written.

    A win is a transmission whose product is shorter than its table; a
    non-empty one carries a pair or a goodbye (its message is not 1).  The
    crossover is `steady_state_crossover` for the run's M up to its agent
    count, or "never"."""
    rows = size_report_rows(result)  # a config error leaves no file
    totals = [0] * 6
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SIZE_REPORT_COLUMNS)
        for row in rows:
            writer.writerow(row)
            bits, table = row[4:]
            for i, add in enumerate((bits, table, 1, bits < table, bits > 1, 1 < bits < table)):
                totals[i] += add
    cfg, agents = result.config, len(result.agent_primes)
    crossover = steady_state_crossover(cfg.max_value, agents)
    return (len(result.initial_topology.nodes), cfg.max_value, cfg.n_max or agents, *totals,
            "never" if crossover is None else crossover)


def write_verdicts_json(verdicts: Sequence[CheckVerdict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump([v._asdict() for v in verdicts], fh, indent=2, sort_keys=True)
        fh.write("\n")
