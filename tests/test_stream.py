"""The CLI commands consume the round stream and keep no list of rounds.

The reference writers and oracles below are the whole-run ones the CLI used
before it streamed, fed from `run(cfg)`; the streaming CLI must write the
same bytes.
"""
import csv
import dataclasses
import gc
import io
import pathlib
import tracemalloc

import pytest

from primetime import cli
from primetime.analysis import (CheckVerdict, check_diameter_completion, tabular_bits,
                                write_verdicts_json)
from primetime.cli import SWEEP_COLUMNS, main
from primetime.config import load_config, load_sweep
from primetime.errors import PrimeTimeError
from primetime.graph import bfs_distances
from primetime.primes import decimal, decode, encode
from primetime.protocol import Variant
from primetime.sim import TRACE_COLUMNS, TopologySpec, iter_rounds, run

REPO = pathlib.Path(__file__).resolve().parents[1]

# Loss, forced drops, a leave, a join, and agent 3 rejoining under its old
# id with a new prime.  The sweep's n = 3 points fail mid-run: the join
# attaches to node 4, which a 3-cycle lacks.
CHURN = """
[topology]
family = cycle
n = 8

[loss]
mode = bernoulli
q = 0.15
drops = 1:1>2 2:2>3 5:4>5

[events]
schedule =
    3 leave 3
    9 join 9 2,4 2
    15 join 3 4 1
    21 leave 6

[sim]
seed = 4
max_rounds = {max_rounds}

[sweep]
n = 3 8
q = 0 0.15
variant = primetime incremental
seeds = 0..2
"""

LOSSY = """
[topology]
family = random_connected
n = 12
p = 0.3

[protocol]
max_value = 6

[loss]
mode = bernoulli
q = 0.3
drops = 0:1>2 0:2>1

[sim]
seed = 2
"""

CONFIGS = {
    "churn": CHURN.format(max_rounds=60),
    # stops before the last join, so the held-back rounds go out at the end
    "churn_cut_before_last_join": CHURN.format(max_rounds=12),
    "lossy_without_events": LOSSY,
}


def reference_trace_csv(result) -> bytes:
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(TRACE_COLUMNS)
    all_agents = sorted(result.agent_primes)
    for trace in result.traces:
        for agent in all_agents:
            prime = result.agent_primes[agent]
            if agent in trace.messages:
                message = trace.messages[agent]
                writer.writerow((trace.round_index, agent, prime, message,
                                 message.bit_length(), trace.table_sizes[agent], 1))
            else:
                writer.writerow((trace.round_index, agent, prime, 0, 0, 0, 0))
    return buffer.getvalue().encode()


def reference_summary(result) -> str:
    completion = result.completion_round
    return (f"completion_round = {completion if completion is not None else 'never'}\n"
            f"diameter = {result.diameter}\n"
            f"peak_message_bits = {result.peak_message_bits}\n"
            f"total_bits_transmitted = {result.total_bits_transmitted}\n")


def reference_size_report(result) -> bytes:
    cfg = result.config
    n_max = cfg.n_max if cfg.n_max is not None else len(result.agent_primes)
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(("n", "M", "round", "agent", "primetime_bits", "tabular_bits"))
    for trace in result.traces:
        for agent in sorted(trace.messages):
            message = trace.messages[agent]
            pairs = decode(message, max_exponent=2 * cfg.max_value + 1)
            writer.writerow((len(result.initial_topology.nodes), cfg.max_value,
                             trace.round_index, agent, message.bit_length(),
                             tabular_bits(len(pairs), n_max, cfg.max_value)))
    return buffer.getvalue().encode()


def reference_verdicts(result, path) -> None:
    d, observed = result.diameter, result.completion_round
    if observed != d:
        diameter = CheckVerdict("diameter_completion", False,
                                detail=f"completion_round {observed} != diameter {d}",
                                counterexample={"completion_round": observed, "diameter": d})
    elif d >= 1 and result.traces[d - 1].complete:
        diameter = CheckVerdict("diameter_completion", False,
                                detail=f"all tables already complete at round {d - 1}",
                                counterexample={"round": d - 1})
    else:
        diameter = CheckVerdict("diameter_completion", True,
                                detail=f"complete at d={d}, incomplete before")
    topology = result.initial_topology
    distances = {i: bfs_distances(topology, i) for i in topology.nodes}
    incremental = result.config.variant is Variant.INCREMENTAL
    hop = CheckVerdict("hop_equations", True, detail=(
        f"{sum(len(t.messages) for t in result.traces)} messages match"))
    for trace in result.traces:
        k = trace.round_index
        for agent, message in trace.messages.items():
            members = [j for j, h in distances[agent].items()
                       if (h == k if incremental else h <= k)]
            expected = encode(((result.agent_primes[j], result.agent_values[j])
                               for j in members), max_exponent=result.config.max_value + 1)
            if message != expected and hop.passed:
                hop = CheckVerdict(
                    "hop_equations", False,
                    detail=f"agent {agent} round {k}: message {decimal(message)} "
                           f"!= oracle {decimal(expected)}",
                    counterexample={"agent": agent, "round": k, "message": decimal(message),
                                    "expected": decimal(expected)})
    write_verdicts_json([diameter, hop], path)


def reference_sweep(path) -> tuple[bytes, int]:
    base, grid = load_sweep(path)
    rows, anomalies = [], 0
    for n, m, q, variant, seed in grid.points():
        spec = TopologySpec(family=base.topology.family, n=n, p=base.topology.p)
        cfg = dataclasses.replace(base, topology=spec, max_value=m, loss_q=q,
                                  variant=variant, seed=seed)
        try:
            result = run(cfg)
        except PrimeTimeError as exc:
            rows.append((n, m, q, variant.value, seed, "", "", "", 0, "", "", str(exc)))
            continue
        completion = result.completion_round
        rows.append((n, m, q, variant.value, seed, result.diameter, len(result.traces),
                     completion if completion is not None else "never",
                     1 if completion is not None else 0,
                     result.peak_message_bits, result.total_bits_transmitted, ""))
        anomalies += result.anomaly_count
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(SWEEP_COLUMNS)
    writer.writerows(rows)
    return buffer.getvalue().encode(), anomalies


@pytest.mark.parametrize("variant", [v.value for v in Variant])
@pytest.mark.parametrize("name", CONFIGS)
def test_run_and_compare_size_match_the_whole_run_writers(tmp_path, capsys, name, variant):
    path = tmp_path / "cfg.ini"
    path.write_text(CONFIGS[name])
    result = run(dataclasses.replace(load_config(path), variant=Variant(variant)))
    out = tmp_path / "out"
    argv = ["--config", str(path), "--out", str(out), "--variant", variant, "--strict"]
    strict_code = 3 if result.anomaly_count else 0

    assert main(["run", *argv]) == strict_code
    assert (out / "trace.csv").read_bytes() == reference_trace_csv(result)
    assert (out / "summary.txt").read_text() == reference_summary(result)
    assert capsys.readouterr().out == reference_summary(result)

    assert main(["compare-size", *argv]) == strict_code
    assert (out / "size_report.csv").read_bytes() == reference_size_report(result)


CYCLE = """
[topology]
family = cycle
n = 9

[protocol]
max_value = 3

[sim]
seed = 5
"""


@pytest.mark.parametrize("variant", [v.value for v in Variant])
@pytest.mark.parametrize("name", ["path8", "cycle9"])
def test_check_streams_and_matches_the_whole_run_oracles(tmp_path, capsys, monkeypatch,
                                                        name, variant):
    path = REPO / "configs" / "path8.ini"
    if name == "cycle9":
        path = tmp_path / "cfg.ini"
        path.write_text(CYCLE)
    result = run(dataclasses.replace(load_config(path), variant=Variant(variant)))
    reference_verdicts(result, tmp_path / "expected.json")

    def keeps_every_round(cfg):
        raise AssertionError("check kept the whole run")

    monkeypatch.setattr(cli, "run", keeps_every_round)
    out = tmp_path / "out"
    assert main(["check", "--config", str(path), "--out", str(out), "--variant", variant]) == 0
    assert (out / "verdicts.json").read_bytes() == (tmp_path / "expected.json").read_bytes()


def test_a_kept_run_replays_its_rounds(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(CONFIGS["churn"])
    result = run(load_config(path))
    first, second = list(result), list(result)
    assert len(first) == result.rounds_run
    assert all(a is b is c for a, b, c in zip(first, second, result.traces, strict=True))


def test_diameter_check_drains_a_stream_consumed_part_way():
    rounds = iter_rounds(load_config(REPO / "configs" / "path8.ini"))
    stream = iter(rounds)
    for _ in range(2):
        next(stream)
    assert check_diameter_completion(rounds).passed
    assert next(stream, None) is None
    assert rounds.rounds_run == rounds.diameter + 3  # through d + extra_rounds - 1


def test_sweep_matches_the_whole_run_rows(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(CONFIGS["churn"])
    expected, anomalies = reference_sweep(path)
    # the n = 3 points fail mid-run
    assert b"events: join of agent 9 at round 9 attaches to absent agent 4" in expected
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(path), "--out", str(out), "--strict"])
    assert code == (3 if anomalies else 0)
    assert (out / "sweep.csv").read_bytes() == expected


def test_run_facts_are_known_before_round_0_and_final_after_the_last(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(CONFIGS["churn"])
    cfg = load_config(path)
    result = run(cfg)
    rounds = iter_rounds(cfg)
    assert (rounds.diameter, rounds.initial_topology) == (result.diameter,
                                                         result.initial_topology)
    assert rounds.rounds_run == 0
    for trace in rounds:
        assert rounds.rounds_run == trace.round_index + 1
    assert rounds.rounds_run == len(result.traces)
    assert rounds.agent_primes == result.agent_primes
    assert rounds.agent_values == result.agent_values
    assert rounds.topology == result.topology
    assert rounds.completion_round == result.completion_round
    assert rounds.anomaly_count == result.anomaly_count
    # the running totals agree with the rounds they were kept from
    bits = [m.bit_length() for t in result.traces for m in t.messages.values()]
    assert (result.peak_message_bits, result.total_bits_transmitted, result.anomaly_count) == (
        max(bits), sum(bits), sum(len(t.anomalies) for t in result.traces))


LONG_RUN = """
[topology]
family = path
n = 32

[sim]
max_rounds = 1000
extra_rounds = {extra}

[sweep]
seeds = 0
"""


@pytest.mark.parametrize("command", ["run", "sweep", "check", "compare-size"])
def test_cli_memory_does_not_grow_with_the_round_count(tmp_path, capsys, command):
    # Keeping every round's trace let these peaks grow from 20 extra rounds
    # to 400: `run` from 0.5 to 3.5 MB, `check` from 0.4 to 2.1 MB and
    # `compare-size` from 0.8 to 4.3 MB.
    configs = {}
    for extra in (20, 400):
        configs[extra] = tmp_path / f"extra{extra}.ini"
        configs[extra].write_text(LONG_RUN.format(extra=extra))

    def peak(extra, out):
        gc.collect()  # the previous command's cyclic garbage, such as its parser
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        assert main([command, "--config", str(configs[extra]), "--out", str(tmp_path / out)]) == 0
        return tracemalloc.get_traced_memory()[1] - held

    tracemalloc.start()
    try:
        peak(20, "warm")  # fills the codec's caches
        short, long = peak(20, "short"), peak(400, "long")
    finally:
        tracemalloc.stop()
    assert long - short < 100_000, (short, long)
