import json
import math
import sys
from itertools import islice

import pytest

from primetime.analysis import (CheckVerdict, ceil_log2, check_hop_equations,
                                check_diameter_completion, compare_encodings,
                                size_report_rows, steady_state_crossover,
                                steady_state_growth, tabular_bits,
                                write_size_report_csv, write_verdicts_json)
from primetime.errors import ConfigError
from primetime.graph import hop_sets
from primetime.primes import encode, first_primes
from primetime.protocol import Variant
from primetime.sim import SimConfig, TopologySpec, iter_rounds, run


def config(**kw):
    defaults = dict(topology=TopologySpec(family="path", n=4), max_value=4, seed=0)
    defaults.update(kw)
    return SimConfig(**defaults)


def test_ceil_log2():
    assert [ceil_log2(x) for x in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]


def test_compare_encodings_empty():
    assert compare_encodings([], n_max=8, max_value=4) == (1, 4)


def test_compare_encodings_small_table():
    pairs = [(2, 1), (3, 1), (5, 1), (7, 1)]
    product_bits, table_bits = compare_encodings(pairs, n_max=4, max_value=1)
    assert product_bits == 8  # product 210
    assert table_bits == 15  # 4 * (2 + 1) + 3


def test_compare_encodings_reverses_at_scale():
    # 20 primes raised to 8: the product encoding loses
    pairs = [(p, 8) for p in first_primes(20)]
    product_bits, table_bits = compare_encodings(pairs, n_max=20, max_value=8)
    assert product_bits > table_bits


def test_check_diameter_completion_passes_on_clean_runs():
    for family, n in (("path", 4), ("complete", 3), ("cycle", 7)):
        result = run(config(topology=TopologySpec(family=family, n=n)))
        verdict = check_diameter_completion(result)
        assert verdict.passed, verdict.detail


def test_check_diameter_completion_fails_on_truncated_run():
    result = run(config())
    result.traces = result.traces[:result.diameter - 1]
    result.completion_round = None
    verdict = check_diameter_completion(result)
    assert not verdict.passed
    assert verdict.counterexample is not None


def test_check_diameter_completion_rejects_lossy_runs():
    result = run(config(loss_q=0.2))
    with pytest.raises(ConfigError, match="loss-free"):
        check_diameter_completion(result)


def test_check_hop_equations_both_variants():
    for family, n in (("path", 5), ("cycle", 6), ("complete", 4), ("star", 7)):
        for variant in Variant:
            result = run(config(topology=TopologySpec(family=family, n=n),
                                variant=variant))
            verdict = check_hop_equations(result)
            assert verdict.passed, verdict.detail


def test_check_hop_equations_catches_corruption():
    result = run(config())
    result.traces[1].messages[2] *= 2  # tamper with one traced message
    verdict = check_hop_equations(result)
    assert not verdict.passed
    assert verdict.counterexample["agent"] == 2


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("spec, seed", [
    (TopologySpec(family="path", n=1), 0),
    (TopologySpec(family="path", n=6), 1),
    (TopologySpec(family="cycle", n=7), 2),
    (TopologySpec(family="star", n=5), 3),
    (TopologySpec(family="complete", n=4), 4),
    (TopologySpec(family="random_connected", n=9, p=0.3), 5),
    (TopologySpec(family="random_connected", n=12, p=0.2), 6),
], ids=["path1", "path6", "cycle7", "star5", "complete4", "random9", "random12"])
def test_check_hop_equations_matches_the_hop_set_definition(spec, seed, variant):
    # Every message is rebuilt from graph.hop_sets alone, not taken from the
    # engine: the inclusive k-hop set for the full variant, the exclusive one
    # for the incremental variant.
    cfg = config(topology=spec, variant=variant, seed=seed)
    result = run(cfg)
    topology = result.initial_topology
    pair_of = {i: (result.agent_primes[i], result.agent_values[i]) for i in topology.nodes}
    side = 1 if variant is Variant.INCREMENTAL else 0
    for trace in result.traces:
        # a carried round shares its dict with the round before: replace it
        trace.messages = {
            i: encode((pair_of[j] for j in hop_sets(topology, i, trace.round_index)[side]),
                      max_exponent=cfg.max_value + 1)
            for i in topology.nodes}
    verdict = check_hop_equations(result)
    assert verdict.passed, verdict.detail
    assert verdict.detail == f"{result.rounds_run * len(topology.nodes)} messages match"

    last = result.traces[-1]
    agent = max(topology.nodes)
    last.messages = {**last.messages, agent: 2 * last.messages[agent]}
    verdict = check_hop_equations(result)
    assert not verdict.passed
    assert verdict.counterexample["agent"] == agent
    assert verdict.counterexample["round"] == last.round_index


@pytest.mark.parametrize("consumed", [4, None], ids=["part_way", "drained"])
def test_check_hop_equations_rejects_a_consumed_stream(consumed):
    # a loss-free 8-node path runs 10 rounds of 8 messages
    rounds = iter_rounds(config(topology=TopologySpec(family="path", n=8)))
    for _ in islice(rounds, consumed):
        pass
    with pytest.raises(ValueError, match="already consumed"):
        check_hop_equations(rounds)


def test_hop_equations_counterexample_past_the_str_digit_limit():
    # ten agents at value M = 1000 send 33 kbit tables from round 1 on
    result = run(config(topology=TopologySpec(family="complete", n=10), max_value=1000,
                        data_values=(1000,) * 10))
    result.traces[1].messages[2] *= 2
    verdict = check_hop_equations(result)
    assert not verdict.passed
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = str(result.traces[1].messages[2])
    finally:
        sys.set_int_max_str_digits(limit)
    assert verdict.counterexample["message"] == expected


def test_steady_state_growth_values():
    rows = steady_state_growth([1, 4, 10], max_value=1)
    assert rows[0].message_bits == 2  # message value 2
    assert rows[1].message_bits == 8  # 2*3*5*7 = 210
    assert rows[2].exceeds_factorial is True  # 6469693230 > 3628800
    product = 1
    for p in first_primes(10):
        product *= p
    assert product == 6469693230
    assert product > math.factorial(10)


def test_steady_state_growth_flags_none_when_not_unit_range():
    rows = steady_state_growth([5], max_value=3)
    assert rows[0].exceeds_factorial is None


def test_steady_state_growth_matches_a_fresh_product_per_n():
    # The running product and factorial, taken in any order of n, give the
    # sizes of the full table built afresh for each n.
    for m in (1, 2, 8):
        rows = steady_state_growth([30, 1, 7, 2, 30], max_value=m)
        assert [row.n for row in rows] == [30, 1, 7, 2, 30]
        for row in rows:
            pairs = [(p, m) for p in first_primes(row.n)]
            assert (row.message_bits, row.tabular_bits) == compare_encodings(
                pairs, n_max=row.n, max_value=m)
            primorial = encode(pairs, max_exponent=m + 1)
            assert row.exceeds_factorial == (primorial > math.factorial(row.n)
                                             if m == 1 else None)


def test_steady_state_crossover():
    # M = 1: a tie at n = 1, and the product is never longer up to n = 300.
    [row] = steady_state_growth([1], max_value=1)
    assert row.message_bits == row.tabular_bits == 2
    assert steady_state_crossover(1, 300) is None
    # M = 2: the product loses at n = 8, yet wins again at n = 9, the one
    # point past the crossover where it does; n = 1 and n = 7 are ties.
    assert steady_state_crossover(2, 300) == 8
    assert steady_state_crossover(2, 7) is None
    rows = steady_state_growth(range(1, 301), max_value=2)
    assert [r.n for r in rows if r.message_bits < r.tabular_bits] == [2, 3, 4, 5, 6, 9]
    # M = 3, 4 and 8: the product is longer from n = 1 on.
    for m in (3, 4, 8):
        assert steady_state_crossover(m, 300) == 1


def test_size_report_round_zero_rows():
    result = run(config(topology=TopologySpec(family="path", n=3),
                        data_values=(1, 1, 1), max_value=1, n_max=3))
    rows = [r for r in size_report_rows(result) if r[2] == 0]
    # every round-0 message holds one pair: id+value field plus count header
    assert all(r[5] == tabular_bits(1, 3, 1) for r in rows)
    assert [r[4] for r in rows] == [2, 2, 3]  # bits of 2, 3, 5


def test_report_files_written(tmp_path):
    result = run(config())
    write_size_report_csv(result, tmp_path / "sizes.csv")
    head = (tmp_path / "sizes.csv").read_text().splitlines()[0]
    assert head == "n,M,round,agent,primetime_bits,tabular_bits"
    verdicts = [check_diameter_completion(result), CheckVerdict("demo", False, "x", {"agent": 1})]
    write_verdicts_json(verdicts, tmp_path / "verdicts.json")
    loaded = json.loads((tmp_path / "verdicts.json").read_text())
    assert loaded[0]["passed"] is True
    assert loaded[1]["counterexample"] == {"agent": 1}
