import csv
import dataclasses
import io
import itertools
import random
import sys
import tracemalloc

import pytest

import primetime.sim as sim
from primetime.errors import ConfigError
from primetime.graph import diameter, eccentricity, generate, hop_sets
from primetime.primes import decode
from primetime.protocol import Variant, form_message
from primetime.sim import (TRACE_COLUMNS, JoinEvent, LeaveEvent, SimConfig, TopologySpec,
                           apply_loss, iter_rounds, run, summary_text,
                           with_final_primes, write_summary, write_trace_csv)


def trace_rows(rounds):
    """Row oracle of trace.csv: (round, agent, prime, message, bits,
    table_size, active) per round and agent ever present, in agent order.
    An absent agent has active=0 and zeroed message fields; every row names
    the agent's final prime."""
    traces = with_final_primes(rounds)
    primes = rounds.agent_primes
    for trace in traces:
        for agent in sorted(primes):
            message = trace.messages.get(agent)
            if message is not None:
                yield (trace.round_index, agent, primes[agent], message, message.bit_length(),
                       trace.table_sizes[agent], 1)
            else:
                yield (trace.round_index, agent, primes[agent], 0, 0, 0, 0)


def csv_text(rows):
    """What `csv.writer` makes of the header and `rows`."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(TRACE_COLUMNS)
    writer.writerows(rows)
    return text.getvalue()


def config(**kw):
    defaults = dict(topology=TopologySpec(family="path", n=3), max_value=4, seed=0)
    defaults.update(kw)
    return SimConfig(**defaults)


def test_path3_completes_at_diameter():
    for variant in Variant:
        result = run(config(variant=variant))
        assert result.diameter == 2
        assert result.completion_round == 2


def test_complete_graph_completes_in_one_round():
    result = run(config(topology=TopologySpec(family="complete", n=5)))
    assert result.completion_round == 1


def test_star_completes_at_two():
    result = run(config(topology=TopologySpec(family="star", n=6)))
    assert result.completion_round == 2  # star diameter, leaf to leaf


def test_single_node_incremental_sends_one_from_round_one():
    spec = TopologySpec(family="path", n=1)
    result = run(config(topology=spec, variant=Variant.INCREMENTAL, data_values=(3,)))
    assert result.diameter == 0
    assert result.completion_round == 0
    assert result.traces[0].messages[1] == 2**3
    assert all(t.messages[1] == 1 for t in result.traces[1:])


def test_traces_extend_to_diameter_plus_extra():
    result = run(config(extra_rounds=3))
    assert [t.round_index for t in result.traces] == [0, 1, 2, 3, 4]  # d + extra


def test_tables_track_inclusive_hop_sets():
    # closed graph, no loss: table(i, k) is exactly the inclusive k-hop pair set
    for family, n in (("path", 6), ("cycle", 7), ("complete", 5), ("star", 6)):
        topology = generate(family, n)
        for variant in Variant:
            result = run(config(topology=TopologySpec(family=family, n=n),
                                variant=variant))
            for trace in result.traces:
                for agent, table in trace.tables.items():
                    inclusive, _ = hop_sets(topology, agent, trace.round_index)
                    expected = {result.agent_primes[j]: result.agent_values[j]
                                for j in inclusive}
                    assert table == expected


def test_run_determinism():
    cfg = config(topology=TopologySpec(family="random_connected", n=12, p=0.3),
                 loss_q=0.25, seed=11)
    a, b = run(cfg), run(cfg)
    assert len(a.traces) == len(b.traces)
    for ta, tb in zip(a.traces, b.traces):
        assert ta.messages == tb.messages
        assert ta.tables == tb.tables
        assert ta.delivered == tb.delivered
        assert ta.dropped == tb.dropped


def test_trace_files_byte_identical(tmp_path):
    cfg = config(loss_q=0.2, seed=3)
    for name in ("a", "b"):
        rounds = iter_rounds(cfg)
        write_trace_csv(rounds, tmp_path / f"{name}.csv")
        write_summary(rounds, tmp_path / f"{name}.txt")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_summary_fields_and_order():
    result = run(config(data_values=(1, 2, 3)))
    lines = summary_text(result).splitlines()
    assert [line.split(" = ")[0] for line in lines] == [
        "completion_round", "diameter", "peak_message_bits", "total_bits_transmitted"]
    assert lines[0] == "completion_round = 2"
    assert lines[1] == "diameter = 2"


def test_trace_row_format():
    rows = trace_rows(iter_rounds(config(data_values=(1, 2, 3))))
    # round 0: each agent sends its own pair, table size 1
    first = [r for r in rows if r[0] == 0]
    assert first == [
        (0, 1, 2, 2, 2, 1, 1),
        (0, 2, 3, 9, 4, 1, 1),
        (0, 3, 5, 125, 7, 1, 1),
    ]


def test_trace_csv_writes_messages_past_the_str_digit_limit(tmp_path):
    # ten agents at value M = 1000 make a 33 kbit table, about 9,800 digits,
    # past the 4,300 that str() converts by default
    cfg = config(topology=TopologySpec(family="complete", n=10), max_value=1000,
                 data_values=(1000,) * 10)
    assert run(cfg).peak_message_bits > 4300 * 3.33
    write_trace_csv(iter_rounds(cfg), tmp_path / "trace.csv")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = csv_text(trace_rows(iter_rounds(cfg)))
    finally:
        sys.set_int_max_str_digits(limit)
    assert (tmp_path / "trace.csv").read_bytes() == expected.encode()


@pytest.mark.parametrize("cfg", [
    # full variant: neighbours reach the same table a round apart
    config(topology=TopologySpec(family="path", n=7)),
    # incremental, lossy: quiet stretches end at a join and at a leave; the
    # leaver's id comes back with a new join
    config(topology=TopologySpec(family="cycle", n=6), variant=Variant.INCREMENTAL,
           loss_q=0.3, seed=4, max_rounds=60,
           events=(JoinEvent(10, 7, (1,), 2), LeaveEvent(25, 3), JoinEvent(40, 3, (2, 4), 1))),
    # full variant with churn and forced drops: table sizes change while the
    # message repeats
    config(topology=TopologySpec(family="cycle", n=5), loss_q=0.2, seed=2,
           drop_schedule=((1, 1, 2), (2, 2, 3)),
           events=(LeaveEvent(6, 2), JoinEvent(12, 9, (1, 3), 4))),
])
def test_trace_csv_matches_the_row_oracle(tmp_path, cfg):
    write_trace_csv(iter_rounds(cfg), tmp_path / "trace.csv")
    expected = csv_text(trace_rows(iter_rounds(cfg)))
    assert (tmp_path / "trace.csv").read_bytes() == expected.encode()


def test_trace_csv_repeats_rows_only_when_both_dicts_are_shared(tmp_path):
    # A carried round shares both the messages and the table_sizes dicts.  The
    # engine never shares one alone, so these rounds are made by hand: one
    # messages dict, three sizes for agent 1.
    rounds = run(config(topology=TopologySpec(family="path", n=2), data_values=(1, 2)))
    first = rounds.traces[0]
    rounds.traces = rounds._rounds = [
        dataclasses.replace(first, round_index=k, table_sizes={1: k + 1, 2: 1})
        for k in range(3)]
    write_trace_csv(rounds, tmp_path / "trace.csv")
    expected = csv_text(trace_rows(rounds))
    assert "\r\n2,1,2,2,2,3,1\r\n" in expected
    assert (tmp_path / "trace.csv").read_bytes() == expected.encode()


def test_snapshots_share_the_running_products():
    spec = TopologySpec(family="path", n=6)
    full = run(config(topology=spec))
    for trace in full.traces:
        assert all(trace.products[i] is trace.messages[i] for i in trace.messages)
    incremental = run(config(topology=spec, variant=Variant.INCREMENTAL))
    unchanged = 0
    for before, after in zip(incremental.traces, incremental.traces[1:]):
        for i, size in after.table_sizes.items():
            assert size == len(after.tables[i])
            if size == before.table_sizes[i]:
                assert after.products[i] is before.products[i]
                unchanged += 1
    assert unchanged > 0


def test_tables_hand_out_the_callers_own_dicts():
    # a carried round shares its products with the round before it
    result = run(config(topology=TopologySpec(family="path", n=4)))
    before, after = next((a, b) for a, b in zip(result.traces, result.traces[1:])
                         if b.products is a.products)
    table = before.tables[1]
    expected = dict(table)
    table[97] = 1
    del table[2]
    assert before.tables[1] is table
    assert decode(before.products[1], max_exponent=before.max_value) == expected
    assert after.tables[1] == expected


def test_run_memory_stays_small():
    # Copying every table into every round took 62 MB here.
    tracemalloc.start()
    try:
        run(config(topology=TopologySpec(family="path", n=128)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000


def test_hostile_message_is_rejected_and_logged(monkeypatch):
    # non-smooth, and too long for its residue to be printed in decimal
    hostile = 1_000_003**1000

    def form(state):
        message = form_message(state)
        return hostile if state.agent_id == 1 else message

    monkeypatch.setattr(sim, "form_message", form)
    result = run(config(max_rounds=5))
    assert result.completion_round is None
    for trace in result.traces:
        assert trace.messages[1] == hostile
        assert trace.anomalies == [
            f"round {trace.round_index}: agent 2 rejected message from 1: "
            f"unfactorable residue of {hostile.bit_length()} bits: "
            "no prime factor within cap index 10000"]


def test_message_1_is_not_passed_to_receive_message(monkeypatch):
    received = []
    receive = sim.receive_message

    def spy(state, message):
        received.append(message)
        return receive(state, message)

    monkeypatch.setattr(sim, "receive_message", spy)
    result = run(config(topology=TopologySpec(family="cycle", n=8),
                        variant=Variant.INCREMENTAL))
    assert any(m == 1 for t in result.traces for m in t.messages.values())
    assert received and 1 not in received
    assert result.completion_round == result.diameter


def test_apply_loss_zero_delivers_everything():
    edges = [(1, 2), (2, 1), (2, 3)]
    assert apply_loss(edges, 0.0, random.Random(0)) == edges


def test_apply_loss_reproducible():
    edges = [(i, j) for i in range(1, 20) for j in range(1, 20) if i != j]
    a = apply_loss(edges, 0.437, random.Random(99))
    b = apply_loss(edges, 0.437, random.Random(99))
    assert a == b
    assert len(a) < len(edges)


def test_apply_loss_empirical_rate():
    rng = random.Random(5)
    edges = [(1, 2)] * 10_000
    delivered = apply_loss(edges, 0.3, rng)
    drop_rate = 1 - len(delivered) / len(edges)
    assert abs(drop_rate - 0.3) < 0.02


def test_forced_drop_starves_incremental_but_not_primetime():
    # one lost relay kills the incremental variant on a path: pairs travel once
    base = dict(topology=TopologySpec(family="path", n=3),
                drop_schedule=((1, 2, 3),), max_rounds=30, data_values=(1, 2, 3))
    starved = run(config(variant=Variant.INCREMENTAL, **base))
    assert starved.completion_round is None
    prime_of_1 = starved.agent_primes[1]
    assert all(prime_of_1 not in t.tables[3] for t in starved.traces)
    # once every message is 1 the run is provably stuck
    assert all(m == 1 for m in starved.traces[-1].messages.values())

    flooded = run(config(variant=Variant.PRIMETIME, **base))
    assert flooded.completion_round == 3  # one round late on the damaged edge


def test_join_floods_to_everyone():
    spec = TopologySpec(family="cycle", n=6)
    join_round = 6
    for variant in Variant:
        result = run(config(topology=spec, variant=variant,
                            events=(JoinEvent(join_round, 7, (2,), 3),),
                            max_rounds=24))
        assert result.agent_primes[7] == 17  # seventh prime
        new_pair = (17, 3)
        ecc = eccentricity(generate("cycle", 6), 2)
        # present in every pre-existing table once the flood has had ecc rounds
        target = next(t for t in result.traces if t.round_index == join_round + ecc + 1)
        for agent in range(1, 7):
            assert new_pair in target.tables[agent].items()


def test_leave_removes_pair_everywhere():
    spec = TopologySpec(family="cycle", n=6)
    for variant in Variant:
        result = run(config(topology=spec, variant=variant,
                            events=(LeaveEvent(6, 4),), max_rounds=30))
        departed_prime = result.agent_primes[4]
        final = result.traces[-1]
        assert 4 not in final.tables
        for agent, table in final.tables.items():
            assert departed_prime not in table
        assert 4 not in result.topology.nodes


def test_leaver_keeps_receiving_nothing():
    # the leaver transmits its goodbye but discards the round's incoming traffic
    result = run(config(topology=TopologySpec(family="path", n=3),
                        events=(LeaveEvent(4, 3),), max_rounds=20))
    leave_trace = next(t for t in result.traces if t.round_index == 4)
    assert 3 in leave_trace.messages
    assert any(r == 3 for _, r in leave_trace.delivered)  # still addressed
    assert all(3 not in t.tables for t in result.traces if t.round_index > 4)


def test_join_after_leave_skips_the_departed_prime():
    # The sponsor, agent 1, saw agent 2 (prime 3) leave; taking 3 again would
    # starve the joiner, since every receiver discards data for a departed prime.
    spec = TopologySpec(family="cycle", n=6)
    for variant in Variant:
        result = run(config(topology=spec, variant=variant,
                            events=(LeaveEvent(5, 2), JoinEvent(20, 7, (1,), 2))))
        assert result.agent_primes[7] == 17
        final = result.traces[-1]
        assert all((17, 2) in table.items() for table in final.tables.values())
        assert final.complete == (variant is Variant.PRIMETIME)


def test_join_after_disconnecting_leave_runs_on():
    result = run(config(topology=TopologySpec(family="path", n=4),
                        events=(LeaveEvent(0, 2), JoinEvent(1, 5, (1,), 1))))
    assert result.topology.nodes == (1, 3, 4, 5)
    assert "round 0: leave of agent 2 disconnected the graph" in result.traces[0].anomalies


@pytest.mark.parametrize("seed", [1, 4, 5])
def test_join_off_steady_state_logs_prime_collision(seed):
    # Under loss the sponsor's table can miss a present agent's prime.
    result = run(config(topology=TopologySpec(family="cycle", n=12),
                        variant=Variant.INCREMENTAL, loss_q=0.1, seed=seed,
                        events=(LeaveEvent(10, 4), JoinEvent(20, 13, (3, 5), 3))))
    prime = result.agent_primes[13]
    holder = next(i for i, p in result.agent_primes.items() if p == prime and i != 13)
    assert (f"round 20: agent 13 joined with prime {prime}, already held by agent {holder}"
            in result.traces[20].anomalies)


def test_disconnecting_leave_warns():
    result = run(config(topology=TopologySpec(family="path", n=3),
                        events=(LeaveEvent(4, 2),), max_rounds=8))
    assert any("disconnected" in note for t in result.traces for note in t.anomalies)


def test_event_validation():
    with pytest.raises(ConfigError, match="one join or leave per round"):
        run(config(events=(LeaveEvent(3, 1), JoinEvent(3, 9, (2,), 1))))
    with pytest.raises(ConfigError, match="join value"):
        run(config(events=(JoinEvent(3, 9, (2,), 99),)))
    with pytest.raises(ConfigError, match="loss_q"):
        run(config(loss_q=1.0))


@pytest.mark.parametrize("event, message", [
    (JoinEvent(2, 3, (1,), 1), "events: join of present agent 3 at round 2"),
    (JoinEvent(2, 9, (1, 77), 1), "events: join of agent 9 at round 2 attaches to absent agent 77"),
])
def test_bad_join_is_a_config_error_at_its_round(event, message):
    rounds = iter(iter_rounds(config(events=(event,))))
    assert [t.round_index for t in itertools.islice(rounds, 2)] == [0, 1]
    with pytest.raises(ConfigError) as raised:
        next(rounds)
    assert str(raised.value) == message


def test_explicit_values_validated():
    with pytest.raises(ConfigError, match="data_values"):
        run(config(data_values=(1, 2)))
    with pytest.raises(ConfigError, match="data_values"):
        run(config(data_values=(1, 2, 9)))


@pytest.mark.parametrize("cfg, expected", [
    # a 1-node graph is complete at round 0, but the run settles no earlier than round 1
    (config(topology=TopologySpec(family="path", n=1)), (4, 0)),
    (config(topology=TopologySpec(family="path", n=4), extra_rounds=1), (4, 3)),
    (config(topology=TopologySpec(family="cycle", n=6),
            events=(JoinEvent(4, 7, (1,), 2), LeaveEvent(12, 3))), (19, 3)),
    (config(topology=TopologySpec(family="path", n=1),
            events=(JoinEvent(0, 2, (1,), 2),)), (4, 1)),
    (config(variant=Variant.INCREMENTAL, loss_q=0.2, drop_schedule=((1, 2, 3),),
            max_rounds=25), (25, None)),
], ids=["single_node", "extra_rounds_1", "leave_on_last_event_round", "join_at_round_0",
        "starved_to_max_rounds"])
def test_stop_rule_pins_rounds_run_and_completion(cfg, expected):
    result = run(cfg)
    assert (len(result.traces), result.completion_round) == expected


@pytest.mark.parametrize("message, note", [
    # agent 2 holds prime 3 with value 2
    (2 * 3**4, "rejected message from 1: conflicting value for prime 3: stored 2, "
               "received 4"),
    (2 * 3**5, "<- agent 1: goodbye for own prime 3 ignored"),
])
def test_a_rejected_or_noted_message_is_merged_every_round(monkeypatch, message, note):
    def form(state):
        sent = form_message(state)
        return message if state.agent_id == 1 else sent

    monkeypatch.setattr(sim, "form_message", form)
    result = run(config(data_values=(1, 2, 3), max_rounds=6, extra_rounds=4))
    assert [t.anomalies for t in result.traces] == [
        [f"round {k}: agent 2 {note}"] for k in range(6)]


def merges_nothing(trace, variant) -> bool:
    """Whether a round's messages merge nothing and would be formed again:
    incremental, every message 1; full variant, every message equal to every
    present agent's product."""
    if variant is Variant.INCREMENTAL:
        return set(trace.messages.values()) == {1}
    return len({*trace.messages.values(), *trace.products.values()}) == 1


def test_an_unchanged_message_is_merged_once(monkeypatch):
    calls = []
    receive = sim.receive_message

    def spy(state, message):
        calls.append((state.agent_id, message))
        return receive(state, message)

    monkeypatch.setattr(sim, "receive_message", spy)
    result = run(config(topology=TopologySpec(family="cycle", n=8)))
    # A round whose messages merge nothing skips its merges: on the
    # loss-free 8-cycle that is round d = 4, and the rounds after it carry it.
    changed = [(receiver, trace.messages[sender]) for trace in result.traces
               if not merges_nothing(trace, Variant.PRIMETIME)
               for sender, receiver in trace.delivered
               if trace.round_index == 0
               or trace.messages[sender] != result.traces[trace.round_index - 1].messages[sender]]
    assert sorted(calls) == sorted(changed)
    assert len(calls) == 64


def test_quiet_rounds_form_no_messages(monkeypatch):
    calls = []

    def spy(state):
        calls.append(state.agent_id)
        return form_message(state)

    monkeypatch.setattr(sim, "form_message", spy)
    events = (JoinEvent(12, 7, (1,), 2), LeaveEvent(20, 3))
    event_rounds = {e.round_index for e in events}
    for variant, carried in ((Variant.INCREMENTAL, 19), (Variant.PRIMETIME, 7)):
        cfg = config(topology=TopologySpec(family="cycle", n=6), variant=variant,
                     loss_q=0.3, seed=2, events=events, max_rounds=30, extra_rounds=30)
        formed, expected, shared = [], [], []
        previous = None
        calls.clear()
        for trace in iter_rounds(cfg):
            formed.append(len(calls))
            calls.clear()
            # Round k is formed up to and including the first round whose
            # messages merge nothing, and again from the next event on.
            k = trace.round_index
            quiet = previous is not None and merges_nothing(previous, variant)
            if quiet and k not in event_rounds:
                expected.append(0)
                shared.append((previous, trace))
            else:
                expected.append(len(trace.messages) - (k == 20))  # the leaver says goodbye
            previous = trace
        assert formed == expected, variant
        assert len(formed) == 30 and formed.count(0) == carried, variant
        for before, after in shared:
            assert after.messages is before.messages and after.products is before.products


def test_dropped_is_every_directed_edge_not_delivered():
    cfg = config(topology=TopologySpec(family="cycle", n=8), variant=Variant.INCREMENTAL,
                 loss_q=0.3, seed=5, drop_schedule=((1, 1, 2), (1, 3, 2), (6, 5, 6)),
                 events=(JoinEvent(3, 9, (1, 5), 2),), max_rounds=12, extra_rounds=12)
    rounds = iter_rounds(cfg)
    lost = 0
    for trace in rounds:
        topology = rounds.topology  # no leave, so the round's own topology
        directed = sorted((u, v) for u in topology.nodes for v in topology.adjacency[u])
        delivered = set(trace.delivered)
        assert trace.dropped == [e for e in directed if e not in delivered]
        forced = {(u, v) for r, u, v in cfg.drop_schedule if r == trace.round_index}
        assert forced <= set(trace.dropped)
        lost += len(trace.dropped) - len(forced)
    assert lost > 0
