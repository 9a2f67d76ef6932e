import copy
import math
from time import perf_counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import primetime.protocol as protocol
from primetime.errors import CodecError, ProtocolError
from primetime.primes import _factorize, decode, factorization
from primetime.protocol import (AgentState, Variant, form_message, join, leave,
                                receive_message)
from primetime.sim import JoinEvent, SimConfig, TopologySpec, iter_rounds, run


def fresh(variant=Variant.PRIMETIME, prime=7, value=2, max_value=4):
    return AgentState(agent_id=1, own_prime=prime, own_value=value, variant=variant,
                      max_value=max_value)


def test_initial_message_is_own_pair_power():
    for variant in Variant:
        agent = fresh(variant)
        assert form_message(agent) == 49  # 7**2


def test_incremental_goes_quiet_without_news():
    agent = fresh(Variant.INCREMENTAL)
    assert form_message(agent) == 49
    assert form_message(agent) == 1  # nothing learned since last send


def test_incremental_without_news_encodes_nothing(monkeypatch):
    agent = fresh(Variant.INCREMENTAL)
    form_message(agent)

    def encode(*args, **kwargs):
        raise AssertionError("encode called without news")

    monkeypatch.setattr(protocol, "encode", encode)
    assert form_message(agent) == 1


def test_primetime_repeats_whole_table():
    agent = fresh(Variant.PRIMETIME, prime=2, value=1)
    receive_message(agent, 9)
    assert form_message(agent) == 18  # 2 * 9
    assert form_message(agent) == 18


def test_receive_adds_new_pairs():
    agent = fresh(prime=2, value=1)
    receive_message(agent, 625)  # 5**4
    assert agent.table == {2: 1, 5: 4}


def test_receive_empty_message_is_noop():
    agent = fresh(prime=2, value=1)
    before = dict(agent.table)
    assert receive_message(agent, 1) == []
    assert agent.table == before


def test_receive_is_idempotent_for_data():
    agent = fresh(prime=2, value=1)
    message = 3**2 * 5**4
    receive_message(agent, message)
    snapshot = dict(agent.table)
    receive_message(agent, message)
    assert agent.table == snapshot


def test_receive_conflicting_value_raises():
    agent = fresh(prime=2, value=1, max_value=4)
    receive_message(agent, 5**4)
    with pytest.raises(ProtocolError, match="conflicting value"):
        receive_message(agent, 5**3)


@pytest.mark.parametrize("variant", Variant)
def test_receive_hostile_message_changes_nothing(variant):
    # non-smooth and too long to print in decimal
    agent = fresh(variant, prime=2, value=1, max_value=4)
    receive_message(agent, 5**4)
    before = copy.deepcopy(agent)
    with pytest.raises(CodecError, match="unfactorable residue"):
        receive_message(agent, 1_000_003**1000)
    assert agent == before


@pytest.mark.parametrize("variant", Variant)
def test_receive_huge_exponent_is_cheap_and_changes_nothing(variant):
    # full variant: the cofactor 2**99_999 is within no bound, so the whole
    # message is decoded; incremental: the whole message is decoded at once
    agent = fresh(variant, prime=2, value=1, max_value=4)
    receive_message(agent, 5**4)
    before = copy.deepcopy(agent)
    start = perf_counter()
    with pytest.raises(CodecError) as raised:
        receive_message(agent, 2**100_000)
    assert perf_counter() - start < 0.5
    assert str(raised.value) == "exponent out of range: 2**100000 exceeds bound 9"
    assert agent == before


def test_agents_that_differ_only_in_unsent_or_departed_are_unequal():
    # The "changes nothing" tests compare a deep copy with ==, which must
    # see every attribute, the ones derived from the table included.
    sent, unsent = fresh(Variant.INCREMENTAL), fresh(Variant.INCREMENTAL)
    form_message(sent)
    assert (sent.table, sent.product) == (unsent.table, unsent.product)
    assert sent.pending != unsent.pending
    assert sent != unsent
    stayed, saw_leave = fresh(), fresh()
    saw_leave.departed.add(11)
    assert saw_leave != stayed
    assert copy.deepcopy(saw_leave) == saw_leave
    assert repr(stayed).startswith("AgentState(agent_id=1, own_prime=7, own_value=2, ")


def test_receive_decodes_a_non_smooth_message_once(monkeypatch):
    # a stored pair, a new pair and a residue past the cap
    agent = fresh(prime=2, value=1, max_value=4)
    message = 2 * 5**4 * 1_000_003**1000
    with pytest.raises(CodecError) as expected:
        decode(message, max_exponent=9)
    decoded = []

    def counting_decode(m, max_exponent):
        decoded.append(m)
        return factorization(m, max_exponent)

    monkeypatch.setattr(protocol, "decode", counting_decode)
    with pytest.raises(CodecError) as raised:
        receive_message(agent, message)
    assert decoded == [message // 2]
    assert str(raised.value) == str(expected.value)
    assert agent.table == {2: 1}


def test_incremental_reception_decodes_the_whole_message_once(monkeypatch):
    # a stored pair, a new pair and a goodbye: the broadcast is decoded as sent
    agent = fresh(Variant.INCREMENTAL, prime=2, value=1, max_value=4)
    message = 2 * 5**4 * 11**5
    decoded = []

    def counting_decode(m, max_exponent):
        decoded.append(m)
        return factorization(m, max_exponent)

    def news(*args):
        raise AssertionError("_news called under the incremental variant")

    monkeypatch.setattr(protocol, "decode", counting_decode)
    monkeypatch.setattr(protocol, "_news", news)
    assert receive_message(agent, message) == ["goodbye for unknown prime 11"]
    assert decoded == [message]
    assert agent.table == {2: 1, 5: 4}
    assert agent.pending == 2 * 5**4
    assert agent.relay == 11**5


@pytest.mark.parametrize("family, n", [("star", 9), ("path", 8), ("complete", 6)])
def test_incremental_run_factors_each_broadcast_once(family, n):
    _factorize.cache_clear()
    result = run(SimConfig(topology=TopologySpec(family=family, n=n),
                           variant=Variant.INCREMENTAL, max_value=4, seed=0))
    sent = {t.messages[sender] for t in result.traces for sender, _ in t.delivered} - {1}
    assert _factorize.cache_info().misses == len(sent)


def test_merges_decode_through_the_protocol_hook(monkeypatch):
    # the benchmark's tracer counts decoded pairs by replacing protocol.decode
    calls = []
    inside_news = []

    def counting_decode(message, max_exponent):
        calls.append(message)
        return factorization(message, max_exponent)

    def counting_news(state, message, max_exponent):
        inside_news.append(len(calls))
        news = real_news(state, message, max_exponent)
        inside_news[-1] = len(calls) - inside_news[-1]
        return news

    real_news = protocol._news
    monkeypatch.setattr(protocol, "decode", counting_decode)
    monkeypatch.setattr(protocol, "_news", counting_news)
    topology = TopologySpec(family="random_connected", n=12, p=0.3)
    rounds = iter_rounds(SimConfig(topology=topology, variant=Variant.INCREMENTAL,
                                   loss_q=0.3, seed=5, drop_schedule=((1, 2, 1),),
                                   events=(JoinEvent(6, 13, (1, 5), 2),)))
    expected = 0
    for trace in rounds:
        expected += sum(1 for sender, _ in trace.delivered if trace.messages[sender] != 1)
        assert len(calls) == expected  # one decode per delivered non-1 message
    assert expected > 0 and inside_news == []

    calls.clear()
    for _ in iter_rounds(SimConfig(topology=topology, seed=5)):
        pass
    # loss-free, the full variant decodes only cofactors, all inside _news
    assert calls and sum(inside_news) == len(calls)


@pytest.mark.parametrize("message", [1, 2**3 * 5 * 7**2, 3**4 * 11**5, 2 * 13**9 * 17])
def test_merge_decode_reads_as_decode_to_the_tracer(message):
    # the benchmark's tracer reads len() and values() of every merge decode;
    # 11**5 and 13**9 are goodbyes under max_value 4
    pairs = decode(message, max_exponent=9)
    assert len(protocol.decode(message, max_exponent=9)) == len(pairs)
    assert tuple(protocol.decode(message, max_exponent=9).values()) == tuple(pairs.values())


@pytest.mark.parametrize("variant", Variant)
def test_decode_hands_out_the_callers_own_dict(variant):
    # the merges read the cached factorization that decode copies
    message = 2**3 * 5 * 7**2
    _factorize.cache_clear()
    pairs = decode(message, max_exponent=9)
    pairs[2] = 1
    pairs[11] = 1
    del pairs[5]
    assert decode(message, max_exponent=9) == {2: 3, 5: 1, 7: 2}
    agent = fresh(variant, prime=3, value=1, max_value=4)  # merges with bound 2 * 4 + 1
    assert receive_message(agent, message) == []
    assert agent.table == {3: 1, 2: 3, 5: 1, 7: 2}
    assert _factorize.cache_info().misses == 1


def test_receive_sentinel_removes_and_queues_relay():
    agent = fresh(prime=2, value=1, max_value=4)
    receive_message(agent, 5**4)
    assert receive_message(agent, 5**5) == []  # sentinel exponent M+1
    assert agent.table == {2: 1}
    assert agent.relay == 5**5
    assert agent.departed == {5}


def test_sentinel_relayed_exactly_once_then_ignored():
    agent = fresh(prime=2, value=1, max_value=4)
    receive_message(agent, 5**4)
    receive_message(agent, 5**5)
    message = form_message(agent)
    assert message == 2 * 5**5
    assert form_message(agent) == 2  # relay cleared after one send
    receive_message(agent, 5**5)  # duplicate goodbye ignored
    assert agent.relay == 1


def test_goodbye_before_the_send_takes_the_pair_out_of_the_news():
    # the pair 5**4 is learned and leaves before it goes out; the next
    # incremental message relays the goodbye alone, not 5**(4 + 5)
    agent = fresh(Variant.INCREMENTAL, prime=2, value=1, max_value=4)
    form_message(agent)
    receive_message(agent, 3 * 5**4)
    receive_message(agent, 5**5)
    assert agent.pending == 3
    assert form_message(agent) == 3 * 5**5


def test_late_data_for_departed_prime_is_discarded():
    agent = fresh(prime=2, value=1, max_value=4)
    receive_message(agent, 5**4)
    receive_message(agent, 5**5)
    receive_message(agent, 5**4)  # straggler still flooding the old pair
    assert 5 not in agent.table


def test_combined_leave_exponent_processed_as_sentinel():
    # a leaver's final message stacks its datum on the sentinel: 5**(4+5)
    agent = fresh(prime=2, value=1, max_value=4)
    receive_message(agent, 5**4)
    receive_message(agent, 5**9)
    assert 5 not in agent.table
    assert agent.relay == 5**5


def test_sentinel_for_unknown_prime_logged_and_relayed():
    agent = fresh(prime=2, value=1, max_value=4)
    notes = receive_message(agent, 5**5)
    assert notes == ["goodbye for unknown prime 5"]
    assert agent.relay == 5**5
    notes = receive_message(agent, 5**5)
    assert notes == []  # already departed


def test_goodbye_for_own_prime_is_refused():
    agent = fresh(prime=7, value=2, max_value=4)
    notes = receive_message(agent, 7**5)
    assert notes == ["goodbye for own prime 7 ignored"]
    assert agent.table[7] == 2


def sponsor_holding(own_prime, *others, variant=Variant.PRIMETIME, max_value=4):
    """An agent whose table holds its own pair and `others`, at value 1."""
    agent = fresh(variant, prime=own_prime, value=1, max_value=max_value)
    receive_message(agent, math.prod(others))
    return agent


def test_join_picks_smallest_unused_prime():
    for variant in Variant:  # the joiner runs its sponsor's variant and bound
        state = join(9, sponsor_holding(2, 3, 5, 7, variant=variant, max_value=6), value=2)
        assert state.own_prime == 11
        assert state.table == {11: 2}
        assert state.pending == 11**2
        assert (state.variant, state.max_value) == (variant, 6)


def test_join_fills_gaps():
    state = join(9, sponsor_holding(2, 5, 7), value=1)
    assert state.own_prime == 3


def test_join_sponsor_knowing_only_itself():
    state = join(9, sponsor_holding(3), value=1)
    assert state.own_prime == 2


def test_join_skips_primes_the_sponsor_saw_leave():
    sponsor = sponsor_holding(2, 5)
    receive_message(sponsor, 3**5 * 5**5)  # goodbyes: 3 never stored, 5 stored
    assert sponsor.table == {2: 1}
    state = join(9, sponsor, value=1)
    assert state.own_prime == 7


def test_leave_primetime_stacks_sentinel_on_own_pair():
    agent = fresh(Variant.PRIMETIME, prime=2, value=1, max_value=4)
    assert leave(agent) == 64  # 2**1 * 2**5
    assert not agent.active


def test_leave_incremental_steady_state_is_pure_sentinel():
    agent = fresh(Variant.INCREMENTAL, prime=3, value=2, max_value=4)
    form_message(agent)  # flush the initial pair; steady state next
    assert leave(agent) == 243  # 3**5


def test_leave_twice_raises():
    agent = fresh()
    leave(agent)
    with pytest.raises(ProtocolError, match="already departed"):
        leave(agent)
    assert receive_message(agent, 625) == []  # departed agents discard input


def test_own_value_must_be_in_range():
    with pytest.raises(ProtocolError):
        AgentState(agent_id=1, own_prime=7, own_value=5, variant=Variant.PRIMETIME,
                   max_value=4)


@given(st.lists(st.tuples(st.integers(1, 20), st.integers(1, 4)), max_size=12))
@settings(max_examples=60)
def test_duplicate_data_messages_idempotent(pairs):
    from primetime.primes import encode, nth_prime

    table = {}
    for idx, value in pairs:
        table.setdefault(nth_prime(idx + 1), value)
    agent = fresh(prime=2, value=1, max_value=4)
    table.pop(2, None)
    message = encode(table.items(), max_exponent=5)
    receive_message(agent, message)
    once = dict(agent.table)
    receive_message(agent, message)
    assert agent.table == once
