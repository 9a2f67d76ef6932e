"""Differential tests: the incremental protocol state against a reference.

The reference below is the direct reading of the protocol: every message
is the encoding of the whole table (full variant) or of the table minus the
snapshot taken at the last transmission (incremental variant), and every
reception decodes the whole message and merges it pair by pair.  The
merge is applied to a copy and committed only if it succeeds, so a
rejected message changes nothing.  The package's running product, unsent
log and gcd-cofactor merge must agree with it on every observable.
"""
import copy
import math
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import primetime.sim as sim
from primetime.errors import CodecError, ProtocolError
from primetime.primes import decode, encode, nth_prime, smallest_unused_prime
from primetime.protocol import (Variant, form_message, leave, make_agent,
                                receive_message)
from primetime.sim import JoinEvent, LeaveEvent, SimConfig, TopologySpec, run

UNIVERSE = [nth_prime(i) for i in range(1, 9)]  # 2 .. 19
NON_SMOOTH = 1_000_003  # a prime beyond the PRIME_CAP-th prime


@dataclass
class RefAgent:
    agent_id: int
    own_prime: int
    own_value: int
    variant: Variant
    max_value: int
    table: dict = field(default_factory=dict)
    snapshot: dict = field(default_factory=dict)
    goodbye_relay: set = field(default_factory=set)
    departed: set = field(default_factory=set)
    active: bool = True

    def __post_init__(self):
        self.table[self.own_prime] = self.own_value

    @property
    def product(self) -> int:
        """The table's encoding, which the engine records each round."""
        return encode(self.table.items(), max_exponent=self.max_value)


def ref_form(ref: RefAgent) -> int:
    if not ref.active:
        raise ProtocolError(f"agent {ref.agent_id} already departed")
    if ref.variant is Variant.PRIMETIME:
        base = dict(ref.table)
    else:
        base = {p: x for p, x in ref.table.items() if p not in ref.snapshot}
    sentinel = ref.max_value + 1
    pairs = list(base.items()) + [(p, sentinel) for p in sorted(ref.goodbye_relay)]
    message = encode(pairs, max_exponent=sentinel)
    ref.snapshot = dict(ref.table)
    ref.goodbye_relay = set()
    return message


def ref_receive(ref: RefAgent, message: int) -> list:
    if not ref.active:
        return []
    pairs = decode(message, max_exponent=2 * ref.max_value + 1)
    work = copy.deepcopy(ref)
    notes = []
    for prime in sorted(pairs):
        exponent = pairs[prime]
        if exponent <= work.max_value:
            if prime in work.departed:
                continue
            stored = work.table.get(prime)
            if stored is None:
                work.table[prime] = exponent
            elif stored != exponent:
                raise ProtocolError(
                    f"conflicting value for prime {prime}: stored {stored}, received {exponent}"
                )
        else:
            if prime == work.own_prime:
                notes.append(f"goodbye for own prime {prime} ignored")
                continue
            if prime in work.departed:
                continue
            if prime in work.table:
                del work.table[prime]
                work.snapshot.pop(prime, None)
            else:
                notes.append(f"goodbye for unknown prime {prime}")
            work.departed.add(prime)
            work.goodbye_relay.add(prime)
    ref.__dict__.update(work.__dict__)
    return notes


def ref_leave(ref: RefAgent) -> int:
    if not ref.active:
        raise ProtocolError(f"agent {ref.agent_id} already departed")
    message = ref_form(ref) * ref.own_prime**(ref.max_value + 1)
    ref.active = False
    return message


def ref_make(agent_id, prime, value, variant, max_value):
    if not 1 <= value <= max_value:
        raise ProtocolError(f"agent {agent_id}: value {value} outside [1, {max_value}]")
    return RefAgent(agent_id, prime, value, variant, max_value)


def ref_join(new_id, sponsor, value, variant, max_value):
    prime = smallest_unused_prime(sponsor.table.keys() | sponsor.departed)
    return ref_make(new_id, prime, value, variant, max_value)


def outcome(fn, *args):
    """(result, None) or (None, (exception type, text))."""
    try:
        return fn(*args), None
    except (ProtocolError, CodecError) as exc:
        return None, (type(exc), str(exc))


def assert_same_state(state, ref):
    assert state.table == ref.table
    assert state.departed == ref.departed
    assert state.goodbye_relay == ref.goodbye_relay
    assert state.active == ref.active
    assert state.product == encode(state.table.items(), max_exponent=state.max_value)
    assert state.unsent == {p: x for p, x in ref.table.items() if p not in ref.snapshot}


@st.composite
def scenarios(draw):
    """An agent's parameters and a random sequence of operations on it."""
    max_value = draw(st.integers(1, 4))
    own_prime = draw(st.sampled_from(UNIVERSE))
    own_value = draw(st.integers(1, max_value))
    variant = draw(st.sampled_from(list(Variant)))
    bound = 2 * max_value + 1
    data = st.dictionaries(st.sampled_from(UNIVERSE), st.integers(1, max_value), max_size=5)
    mixed = st.dictionaries(st.sampled_from(UNIVERSE), st.integers(1, bound + 2), max_size=4)
    op = st.one_of(
        st.tuples(st.just("data"), data),  # new, repeated and conflicting data
        st.tuples(st.just("echo"), mixed),  # the receiver's own table times extra factors
        st.tuples(st.just("goodbye"), st.sampled_from(UNIVERSE),
                  st.integers(max_value + 1, bound), data),
        st.tuples(st.just("own_goodbye"), st.integers(max_value + 1, bound)),
        st.tuples(st.just("raw"), mixed, st.booleans()),  # over-bound or non-smooth
        st.tuples(st.just("form")),
        st.tuples(st.just("leave")),
    )
    ops = draw(st.lists(op, min_size=1, max_size=25))
    return max_value, own_prime, own_value, variant, ops


def power_product(pairs: dict) -> int:
    return math.prod(prime**exponent for prime, exponent in pairs.items())


@given(scenarios())
@settings(max_examples=300, deadline=None)
def test_fast_path_matches_reference(scenario):
    max_value, own_prime, own_value, variant, ops = scenario
    state = make_agent(1, own_prime, own_value, variant, max_value)
    ref = ref_make(1, own_prime, own_value, variant, max_value)
    assert_same_state(state, ref)
    for op in ops:
        kind = op[0]
        if kind == "form":
            assert outcome(form_message, state) == outcome(ref_form, ref)
        elif kind == "leave":
            assert outcome(leave, state) == outcome(ref_leave, ref)
        else:
            if kind == "data":
                message = power_product(op[1])
            elif kind == "echo":
                message = power_product(ref.table) * power_product(op[1])
            elif kind == "goodbye":
                _, prime, exponent, extra = op
                extra = {p: x for p, x in extra.items() if p != prime}
                message = prime**exponent * power_product(extra)
            elif kind == "own_goodbye":
                message = power_product(ref.table) * own_prime**op[1]
            else:
                _, pairs, non_smooth = op
                message = power_product(pairs) * (NON_SMOOTH if non_smooth else 1)
            assert outcome(receive_message, state, message) == outcome(ref_receive, ref, message)
        assert_same_state(state, ref)


@pytest.mark.parametrize("variant", Variant)
def test_first_over_bound_exponent_on_stored_prime_is_reported(variant):
    # 2 is stored, so under the full variant the cofactor holds 2**9, within
    # the bound, and 5**10; the error must still name the first over-bound
    # prime of the message.
    state = make_agent(1, 2, 1, variant, max_value=4)
    with pytest.raises(CodecError, match=r"2\*\*10 exceeds bound 9"):
        receive_message(state, 2**10 * 5**10)
    assert state.table == {2: 1}


def test_rejected_message_changes_nothing():
    state = make_agent(1, 2, 1, Variant.INCREMENTAL, max_value=4)
    receive_message(state, 7**2)
    form_message(state)
    receive_message(state, 11**3 * 13**9)  # one new pair, one goodbye
    before = copy.deepcopy(state)
    with pytest.raises(ProtocolError, match="conflicting value for prime 7"):
        receive_message(state, 3 * 5**2 * 7**3)
    assert state.table == {2: 1, 7: 2, 11: 3} == before.table
    assert state.product == before.product == 2 * 7**2 * 11**3
    assert state.unsent == before.unsent == {11: 3}
    assert state.departed == before.departed == {13}
    assert state.goodbye_relay == before.goodbye_relay == {13}


def run_with_reference(cfg, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(sim, "make_agent", ref_make)
        patch.setattr(sim, "join", ref_join)
        patch.setattr(sim, "form_message", ref_form)
        patch.setattr(sim, "receive_message", ref_receive)
        patch.setattr(sim, "leave", ref_leave)
        return run(cfg)


CHURN = (LeaveEvent(10, 4), JoinEvent(20, 13, (3, 5), 3), LeaveEvent(30, 9))


def observed(cfg, runner):
    """Everything a run shows, or the exception type and text it raised."""
    result, error = outcome(runner, cfg)
    if error is not None:
        return error
    rounds = [(t.tables, t.messages, t.delivered, t.anomalies) for t in result.traces]
    return rounds, result.agent_primes, result.completion_round


@pytest.mark.parametrize("variant", list(Variant))
def test_run_with_loss_and_churn_matches_reference(variant, monkeypatch):
    cycle = TopologySpec(family="cycle", n=12)
    configs = [SimConfig(topology=cycle, variant=variant, loss_q=0.2, seed=seed,
                         max_rounds=50, events=CHURN) for seed in range(4)]
    # The sponsor, agent 3, hears nothing before the join, so the joiner takes
    # agent 1's prime 2 with another value and agents holding 2 reject it.
    starved = tuple((r, src, 3) for r in range(20) for src in (2, 4))
    configs.append(SimConfig(topology=cycle, variant=variant, data_values=(1, 2, 3, 4) * 3,
                             drop_schedule=starved, max_rounds=50, events=CHURN))
    for cfg in configs:
        assert observed(cfg, run) == observed(
            cfg, lambda c: run_with_reference(c, monkeypatch))
    rounds, primes, _ = observed(configs[-1], run)
    assert primes[13] == 2
    assert any("rejected" in note for _, _, _, notes in rounds for note in notes)
