"""Differential tests: the incremental protocol state and the round loop
against a reference.

The reference below is the direct reading of the protocol: every message
is the encoding of the whole table (full variant) or of the table minus the
snapshot taken at the last transmission (incremental variant), and every
reception decodes the whole message and merges it pair by pair.  The
merge is applied to a copy and committed only if it succeeds, so a
rejected message changes nothing.  The package's running products
(`product`, `pending` and `relay`) and gcd-cofactor merge must agree with it
on every observable.

`ref_run` drives the reference agents through a naive synchronous round
loop, and the engine's loop, with its memos and quiet-round carry, must
agree with it on every round, agent and total.
"""
import copy
import math
import random
import sys
from dataclasses import dataclass, field

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from primetime import primes
from primetime.errors import CodecError, ConfigError, ProtocolError
from primetime.graph import eccentricity, generate
from primetime.primes import decode, encode, nth_prime, smallest_unused_prime
from primetime.protocol import (AgentState, Variant, form_message, leave,
                                receive_message)
from primetime.sim import JoinEvent, LeaveEvent, SimConfig, TopologySpec, iter_rounds

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


def ref_join(new_id, sponsor, value):
    prime = smallest_unused_prime(sponsor.table.keys() | sponsor.departed)
    return ref_make(new_id, prime, value, sponsor.variant, sponsor.max_value)


def outcome(fn, *args):
    """(result, None) or (None, (exception type, text))."""
    try:
        return fn(*args), None
    except (ProtocolError, CodecError, ConfigError) as exc:
        return None, (type(exc), str(exc))


def assert_same_state(state, ref):
    assert state.table == ref.table
    assert state.departed == ref.departed
    assert state.relay == math.prod(p**(ref.max_value + 1) for p in ref.goodbye_relay)
    assert state.active == ref.active
    assert state.product == encode(state.table.items(), max_exponent=state.max_value)
    assert state.pending == math.prod(p**x for p, x in ref.table.items()
                                      if p not in ref.snapshot)


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
    state = AgentState(agent_id=1, own_prime=own_prime, own_value=own_value,
                       variant=variant, max_value=max_value)
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
    state = AgentState(agent_id=1, own_prime=2, own_value=1, variant=variant, max_value=4)
    with pytest.raises(CodecError, match=r"2\*\*10 exceeds bound 9"):
        receive_message(state, 2**10 * 5**10)
    assert state.table == {2: 1}


def test_rejected_message_changes_nothing():
    state = AgentState(agent_id=1, own_prime=2, own_value=1, variant=Variant.INCREMENTAL,
                       max_value=4)
    receive_message(state, 7**2)
    form_message(state)
    receive_message(state, 11**3 * 13**9)  # one new pair, one goodbye
    before = copy.deepcopy(state)
    with pytest.raises(ProtocolError, match="conflicting value for prime 7"):
        receive_message(state, 3 * 5**2 * 7**3)
    assert state.table == {2: 1, 7: 2, 11: 3} == before.table
    assert state.product == before.product == 2 * 7**2 * 11**3
    assert state.pending == before.pending == 11**3
    assert state.departed == before.departed == {13}
    assert state.relay == before.relay == 13**5


def ref_connected(adjacency):
    seen, todo = set(), [min(adjacency)]
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(adjacency[node])
    return len(seen) == len(adjacency)


def ref_run(cfg):
    """The round loop read naively, over the reference agents: no memo, no
    carry and no running total, every table copied at every snapshot.

    Returns what `observed` returns for the engine: each round's RoundTrace
    fields, the primes and values of every agent present so far, and the
    five totals, derived from the rounds at the end.
    """
    cfg.validate()
    topology = cfg.topology.build(cfg.seed)
    adjacency = {u: set(topology.adjacency[u]) for u in topology.nodes}
    if cfg.data_values is not None:
        values = cfg.data_values
    else:
        data_rng = random.Random(f"{cfg.seed}:data")
        values = [data_rng.randint(1, cfg.max_value) for _ in topology.nodes]
    agents = {u: ref_make(u, nth_prime(index), value, cfg.variant, cfg.max_value)
              for index, (u, value) in enumerate(zip(topology.nodes, values), 1)}
    max_rounds = cfg.max_rounds or 4 * max(eccentricity(topology, u) for u in adjacency) + 16
    events = {e.round_index: e for e in cfg.events}
    last_event = max(events, default=0)
    loss_rng = random.Random(f"{cfg.seed}:loss")
    rounds, last_round = [], None
    for k in range(max_rounds):
        anomalies, leaver, event = [], None, events.get(k)
        if isinstance(event, JoinEvent):
            if event.node in adjacency:
                raise ConfigError(f"events: join of present agent {event.node} at round {k}")
            for a in event.attach_to:
                if a not in adjacency:
                    raise ConfigError(f"events: join of agent {event.node} at round {k} "
                                      f"attaches to absent agent {a}")
            joiner = ref_join(event.node, agents[min(event.attach_to)], event.value)
            holders = [i for i in sorted(adjacency) if agents[i].own_prime == joiner.own_prime]
            if holders:
                anomalies.append(f"round {k}: agent {event.node} joined with prime "
                                 f"{joiner.own_prime}, already held by agent {holders[0]}")
            agents[event.node] = joiner
            adjacency[event.node] = set(event.attach_to)
            for a in event.attach_to:
                adjacency[a].add(event.node)
        elif isinstance(event, LeaveEvent):
            if event.node not in adjacency:
                raise ConfigError(f"events: leave of absent agent {event.node} at round {k}")
            if len(adjacency) == 1:
                raise ConfigError(f"events: leave of the last agent {event.node} at round {k}")
            leaver = event.node

        present = sorted(adjacency)
        tables = {i: dict(agents[i].table) for i in present}
        required = {(agents[i].own_prime, agents[i].own_value) for i in present}
        complete = all(required <= set(table.items()) for table in tables.values())
        relaying = any(agents[i].goodbye_relay for i in present)
        messages = {i: (ref_leave if i == leaver else ref_form)(agents[i]) for i in present}

        edges = tuple(sorted((u, v) for u in present for v in adjacency[u]))
        forced = {(u, v) for r, u, v in cfg.drop_schedule if r == k}
        delivered = [e for e in edges if e not in forced]
        if cfg.loss_q > 0:
            delivered = [e for e in delivered if loss_rng.random() >= cfg.loss_q]
        for receiver in present:
            for sender in [s for s, r in delivered if r == receiver]:
                try:
                    notes = ref_receive(agents[receiver], messages[sender])
                except (ProtocolError, CodecError) as exc:
                    anomalies.append(f"round {k}: agent {receiver} rejected "
                                     f"message from {sender}: {exc}")
                    continue
                anomalies += [f"round {k}: agent {receiver} <- agent {sender}: {note}"
                              for note in notes]

        if leaver is not None:
            for v in adjacency.pop(leaver):
                adjacency[v].discard(leaver)
            if not ref_connected(adjacency):
                anomalies.append(f"round {k}: leave of agent {leaver} disconnected the graph")

        products = {i: encode(table.items(), max_exponent=cfg.max_value)
                    for i, table in tables.items()}
        sizes = {i: len(table) for i, table in tables.items()}
        dropped = [e for e in edges if e not in delivered]
        rounds.append((k, products, sizes, complete, messages, edges, delivered, dropped,
                       anomalies))
        if last_round is None and complete and k > last_event and not relaying:
            last_round = k + cfg.extra_rounds - 1
        if k == last_round:
            break

    bits = [m.bit_length() for r in rounds for m in r[4].values()]
    completed = [r[0] for r in rounds if r[3]]
    totals = (len(rounds), completed[0] if completed else None,
              max(bits, default=0), sum(bits), sum(len(r[8]) for r in rounds))
    return (rounds, {i: a.own_prime for i, a in agents.items()},
            {i: a.own_value for i, a in agents.items()}, totals)


def observed(cfg):
    """Everything a run of the engine shows: every RoundTrace field by round,
    the primes and values of every agent present so far, and the five totals."""
    stream = iter_rounds(cfg)
    rounds = [(t.round_index, t.products, t.table_sizes, t.complete, t.messages, t.edges,
               t.delivered, t.dropped, t.anomalies) for t in stream]
    totals = (stream.rounds_run, stream.completion_round, stream.peak_message_bits,
              stream.total_bits_transmitted, stream.anomaly_count)
    return rounds, stream.agent_primes, stream.agent_values, totals


def assert_matches_reference(cfg):
    assert outcome(observed, cfg) == outcome(ref_run, cfg)


@st.composite
def small_configs(draw):
    family, n = draw(st.sampled_from([("path", 1), ("path", 4), ("cycle", 5),
                                      ("star", 5), ("complete", 4), ("path", 6)]))
    topology = generate(family, n)
    directed = sorted((u, v) for u in topology.nodes for v in topology.adjacency[u])
    drops = draw(st.lists(st.tuples(st.integers(0, 6), st.sampled_from(directed)),
                          max_size=4)) if directed else []
    events = []
    join_round = draw(st.none() | st.integers(0, 10))
    attach = draw(st.lists(st.sampled_from(topology.nodes), min_size=1, max_size=2,
                           unique=True))
    if join_round is not None:
        events.append(JoinEvent(join_round, n + 1, tuple(attach), draw(st.integers(1, 4))))
    # the leaver is never an attach node, so a later join still finds them
    leavers = [v for v in topology.nodes if v not in attach]
    leave_round = draw(st.none() | st.integers(0, 12).filter(lambda r: r != join_round))
    if leavers and leave_round is not None:
        events.append(LeaveEvent(leave_round, draw(st.sampled_from(leavers))))
    return SimConfig(topology=TopologySpec(family=family, n=n),
                     variant=draw(st.sampled_from(list(Variant))),
                     loss_q=draw(st.sampled_from([0.0, 0.2, 0.5])),
                     drop_schedule=tuple((r, u, v) for r, (u, v) in drops),
                     events=tuple(events), max_rounds=30,
                     extra_rounds=draw(st.integers(1, 3)), seed=draw(st.integers(0, 99)))


@st.composite
def churn_configs(draw):
    """Small runs with loss, forced drops, a leave, the leaver's id joining
    again, a fresh join, and a sponsor starved of news until its joiner
    arrives, so that the joiner can take a prime in use with another value
    and its messages conflict."""
    family, n = draw(st.sampled_from([("path", 4), ("cycle", 5), ("cycle", 6),
                                      ("star", 5), ("complete", 4)]))
    topology = generate(family, n)
    directed = sorted((u, v) for u in topology.nodes for v in topology.adjacency[u])
    drops = draw(st.lists(st.tuples(st.integers(0, 8), st.sampled_from(directed)),
                          max_size=6))
    rounds = iter(draw(st.permutations(range(12))))
    events = []
    leaver = draw(st.sampled_from(topology.nodes))
    stay = [v for v in topology.nodes if v != leaver]
    if draw(st.booleans()):
        leave_round = next(rounds)
        events.append(LeaveEvent(leave_round, leaver))
        if draw(st.booleans()):  # the same id joins again
            events.append(JoinEvent(leave_round + 1 + draw(st.integers(0, 6)), leaver,
                                    (draw(st.sampled_from(stay)),), draw(st.integers(1, 4))))
    join_round = next(rounds)
    if draw(st.booleans()) and all(e.round_index != join_round for e in events):
        sponsor = draw(st.sampled_from(stay))
        events.append(JoinEvent(join_round, n + 1, (sponsor,), draw(st.integers(1, 4))))
        if draw(st.booleans()):
            drops += [(r, (u, sponsor)) for r in range(join_round)
                      for u in topology.adjacency[sponsor]]
    return SimConfig(topology=TopologySpec(family=family, n=n),
                     variant=draw(st.sampled_from(list(Variant))),
                     loss_q=draw(st.sampled_from([0.0, 0.3])),
                     drop_schedule=tuple((r, u, v) for r, (u, v) in drops),
                     events=tuple(events), max_rounds=30,
                     extra_rounds=draw(st.integers(1, 3)), seed=draw(st.integers(0, 99)))


CYCLE6 = TopologySpec(family="cycle", n=6)


@settings(max_examples=200, deadline=None)
@given(churn_configs())
# Incremental runs fall quiet (every message 1) by round 5 and carry their
# rounds forward until a join (the joiner's news has to flood) or a leave.
@example(SimConfig(topology=CYCLE6, variant=Variant.INCREMENTAL,
                   events=(JoinEvent(10, 7, (1,), 2),), max_rounds=30))
@example(SimConfig(topology=CYCLE6, variant=Variant.INCREMENTAL, loss_q=0.3, seed=3,
                   events=(LeaveEvent(10, 4),), max_rounds=30))
# Agent 1 leaves and its id joins again a round later.  A merge memo kept
# across the rejoin skips a message the new agent never merged.
@example(SimConfig(topology=TopologySpec(family="star", n=5), loss_q=0.3,
                   events=(LeaveEvent(0, 1), JoinEvent(1, 1, (2,), 1)),
                   max_rounds=30, extra_rounds=1))
def test_churn_runs_match_the_reference_loop(cfg):
    assert_matches_reference(cfg)


@settings(max_examples=150, deadline=None)
@given(small_configs())
# The leaver is present at round 4 and retires after it, so the required
# pairs shrink at round 5, a round with no event of its own.  Round 4 sent a
# leave message, so it is not quiet and round 5 must not be carried: a
# carried round 5 would keep round 4's snapshot and completion, and the run
# would never complete.
@example(SimConfig(topology=CYCLE6, loss_q=0.4, seed=718, events=(LeaveEvent(4, 6),),
                   max_rounds=30))
def test_small_runs_match_the_reference_loop(cfg):
    assert_matches_reference(cfg)


CHURN = (LeaveEvent(10, 4), JoinEvent(20, 13, (3, 5), 3), LeaveEvent(30, 9))
CYCLE12 = TopologySpec(family="cycle", n=12)
# The sponsor, agent 3, hears nothing before the join, so the joiner takes
# agent 1's prime 2 with another value and agents holding 2 reject it.
STARVED = SimConfig(topology=CYCLE12, data_values=(1, 2, 3, 4) * 3, max_rounds=50,
                    drop_schedule=tuple((r, src, 3) for r in range(20) for src in (2, 4)),
                    events=CHURN)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("cfg", [
    *(SimConfig(topology=CYCLE12, loss_q=0.2, seed=seed, max_rounds=50, events=CHURN)
      for seed in range(4)),
    STARVED,
], ids=["lossy_seed0", "lossy_seed1", "lossy_seed2", "lossy_seed3", "starved_sponsor"])
def test_lossy_churn_runs_match_the_reference_loop(cfg, variant):
    assert_matches_reference(cfg._replace(variant=variant))


@pytest.mark.parametrize("variant", list(Variant))
def test_a_starved_sponsor_hands_out_a_prime_in_use(variant):
    rounds, primes, _, _ = observed(STARVED._replace(variant=variant))
    assert primes[13] == 2
    assert any("rejected" in note for *_, notes in rounds for note in notes)


@pytest.mark.parametrize("topology, event", [
    (TopologySpec(family="path", n=3), JoinEvent(2, 3, (1,), 1)),
    (TopologySpec(family="path", n=3), JoinEvent(2, 9, (1, 77), 1)),
    (TopologySpec(family="path", n=3), LeaveEvent(2, 9)),
    (TopologySpec(family="path", n=1), LeaveEvent(2, 1)),
], ids=["join_present", "attach_absent", "leave_absent", "leave_last"])
def test_misfit_events_raise_as_in_the_reference_loop(topology, event):
    cfg = SimConfig(topology=topology, events=(event,))
    result, error = outcome(observed, cfg)
    assert result is None and error[0] is ConfigError
    assert outcome(ref_run, cfg) == (None, error)


def test_lossy_incremental_churn_never_builds_a_decode_dict(monkeypatch):
    # the merges read the cached factorization; primes.decode copies it.  Every
    # binding of it inside the package refuses; this module's, which the
    # reference loop decodes with, is left alone.
    def refuse(*args, **kwargs):
        raise AssertionError("primes.decode called")

    copying = primes.decode
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "primetime":
            for attr, value in list(vars(module).items()):
                if value is copying:
                    monkeypatch.setattr(module, attr, refuse)
    cfg = SimConfig(topology=CYCLE12, variant=Variant.INCREMENTAL, loss_q=0.2, seed=1,
                    max_rounds=50, events=CHURN)
    seen = observed(cfg)
    assert 13 in seen[1] and any(dropped for *_, dropped, _ in seen[0])  # a join, and loss
    assert seen == ref_run(cfg)
