"""The engine keeps `AgentState`'s invariants under churn and loss.

Small open runs with Bernoulli loss, forced drops, joins and leaves, the
joins made as early as round 0, before any table is complete, so that a
joiner can take a prime in use and its pair can conflict with the holder's.
After every round each agent the run has held, departed ones included, is
checked against the invariants `receive_message` relies on.
"""
from hypothesis import given, settings
import hypothesis.strategies as st

from primetime.primes import encode
from primetime.protocol import Variant
from primetime.sim import JoinEvent, LeaveEvent, SimConfig, TopologySpec, iter_rounds


@st.composite
def open_runs(draw):
    """A path, cycle or random connected graph on at most 10 nodes, either
    variant, up to three events at distinct rounds, each valid when it
    comes (a join attaches to present agents, a leave never takes the
    last), and forced drops on the links the run can have."""
    family = draw(st.sampled_from(["path", "cycle", "random_connected"]))
    n = draw(st.integers(3 if family == "cycle" else 2, 10))
    p = draw(st.sampled_from([0.3, 0.6])) if family == "random_connected" else None
    seed = draw(st.integers(0, 99))
    spec = TopologySpec(family=family, n=n, p=p)
    max_value = draw(st.integers(1, 4))
    topology = spec.build(seed)
    present, links = list(topology.nodes), list(topology.directed_edges)
    events, next_id = [], n + 1
    for k in sorted(draw(st.sets(st.integers(0, 12), max_size=3))):
        if len(present) > 1 and draw(st.booleans()):
            leaver = draw(st.sampled_from(present))
            present.remove(leaver)
            events.append(LeaveEvent(k, leaver))
        else:
            attach = draw(st.lists(st.sampled_from(present), min_size=1, max_size=2,
                                   unique=True))
            events.append(JoinEvent(k, next_id, tuple(attach),
                                    draw(st.integers(1, max_value))))
            links += [e for a in attach for e in ((a, next_id), (next_id, a))]
            present.append(next_id)
            next_id += 1
    drops = draw(st.lists(st.tuples(st.integers(0, 15), st.sampled_from(links)),
                          max_size=8))
    return SimConfig(topology=spec, variant=draw(st.sampled_from(list(Variant))),
                     max_value=max_value, loss_q=draw(st.sampled_from([0.0, 0.2, 0.4])),
                     drop_schedule=tuple((k, u, v) for k, (u, v) in drops),
                     events=tuple(events), max_rounds=30, seed=seed)


def assert_state_invariants(state):
    assert all(1 <= value <= state.max_value for value in state.table.values())
    assert state.table.keys().isdisjoint(state.departed)
    assert state.product == encode(state.table.items(), max_exponent=state.max_value)
    assert state.product % state.pending == 0


def sponsor_holds_every_pair(rounds, join):
    """Whether the sponsor of `join` holds every present agent's pair, read
    before the join's round admits the joiner; None without a join."""
    if join is None:
        return None
    agents = rounds._agents
    required = {(agents[i].own_prime, agents[i].own_value) for i in rounds.topology.nodes}
    return agents[min(join.attach_to)].table.items() >= required


@settings(max_examples=200, deadline=None)
@given(open_runs())
def test_every_round_keeps_the_agent_invariants(cfg):
    rounds = iter_rounds(cfg)
    agents = rounds._agents
    joins = {e.round_index: e for e in cfg.events if isinstance(e, JoinEvent)}
    sponsor_complete = sponsor_holds_every_pair(rounds, joins.get(0))
    for trace in rounds:
        k = trace.round_index
        for state in agents.values():
            assert_state_invariants(state)
        join = joins.get(k)
        if join is not None:
            prime = agents[join.node].own_prime
            holders = [i for i in rounds.topology.nodes
                       if i != join.node and agents[i].own_prime == prime]
            if sponsor_complete:
                assert not holders
            if holders:
                assert (f"round {k}: agent {join.node} joined with prime {prime}, "
                        f"already held by agent {holders[0]}") in trace.anomalies
        sponsor_complete = sponsor_holds_every_pair(rounds, joins.get(k + 1))
