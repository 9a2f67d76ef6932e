"""Synchronous round engine with loss, churn events, and trace recording.

Rounds run in lockstep: every active agent forms its message from its
start-of-round table, all deliveries happen against one barrier, and only
then are receptions merged.  Traces record the start-of-round tables and
the transmitted messages, so row k of a trace holds exactly the table and
message an agent had at round k.  A table is recorded as the agent's
running product, its encoding, so an unchanged table costs no copy.

The engine is one generator loop over four phases, module-level functions
that it calls through their module globals: `enter` applies the round's
join or checks its leave, `snapshot` records the tables and forms the
messages, `merge` merges what `apply_loss` delivered, and `retire` removes
the leaver.  `iter_rounds` yields each round's trace as the round ends and
keeps none, so a consumer that writes rows and keeps totals holds one round
at a time; `run` drains the stream and keeps its rounds, which iterating it
then replays.

A round costs only what changed.  `merge` skips a delivery that equals the
receiver's product, a stateless comparison, and after a quiet round the
loop carries its snapshot instead of calling `snapshot`, its one memo.
Each no-op argument is in the docstring of its phase.  The tests check
the loop against a naive reading of it, with no skip and no carry, in
`tests/test_protocol_reference.py`.

Runs are deterministic: a fixed config (including seed) reproduces the
trace byte for byte.
"""
from __future__ import annotations

import random
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterator, NamedTuple, Union

from . import graph as graphmod
from .errors import CodecError, ConfigError, GraphError, ProtocolError
from .graph import Topology
from .primes import decimal, decode, nth_prime
from .protocol import (AgentState, Variant, form_message, join, leave,
                       receive_message)


class JoinEvent(NamedTuple):
    round_index: int
    node: int
    attach_to: tuple[int, ...]
    value: int


class LeaveEvent(NamedTuple):
    round_index: int
    node: int


Event = Union[JoinEvent, LeaveEvent]


class TopologySpec(NamedTuple):
    """A named family (with n and, for random graphs, p), an edge-list file,
    or an explicit inline edge set."""
    family: str | None = None
    n: int | None = None
    p: float | None = None
    edge_file: str | None = None
    edges: tuple[tuple[int, int], ...] | None = None

    def build(self, seed: int) -> Topology:
        if self.edges is not None:
            nodes = {n for e in self.edges for n in e}
            return Topology(nodes, self.edges)
        if self.edge_file is not None:
            return graphmod.load_edge_list(self.edge_file)
        if self.family is None or self.n is None:
            raise ConfigError("topology: needs family+n, edge_file, or edges")
        graph_seed = f"{seed}:graph" if self.family == "random_connected" else None
        try:
            return graphmod.generate(self.family, self.n, self.p, graph_seed)
        except GraphError as exc:  # a family the config cannot build
            raise ConfigError(f"topology: {exc}") from exc


class SimConfig(NamedTuple):
    topology: TopologySpec
    variant: Variant = Variant.PRIMETIME
    max_value: int = 4
    data_values: tuple[int, ...] | None = None  # explicit per-node values; None = random
    loss_q: float = 0.0
    drop_schedule: tuple[tuple[int, int, int], ...] = ()  # (round, src, dst) forced drops
    events: tuple[Event, ...] = ()
    max_rounds: int | None = None  # default 4 * diameter + 16
    extra_rounds: int = 3  # rounds recorded past completion, to expose steady state
    seed: int = 0
    n_max: int | None = None  # id-field cap of the tabular size baseline, >= agent count

    def validate(self) -> None:
        if self.max_value < 1:
            raise ConfigError(f"max_value must be >= 1, got {self.max_value}")
        if not 0 <= self.loss_q < 1:
            raise ConfigError(f"loss_q must be in [0, 1), got {self.loss_q}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ConfigError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.n_max is not None and self.n_max < 1:
            raise ConfigError(f"n_max must be >= 1, got {self.n_max}")
        if self.extra_rounds < 1:
            raise ConfigError(f"extra_rounds must be >= 1, got {self.extra_rounds}")
        rounds = [e.round_index for e in self.events]
        if len(rounds) != len(set(rounds)):
            raise ConfigError("events: at most one join or leave per round")
        for e in self.events:
            if e.round_index < 0:
                raise ConfigError(f"events: negative round {e.round_index}")
            if isinstance(e, JoinEvent) and not 1 <= e.value <= self.max_value:
                raise ConfigError(
                    f"events: join value {e.value} outside [1, {self.max_value}]"
                )
        for r, _, _ in self.drop_schedule:
            if r < 0:
                raise ConfigError(f"drop_schedule: negative round {r}")


class RoundTrace:
    """Everything observable about one round, keyed by agent id.

    Start-of-round tables are kept as the agents' running products.  A
    product is an immutable int, so an agent whose table did not change
    shares one object with the previous round, and under the full variant
    with its message.  `tables` factors them on first use.

    `complete` is the completion predicate: every present agent's
    start-of-round table held every present agent's pair.  The `snapshot`
    phase evaluates it on the live tables.

    `edges` is every directed edge of the round's topology, the tuple the
    topology keeps, and `delivered` the ones that got through in the same
    order; `dropped` is the rest, derived on first use.  The phases `enter`,
    `merge` and `retire` log `anomalies`.  A carried round, one after a
    quiet round with no event of its own (see `snapshot`), shares that
    round's `products`, `table_sizes` and `messages` objects, so a consumer
    must not change them.
    """

    def __init__(self, round_index: int, products: dict[int, int],
                 table_sizes: dict[int, int], complete: bool, max_value: int,
                 messages: dict[int, int], edges: tuple[tuple[int, int], ...],
                 delivered: list[tuple[int, int]], anomalies: list[str] | None = None):
        self.round_index = round_index
        self.products = products  # start-of-round table encodings, present agents only
        self.table_sizes = table_sizes
        self.complete = complete
        self.max_value = max_value
        self.messages = messages
        self.edges = edges
        self.delivered = delivered
        self.anomalies = [] if anomalies is None else anomalies

    @cached_property
    def dropped(self) -> list[tuple[int, int]]:
        """Directed edges whose delivery was lost or forcibly dropped."""
        delivered = set(self.delivered)
        return [e for e in self.edges if e not in delivered]

    @cached_property
    def tables(self) -> dict[int, dict[int, int]]:
        """Start-of-round table snapshots prime -> value, factored from
        `products` into dicts that are the caller's own."""
        return {i: decode(product, max_exponent=self.max_value)
                for i, product in self.products.items()}

    def incoming(self, receiver: int) -> dict[int, int]:
        """Messages delivered to `receiver` this round, keyed by sender."""
        return {s: self.messages[s] for s, r in self.delivered if r == receiver}


def apply_loss(edges: list[tuple[int, int]], q: float,
               rng: random.Random) -> list[tuple[int, int]]:
    """Drop each directed delivery independently with probability q.

    Draws once per edge in the given order, so a fixed rng state yields a
    reproducible pattern; q = 0 delivers everything without consuming draws.
    """
    if q == 0:
        return list(edges)
    draw = rng.random
    return [e for e in edges if draw() >= q]


def enter(k: int, event: Event | None, topology: Topology, agents: dict[int, AgentState],
          anomalies: list[str]) -> Topology:
    """Apply round k's join, or check its leave, and return the round's
    topology.  The leaver goes in `snapshot` and `retire`."""
    if isinstance(event, JoinEvent):
        if event.node in topology.nodes:
            raise ConfigError(f"events: join of present agent {event.node} at round {k}")
        absent = next((a for a in event.attach_to if a not in topology.nodes), None)
        if absent is not None:
            raise ConfigError(f"events: join of agent {event.node} at round {k} "
                              f"attaches to absent agent {absent}")
        topology = topology.with_node_added(event.node, event.attach_to)
        state = join(event.node, agents[min(event.attach_to)], event.value)
        # A sponsor whose table is incomplete can offer a prime in use.
        holder = next((i for i in topology.nodes if i != event.node
                       and agents[i].own_prime == state.own_prime), None)
        if holder is not None:
            anomalies.append(f"round {k}: agent {event.node} joined with prime "
                             f"{state.own_prime}, already held by agent {holder}")
        agents[event.node] = state
    elif isinstance(event, LeaveEvent):
        if event.node not in topology.nodes:
            raise ConfigError(f"events: leave of absent agent {event.node} at round {k}")
        if topology.nodes == (event.node,):
            raise ConfigError(f"events: leave of the last agent {event.node} at round {k}")
    return topology


def snapshot(agents: dict[int, AgentState], present: tuple[int, ...], leaving: int | None,
             full: bool) -> tuple[dict[int, int], dict[int, int], bool, dict[int, int], bool, bool]:
    """Snapshot the present agents' tables and form their messages, the
    leaver's goodbye in place of its own.  Returns `products`,
    `table_sizes`, `complete`, `messages`, whether a goodbye relay was
    pending, and whether the round is quiet: its messages merge nothing and
    would be formed again.  An incremental round is quiet when every
    message is 1, a full-variant one when every message equals every
    present agent's product.

    A quiet round skips `merge`, and the loop carries its snapshot through
    the rounds after it up to the next event, calling this phase for none
    of them.  Merging the message 1 is a no-op, and so is merging a
    full-variant table equal to the receiver's.  A goodbye relay or a leave
    makes a full-variant message differ from its product, so neither was in
    the round; a leave message is never 1, and a pending relay makes an
    incremental message other than 1.  So no table, `product`, `relay` or,
    behind `form_message`, `pending` changed, and no agent left.  The next
    round with no event of its own is then a fixed point: no agent joins or
    leaves, so the topology and the required pairs are unchanged; its
    snapshot, completion and messages are the quiet round's, shared, and
    only its loss draws are made; and it is quiet too, with no anomaly.  The
    carry ends by itself at the next join or leave.  The full-variant clause
    needs its variant guard: an incremental agent's first message is its
    whole table, so a lone incremental agent's round 0 passes it, but its
    next message is 1, which is not formed again.
    """
    products = {i: agents[i].product for i in present}
    table_sizes = {i: len(agents[i].table) for i in present}
    required = {(agents[i].own_prime, agents[i].own_value) for i in present}
    complete = all(agents[i].table.items() >= required for i in present)
    relaying = any(agents[i].relay > 1 for i in present)
    messages = {i: leave(agents[i]) if i == leaving else form_message(agents[i])
                for i in present}
    if full:
        product = products[present[0]]
        quiet = all(m == product for m in chain(messages.values(), products.values()))
    else:
        quiet = max(messages.values()) == 1  # messages are >= 1
    return products, table_sizes, complete, messages, relaying, quiet


def merge(trace: RoundTrace, agents: dict[int, AgentState]) -> None:
    """Merge the round's deliveries, receivers in id order, and log
    rejections and notes.  `delivered` is sorted by (sender, receiver), so a
    stable sort by receiver keeps each receiver's senders in id order.

    A delivery of 1 or of the receiver's own product is skipped.  A product
    holds exactly the table's pairs, with their values and no sentinel, so
    merging it inserts, drops, relays and logs nothing, under either variant.
    """
    k, messages, anomalies = trace.round_index, trace.messages, trace.anomalies
    for sender, receiver in sorted(trace.delivered, key=itemgetter(1)):
        message = messages[sender]
        if message == 1 or message == agents[receiver].product:
            continue
        try:
            notes = receive_message(agents[receiver], message)
        except (ProtocolError, CodecError) as exc:
            anomalies.append(f"round {k}: agent {receiver} rejected "
                             f"message from {sender}: {exc}")
            continue
        for note in notes:
            anomalies.append(f"round {k}: agent {receiver} <- agent {sender}: {note}")


def retire(k: int, leaving: int, topology: Topology, anomalies: list[str]) -> Topology:
    """Remove round k's leaver and return the topology without it."""
    topology = topology.without_node(leaving)
    if not topology.is_connected():
        anomalies.append(f"round {k}: leave of agent {leaving} disconnected the graph")
    return topology


class Rounds:
    """One run as a stream of rounds: iterating it runs the engine and
    yields each round's RoundTrace as the round ends, keeping none.

    Known before round 0: `config`, `initial_topology` and `diameter`.
    Kept current as rounds end, and final once the stream is exhausted:
    `topology`, `agent_primes`/`agent_values` (every agent present so far,
    departed ones included) and the running totals `rounds_run`,
    `completion_round`, `peak_message_bits`, `total_bits_transmitted` and
    `anomaly_count`.  The engine runs once: iterating a live stream again
    resumes it.  `run` keeps the rounds in `traces`, which iterating replays.
    """
    traces: list[RoundTrace]

    def __init__(self, cfg: SimConfig):
        cfg.validate()
        self.config = cfg
        self.initial_topology = self.topology = cfg.topology.build(cfg.seed)
        self.diameter = graphmod.diameter(self.topology)

        nodes = self.topology.nodes
        if cfg.data_values is not None:
            if len(cfg.data_values) != len(nodes):
                raise ConfigError(
                    f"data_values: got {len(cfg.data_values)} values for {len(nodes)} nodes"
                )
            values = list(cfg.data_values)
        else:
            data_rng = random.Random(f"{cfg.seed}:data")
            values = [data_rng.randint(1, cfg.max_value) for _ in nodes]
        self._agents: dict[int, AgentState] = {}
        for index, (node, value) in enumerate(zip(nodes, values), 1):
            if not 1 <= value <= cfg.max_value:
                raise ConfigError(f"data_values: {value} outside [1, {cfg.max_value}]")
            self._agents[node] = AgentState(agent_id=node, own_prime=nth_prime(index),
                                            own_value=value, variant=cfg.variant,
                                            max_value=cfg.max_value)

        self.rounds_run = 0
        self.completion_round: int | None = None
        self.peak_message_bits = 0
        self.total_bits_transmitted = 0
        self.anomaly_count = 0
        self._rounds = self._run()

    @property
    def agent_primes(self) -> dict[int, int]:
        return {i: a.own_prime for i, a in self._agents.items()}

    @property
    def agent_values(self) -> dict[int, int]:
        return {i: a.own_value for i, a in self._agents.items()}

    def __iter__(self) -> Iterator[RoundTrace]:
        return iter(self._rounds)

    def _run(self) -> Iterator[RoundTrace]:
        """The round loop: `enter`, `snapshot` unless the round is carried,
        delivery under forced drops and loss, `merge` unless the snapshot is
        quiet, and `retire` on a leave.  The run settles at the first round
        s >= 1 past the last event whose snapshot is complete with no
        goodbye relay pending; it stops after round s + extra_rounds - 1, or
        at max_rounds."""
        cfg = self.config
        agents = self._agents
        max_rounds = cfg.max_rounds if cfg.max_rounds is not None else 4 * self.diameter + 16
        loss_rng = random.Random(f"{cfg.seed}:loss")
        full = cfg.variant is Variant.PRIMETIME

        events_by_round = {e.round_index: e for e in cfg.events}
        last_event_round = max(events_by_round, default=0)
        forced_drops: dict[int, set[tuple[int, int]]] = {}
        for r, src, dst in cfg.drop_schedule:
            forced_drops.setdefault(r, set()).add((src, dst))

        quiet = False  # whether the last snapshot was quiet, see `snapshot`
        last_round: int | None = None
        for k in range(max_rounds):
            anomalies: list[str] = []
            event = events_by_round.get(k)
            leaving = event.node if isinstance(event, LeaveEvent) else None
            self.topology = enter(k, event, self.topology, agents, anomalies)
            if not (quiet and event is None):
                products, table_sizes, complete, messages, relaying, quiet = snapshot(
                    agents, self.topology.nodes, leaving, full)
                bits = [m.bit_length() for m in messages.values()]
                peak_bits, round_bits = max(bits), sum(bits)

            directed = self.topology.directed_edges
            forced = forced_drops.get(k)
            candidates = [e for e in directed if e not in forced] if forced else directed
            trace = RoundTrace(k, products, table_sizes, complete, cfg.max_value, messages,
                               directed, apply_loss(candidates, cfg.loss_q, loss_rng), anomalies)
            if not quiet:
                merge(trace, agents)
            if leaving is not None:
                self.topology = retire(k, leaving, self.topology, anomalies)

            self.rounds_run += 1
            self.peak_message_bits = max(self.peak_message_bits, peak_bits)
            self.total_bits_transmitted += round_bits
            self.anomaly_count += len(anomalies)
            # Once settled, a run stays settled: after the last event no new
            # sentinel can start, and only sentinels take pairs out of a table.
            if last_round is None and complete:
                if self.completion_round is None:
                    self.completion_round = k
                if k > last_event_round and not relaying:
                    last_round = k + cfg.extra_rounds - 1
            yield trace
            if k == last_round:
                return


def iter_rounds(cfg: SimConfig) -> Rounds:
    """Set up a run of `cfg` and return its stream of rounds."""
    return Rounds(cfg)


def run(cfg: SimConfig) -> Rounds:
    """Execute a full simulation: the stream of `iter_rounds`, drained, with
    its rounds kept in `traces`."""
    rounds = iter_rounds(cfg)
    rounds._rounds = rounds.traces = list(rounds)
    return rounds


def with_final_primes(rounds: Rounds) -> Iterator[RoundTrace]:
    """Run `rounds` through its last scheduled join, after which no agent or
    prime is added, and return an iterator over all its rounds."""
    last_join = max((e.round_index for e in rounds.config.events
                     if isinstance(e, JoinEvent)), default=0)
    stream = iter(rounds)
    held: list[RoundTrace] = []
    for trace in stream:
        held.append(trace)
        if trace.round_index >= last_join:
            break
    return chain(held, stream)


TRACE_COLUMNS = ("round", "agent", "prime", "message_decimal", "message_bits",
                 "table_size", "active")


def write_trace_csv(rounds: Rounds, path) -> None:
    """Write trace.csv as the stream runs: a row per round and agent ever
    present, in agent order, CSV with CRLF line ends as the `csv` module
    writes it, though no field ever needs quoting.

    An agent absent from a round (departed or not yet joined) has active=0
    and zeroed message fields, keeping the table rectangular.  Every row
    names the agent's final prime.

    Each round is written as one string, its rows after the round number
    joined behind that number.  Those row tails are remade only when the
    round's `messages` or `table_sizes` dict is not the previous round's,
    so a carried round, which shares both, reuses them.  A message often
    reappears (the full variant resends an unchanged table, and neighbours
    reach the same table a round apart), so each distinct message's
    decimal and bit-length text is made once and kept for the next round.
    """
    traces = with_final_primes(rounds)
    primes = rounds.agent_primes
    agents = sorted(primes)
    texts: dict[int, str] = {}
    messages = sizes = None
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        for trace in traces:
            if trace.messages is not messages or trace.table_sizes is not sizes:
                messages, sizes = trace.messages, trace.table_sizes
                previous, texts, tails = texts, {}, []
                for agent in agents:
                    message = messages.get(agent)
                    if message is None:
                        tails.append(f"{agent},{primes[agent]},0,0,0,0")
                        continue
                    text = texts.get(message)
                    if text is None:
                        text = texts[message] = (previous.get(message)
                                                 or f"{decimal(message)},{message.bit_length()},")
                    tails.append(f"{agent},{primes[agent]},{text}{sizes[agent]},1")
            prefix = f"\r\n{trace.round_index},"
            fh.write(prefix[2:] + prefix.join(tails) + "\r\n")


def summary_text(rounds: Rounds) -> str:
    """summary.txt of a finished stream, from its totals."""
    completion = rounds.completion_round
    lines = [
        f"completion_round = {completion if completion is not None else 'never'}",
        f"diameter = {rounds.diameter}",
        f"peak_message_bits = {rounds.peak_message_bits}",
        f"total_bits_transmitted = {rounds.total_bits_transmitted}",
    ]
    return "\n".join(lines) + "\n"


def write_summary(rounds: Rounds, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(summary_text(rounds))
