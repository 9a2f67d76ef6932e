"""Per-agent state machines for both protocol variants and open-graph churn.

Every agent owns a table mapping identifier primes to data values.  Each
round it broadcasts one integer:

* full variant ("primetime"): the product over its whole table,
* incremental variant: the product over pairs learned since its previous
  transmission, which collapses to 1 once nothing new arrives.

Departure is signalled by raising the leaver's own prime to the sentinel
exponent M + 1, one past the data range [1, M].  Receivers drop the pair and
relay the sentinel exactly once, so the goodbye floods outward while late
copies of the departed pair are discarded.

The state kept beside the table makes each round cost only what is new, and
every message is built from running products, with nothing to encode.  The
running `product` is the table's encoding, multiplied on insert and divided
on a goodbye, so the full variant sends it as is; `pending` is the product of
the pairs learned since the last transmission, kept the same way, which is
the incremental message; and `relay` is the product of the sentinel powers
of the goodbyes still to pass on, which either message carries.

How a reception finds the pairs the table lacks follows what each variant
sends.  A full-variant message repeats the sender's whole table, most of
which the receiver holds, so the shared part g = gcd(message, product) is
stripped first and, unless a stored prime arrives with a smaller exponent,
only the cofactor message // g is decoded.  An incremental message is the
sender's news, sent alike to every neighbour, so it is decoded whole: the
decode cache then factors each broadcast once for all its receivers, where
per-receiver cofactors would differ and the two gcds with the receiver's
product would cost about as much as the decode.  Only 17% of the decoded
pairs are new to the receiver (a 256-node random graph at 20% loss), so
the rest are filtered out against the table's items at C level.  Both
merges read the decode cache's `Factorization` in place: its `primes` and
`exponents` tuples, which every receiver of a message shares, are zipped
at C level, and no reception copies them into a dict.

The engine skips a message equal to the receiver's product, which holds
exactly the table's pairs and merges nothing (see `sim.merge`); the tests
check that against a naive round loop that merges every delivery.
"""
from __future__ import annotations

import enum
from itertools import filterfalse
from math import gcd
from typing import Iterable

from .errors import ExponentRangeError, ProtocolError
from .primes import encode, factorization, smallest_unused_prime

# The merges factor every message through this name, so that a tracer can
# wrap it.  It returns the decode cache's shared Factorization, not
# `primes.decode`'s fresh dict; the merges read its `primes` and
# `exponents` tuples and change neither.
decode = factorization


class Variant(str, enum.Enum):
    PRIMETIME = "primetime"
    INCREMENTAL = "incremental"


# Bound once: each `Variant.PRIMETIME` goes through the enum's class
# attribute lookup, which costs more than the rest of the variant test.
_PRIMETIME = Variant.PRIMETIME


class AgentState:
    """One agent's protocol state.

    `table` maps prime -> value and never stores the sentinel.  `product`
    always equals the encoding of `table`, and `pending` the encoding of the
    pairs inserted since the last transmission (at first, the own pair);
    both are kept in step by `receive_message`, so the table must change
    only through it.  `relay` is the product of prime**(M + 1) over the
    goodbyes that go out with the next message, exactly once, and is 1 when
    there are none; `departed` keeps every prime ever removed so late data
    and duplicate goodbyes are ignored.  `table` and `departed` share no
    prime: a goodbye pops the pair before it records the prime, data for a
    recorded prime is never inserted, and the own prime is never recorded.
    """

    def __init__(self, agent_id: int, own_prime: int, own_value: int, variant: Variant,
                 max_value: int):
        if not 1 <= own_value <= max_value:
            raise ProtocolError(f"agent {agent_id}: value {own_value} outside [1, {max_value}]")
        self.agent_id = agent_id
        self.own_prime = own_prime
        self.own_value = own_value
        self.variant = variant
        self.max_value = max_value
        self.table = {own_prime: own_value}
        self.product = self.pending = encode(self.table.items(), max_exponent=max_value)
        self.relay = 1
        self.departed = set()
        self.active = True

    def __eq__(self, other):
        return type(other) is type(self) and vars(self) == vars(other)

    def __repr__(self) -> str:
        return "AgentState(" + ", ".join(f"{k}={v!r}" for k, v in vars(self).items()) + ")"

    @property
    def sentinel(self) -> int:
        return self.max_value + 1


def form_message(state: AgentState) -> int:
    """Build this round's outgoing message and roll the transmission state.

    The full variant sends the whole table (its running `product`); the
    incremental variant sends only the pairs learned since its previous
    transmission (`pending`).  Pending goodbye sentinels ride along as the
    factor `relay`.  Afterwards `pending` and `relay` are 1, so each sentinel
    and each incremental pair goes out exactly once.  Returns 1 when there
    is nothing to send.
    """
    if not state.active:
        raise ProtocolError(f"agent {state.agent_id} already departed")
    message = state.product if state.variant is _PRIMETIME else state.pending
    state.pending = 1
    if state.relay > 1:  # a full-variant message stays its `product` object
        message *= state.relay
        state.relay = 1
    return message


def _news(state: AgentState, message: int,
          max_exponent: int) -> Iterable[tuple[int, int]] | None:
    """Pairs of a full-variant `message` for primes absent from the table, in
    ascending prime order, or None when the message must be decoded whole.

    A full-variant message repeats the sender's whole table, so the shared
    part is most of it and stripping it leaves little to decode.
    g = gcd(message, product) holds every stored prime at the smaller of its
    two exponents.  If product // g shares no prime with g, no stored prime
    arrives with a smaller exponent, and the cofactor message // g holds the
    rest.  When the cofactor names no stored prime, every stored prime in
    the message matches the table exactly, a no-op, so the cofactor's pairs
    are all the news.  A stored prime in the cofactor (a conflict or a
    goodbye) or an exponent out of range falls back to the whole message,
    so errors read exactly as the reference decode reports them.  g is
    cap-smooth, so an unfactorable residue of the cofactor is the whole
    message's, and its error is raised as is.
    """
    g = gcd(message, state.product)
    if gcd(state.product // g, g) != 1:
        return None
    cofactor = message // g
    if cofactor == 1:
        return ()
    try:
        pairs = decode(cofactor, max_exponent)
    except ExponentRangeError:
        return None
    if not state.table.keys().isdisjoint(pairs.primes):
        return None
    return zip(pairs.primes, pairs.exponents)


def receive_message(state: AgentState, message: int) -> list[str]:
    """Merge one incoming message into the agent's table.

    Exponents in [1, M] are data: inserted if the prime is new, ignored if
    the stored value matches, rejected with ProtocolError if it conflicts.
    Exponents in [M+1, 2M+1] carry the departure sentinel (a leaver's final
    message stacks its own datum on top of the sentinel, so the combined
    exponent can exceed M+1): the pair is dropped and the sentinel queued
    for exactly one relay.  Data for already-departed primes is discarded.
    A rejected message (conflict or codec error) changes nothing.

    Only the pairs the table lacks are checked and applied: those of
    `_news`, which name no stored prime and are applied unchecked, or else
    the whole message's pairs less those the table holds with that value,
    all checked before any is applied.  So a data pair for a stored prime
    conflicts, and any other is inserted unless its prime departed, since
    a departed prime is never stored.

    Returns human-readable anomaly notes for the conditions the protocol
    tolerates but cannot explain (goodbye for a prime never stored, goodbye
    naming the receiver itself).
    """
    if not state.active or message == 1:  # 1 carries nothing
        return []
    # A datum x <= M stacked on a sentinel M+1 yields at most 2M+1.
    max_exponent = 2 * state.max_value + 1
    pairs = (_news(state, message, max_exponent)
             if state.variant is _PRIMETIME else None)
    if pairs is None:
        # decode yields its pairs in ascending prime order, as they are checked.
        decoded = decode(message, max_exponent)
        pairs = list(filterfalse(state.table.items().__contains__,
                                 zip(decoded.primes, decoded.exponents)))
        for prime, exponent in pairs:
            if exponent <= state.max_value and prime in state.table:
                raise ProtocolError(f"conflicting value for prime {prime}: "
                                    f"stored {state.table[prime]}, received {exponent}")
    anomalies: list[str] = []
    gained = lost = 1
    for prime, exponent in pairs:
        if exponent <= state.max_value:
            if prime not in state.departed:
                state.table[prime] = exponent
                gained *= prime**exponent
        else:
            if prime == state.own_prime:
                anomalies.append(f"goodbye for own prime {prime} ignored")
                continue
            if prime in state.departed:
                continue
            if prime in state.table:
                lost *= prime**state.table.pop(prime)
            else:
                anomalies.append(f"goodbye for unknown prime {prime}")
            state.departed.add(prime)
            state.relay *= prime**state.sentinel
    if gained > 1:
        state.product *= gained
        state.pending *= gained
    if lost > 1:
        state.product //= lost
        state.pending //= gcd(state.pending, lost)
    return anomalies


def join(new_id: int, sponsor: AgentState, value: int) -> AgentState:
    """Admit a new agent by querying one neighbor, its sponsor.

    The joiner runs the sponsor's variant with the sponsor's bound M.  It
    takes the smallest prime the sponsor neither holds nor has seen leave,
    and starts from scratch: its own pair is the only entry, so the regular
    dissemination machinery announces it.  Against a sponsor whose table is
    complete (steady state) that prime is held by no one.
    """
    prime = smallest_unused_prime(sponsor.table.keys() | sponsor.departed)
    return AgentState(agent_id=new_id, own_prime=prime, own_value=value,
                      variant=sponsor.variant, max_value=sponsor.max_value)


def leave(state: AgentState) -> int:
    """Form the final goodbye message and deactivate the agent.

    The normal message for this round is multiplied by own_prime**(M+1);
    under the full variant the own pair is part of that product, so the
    receiver sees a combined exponent own_value + M + 1.
    """
    if not state.active:
        raise ProtocolError(f"agent {state.agent_id} already departed")
    message = form_message(state) * state.own_prime**state.sentinel
    state.active = False
    return message
