"""Prime-exponent dissemination protocols on synchronous-round networks.

Agents share small integer data by broadcasting a single unbounded integer:
the product of globally unique identifier primes raised to their data
values.  The full variant rebroadcasts its whole table every round; the
incremental variant sends only newly learned pairs and settles to the
constant message 1.  Both complete every table in exactly the graph
diameter, and both extend to open graphs via smallest-unused-prime joins
and sentinel-exponent goodbyes.
"""

from .errors import (CodecError, ConfigError, ExponentRangeError, GraphError,
                     PrimeCapError, PrimeTimeError, ProtocolError)
from .graph import Topology, bfs_distances, diameter, eccentricity, generate, hop_sets
from .primes import decode, encode, nth_prime
from .protocol import AgentState, Variant, form_message, join, leave, receive_message
from .sim import (JoinEvent, LeaveEvent, Rounds, RoundTrace, SimConfig, TopologySpec,
                  apply_loss, iter_rounds, run)

__version__ = "0.1.0"

__all__ = [
    "AgentState", "CodecError", "ConfigError", "ExponentRangeError", "GraphError",
    "JoinEvent", "LeaveEvent", "PrimeCapError", "PrimeTimeError",
    "ProtocolError", "RoundTrace", "Rounds", "SimConfig", "Topology",
    "TopologySpec", "Variant", "apply_loss", "bfs_distances", "decode", "diameter", "eccentricity", "encode",
    "form_message", "generate", "hop_sets", "iter_rounds", "join", "leave", "nth_prime",
    "receive_message", "run",
]
