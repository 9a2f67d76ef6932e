"""Undirected static topology with hop-neighborhood and diameter queries.

The inclusive k-hop set of a node (everything within distance k, the node
included) and the exclusive k-hop set (everything at distance exactly k)
are the oracle against which protocol messages are checked.
"""
from __future__ import annotations

import random
from collections import deque
from functools import cached_property
from typing import Iterable

from .errors import ConfigError, GraphError

FAMILIES = ("path", "cycle", "complete", "star", "random_connected")
_MAX_REDRAWS = 10_000


class Topology:
    """Immutable undirected graph over integer node ids.

    No self-loops, no duplicate edges.  A topology may be disconnected: a
    leave can split the graph, which churn logs as an anomaly.  A run's
    start graph must be connected; `diameter` rejects one that is not when
    the run starts.
    """

    def __init__(self, nodes: Iterable[int], edges: Iterable[tuple[int, int]]):
        self.nodes: tuple[int, ...] = tuple(sorted(set(nodes)))
        if not self.nodes:
            raise GraphError("topology needs at least one node")
        node_set = set(self.nodes)
        normalized = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            if u not in node_set or v not in node_set:
                raise GraphError(f"unknown node in edge {u}-{v}")
            pair = (u, v) if u < v else (v, u)
            if pair in normalized:
                raise GraphError(f"duplicate edge {pair[0]}-{pair[1]}")
            normalized.add(pair)
        self.edges: frozenset[tuple[int, int]] = frozenset(normalized)
        adjacency: dict[int, list[int]] = {n: [] for n in self.nodes}
        for u, v in normalized:
            adjacency[u].append(v)
            adjacency[v].append(u)
        self.adjacency: dict[int, tuple[int, ...]] = {
            n: tuple(sorted(neigh)) for n, neigh in adjacency.items()
        }

    @cached_property
    def directed_edges(self) -> tuple[tuple[int, int], ...]:
        """Both directions of every edge, sorted.  Built once per topology,
        so every round's delivery lists share these tuples."""
        return tuple(sorted((u, v) for u in self.nodes for v in self.adjacency[u]))

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def is_connected(self) -> bool:
        if len(self.nodes) <= 1:
            return True
        return len(bfs_distances(self, self.nodes[0])) == len(self.nodes)

    def with_node_added(self, node: int, attach_to: Iterable[int]) -> "Topology":
        attach = tuple(attach_to)
        if node in self.nodes:
            raise GraphError(f"node {node} already present")
        if not attach:
            raise GraphError(f"node {node} must attach with at least one edge")
        new_edges = set(self.edges) | {(min(node, a), max(node, a)) for a in attach}
        return Topology(self.nodes + (node,), new_edges)

    def without_node(self, node: int) -> "Topology":
        self._check_node(node)
        remaining = [n for n in self.nodes if n != node]
        kept = [(u, v) for u, v in self.edges if node not in (u, v)]
        return Topology(remaining, kept)

    def _check_node(self, node: int) -> None:
        if node not in self.adjacency:
            raise GraphError(f"unknown node {node}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Topology)
                and self.nodes == other.nodes and self.edges == other.edges)

    def __repr__(self) -> str:
        return f"Topology(nodes={len(self.nodes)}, edges={len(self.edges)})"


def bfs_distances(t: Topology, source: int) -> dict[int, int]:
    """Exact hop distances from `source` to every reachable node."""
    t._check_node(source)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in t.adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def eccentricity(t: Topology, node: int) -> int:
    dist = bfs_distances(t, node)
    if len(dist) != t.node_count:
        raise GraphError("disconnected graph")
    return max(dist.values())


def diameter(t: Topology) -> int:
    """Largest hop distance over all node pairs; 0 for a single-node graph.

    Searches from every source at once: bit i of `reach[v]` says node i is
    within d hops of node v, and each step ORs in the neighbours' masks, so
    the diameter is the number of steps until every mask is full.  A step
    that changes no mask leaves some pair unreachable.  `eccentricity` and
    `bfs_distances` are its oracles.
    """
    index = {n: i for i, n in enumerate(t.nodes)}
    neighbours = [[index[m] for m in t.adjacency[n]] for n in t.nodes]
    reach = [1 << i for i in range(len(t.nodes))]
    full = (1 << len(t.nodes)) - 1
    d = 0
    while any(mask != full for mask in reach):
        grown = []
        for mask, around in zip(reach, neighbours):
            for j in around:
                mask |= reach[j]
            grown.append(mask)
        if grown == reach:
            raise GraphError("disconnected graph")
        reach = grown
        d += 1
    return d


def hop_sets(t: Topology, node: int, k: int) -> tuple[frozenset[int], frozenset[int]]:
    """(inclusive, exclusive) k-hop sets of `node`.

    inclusive = nodes at distance <= k (node itself included);
    exclusive = nodes at distance exactly k.  Both equal {node} at k = 0.
    """
    if k < 0:
        raise ValueError(f"hop radius must be >= 0, got {k}")
    dist = bfs_distances(t, node)
    inclusive = frozenset(n for n, d in dist.items() if d <= k)
    exclusive = frozenset(n for n, d in dist.items() if d == k)
    return inclusive, exclusive


def generate(family: str, n: int, p: float | None = None,
             seed: int | None = None) -> Topology:
    """Build a named graph family over nodes 1..n.

    Deterministic for fixed (family, n, p, seed).  random_connected draws
    Erdos-Renyi edge sets and rejects until connected, keeping the edge
    distribution unbiased; gives up after a bounded number of redraws.
    """
    if family not in FAMILIES:
        raise GraphError(f"unknown family {family!r}, expected one of {FAMILIES}")
    nodes = range(1, n + 1)
    if family == "path":
        if n < 1:
            raise GraphError("path needs n >= 1")
        return Topology(nodes, [(i, i + 1) for i in range(1, n)])
    if family == "cycle":
        if n < 3:
            raise GraphError("cycle needs n >= 3")
        return Topology(nodes, [(i, i + 1) for i in range(1, n)] + [(1, n)])
    if family == "complete":
        if n < 1:
            raise GraphError("complete needs n >= 1")
        return Topology(nodes, [(i, j) for i in nodes for j in nodes if i < j])
    if family == "star":
        if n < 2:
            raise GraphError("star needs n >= 2")
        return Topology(nodes, [(1, j) for j in range(2, n + 1)])
    # random_connected
    if n < 2:
        raise GraphError("random_connected needs n >= 2")
    if p is None or not 0 < p <= 1:
        raise GraphError(f"random_connected needs edge probability in (0, 1], got {p}")
    rng = random.Random(seed)
    for _ in range(_MAX_REDRAWS):
        edges = [(i, j) for i in nodes for j in range(i + 1, n + 1)
                 if rng.random() < p]
        candidate = Topology(nodes, edges)
        if candidate.is_connected():
            return candidate
    raise GraphError(
        f"cannot generate connected graph: n={n}, p={p} after {_MAX_REDRAWS} redraws"
    )


def read_edge_list(text: str) -> Topology:
    """Parse the `u v` one-pair-per-line edge format (1-indexed node ids).

    Blank lines and lines starting with '#' are ignored.
    """
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"edge list line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"edge list line {lineno}: non-integer node in {raw!r}") from None
        if u < 1 or v < 1:
            raise GraphError(f"edge list line {lineno}: node ids must be >= 1")
        edges.append((u, v))
    if not edges:
        raise GraphError("edge list contains no edges")
    nodes = {n for e in edges for n in e}
    return Topology(nodes, edges)


def load_edge_list(path) -> Topology:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read edge list {path}: {exc}") from exc
    return read_edge_list(text)
