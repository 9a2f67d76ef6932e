import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

try:  # the independent oracle of the `test` extra
    import networkx as nx
except ImportError:
    nx = None

from primetime.errors import GraphError
from primetime.graph import (Topology, bfs_distances, diameter, eccentricity,
                             generate, hop_sets, read_edge_list)


def floyd_warshall(t):
    """Independent all-pairs shortest path oracle."""
    inf = float("inf")
    dist = {u: {v: (0 if u == v else inf) for v in t.nodes} for u in t.nodes}
    for u, v in t.edges:
        dist[u][v] = dist[v][u] = 1
    for w in t.nodes:
        for u in t.nodes:
            for v in t.nodes:
                if dist[u][w] + dist[w][v] < dist[u][v]:
                    dist[u][v] = dist[u][w] + dist[w][v]
    return dist


def test_bfs_distances_path():
    t = generate("path", 3)
    assert bfs_distances(t, 1) == {1: 0, 2: 1, 3: 2}


def test_bfs_distances_complete():
    t = generate("complete", 4)
    assert bfs_distances(t, 1) == {1: 0, 2: 1, 3: 1, 4: 1}


def test_bfs_distances_cycle_matches_brute_force():
    t = generate("cycle", 6)
    oracle = floyd_warshall(t)
    for source in t.nodes:
        assert bfs_distances(t, source) == oracle[source]
    assert bfs_distances(t, 1)[4] == 3  # opposite node


def test_bfs_unknown_node():
    t = generate("path", 3)
    with pytest.raises(GraphError, match="unknown node"):
        bfs_distances(t, 9)


# The graphs of the benchmark's four workloads (random_connected at seed 0).
BENCHMARK_SHAPES = [("path", 128, None, None), ("cycle", 160, None, None),
                    ("random_connected", 256, 0.03, "0:graph"), ("cycle", 64, None, None)]


def test_diameter_examples():
    assert diameter(generate("path", 5)) == 4
    assert diameter(generate("complete", 7)) == 1
    assert diameter(generate("cycle", 9)) == 4  # floor(9/2), by all-pairs oracle
    t = generate("cycle", 9)
    oracle = floyd_warshall(t)
    assert max(oracle[u][v] for u in t.nodes for v in t.nodes) == 4
    for shape in BENCHMARK_SHAPES:
        t = generate(*shape)
        assert diameter(t) == max(eccentricity(t, n) for n in t.nodes)
        if nx is not None:
            g = nx.Graph(t.edges)
            assert diameter(t) == nx.diameter(g)


def test_diameter_single_node():
    assert diameter(Topology([1], [])) == 0


def test_hop_sets_base_case():
    for family, n in (("path", 3), ("cycle", 5), ("complete", 4)):
        t = generate(family, n)
        for node in t.nodes:
            assert hop_sets(t, node, 0) == ({node}, {node})


def test_hop_sets_path():
    t = generate("path", 3)
    inclusive, exclusive = hop_sets(t, 1, 1)
    assert inclusive == {1, 2}
    assert exclusive == {2}


def test_hop_sets_cycle():
    t = generate("cycle", 6)
    inclusive, exclusive = hop_sets(t, 1, 2)
    assert len(inclusive) == 5
    assert len(exclusive) == 2


def test_star_shape():
    t = generate("star", 6)
    assert len(t.edges) == 5
    assert diameter(t) == 2
    assert eccentricity(t, 1) == 1


def test_generate_path_and_complete_shapes():
    assert generate("path", 4).edges == frozenset({(1, 2), (2, 3), (3, 4)})
    assert len(generate("complete", 3).edges) == 3


def test_generate_random_connected_deterministic():
    a = generate("random_connected", 20, 0.2, 7)
    b = generate("random_connected", 20, 0.2, 7)
    assert a.edges == b.edges
    assert a.is_connected()


def test_generate_rejects_bad_inputs():
    with pytest.raises(GraphError, match="unknown family"):
        generate("torus", 5)
    with pytest.raises(GraphError, match="edge probability"):
        generate("random_connected", 5, 0.0, 1)
    with pytest.raises(GraphError):
        generate("cycle", 2)


def test_topology_validation():
    with pytest.raises(GraphError, match="self-loop"):
        Topology([1, 2], [(1, 1)])
    with pytest.raises(GraphError, match="duplicate edge"):
        Topology([1, 2], [(1, 2), (2, 1)])
    with pytest.raises(GraphError, match="disconnected"):
        Topology([1, 2, 3], [(1, 2)])


def test_node_add_remove():
    t = generate("path", 3)
    bigger = t.with_node_added(4, [2])
    assert (2, 4) in bigger.edges
    smaller = bigger.without_node(4)
    assert smaller == t


def test_read_edge_list():
    text = "# a comment\n1 2\n\n2 3\n  3 4  \n"
    t = read_edge_list(text)
    assert t.nodes == (1, 2, 3, 4)
    assert len(t.edges) == 3
    with pytest.raises(GraphError, match="expected 'u v'"):
        read_edge_list("1 2 3\n")
    with pytest.raises(GraphError, match="non-integer"):
        read_edge_list("1 x\n")
    with pytest.raises(GraphError, match="no edges"):
        read_edge_list("# nothing\n")


@st.composite
def random_topologies(draw):
    n = draw(st.integers(min_value=2, max_value=16))
    p = draw(st.sampled_from([0.2, 0.4, 0.7]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return generate("random_connected", n, p, seed)


@given(random_topologies())
@settings(max_examples=40)
def test_inclusive_sets_grow_to_whole_graph(t):
    d = diameter(t)
    for node in t.nodes:
        ecc = eccentricity(t, node)
        assert ecc <= d
        sizes = [len(hop_sets(t, node, k)[0]) for k in range(d + 1)]
        assert sizes == sorted(sizes)
        assert sizes[ecc] == t.node_count
        if ecc >= 1:
            assert sizes[ecc - 1] < t.node_count


@given(random_topologies())
@settings(max_examples=40)
def test_exclusive_sets_partition_nodes(t):
    d = diameter(t)
    for node in t.nodes:
        shells = [hop_sets(t, node, k)[1] for k in range(d + 1)]
        assert sum(len(s) for s in shells) == t.node_count
        assert set().union(*shells) == set(t.nodes)


@given(random_topologies())
@settings(max_examples=40)
def test_diameter_is_max_saturation_radius(t):
    saturation = []
    for node in t.nodes:
        k = 0
        while len(hop_sets(t, node, k)[0]) < t.node_count:
            k += 1
        saturation.append(k)
    assert diameter(t) == max(saturation)


@st.composite
def graphs(draw):
    """Graphs on 1..n, connected or not."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Topology(range(1, n + 1), edges, require_connected=False)


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_graph_oracles_match_networkx(t):
    if nx is None:
        pytest.skip("networkx is not installed")
    g = nx.Graph()
    g.add_nodes_from(t.nodes)
    g.add_edges_from(t.edges)
    for node in t.nodes:
        dist = nx.single_source_shortest_path_length(g, node)
        assert bfs_distances(t, node) == dist
        for k in range(max(dist.values()) + 2):
            inclusive, exclusive = hop_sets(t, node, k)
            assert inclusive == set(nx.ego_graph(g, node, radius=k))
            assert exclusive == nx.descendants_at_distance(g, node, k)
    if nx.is_connected(g):
        assert diameter(t) == nx.diameter(g) == max(eccentricity(t, n) for n in t.nodes)
    else:
        with pytest.raises(GraphError, match="disconnected"):
            diameter(t)
