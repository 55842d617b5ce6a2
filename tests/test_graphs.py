import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from roundness import (
    Graph,
    gen_family,
    load_solid,
    parse_edge_list,
    path_metric,
)
from roundness import graphs
from roundness.errors import BadParamsError, DisconnectedError, UnknownFamilyError
from roundness.metric import has_row_permutation_property
from roundness.spectral import _row0_order, _row0_order_of_edges


def test_cycle_four_metric():
    sp = path_metric(gen_family("cycle", 4))
    assert np.array_equal(sp.dist[0], [0, 1, 2, 1])


def test_cycle_five_counts():
    g = gen_family("cycle", 5)
    assert g.n == 5
    assert len(g.edges) == 5


def test_complete_graph_metric():
    sp = path_metric(gen_family("complete", 4))
    assert np.array_equal(sp.dist, np.ones((4, 4)) - np.eye(4))


def test_petersen_distance_distribution():
    sp = path_metric(gen_family("petersen"))
    for row in sp.dist:
        assert Counter(row.tolist()) == {0.0: 1, 1.0: 3, 2.0: 6}


def test_circulant_full_offsets_is_complete():
    g = gen_family("circulant", 5, [1, 2])
    k5 = gen_family("complete", 5)
    assert g.edges == k5.edges


def test_smallest_complete_bipartite():
    sp = path_metric(gen_family("complete_bipartite", 1))
    assert np.array_equal(sp.dist, [[0, 1], [1, 0]])


def test_circulant_bad_params():
    with pytest.raises(BadParamsError):
        gen_family("circulant", 6, [2])  # gcd 2: disconnected
    with pytest.raises(BadParamsError):
        gen_family("circulant", 8, [])
    with pytest.raises(BadParamsError):
        gen_family("circulant", 8, [5])


def test_unknown_family_and_bad_params():
    with pytest.raises(UnknownFamilyError):
        gen_family("moebius", 5)
    with pytest.raises(BadParamsError):
        gen_family("cycle", 2)
    with pytest.raises(BadParamsError):
        gen_family("petersen", 3)
    with pytest.raises(BadParamsError):
        gen_family("hypercube", 13)


FAMILY_PARAMETER_ERRORS = {
    ("cycle", (5.5,)): "cycle needs an integer n >= 3, got 5.5",
    ("complete", ("4",)): "complete needs an integer n >= 2, got '4'",
    ("hypercube", (None,)): "hypercube needs an integer n in 1..12, got None",
    ("circulant", (7.9, (1,))): "circulant needs an integer n >= 3, got 7.9",
    ("circulant", (7, (1.5,))): "circulant offsets must be integers in 1..3, got 1.5",
    ("circulant", (7.9, (1.5,))): "circulant needs an integer n >= 3, got 7.9",
}


@pytest.mark.parametrize("family, params", list(FAMILY_PARAMETER_ERRORS))
def test_family_parameters_must_be_integers(family, params):
    # int() would build cycle:5 from 5.5 and circulant:7 with offset 1 from
    # (7.9, (1.5,)); each parameter has one check, of its type and its range
    message = FAMILY_PARAMETER_ERRORS[family, params]
    with pytest.raises(BadParamsError, match=f"^{re.escape(message)}$"):
        gen_family(family, *params)


@pytest.mark.parametrize("family, params, vertices", [
    ("cycle", (4097,), 4097),
    ("complete", (4097,), 4097),
    ("complete_bipartite", (2049,), 4098),
    ("circulant", (4097, [1]), 4097),
    ("cycle", (10**20,), 10**20),
    ("complete", (10**20,), 10**20),
])
def test_family_size_is_checked_before_any_edge(monkeypatch, family, params, vertices):
    # one vertex budget, that of hypercube:12; 10^20 vertices would never finish
    # building their edges
    def fail(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(graphs, "Graph", fail)
    with pytest.raises(BadParamsError, match=f"{vertices} vertices; at most 4096"):
        gen_family(family, *params)


@pytest.mark.parametrize("family, params, edges", [
    ("complete", (1025,), 524800),
    ("complete", (4096,), 8386560),
    ("complete_bipartite", (725,), 525625),
    ("complete_bipartite", (2048,), 4194304),
    ("circulant", (4096, range(1, 130)), 528384),
    ("circulant", (4096, range(1, 2049)), 8386560),
])
def test_family_edge_count_is_checked_before_any_edge(monkeypatch, family, params, edges):
    # within the vertex budget, complete:4096 would build 8.4 million edge
    # tuples before its path metric; its edge count follows from n alone
    def fail(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(graphs, "Graph", fail)
    with pytest.raises(BadParamsError, match=f"{edges} edges; at most 524288"):
        gen_family(family, *params)


def test_family_edge_budget_admits_complete_1024(monkeypatch):
    monkeypatch.setattr(graphs, "Graph", lambda n, edges: (n, len(edges)))
    assert gen_family("complete", 1024) == (1024, 523776)
    assert graphs.MAX_FAMILY_EDGES == 2**19


@pytest.mark.parametrize("family, params", [
    ("cycle", (7,)), ("complete", (6,)), ("complete_bipartite", (5,)),
    ("circulant", (12, [1, 5])), ("circulant", (12, [1, 6])), ("circulant", (13, [1, 2, 6])),
])
def test_family_edge_count_is_exact(monkeypatch, family, params):
    # the count checked before any edge is built is the count built
    edges = len(gen_family(family, *params).edges)
    monkeypatch.setattr(graphs, "MAX_FAMILY_EDGES", edges)
    assert len(gen_family(family, *params).edges) == edges
    monkeypatch.setattr(graphs, "MAX_FAMILY_EDGES", edges - 1)
    with pytest.raises(BadParamsError, match=f"{edges} edges"):
        gen_family(family, *params)


def test_family_vertex_budget_is_the_largest_cube():
    assert graphs.MAX_FAMILY_VERTICES == gen_family("hypercube", 12).n == 4096
    assert gen_family("cycle", 4096).n == gen_family("circulant", 4096, [1, 5]).n == 4096
    assert gen_family("complete_bipartite", 8).n == 16


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Graph(3, ((0, 3),))


def test_disconnected_names_pair():
    g = Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(DisconnectedError, match="0 and 2"):
        path_metric(g)


def test_unreached_vertex_is_found_before_anything_of_size_n():
    # an edge list's first line is its vertex count: with 10^7 vertices and
    # no edge, vertex 0 reaches none of the others, which the BFS from 0
    # finds before any list or mask of n entries is built
    tracemalloc.start()
    try:
        with pytest.raises(DisconnectedError, match="^no path between vertices 0 and 1$"):
            path_metric(parse_edge_list("10000000\n"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def adjacency_mask(g):
    """The boolean adjacency matrix of g."""
    a = np.zeros((g.n, g.n), dtype=bool)
    for u, v in g.edges:
        a[u, v] = a[v, u] = True
    return a


def all_sources_bfs(g):
    """Reference path metric: a breadth-first search from every vertex."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = np.full((g.n, g.n), -1)
    for s in range(g.n):
        dist[s, s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if dist[s, w] < 0:
                        dist[s, w] = dist[s, u] + 1
                        nxt.append(w)
            frontier = nxt
    return dist


def one_bfs_graphs():
    """Graphs whose edge sets are, but for four complete bipartite ones,
    invariant under i -> i + 1 mod n or under every i -> i xor 2^b, where
    path_metric searches from vertex 0 alone."""
    graphs = [gen_family("cycle", n) for n in range(3, 41)]
    graphs += [gen_family("circulant", n, s) for n, s in
               ((8, [1, 3]), (9, [3, 4]), (12, [2, 3]), (11, [1, 2, 5]), (24, [1, 5]),
                (64, [1, 5]))]
    graphs += [gen_family("hypercube", n) for n in range(1, 9)]
    graphs += [gen_family("complete", n) for n in range(2, 10)]
    graphs += [gen_family("complete_bipartite", n) for n in range(1, 9)]
    return graphs


def test_one_bfs_shortcut_equals_all_sources_bfs():
    searched_from_every_vertex = []
    for g in one_bfs_graphs():
        if _row0_order(adjacency_mask(g)) is None:
            searched_from_every_vertex.append(g.n)
        assert np.array_equal(path_metric(g).dist, all_sources_bfs(g)), g.n
    # K_{n,n} with n > 1 is in cube order only when 2n is a power of two
    assert searched_from_every_vertex == [6, 10, 12, 14]


def test_one_bfs_shortcut_runs_one_search(monkeypatch):
    sources = []
    bfs = graphs._bfs

    def spy(adj, s):
        sources.append(s)
        return bfs(adj, s)

    monkeypatch.setattr(graphs, "_bfs", spy)
    for g in (gen_family("cycle", 9), gen_family("circulant", 24, [1, 5]),
              gen_family("hypercube", 5)):
        sources.clear()
        path_metric(g)
        assert sources == [0]
    sources.clear()
    path_metric(gen_family("petersen"))
    assert sources == list(range(10))


def test_invariant_disconnected_edge_set_names_pair():
    # invariant under i -> i + 1 mod 4 and under i -> i xor 1, i xor 2
    g = Graph(4, ((0, 2), (1, 3)))
    assert _row0_order(adjacency_mask(g)) is not None
    with pytest.raises(DisconnectedError, match="vertices 0 and 1$"):
        path_metric(g)


def test_edge_set_order_is_the_adjacency_matrix_order():
    # the order path_metric reads off the edge set is the one the adjacency
    # matrix has, on every graph above, the solids and seeded random graphs
    # (some with an edge set invariant under every i -> i xor 2^b)
    rng = np.random.default_rng(5)
    extra = [gen_family("petersen"), load_solid("icosahedron"), load_solid("dodecahedron"),
             Graph(4, ()), Graph(4, ((0, 2), (1, 3))), Graph(8, ((0, 1),))]
    for n in (4, 8, 12, 16):
        for _ in range(10):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
            extra.append(Graph(n, tuple(pairs)))
        gens = rng.choice(np.arange(1, n), size=2, replace=False).tolist()
        if n & (n - 1) == 0:
            extra.append(Graph(n, tuple({(i, i ^ g) for i in range(n) for g in gens
                                         if i < i ^ g})))
    orders = []
    for g in one_bfs_graphs() + extra:
        edges = np.array(g.edges, dtype=np.intp).reshape(-1, 2)
        orders.append(_row0_order_of_edges(g.n, edges))
        assert orders[-1] == _row0_order(adjacency_mask(g)), (g.n, g.edges)
    assert {"circulant", "cube", None} <= set(orders)


@pytest.mark.parametrize("n", range(1, 7))
def test_hypercube_matches_cube_distance_matrix(n):
    g = gen_family("hypercube", n)
    sp = path_metric(g)
    assert np.array_equal(sp.dist, all_sources_bfs(g))
    assert sp.labels[0] == "0" * n
    assert sp.labels[-1] == "1" * n


def vertex_transitive_sweep():
    graphs = [gen_family("petersen"), load_solid("dodecahedron"), load_solid("icosahedron")]
    graphs += [gen_family("cycle", n) for n in range(3, 13)]
    graphs += [gen_family("complete", n) for n in range(2, 9)]
    graphs += [gen_family("complete_bipartite", n) for n in range(1, 6)]
    graphs += [gen_family("hypercube", n) for n in range(1, 4)]
    graphs += [
        gen_family("circulant", 8, [1, 3]),
        gen_family("circulant", 9, [3, 4]),
        gen_family("circulant", 12, [2, 3]),
        gen_family("circulant", 11, [1, 2, 5]),
    ]
    return graphs


def test_generated_families_have_row_permutation_property():
    for g in vertex_transitive_sweep():
        assert has_row_permutation_property(path_metric(g))


def test_path_metric_triangle_inequality_exact():
    for g in vertex_transitive_sweep():
        d = path_metric(g).dist
        n = d.shape[0]
        for k in range(n):
            assert np.all(d <= d[:, k][:, None] + d[k, :][None, :])


def test_parse_edge_list():
    g = parse_edge_list("4\n0 1\n1 2\n2 3\n# comment\n\n")
    assert g.n == 4
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    with pytest.raises(ValueError):
        parse_edge_list("3\n0 1 2\n")


def test_dodecahedron_data():
    g = load_solid("dodecahedron")
    assert g.n == 20
    assert len(g.edges) == 30
    sp = path_metric(g)
    assert Counter(sp.dist[0].tolist()) == {0.0: 1, 1.0: 3, 2.0: 6, 3.0: 6, 4.0: 3, 5.0: 1}


def test_icosahedron_data():
    g = load_solid("icosahedron")
    assert g.n == 12
    assert len(g.edges) == 30
    sp = path_metric(g)
    assert Counter(sp.dist[0].tolist()) == {0.0: 1, 1.0: 5, 2.0: 5, 3.0: 1}


def test_unknown_solid():
    with pytest.raises(UnknownFamilyError):
        load_solid("cube")
