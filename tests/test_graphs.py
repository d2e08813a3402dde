import numpy as np
import pytest
from scipy.stats import binom

from treeqaoa import graphs
from treeqaoa.graphs import (
    MAX_GENERATOR_PAIRS,
    Graph,
    GraphError,
    edges_connected,
    generate_complete,
    generate_cycle,
    generate_erdos_renyi,
    read_edge_list,
    write_edge_list,
)

from helpers import HOSTILE_HEADER, address_space_cap, generate_erdos_renyi_reference


def test_complete_counts():
    assert generate_complete(4).m == 6
    g6 = generate_complete(6)
    assert g6.m == 15
    assert g6.max_degree == 5
    assert generate_complete(2).edges == ((0, 1),)


def test_complete_rejects_small():
    with pytest.raises(GraphError):
        generate_complete(1)


def test_cycle_shapes():
    c6 = generate_cycle(6)
    assert c6.m == 6
    assert c6.max_degree == 2
    assert all(c6.degree(v) == 2 for v in range(6))
    assert generate_cycle(3).m == 3
    c4 = generate_cycle(4)
    assert c4.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    with pytest.raises(GraphError):
        generate_cycle(2)


def test_er_p1_is_complete():
    g = generate_erdos_renyi(5, 1.0, seed=123)
    assert g.edges == generate_complete(5).edges
    assert g.m == 10


def test_er_two_vertices():
    g = generate_erdos_renyi(2, 0.5, seed=0)
    assert g.edges == ((0, 1),)


def test_er_edge_count_within_binomial_bounds():
    # oracle: exact binomial 99.99% quantiles for Binomial(C(20,2), 0.4)
    pairs = 20 * 19 // 2
    lo = int(binom.ppf(5e-5, pairs, 0.4))
    hi = int(binom.ppf(1 - 5e-5, pairs, 0.4))
    assert (lo, hi) == (50, 103)  # frozen from the quantile computation
    g = generate_erdos_renyi(20, 0.4, seed=7)
    assert lo <= g.m <= hi


def test_er_reproducible():
    a = generate_erdos_renyi(15, 0.3, seed=42)
    b = generate_erdos_renyi(15, 0.3, seed=42)
    assert a.edges == b.edges
    c = generate_erdos_renyi(15, 0.3, seed=43)
    assert a.edges != c.edges  # overwhelmingly likely for a different seed


def test_er_matches_pair_list_reference():
    # the triu_indices sampler against the Python pair list it replaced
    rng = np.random.default_rng(2718)
    for _ in range(3000):
        n = int(rng.integers(2, 60))
        p_edge = float(rng.uniform(0.05, 1.0))
        seed = int(rng.integers(1 << 30))
        try:
            want = generate_erdos_renyi_reference(n, p_edge, seed).edges
        except GraphError:
            with pytest.raises(GraphError):
                generate_erdos_renyi(n, p_edge, seed)
            continue
        got = generate_erdos_renyi(n, p_edge, seed).edges
        assert got == want
        assert all(type(x) is int for e in got for x in e)


def test_er_rejects_bad_args():
    with pytest.raises(GraphError):
        generate_erdos_renyi(1, 0.5, seed=0)
    with pytest.raises(GraphError):
        generate_erdos_renyi(5, 0.0, seed=0)


def test_generators_pass_graph_invariants():
    for g in [
        generate_complete(7),
        generate_cycle(9),
        generate_erdos_renyi(12, 0.4, seed=5),
    ]:
        assert all(u < v for u, v in g.edges)
        assert g.edges == tuple(sorted(g.edges))
        assert len(set(g.edges)) == g.m
        degs = [0] * g.n
        for u, v in g.edges:
            degs[u] += 1
            degs[v] += 1
        assert max(degs) == g.max_degree
        assert all(tuple(sorted(a)) == a for a in g.adjacency)


def _reachable_brute(n, edges):
    # independent reachability: iterate set closure over edges
    reach = {0}
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            if u in reach and v not in reach:
                reach.add(v)
                changed = True
            if v in reach and u not in reach:
                reach.add(u)
                changed = True
    return len(reach) == n


def test_connectivity_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(2, 11))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [p for p in pairs if rng.random() < 0.3]
        assert edges_connected(n, edges) == _reachable_brute(n, edges)


def test_read_write_round_trip():
    g = read_edge_list("2 1\n0 1\n")
    assert g.n == 2 and g.edges == ((0, 1),)
    text = "4 4\n2 3\n0 1\n1 2\n0 3\n"
    canonical = write_edge_list(read_edge_list(text))
    assert canonical == "4 4\n0 1\n0 3\n1 2\n2 3\n"
    assert write_edge_list(read_edge_list(canonical)) == canonical


def test_read_edge_list_errors():
    with pytest.raises(GraphError, match="line 3"):
        read_edge_list("3 2\n0 1\n0 1\n")  # duplicate
    with pytest.raises(GraphError, match="line 2"):
        read_edge_list("3 2\n1 1\n0 2\n")  # self-loop
    with pytest.raises(GraphError, match="line 2"):
        read_edge_list("3 2\nx y\n0 1\n")  # parse error
    with pytest.raises(GraphError, match="line 1"):
        read_edge_list("")
    with pytest.raises(GraphError, match="not connected"):
        read_edge_list("4 2\n0 1\n2 3\n")
    with pytest.raises(GraphError, match="m=3"):
        read_edge_list("3 3\n0 1\n1 2\n")


def test_graph_constructor_validation():
    with pytest.raises(GraphError, match="self-loop"):
        Graph(3, [(0, 0), (0, 1), (1, 2)])
    with pytest.raises(GraphError, match="duplicate"):
        Graph(3, [(0, 1), (1, 0), (1, 2)])
    with pytest.raises(GraphError, match="out of range"):
        Graph(3, [(0, 3), (0, 1), (1, 2)])
    with pytest.raises(GraphError, match="not connected"):
        Graph(4, [(0, 1), (2, 3)])


def test_huge_vertex_count_rejected_before_allocation():
    # one edge cannot connect 10^9 vertices, and both entry points must
    # say so before building a single per-vertex list
    with address_space_cap(256 << 20):
        with pytest.raises(GraphError, match="not connected"):
            Graph(10 ** 9, [(0, 1)])
        with pytest.raises(GraphError, match="not connected"):
            read_edge_list(HOSTILE_HEADER)


def test_generators_refuse_past_the_pair_cap(monkeypatch):
    with address_space_cap(256 << 20):
        with pytest.raises(GraphError, match="cap"):
            generate_complete(100_000)
        with pytest.raises(GraphError, match="cap"):
            generate_cycle(MAX_GENERATOR_PAIRS + 1)
        with pytest.raises(GraphError, match="cap"):
            generate_erdos_renyi(100_000, 0.5, seed=0)
    # the cap is inclusive: exactly MAX_GENERATOR_PAIRS pairs is allowed
    monkeypatch.setattr(graphs, "MAX_GENERATOR_PAIRS", 10)
    assert generate_complete(5).m == 10
    assert generate_erdos_renyi(5, 0.9, seed=1).n == 5
    assert generate_cycle(10).m == 10
    for make in (lambda: generate_complete(6), lambda: generate_cycle(11),
                 lambda: generate_erdos_renyi(6, 0.9, seed=1)):
        with pytest.raises(GraphError, match="cap"):
            make()


def test_sparse_er_gives_up_after_bounded_rejections(monkeypatch):
    with pytest.raises(GraphError, match="1000 disconnected samples"):
        generate_erdos_renyi(100, 0.01, seed=1)
    # at seed 0, G(2, 0.5) is disconnected on the first draw only
    g = generate_erdos_renyi(2, 0.5, seed=0)
    monkeypatch.setattr(graphs, "MAX_ER_REJECTIONS", 1)
    with pytest.raises(GraphError, match="disconnected"):
        generate_erdos_renyi(2, 0.5, seed=0)
    monkeypatch.setattr(graphs, "MAX_ER_REJECTIONS", 2)
    assert generate_erdos_renyi(2, 0.5, seed=0) == g
