import numpy as np
import pytest

from treeqaoa.graphs import Graph, generate_complete, generate_cycle, generate_erdos_renyi
from treeqaoa.trees import (
    HeuristicConfig,
    build_bfs_tree,
    build_dfs_tree,
    build_greedy_tree,
    cost_of,
    tree_to_text,
)


def star(k):
    """K_{1,k} with center 0."""
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def assert_valid_tree(g, t):
    assert len(t.discovery_order) == g.n - 1
    assert t.parent[t.root] is None
    assert t.level[t.root] == 0
    seen = {t.root}
    for u, v in t.discovery_order:
        assert u in seen and v not in seen
        seen.add(v)
        assert t.parent[v] == u
        assert t.level[v] == t.level[u] + 1
        assert (min(u, v), max(u, v)) in g.edges
    assert seen == set(range(g.n))
    for v in range(g.n):
        assert t.branch_count[v] == sum(1 for p, _c in t.discovery_order if p == v)


def test_dfs_cycle_is_path():
    t = build_dfs_tree(generate_cycle(6), 0)
    assert t.height == 5
    assert t.discovery_order == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))


def test_dfs_k2_and_star():
    t = build_dfs_tree(generate_complete(2), 0)
    assert t.height == 1 and t.discovery_order == ((0, 1),)
    t = build_dfs_tree(star(4), 0)
    assert t.height == 1
    assert t.branch_count[0] == 4


def test_dfs_invalid_root():
    with pytest.raises(ValueError):
        build_dfs_tree(generate_cycle(4), 7)


def test_bfs_heights():
    assert build_bfs_tree(generate_cycle(6), 0).height == 3
    assert build_bfs_tree(path(4), 0).height == 3
    assert build_bfs_tree(generate_complete(5), 2).height == 1


def test_greedy_cycle6_trace():
    t = build_greedy_tree(generate_cycle(6), 0, HeuristicConfig(B=3))
    assert t.discovery_order == ((0, 1), (1, 2), (2, 3), (3, 4), (0, 5))
    assert t.branch_count[0] == 2


def test_greedy_star_forced():
    for B in (1, 2, 5):
        t = build_greedy_tree(star(4), 0, HeuristicConfig(B=B))
        assert t.height == 1
        assert t.branch_count[0] == 4


def test_cost_function_values():
    assert cost_of(6, 0, 1, 3) == 12
    assert cost_of(6, 1, 3, 3) == 0
    assert cost_of(6, 1, 4, 3) == -5
    with pytest.raises(ValueError):
        cost_of(6, 6, 0, 3)


def test_heuristic_config_validation():
    with pytest.raises(ValueError):
        HeuristicConfig(B=0)


def _greedy_reference(g, root, B):
    """Straight transcription of the frontier-scan pseudocode, list-based.

    Kept deliberately naive (physical removals, explicit scan with strict
    improvement) as an independent check of the vectorized builder.
    """
    n = g.n
    level = {root: 0}
    bf = {v: 0 for v in range(n)}
    bf[root] = 1
    visited = {root}
    frontier = [(root, w) for w in g.adjacency[root]]
    order = []
    while len(visited) < n:
        e = frontier[0]
        c = 0
        for (u, v) in frontier:
            cost = (n - level[u]) * (B - bf[u])
            if cost > c:
                c = cost
                e = (u, v)
        x, y = e
        order.append((x, y))
        visited.add(y)
        level[y] = level[x] + 1
        bf[x] += 1
        frontier = [(u, v) for (u, v) in frontier if v != y]
        for w in g.adjacency[y]:
            if w not in visited:
                frontier.append((y, w))
    return tuple(order)


def test_greedy_matches_reference_execution():
    rng = np.random.default_rng(202)
    cases = [(generate_cycle(6), 0, 3)]
    for _ in range(40):
        n = int(rng.integers(4, 16))
        g = generate_erdos_renyi(n, float(rng.uniform(0.25, 0.9)), seed=int(rng.integers(10 ** 6)))
        cases.append((g, int(rng.integers(n)), int(rng.integers(1, 6))))
    for g, root, B in cases:
        t = build_greedy_tree(g, root, HeuristicConfig(B=B))
        assert t.discovery_order == _greedy_reference(g, root, B)


def test_builders_produce_valid_trees():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(4, 20))
        g = generate_erdos_renyi(n, float(rng.uniform(0.2, 0.8)), seed=int(rng.integers(10 ** 6)))
        root = int(rng.integers(n))
        for t in (
            build_dfs_tree(g, root),
            build_bfs_tree(g, root),
            build_greedy_tree(g, root, HeuristicConfig(B=3)),
        ):
            assert t.root == root
            assert_valid_tree(g, t)


def test_bfs_height_is_minimal():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(4, 16))
        g = generate_erdos_renyi(n, 0.5, seed=int(rng.integers(10 ** 6)))
        root = int(rng.integers(n))
        h = build_bfs_tree(g, root).height
        assert h <= build_dfs_tree(g, root).height
        assert h <= build_greedy_tree(g, root, HeuristicConfig(B=3)).height


def test_greedy_b1_prefers_unbranched_vertices():
    # with B = 1 any vertex that already has a child scores zero, so as
    # long as some frontier edge leaves a childless non-root vertex, the
    # chosen edge must leave such a vertex
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(4, 12))
        g = generate_erdos_renyi(n, 0.6, seed=int(rng.integers(10 ** 6)))
        root = 0
        t = build_greedy_tree(g, root, HeuristicConfig(B=1))
        bf = {v: 0 for v in range(n)}
        bf[root] = 1
        visited = {root}
        frontier = [(root, w) for w in g.adjacency[root]]
        for x, y in t.discovery_order:
            alive_sources = {u for u, v in frontier if v not in visited}
            if any(bf[u] < 1 for u in alive_sources):
                assert bf[x] < 1
            visited.add(y)
            bf[x] += 1
            frontier = [(u, v) for (u, v) in frontier if v != y]
            frontier.extend((y, w) for w in g.adjacency[y] if w not in visited)


def test_determinism():
    g = generate_erdos_renyi(14, 0.5, seed=9)
    cfg = HeuristicConfig(B=4)
    runs = {build_greedy_tree(g, 3, cfg).discovery_order for _ in range(3)}
    assert len(runs) == 1
    runs = {build_dfs_tree(g, 3).discovery_order for _ in range(3)}
    assert len(runs) == 1


def test_tree_serialization():
    t = build_dfs_tree(generate_cycle(4), 0)
    text = tree_to_text(t)
    assert text.splitlines()[0] == "root 0"
    assert "1 0 1" in text
    assert len(text.splitlines()) == 4
