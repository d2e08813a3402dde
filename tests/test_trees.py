import copy
import pickle
from collections import Counter
from dataclasses import FrozenInstanceError

import networkx as nx
import numpy as np
import pytest

from treeqaoa.graphs import (
    Graph, canonical_edge, generate_complete, generate_cycle, generate_erdos_renyi,
)
from treeqaoa.trees import (
    HeuristicConfig,
    RootedSpanningTree,
    build_bfs_tree,
    build_dfs_tree,
    build_greedy_tree,
    tree_to_text,
)

from helpers import tree_views_reference


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


def test_heuristic_config_validation():
    with pytest.raises(ValueError):
        HeuristicConfig(B=0)


def _greedy_reference(g, root, B):
    """Straight transcription of the frontier-scan pseudocode, list-based.

    Kept deliberately naive (an edge frontier with physical removals,
    explicit scan with strict improvement) as an independent check of the
    builder's vertex frontier.
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
    for _ in range(5000):
        n = int(rng.integers(2, 21))
        g = generate_erdos_renyi(n, float(rng.uniform(0.25, 0.9)), seed=int(rng.integers(10 ** 6)))
        cases.append((g, int(rng.integers(n)), int(rng.integers(1, 7))))
    for n in range(2, 9):
        shapes = [generate_complete(n), star(n - 1)] + ([generate_cycle(n)] if n >= 3 else [])
        cases.extend((g, root, B) for g in shapes for root in range(n) for B in (1, 2, 3, 10))
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


def test_cyclic_order_is_refused():
    # taken as a tree, this order on Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    # sends verify_schedule round its parent cycle forever, and build_optimized
    # gives fidelity 0.72 with the traditional circuit
    with pytest.raises(ValueError, match=r"tree edge \(2, 0\): child 0 is already discovered"):
        RootedSpanningTree(0, ((0, 1), (1, 2), (2, 0)))


def test_parent_listed_after_its_child_is_refused():
    # taken as a tree, this order gives vertex 2 level 1
    with pytest.raises(ValueError, match=r"tree edge \(1, 2\): parent 1 is not yet discovered"):
        RootedSpanningTree(0, ((1, 2), (0, 1)))


def test_tree_errors_name_the_first_bad_pair():
    cases = [
        ((3, ((0, 1), (1, 2))), "root 3 out of range for n=3"),
        ((-1, ((0, 1),)), "root -1 out of range for n=2"),
        ((0, ((0, 1), (1, 4), (0, 2))), r"tree edge \(1, 4\) out of range for n=4"),
        ((0, ((0, -1), (0, 1))), r"tree edge \(0, -1\) out of range for n=3"),
        ((0, ((0, 1), (0, 1))), r"tree edge \(0, 1\): child 1 is already discovered"),
        ((1, ((1, 0), (2, 1), (0, 2))), r"tree edge \(2, 1\): parent 2 is not yet"),
    ]
    for (root, order), message in cases:
        with pytest.raises(ValueError, match=message):
            RootedSpanningTree(root, order)


def _builder_trees(count, seed):
    """count seeded trees from dfs, bfs and greedy in turn, on connected
    G(n, p) graphs with n in 2..30 and a random root."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 31))
        g = generate_erdos_renyi(n, float(rng.uniform(0.15, 0.9)), int(rng.integers(1 << 30)))
        root = int(rng.integers(n))
        if i % 3 == 0:
            yield build_dfs_tree(g, root)
        elif i % 3 == 1:
            yield build_bfs_tree(g, root)
        else:
            yield build_greedy_tree(g, root, HeuristicConfig(B=int(rng.integers(1, 6))))


def _is_tree_order(root, order):
    """Independent check: the pairs form an arborescence on exactly 0..n-1
    rooted at root, and every parent is discovered before it is used."""
    n = len(order) + 1
    d = nx.DiGraph(order)
    d.add_nodes_from(range(n))
    if set(d) != set(range(n)) or root not in d or not nx.is_arborescence(d) \
            or d.in_degree(root) != 0:
        return False
    seen = {root}
    for p, c in order:
        if p not in seen:
            return False
        seen.add(c)
    return True


def _corrupt(kind, root, order, rng):
    """order (or root) broken in one way; None if the tree is too small."""
    order, n = list(order), len(order) + 1
    i = int(rng.integers(len(order)))
    p, c = order[i]
    if kind == "repeat":  # a cycle through the root, or another pair's child
        others = [cc for j, (_pp, cc) in enumerate(order) if j != i]
        if others and rng.random() < 0.5:
            root_or_other = others[rng.integers(len(others))]
        else:
            root_or_other = root
        order[i] = (p, root_or_other)
    elif kind == "late parent":  # an edge moved before its parent's own edge
        late = [j for j, (pp, _cc) in enumerate(order) if pp != root]
        if not late:
            return None
        j = late[rng.integers(len(late))]
        k = next(k for k, (_pp, cc) in enumerate(order) if cc == order[j][0])
        order.insert(k, order.pop(j))
    elif kind == "range":
        bad = n if rng.random() < 0.5 else -1
        order[i] = (bad, c) if rng.random() < 0.5 else (p, bad)
    else:  # "root": out of range, or a vertex listed as a child
        root = [n, -1, c][rng.integers(3)]
    return root, tuple(order)


def test_tree_check_matches_an_independent_check():
    rng = np.random.default_rng(15)
    kinds = Counter()
    orders = 0
    for t in _builder_trees(2100, seed=15):
        cases = [(t.root, t.discovery_order)]
        kind = ("repeat", "late parent", "range", "root")[rng.integers(4)]
        if (bad := _corrupt(kind, t.root, t.discovery_order, rng)) is not None:
            cases.append(bad)
            kinds[kind] += 1
        for root, order in cases:
            orders += 1
            try:
                RootedSpanningTree(root, order)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == _is_tree_order(root, order), (root, order)
    assert orders >= 2000
    assert min(kinds[k] for k in ("repeat", "late parent", "range", "root")) >= 100


def test_views_match_the_per_view_loops():
    for t in _builder_trees(2100, seed=16):
        assert (t.parent, t.level, t.branch_count, t.height) == tree_views_reference(t)
        want = [(canonical_edge(p, c), (p, c)) for p, c in t.discovery_order]
        assert list(t.edges.items()) == want


def test_trees_pickle_copy_compare_and_hash_on_their_two_fields():
    t = build_greedy_tree(generate_erdos_renyi(12, 0.4, seed=2), 5, HeuristicConfig(B=2))
    for clone in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t), copy.copy(t),
                  RootedSpanningTree(t.root, t.discovery_order)):
        assert clone == t and hash(clone) == hash(t) == hash((t.root, t.discovery_order))
        assert (clone.parent, clone.level, clone.branch_count, clone.edges) == \
            (t.parent, t.level, t.branch_count, t.edges)
    assert repr(t) == f"RootedSpanningTree(root=5, discovery_order={t.discovery_order!r})"
    assert t != build_bfs_tree(generate_erdos_renyi(12, 0.4, seed=2), 5)
    with pytest.raises(FrozenInstanceError):
        t.level = ()
    with pytest.raises(TypeError):  # the views are not constructor parameters
        RootedSpanningTree(0, ((0, 1),), edges={})
