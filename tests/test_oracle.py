import hashlib
import logging

import numpy as np
import pytest

from treeqaoa.bench import TREE_STRATEGIES, tree_for
from treeqaoa.graphs import (
    Graph, canonical_edge, edges_connected, generate_complete, generate_cycle,
    generate_erdos_renyi,
)
from treeqaoa.oracle import (
    _tree_coloring,
    _tree_count,
    heuristic_gap,
    solve_exact,
    step_lower_bounds,
    tree_floors,
)
from treeqaoa.scheduling import (
    StepSchedule, schedule_to_text, schedule_tree_ordered, verify_schedule,
)
from treeqaoa.trees import HeuristicConfig, RootedSpanningTree, build_greedy_tree

from helpers import _min_coloring, _spanning_trees, solve_exact_reference


def star(k):
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def masks(n, edges):
    """Per-vertex neighbor bitmasks of an edge list."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def gnm(rng, n, m):
    """A connected G(n, m) graph: m distinct pairs drawn uniformly."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        edges = [pairs[j] for j in rng.choice(len(pairs), size=m, replace=False)]
        if edges_connected(n, edges):
            return Graph(n, edges)


def test_star_center_forces_full_serialization():
    result = solve_exact(star(4), 0)
    assert result.best_steps == 4
    assert result.trees_enumerated == 1


def test_k2():
    result = solve_exact(generate_complete(2), 0)
    assert result.best_steps == 1


def test_c4_regression_pin():
    # C4 has 4 spanning trees; rooting mid-path allows the two arms to
    # interleave, so 2 tree steps + 1 leftover step is optimal
    for root in range(4):
        result = solve_exact(generate_cycle(4), root)
        assert result.best_steps == 3
        assert result.trees_enumerated == 4


def test_c6_regression_pin():
    result = solve_exact(generate_cycle(6), 0)
    assert result.best_steps == 4
    assert result.trees_enumerated == 6


def test_witness_always_verifies():
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        g = generate_erdos_renyi(n, 0.5, seed=int(rng.integers(10 ** 6)))
        root = int(rng.integers(n))
        result = solve_exact(g, root)
        witness = result.witness_schedule
        assert verify_schedule(g, witness) == []
        assert witness.num_steps == result.best_steps
        t = witness.tree
        assert t.root == root
        assert witness.delayed_start_total == sum(
            witness.step_of[canonical_edge(u, v)] - t.level[v] for u, v in t.discovery_order
        )


def test_value_invariant_under_relabeling():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(4, 8))
        g = generate_erdos_renyi(n, 0.6, seed=int(rng.integers(10 ** 6)))
        root = int(rng.integers(n))
        base = solve_exact(g, root).best_steps
        perm = rng.permutation(n)
        relabeled = Graph(n, [(int(perm[u]), int(perm[v])) for u, v in g.edges])
        assert solve_exact(relabeled, int(perm[root])).best_steps == base


def test_heuristic_gap_examples():
    assert heuristic_gap(star(4), 0, HeuristicConfig(B=3)) == (4, 4)
    assert heuristic_gap(generate_complete(2), 0, HeuristicConfig(B=1)) == (1, 1)
    h, o = heuristic_gap(generate_cycle(6), 0, HeuristicConfig(B=3))
    assert (h, o) == (5, 4)


def test_heuristic_never_beats_oracle():
    rng = np.random.default_rng(44)
    for _ in range(25):
        n = int(rng.integers(3, 8))
        g = generate_erdos_renyi(n, float(rng.uniform(0.3, 0.9)), seed=int(rng.integers(10 ** 6)))
        root = int(rng.integers(n))
        for B in (1, 3, 5):
            h, o = heuristic_gap(g, root, HeuristicConfig(B=B))
            assert h >= o
            t = build_greedy_tree(g, root, HeuristicConfig(B=B))
            assert schedule_tree_ordered(g, t).num_steps == h


def test_size_guard_and_budget():
    with pytest.raises(ValueError, match="n <= 8"):
        solve_exact(generate_complete(9), 0)
    with pytest.raises(ValueError, match="root"):
        solve_exact(generate_cycle(4), 9)


def test_complete_graph_tree_count():
    # Cayley: K_n has n^(n-2) spanning trees
    assert solve_exact(generate_complete(4), 0).trees_enumerated == 16
    assert solve_exact(generate_complete(5), 1).trees_enumerated == 125
    k7 = solve_exact(generate_complete(7), 0)
    assert k7.trees_enumerated == 16807
    assert k7.best_steps == 8


def test_matches_reference_oracle():
    # seeded ER sweep: n 2..6 from every root at p 0.3/0.5/0.7, and n = 7
    # from one seeded root at p 0.3/0.5; every result, witness tree and
    # witness step map must equal the unbounded reference search's
    rng = np.random.default_rng(2026)
    sweep = [(n, p) for n in range(2, 7) for p in (0.3, 0.5, 0.7)] + [(7, 0.3), (7, 0.5)]
    graphs = 0
    for n, p in sweep:
        for _ in range(60):
            g = generate_erdos_renyi(n, p, seed=int(rng.integers(10 ** 6)))
            graphs += 1
            for root in range(n) if n < 7 else [int(rng.integers(n))]:
                fast, slow = solve_exact(g, root), solve_exact_reference(g, root)
                assert fast.best_steps == slow.best_steps
                assert fast.trees_enumerated == slow.trees_enumerated
                assert fast.witness_schedule.tree == slow.witness_schedule.tree
                assert fast.witness_schedule.step_of == slow.witness_schedule.step_of
                assert verify_schedule(g, fast.witness_schedule) == []
    assert graphs >= 1000


def test_witness_is_a_whole_schedule_equal_to_the_reference():
    # the witness map is complete before its schedule is made, so the
    # schedule covers exactly the graph's edges and equals the reference's
    rng = np.random.default_rng(1616)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        g = generate_erdos_renyi(n, float(rng.uniform(0.3, 0.9)), seed=int(rng.integers(10 ** 6)))
        root = int(rng.integers(n))
        fast = solve_exact(g, root).witness_schedule
        slow = solve_exact_reference(g, root).witness_schedule
        assert fast == slow and fast.edges == g.edges
        assert fast.step_of == slow.step_of == dict(zip(g.edges, fast.steps))
        assert fast.num_steps == solve_exact(g, root).best_steps


def test_kirchhoff_tree_count():
    for n in range(2, 9):  # Cayley: K_n has n^(n-2) spanning trees
        assert _tree_count(masks(n, generate_complete(n).edges)) == n ** (n - 2)
    for n in range(3, 9):
        assert _tree_count(masks(n, generate_cycle(n).edges)) == n
    assert _tree_count(masks(6, [(v, v + 1) for v in range(5)])) == 1
    assert _tree_count(masks(1, [])) == 1
    k33 = [(u, v) for u in range(3) for v in range(3, 6)]
    assert _tree_count(masks(6, k33)) == 81  # m^(n-1) n^(m-1) for K_{m,n}


def test_overfull_leftover_bound():
    # K4 less the star at 0 leaves a triangle: maximum degree 2, yet its
    # three edges need three matchings of one edge each
    adj = masks(4, generate_complete(4).edges)
    star_tree = masks(4, [(0, 1), (0, 2), (0, 3)])
    assert step_lower_bounds(adj, star_tree, [0, 1, 1, 1], 0) == (3, 3)
    # K8 less a tree leaves degrees [2, 5, 5, 6, 6, 6, 6, 6]: 21 edges fit
    # 6 matchings of 4, but without vertex 0 its 19 edges on 7 vertices
    # exceed 6 matchings of 3, so the leftover needs 7 steps
    adj = masks(8, generate_complete(8).edges)
    tree = masks(8, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 6), (2, 7)])
    assert step_lower_bounds(adj, tree, [0, 1, 1, 1, 1, 1, 2, 2], 0) == (5, 7)
    # C4 less a path leaves one edge, which is not overfull
    adj = masks(4, generate_cycle(4).edges)
    path = masks(4, [(0, 1), (1, 2), (2, 3)])
    assert step_lower_bounds(adj, path, [0, 1, 2, 3], 0) == (3, 1)


def test_k8_logs_the_pruned_search(caplog):
    with caplog.at_level(logging.DEBUG, logger="treeqaoa.oracle"):
        result = solve_exact(generate_complete(8), 0)
    assert (result.trees_enumerated, result.best_steps) == (262144, 9)
    (record,) = [r for r in caplog.records if r.name == "treeqaoa.oracle"]
    assert record.levelno == logging.DEBUG
    counted, leaves, colored = record.args
    assert counted == 262144
    # the floors (3 + 6 = 9) equal K8's optimum, so once a tree reaches 9
    # every other branch is cut: 120 trees reach a leaf, 29,309 without them
    assert 0 < colored <= leaves <= 1000


def test_one_witness_is_built_per_solve(monkeypatch):
    # the search keeps the best tree's order and colors; building the tree
    # and schedule of every improving tree took 2.6 builds per solve
    import treeqaoa.oracle as oracle

    built = []
    aligned = StepSchedule.aligned.__func__
    monkeypatch.setattr(StepSchedule, "aligned",
                        classmethod(lambda cls, *a: built.append("schedule") or aligned(cls, *a)))
    monkeypatch.setattr(StepSchedule, "__init__", lambda *a: built.append("keyed"))
    monkeypatch.setattr(oracle, "RootedSpanningTree",
                        lambda *a: built.append("tree") or RootedSpanningTree(*a))
    for k in (6, 7, 8):
        built.clear()
        result = solve_exact(generate_complete(k), 0)
        assert built == ["tree", "schedule"]
        assert verify_schedule(generate_complete(k), result.witness_schedule) == []


def test_matches_reference_oracle_at_eight_vertices():
    # G(8, 0.3), G(8, 0.5) and the benchmark's G(7, 13), one seeded root
    # each: every field must equal the unbounded reference search's. The
    # reference colors every tree in full, which takes it 1-45 s on one
    # G(8, 0.5) draw of 17-21 edges, so draws above 16 edges are redrawn
    rng = np.random.default_rng(2027)

    def er8(p):
        while (g := generate_erdos_renyi(8, p, seed=int(rng.integers(10 ** 6)))).m > 16:
            pass
        return g

    graphs = [er8(p) for p in (0.3, 0.5) for _ in range(50)] + [gnm(rng, 7, 13) for _ in range(50)]
    for g in graphs:
        root = int(rng.integers(g.n))
        fast, slow = solve_exact(g, root), solve_exact_reference(g, root)
        assert fast.best_steps == slow.best_steps
        assert fast.trees_enumerated == slow.trees_enumerated
        assert fast.witness_schedule.tree == slow.witness_schedule.tree
        assert fast.witness_schedule.step_of == slow.witness_schedule.step_of
    assert len(graphs) >= 150


def drawn_trees():
    """Random parent arrays (n 2..10, relabelled, each parent before its
    children) and the dfs, bfs and greedy trees of seeded ER graphs."""
    rng = np.random.default_rng(1818)
    trees = []
    for _ in range(1800):
        n = int(rng.integers(2, 11))
        perm = [int(v) for v in rng.permutation(n)]
        order = [(perm[int(rng.integers(v))], perm[v]) for v in range(1, n)]
        trees.append(RootedSpanningTree(perm[0], tuple(order)))
    for _ in range(400):
        n = int(rng.integers(2, 11))
        g = generate_erdos_renyi(n, float(rng.uniform(0.2, 0.9)), seed=int(rng.integers(10 ** 6)))
        root, B = int(rng.integers(n)), int(rng.integers(1, 7))
        trees += [tree_for(g, strategy, root, B) for strategy in TREE_STRATEGIES]
    return trees


def test_tree_phase_is_its_bound_met_by_first_fit():
    # the reference's exact tree-phase search must return the tree bound of
    # step_lower_bounds and the first-fit coloring
    trees = drawn_trees()
    for t in trees:
        order = list(t.discovery_order)
        tree = masks(t.n, order)
        lb_tree, _ = step_lower_bounds(tree, tree, list(t.level), t.root)
        child_edge = {v: j for j, (_u, v) in enumerate(order)}
        parent_edge = [child_edge.get(u, -1) for u, _v in order]
        assert _min_coloring(order, parent_edge, t.n) == (lb_tree, _tree_coloring(order, t.n))
    assert len(trees) >= 3000


def test_tree_floor_is_met_and_attained():
    # every drawn tree's phase is at least the floor of its vertex count
    for t in drawn_trees():
        tree = masks(t.n, t.discovery_order)
        lb_tree, _ = step_lower_bounds(tree, tree, list(t.level), t.root)
        assert tree_floors(t.n, t.n - 1)[0] <= lb_tree
    # the fullest tree of phase t, where each level-l vertex has t - l
    # children, spans N(t) = 1, 2, 5, 16, 65 vertices: the floor is t there
    # and t + 1 one vertex later
    for t, size in enumerate((1, 2, 5, 16, 65)):
        order, level, frontier = [], [0], [0]
        for l in range(t):
            kids = [u for u in frontier for _ in range(t - l)]
            frontier = list(range(len(level), len(level) + len(kids)))
            order += zip(kids, frontier)
            level += [l + 1] * len(kids)
        tree = masks(len(level), order)
        assert len(level) == size
        assert step_lower_bounds(tree, tree, level, 0)[0] == t
        assert tree_floors(size, size - 1)[0] == t
        assert tree_floors(size + 1, size)[0] == t + 1


def test_leftover_floor_is_met_by_every_spanning_tree():
    # the leftover floor is at most the exact edge-chromatic number of
    # every spanning tree's leftover edges
    rng = np.random.default_rng(2424)
    trees = 0
    for _ in range(60):
        n = int(rng.integers(2, 8))
        g = generate_erdos_renyi(n, float(rng.uniform(0.3, 1.0)), seed=int(rng.integers(10 ** 6)))
        _, rest_floor = tree_floors(g.n, g.m)
        for tree_idx in _spanning_trees(g):
            trees += 1
            chosen = {g.edges[i] for i in tree_idx}
            rest = [e for e in g.edges if e not in chosen]
            assert rest_floor <= _min_coloring(rest, [-1] * len(rest), n)[0]
    assert trees >= 1000


@pytest.mark.parametrize("n, best_steps, trees, text_sha256", [
    (6, 7, 1296, "8ccc0791212a6ede9b9f53f60e7b8389c3aaab9b4b840b60c8a6e196035d74f3"),
    (7, 8, 16807, "a277d045ebc80328edc3717a8e4bef808b6b035dce5d1c4de188af4a473c17fd"),
    (8, 9, 262144, "2cff3366ad23895284a751a7b65719eab9ec781b079a079958a7f16091512c15"),
])
def test_complete_graph_pins(n, best_steps, trees, text_sha256):
    # pinned from the search without the floors, which must not move them
    g = generate_complete(n)
    result = solve_exact(g, 0)
    assert (result.best_steps, result.trees_enumerated) == (best_steps, trees)
    text = schedule_to_text(g, result.witness_schedule)
    assert hashlib.sha256(text.encode()).hexdigest() == text_sha256
