import numpy as np
import pytest

from treeqaoa.graphs import (
    Graph, canonical_edge, generate_complete, generate_cycle, generate_erdos_renyi,
)
from treeqaoa.oracle import (
    heuristic_gap,
    solve_exact,
)
from treeqaoa.scheduling import schedule_tree_ordered, verify_schedule
from treeqaoa.trees import HeuristicConfig, build_greedy_tree

from helpers import solve_exact_reference


def star(k):
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


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
