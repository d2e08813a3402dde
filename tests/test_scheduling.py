import copy
import pickle
import re

import numpy as np
import pytest

from treeqaoa.bench import STRATEGIES, circuit_for, schedule_for
from treeqaoa.circuits import AnsatzParams, block_metrics
from treeqaoa.graphs import Graph, generate_cycle, generate_erdos_renyi
from treeqaoa.scheduling import (
    StepSchedule,
    schedule_to_text,
    schedule_traditional,
    schedule_tree_ordered,
    tree_order_fault,
    verify_schedule,
)
from treeqaoa.trees import HeuristicConfig, build_bfs_tree, build_dfs_tree, build_greedy_tree

from helpers import address_space_cap, tree_from_edges, verify_schedule_reference


def test_traditional_cycles():
    assert schedule_traditional(generate_cycle(6)).num_steps == 2
    assert schedule_traditional(generate_cycle(5)).num_steps == 3
    for n in range(4, 13):
        expected = 2 if n % 2 == 0 else 3
        assert schedule_traditional(generate_cycle(n)).num_steps == expected


def test_traditional_single_edge():
    assert schedule_traditional(Graph(2, [(0, 1)])).num_steps == 1


def test_traditional_respects_degree_bound():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(4, 25))
        g = generate_erdos_renyi(n, 0.5, seed=int(rng.integers(10 ** 6)))
        assert schedule_traditional(g).num_steps >= g.max_degree


def test_dfs_path_tree_on_cycle6_needs_six_steps():
    g = generate_cycle(6)
    sched = schedule_tree_ordered(g, build_dfs_tree(g, 0))
    assert sched.num_steps == 6


def test_height3_and_height2_trees_get_same_labels():
    # path tree of three edges from the root: labels 1, 2, 3
    g_path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    t_path = tree_from_edges(4, 0, [(0, 1), (1, 2), (2, 3)])
    s = schedule_tree_ordered(g_path, t_path)
    assert [s.step_of[e] for e in ((0, 1), (1, 2), (2, 3))] == [1, 2, 3]
    assert t_path.height == 3

    # height-2 tree with two siblings under one vertex: same labels, one
    # sibling pushed a step later
    g_fork = Graph(4, [(0, 1), (1, 2), (1, 3)])
    t_fork = tree_from_edges(4, 0, [(0, 1), (1, 2), (1, 3)])
    s = schedule_tree_ordered(g_fork, t_fork)
    assert [s.step_of[e] for e in ((0, 1), (1, 2), (1, 3))] == [1, 2, 3]
    assert t_fork.height == 2
    assert s.num_steps == 3


def test_same_height_trees_can_differ_in_steps():
    # deep branching: 3 steps
    g_a = Graph(4, [(0, 1), (1, 2), (1, 3)])
    t_a = tree_from_edges(4, 0, [(0, 1), (1, 2), (1, 3)])
    assert t_a.height == 2
    assert schedule_tree_ordered(g_a, t_a).num_steps == 3
    # branching at the root: 2 steps
    g_b = Graph(4, [(0, 1), (0, 2), (1, 3)])
    t_b = tree_from_edges(4, 0, [(0, 1), (0, 2), (1, 3)])
    assert t_b.height == 2
    assert schedule_tree_ordered(g_b, t_b).num_steps == 2


def test_delayed_start_accounting():
    g_path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    t_path = tree_from_edges(4, 0, [(0, 1), (1, 2), (2, 3)])
    assert schedule_tree_ordered(g_path, t_path).delayed_start_total == 0
    g_fork = Graph(4, [(0, 1), (1, 2), (1, 3)])
    t_fork = tree_from_edges(4, 0, [(0, 1), (1, 2), (1, 3)])
    assert schedule_tree_ordered(g_fork, t_fork).delayed_start_total == 1
    assert schedule_traditional(g_fork).delayed_start_total == 0


def test_tree_must_span():
    g = generate_cycle(6)
    other = build_dfs_tree(generate_cycle(5), 0)
    with pytest.raises(ValueError):
        schedule_tree_ordered(g, other)


def test_tree_steps_are_the_closed_form():
    # the j-th child edge of u, in discovery order, runs at the step of u's
    # own tree edge (0 at the root) plus j
    rng = np.random.default_rng(1919)
    graphs = [generate_cycle(1000)]
    while len(graphs) < 60:
        n = int(rng.integers(2, 40))
        graphs.append(generate_erdos_renyi(n, float(rng.uniform(0.3, 1.0)),
                                           seed=int(rng.integers(2 ** 32))))
    for g in graphs:
        for strategy in ("dfs", "bfs", "greedy"):
            sched = schedule_for(g, strategy, int(rng.integers(g.n)), int(rng.integers(1, 7)))
            assert tree_order_fault(sched) is None
            up, kids = [0] * g.n, [0] * g.n
            for i, (u, v) in zip(sched.tree_index(), sched.tree.edges.values()):
                kids[u] += 1
                assert sched.steps[i] == up[u] + kids[u]
                up[v] = sched.steps[i]


def test_tree_phase_memory_does_not_grow_with_its_length():
    # a DFS tree of a long path has 99,999 tree steps; one bit per step per
    # vertex, in the scheduler or in the verifier's root-path masks, would
    # need more than a gigabyte
    n = 100_000
    g = Graph(n, [(v, v + 1) for v in range(n - 1)])
    t = build_dfs_tree(g, 0)
    with address_space_cap(128 << 20):
        sched = schedule_tree_ordered(g, t)
        assert verify_schedule(g, sched) == []
        metrics = block_metrics(g, AnsatzParams(1, (0.3,), (0.2,)), sched)
    assert sched.steps == tuple(range(1, n))
    assert metrics == (n + 2, n - 1)  # one reduced block per tree edge, in a chain


def test_non_int_steps_are_refused_where_the_schedule_is_made():
    # unchecked, None steps made verify_schedule raise TypeError, 1.5 steps
    # verified, built and dumped, and "1" steps read as sharing step 1
    g = generate_cycle(4)
    t = build_dfs_tree(g, 0)
    good = schedule_tree_ordered(g, t).step_of
    for bad in (None, 1.5, "1", True, np.int64(1)):
        step_of = dict(good)
        step_of[(2, 3)] = step_of[(0, 3)] = bad  # (0, 3) sorts first
        message = f"edge (0, 3) has step {bad!r}, not an int"
        with pytest.raises(ValueError, match=re.escape(message)):
            StepSchedule(g, t, step_of)
    assert StepSchedule(g, t, dict(good)) == schedule_tree_ordered(g, t)


def test_verify_accepts_scheduler_outputs():
    rng = np.random.default_rng(4)
    for _ in range(15):
        n = int(rng.integers(4, 31))
        g = generate_erdos_renyi(n, float(rng.uniform(0.2, 0.7)), seed=int(rng.integers(10 ** 6)))
        assert verify_schedule(g, schedule_traditional(g)) == []
        for root in range(g.n):
            for build in (build_dfs_tree, build_bfs_tree):
                sched = schedule_tree_ordered(g, build(g, root))
                assert verify_schedule(g, sched) == []
            t = build_greedy_tree(g, root, HeuristicConfig(B=3))
            assert verify_schedule(g, schedule_tree_ordered(g, t)) == []


def test_verify_flags_parent_step_reuse():
    g = Graph(3, [(0, 1), (1, 2)])
    t = tree_from_edges(3, 0, [(0, 1), (1, 2)])
    sched = StepSchedule(g, tree=t, step_of={(0, 1): 1, (1, 2): 1})
    violations = verify_schedule(g, sched)
    assert any("ancestor" in v for v in violations)


def test_verify_flags_incident_conflict():
    g = Graph(3, [(0, 1), (0, 2)])
    sched = StepSchedule(g, tree=None, step_of={(0, 1): 1, (0, 2): 1})
    violations = verify_schedule(g, sched)
    assert len(violations) == 1
    assert "share step 1" in violations[0]


def test_verify_flags_nontree_before_tree_phase():
    g = generate_cycle(4)
    t = build_dfs_tree(g, 0)
    sched = schedule_tree_ordered(g, t)
    bad = dict(sched.step_of)
    bad[(0, 3)] = 1  # the non-tree edge, shoved into the tree phase
    broken = StepSchedule(g, t, bad)
    assert any("tree phase" in v for v in verify_schedule(g, broken))


def _corrupt(rng, g, step_of):
    """A copy of step_of with one to four of: an edge re-stepped, a step set
    to -1, 0 or 10^12."""
    step_of = dict(step_of)
    last = max(step_of.values())
    for _ in range(int(rng.integers(1, 5))):
        e = g.edges[int(rng.integers(g.m))]
        if rng.integers(2):
            step_of[e] = int(rng.integers(1, last + 1))
        else:
            step_of[e] = (-1, 0, 10 ** 12)[int(rng.integers(3))]
    return step_of


def test_verify_matches_reference_on_corrupted_schedules():
    # full message lists against the ancestor-walking reference; the cap
    # turns a per-step allocation for a step of 10^12 into MemoryError
    rng = np.random.default_rng(1212)
    seen = dict.fromkeys(["share step", "of its ancestor", "tree phase"], 0)
    with address_space_cap(256 << 20):
        for _ in range(2000):
            n = int(rng.integers(2, 31))
            g = generate_erdos_renyi(n, float(rng.uniform(0.2, 0.8)),
                                     seed=int(rng.integers(2 ** 32)))
            for strategy in STRATEGIES:
                sched = schedule_for(g, strategy, int(rng.integers(n)), int(rng.integers(1, 6)))
                broken = StepSchedule(g, sched.tree, _corrupt(rng, g, sched.step_of))
                expected = verify_schedule_reference(g, broken)
                assert verify_schedule(g, broken) == expected
                for key in seen:
                    seen[key] += sum(key in message for message in expected)
    assert min(seen.values()) >= 50, seen


def test_steps_bounds():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(4, 22))
        g = generate_erdos_renyi(n, 0.5, seed=int(rng.integers(10 ** 6)))
        trad = schedule_traditional(g).num_steps
        for build in (build_dfs_tree, build_bfs_tree):
            t = build(g, 0)
            to = schedule_tree_ordered(g, t)
            assert to.num_steps >= t.height
            assert to.num_steps <= (n - 1) + trad


def test_no_empty_steps():
    rng = np.random.default_rng(21)
    for _ in range(15):
        n = int(rng.integers(4, 20))
        g = generate_erdos_renyi(n, 0.5, seed=int(rng.integers(10 ** 6)))
        for sched in (
            schedule_traditional(g),
            schedule_tree_ordered(g, build_greedy_tree(g, 0, HeuristicConfig(B=3))),
        ):
            assert set(sched.step_of.values()) == set(range(1, sched.num_steps + 1))


def test_schedule_dump_format():
    g = generate_cycle(4)
    t = build_dfs_tree(g, 0)
    text = schedule_to_text(g, schedule_tree_ordered(g, t))
    lines = text.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].split()[:2] == ["0", "1"]
    assert all(line.split()[3] in ("tree", "nontree") for line in lines)


def test_builder_steps_are_aligned_with_the_graph_edges():
    rng = np.random.default_rng(16)
    for _ in range(40):
        n = int(rng.integers(2, 30))
        g = generate_erdos_renyi(n, float(rng.uniform(0.2, 0.8)), seed=int(rng.integers(2 ** 32)))
        for strategy in STRATEGIES:
            sched = schedule_for(g, strategy, int(rng.integers(n)), int(rng.integers(1, 6)))
            assert sched.edges is g.edges and len(sched.steps) == g.m
            assert sched.step_of == dict(zip(g.edges, sched.steps))
            if sched.tree is not None:
                assert [g.edges[i] for i in sched.tree_index()] == list(sched.tree.edges)


def test_hand_built_map_equals_the_builder_schedule():
    rng = np.random.default_rng(61)
    params = AnsatzParams(2, (0.3, 0.5), (0.7, 1.1))
    for _ in range(30):
        n = int(rng.integers(2, 25))
        g = generate_erdos_renyi(n, float(rng.uniform(0.2, 0.8)), seed=int(rng.integers(2 ** 32)))
        for strategy in STRATEGIES:
            sched = schedule_for(g, strategy, int(rng.integers(n)), 3)
            # keys in reverse canonical order: the constructor takes g's order
            by_hand = StepSchedule(g, sched.tree, dict(reversed(sched.step_of.items())))
            assert by_hand == sched and by_hand.edges is g.edges
            assert by_hand.tree_index() == sched.tree_index()
            assert verify_schedule(g, by_hand) == []
            assert (by_hand.num_steps, by_hand.tree_steps(), by_hand.delayed_start_total) == \
                (sched.num_steps, sched.tree_steps(), sched.delayed_start_total)
            assert circuit_for(g, by_hand, params).gates == circuit_for(g, sched, params).gates
            assert block_metrics(g, params, by_hand) == block_metrics(g, params, sched)
            assert schedule_to_text(g, by_hand) == schedule_to_text(g, sched)


def test_constructor_names_the_first_fault():
    # unchecked, a map with missing or extra edges made a schedule that
    # verify_schedule, tree_index() and schedule_to_text each had to refuse
    g = generate_cycle(5)  # edges (0, 1) (0, 4) (1, 2) (2, 3) (3, 4)
    t = build_dfs_tree(g, 0)
    good = schedule_tree_ordered(g, t).step_of
    dropped = {e: s for e, s in good.items() if e not in ((1, 2), (3, 4))}
    added = good | {(2, 4): 1, (0, 2): 1}
    non_int = good | {(2, 3): 2.0}
    other_tree = build_dfs_tree(generate_cycle(6), 0)
    for tree, step_of, message in (
        (t, dropped, "edge (1, 2) has no step"),
        (t, dropped | {(0, 2): 1}, "edge (1, 2) has no step"),
        (t, added, "scheduled edge (0, 2) not in graph"),
        (t, added | {(2, 3): None}, "scheduled edge (0, 2) not in graph"),
        (None, non_int, "edge (2, 3) has step 2.0, not an int"),
        (other_tree, non_int, "edge (2, 3) has step 2.0, not an int"),
        (other_tree, good, "tree does not span this graph"),
        (tree_from_edges(5, 0, [(0, 1), (0, 2), (0, 3), (0, 4)]), good,  # (0, 2) is no edge
         "tree does not span this graph"),
    ):
        with pytest.raises(ValueError) as info:
            StepSchedule(g, tree, step_of)
        assert str(info.value) == message


def test_verify_gives_one_violation_for_a_schedule_of_another_graph():
    # every schedule covers its own graph, so against another graph there
    # is nothing to check edge by edge
    c5, c6 = generate_cycle(5), generate_cycle(6)
    for sched in (schedule_traditional(c6), schedule_tree_ordered(c6, build_dfs_tree(c6, 0))):
        assert verify_schedule(c5, sched) == ["schedule does not cover exactly this graph's edges"]
        with pytest.raises(ValueError, match="does not cover exactly"):
            schedule_to_text(c5, sched)


def test_tree_edge_outside_the_graph_is_refused():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    # (1, 2) sorts between graph edges, (2, 3) after all of them
    for tree_edges in ([(0, 1), (1, 2), (0, 3)], [(0, 1), (0, 2), (2, 3)]):
        with pytest.raises(ValueError, match="tree does not span this graph"):
            schedule_tree_ordered(star, tree_from_edges(4, 0, tree_edges))


def test_schedules_pickle_copy_and_compare_across_reruns():
    g = generate_erdos_renyi(15, 0.4, seed=8)
    for strategy in STRATEGIES:
        sched = schedule_for(g, strategy, 3, 2)
        again = schedule_for(g, strategy, 3, 2)
        assert again == sched and again.tree == sched.tree
        plain = pickle.loads(pickle.dumps(sched))
        assert sched.step_of and sched.tree_index() is not None  # derive both, pickle again
        for clone in (plain, pickle.loads(pickle.dumps(sched)), copy.deepcopy(sched)):
            assert clone == sched and clone.step_of == sched.step_of
            assert clone.tree_index() == sched.tree_index()
            assert verify_schedule(g, clone) == []
    trad, tree = schedule_for(g, "traditional", 0, None), schedule_for(g, "dfs", 0, None)
    assert trad != tree
    assert repr(trad) == f"StepSchedule(tree=None, edges={g.edges!r}, steps={trad.steps!r})"
