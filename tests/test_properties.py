"""Property tests over random connected graphs, drawn by hypothesis."""

import math
from itertools import groupby
from operator import attrgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from treeqaoa.bench import STRATEGIES, TREE_STRATEGIES, circuit_for, schedule_for
from treeqaoa.circuits import AnsatzParams, block_metrics
from treeqaoa.graphs import Graph, read_edge_list, write_edge_list
from treeqaoa.oracle import _tree_coloring, heuristic_gap, step_lower_bounds
from treeqaoa.scheduling import verify_schedule
from treeqaoa.simulate import expected_cut, run_ideal
from treeqaoa.trees import HeuristicConfig

from helpers import _min_coloring, _root_tree, _spanning_trees, p1_cut_closed_form

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def graphs(draw, max_n=12, max_extra=None):
    """A connected graph: a random spanning tree (every vertex but the
    first joins an earlier one) plus random extra pairs (up to 2n, or
    max_extra), relabelled by a random permutation."""
    n = draw(st.integers(2, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = 2 * n if max_extra is None else max_extra
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=extra)))
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


@st.composite
def synthesis_cases(draw, max_n=12):
    g = draw(graphs(max_n))
    return g, draw(st.integers(0, g.n - 1)), draw(st.integers(1, 10))


@SETTINGS
@given(synthesis_cases())
def test_every_schedule_verifies(case):
    g, root, B = case
    for strategy in STRATEGIES:
        assert verify_schedule(g, schedule_for(g, strategy, root, B)) == []


@SETTINGS
@given(synthesis_cases(), st.integers(1, 3))
def test_cnot_saving_is_n_minus_1(case, p):
    g, root, B = case
    params = AnsatzParams(p, (0.3,) * p, (0.8,) * p)
    full = circuit_for(g, schedule_for(g, "traditional", root, B), params).cnot_count()
    assert full == 2 * g.m * p
    for strategy in TREE_STRATEGIES:
        reduced = circuit_for(g, schedule_for(g, strategy, root, B), params).cnot_count()
        assert full - reduced == g.n - 1


@SETTINGS
@given(synthesis_cases(), st.integers(1, 3))
def test_cost_gates_carry_their_schedule_step(case, p):
    # the tagged gates form one run per (layer, step), in rising order, and a
    # run touches exactly the endpoints of the edges scheduled at that step
    g, root, B = case
    params = AnsatzParams(p, (0.3,) * p, (0.8,) * p)
    for strategy in STRATEGIES:
        sched = schedule_for(g, strategy, root, B)
        want = {}
        for (u, v), s in sched.step_of.items():
            want.setdefault(s, set()).update((u, v))
        cost = [gate for gate in circuit_for(g, sched, params).gates if gate.tag is not None]
        runs = [(tag, {q for gate in run for q in gate.qubits})
                for tag, run in groupby(cost, key=attrgetter("tag"))]
        assert runs == [((layer, s), want[s]) for layer in range(1, p + 1) for s in sorted(want)]


@SETTINGS
@given(synthesis_cases(), st.integers(1, 3))
def test_block_metrics_match_the_gate_list(case, p):
    g, root, B = case
    params = AnsatzParams(p, (0.3,) * p, (0.8,) * p)
    for strategy in STRATEGIES:
        sched = schedule_for(g, strategy, root, B)
        circ = circuit_for(g, sched, params)
        assert block_metrics(g, params, sched) == (circ.depth(), circ.cnot_count())


@SETTINGS
@given(graphs(max_n=30))
def test_edge_list_round_trip(g):
    text = write_edge_list(g)
    back = read_edge_list(text)
    assert back == g
    assert write_edge_list(back) == text


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=6), st.data())
def test_heuristic_never_beats_the_oracle(g, data):
    root = data.draw(st.integers(0, g.n - 1))
    B = data.draw(st.integers(1, 6))
    steps, exact = heuristic_gap(g, root, HeuristicConfig(B=B))
    assert steps >= exact


@SETTINGS
@given(graphs(max_n=7, max_extra=8), st.data())
def test_step_lower_bounds_are_sound(g, data):
    """Over every spanning tree: the tree-phase bound equals the exact tree
    coloring, whose colors are first fit's, and the exact leftover coloring
    lies between the leftover bound and one more (Vizing)."""
    root = data.draw(st.integers(0, g.n - 1))
    adj = [sum(1 << w for w in g.adjacency[v]) for v in range(g.n)]
    for tree_idx in _spanning_trees(g):
        t = _root_tree(g, tree_idx, root)
        masks = [0] * g.n
        for u, v in t.discovery_order:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        lb_tree, lb_rest = step_lower_bounds(adj, masks, list(t.level), root)
        order = list(t.discovery_order)
        child_edge = {v: j for j, (_u, v) in enumerate(order)}
        parent_edge = [child_edge.get(u, -1) for u, _v in order]
        tree_min, tree_colors = _min_coloring(order, parent_edge, g.n)
        rest = [e for e in g.edges if e not in t.edges]
        rest_min, _ = _min_coloring(rest, [-1] * len(rest), g.n)
        assert lb_tree == tree_min
        assert tree_colors == _tree_coloring(order, g.n)
        assert lb_rest <= rest_min <= lb_rest + 1


@settings(max_examples=500, deadline=None, derandomize=True)
@given(synthesis_cases(max_n=16), st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
def test_p1_cut_matches_the_closed_form(case, gamma, beta):
    """The only independent check of the n-1 dropped CNOTs past the matrix
    oracle's sizes: every strategy's p = 1 state gives the analytic cut."""
    g, root, B = case
    params = AnsatzParams(1, (gamma,), (beta,))
    want = p1_cut_closed_form(g, gamma, beta)
    for strategy in STRATEGIES:
        sv = run_ideal(circuit_for(g, schedule_for(g, strategy, root, B), params))
        assert abs(expected_cut(sv, g) - want) <= 1e-9
