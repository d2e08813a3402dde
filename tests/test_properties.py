"""Property tests over random connected graphs, drawn by hypothesis."""

from hypothesis import given, settings
from hypothesis import strategies as st

from treeqaoa.bench import STRATEGIES, TREE_STRATEGIES, circuit_for, schedule_for
from treeqaoa.circuits import AnsatzParams
from treeqaoa.graphs import Graph, read_edge_list, write_edge_list
from treeqaoa.oracle import heuristic_gap
from treeqaoa.scheduling import verify_schedule
from treeqaoa.trees import HeuristicConfig

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def graphs(draw, max_n=12):
    """A connected graph: a random spanning tree (every vertex but the
    first joins an earlier one) plus random extra pairs, relabelled by a
    random permutation."""
    n = draw(st.integers(2, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


@st.composite
def synthesis_cases(draw):
    g = draw(graphs())
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
