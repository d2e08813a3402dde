import math
import sys

import networkx as nx
import numpy as np
import pytest

from treeqaoa.bench import STRATEGIES, circuit_for, schedule_for
from treeqaoa.circuits import (
    AnsatzParams, CircuitIR, Gate, ansatz_text, block_metrics, build_optimized,
    build_traditional, check_circuit_size,
)
from treeqaoa.graphs import (
    Graph, canonical_edge, generate_complete, generate_cycle, generate_erdos_renyi,
)
from treeqaoa.scheduling import (
    StepSchedule, schedule_traditional, schedule_tree_ordered, verify_schedule,
)
from treeqaoa.simulate import fidelity, run_ideal
from treeqaoa.trees import HeuristicConfig, build_bfs_tree, build_dfs_tree, build_greedy_tree

from helpers import (
    ansatz_reference, circuit_text_reference, schedule_reference, tree_from_edges,
)


def params_for(p, gamma=0.4, beta=0.7):
    return AnsatzParams(p=p, gammas=(gamma,) * p, betas=(beta,) * p)


def test_traditional_cnot_counts():
    g = generate_cycle(4)
    c = build_traditional(g, params_for(1), schedule_traditional(g))
    assert c.cnot_count() == 8
    g6 = generate_cycle(6)
    c2 = build_traditional(g6, params_for(2), schedule_traditional(g6))
    assert c2.cnot_count() == 24


def test_traditional_k2_gate_sequence():
    g = generate_complete(2)
    c = build_traditional(g, AnsatzParams(1, (0.0,), (0.0,)), schedule_traditional(g))
    names = [(gate.name, gate.qubits) for gate in c.gates]
    assert names == [
        ("H", (0,)), ("H", (1,)),
        ("CX", (0, 1)), ("RZ", (1,)), ("CX", (0, 1)),
        ("RX", (0,)), ("RX", (1,)),
    ]
    assert all(gate.angle == 0.0 for gate in c.gates if gate.name in ("RZ", "RX"))


def test_optimized_k2_block():
    g = generate_complete(2)
    t = build_dfs_tree(g, 0)
    sched = schedule_tree_ordered(g, t)
    c = build_optimized(g, AnsatzParams(1, (0.9,), (0.2,)), t, sched)
    cost = [gate for gate in c.gates if gate.tag is not None]
    assert [(gate.name, gate.qubits) for gate in cost] == [("RZ", (1,)), ("CX", (0, 1))]
    assert cost[0].angle == pytest.approx(1.8)


def test_optimized_reduction_is_n_minus_1():
    rng = np.random.default_rng(50)
    for _ in range(20):
        n = int(rng.integers(4, 16))
        g = generate_erdos_renyi(n, 0.5, seed=int(rng.integers(10 ** 6)))
        root = int(rng.integers(n))
        p = int(rng.integers(1, 4))
        trad = build_traditional(g, params_for(p), schedule_traditional(g))
        for build in (build_dfs_tree, lambda g, r: build_greedy_tree(g, r, HeuristicConfig(B=3))):
            t = build(g, root)
            sched = schedule_tree_ordered(g, t)
            opt = build_optimized(g, params_for(p), t, sched)
            assert trad.cnot_count() - opt.cnot_count() == n - 1
            assert trad.cnot_count() == 2 * g.m * p


def test_layer_gate_counts():
    g = generate_erdos_renyi(8, 0.5, seed=2)
    t = build_dfs_tree(g, 0)
    sched = schedule_tree_ordered(g, t)
    p = params_for(2)
    trad = build_traditional(g, p, schedule_traditional(g))
    opt = build_optimized(g, p, t, sched)
    for circ, layer1_cx in ((trad, 2 * g.m), (opt, 2 * g.m - (g.n - 1))):
        layer1 = [gt for gt in circ.gates if gt.tag is not None and gt.tag[0] == 1]
        assert sum(1 for gt in layer1 if gt.name == "CX") == layer1_cx
        assert sum(1 for gt in layer1 if gt.name == "RZ") == g.m
        layer2 = [gt for gt in circ.gates if gt.tag is not None and gt.tag[0] == 2]
        assert sum(1 for gt in layer2 if gt.name == "CX") == 2 * g.m


def test_depth_basics():
    assert CircuitIR(3, []).depth() == 0
    c = CircuitIR(4, [Gate("H", (q,)) for q in range(4)])
    assert c.depth() == 1
    c = CircuitIR(3, [Gate("CX", (0, 1)), Gate("CX", (1, 2))])
    assert c.depth() == 2


def test_circuit_ir_checks_user_gates():
    # builder output skips these checks; gates handed in by a caller do not
    with pytest.raises(ValueError, match="out of range"):
        CircuitIR(3, [Gate("H", (3,))])
    with pytest.raises(ValueError, match="out of range"):
        CircuitIR(3, [Gate("RZ", (-1,), 0.5)])
    with pytest.raises(ValueError, match="control equals target"):
        CircuitIR(3, [Gate("CX", (1, 1))])
    # a name outside the gate set, a wrong qubit count, a missing, non-finite
    # or superfluous angle: each is refused with ValueError, not IndexError
    for gate in (Gate("FOO", (0,)), Gate("H", (0, 1)), Gate("CX", (0,)), Gate("RX", ()),
                 Gate("RZ", (0,)), Gate("RX", (0,), float("nan")),
                 Gate("RZ", (0,), float("inf")), Gate("H", (0,), 0.5), Gate("CX", (0, 1), 0.5)):
        with pytest.raises(ValueError, match="qubit|angle"):
            CircuitIR(3, [gate])


def _depth_via_dag(circ):
    """Independent oracle: explicit dependency DAG, longest path."""
    dag = nx.DiGraph()
    dag.add_nodes_from(range(len(circ.gates)))
    last_on_qubit = {}
    for i, gate in enumerate(circ.gates):
        for q in gate.qubits:
            if q in last_on_qubit:
                dag.add_edge(last_on_qubit[q], i)
            last_on_qubit[q] = i
    if not circ.gates:
        return 0
    return nx.dag_longest_path_length(dag) + 1


def test_depth_matches_dag_oracle_on_random_circuits():
    rng = np.random.default_rng(99)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        gates = []
        for _ in range(int(rng.integers(1, 51))):
            if rng.random() < 0.5:
                q = int(rng.integers(n))
                gates.append(Gate("H", (q,)))
            else:
                q1, q2 = rng.choice(n, size=2, replace=False)
                gates.append(Gate("CX", (int(q1), int(q2))))
        circ = CircuitIR(n, gates)
        assert circ.depth() == _depth_via_dag(circ)


def test_depth_matches_dag_oracle_on_ansatz():
    g = generate_erdos_renyi(7, 0.5, seed=8)
    t = build_greedy_tree(g, 0, HeuristicConfig(B=3))
    sched = schedule_tree_ordered(g, t)
    circ = build_optimized(g, params_for(2), t, sched)
    assert circ.depth() == _depth_via_dag(circ)


def test_builder_validation():
    g = generate_cycle(4)
    t = build_dfs_tree(g, 0)
    tree_sched = schedule_tree_ordered(g, t)
    trad_sched = schedule_traditional(g)
    with pytest.raises(ValueError):
        build_traditional(g, params_for(1), tree_sched)
    with pytest.raises(ValueError):
        build_optimized(g, params_for(1), t, trad_sched)
    # a tree-ordered schedule over a different tree of the same graph
    bfs_sched = schedule_tree_ordered(g, build_bfs_tree(g, 0))
    assert bfs_sched.tree.edges.keys() != t.edges.keys()
    with pytest.raises(ValueError):
        build_optimized(g, params_for(1), t, bfs_sched)
    # corrupt the schedule: child edge reuses its parent's step
    bad = dict(tree_sched.step_of)
    bad[(1, 2)] = bad[(0, 1)]
    broken = StepSchedule(g, t, bad)
    with pytest.raises(ValueError, match="verification"):
        build_optimized(g, params_for(1), t, broken)
    # schedule over a different graph
    g5 = generate_cycle(5)
    with pytest.raises(ValueError):
        build_traditional(g5, params_for(1), trad_sched)


def test_circuit_size_cap():
    # K2000 at p=1, the largest generator graph, is about 6.0M gates
    check_circuit_size(2000, 1999000, 1)
    with pytest.raises(ValueError, match="cap"):
        check_circuit_size(2000, 1999000, 2)
    # the builders refuse before building any gate
    g = generate_cycle(5)
    with pytest.raises(ValueError, match="cap"):
        build_traditional(g, params_for(10 ** 6), schedule_traditional(g))


def test_ansatz_params_validation():
    with pytest.raises(ValueError):
        AnsatzParams(p=0, gammas=(), betas=())
    with pytest.raises(ValueError):
        AnsatzParams(p=2, gammas=(0.1,), betas=(0.2, 0.3))


def test_ansatz_params_refuse_non_finite_angles():
    for gammas, betas in (((float("nan"),), (0.2,)), ((0.1,), (float("inf"),)),
                          ((0.1, -float("inf")), (0.2, 0.3))):
        with pytest.raises(ValueError, match="angles must be finite"):
            AnsatzParams(p=len(gammas), gammas=gammas, betas=betas)


def test_ansatz_params_refuse_angles_that_overflow_when_doubled():
    # the gates rotate by twice each angle: the largest finite double halved
    # is the largest accepted angle, and the message names the one refused
    top = sys.float_info.max / 2
    AnsatzParams(p=1, gammas=(top,), betas=(-top,))
    for gammas, betas, name in (((1e308,), (0.2,), "gammas[0] = 1e+308"),
                                ((0.1, 0.2), (0.3, -math.nextafter(top, math.inf)),
                                 f"betas[1] = {-math.nextafter(top, math.inf)!r}")):
        with pytest.raises(ValueError, match="angles must be finite") as info:
            AnsatzParams(p=len(gammas), gammas=gammas, betas=betas)
        assert str(info.value).endswith(name)


def test_circuit_text_round_shape():
    g = generate_complete(2)
    c = build_traditional(g, params_for(1), schedule_traditional(g))
    lines = c.to_text().splitlines()
    assert lines[0] == f"2 {len(c.gates)}"
    assert lines[1] == "H 0"
    assert lines[3].startswith("CX 0 1")


def test_dump_matches_the_per_gate_formatter():
    # reprs that differ only in their last digit, the smallest subnormal,
    # both zeros, and an int angle equal to a float one: equal angles with
    # different reprs must not share a cached repr
    tiny = 0.1 + 2.0 ** -56  # 0.10000000000000002, one ulp above 0.1
    angles = [0.1, tiny, 0.1, 5e-324, -5e-324, 0.0, -0.0, 0.0, 2, 2.0, -0.0]
    assert len({repr(a) for a in angles}) == 8 and repr(tiny) != repr(0.1)
    gates = [Gate("H", (0,)), Gate("CX", (0, 2))]
    gates += [Gate(("RX", "RZ")[i % 2], (i % 3,), a) for i, a in enumerate(angles)]
    text = CircuitIR(3, gates).to_text()
    assert text == circuit_text_reference(3, gates)
    assert text.splitlines()[3:7] == ["RX 0 0.1", "RZ 1 0.10000000000000002", "RX 2 0.1",
                                      "RZ 0 5e-324"]
    assert text.splitlines()[-6:] == ["RZ 2 0.0", "RX 0 -0.0", "RZ 1 0.0", "RX 2 2",
                                      "RZ 0 2.0", "RX 1 -0.0"]


def _assert_matches_reference(g, strategy, root, B, params, text):
    sched = schedule_for(g, strategy, root, B)
    ref = schedule_reference(g, sched.tree)
    assert sched.step_of == ref
    assert sched.num_steps == max(ref.values())
    circ = circuit_for(g, sched, params)
    expected = ansatz_reference(g, params, ref, sched.tree)
    assert [(gt.name, gt.qubits, gt.angle, gt.tag) for gt in circ.gates] == expected
    if text:
        assert circ.to_text() == circuit_text_reference(g.n, [Gate(*gt) for gt in expected])


def test_synthesis_matches_set_probe_reference():
    # the bitmask step pick and the single ansatz walk against the
    # set-probing scheduler and the per-step block rule; equal gate fields
    # give equal dumps, so the text is compared on every tenth graph only
    rng = np.random.default_rng(2024)
    for i in range(2000):
        n = int(rng.integers(2, 41))
        g = generate_erdos_renyi(n, float(rng.uniform(0.2, 0.45)), seed=int(rng.integers(2 ** 32)))
        root, B, p = int(rng.integers(n)), int(rng.integers(1, 11)), int(rng.integers(1, 4))
        angles = rng.uniform(0.0, 2.0 * np.pi, size=2 * p).tolist()
        params = AnsatzParams(p, tuple(angles[:p]), tuple(angles[p:]))
        for strategy in STRATEGIES:
            _assert_matches_reference(g, strategy, root, B, params, text=i % 10 == 0)


def test_synthesis_matches_reference_past_128_steps():
    # K130 needs more than 128 steps under every strategy, so the step
    # bitmasks run past several machine words
    g = generate_complete(130)
    for strategy in STRATEGIES:
        assert schedule_for(g, strategy, 5, 4).num_steps > 128
        _assert_matches_reference(g, strategy, 5, 4, params_for(1), text=True)


def _assert_text_matches_built_circuit(g, sched, params):
    text = "".join(ansatz_text(g, params, sched))
    assert text == circuit_text_reference(g.n, circuit_for(g, sched, params).gates)


def test_ansatz_text_matches_the_built_circuit():
    # the dump written from the blocks against the per-gate formatter of the
    # built gates; half the angles are both zeros, integer-valued floats,
    # large magnitudes or a subnormal, whose reprs a cache could confuse
    special = [0.0, -0.0, 1.0, -2.0, 3e15, -7.5e200, 5e-324]
    rng = np.random.default_rng(2222)
    for _ in range(500):
        n = int(rng.integers(2, 31))
        g = generate_erdos_renyi(n, float(rng.uniform(0.2, 0.6)), seed=int(rng.integers(2 ** 32)))
        root, B, p = int(rng.integers(n)), int(rng.integers(1, 11)), int(rng.integers(1, 4))
        angles = [special[k] if (k := int(rng.integers(2 * len(special)))) < len(special)
                  else float(rng.uniform(-2 * np.pi, 2 * np.pi)) for _ in range(2 * p)]
        params = AnsatzParams(p, tuple(angles[:p]), tuple(angles[p:]))
        for strategy in STRATEGIES:
            _assert_text_matches_built_circuit(g, schedule_for(g, strategy, root, B), params)


def test_ansatz_text_past_one_chunk():
    # K130's 8385 edges fill more than one chunk of blocks per layer
    g = generate_complete(130)
    params = AnsatzParams(2, (0.3, -0.0), (2.0, 1.5))
    for strategy in STRATEGIES:
        _assert_text_matches_built_circuit(g, schedule_for(g, strategy, 5, 4), params)


def test_ansatz_text_checks_at_the_call():
    # refused before any chunk is taken, so the CLI opens no file for it
    g = generate_cycle(4)
    sched = StepSchedule(g, None, {e: 1 for e in g.edges})
    expected = "schedule fails verification: incident edges (0, 1) and (0, 3) share step 1"
    assert _error(ansatz_text, g, params_for(1), sched) == expected


def _ir_metrics(g, sched, params):
    circ = circuit_for(g, sched, params)
    return circ.depth(), circ.cnot_count()


def test_block_metrics_match_ir_metrics():
    # the frontier walk over edge blocks against depth() and cnot_count()
    # of the gate list, on every strategy
    rng = np.random.default_rng(909)
    for _ in range(2000):
        n = int(rng.integers(2, 41))
        g = generate_erdos_renyi(n, float(rng.uniform(0.2, 0.45)), seed=int(rng.integers(2 ** 32)))
        root, B, p = int(rng.integers(n)), int(rng.integers(1, 11)), int(rng.integers(1, 4))
        params = params_for(p)
        for strategy in STRATEGIES:
            sched = schedule_for(g, strategy, root, B)
            assert block_metrics(g, params, sched) == _ir_metrics(g, sched, params)


def test_block_metrics_past_128_steps():
    g = generate_complete(130)
    for strategy in STRATEGIES:
        sched = schedule_for(g, strategy, 5, 4)
        assert sched.num_steps > 128
        for p in (1, 2):
            assert block_metrics(g, params_for(p), sched) == _ir_metrics(g, sched, params_for(p))


def _error(build, *args):
    with pytest.raises(ValueError) as info:
        build(*args)
    return str(info.value)


def test_block_metrics_refuse_like_the_builders():
    g = generate_cycle(5)
    t = build_dfs_tree(g, 0)
    tree_sched = schedule_tree_ordered(g, t)
    trad_sched = schedule_traditional(g)
    reused = dict(tree_sched.step_of)
    reused[(1, 2)] = reused[(0, 1)]  # child edge reuses its parent's step
    non_tree = next(e for e in g.edges if e not in t.edges)
    cases = [
        (StepSchedule(g, t, reused), params_for(1), "fails verification: incident edges"),
        (schedule_traditional(generate_cycle(4)), params_for(1),
         "verification: schedule does not cover exactly this graph's edges"),
        (schedule_tree_ordered(generate_cycle(6), build_dfs_tree(generate_cycle(6), 0)),
         params_for(1), "verification: schedule does not cover exactly this graph's edges"),
        (trad_sched, params_for(10 ** 6), "cap"),
    ]
    for sched, params, expected in cases:
        message = _error(block_metrics, g, params, sched)
        assert expected in message
        assert message == _error(circuit_for, g, sched, params)


def test_traditional_incident_clash_is_refused():
    # every 4-cycle edge at step 1, so each vertex meets two edges in one step
    g = generate_cycle(4)
    sched = StepSchedule(g, None, {e: 1 for e in g.edges})
    expected = "schedule fails verification: incident edges (0, 1) and (0, 3) share step 1"
    assert _error(build_traditional, g, params_for(1), sched) == expected
    assert _error(block_metrics, g, params_for(1), sched) == expected
    assert _error(circuit_for, g, sched, params_for(1)) == expected


def test_child_edge_before_its_parent_edge_is_refused():
    # verify_schedule's relaxed rule accepts (1, 2) before (0, 1), but then
    # qubit 1 has left |+> when the dropped CNOT would fire
    g = Graph(3, [(0, 1), (1, 2)])
    t = tree_from_edges(3, 0, [(0, 1), (1, 2)])
    sched = StepSchedule(g, t, {(0, 1): 2, (1, 2): 1})
    assert verify_schedule(g, sched) == []
    expected = ("schedule fails verification: tree edge (1, 2) at step 1 does not follow "
                "its parent edge (0, 1) at step 2")
    assert _error(build_optimized, g, params_for(1), t, sched) == expected
    assert _error(block_metrics, g, params_for(1), sched) == expected
    assert _error(circuit_for, g, sched, params_for(1)) == expected


def test_accepted_schedules_build_equivalent_circuits():
    # re-step random tree edges within the tree phase; whatever the reduced
    # builder accepts must prepare the traditional circuit's state
    rng = np.random.default_rng(1414)
    accepted = refused = 0
    for _ in range(1500):
        n = int(rng.integers(3, 8))
        g = generate_erdos_renyi(n, float(rng.uniform(0.3, 1.0)), seed=int(rng.integers(1 << 30)))
        sched = schedule_for(g, ("dfs", "bfs", "greedy")[int(rng.integers(3))],
                             int(rng.integers(n)), 3)
        step_of = dict(sched.step_of)
        last = sched.tree_steps()
        for u, v in sched.tree.discovery_order:
            if rng.random() < 0.5:
                step_of[canonical_edge(u, v)] = int(rng.integers(1, last + 1))
        p = int(rng.integers(1, 3))
        params = AnsatzParams(p, tuple(rng.uniform(0, np.pi, p)), tuple(rng.uniform(0, np.pi, p)))
        try:
            opt = build_optimized(g, params, sched.tree, StepSchedule(g, sched.tree, step_of))
        except ValueError:
            refused += 1
            continue
        accepted += 1
        trad = build_traditional(g, params, schedule_traditional(g))
        assert fidelity(run_ideal(trad), run_ideal(opt)) >= 1 - 1e-9
    assert accepted >= 100 and refused >= 100
