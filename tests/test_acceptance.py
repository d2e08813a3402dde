"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Criteria 5-7 are the heavy ones (exhaustive tiny-graph search and
density-matrix sweeps); the whole module stays within its stated budgets
on a laptop-class machine.
"""

import time
from itertools import combinations, permutations

import numpy as np
import pytest

from treeqaoa.bench import ExperimentConfig, fit_slope, run_depth_experiment, run_success_experiment
from treeqaoa.circuits import AnsatzParams, CircuitIR, Gate, build_optimized, build_traditional
from treeqaoa.cli import main
from treeqaoa.graphs import Graph, edges_connected, generate_complete, generate_cycle, generate_erdos_renyi
from treeqaoa.oracle import solve_exact
from treeqaoa.scheduling import schedule_traditional, schedule_tree_ordered
from treeqaoa.simulate import NoiseParams, fidelity, run_ideal, run_noisy
from treeqaoa.trees import HeuristicConfig, build_dfs_tree, build_greedy_tree

from helpers import run_matrix_oracle, tree_from_edges


def _report(k, detail):
    print(f"\nACCEPTANCE {k}: PASS | {detail}")


def test_criterion_1_cycle_steps():
    start = time.perf_counter()
    for n in range(4, 13):
        expected = 2 if n % 2 == 0 else 3
        assert schedule_traditional(generate_cycle(n)).num_steps == expected
    g6 = generate_cycle(6)
    assert schedule_tree_ordered(g6, build_dfs_tree(g6, 0)).num_steps == 6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"cycle step counts exact (even 2 / odd 3, DFS C6 = 6) in {elapsed:.2f}s")


def test_criterion_2_cnot_reduction():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    graphs = []
    for i in range(200):
        n = int(rng.integers(4, 31))
        p_edge = (0.4, 0.6, 0.8)[i % 3]
        graphs.append(generate_erdos_renyi(n, p_edge, seed=int(rng.integers(10 ** 9))))
    graphs.extend(generate_complete(n) for n in range(2, 13))
    params = AnsatzParams(1, (0.37,), (0.81,))
    for g in graphs:
        trad = build_traditional(g, params, schedule_traditional(g)).cnot_count()
        for build in (build_dfs_tree,
                      lambda g, r: build_greedy_tree(g, r, HeuristicConfig(B=3))):
            t = build(g, 0)
            opt = build_optimized(g, params, t, schedule_tree_ordered(g, t)).cnot_count()
            assert trad - opt == g.n - 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"CNOT reduction exactly n-1 on {len(graphs)} graphs, both trees, in {elapsed:.1f}s")


def test_criterion_3_functional_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    checked = 0
    for i in range(50):
        n = int(rng.integers(4, 11))
        g = generate_erdos_renyi(n, float(rng.uniform(0.35, 0.8)),
                                 seed=int(rng.integers(10 ** 9)))
        gamma, beta = rng.uniform(0, 2 * np.pi, size=2)
        params = AnsatzParams(1, (float(gamma),), (float(beta),))
        trad_state = run_ideal(build_traditional(g, params, schedule_traditional(g)))
        for root in range(g.n):
            for build in (build_dfs_tree,
                          lambda g, r: build_greedy_tree(g, r, HeuristicConfig(B=3))):
                t = build(g, root)
                sched = schedule_tree_ordered(g, t)
                opt_state = run_ideal(build_optimized(g, params, t, sched))
                assert fidelity(trad_state, opt_state) >= 1 - 1e-9
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(3, f"p=1 equivalence at 1e-9 over {checked} (graph, root, tree) cases in {elapsed:.1f}s")


def test_criterion_4_figure_step_counts():
    # height-3 path and height-2 fork: identical labels {1, 2, 3}
    g_path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    t_path = tree_from_edges(4, 0, [(0, 1), (1, 2), (2, 3)])
    s_path = schedule_tree_ordered(g_path, t_path)
    g_fork = Graph(4, [(0, 1), (1, 2), (1, 3)])
    t_fork = tree_from_edges(4, 0, [(0, 1), (1, 2), (1, 3)])
    s_fork = schedule_tree_ordered(g_fork, t_fork)
    assert (t_path.height, t_fork.height) == (3, 2)
    assert sorted(s_path.step_of.values()) == [1, 2, 3]
    assert sorted(s_fork.step_of.values()) == [1, 2, 3]
    # same height, different steps: deep branching vs branching at the root
    g_a = Graph(4, [(0, 1), (1, 2), (1, 3)])
    t_a = tree_from_edges(4, 0, [(0, 1), (1, 2), (1, 3)])
    g_b = Graph(4, [(0, 1), (0, 2), (1, 3)])
    t_b = tree_from_edges(4, 0, [(0, 1), (0, 2), (1, 3)])
    assert t_a.height == t_b.height == 2
    assert schedule_tree_ordered(g_a, t_a).num_steps == 3
    assert schedule_tree_ordered(g_b, t_b).num_steps == 2
    _report(4, "fixture trees: labels {1,2,3} for heights 3 and 2; 3 vs 2 steps for equal heights")


def _canonical_keys(n):
    """For every edge-set bitmask on n labeled vertices, the minimum over
    all vertex permutations of (permuted mask, image of vertex 0); two
    (graph, root=0) instances share a key iff an isomorphism maps one to
    the other fixing the root."""
    slots = list(combinations(range(n), 2))
    slot_index = {e: i for i, e in enumerate(slots)}
    masks = np.arange(1 << len(slots), dtype=np.int64)
    best = None
    for perm in permutations(range(n)):
        target = [slot_index[tuple(sorted((perm[u], perm[v])))] for u, v in slots]
        mapped = np.zeros_like(masks)
        for b, tb in enumerate(target):
            mapped |= ((masks >> b) & np.int64(1)) << np.int64(tb)
        key = mapped * n + perm[0]
        best = key if best is None else np.minimum(best, key)
    return best


def test_criterion_5_heuristic_vs_oracle():
    start = time.perf_counter()
    cfg = HeuristicConfig(B=3)
    gaps_greedy, gaps_dfs = [], []
    # exhaustive over all labeled connected graphs with n <= 6; oracle
    # values are cached per isomorphism class of the rooted instance
    # (soundness of that reuse is itself tested in test_oracle)
    oracle_cache = {}
    total = 0
    for n in range(2, 7):
        slots = list(combinations(range(n), 2))
        keys = _canonical_keys(n)
        for mask in range(1, 1 << len(slots)):
            edges = [slots[b] for b in range(len(slots)) if (mask >> b) & 1]
            if len(edges) < n - 1 or not edges_connected(n, edges):
                continue
            g = Graph(n, edges)
            key = int(keys[mask])
            if key not in oracle_cache:
                oracle_cache[key] = solve_exact(g, 0).best_steps
            o = oracle_cache[key]
            h = schedule_tree_ordered(g, build_greedy_tree(g, 0, cfg)).num_steps
            d = schedule_tree_ordered(g, build_dfs_tree(g, 0)).num_steps
            assert h >= o and d >= o
            gaps_greedy.append(h - o)
            gaps_dfs.append(d - o)
            total += 1
    assert total == 27475  # 1 + 4 + 38 + 728 + 26704 labeled connected graphs
    # plus 100 random n=7 instances, oracle run directly
    for i in range(100):
        g = generate_erdos_renyi(7, 0.5, seed=9000 + i)
        o = solve_exact(g, 0).best_steps
        h = schedule_tree_ordered(g, build_greedy_tree(g, 0, cfg)).num_steps
        d = schedule_tree_ordered(g, build_dfs_tree(g, 0)).num_steps
        assert h >= o and d >= o
        gaps_greedy.append(h - o)
        gaps_dfs.append(d - o)
    mean_g, mean_d = float(np.mean(gaps_greedy)), float(np.mean(gaps_dfs))
    assert mean_g <= mean_d
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(5, f"{total}+100 instances: heuristic >= oracle everywhere; "
               f"mean gap {mean_g:.3f} (greedy) <= {mean_d:.3f} (DFS) in {elapsed:.1f}s")


def test_criterion_6_slope_trend():
    start = time.perf_counter()
    n_values = tuple(range(20, 101, 10))
    worst_case_slope, _ = fit_slope([(n, n - 1) for n in n_values])
    assert worst_case_slope == pytest.approx(1.0, abs=1e-9)
    summary = []
    for family, p_edge in (("erdos_renyi", 0.4), ("erdos_renyi", 0.6),
                           ("erdos_renyi", 0.8), ("complete", None)):
        cfg = ExperimentConfig(
            family=family, p_edge=p_edge, n_values=n_values, trials=20,
            seed=0, strategies=("greedy",), B_values=(3, 6, 10),
        )
        rows = run_depth_experiment(cfg)
        slopes = {}
        for B in (3, 6, 10):
            pts = [(r["n"], r["mean_tree_steps"]) for r in rows if r["B"] == B]
            slopes[B], _ = fit_slope(pts)
        assert slopes[3] > slopes[6] > slopes[10]
        assert slopes[10] < 0.5 < worst_case_slope + 1e-9
        summary.append(f"{family}{'' if p_edge is None else f'({p_edge})'} "
                       f"{slopes[3]:.3f}/{slopes[6]:.3f}/{slopes[10]:.3f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(6, f"tree-phase step slopes B=3/6/10: {'; '.join(summary)}; "
               f"worst-case DFS slope 1.0; in {elapsed:.0f}s")


def test_criterion_7_success_probability_ordering():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        family="erdos_renyi", p_edge=0.4, n_values=tuple(range(4, 11)),
        trials=10, seed=0, strategies=("traditional", "dfs", "greedy"),
        B_values=(3,), noise=NoiseParams(),
    )
    rows = run_success_experiment(cfg)
    by_n = {}
    for r in rows:
        by_n.setdefault(r["n"], {})[r["strategy"]] = r["mean_one_minus_psuccess"]
    for n, cell in sorted(by_n.items()):
        assert cell["greedy"] < cell["traditional"], f"n={n}: {cell}"
        assert cell["greedy"] <= cell["dfs"], f"n={n}: {cell}"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(7, f"mean 1-P_success: greedy < traditional and <= DFS for n=4..10 in {elapsed:.0f}s")


def test_criterion_8_simulator_oracles():
    rng = np.random.default_rng(2024)
    circuits = []
    # every single-gate circuit on 3 qubits
    for q in range(3):
        circuits.append(CircuitIR(3, [Gate("H", (q,))]))
        circuits.append(CircuitIR(3, [Gate("RZ", (q,), 0.77)]))
        circuits.append(CircuitIR(3, [Gate("RX", (q,), -1.2)]))
    for a in range(3):
        for b in range(3):
            if a != b:
                circuits.append(CircuitIR(3, [Gate("CX", (a, b))]))
    # seeded random compositions
    for _ in range(20):
        gates = []
        for _ in range(int(rng.integers(2, 30))):
            kind = int(rng.integers(4))
            if kind == 3:
                a, b = rng.choice(3, size=2, replace=False)
                gates.append(Gate("CX", (int(a), int(b))))
            else:
                name = ("H", "RZ", "RX")[kind]
                angle = None if name == "H" else float(rng.uniform(-np.pi, np.pi))
                gates.append(Gate(name, (int(rng.integers(3)),), angle))
        circuits.append(CircuitIR(3, gates))
    # ansatz circuits for the two connected 3-vertex graphs
    for edges in ([(0, 1), (1, 2)], [(0, 1), (0, 2), (1, 2)]):
        g = Graph(3, edges)
        params = AnsatzParams(1, (0.9,), (0.4,))
        circuits.append(build_traditional(g, params, schedule_traditional(g)))
        t = build_dfs_tree(g, 0)
        circuits.append(build_optimized(g, params, t, schedule_tree_ordered(g, t)))
    for circ in circuits:
        assert np.allclose(run_ideal(circ).amplitudes, run_matrix_oracle(circ),
                           atol=1e-12)
    # trace preservation and exact unit success at zero noise
    g = generate_erdos_renyi(6, 0.5, seed=77)
    t = build_greedy_tree(g, 0, HeuristicConfig(B=3))
    sched = schedule_tree_ordered(g, t)
    circ = build_optimized(g, AnsatzParams(1, (0.6,), (0.2,)), t, sched)
    noisy = run_noisy(circ, NoiseParams())
    assert noisy.trace == pytest.approx(1.0, abs=1e-9)
    assert run_noisy(circ, NoiseParams(0.0, 0.0, 0.0)).p_success == 1.0
    _report(8, f"{len(circuits)} 3-qubit circuits match the matrix oracle at 1e-12; "
               "trace preserved at 1e-9; zero noise gives exactly 1")


def test_criterion_9_cli_determinism(tmp_path):
    graph = tmp_path / "g.txt"
    assert main(["gen", "--family", "erdos-renyi", "--n", "8", "--p-edge",
                 "0.5", "--seed", "6", "--out", str(graph)]) == 0
    cases = {
        "gen": ["gen", "--family", "erdos-renyi", "--n", "8", "--p-edge",
                "0.5", "--seed", "6"],
        "tree": ["tree", str(graph), "--strategy", "greedy", "--B", "3"],
        "schedule": ["schedule", str(graph), "--strategy", "dfs"],
        "circuit": ["circuit", str(graph), "--strategy", "greedy",
                    "--angle-seed", "3"],
        "simulate": ["simulate", str(graph), "--strategy", "greedy",
                     "--noise", "0.01,0.001,0.002", "--angle-seed", "3"],
        "bench-depth": ["bench-depth", "--family", "erdos-renyi", "--p-edge",
                        "0.5", "--n", "6,8", "--B", "3", "--trials", "2",
                        "--seed", "1", "--strategy", "traditional,greedy"],
        "bench-success": ["bench-success", "--family", "cycle", "--n", "4,5",
                          "--trials", "1", "--seed", "1", "--B", "3",
                          "--strategy", "traditional,greedy",
                          "--noise", "0.01,0.001,0.002"],
        "oracle": ["oracle", str(graph), "--root", "0", "--B", "3"],
    }
    for name, argv in cases.items():
        payloads = []
        for run in range(2):
            out = tmp_path / f"{name}_{run}.out"
            assert main(argv + ["--out", str(out)]) == 0, name
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1], f"{name} output not reproducible"
    _report(9, f"all {len(cases)} subcommands byte-identical across reruns")


def test_criterion_10_greedy_build_scaling():
    timings = {}
    for n in (250, 500):
        g = generate_complete(n)
        cfg = HeuristicConfig(B=10)
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            build_greedy_tree(g, 0, cfg)
            best = min(best, time.perf_counter() - t0)
        timings[n] = best
    ratio = timings[500] / timings[250]
    assert ratio <= 32.0, timings
    _report(10, f"greedy build on K250/K500: {timings[250]:.3f}s / {timings[500]:.3f}s, "
                f"ratio {ratio:.1f} <= 32")
