import numpy as np
import pytest

from treeqaoa.bench import (
    DEPTH_COLUMNS,
    STRATEGIES,
    SUCCESS_COLUMNS,
    ExperimentConfig,
    derive_seed,
    fit_slope,
    graph_instance,
    rows_to_csv,
    run_depth_experiment,
    run_success_experiment,
    tree_for,
)
from treeqaoa.circuits import AnsatzParams, build_traditional
from treeqaoa.graphs import generate_cycle
from treeqaoa.scheduling import schedule_traditional
from treeqaoa.simulate import NoiseParams, run_noisy


def test_fit_slope_examples():
    slope, intercept = fit_slope([(1, 1), (2, 2), (3, 3)])
    assert slope == pytest.approx(1.0)
    assert intercept == pytest.approx(0.0)
    slope, intercept = fit_slope([(1, 5), (2, 5)])
    assert slope == pytest.approx(0.0)
    assert intercept == pytest.approx(5.0)
    # worst-case chain: height n-1 grows one-for-one with n
    slope, _ = fit_slope([(n, n - 1) for n in range(20, 101, 10)])
    assert slope == pytest.approx(1.0)


def test_fit_slope_degenerate():
    with pytest.raises(ValueError):
        fit_slope([(3, 1)])
    with pytest.raises(ValueError):
        fit_slope([(3, 1), (3, 2)])


def test_config_validation():
    with pytest.raises(ValueError, match="p_edge"):
        ExperimentConfig(family="erdos_renyi", n_values=(4,))
    with pytest.raises(ValueError, match="ascending"):
        ExperimentConfig(family="cycle", n_values=(6, 4))
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig(family="cycle", n_values=(4,), trials=0)
    with pytest.raises(ValueError, match="strategies"):
        ExperimentConfig(family="cycle", n_values=(4,), strategies=("magic",))
    with pytest.raises(ValueError, match="family"):
        ExperimentConfig(family="torus", n_values=(4,))


def test_cycle_traditional_steps_flat():
    cfg = ExperimentConfig(
        family="cycle", n_values=(4, 6, 8, 10), trials=3, seed=2,
        strategies=("traditional",),
    )
    rows = run_depth_experiment(cfg)
    assert all(r["mean_steps"] == 2.0 for r in rows)
    assert all(r["mean_tree_steps"] is None for r in rows)


def test_single_trial_n2_sanity():
    cfg = ExperimentConfig(
        family="complete", n_values=(2,), trials=1, seed=0,
        strategies=("traditional",),
    )
    rows = run_depth_experiment(cfg)
    assert len(rows) == 1
    assert rows[0]["mean_steps"] == 1.0
    assert rows[0]["stderr_steps"] == 0.0


def test_instances_shared_across_b_values():
    for trial in range(4):
        cfg = ExperimentConfig(family="erdos_renyi", p_edge=0.5, n_values=(10,),
                               trials=5, seed=9)
        assert graph_instance(cfg, 10, trial).edges == graph_instance(cfg, 10, trial).edges
    cfg = ExperimentConfig(
        family="erdos_renyi", p_edge=0.5, n_values=(8, 10), trials=4, seed=3,
        strategies=("greedy",), B_values=(2, 5),
    )
    rows = run_depth_experiment(cfg)
    by_n = {}
    for r in rows:
        by_n.setdefault(r["n"], []).append(r)
    for n, cell in by_n.items():
        assert len(cell) == 2
        # identical instances: the CNOT count 2m-(n-1) is B-independent
        assert cell[0]["mean_cnots"] == cell[1]["mean_cnots"]


def test_sweeps_accept_every_strategy():
    cfg = ExperimentConfig(family="cycle", n_values=(5,), trials=1,
                           strategies=STRATEGIES, B_values=(3,))
    rows = run_depth_experiment(cfg)
    assert [r["strategy"] for r in rows] == list(STRATEGIES)
    # C5: 2m = 10 CNOTs traditionally, n - 1 = 4 fewer over any tree
    assert [r["mean_cnots"] for r in rows] == [10.0, 6.0, 6.0, 6.0]
    with pytest.raises(ValueError, match="tree strategy"):
        tree_for(generate_cycle(5), "traditional", 0, 3)


def test_depth_rows_deterministic():
    cfg = dict(family="erdos_renyi", p_edge=0.4, n_values=(6, 8), trials=3,
               seed=11, B_values=(3,))
    a = run_depth_experiment(ExperimentConfig(**cfg))
    b = run_depth_experiment(ExperimentConfig(**cfg))
    assert a == b
    csv_a = rows_to_csv(a, DEPTH_COLUMNS)
    csv_b = rows_to_csv(b, DEPTH_COLUMNS)
    assert csv_a == csv_b
    assert csv_a.splitlines()[0] == ",".join(DEPTH_COLUMNS)


def test_average_over_roots_runs():
    cfg = ExperimentConfig(
        family="cycle", n_values=(5,), trials=1, seed=0,
        strategies=("dfs", "greedy"), B_values=(3,), average_over_roots=True,
    )
    rows = run_depth_experiment(cfg)
    # cycle is vertex-transitive: root averaging must not change the mean
    flat = run_depth_experiment(ExperimentConfig(
        family="cycle", n_values=(5,), trials=1, seed=0,
        strategies=("dfs", "greedy"), B_values=(3,),
    ))
    for r_avg, r_flat in zip(rows, flat):
        assert r_avg["mean_steps"] == pytest.approx(r_flat["mean_steps"])


def test_success_zero_noise_rows_are_zero():
    cfg = ExperimentConfig(
        family="erdos_renyi", p_edge=0.5, n_values=(4, 5), trials=2, seed=5,
        noise=NoiseParams(0.0, 0.0, 0.0),
    )
    rows = run_success_experiment(cfg)
    assert rows
    assert all(r["mean_one_minus_psuccess"] == 0.0 for r in rows)


def test_success_requires_noise():
    cfg = ExperimentConfig(family="cycle", n_values=(4,), trials=1)
    with pytest.raises(ValueError, match="noise"):
        run_success_experiment(cfg)


def test_success_k2_matches_direct_simulation():
    noise = NoiseParams(0.02, 0.001, 0.004)
    cfg = ExperimentConfig(
        family="complete", n_values=(2,), trials=1, seed=13,
        strategies=("traditional",), noise=noise,
    )
    rows = run_success_experiment(cfg)
    assert len(rows) == 1
    # reproduce the bench's seeded angles and run the engine directly
    rng = np.random.default_rng(derive_seed(13 + 1, 2, 0))
    gamma, beta = rng.uniform(0.0, 2.0 * np.pi, size=2)
    g = graph_instance(cfg, 2, 0)
    sched = schedule_traditional(g)
    circ = build_traditional(
        g, AnsatzParams(1, (float(gamma),), (float(beta),)), sched
    )
    direct = 1.0 - run_noisy(circ, sched, noise).p_success
    assert rows[0]["mean_one_minus_psuccess"] == pytest.approx(direct, abs=1e-15)


def test_csv_formatting():
    rows = [{"family": "cycle", "p_edge": None, "n": 4, "B": None,
             "strategy": "traditional", "mean_one_minus_psuccess": 0.125}]
    text = rows_to_csv(rows, SUCCESS_COLUMNS)
    assert text == (
        "family,p_edge,n,B,strategy,mean_one_minus_psuccess\n"
        "cycle,,4,,traditional,0.125000\n"
    )
