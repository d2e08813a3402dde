"""Low-depth, CNOT-reduced Max-Cut ansatz synthesis via spanning-tree
heuristics, with exact simulation and benchmarking at desk scale."""

from .graphs import (
    Graph,
    GraphError,
    generate_complete,
    generate_cycle,
    generate_erdos_renyi,
    read_edge_list,
    write_edge_list,
)
from .trees import (
    HeuristicConfig,
    RootedSpanningTree,
    build_bfs_tree,
    build_dfs_tree,
    build_greedy_tree,
    tree_to_text,
)
from .scheduling import (
    StepSchedule,
    schedule_to_text,
    schedule_traditional,
    schedule_tree_ordered,
    verify_schedule,
)
from .circuits import AnsatzParams, CircuitIR, Gate, build_optimized, build_traditional
from .simulate import (
    NoiseParams,
    SimResult,
    StateVector,
    expected_cut,
    fidelity,
    run_ideal,
    run_noisy,
)
from .oracle import OracleResult, heuristic_gap, solve_exact
from .bench import (
    ExperimentConfig,
    fit_slope,
    run_depth_experiment,
    run_success_experiment,
    rows_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AnsatzParams",
    "CircuitIR",
    "ExperimentConfig",
    "Gate",
    "Graph",
    "GraphError",
    "HeuristicConfig",
    "NoiseParams",
    "OracleResult",
    "RootedSpanningTree",
    "SimResult",
    "StateVector",
    "StepSchedule",
    "build_bfs_tree",
    "build_dfs_tree",
    "build_greedy_tree",
    "build_optimized",
    "build_traditional",
    "expected_cut",
    "fidelity",
    "fit_slope",
    "generate_complete",
    "generate_cycle",
    "generate_erdos_renyi",
    "heuristic_gap",
    "read_edge_list",
    "rows_to_csv",
    "run_depth_experiment",
    "run_ideal",
    "run_noisy",
    "run_success_experiment",
    "schedule_to_text",
    "schedule_traditional",
    "schedule_tree_ordered",
    "solve_exact",
    "tree_to_text",
    "verify_schedule",
    "write_edge_list",
]
