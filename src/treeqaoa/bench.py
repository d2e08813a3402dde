"""Experiment driver: depth sweeps, slope fits, and success-probability runs.

Graph instances are derived deterministically from (seed, n, trial), so the
same instances are reused across every B value and strategy, and reruns
with an identical config produce identical tables. Results are plain lists
of row dicts; ``rows_to_csv`` renders them with a stable column order and
fixed float formatting (CSV schema v1, documented in the README).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import AnsatzParams, build_optimized, build_traditional
from .graphs import Graph, generate_complete, generate_cycle, generate_erdos_renyi
from .scheduling import StepSchedule, schedule_traditional, schedule_tree_ordered
from .simulate import NoiseParams, run_noisy
from .trees import (
    HeuristicConfig, RootedSpanningTree, build_bfs_tree, build_dfs_tree, build_greedy_tree,
)

# Unused here, but perfbench/spans.py traces the package by patching the
# names each module looks up; removing one makes Tracer.install fail.
from .scheduling import verify_schedule  # noqa: F401

FAMILIES = ("erdos_renyi", "complete", "cycle")
# every synthesis strategy; all but "traditional" build a rooted spanning tree
STRATEGIES = ("traditional", "dfs", "bfs", "greedy")
TREE_STRATEGIES = STRATEGIES[1:]
# the paper's three strategies, swept by default
SWEEP_STRATEGIES = ("traditional", "dfs", "greedy")

CSV_SCHEMA_VERSION = 1
DEPTH_COLUMNS = (
    "family", "p_edge", "n", "B", "strategy",
    "mean_steps", "mean_tree_steps", "mean_gate_depth", "mean_cnots",
    "stderr_steps",
)
SUCCESS_COLUMNS = (
    "family", "p_edge", "n", "B", "strategy", "mean_one_minus_psuccess",
)

# fixed circuit angles for depth runs; gate depth and CNOT count do not
# depend on the angle values
_DEPTH_PARAMS = AnsatzParams(p=1, gammas=(0.4,), betas=(0.7,))


@dataclass
class ExperimentConfig:
    family: str
    n_values: tuple[int, ...]
    B_values: tuple[int, ...] = (3,)
    p_edge: float | None = None
    trials: int = 20
    seed: int = 0
    strategies: tuple[str, ...] = SWEEP_STRATEGIES
    noise: NoiseParams | None = None
    average_over_roots: bool = False

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "erdos_renyi" and self.p_edge is None:
            raise ValueError("erdos_renyi needs p_edge")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.n_values:
            raise ValueError("n_values is empty")
        if list(self.n_values) != sorted(self.n_values):
            raise ValueError("n_values must be ascending")
        unknown = set(self.strategies) - set(STRATEGIES)
        if unknown:
            raise ValueError(f"unknown strategies {sorted(unknown)}")
        if "greedy" in self.strategies and not self.B_values:
            raise ValueError("greedy strategy needs B_values")
        for B in self.B_values:
            if B < 1:
                raise ValueError(f"B must be >= 1, got {B}")


def derive_seed(seed: int, n: int, trial: int) -> int:
    """Stable, well-mixed per-instance seed."""
    return int(np.random.SeedSequence([seed, n, trial]).generate_state(1)[0])


def graph_instance(cfg: ExperimentConfig, n: int, trial: int) -> Graph:
    if cfg.family == "erdos_renyi":
        assert cfg.p_edge is not None
        return generate_erdos_renyi(n, cfg.p_edge, derive_seed(cfg.seed, n, trial))
    if cfg.family == "complete":
        return generate_complete(n)
    return generate_cycle(n)


def tree_for(g: Graph, strategy: str, root: int, B: int | None) -> RootedSpanningTree:
    """The spanning tree a tree strategy grows from root (B: greedy only)."""
    if strategy == "dfs":
        return build_dfs_tree(g, root)
    if strategy == "bfs":
        return build_bfs_tree(g, root)
    if strategy == "greedy":
        assert B is not None
        return build_greedy_tree(g, root, HeuristicConfig(B=B))
    raise ValueError(f"unknown tree strategy {strategy!r}")


def schedule_for(g: Graph, strategy: str, root: int, B: int | None) -> StepSchedule:
    """Edge-coloured steps: plain for "traditional", tree-ordered otherwise."""
    if strategy == "traditional":
        return schedule_traditional(g)
    return schedule_tree_ordered(g, tree_for(g, strategy, root, B))


def circuit_for(g: Graph, sched: StepSchedule, params: AnsatzParams):
    """The full ansatz for a traditional schedule, the CNOT-reduced one for
    a tree-ordered schedule."""
    if sched.tree is None:
        return build_traditional(g, params, sched)
    return build_optimized(g, params, sched.tree, sched)


def _cells(cfg: ExperimentConfig):
    """Yield ((n, strategy, B), instances) per sweep row, in row order.

    ``instances`` lazily yields (trial, g, sched) for every graph instance
    and root, so only one schedule is alive at a time. The same instances
    serve every strategy and B; "traditional" is root-independent and runs
    root 0 only.
    """
    def instances(graphs: list[Graph], strategy: str, B: int | None):
        for trial, g in enumerate(graphs):
            all_roots = cfg.average_over_roots and strategy != "traditional"
            for root in range(g.n) if all_roots else (0,):
                yield trial, g, schedule_for(g, strategy, root, B)

    for n in cfg.n_values:
        graphs = [graph_instance(cfg, n, t) for t in range(cfg.trials)]
        for strategy in cfg.strategies:
            for B in cfg.B_values if strategy == "greedy" else (None,):
                yield (n, strategy, B), instances(graphs, strategy, B)


def _row(cfg: ExperimentConfig, n: int, strategy: str, B: int | None, **metrics) -> dict:
    return {"family": cfg.family, "p_edge": cfg.p_edge, "n": n, "B": B,
            "strategy": strategy, **metrics}


def run_depth_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Steps / gate-depth / CNOT metrics per (n, strategy[, B]) cell."""
    rows: list[dict] = []
    for (n, strategy, B), instances in _cells(cfg):
        steps, tree_steps, depths, cnots = [], [], [], []
        for _, g, sched in instances:
            circ = circuit_for(g, sched, _DEPTH_PARAMS)
            steps.append(sched.num_steps)
            if sched.tree is not None:
                tree_steps.append(sched.tree_steps())
            depths.append(circ.depth())
            cnots.append(circ.cnot_count())
        rows.append(_row(
            cfg, n, strategy, B,
            mean_steps=float(np.mean(steps)),
            mean_tree_steps=float(np.mean(tree_steps)) if tree_steps else None,
            mean_gate_depth=float(np.mean(depths)),
            mean_cnots=float(np.mean(cnots)),
            stderr_steps=float(np.std(steps, ddof=1) / np.sqrt(len(steps)))
            if len(steps) > 1 else 0.0,
        ))
    return rows


def run_success_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Mean 1 - P_success per (n, strategy[, B]); graphs and the seeded
    random (gamma, beta) pair are shared across strategies."""
    if cfg.noise is None:
        raise ValueError("success experiment needs noise parameters")
    rows: list[dict] = []
    for (n, strategy, B), instances in _cells(cfg):
        losses = []
        for trial, g, sched in instances:
            rng = np.random.default_rng(derive_seed(cfg.seed + 1, n, trial))
            gamma, beta = rng.uniform(0.0, 2.0 * np.pi, size=2)
            params = AnsatzParams(p=1, gammas=(float(gamma),), betas=(float(beta),))
            result = run_noisy(circuit_for(g, sched, params), sched, cfg.noise)
            losses.append(1.0 - result.p_success)
        rows.append(_row(cfg, n, strategy, B,
                         mean_one_minus_psuccess=float(np.mean(losses))))
    return rows


def fit_slope(points: list[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares line through (n, depth) points: (slope, intercept)."""
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    if np.all(xs == xs[0]):
        raise ValueError("need at least 2 distinct n values")
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(intercept)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def rows_to_csv(rows: list[dict], columns: tuple[str, ...]) -> str:
    """Render rows with a header line; stable byte-for-byte for equal input."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"
