"""Command-line front end.

Subcommands: gen, tree, schedule, circuit, simulate, bench-depth,
bench-success, oracle. Graphs travel as edge-list files ("n m" header then
"u v" lines). All output is deterministic for fixed flags and seed; results
go to --out when given, else stdout. Exit code 0 on success, 1 on any
validation failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple

import numpy as np

from .bench import (
    DEPTH_COLUMNS, STRATEGIES, SUCCESS_COLUMNS, SWEEP_STRATEGIES, TREE_STRATEGIES,
    ExperimentConfig, circuit_for, rows_to_csv, run_depth_experiment,
    run_success_experiment, schedule_for, tree_for,
)
from .circuits import AnsatzParams, ansatz_text, check_circuit_size
from .graphs import (
    Graph,
    GraphError,
    generate_complete,
    generate_cycle,
    generate_erdos_renyi,
    read_edge_list,
    write_edge_list,
)
from .oracle import heuristic_gap, solve_exact
from .scheduling import schedule_to_text
from .simulate import NoiseParams, check_density_qubits, run_noisy
from .trees import HeuristicConfig, tree_to_text

# Unused here since strategy dispatch lives in bench.py, but
# perfbench/spans.py traces the package by patching the names each module
# looks up; removing one makes Tracer.install fail.
from .circuits import build_optimized, build_traditional  # noqa: F401
from .scheduling import schedule_traditional, schedule_tree_ordered  # noqa: F401
from .trees import build_bfs_tree, build_dfs_tree, build_greedy_tree  # noqa: F401


def _emit(text, out: str | None) -> None:
    """Write a str, or an iterable of str chunks as they come, to out, else
    to stdout."""
    chunks = (text,) if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)


def _load_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return read_edge_list(fh.read())


def _parse_noise(text: str) -> NoiseParams:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--noise expects 'p_cx,p_1q,p_idle', got {text!r}")
    return NoiseParams(*(float(x) for x in parts))


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _ansatz_params(args, g: Graph) -> AnsatzParams:
    if args.gamma is not None or args.beta is not None:
        if args.gamma is None or args.beta is None:
            raise ValueError("--gamma and --beta must be given together")
        gammas = tuple(float(x) for x in args.gamma.split(","))
        betas = tuple(float(x) for x in args.beta.split(","))
        if args.p not in (None, len(gammas)):
            raise ValueError(f"--p {args.p} disagrees with {len(gammas)} --gamma "
                             f"value{'s' * (len(gammas) != 1)}")
        if args.angle_seed is not None:
            raise ValueError("--angle-seed draws random angles; it cannot be given "
                             "with --gamma/--beta")
        return AnsatzParams(p=len(gammas), gammas=gammas, betas=betas)
    p = 1 if args.p is None else args.p
    if p < 1:  # AnsatzParams' own check, before numpy sees a negative size
        raise ValueError(f"p must be >= 1, got {p}")
    check_circuit_size(g.n, g.m, p)  # before drawing 2p angles
    rng = np.random.default_rng(1 if args.angle_seed is None else args.angle_seed)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=2 * p)
    return AnsatzParams(
        p=p,
        gammas=tuple(float(a) for a in angles[:p]),
        betas=tuple(float(a) for a in angles[p:]),
    )


def _cmd_gen(args) -> None:
    if args.family == "erdos-renyi":
        p_edge = 0.5 if args.p_edge is None else args.p_edge
        g = generate_erdos_renyi(args.n, p_edge, 0 if args.seed is None else args.seed)
    else:
        for flag, value in (("--p-edge", args.p_edge), ("--seed", args.seed)):
            if value is not None:  # only erdos-renyi reads them
                raise ValueError(f"{args.family} takes no {flag}, got {value}")
        g = generate_complete(args.n) if args.family == "complete" else generate_cycle(args.n)
    _emit(write_edge_list(g), args.out)


def _cmd_tree(args) -> None:
    g = _load_graph(args.graph)
    _emit(tree_to_text(tree_for(g, args.strategy, args.root, args.B)), args.out)


def _cmd_schedule(args) -> None:
    g = _load_graph(args.graph)
    sched = schedule_for(g, args.strategy, args.root, args.B)
    _emit(schedule_to_text(g, sched), args.out)


def _cmd_circuit(args) -> None:
    g = _load_graph(args.graph)
    params = _ansatz_params(args, g)
    sched = schedule_for(g, args.strategy, args.root, args.B)
    _emit(ansatz_text(g, params, sched), args.out)  # checked before out is opened


def _cmd_simulate(args) -> None:
    g = _load_graph(args.graph)
    check_density_qubits(g.n)
    params = _ansatz_params(args, g)
    sched = schedule_for(g, args.strategy, args.root, args.B)
    circ = circuit_for(g, sched, params)
    result = run_noisy(circ, _parse_noise(args.noise))
    lines = [
        "strategy,n,m,num_steps,cnot_count,gate_depth,p_success",
        ",".join([
            args.strategy, str(g.n), str(g.m), str(sched.num_steps),
            str(circ.cnot_count()), str(circ.depth()),
            f"{result.p_success:.12f}",
        ]),
    ]
    _emit("\n".join(lines) + "\n", args.out)


def _bench_config(args) -> ExperimentConfig:
    family = args.family.replace("-", "_")
    cfg = ExperimentConfig(
        family=family,
        n_values=_parse_int_list(args.n),
        B_values=(3,) if args.B is None else _parse_int_list(args.B),
        p_edge=args.p_edge,
        trials=args.default_trials if args.trials is None else args.trials,
        seed=0 if args.seed is None else args.seed,
        strategies=tuple(args.strategy.split(",")),
        noise=_parse_noise(args.noise) if getattr(args, "noise", None) else None,
        average_over_roots=args.average_over_roots,
    )
    if args.B is not None and "greedy" not in cfg.strategies:
        raise ValueError(f"only greedy takes --B, got --strategy {args.strategy}")
    if args.average_over_roots and set(cfg.strategies) == {"traditional"}:
        raise ValueError("traditional has no root, so it takes no --average-over-roots")
    return cfg


def _cmd_bench_depth(args) -> None:
    cfg = _bench_config(args)
    for flag, value in (("--seed", args.seed), ("--trials", args.trials)):
        if value is not None and cfg.family != "erdos_renyi":  # one graph per n: one instance
            raise ValueError(f"{args.family} takes no {flag}, got {value}")
    rows = run_depth_experiment(cfg)
    _emit(rows_to_csv(rows, DEPTH_COLUMNS), args.out)


def _cmd_bench_success(args) -> None:
    rows = run_success_experiment(_bench_config(args))
    _emit(rows_to_csv(rows, SUCCESS_COLUMNS), args.out)


def _cmd_oracle(args) -> None:
    g = _load_graph(args.graph)
    config = HeuristicConfig(B=args.B)  # refuses a bad --B before the search
    result = solve_exact(g, args.root)
    heuristic_steps, oracle_steps = heuristic_gap(g, args.root, config)
    lines = [
        f"best_steps {oracle_steps}",
        f"heuristic_steps {heuristic_steps}",
        f"trees_enumerated {result.trees_enumerated}",
    ]
    text = "\n".join(lines) + "\n" + schedule_to_text(g, result.witness_schedule)
    _emit(text, args.out)


def _add_graph_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", help="edge-list file ('n m' header, then 'u v' lines)")


def _add_strategy_args(p: argparse.ArgumentParser, choices) -> None:
    p.add_argument("--strategy", choices=choices, default="greedy")
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--B", type=int, default=3)


def _add_angle_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=int, help="ansatz layer count (default 1 or len(--gamma))")
    p.add_argument("--gamma", help="comma-separated cost angles (radians)")
    p.add_argument("--beta", help="comma-separated mixer angles (radians)")
    p.add_argument("--angle-seed", type=int,
                   help="seed for random angles (default 1); not with --gamma/--beta")


def _add_noise_arg(p: argparse.ArgumentParser) -> None:
    default = ",".join(str(x) for x in astuple(NoiseParams()))  # parsed by the command
    p.add_argument("--noise", default=default, help="p_cx,p_1q,p_idle")


def _add_sweep_args(p: argparse.ArgumentParser, trials: int) -> None:
    p.add_argument("--family", choices=("erdos-renyi", "complete", "cycle"),
                   required=True)
    p.add_argument("--p-edge", type=float, default=None)
    p.add_argument("--n", required=True, help="comma-separated vertex counts")
    p.add_argument("--B", help="comma-separated B values, greedy only (default 3)")
    p.add_argument("--trials", type=int, help=f"instances per n (default {trials})")
    p.add_argument("--seed", type=int, help="instance seed (default 0)")
    p.add_argument("--strategy", default=",".join(SWEEP_STRATEGIES),
                   help=f"comma-separated subset of {','.join(STRATEGIES)}")
    p.add_argument("--average-over-roots", action="store_true")
    p.add_argument("--out")
    p.set_defaults(default_trials=trials)  # None above tells a given --trials apart


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeqaoa",
        description="Low-depth CNOT-reduced Max-Cut ansatz synthesis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph and write its edge list")
    p.add_argument("--family", choices=("erdos-renyi", "complete", "cycle"),
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p-edge", type=float, help="erdos-renyi only (default 0.5)")
    p.add_argument("--seed", type=int, help="erdos-renyi only (default 0)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("tree", help="build a rooted spanning tree")
    _add_graph_arg(p)
    _add_strategy_args(p, TREE_STRATEGIES)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("schedule", help="assign edge blocks to steps")
    _add_graph_arg(p)
    _add_strategy_args(p, STRATEGIES)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("circuit", help="emit the gate-level ansatz circuit")
    _add_graph_arg(p)
    _add_strategy_args(p, STRATEGIES)
    _add_angle_args(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_circuit)

    p = sub.add_parser("simulate", help="noisy density-matrix run")
    _add_graph_arg(p)
    _add_strategy_args(p, STRATEGIES)
    _add_angle_args(p)
    _add_noise_arg(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bench-depth", help="steps/depth sweep to CSV")
    _add_sweep_args(p, trials=20)
    p.set_defaults(func=_cmd_bench_depth)

    p = sub.add_parser("bench-success", help="success-probability sweep to CSV")
    _add_sweep_args(p, trials=10)
    _add_noise_arg(p)
    p.set_defaults(func=_cmd_bench_success)

    p = sub.add_parser("oracle", help="exact minimum steps on a tiny graph")
    _add_graph_arg(p)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--B", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle)

    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first main()


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:  # building it costs more than a small command's run
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        args.func(args)
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # its message is usually empty
        print("error: out of memory", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
