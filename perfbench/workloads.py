"""The four workloads: their inputs, their ops and the checks on their outputs.

A workload's inputs are a *corpus*: a list of rounds, each round a list of
calls, generated from the workload seed. Every round holds the same mix of
sizes, so throughput measured over whole rounds does not depend on where a
run stops. One pass over the corpus is the unit the output digests and the
per-layer numbers refer to.

Each call returns the exact bytes a user of the program would get (CSV text,
circuit dump, oracle dump, or the fixed-format values of an equivalence
check). ``inspect`` reads those bytes after the call's timing has stopped
and returns the problems found plus the quality figures for the summary.

The ops reach the package only through module attributes looked up at call
time (``T.bench.run_depth_experiment``), so the span wrappers that
``spans.install`` puts on those names see every call.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass

import numpy as np

import treeqaoa as T
import treeqaoa.cli  # noqa: F401  (not imported by the package itself)
from treeqaoa.bench import DEPTH_COLUMNS, SUCCESS_COLUMNS, ExperimentConfig
from treeqaoa.circuits import AnsatzParams
from treeqaoa.simulate import NoiseParams
from treeqaoa.trees import HeuristicConfig


@dataclass
class Call:
    kind: str
    arg: object
    ops: int     # ops this call completes (the unit of ops_per_s)
    label: str   # size class, e.g. "n=600 greedy"


@dataclass
class Inspection:
    problems: list[str]
    quality: dict[str, float]   # per call; summarized as a mean, or a min for *_min


# ---------------------------------------------------------------------------
# inputs generated by the benchmark itself


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    queue = deque([0])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def gnp_edges(rng: np.random.Generator, n: int, p: float) -> list[tuple[int, int]]:
    """Connected G(n, p) edge list in canonical sorted order."""
    iu, iv = np.triu_indices(n, 1)
    while True:
        keep = rng.random(iu.size) < p
        edges = list(zip(iu[keep].tolist(), iv[keep].tolist()))
        if _connected(n, edges):
            return edges


def gnm_edges(rng: np.random.Generator, n: int, m: int) -> list[tuple[int, int]]:
    """Connected G(n, m) edge list: m distinct pairs chosen uniformly."""
    iu, iv = np.triu_indices(n, 1)
    while True:
        pick = np.sort(rng.choice(iu.size, size=m, replace=False))
        edges = list(zip(iu[pick].tolist(), iv[pick].tolist()))
        if _connected(n, edges):
            return edges


def write_graph(path: str, n: int, edges: list[tuple[int, int]]) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{n} {len(edges)}\n")
        fh.write("".join(f"{u} {v}\n" for u, v in edges))
    return path


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    return data


def _csv_rows(out: bytes) -> list[dict[str, str]]:
    lines = out.decode().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# ---------------------------------------------------------------------------


class Workload:
    name: str

    def pair_problems(self, calls: list[Call], found: list[Inspection]) -> list[tuple[int, str]]:
        """Checks across the calls of one pass: (call index, problem)."""
        return []


class DepthSweep(Workload):
    """``run_depth_experiment`` + ``rows_to_csv``: each call sweeps one
    connected ER(0.6) graph through every strategy and B; a round has one
    call per n."""

    name = "depth_sweep"
    SIZES = {"full": (20, 40, 60, 80, 100), "smoke": (10, 20)}
    ROUNDS = {"full": 2, "smoke": 1}
    B_VALUES = (3, 6, 10)

    def corpus(self, seed: int, scale: str, workdir: str) -> list[list[Call]]:
        per_n = 2 + len(self.B_VALUES)  # traditional, dfs, greedy x B
        return [[Call("depth", ExperimentConfig(
            family="erdos_renyi", n_values=(n,), B_values=self.B_VALUES,
            p_edge=0.6, trials=1, seed=seed * 1000 + r,
            strategies=("traditional", "dfs", "greedy"),
        ), per_n, f"n={n}") for n in self.SIZES[scale]] for r in range(self.ROUNDS[scale])]

    def run(self, call: Call) -> bytes:
        rows = T.bench.run_depth_experiment(call.arg)
        return T.bench.rows_to_csv(rows, DEPTH_COLUMNS).encode()

    def inspect(self, call: Call, out: bytes) -> Inspection:
        problems = []
        rows = _csv_rows(out)
        if len(rows) != call.ops:
            problems.append(f"{len(rows)} rows, expected {call.ops}")
        trad = {r["n"]: float(r["mean_cnots"]) for r in rows if r["strategy"] == "traditional"}
        for r in rows:
            if r["strategy"] != "traditional":
                saved = trad.get(r["n"], 0.0) - float(r["mean_cnots"])
                if saved != int(r["n"]) - 1:
                    problems.append(f"n={r['n']} {r['strategy']} B={r['B']}: "
                                    f"CNOT saving {saved}, expected n-1")
        tree_rows = [r for r in rows if r["strategy"] != "traditional"]
        return Inspection(problems, {
            "tree_steps_mean": float(np.mean([float(r["mean_tree_steps"]) for r in tree_rows])),
            "gate_depth_mean": float(np.mean([float(r["mean_gate_depth"]) for r in rows])),
            "cnot_mean": float(np.mean([float(r["mean_cnots"]) for r in rows])),
        })


def _gate_depth(dump: bytes) -> tuple[int, int]:
    """(logical depth, CX count) recomputed from a circuit dump."""
    lines = dump.split(b"\n")
    n = int(lines[0].split()[0])
    frontier = [0] * n
    cx = 0
    for line in lines[1:]:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == b"CX":
            a, b = int(parts[1]), int(parts[2])
            lvl = max(frontier[a], frontier[b]) + 1
            frontier[a] = frontier[b] = lvl
            cx += 1
        else:
            q = int(parts[1])
            frontier[q] += 1
    return max(frontier), cx


class LargeCircuit(Workload):
    """In-process ``treeqaoa circuit`` on dense ER(0.5) edge-list files
    written at set-up; every round runs each file with both strategies."""

    name = "large_circuit"
    SIZES = {"full": (300, 400), "smoke": (40, 60)}
    STRATEGIES = ("traditional", "greedy")

    def corpus(self, seed: int, scale: str, workdir: str) -> list[list[Call]]:
        rng = np.random.default_rng([seed, 1])
        calls = []
        for n in self.SIZES[scale]:
            path = write_graph(os.path.join(workdir, f"er{n}.txt"), n, gnp_edges(rng, n, 0.5))
            for strategy in self.STRATEGIES:
                calls.append(Call("circuit", (path, n, strategy), 1, f"n={n} {strategy}"))
        return [calls]

    def run(self, call: Call) -> bytes:
        path, _n, strategy = call.arg
        out = path + f".{strategy}.out"
        rc = T.cli.main(["circuit", path, "--strategy", strategy, "--B", "6", "--out", out])
        if rc != 0:
            raise RuntimeError(f"treeqaoa circuit exited with {rc}")
        return _read(out)

    def inspect(self, call: Call, out: bytes) -> Inspection:
        header = out[:out.index(b"\n")].split()
        problems = []
        if int(header[1]) != out.count(b"\n") - 1:
            problems.append(f"header declares {int(header[1])} gates")
        depth, cnot = _gate_depth(out)
        return Inspection(problems, {"gate_depth_mean": float(depth), "cnot_mean": float(cnot)})

    def pair_problems(self, calls: list[Call], found: list[Inspection]) -> list[tuple[int, str]]:
        """The reduced circuit of a graph has exactly n-1 fewer CNOTs."""
        trad = {c.arg[0]: f.quality["cnot_mean"] for c, f in zip(calls, found)
                if c.arg[2] == "traditional"}
        bad = []
        for i, (c, f) in enumerate(zip(calls, found)):
            path, n, strategy = c.arg
            if strategy != "traditional" and trad.get(path, -1) - f.quality["cnot_mean"] != n - 1:
                bad.append((i, f"{c.label}: CNOT saving is not n-1"))
        return bad


class NoisySuccess(Workload):
    """``run_success_experiment`` + ``rows_to_csv`` with default noise: each
    call runs one ER(0.4) graph through one strategy, so no call is longer
    than one noisy simulation. A graph depends only on its n and its
    config seed, so the three calls of a (round, n) share their graph.

    The density-matrix cost grows with the gate count, which follows the
    edge count, and under G(n, 0.4) at n <= 9 the edge count varies by
    about 20% between graphs. Each config seed is therefore the first one
    at or after ``seed * 1000 + 100 * round`` whose graph has the expected
    edge count, so every seed gives the same amount of work."""

    name = "noisy_success"
    P_EDGE = 0.4
    SIZES = {"full": (8, 9), "smoke": (5, 6)}
    ROUNDS = {"full": 2, "smoke": 1}
    STRATEGIES = ("traditional", "dfs", "greedy")

    def _config(self, seed: int, n: int, strategy: str) -> ExperimentConfig:
        return ExperimentConfig(family="erdos_renyi", n_values=(n,), p_edge=self.P_EDGE,
                                trials=1, seed=seed, strategies=(strategy,),
                                noise=NoiseParams())

    def corpus(self, seed: int, scale: str, workdir: str) -> list[list[Call]]:
        rounds = []
        for r in range(self.ROUNDS[scale]):
            calls = []
            for n in self.SIZES[scale]:
                m = round(self.P_EDGE * n * (n - 1) / 2)
                cfg_seed = seed * 1000 + 100 * r
                while T.bench.graph_instance(self._config(cfg_seed, n, "dfs"), n, 0).m != m:
                    cfg_seed += 1
                calls += [Call("success", self._config(cfg_seed, n, strategy), 1,
                               f"n={n} {strategy}") for strategy in self.STRATEGIES]
            rounds.append(calls)
        return rounds

    def run(self, call: Call) -> bytes:
        rows = T.bench.run_success_experiment(call.arg)
        return T.bench.rows_to_csv(rows, SUCCESS_COLUMNS).encode()

    def inspect(self, call: Call, out: bytes) -> Inspection:
        rows = _csv_rows(out)
        values = [float(r["mean_one_minus_psuccess"]) for r in rows]
        problems = [f"1 - P_success = {v} outside [0, 1]" for v in values if not 0.0 <= v <= 1.0]
        if len(rows) != call.ops:
            problems.append(f"{len(rows)} rows, expected {call.ops}")
        return Inspection(problems, {"infidelity_mean": float(np.mean(values))})


class GroundTruth(Workload):
    """In-process ``treeqaoa oracle`` on G(7, 13) files (edge density 0.62),
    plus p=1 equivalence checks of the traditional against the reduced
    circuit at n = 14..16 on the statevector engine, on G(n, m) graphs with
    m = round(0.5 * n(n-1)/2), so the gate count does not vary with the
    seed. The oracle's time grows steeply with the edge count too."""

    name = "ground_truth"
    ORACLE = {"full": 13, "smoke": 2}          # oracle calls per round
    EQUIV = {"full": (14, 15, 16), "smoke": (6,)}
    ROUNDS = {"full": 3, "smoke": 1}

    def corpus(self, seed: int, scale: str, workdir: str) -> list[list[Call]]:
        rng = np.random.default_rng([seed, 2])
        rounds = []
        for r in range(self.ROUNDS[scale]):
            calls = []
            for i in range(self.ORACLE[scale]):
                path = write_graph(os.path.join(workdir, f"o{r}_{i}.txt"), 7, gnm_edges(rng, 7, 13))
                calls.append(Call("oracle", path, 1, "oracle"))
            sizes = self.EQUIV[scale]
            n = sizes[r % len(sizes)]
            g = T.Graph(n, gnm_edges(rng, n, round(n * (n - 1) / 4)))
            gamma, beta = rng.uniform(0.0, 2.0 * np.pi, size=2)
            params = AnsatzParams(p=1, gammas=(float(gamma),), betas=(float(beta),))
            calls.append(Call("equiv", (g, params), 1, "equivalence"))
            rounds.append(calls)
        return rounds

    def run(self, call: Call) -> bytes:
        if call.kind == "oracle":
            out = call.arg + ".out"
            rc = T.cli.main(["oracle", call.arg, "--root", "0", "--B", "3", "--out", out])
            if rc != 0:
                raise RuntimeError(f"treeqaoa oracle exited with {rc}")
            return _read(out)
        g, params = call.arg
        trad = T.circuits.build_traditional(g, params, T.scheduling.schedule_traditional(g))
        tree = T.trees.build_greedy_tree(g, 0, HeuristicConfig(B=3))
        sched = T.scheduling.schedule_tree_ordered(g, tree)
        reduced = T.circuits.build_optimized(g, params, tree, sched)
        a = T.simulate.run_ideal(trad)
        b = T.simulate.run_ideal(reduced)
        fid = T.simulate.fidelity(a, b)
        cut_a = T.simulate.expected_cut(a, g)
        cut_b = T.simulate.expected_cut(b, g)
        return f"{g.n} {g.m} {fid:.9f} {cut_a:.9f} {cut_b:.9f}\n".encode()

    def inspect(self, call: Call, out: bytes) -> Inspection:
        if call.kind == "oracle":
            head = dict(line.split(" ", 1) for line in out.decode().splitlines()[:3])
            best, heuristic = int(head["best_steps"]), int(head["heuristic_steps"])
            problems = [] if heuristic >= best else [f"heuristic {heuristic} < oracle {best}"]
            return Inspection(problems, {"exact_gap_mean": float(heuristic - best)})
        n, m, fid, cut_a, cut_b = out.split()
        problems = []
        if float(fid) < 1.0 - 1e-9:
            problems.append(f"equivalence fidelity {fid.decode()} < 1 - 1e-9")
        if abs(float(cut_a) - float(cut_b)) > 1e-9 * int(m):
            problems.append(f"expected cuts differ: {cut_a.decode()} vs {cut_b.decode()}")
        return Inspection(problems, {"fidelity_min": float(fid)})


WORKLOADS = {w.name: w for w in (DepthSweep(), LargeCircuit(), NoisySuccess(), GroundTruth())}
