"""Span tracing around the package's public functions, installed from outside.

The package imports its dependencies by name (``from .trees import
build_greedy_tree``), so every caller looks a function up in its own module
at call time. ``install`` replaces each such binding with a wrapper that
records a span; ``Tracer.uninstall`` puts the originals back, so untraced
passes run the unmodified code with no wrapper cost at all.

A span is (function, key, start_ns, end_ns, parent, op). ``key`` is the
per-layer metric the span's self time is charged to; the graph helpers
(``edges_connected`` and ``Graph.__init__``) charge the key of the graphs
function that called them. Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import functools
import json
import time
from array import array

# (module, attribute, key): every binding the package's own call sites use,
# plus the module-level names the benchmark's own ops call.
FUNCTIONS = [
    ("graphs", "edges_connected", None),
    ("bench", "generate_erdos_renyi", "graphs.gen"),
    ("cli", "generate_erdos_renyi", "graphs.gen"),
    ("cli", "read_edge_list", "graphs.parse"),
    ("bench", "build_dfs_tree", "trees"),
    ("bench", "build_greedy_tree", "trees"),
    ("cli", "build_dfs_tree", "trees"),
    ("cli", "build_bfs_tree", "trees"),
    ("cli", "build_greedy_tree", "trees"),
    ("oracle", "build_greedy_tree", "trees"),
    ("trees", "build_greedy_tree", "trees"),
    ("bench", "schedule_traditional", "scheduling.schedule"),
    ("bench", "schedule_tree_ordered", "scheduling.schedule"),
    ("cli", "schedule_traditional", "scheduling.schedule"),
    ("cli", "schedule_tree_ordered", "scheduling.schedule"),
    ("oracle", "schedule_tree_ordered", "scheduling.schedule"),
    ("scheduling", "schedule_traditional", "scheduling.schedule"),
    ("scheduling", "schedule_tree_ordered", "scheduling.schedule"),
    ("bench", "verify_schedule", "scheduling.verify"),
    ("circuits", "verify_schedule", "scheduling.verify"),
    ("bench", "build_traditional", "circuits.build"),
    ("bench", "build_optimized", "circuits.build"),
    ("cli", "build_traditional", "circuits.build"),
    ("cli", "build_optimized", "circuits.build"),
    ("circuits", "build_traditional", "circuits.build"),
    ("circuits", "build_optimized", "circuits.build"),
    ("bench", "run_noisy", "simulate.noisy"),
    ("cli", "run_noisy", "simulate.noisy"),
    ("simulate", "run_ideal", "simulate.ideal"),
    ("simulate", "fidelity", "simulate.ideal"),
    ("simulate", "expected_cut", "simulate.cut"),
    ("cli", "solve_exact", "oracle"),
    ("cli", "heuristic_gap", "oracle"),
    ("oracle", "solve_exact", "oracle"),
    ("bench", "run_depth_experiment", "bench"),
    ("bench", "run_success_experiment", "bench"),
    ("bench", "rows_to_csv", "bench.csv"),
    ("cli", "main", "cli"),
]

# (module, class, method, key)
METHODS = [
    ("graphs", "Graph", "__init__", None),
    ("circuits", "CircuitIR", "depth", "circuits.metrics"),
    ("circuits", "CircuitIR", "cnot_count", "circuits.metrics"),
    ("circuits", "CircuitIR", "to_text", "circuits.text"),
]

HARNESS = "harness"  # the benchmark's own root span around each op


class Tracer:
    """Spans in flat arrays, which the garbage collector never scans, so
    holding them does not slow the untraced passes that follow."""

    def __init__(self) -> None:
        self.names: list[str] = []          # code -> function or key name
        self._codes: dict[str, int] = {}
        self.function = array("i")
        self.key = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.current_op = -1
        self.gates = 0              # gates in every circuit built
        self.trees_enumerated = 0   # sum of OracleResult.trees_enumerated
        self.dm_bytes = 0           # largest 16 * 4**n density matrix simulated
        self._saved: list[tuple[object, str, object]] = []

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _open(self, function: int, key: int) -> int:
        index = len(self.start)
        self.function.append(function)
        self.key.append(key)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0)
        self.stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def span(self, function: str, key: str | None, fn):
        tracer = self
        fcode = self.code(function)
        kcode = None if key is None else self.code(key)
        other = self.code("graphs.other")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            own = kcode
            if own is None:  # graph helper: charged to the calling graphs function
                up = tracer.key[tracer.stack[-1]] if tracer.stack else other
                own = up if tracer.names[up].startswith("graphs.") else other
            index = tracer._open(fcode, own)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[index] = time.perf_counter_ns()
                tracer.stack.pop()
            tracer._observe(key, function, args, result)
            return result

        return wrapper

    def _observe(self, key: str | None, function: str, args, result) -> None:
        if key == "circuits.build":
            self.gates += len(result)
        elif function == "oracle.solve_exact":
            self.trees_enumerated += result.trees_enumerated
        elif key == "simulate.noisy":
            self.dm_bytes = max(self.dm_bytes, 16 * 4 ** args[0].n_qubits)

    def begin_op(self, op: int) -> int:
        self.current_op = op
        self.stack = []
        return self._open(self.code(HARNESS), self.code(HARNESS))

    def end_op(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self.stack = []

    def install(self, package) -> None:
        for module, attr, key in FUNCTIONS:
            mod = getattr(package, module)
            self._replace(mod, attr, self.span(f"{module}.{attr}", key, getattr(mod, attr)))
        for module, cls_name, attr, key in METHODS:
            cls = getattr(getattr(package, module), cls_name)
            self._replace(cls, attr, self.span(f"{cls_name}.{attr}", key, getattr(cls, attr)))

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "name": self.names[self.function[i]], "key": self.names[self.key[i]],
                    "start_ns": self.start[i], "end_ns": self.end[i],
                    "parent": self.parent[i], "op": self.op[i]}) + "\n")

    def self_times(self) -> dict[str, float]:
        """Seconds per key: each span's duration minus its children's."""
        child = [0] * len(self.start)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        totals: dict[str, float] = {}
        for i, key in enumerate(self.key):
            name = self.names[key]
            totals[name] = totals.get(name, 0.0) + (self.end[i] - self.start[i] - child[i]) / 1e9
        return totals

    def calls(self, functions: set[str]) -> float:
        """Calls to ``functions`` per op that made at least one of them."""
        codes = {self._codes[f] for f in functions if f in self._codes}
        hits = [self.op[i] for i, f in enumerate(self.function) if f in codes]
        return len(hits) / len(set(hits)) if hits else 0.0

    def er_accept_ratio(self) -> float:
        """Graphs returned per connectivity test made on an ER sample.

        The connectivity test inside ``Graph.__init__`` re-checks the
        accepted sample and is not counted as a sample.
        """
        gen = {self._codes[f] for f in ("bench.generate_erdos_renyi", "cli.generate_erdos_renyi")}
        test = self._codes["graphs.edges_connected"]
        spans = {i for i, f in enumerate(self.function) if f in gen}
        samples = sum(1 for i, f in enumerate(self.function)
                      if f == test and self.parent[i] in spans)
        return len(spans) / samples if samples else 0.0
