"""Gate-level ansatz circuits for Max-Cut, traditional and CNOT-reduced.

The ansatz is H on every qubit, then p layers of (cost layer, mixer layer).
The traditional cost block for an edge (j, k) is CNOT(j, k), RZ(k, 2*gamma),
CNOT(j, k), which realizes exp(-i*gamma*Z_j*Z_k) exactly (the constant term
of the edge Hamiltonian only contributes a global phase, which we drop).
The mixer is RX(q, 2*beta) on every qubit.

The reduced builder drops the leading CNOT of every spanning-tree edge in
layer 1, emitting RZ(child, 2*gamma_1) then CNOT(parent, child): with the
tree-ordered schedule, the child qubit is still in |+> when the dropped
CNOT would have fired, so it acted as the identity. Non-tree edges and all
layers past the first keep the full three-gate block, so the saving is
exactly n-1 CNOTs regardless of p.

Each cost-block gate is tagged (layer, step), the schedule step its edge runs
in, so the circuit carries its own steps; H and mixer gates are untagged.

Depth here is architecture-independent logical depth: the longest chain of
gates that pairwise share a qubit, each gate counting 1. block_metrics gives
it and the CNOT count without building a gate. A per-qubit frontier f is 1
after the H layer; per layer, in step order, a full block sets both endpoints
to max(f_j, f_k) + 3, a layer-1 reduced block to max(f_parent, f_child + 1) + 1,
and the mixer adds 1 to every qubit. The depth is max(f); the CNOT count is
2*m*p, minus n-1 for a tree schedule.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .graphs import Graph
from .scheduling import StepSchedule, tree_order_fault, verify_schedule
from .trees import RootedSpanningTree

MAX_CIRCUIT_GATES = 10_000_000  # about 1.3 GB at ~130 bytes per gate
_ARITY = {"H": 1, "RX": 1, "RZ": 1, "CX": 2}  # the gate set and each gate's qubit count
_TEXT_BLOCKS = 8192  # cost blocks per chunk of ansatz_text
_MAX_ANGLE = sys.float_info.max / 2  # gates rotate by twice the angle, which must be finite


class Gate(NamedTuple):
    """One gate: name in {H, RZ, RX, CX}, qubit tuple, optional angle.

    tag is (layer, step) for a gate of a cost block, the 1-based ansatz
    layer and the schedule step of its edge, and None for H and mixer gates.
    """

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None
    tag: tuple[int, int] | None = None


@dataclass(frozen=True)
class AnsatzParams:
    """Layer count p with per-layer cost angles (gammas) and mixer angles."""

    p: int
    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if len(self.gammas) != self.p or len(self.betas) != self.p:
            raise ValueError(
                f"need {self.p} gammas and betas, got "
                f"{len(self.gammas)} and {len(self.betas)}"
            )
        for name in ("gammas", "betas"):
            for i, angle in enumerate(getattr(self, name)):
                if not abs(angle) <= _MAX_ANGLE:  # NaN-safe
                    raise ValueError(f"angles must be finite, and so must twice each: "
                                     f"{name}[{i}] = {angle!r}")


class CircuitIR:
    """Immutable ordered gate list over n_qubits."""

    __slots__ = ("n_qubits", "gates")

    def __init__(self, n_qubits: int, gates: list[Gate] | tuple[Gate, ...]):
        for gate in gates:
            if len(gate.qubits) != _ARITY.get(gate.name):
                raise ValueError(f"gate {gate} is not a one-qubit H, RX, RZ or two-qubit CX")
            rotation = gate.name in ("RX", "RZ")
            if rotation == (gate.angle is None) or not math.isfinite(gate.angle or 0):
                raise ValueError(f"gate {gate} needs a finite angle on RX and RZ, none on H and CX")
            if any(not 0 <= q < n_qubits for q in gate.qubits):
                raise ValueError(f"gate {gate} out of range for {n_qubits} qubits")
            if gate.name == "CX" and gate.qubits[0] == gate.qubits[1]:
                raise ValueError(f"CX control equals target in {gate}")
        self.n_qubits = n_qubits
        self.gates: tuple[Gate, ...] = tuple(gates)

    @classmethod
    def _trusted(cls, n_qubits: int, gates: list[Gate]) -> CircuitIR:
        """No per-gate checks: builder output takes its qubits from Graph edges."""
        circ = cls.__new__(cls)
        circ.n_qubits, circ.gates = n_qubits, tuple(gates)
        return circ

    def depth(self) -> int:
        """Longest dependency chain; gates conflict iff they share a qubit."""
        frontier = [0] * self.n_qubits
        for gate in self.gates:
            lvl = 1 + max(frontier[q] for q in gate.qubits)
            for q in gate.qubits:
                frontier[q] = lvl
        return max(frontier, default=0) if self.n_qubits else 0

    def cnot_count(self) -> int:
        return sum(1 for gate in self.gates if gate.name == "CX")

    def to_text(self) -> str:
        """Dump format: header "n_qubits k", then one gate per line."""
        lines = [f"{self.n_qubits} {len(self.gates)}"]
        for name, qubits, angle, _tag in self.gates:
            text = f"{name} {' '.join(map(str, qubits))}"
            lines.append(text if angle is None else f"{text} {angle!r}")
        return "\n".join(lines) + "\n"

    def __len__(self) -> int:
        return len(self.gates)


def check_circuit_size(n: int, m: int, p: int) -> None:
    """Refuse, before any gate is built, a p-layer ansatz on n vertices and m
    edges whose gate bound n + p(n + 3m) exceeds MAX_CIRCUIT_GATES."""
    gates = n + p * (n + 3 * m)
    if gates > MAX_CIRCUIT_GATES:
        raise ValueError(f"a {p}-layer circuit on n={n}, m={m} has up to {gates} gates, "
                         f"more than the cap of {MAX_CIRCUIT_GATES}")


def _blocks(g: Graph, params: AnsatzParams, sched: StepSchedule):
    """Check a synthesis once; return the positions of g's edges in step
    order (canonical order within a step), the steps by position, and
    {position: (parent, child)} for the tree's edges, empty if there is no
    tree."""
    # verify's first violation, else the first tree edge not after its parent edge
    if fault := (verify_schedule(g, sched) or [tree_order_fault(sched)])[0]:
        raise ValueError(f"schedule fails verification: {fault}")
    steps, t = sched.steps, sched.tree  # steps align with g.edges, which verification implies
    reduced = {} if t is None else dict(zip(sched.tree_index(), t.edges.values()))
    check_circuit_size(g.n, g.m, params.p)
    return sorted(range(g.m), key=steps.__getitem__), steps, reduced


def _ansatz(g: Graph, params: AnsatzParams, sched: StepSchedule) -> CircuitIR:
    """H layer, then p (cost, mixer) layers of gates in _blocks order. Gates
    skip Gate's generated constructor and share one (q,) per qubit, one
    angle per layer and one (layer, step) tag per step."""
    order, steps, reduced = _blocks(g, params, sched)
    edges, gate = g.edges, tuple.__new__
    one = [(q,) for q in range(g.n)]
    gates: list[Gate] = [gate(Gate, ("H", q1, None, None)) for q1 in one]
    for layer, (gamma, beta) in enumerate(zip(params.gammas, params.betas), start=1):
        angle, last, blocks = 2.0 * gamma, None, reduced if layer == 1 else {}
        for i in order:
            if steps[i] != last:
                last = steps[i]
                tag = (layer, last)
            if (pc := blocks.get(i)) is not None:
                gates += (gate(Gate, ("RZ", one[pc[1]], angle, tag)),
                          gate(Gate, ("CX", pc, None, tag)))
            else:
                e = edges[i]
                cx = gate(Gate, ("CX", e, None, tag))  # immutable, so both CNOTs share it
                gates += (cx, gate(Gate, ("RZ", one[e[1]], angle, tag)), cx)
        angle = 2.0 * beta
        gates += [gate(Gate, ("RX", q1, angle, None)) for q1 in one]
    return CircuitIR._trusted(g.n, gates)


def ansatz_text(g: Graph, params: AnsatzParams, sched: StepSchedule) -> Iterator[str]:
    """circuit_for(g, sched, params).to_text() in chunks, written from _blocks
    without a gate: each full block's CX line once per edge, each RZ and RX
    line once per qubit and layer. The synthesis is checked at the call, not
    on the first next()."""
    order, _steps, reduced = _blocks(g, params, sched)
    n, edges = g.n, g.edges
    cx = [f"CX {j} {k}\n" for j, k in edges]

    def chunks() -> Iterator[str]:
        yield f"{n} {n + params.p * (n + 3 * g.m) - len(reduced)}\n"
        yield "".join([f"H {q}\n" for q in range(n)])
        for layer, (gamma, beta) in enumerate(zip(params.gammas, params.betas), start=1):
            angle = repr(2.0 * gamma)  # the builder's angle for this layer
            rz = [f"RZ {q} {angle}\n" for q in range(n)]
            blocks = reduced if layer == 1 else {}
            for start in range(0, len(order), _TEXT_BLOCKS):
                parts: list[str] = []
                for i in order[start:start + _TEXT_BLOCKS]:
                    if (pc := blocks.get(i)) is not None:
                        parts += (rz[pc[1]], f"CX {pc[0]} {pc[1]}\n")
                    else:
                        parts += (cx[i], rz[edges[i][1]], cx[i])
                yield "".join(parts)
            angle = repr(2.0 * beta)
            yield "".join([f"RX {q} {angle}\n" for q in range(n)])

    return chunks()


def block_metrics(g: Graph, params: AnsatzParams, sched: StepSchedule) -> tuple[int, int]:
    """(depth(), cnot_count()) of the schedule's ansatz, from its blocks alone."""
    order, _steps, reduced = _blocks(g, params, sched)
    edges = g.edges
    f = [1] * g.n
    for layer in range(1, params.p + 1):
        blocks = reduced if layer == 1 else {}
        for i in order:
            if (pc := blocks.get(i)) is not None:
                par, child = pc  # conditional expressions: builtin max costs more
                a, b = f[par], f[child] + 1
                f[par] = f[child] = (a if a > b else b) + 1
            else:
                j, k = edges[i]
                a, b = f[j], f[k]
                f[j] = f[k] = (a if a > b else b) + 3
        f = [x + 1 for x in f]
    return max(f), 2 * g.m * params.p - len(reduced)


def build_traditional(g: Graph, params: AnsatzParams, sched: StepSchedule) -> CircuitIR:
    """Full three-gate block for every edge, in schedule-step order."""
    if sched.tree is not None:
        raise ValueError("expected a traditional schedule, got a tree-ordered one")
    return _ansatz(g, params, sched)


def build_optimized(g: Graph, params: AnsatzParams, t: RootedSpanningTree,
                    sched: StepSchedule) -> CircuitIR:
    """Reduced circuit: layer-1 tree edges lose their leading CNOT.

    Tree edges are oriented parent -> child (control -> target); the
    schedule must be tree-ordered over t and pass verification, since the
    reduction is only sound under that edge ordering.
    """
    if sched.tree is not t:
        raise ValueError("schedule is not a tree-ordered schedule over this tree")
    return _ansatz(g, params, sched)
