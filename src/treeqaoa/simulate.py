"""Statevector and density-matrix simulation of the ansatz circuits.

Amplitudes are little-endian: basis index i encodes qubit q as bit q of i.
The noisy engine evolves a density matrix, applying a depolarizing channel
after every gate (two-qubit for CNOT, one-qubit otherwise) plus a per-step
idle channel on every qubit untouched by that step's edges, so error
exposure grows both with CNOT count and with schedule depth.

The depolarizing channel with probability p replaces the state of the
affected qubits by the maximally mixed state:
    D_p(rho) = (1 - p) * rho + p * (I / 2^k) (x) Tr_k(rho).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import COST, CircuitIR, Gate
from .graphs import Graph, canonical_edge
from .scheduling import StepSchedule

_SQRT1_2 = 1.0 / np.sqrt(2.0)
_H = np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex)

MAX_STATEVECTOR_QUBITS = 20
MAX_DENSITY_QUBITS = 10


@dataclass(frozen=True)
class StateVector:
    """2^n complex amplitudes, little-endian qubit order, unit norm."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.amplitudes.shape != (2 ** self.n_qubits,):
            raise ValueError("amplitude vector has wrong length")
        norm = float(np.sum(np.abs(self.amplitudes) ** 2))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state not normalized: |psi|^2 = {norm}")


@dataclass(frozen=True)
class NoiseParams:
    """Depolarizing probabilities: per CNOT, per 1-qubit gate, per idle
    qubit per schedule step. Defaults are arbitrary but fixed."""

    p_cx: float = 0.01
    p_1q: float = 0.001
    p_idle: float = 0.002

    def __post_init__(self) -> None:
        for name in ("p_cx", "p_1q", "p_idle"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value}")


@dataclass
class SimResult:
    """Noisy-run outcome: p_success = <psi_ideal| rho |psi_ideal>, and the
    trace of the final state (1 up to float drift)."""

    p_success: float
    ideal_state: StateVector
    trace: float


def _gate_matrix(gate: Gate) -> np.ndarray:
    if gate.name == "H":
        return _H
    if gate.name == "RX":
        c, s = np.cos(0.5 * gate.angle), np.sin(0.5 * gate.angle)
        return np.array([[c, -1j * s], [-1j * s, c]])
    raise ValueError(f"unknown gate {gate.name!r}")


def run_ideal(c: CircuitIR) -> StateVector:
    """Exact statevector from |0...0>."""
    n = c.n_qubits
    if n > MAX_STATEVECTOR_QUBITS:
        raise ValueError(f"too many qubits for statevector: {n} > {MAX_STATEVECTOR_QUBITS}")
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for gate in c.gates:
        _gate_inplace(psi, n, gate, False)
    return StateVector(n, psi.reshape(-1))


def fidelity(a: StateVector, b: StateVector) -> float:
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit counts differ")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def expected_cut(sv: StateVector, g: Graph) -> float:
    """Expectation of the cut size: each edge contributes the probability
    that its endpoints' bits differ."""
    if sv.n_qubits != g.n:
        raise ValueError(f"state has {sv.n_qubits} qubits, graph has {g.n} vertices")
    probs = np.abs(sv.amplitudes) ** 2
    idx = np.arange(2 ** g.n)
    cut_sizes = np.zeros(2 ** g.n)
    for u, v in g.edges:
        cut_sizes += ((idx >> u) ^ (idx >> v)) & 1
    return float(probs @ cut_sizes)


# ---------------------------------------------------------------------------
# in-place kernels
#
# A statevector lives as a (2,)*n tensor with axis n-1-q for qubit q; a
# density matrix as a (2,)*(2n) view of a contiguous (2^n, 2^n) array, with
# axis n-1-q for qubit q on the row side and 2n-1-q on the column side. One
# gate kernel serves both: it maps qubit q to axis top-1-q, so a statevector
# takes U at top=n and a density matrix takes U at top=n and U* at top=2n.
# Every kernel mutates slices of the tensor directly, so no axis
# permutation or copy of the full state ever happens.


def _slot(t: np.ndarray, assignments: list[tuple[int, int]]):
    idx: list = [slice(None)] * t.ndim
    for axis, bit in assignments:
        idx[axis] = bit
    # trailing ellipsis keeps fully-indexed results as 0-d views
    return t[tuple(idx) + (Ellipsis,)]


def _gate_inplace(t: np.ndarray, top: int, gate: Gate, conj: bool) -> None:
    """Apply gate (its complex conjugate if conj) on axes top-1-q."""
    if gate.name == "CX":
        ca, ta = (top - 1 - q for q in gate.qubits)
        a = _slot(t, [(ca, 1), (ta, 0)])
        b = _slot(t, [(ca, 1), (ta, 1)])
        tmp = a.copy()
        a[...] = b
        b[...] = tmp
        return
    axis = top - 1 - gate.qubits[0]
    v0 = _slot(t, [(axis, 0)])
    v1 = _slot(t, [(axis, 1)])
    if gate.name == "RZ":
        f = np.exp(-0.5j * gate.angle)
        lo, hi = (f.conjugate(), f) if conj else (f, f.conjugate())
        v0 *= lo
        v1 *= hi
        return
    M = _gate_matrix(gate).conj() if conj else _gate_matrix(gate)
    new0 = M[0, 0] * v0 + M[0, 1] * v1
    v1 *= M[1, 1]
    v1 += M[1, 0] * v0
    v0[...] = new0


def _dm_depolarize_inplace(t: np.ndarray, n: int, qubits: tuple[int, ...],
                           p: float) -> None:
    if p == 0.0:
        return
    k = len(qubits)
    raxes = [n - 1 - q for q in qubits]
    caxes = [2 * n - 1 - q for q in qubits]
    patterns = [
        [(r, (bits >> i) & 1) for i, r in enumerate(raxes)]
        + [(c, (bits >> i) & 1) for i, c in enumerate(caxes)]
        for bits in range(2 ** k)
    ]
    total = None
    for pat in patterns:
        block = _slot(t, pat)
        total = block.copy() if total is None else total + block
    t *= 1.0 - p
    total *= p / (2 ** k)
    for pat in patterns:
        _slot(t, pat)[...] += total


class _NoisyState:
    """State tensor that stays a pure (2,)*n statevector until the first
    nonzero channel fires, then becomes a (2,)*(2n) density matrix. With
    all-zero noise the evolution therefore runs the exact same kernel
    calls as run_ideal."""

    def __init__(self, n: int):
        self.n = n
        self.t = np.zeros((2,) * n, dtype=complex)
        self.t[(0,) * n] = 1.0

    def apply_gate(self, gate: Gate) -> None:
        _gate_inplace(self.t, self.n, gate, False)
        if self.t.ndim > self.n:
            _gate_inplace(self.t, 2 * self.n, gate, True)

    def depolarize(self, qubits: tuple[int, ...], p: float) -> None:
        if p == 0.0:
            return
        if self.t.ndim == self.n:
            psi = self.t.reshape(-1)
            self.t = np.outer(psi, psi.conj()).reshape((2,) * (2 * self.n))
        _dm_depolarize_inplace(self.t, self.n, qubits, p)

    def overlap(self, psi: np.ndarray) -> tuple[float, float]:
        """(normalized <psi|state|psi>, trace). Normalizing by the norms
        cancels float drift, so a noiseless run scores exactly 1."""
        ref = float(np.real(np.vdot(psi, psi)))
        if self.t.ndim == self.n:
            mine = self.t.reshape(-1)
            amp2 = float(abs(np.vdot(psi, mine)) ** 2)
            tr = float(np.real(np.vdot(mine, mine)))
            return amp2 / (ref * tr), tr
        rho = self.t.reshape(psi.size, psi.size)
        tr = float(np.real(np.trace(rho)))
        raw = float(np.real(psi.conj() @ rho @ psi))
        return raw / (ref * tr), tr


def run_noisy(c: CircuitIR, sched: StepSchedule, noise: NoiseParams) -> SimResult:
    """Density-matrix evolution of c under per-gate and per-step noise.

    The schedule supplies both the step of every edge block (for idle
    accounting) and the set of qubits busy in each step.
    """
    n = c.n_qubits
    if n > MAX_DENSITY_QUBITS:
        raise ValueError(f"too many qubits for density matrix: {n} > {MAX_DENSITY_QUBITS}")

    busy: dict[int, set[int]] = {s: set() for s in range(1, sched.num_steps + 1)}
    for (u, v), s in sched.step_of.items():
        busy[s].update((u, v))
    all_qubits = set(range(n))

    ideal = run_ideal(c)
    state = _NoisyState(n)

    def idle_flush(step_key: tuple[int, int] | None) -> None:
        if step_key is None:
            return
        for q in sorted(all_qubits - busy[step_key[1]]):
            state.depolarize((q,), noise.p_idle)

    current: tuple[int, int] | None = None  # (layer, step) of the open cost step
    for gate in c.gates:
        if gate.tag[0] == COST:
            layer, edge = gate.tag[1], gate.tag[2]
            try:
                step = sched.step_of[canonical_edge(*edge)]
            except KeyError:
                raise ValueError(f"circuit edge {edge} missing from schedule") from None
            key = (layer, step)
            if key != current:
                idle_flush(current)
                current = key
        else:
            idle_flush(current)
            current = None
        state.apply_gate(gate)
        if gate.name == "CX":
            state.depolarize(gate.qubits, noise.p_cx)
        else:
            state.depolarize(gate.qubits, noise.p_1q)
    idle_flush(current)

    p_success, trace = state.overlap(ideal.amplitudes)
    return SimResult(p_success=p_success, ideal_state=ideal, trace=trace)
