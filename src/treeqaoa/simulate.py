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

from dataclasses import dataclass, field

import numpy as np

from .circuits import COST, CircuitIR, Gate
from .graphs import Graph, canonical_edge
from .scheduling import StepSchedule

_SQRT1_2 = 1.0 / np.sqrt(2.0)
_H = np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex)
_CX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

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
    """Noisy-run outcome: p_success = <psi_ideal| rho |psi_ideal>."""

    p_success: float
    ideal_state: StateVector
    metadata: dict = field(default_factory=dict)


def _gate_matrix(gate: Gate) -> np.ndarray:
    if gate.name == "H":
        return _H
    if gate.name == "RZ":
        half = 0.5 * gate.angle
        return np.array([[np.exp(-1j * half), 0], [0, np.exp(1j * half)]])
    if gate.name == "RX":
        c, s = np.cos(0.5 * gate.angle), np.sin(0.5 * gate.angle)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if gate.name == "CX":
        return _CX
    raise ValueError(f"unknown gate {gate.name!r}")


def _apply_unitary_sv(psi: np.ndarray, n: int, U: np.ndarray,
                      qubits: tuple[int, ...]) -> np.ndarray:
    """psi is a (2,)*n tensor; axis i holds qubit n-1-i."""
    k = len(qubits)
    axes = [n - 1 - q for q in qubits]
    out = np.tensordot(U.reshape((2,) * (2 * k)), psi,
                       axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


def run_ideal(c: CircuitIR) -> StateVector:
    """Exact statevector from |0...0>."""
    n = c.n_qubits
    if n > MAX_STATEVECTOR_QUBITS:
        raise ValueError(f"too many qubits for statevector: {n} > {MAX_STATEVECTOR_QUBITS}")
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for gate in c.gates:
        psi = _apply_unitary_sv(psi, n, _gate_matrix(gate), gate.qubits)
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
# in-place density-matrix kernels
#
# The density matrix lives as a (2,)*(2n) view of a contiguous (2^n, 2^n)
# array: axis n-1-q indexes qubit q on the row side, axis 2n-1-q on the
# column side. All kernels below mutate slices of that view directly, so no
# axis permutation or tensor copy of the full matrix ever happens.


def _slot(t: np.ndarray, n: int, assignments: list[tuple[int, int]]):
    idx: list = [slice(None)] * (2 * n)
    for axis, bit in assignments:
        idx[axis] = bit
    # trailing ellipsis keeps fully-indexed results as 0-d views
    return t[tuple(idx) + (Ellipsis,)]


def _dm_1q_inplace(t: np.ndarray, n: int, q: int, U: np.ndarray) -> None:
    for axis, M in ((n - 1 - q, U), (2 * n - 1 - q, U.conj())):
        v0 = _slot(t, n, [(axis, 0)])
        v1 = _slot(t, n, [(axis, 1)])
        new0 = M[0, 0] * v0 + M[0, 1] * v1
        v1 *= M[1, 1]
        v1 += M[1, 0] * v0
        v0[...] = new0


def _dm_rz_inplace(t: np.ndarray, n: int, q: int, angle: float) -> None:
    f = np.exp(-0.5j * angle)
    for axis, lo, hi in ((n - 1 - q, f, f.conjugate()),
                         (2 * n - 1 - q, f.conjugate(), f)):
        _slot(t, n, [(axis, 0)])[...] *= lo
        _slot(t, n, [(axis, 1)])[...] *= hi


def _dm_cx_inplace(t: np.ndarray, n: int, ctrl: int, tgt: int) -> None:
    for ca, ta in ((n - 1 - ctrl, n - 1 - tgt),
                   (2 * n - 1 - ctrl, 2 * n - 1 - tgt)):
        a = _slot(t, n, [(ca, 1), (ta, 0)])
        b = _slot(t, n, [(ca, 1), (ta, 1)])
        tmp = a.copy()
        a[...] = b
        b[...] = tmp


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
        block = _slot(t, n, pat)
        total = block.copy() if total is None else total + block
    t *= 1.0 - p
    total *= p / (2 ** k)
    for pat in patterns:
        _slot(t, n, pat)[...] += total


class _NoisyState:
    """Density matrix that stays a pure statevector until the first
    nonzero channel fires. With all-zero noise the evolution therefore
    follows the exact same numeric path as run_ideal."""

    def __init__(self, n: int):
        self.n = n
        self.pure: np.ndarray | None = np.zeros((2,) * n, dtype=complex)
        self.pure[(0,) * n] = 1.0
        self.rho: np.ndarray | None = None
        self.t: np.ndarray | None = None

    def apply_gate(self, gate: Gate) -> None:
        if self.pure is not None:
            self.pure = _apply_unitary_sv(
                self.pure, self.n, _gate_matrix(gate), gate.qubits
            )
        elif gate.name == "CX":
            _dm_cx_inplace(self.t, self.n, *gate.qubits)
        elif gate.name == "RZ":
            _dm_rz_inplace(self.t, self.n, gate.qubits[0], gate.angle)
        else:
            _dm_1q_inplace(self.t, self.n, gate.qubits[0], _gate_matrix(gate))

    def depolarize(self, qubits: tuple[int, ...], p: float) -> None:
        if p == 0.0:
            return
        if self.pure is not None:
            psi = self.pure.reshape(-1)
            self.rho = np.outer(psi, psi.conj())
            self.t = self.rho.reshape((2,) * (2 * self.n))
            self.pure = None
        _dm_depolarize_inplace(self.t, self.n, qubits, p)

    def overlap(self, psi: np.ndarray) -> tuple[float, float]:
        """(normalized <psi|state|psi>, trace). Normalizing by the norms
        cancels float drift, so a noiseless run scores exactly 1."""
        ref = float(np.real(np.vdot(psi, psi)))
        if self.pure is not None:
            mine = self.pure.reshape(-1)
            amp2 = float(abs(np.vdot(psi, mine)) ** 2)
            tr = float(np.real(np.vdot(mine, mine)))
            return amp2 / (ref * tr), tr
        tr = float(np.real(np.trace(self.rho)))
        raw = float(np.real(psi.conj() @ self.rho @ psi))
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
    return SimResult(
        p_success=p_success,
        ideal_state=ideal,
        metadata={
            "n_qubits": n,
            "gate_count": len(c.gates),
            "cnot_count": c.cnot_count(),
            "num_steps": sched.num_steps,
            "noise": noise,
            "trace": trace,
        },
    )
