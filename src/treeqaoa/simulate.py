"""Statevector and noisy simulation of the ansatz circuits.

Amplitudes are little-endian: basis index i encodes qubit q as bit q of i.
The ideal engine applies the one-qubit gates before the first CX to per-qubit
2-vectors and writes their product out once. After that, each maximal run of
RZ(q, t) gates and CX(j, k) RZ(k, t) CX(j, k) triples, the latter exactly
exp(-i t/2 Z_j Z_k), is one diagonal exp(-i E/2), E summing t s_q and t s_j s_k
for signs s = +-1. A run with a triple builds E once (_zz_diagonal, which
expected_cut shares) and multiplies psi by its phase, held in the spare
buffer; a run of RZ gates alone takes one factor per axis. H, RX and a lone
CX go through the kernels. Peak memory: psi, spare, and a float 2^n vector
plus a half-length one while E is built.
The noisy engine evolves a density matrix rho, held as its real Pauli
coefficients r_P = Tr(P rho), applying a depolarizing channel after every
gate (two-qubit for CNOT, one-qubit otherwise) plus an idle channel on every
qubit untouched by each (layer, step)-tagged run of gates, so error exposure
grows both with CNOT count and with schedule depth. The depolarizing channel
with probability p replaces the state of the affected qubits by the maximally
mixed state, so it scales by 1 - p every r_P whose P is not I on them all:
    D_p(rho) = (1 - p) * rho + p * (I / 2^k) (x) Tr_k(rho).
Gates and channels are folded: one pass over r per run of CNOTs on one pair.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from operator import attrgetter

import numpy as np

from .circuits import CircuitIR, Gate
from .graphs import Graph

logger = logging.getLogger(__name__)

_SQRT1_2 = 1.0 / np.sqrt(2.0)
_H = np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex)
# CX in the basis 2 * control + target
_CX = np.eye(4)[[0, 1, 3, 2]]
# I, X, Y, Z, and their two-qubit products with the control's factor first
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI2 = np.einsum("aij,bkl->abikjl", _PAULI, _PAULI).reshape(16, 4, 4)
# one qubit's 2x2 block (b00, b01, b10, b11) -> coefficients of I, X, iY, Z
_BUTTERFLY = np.array([[1.0, 0, 0, 1], [0, 1, 1, 0], [0, -1, 1, 0], [1, 0, 0, -1]])
# a Pauli digit's weight i^[digit is Y]
_PHASE = np.array([1, 1, 1j, 1])
_I4 = np.eye(4)

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
        norm = float(np.vdot(self.amplitudes, self.amplitudes).real)
        if not abs(norm - 1.0) <= 1e-10:  # NaN-safe
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
    trace: float


def _gate_matrix(name: str, angle: float | None) -> np.ndarray:
    if name == "H":
        return _H
    if name == "RX":
        c, s = np.cos(0.5 * angle), np.sin(0.5 * angle)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if name == "RZ":
        f = np.exp(-0.5j * angle)
        return np.diag([f, f.conjugate()])
    raise ValueError(f"unknown gate {name!r}")


def run_ideal(c: CircuitIR) -> StateVector:
    """Exact statevector from |0...0> (the module docstring has the method)."""
    n, gates = c.n_qubits, c.gates
    if n > MAX_STATEVECTOR_QUBITS:
        raise ValueError(f"too many qubits for statevector: {n} > {MAX_STATEVECTOR_QUBITS}")
    vec, i = [np.array([1.0, 0.0], dtype=complex) for _ in range(n)], 0
    while i < len(gates) and gates[i].name != "CX":
        name, (q,), angle, _tag = gates[i]
        vec[q], i = _gate_matrix(name, angle) @ vec[q], i + 1
    psi = np.empty(2 ** n, dtype=complex)
    psi[0] = 1.0
    for q, (v0, v1) in enumerate(vec):  # psi = vec[q] (x) psi, bit q on top
        np.multiply(psi[:1 << q], v1, out=psi[1 << q:2 << q])
        psi[:1 << q] *= v0
    psi = psi.reshape((2,) * n)
    spare = np.empty_like(psi)
    while i < len(gates):
        h, J = {}, {}  # -t/2 summed per qubit and per pair (j < k)
        while i < len(gates):
            name, qubits, angle, _tag = gates[i]
            if name == "RZ":
                h[qubits[0]] = h.get(qubits[0], 0.0) - 0.5 * angle
            elif (name == "CX" and i + 2 < len(gates) and gates[i + 1][:2] == ("RZ", qubits[1:])
                  and gates[i + 2][:2] == ("CX", qubits)):
                pair = tuple(sorted(qubits))
                J[pair] = J.get(pair, 0.0) - 0.5 * gates[i + 1].angle
                i += 2
            else:
                break
            i += 1
        if J:  # psi *= exp(i phase): the phase in one float vector, its exp in spare
            phase = _zz_diagonal(n, h, J)
            np.cos(phase, out=spare.reshape(-1).real)
            np.sin(phase, out=spare.reshape(-1).imag)
            del phase  # before the next run builds its own
            psi *= spare
        else:  # RZ gates alone: one factor per axis
            for q, half in h.items():
                f = np.exp(1j * half)
                psi.reshape(-1, 2, 1 << q)[...] *= np.array([[f], [f.conjugate()]])
        if i < len(gates):
            name, qubits, angle, _tag = gates[i]
            if name == "CX":
                _gate_inplace(psi, gates[i])
            else:
                _ptm_pass(psi, spare, qubits, _gate_matrix(name, angle))
                psi, spare = spare, psi
            i += 1
    return StateVector(n, psi.reshape(-1))


def fidelity(a: StateVector, b: StateVector) -> float:
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit counts differ")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def expected_cut(sv: StateVector, g: Graph) -> float:
    """Expectation of the cut size. An edge uv is cut where s_u s_v = -1, so
    with C = sum_uv s_u s_v the cut is (m - C) / 2 and its mean
    (m sum(p) - p.C) / 2 over the probabilities p."""
    if sv.n_qubits != g.n:
        raise ValueError(f"state has {sv.n_qubits} qubits, graph has {g.n} vertices")
    probs = np.abs(sv.amplitudes) ** 2
    C = _zz_diagonal(g.n, {}, dict.fromkeys(g.edges, 1.0))
    return float((g.m * probs.sum() - probs @ C) / 2)


def _zz_diagonal(n: int, h: dict, J: dict) -> np.ndarray:
    """E[x] = sum_q h[q] s_q + sum_{j<k} J[(j, k)] s_j s_k, s_q = 1 - 2 * (bit q
    of x), doubled one bit k at a time: E + L, then E - L where bit k is set,
    for L = h[k] + sum_{j<k} J[(j, k)] s_j, itself doubled over bits j < k."""
    E, L = np.zeros(2 ** n), np.empty(2 ** max(n - 1, 0))
    for k in range(n):
        L[0] = h.get(k, 0.0)
        for j in range(k):
            np.subtract(L[:1 << j], J.get((j, k), 0.0), out=L[1 << j:2 << j])
            L[:1 << j] += J.get((j, k), 0.0)
        np.subtract(E[:1 << k], L[:1 << k], out=E[1 << k:2 << k])
        E[:1 << k] += L[:1 << k]
    return E


# ---------------------------------------------------------------------------
# Kernels. A statevector is a contiguous complex (2,)*n tensor with axis n-1-q
# for qubit q: CX swaps slices of its qubits' axes in place, and H and RX are
# one-axis products (_ptm_pass) into a spare buffer. The noisy state
# is r, a contiguous float (4,)*n tensor with axis n-1-q for qubit q, indexed
# by I, X, Y, Z. There a gate is a real Pauli transfer matrix (PTM), and the
# depolarizing channel after it scales the PTM's non-identity rows by 1-p;
# maps on disjoint qubits commute, so run_noisy can fold them before a pass.


def _gate_inplace(t: np.ndarray, gate: Gate) -> None:
    """Apply a CX gate to the statevector tensor t: swap the target's halves
    where the control is 1."""
    ones = np.moveaxis(t, [t.ndim - 1 - q for q in gate.qubits], (0, 1))[1]
    tmp = ones[0].copy()
    ones[0] = ones[1]
    ones[1] = tmp


@lru_cache(maxsize=256)
def _ptm(name: str, angle: float | None, keep: float = 1.0) -> np.ndarray:
    """R[a, b] = Tr(P_a U P_b U^dagger) / 2^k, indexed 4 * control + target digit
    for CX, residue below 1e-15 zeroed; then its channel: rows but the first times keep."""
    U, P = (_CX, _PAULI2) if name == "CX" else (_gate_matrix(name, angle), _PAULI)
    R = np.einsum("aij,jk,bkl,il->ab", P, U, P, U.conj()).real / len(U)
    R[np.abs(R) < 1e-15] = 0.0
    R[1:] *= keep
    R.flags.writeable = False  # cached: shared by every caller
    return R


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, entry for entry, as one broadcast product (np.kron costs more)."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def _ptm_pass(src: np.ndarray, dst: np.ndarray, qubits: tuple[int, ...], R: np.ndarray) -> None:
    """dst = R src on the axes of qubits: one size-len(R) axis (2 for a
    statevector, 4 for r), or two size-4 axes, R indexed 4 * first + second
    digit. A two-qubit pass overwrites src."""
    if len(qubits) == 1:
        # batched over the axes above, or, for short runs below, on rows times kron(R, I_B)^T
        d = len(R)
        B = d ** qubits[0]
        if d * B >= 64:
            np.matmul(R, src.reshape(-1, d, B), out=dst.reshape(-1, d, B))
        else:
            np.matmul(src.reshape(-1, d * B), _kron(R, np.eye(B)).T, out=dst.reshape(-1, d * B))
        return
    # two qubits: their axes to the front in dst, one product into src, and back
    axes = [src.ndim - 1 - q for q in qubits]
    np.copyto(dst, np.moveaxis(src, axes, (0, 1)))
    np.matmul(R, dst.reshape(16, -1), out=src.reshape(16, -1))
    np.copyto(dst, np.moveaxis(src, (0, 1), axes))


def _overlap(r: np.ndarray, psi: np.ndarray, spare: np.ndarray) -> float:
    """sum_P r_P <psi|P|psi> in real arithmetic, overwriting spare. With psi =
    a + ib, K = Re + Im of psi psi^dagger = (a+b)a^T + (b-a)b^T; one butterfly
    per qubit on its interleaved 2x2 blocks gives c_P = Tr(Q_P K), Q_P being P
    with iY for Y, and <psi|P|psi> = c_P (Re i^y + Im i^y) for y factors Y."""
    n = r.ndim
    a, b = psi.real, psi.imag
    np.matmul(np.stack([a + b, b - a], 1), np.stack([a, b]), out=spare.reshape(2 ** n, 2 ** n))
    c = np.empty_like(r)
    interleave = [axis for j in range(n) for axis in (j, n + j)]
    np.copyto(c.reshape((2,) * (2 * n)), spare.reshape((2,) * (2 * n)).transpose(interleave))
    for q in range(n):
        _ptm_pass(c, spare, (q,), _BUTTERFLY)
        c, spare = spare, c
    np.multiply(r, c, out=c)
    # z = sum_P r_P c_P i^y, contracted one Pauli axis at a time
    z = (c.reshape(-1, 4) @ _PHASE.real).astype(complex)
    z.imag = c.reshape(-1, 4)[:, 2]
    while z.size > 1:
        z = z.reshape(-1, 4) @ _PHASE
    return float(z[0].real + z[0].imag)


def check_density_qubits(n: int) -> None:
    """Refuse a noisy run on n > MAX_DENSITY_QUBITS qubits, before synthesis."""
    if n > MAX_DENSITY_QUBITS:
        raise ValueError(f"too many qubits for density matrix: {n} > {MAX_DENSITY_QUBITS}")


def run_noisy(c: CircuitIR, noise: NoiseParams) -> SimResult:
    """Noisy evolution of c under per-gate and per-step depolarizing noise.

    Each run of consecutive gates with the same (layer, step) tag is one
    schedule step: after it, every qubit its gates leave untouched idles.
    F, the 16x16 map owed to the pair of the latest CX, passes over r once a CX
    on another pair comes; pending[(q,)] is the 4x4 map owed to qubit q after F.
    """
    n = c.n_qubits
    check_density_qubits(n)
    psi = run_ideal(c).amplitudes
    # |0...0><0...0| = prod_q (I + Z_q) / 2: coefficient 1 on every string of I and Z
    r = np.zeros((4,) * n)
    r[np.ix_(*[[0, 3]] * n)] = 1.0
    spare = np.empty_like(r)
    idle = np.array([1.0] + [1.0 - noise.p_idle] * 3)[:, None]
    pending, pair, F, channels, passes = {}, (), None, 0, 0
    def flush(qubits, R):
        nonlocal r, spare, passes
        if qubits:  # no pair before the first CX
            _ptm_pass(r, spare, qubits, R)
            r, spare, passes = spare, r, passes + 1

    for tag, step in groupby(c.gates, key=attrgetter("tag")):
        busy = set()
        for gate in step:
            p = noise.p_cx if gate.name == "CX" else noise.p_1q
            G = _ptm(gate.name, gate.angle, 1.0 - p)
            channels += p > 0.0
            busy.update(gate.qubits)
            if len(gate.qubits) == 1:
                pending[gate.qubits] = G @ pending.get(gate.qubits, _I4)
                continue
            if set(pair) != set(gate.qubits):
                flush(pair, F)
                pair, F = gate.qubits, np.eye(16)
            elif pair != gate.qubits:  # the same pair reversed: swap G's digits
                G = G.reshape(4, 4, 4, 4).transpose(1, 0, 3, 2).reshape(16, 16)
            F = G @ _kron(pending.pop(pair[:1], _I4), pending.pop(pair[1:], _I4)) @ F
        for q in set(range(n)) - busy if tag is not None and noise.p_idle else ():
            pending[(q,)] = idle * pending.get((q,), _I4)
            channels += 1
    for qubits, R in [(pair, F), *pending.items()]:
        flush(qubits, R)

    ref = float(np.real(np.vdot(psi, psi)))
    if channels == 0:  # the state is psi itself, which scores exactly 1
        p_success, trace = 1.0, ref
    else:  # <psi|rho|psi> = 2^-n sum_P r_P <psi|P|psi>, normalized by both norms
        trace = float(r[(0,) * n])
        p_success = _overlap(r, psi, spare) / 2 ** n / (ref * trace)
    # peak state bytes: r and spare, and _overlap's c when it runs
    logger.debug("noisy run: %d channels, |1 - trace| = %.3g, %d state bytes, %d passes",
                 channels, abs(1 - trace), (3 if channels else 2) * r.nbytes, passes)
    return SimResult(p_success=p_success, trace=trace)
