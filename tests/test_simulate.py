import numpy as np
import pytest

from treeqaoa.circuits import AnsatzParams, CircuitIR, Gate, build_optimized, build_traditional
from treeqaoa.graphs import Graph, generate_complete, generate_cycle, generate_erdos_renyi
from treeqaoa.scheduling import schedule_traditional, schedule_tree_ordered
from treeqaoa.simulate import (
    NoiseParams,
    StateVector,
    _dm_depolarize_inplace,
    expected_cut,
    fidelity,
    run_ideal,
    run_noisy,
)
from treeqaoa.trees import HeuristicConfig, build_dfs_tree, build_greedy_tree

from helpers import depolarize_oracle, full_matrix, run_matrix_oracle

def test_h_layer_uniform():
    circ = CircuitIR(2, [Gate("H", (0,)), Gate("H", (1,))])
    sv = run_ideal(circ)
    assert np.allclose(sv.amplitudes, 0.5)


def test_traditional_zero_angles_is_uniform():
    g = generate_cycle(4)
    circ = build_traditional(g, AnsatzParams(1, (0.0,), (0.0,)), schedule_traditional(g))
    sv = run_ideal(circ)
    assert np.allclose(sv.amplitudes, 0.25, atol=1e-12)


def test_run_ideal_matches_matrix_oracle():
    rng = np.random.default_rng(64)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        gates = []
        for _ in range(int(rng.integers(1, 25))):
            kind = rng.integers(4)
            if kind == 3:
                a, b = rng.choice(n, size=2, replace=False)
                gates.append(Gate("CX", (int(a), int(b))))
            else:
                name = ("H", "RZ", "RX")[kind]
                angle = None if name == "H" else float(rng.uniform(-np.pi, np.pi))
                gates.append(Gate(name, (int(rng.integers(n)),), angle))
        circ = CircuitIR(n, gates)
        assert np.allclose(
            run_ideal(circ).amplitudes, run_matrix_oracle(circ), atol=1e-12
        )


def test_run_ideal_qubit_guard():
    with pytest.raises(ValueError, match="too many"):
        run_ideal(CircuitIR(21, [Gate("H", (0,))]))


def test_equivalence_traditional_vs_optimized():
    rng = np.random.default_rng(7)
    g = generate_erdos_renyi(6, 0.5, seed=17)
    for _ in range(5):
        gamma, beta = rng.uniform(0, 2 * np.pi, size=2)
        params = AnsatzParams(1, (float(gamma),), (float(beta),))
        trad = run_ideal(build_traditional(g, params, schedule_traditional(g)))
        for build in (build_dfs_tree, lambda g, r: build_greedy_tree(g, r, HeuristicConfig(B=3))):
            t = build(g, 2)
            sched = schedule_tree_ordered(g, t)
            opt = run_ideal(build_optimized(g, params, t, sched))
            assert fidelity(trad, opt) >= 1 - 1e-9


def test_p2_circuits_remain_equivalent():
    # the reduction is a layer-1 phenomenon; with layers >= 2 emitted in
    # full, the p = 2 circuits must still match the traditional state
    g = generate_cycle(5)
    params = AnsatzParams(2, (0.7, 0.3), (0.4, 0.9))
    t = build_dfs_tree(g, 0)
    sched = schedule_tree_ordered(g, t)
    trad = run_ideal(build_traditional(g, params, schedule_traditional(g)))
    opt = run_ideal(build_optimized(g, params, t, sched))
    assert fidelity(trad, opt) >= 1 - 1e-9


def test_expected_cut_examples():
    g = generate_cycle(4)
    uniform = StateVector(4, np.full(16, 0.25, dtype=complex))
    assert expected_cut(uniform, g) == pytest.approx(2.0)
    basis = np.zeros(16, dtype=complex)
    basis[0b0101] = 1.0  # qubits 0 and 2 set: the max cut of C4
    assert expected_cut(StateVector(4, basis), g) == pytest.approx(4.0)
    zero = np.zeros(16, dtype=complex)
    zero[0] = 1.0
    assert expected_cut(StateVector(4, zero), g) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        expected_cut(uniform, generate_cycle(5))


def test_zero_noise_success_is_exactly_one():
    g = generate_erdos_renyi(5, 0.6, seed=4)
    t = build_greedy_tree(g, 0, HeuristicConfig(B=3))
    sched = schedule_tree_ordered(g, t)
    circ = build_optimized(g, AnsatzParams(1, (0.8,), (0.3,)), t, sched)
    result = run_noisy(circ, sched, NoiseParams(0.0, 0.0, 0.0))
    assert result.p_success == 1.0


def test_single_cnot_closed_form():
    # depolarizing a 2-qubit pure state |00> with probability p leaves
    # (1-p)|00><00| + p*I/4, so the overlap is (1-p) + p/4
    g = Graph(2, [(0, 1)])
    sched = schedule_traditional(g)
    circ = CircuitIR(2, [Gate("CX", (0, 1), tag=("cost", 1, (0, 1)))])
    p = 0.01
    result = run_noisy(circ, sched, NoiseParams(p_cx=p, p_1q=0.0, p_idle=0.0))
    assert result.p_success == pytest.approx(1 - p + p / 4, abs=1e-12)


def depolarize_oracle(rho, n, qubits, p):
    """Independent channel algebra via explicit partial trace + kron."""
    if not qubits:
        return rho
    keep = [q for q in range(n) if q not in qubits]
    t = rho.reshape((2,) * (2 * n))
    # trace out the hit qubits one by one (axis n-1-q rows, 2n-1-q cols)
    for q in sorted(qubits, reverse=True):
        dims = t.ndim // 2
        t = np.trace(t, axis1=dims - 1 - q, axis2=2 * dims - 1 - q)
        n_local = dims - 1
        # relabel: remaining qubits above q shift down one slot
        t = t.reshape((2 ** n_local, 2 ** n_local)).reshape((2,) * (2 * n_local))
    reduced = t.reshape(2 ** len(keep), 2 ** len(keep))
    # rebuild: identity/2 on each hit qubit, reduced state on the rest
    full = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(2 ** n):
        for j in range(2 ** n):
            if any((i >> q) & 1 != (j >> q) & 1 for q in qubits):
                continue
            ik = sum(((i >> q) & 1) << b for b, q in enumerate(keep))
            jk = sum(((j >> q) & 1) << b for b, q in enumerate(keep))
            full[i, j] = reduced[ik, jk] / (2 ** len(qubits))
    return (1 - p) * rho + p * full


def test_full_k2_circuit_matches_hand_channel_algebra():
    g = generate_complete(2)
    gamma, beta = 0.9, 0.4
    params = AnsatzParams(1, (gamma,), (beta,))
    sched = schedule_traditional(g)
    circ = build_traditional(g, params, sched)
    noise = NoiseParams(p_cx=0.02, p_1q=0.005, p_idle=0.003)

    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    for gate in circ.gates:
        U = full_matrix(2, gate)
        rho = U @ rho @ U.conj().T
        p = noise.p_cx if gate.name == "CX" else noise.p_1q
        rho = depolarize_oracle(rho, 2, list(gate.qubits), p)
    # single step, both qubits busy: no idle channel fires
    psi = run_matrix_oracle(circ)
    expected = float(np.real(psi.conj() @ rho @ psi))

    result = run_noisy(circ, sched, noise)
    assert result.p_success == pytest.approx(expected, abs=1e-10)


def _depolarize(rho, n, qubits, p):
    """The engine's in-place channel kernel, applied to a copy of rho."""
    out = rho.copy()
    _dm_depolarize_inplace(out.reshape((2,) * (2 * n)), n, qubits, p)
    return out


def test_depolarizing_channel_unit():
    # p = 1 on one qubit of a Bell state leaves that qubit maximally mixed
    bell = np.zeros(4, dtype=complex)
    bell[0b00] = bell[0b11] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    out = _depolarize(rho, 2, (0,), 1.0)
    assert np.allclose(out, np.diag([0.25, 0.25, 0.25, 0.25]))
    assert np.trace(out) == pytest.approx(1.0)
    # independent algebra agreement on random states
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        for qubits, p in (((1,), 0.3), ((0, 2), 0.15)):
            assert np.allclose(
                _depolarize(rho, 3, qubits, p),
                depolarize_oracle(rho, 3, list(qubits), p),
                atol=1e-12,
            )


def test_trace_preserved_through_noisy_run():
    g = generate_erdos_renyi(5, 0.5, seed=1)
    t = build_dfs_tree(g, 0)
    sched = schedule_tree_ordered(g, t)
    circ = build_optimized(g, AnsatzParams(1, (0.5,), (0.25,)), t, sched)
    result = run_noisy(circ, sched, NoiseParams())
    assert result.metadata["trace"] == pytest.approx(1.0, abs=1e-9)


def test_channels_preserve_trace_individually():
    rng = np.random.default_rng(12)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    for qubits in ((0,), (2,), (0, 3), (1, 2)):
        for p in (0.0, 0.1, 0.7):
            rho2 = _depolarize(rho, 4, qubits, p)
            assert np.trace(rho2).real == pytest.approx(1.0, abs=1e-9)


def test_success_monotone_in_noise():
    g = generate_erdos_renyi(5, 0.5, seed=6)
    sched = schedule_traditional(g)
    circ = build_traditional(g, AnsatzParams(1, (0.6,), (0.2,)), sched)
    base = NoiseParams(0.01, 0.001, 0.002)
    p0 = run_noisy(circ, sched, base).p_success
    for bump in (
        NoiseParams(0.03, 0.001, 0.002),
        NoiseParams(0.01, 0.004, 0.002),
        NoiseParams(0.01, 0.001, 0.008),
    ):
        assert run_noisy(circ, sched, bump).p_success <= p0 + 1e-12


def test_noisy_qubit_guard_and_mismatch():
    g = generate_complete(11)
    sched = schedule_traditional(g)
    circ = build_traditional(g, AnsatzParams(1, (0.1,), (0.1,)), sched)
    with pytest.raises(ValueError, match="too many"):
        run_noisy(circ, sched, NoiseParams())
    g4 = generate_cycle(4)
    circ4 = build_traditional(g4, AnsatzParams(1, (0.1,), (0.1,)), schedule_traditional(g4))
    other = schedule_traditional(generate_cycle(5))
    with pytest.raises(ValueError, match="missing from schedule"):
        run_noisy(circ4, other, NoiseParams())


def test_statevector_and_noise_validation():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(1, np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(ValueError):
        NoiseParams(p_cx=1.0)
    with pytest.raises(ValueError):
        NoiseParams(p_idle=-0.1)
