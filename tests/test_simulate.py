import logging
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from treeqaoa.bench import STRATEGIES, circuit_for, schedule_for
from treeqaoa.circuits import AnsatzParams, CircuitIR, Gate, build_optimized, build_traditional
from treeqaoa.graphs import (
    Graph, edges_connected, generate_complete, generate_cycle, generate_erdos_renyi,
)
from treeqaoa.scheduling import schedule_traditional, schedule_tree_ordered
from treeqaoa.simulate import (
    MAX_DENSITY_QUBITS,
    NoiseParams,
    StateVector,
    _kron,
    _ptm,
    _ptm_pass,
    _zz_diagonal,
    expected_cut,
    fidelity,
    run_ideal,
    run_noisy,
)
from treeqaoa.trees import HeuristicConfig, build_dfs_tree, build_greedy_tree

from helpers import (
    depolarize_oracle,
    expected_cut_reference,
    full_matrix,
    p1_cut_closed_form,
    pauli_to_rho,
    rho_to_pauli,
    run_matrix_oracle,
    run_noisy_dense,
    run_noisy_per_gate,
    run_ideal_reference,
    run_noisy_reference,
)

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
    # H and RX on qubits 0-4 take the one-axis kernel's row product, and on
    # qubits 5 and up its batched matmul; the wider circuits are fewer
    rng = np.random.default_rng(64)
    for count, low, high in ((500, 1, 6), (60, 6, 9)):
        for _ in range(count):
            n = int(rng.integers(low, high))
            gates = []
            for _ in range(int(rng.integers(1, 25))):
                kind = rng.integers(4 if n > 1 else 3)
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


def _angle(rng):
    return float(rng.uniform(-2 * np.pi, 2 * np.pi)) if rng.random() > 0.1 else 0.0


def _near_miss_circuit(rng, n):
    """H on most qubits, then random fragments: CX RZ CX triples and their
    near misses (a reversed second CX, the RZ on the control or on a third
    qubit, the second CX on another pair), repeated triples on one pair in
    either direction, runs of RZ alone, lone RZ CX blocks and lone CXs, H and
    RX; sometimes a triple cut off at the end of the list."""
    gates = [Gate("H", (q,)) for q in range(n) if rng.random() < 0.8]
    for _ in range(int(rng.integers(0, 12))):
        kind = int(rng.integers(10 if n > 2 else 8 if n > 1 else 2))
        j, k, l = ([int(q) for q in rng.permutation(n)] * 3)[:3]  # distinct up to n
        if kind == 0:  # RZ alone, one to three of them
            gates += [Gate("RZ", (int(rng.integers(n)),), _angle(rng))
                      for _ in range(int(rng.integers(1, 4)))]
        elif kind == 1:  # H or RX, after the first CX too
            gates.append(Gate("RX", (j,), _angle(rng)) if rng.random() < 0.5 else Gate("H", (j,)))
        elif kind == 2:  # a full triple
            gates += [Gate("CX", (j, k)), Gate("RZ", (k,), _angle(rng)), Gate("CX", (j, k))]
        elif kind == 3:  # reversed second CX
            gates += [Gate("CX", (j, k)), Gate("RZ", (k,), _angle(rng)), Gate("CX", (k, j))]
        elif kind == 4:  # RZ on the control
            gates += [Gate("CX", (j, k)), Gate("RZ", (j,), _angle(rng)), Gate("CX", (j, k))]
        elif kind == 5:  # repeated triples on one pair, either direction
            for a, b in ((j, k), (j, k) if rng.random() < 0.5 else (k, j)):
                gates += [Gate("CX", (a, b)), Gate("RZ", (b,), _angle(rng)), Gate("CX", (a, b))]
        elif kind == 6:  # a reduced block: RZ then a lone CX
            gates += [Gate("RZ", (k,), _angle(rng)), Gate("CX", (j, k))]
        elif kind == 7:  # a lone CX
            gates.append(Gate("CX", (j, k)))
        elif kind == 8:  # RZ on a third qubit
            gates += [Gate("CX", (j, k)), Gate("RZ", (l,), _angle(rng)), Gate("CX", (j, k))]
        else:  # the two CXs on different pairs
            gates += [Gate("CX", (j, k)), Gate("RZ", (k,), _angle(rng)), Gate("CX", (l, k))]
    if n > 1 and rng.random() < 0.3:  # a triple cut off at the end
        j, k = (int(q) for q in rng.choice(n, size=2, replace=False))
        gates += [Gate("CX", (j, k)), Gate("RZ", (k,), _angle(rng))][:int(rng.integers(1, 3))]
    return CircuitIR(n, gates)


def test_run_ideal_matches_the_per_gate_reference():
    # the engine before diagonal runs, one gate at a time, on 1,200 builder
    # circuits (every strategy, p = 1..3) and 1,000 hand-built near misses,
    # plus circuits with no gates
    rng = np.random.default_rng(23)
    circuits = [CircuitIR(n, []) for n in (0, 1, 5)]
    for i in range(300):
        n, p = int(rng.integers(2, 10)), 1 + i % 3
        g = generate_erdos_renyi(n, float(rng.uniform(0.3, 1.0)), seed=i)
        params = AnsatzParams(p, tuple(_angle(rng) for _ in range(p)),
                              tuple(_angle(rng) for _ in range(p)))
        root, B = int(rng.integers(n)), int(rng.integers(1, 6))
        circuits += [circuit_for(g, schedule_for(g, s, root, B), params) for s in STRATEGIES]
    circuits += [_near_miss_circuit(rng, int(rng.integers(1, 8))) for _ in range(1000)]
    for circ in circuits:
        got, want = run_ideal(circ).amplitudes, run_ideal_reference(circ)
        assert np.abs(got - want).max() <= 1e-12, circ.gates


def test_zz_diagonal_matches_the_sign_sum():
    # E[x] = sum h_q s_q + sum J_jk s_j s_k, s_q = +1 or -1 as bit q of x is 0 or 1
    rng = np.random.default_rng(22)
    for n in range(9):
        h = {q: float(rng.normal()) for q in range(n) if rng.random() < 0.7}
        J = {(j, k): float(rng.normal()) for j in range(n) for k in range(j + 1, n)
             if rng.random() < 0.5}
        s = 1 - 2 * ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1)
        want = np.zeros(2 ** n)
        for q, a in h.items():
            want += a * s[:, q]
        for (j, k), a in J.items():
            want += a * s[:, j] * s[:, k]
        assert np.allclose(_zz_diagonal(n, h, J), want, rtol=0, atol=1e-12)


def test_run_ideal_holds_no_complex_temporary():
    # psi, spare, and a run's float E plus its half-length buffer: 44 bytes a
    # basis state. StateVector's norm check (np.vdot) allocates nothing of
    # size 2^n, so one more float 2^n temporary would pass 44
    n = 14
    g = generate_erdos_renyi(n, 0.5, seed=n)
    params = AnsatzParams(2, (0.3, 0.5), (0.7, 0.2))
    for strategy in ("traditional", "greedy"):
        circ = circuit_for(g, schedule_for(g, strategy, 0, 3), params)
        tracemalloc.start()
        try:
            run_ideal(circ)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 32 * 2 ** n < peak <= 44 * 2 ** n + (64 << 10)


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


def _random_state(rng, n):
    amplitudes = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    amplitudes[rng.random(2 ** n) < rng.random()] = 0.0  # some sparse states
    if not amplitudes.any():
        amplitudes[0] = 1.0
    return StateVector(n, amplitudes / np.linalg.norm(amplitudes))


def test_expected_cut_matches_the_bit_count_reference():
    # the slice sums against the per-edge bit count over every basis index,
    # on 2000 seeded states and ER graphs
    rng = np.random.default_rng(2000)
    for i in range(2000):
        n = int(rng.integers(2, 13))
        g = generate_erdos_renyi(n, float(rng.uniform(0.3, 1.0)), seed=i)
        sv = _random_state(rng, n)
        assert abs(expected_cut(sv, g) - expected_cut_reference(sv, g)) <= 1e-12 * g.m


def test_expected_cut_matches_the_reference_at_the_statevector_cap():
    g = generate_erdos_renyi(20, 0.5, seed=20)
    sv = _random_state(np.random.default_rng(20), 20)
    assert abs(expected_cut(sv, g) - expected_cut_reference(sv, g)) <= 1e-12 * g.m


def test_p1_closed_form_matches_the_matrix_oracle():
    # fixes the closed form's convention (gamma' = -2 gamma) on every
    # connected graph with n <= 4, through kron matrices and a bit count
    # that share nothing with run_ideal or expected_cut
    rng = np.random.default_rng(4)
    for n in (2, 3, 4):
        pairs = list(combinations(range(n), 2))
        for k in range(n - 1, len(pairs) + 1):
            for edges in combinations(pairs, k):
                if not edges_connected(n, edges):
                    continue
                g = Graph(n, edges)
                gamma, beta = (float(a) for a in rng.uniform(-np.pi, np.pi, 2))
                params = AnsatzParams(1, (gamma,), (beta,))
                for strategy in STRATEGIES:
                    psi = run_matrix_oracle(circuit_for(g, schedule_for(g, strategy, 0, 3), params))
                    cut = sum(abs(a) ** 2 * sum((i >> u ^ i >> v) & 1 for u, v in g.edges)
                              for i, a in enumerate(psi))
                    assert cut == pytest.approx(p1_cut_closed_form(g, gamma, beta), abs=1e-12)


def test_p1_closed_form_at_the_statevector_cap():
    g = generate_erdos_renyi(20, 0.15, seed=3)
    params = AnsatzParams(1, (0.7,), (-1.1,))
    want = p1_cut_closed_form(g, 0.7, -1.1)
    for strategy in STRATEGIES:
        sv = run_ideal(circuit_for(g, schedule_for(g, strategy, 0, 3), params))
        assert abs(expected_cut(sv, g) - want) <= 1e-9


def test_zero_noise_success_is_exactly_one():
    g = generate_erdos_renyi(5, 0.6, seed=4)
    t = build_greedy_tree(g, 0, HeuristicConfig(B=3))
    sched = schedule_tree_ordered(g, t)
    circ = build_optimized(g, AnsatzParams(1, (0.8,), (0.3,)), t, sched)
    result = run_noisy(circ, NoiseParams(0.0, 0.0, 0.0))
    assert result.p_success == 1.0


def test_single_cnot_closed_form():
    # depolarizing a 2-qubit pure state |00> with probability p leaves
    # (1-p)|00><00| + p*I/4, so the overlap is (1-p) + p/4
    circ = CircuitIR(2, [Gate("CX", (0, 1), tag=(1, 1))])
    p = 0.01
    result = run_noisy(circ, NoiseParams(p_cx=p, p_1q=0.0, p_idle=0.0))
    assert result.p_success == pytest.approx(1 - p + p / 4, abs=1e-12)


def test_full_k2_circuit_matches_hand_channel_algebra():
    # K2 with idle noise (its single step keeps both qubits busy); larger
    # graphs with p_idle = 0, which the hand algebra does not model, so the
    # column-side kernels are checked at n > 2 too
    cases = [(generate_complete(2), (0.9, 0.4), NoiseParams(0.02, 0.005, 0.003))]
    for g in (generate_cycle(3), generate_cycle(4), generate_erdos_renyi(4, 0.6, seed=8)):
        cases.append((g, (0.7, 1.1), NoiseParams(0.02, 0.005, 0.0)))
    for g, (gamma, beta), noise in cases:
        n = g.n
        sched = schedule_traditional(g)
        circ = build_traditional(g, AnsatzParams(1, (gamma,), (beta,)), sched)
        rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
        rho[0, 0] = 1.0
        for gate in circ.gates:
            U = full_matrix(n, gate)
            rho = U @ rho @ U.conj().T
            p = noise.p_cx if gate.name == "CX" else noise.p_1q
            rho = depolarize_oracle(rho, n, list(gate.qubits), p)
        psi = run_matrix_oracle(circ)
        expected = float(np.real(psi.conj() @ rho @ psi))

        result = run_noisy(circ, noise)
        assert result.p_success == pytest.approx(expected, abs=1e-10)


def _depolarize(rho, n, qubits, p):
    """The engine's channel, as the pass of an identity gate with its channel
    on qubits (RZ(0), or a noisy CX after a noiseless one), applied to rho
    through a rho -> Pauli -> rho round trip."""
    if len(qubits) == 1:
        R = _ptm("RZ", 0.0, 1.0 - p)
    else:
        R = _ptm("CX", None, 1.0 - p) @ _ptm("CX", None)
    out = np.empty((4,) * n)
    _ptm_pass(rho_to_pauli(rho, n), out, qubits, R)
    return pauli_to_rho(out, n)


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
    result = run_noisy(circ, NoiseParams())
    assert result.trace == pytest.approx(1.0, abs=1e-9)


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
    p0 = run_noisy(circ, base).p_success
    for bump in (
        NoiseParams(0.03, 0.001, 0.002),
        NoiseParams(0.01, 0.004, 0.002),
        NoiseParams(0.01, 0.001, 0.008),
    ):
        assert run_noisy(circ, bump).p_success <= p0 + 1e-12


def test_noisy_qubit_guard():
    g = generate_complete(11)
    sched = schedule_traditional(g)
    circ = build_traditional(g, AnsatzParams(1, (0.1,), (0.1,)), sched)
    with pytest.raises(ValueError, match="too many"):
        run_noisy(circ, NoiseParams())


def test_idle_channels_follow_step_tags():
    # only idle noise on |000>, which the CNOTs leave alone: a qubit idle
    # through k tagged steps keeps <Z> = (1 - p_idle)^k and so scores
    # (1 + (1 - p_idle)^k) / 2; untagged gates add no idle channel
    p_idle = 0.02
    noise = NoiseParams(p_cx=0.0, p_1q=0.0, p_idle=p_idle)

    def idle(k):
        return (1 + (1 - p_idle) ** k) / 2

    cx = Gate("CX", (0, 1), tag=(1, 1))
    cases = [
        ([cx], idle(1)),
        ([cx, cx], idle(1)),  # one run of equal tags is one step
        ([cx, Gate("CX", (0, 1), tag=(1, 2))], idle(2)),
        ([cx, Gate("RX", (1,), 0.0), Gate("CX", (0, 1), tag=(2, 1))], idle(2)),
        ([Gate("CX", (0, 1)), Gate("RZ", (1,), 0.3)], 1.0),
        ([cx, Gate("CX", (0, 2), tag=(1, 2))], idle(1) ** 2),  # qubit 2, then qubit 1
    ]
    for gates, want in cases:
        assert run_noisy(CircuitIR(3, gates), noise).p_success == pytest.approx(want, abs=1e-15)
    assert idle(1) == pytest.approx(0.99, abs=1e-15)


def test_statevector_and_noise_validation():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(1, np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(ValueError):
        NoiseParams(p_cx=1.0)
    with pytest.raises(ValueError):
        NoiseParams(p_idle=-0.1)


def test_statevector_refuses_non_finite_amplitudes():
    for bad in ([np.nan, 0.0], [np.inf, 0.0], [1.0, np.nan]):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(1, np.array(bad, dtype=complex))


def test_gate_ptms_are_orthogonal_and_fix_identity():
    rng = np.random.default_rng(5)
    keys = [("H", None), ("CX", None), ("RX", np.pi), ("RZ", 0.0)]
    keys += [(name, float(a)) for name in ("RX", "RZ") for a in rng.uniform(-7, 7, 20)]
    for name, angle in keys:
        R = _ptm(name, angle)
        assert np.allclose(R @ R.T, np.eye(len(R)), atol=1e-12)
        assert R[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert not R[0, 1:].any() and not R[1:, 0].any()


def _random_run(rng, max_n):
    """A random graph, strategy, root, B, angles and noise; each noise slot
    is zero a quarter of the time."""
    n = int(rng.integers(2, max_n + 1))
    g = generate_erdos_renyi(n, float(rng.uniform(0.3, 0.9)), seed=int(rng.integers(1 << 30)))
    strategy = STRATEGIES[int(rng.integers(len(STRATEGIES)))]
    sched = schedule_for(g, strategy, int(rng.integers(n)), int(rng.integers(1, 7)))
    p = int(rng.integers(1, 3))
    params = AnsatzParams(p, tuple(rng.uniform(-np.pi, np.pi, p)), tuple(rng.uniform(-np.pi, np.pi, p)))
    noise = NoiseParams(*(float(x) if rng.random() > 0.25 else 0.0 for x in rng.uniform(0, 0.2, 3)))
    return circuit_for(g, sched, params), sched, noise


def test_matches_density_matrix_reference():
    # the complex density-matrix engine this one replaced, on 1000 seeded runs
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        circ, sched, noise = _random_run(rng, 7)
        got, want = run_noisy(circ, noise), run_noisy_reference(circ, sched, noise)
        assert got.p_success == pytest.approx(want.p_success, abs=1e-12)
        assert got.trace == pytest.approx(want.trace, abs=1e-12)
        if not (noise.p_cx or noise.p_1q or noise.p_idle):
            assert got.p_success == 1.0


def test_idle_noise_matches_dense_reference():
    rng = np.random.default_rng(77)
    for _ in range(50):
        circ, sched, noise = _random_run(rng, 4)
        noise = NoiseParams(noise.p_cx, noise.p_1q, float(rng.uniform(0.01, 0.2)))
        got, want = run_noisy(circ, noise), run_noisy_dense(circ, sched, noise)
        assert got.p_success == pytest.approx(want.p_success, abs=1e-12)
        assert got.trace == pytest.approx(want.trace, abs=1e-12)


def test_noisy_run_logs_one_debug_record(caplog, capsys):
    circ = CircuitIR(2, [Gate("H", (0,)), Gate("CX", (0, 1), tag=(1, 1))])
    run_noisy(circ, NoiseParams(p_cx=0.01, p_1q=0.0, p_idle=0.0))
    assert not caplog.records and capsys.readouterr() == ("", "")
    with caplog.at_level(logging.DEBUG, logger="treeqaoa.simulate"):
        run_noisy(circ, NoiseParams(p_cx=0.01, p_1q=0.002, p_idle=0.0))
    (record,) = [r for r in caplog.records if r.name == "treeqaoa.simulate"]
    assert record.levelno == logging.DEBUG
    assert record.args[0] == 2  # the H channel and the CNOT channel
    assert record.args[1] < 1e-12  # |1 - trace|
    assert record.args[2] == 3 * 8 * 4 ** 2  # three 8 * 4^n-byte buffers at the peak


def _random_gate_list(rng):
    """A random circuit that stresses the fold: n from 2 to 9, runs of one to
    three CNOTs on one pair in either order with 1-qubit gates before, between
    and after them, pairs on the lowest and on the highest axes as often as
    elsewhere, and tagged and untagged runs mixed; each noise slot is zero a
    quarter of the time."""
    n = int(rng.integers(2, 10))
    gates = []

    def maybe_1q(pair, tag):
        if rng.random() < 0.5:
            name = ("H", "RZ", "RX")[rng.integers(3)]
            angle = None if name == "H" else float(rng.uniform(-np.pi, np.pi))
            q = pair[rng.integers(2)] if rng.random() < 0.7 else int(rng.integers(n))
            gates.append(Gate(name, (q,), angle, tag))

    for _ in range(int(rng.integers(1, 5))):
        tag = None if rng.random() < 0.3 else (int(rng.integers(1, 3)), int(rng.integers(1, 5)))
        for _ in range(int(rng.integers(1, 4))):
            pick = rng.integers(3)
            if pick == 0:
                pair = [0, 1]
            elif pick == 1:
                pair = [n - 1, n - 2]
            else:
                pair = [int(q) for q in rng.choice(n, size=2, replace=False)]
            for _ in range(int(rng.integers(1, 4))):
                maybe_1q(pair, tag)
                gates.append(Gate("CX", tuple(rng.permutation(pair).tolist()), None, tag))
            maybe_1q(pair, tag)
    noise = NoiseParams(*(float(x) if rng.random() > 0.25 else 0.0 for x in rng.uniform(0, 0.2, 3)))
    return CircuitIR(n, gates), noise


def test_folded_engine_matches_per_gate_engine():
    # the engine before gates were folded, one pass per gate, on 1000 seeded runs
    rng = np.random.default_rng(1010)
    for _ in range(1000):
        circ, noise = _random_gate_list(rng)
        got, want = run_noisy(circ, noise), run_noisy_per_gate(circ, noise)
        assert got.p_success == pytest.approx(want.p_success, abs=1e-12)
        assert got.trace == pytest.approx(want.trace, abs=1e-12)
        if not (noise.p_cx or noise.p_1q or noise.p_idle):
            assert got.p_success == want.p_success == 1.0


def test_two_qubit_pass_on_every_pair():
    # a dense 16x16 map, row 4 * (first digit) + second, against tensordot
    rng = np.random.default_rng(16)
    n = 5
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            R, r = rng.normal(size=(16, 16)), rng.normal(size=(4,) * n)
            src, dst = r.copy(), np.empty_like(r)
            _ptm_pass(src, dst, (a, b), R)
            axes = (n - 1 - a, n - 1 - b)
            want = np.tensordot(R.reshape(4, 4, 4, 4), r, axes=((2, 3), axes))
            assert np.allclose(dst, np.moveaxis(want, (0, 1), axes), rtol=0, atol=1e-12)


def test_one_qubit_pass_on_every_axis():
    # a dense map on one axis against tensordot: 4x4 on Pauli coefficients,
    # 2x2 complex on a statevector; each size takes the row product on its
    # low axes and the batched matmul from d * d**q >= 64 up
    rng = np.random.default_rng(4)
    for d, n in ((4, 5), (2, 8)):
        for q in range(n):
            R, r = rng.normal(size=(d, d)), rng.normal(size=(d,) * n)
            if d == 2:
                R, r = R + 1j * rng.normal(size=R.shape), r + 1j * rng.normal(size=r.shape)
            src, dst = r.copy(), np.empty_like(r)
            _ptm_pass(src, dst, (q,), R)
            axis = n - 1 - q
            want = np.moveaxis(np.tensordot(R, r, axes=(1, axis)), 0, axis)
            assert np.allclose(dst, want, rtol=0, atol=1e-12)
            assert np.array_equal(src, r)  # a one-qubit pass leaves src alone


def test_kron_is_bitwise_np_kron():
    # one product per entry, as in np.kron: the CX fold's 4x4 (x) 4x4, and
    # the row product's kron(R, I_B) for real and complex d x d R
    rng = np.random.default_rng(5)
    pairs = [(rng.normal(size=(4, 4)), rng.normal(size=(4, 4))) for _ in range(20)]
    for d in (2, 4):
        for B in (1, 2, 4, 8, 16):
            R = rng.normal(size=(d, d))
            pairs += [(R, np.eye(B)), (R + 1j * rng.normal(size=(d, d)), np.eye(B))]
    for a, b in pairs:
        got, want = _kron(a, b), np.kron(a, b)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def _debug_record(caplog, circ, noise):
    with caplog.at_level(logging.DEBUG, logger="treeqaoa.simulate"):
        result = run_noisy(circ, noise)
    (record,) = [r for r in caplog.records if r.name == "treeqaoa.simulate"]
    return result, record


def test_noisy_run_counts_its_passes(caplog):
    # the H layer folds into the first CNOT pass, and so do the RZ and the
    # reversed CNOT on the same pair; CX(1, 2) is a second pass, which takes
    # in qubit 2's H and its idle scale; the idle scale of qubit 0 and the RX
    # layer are one 1-qubit pass per qubit: 5 passes, where one per gate
    # would be 10
    gates = [Gate("H", (q,)) for q in range(3)]
    gates += [Gate("CX", (0, 1), tag=(1, 1)), Gate("RZ", (1,), 0.4, (1, 1)),
              Gate("CX", (1, 0), tag=(1, 1)), Gate("CX", (1, 2), tag=(1, 2))]
    gates += [Gate("RX", (q,), 0.6) for q in range(3)]
    _, record = _debug_record(caplog, CircuitIR(3, gates), NoiseParams())
    assert record.args[0] == 12  # ten gate channels and two idle ones
    assert record.args[3] == 5


def test_noisy_run_at_the_qubit_bound(caplog):
    # the largest allowed density run peaks at three state buffers
    g = generate_cycle(MAX_DENSITY_QUBITS)
    circ = build_traditional(g, AnsatzParams(1, (0.4,), (0.7,)), schedule_traditional(g))
    result, record = _debug_record(caplog, circ, NoiseParams())
    assert abs(1 - result.trace) < 1e-9
    assert 0.0 < result.p_success < 1.0
    assert record.args[2] == 3 * 8 * 4 ** 10
