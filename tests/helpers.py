"""Shared independent oracles and fixtures for the test suite.

Everything here deliberately avoids the library's tensor kernels: states
evolve through explicit kron-built full matrices, and channels through
explicit partial traces, so agreement with the engine is meaningful.
"""

import contextlib

import numpy as np

from treeqaoa.trees import RootedSpanningTree

# a header that declares 10^9 vertices but one edge; only safe to parse
# because the graph constructor rejects it before any per-vertex allocation
HOSTILE_HEADER = "1000000000 1\n0 1\n"

_I2 = np.eye(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def embed_1q(n, q, U):
    """Little-endian: qubit q sits at kron slot n-1-q (low bits last)."""
    full = np.eye(1, dtype=complex)
    for slot in range(n - 1, -1, -1):
        full = np.kron(full, U if slot == q else _I2)
    return full


def full_matrix(n, gate):
    if gate.name == "H":
        return embed_1q(n, gate.qubits[0], _H)
    if gate.name == "RZ":
        u = np.diag([np.exp(-0.5j * gate.angle), np.exp(0.5j * gate.angle)])
        return embed_1q(n, gate.qubits[0], u)
    if gate.name == "RX":
        c, s = np.cos(gate.angle / 2), np.sin(gate.angle / 2)
        return embed_1q(n, gate.qubits[0], np.array([[c, -1j * s], [-1j * s, c]]))
    ctrl, tgt = gate.qubits
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    return embed_1q(n, ctrl, p0) + embed_1q(n, ctrl, p1) @ embed_1q(n, tgt, _X)


def run_matrix_oracle(circ):
    psi = np.zeros(2 ** circ.n_qubits, dtype=complex)
    psi[0] = 1.0
    for gate in circ.gates:
        psi = full_matrix(circ.n_qubits, gate) @ psi
    return psi


def depolarize_oracle(rho, n, qubits, p):
    """Channel algebra via explicit partial trace + elementwise rebuild."""
    if not qubits:
        return rho
    keep = [q for q in range(n) if q not in qubits]
    t = rho.reshape((2,) * (2 * n))
    for q in sorted(qubits, reverse=True):
        dims = t.ndim // 2
        t = np.trace(t, axis1=dims - 1 - q, axis2=2 * dims - 1 - q)
        n_local = dims - 1
        t = t.reshape((2 ** n_local, 2 ** n_local)).reshape((2,) * (2 * n_local))
    reduced = t.reshape(2 ** len(keep), 2 ** len(keep))
    full = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(2 ** n):
        for j in range(2 ** n):
            if any((i >> q) & 1 != (j >> q) & 1 for q in qubits):
                continue
            ik = sum(((i >> q) & 1) << b for b, q in enumerate(keep))
            jk = sum(((j >> q) & 1) << b for b, q in enumerate(keep))
            full[i, j] = reduced[ik, jk] / (2 ** len(qubits))
    return (1 - p) * rho + p * full


def tree_from_edges(n, root, parent_child_edges):
    """Build a RootedSpanningTree from explicit (parent, child) pairs
    listed in discovery order."""
    parent = [None] * n
    level = [0] * n
    branch = [0] * n
    for p, c in parent_child_edges:
        parent[c] = p
        level[c] = level[p] + 1
        branch[p] += 1
    return RootedSpanningTree(
        root=root,
        parent=tuple(parent),
        level=tuple(level),
        branch_count=tuple(branch),
        discovery_order=tuple(parent_child_edges),
    )


@contextlib.contextmanager
def address_space_cap(extra_bytes):
    """Cap this process's address space at its current size plus
    extra_bytes, so code that wrongly allocates per declared vertex raises
    MemoryError instead of exhausting the machine. No-op where the
    resource module or /proc/self/statm is unavailable."""
    try:
        import resource
        with open("/proc/self/statm") as fh:
            current = int(fh.read().split()[0]) * resource.getpagesize()
    except (ImportError, OSError):
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = current + extra_bytes
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
