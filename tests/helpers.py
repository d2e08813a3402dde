"""Shared independent oracles and fixtures for the test suite.

Everything here deliberately avoids the library's tensor kernels: states
evolve through explicit kron-built full matrices, and channels through
explicit partial traces, so agreement with the engine is meaningful.
"""

import contextlib

import numpy as np

from treeqaoa.circuits import COST, INIT, MIXER
from treeqaoa.graphs import canonical_edge
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


def _probe(used_at, u, v, start):
    """Smallest step >= start missing from both endpoints' step sets."""
    s = start
    while s in used_at[u] or s in used_at[v]:
        s += 1
    used_at[u].add(s)
    used_at[v].add(s)
    return s


def schedule_reference(g, t=None):
    """Step map from per-vertex step sets, probed one step at a time.

    Without a tree: greedy edge coloring in canonical order. With a tree:
    its edges in discovery order, each above its parent edge's step, then
    the other edges in canonical order above the whole tree phase.
    """
    used_at = [set() for _ in range(g.n)]
    step_of = {}
    start = 1
    if t is not None:
        edge_step_of_child = {}
        for u, v in t.discovery_order:
            s = _probe(used_at, u, v, edge_step_of_child.get(u, 0) + 1)
            step_of[canonical_edge(u, v)] = s
            edge_step_of_child[v] = s
        start = max(step_of.values()) + 1
    for u, v in g.edges:
        if (u, v) not in step_of:
            step_of[(u, v)] = _probe(used_at, u, v, start)
    return step_of


def ansatz_reference(g, params, step_of, t=None):
    """Ansatz as (name, qubits, angle, tag) tuples, from edges grouped per
    step with each group sorted; with a tree, its edges' layer-1 blocks are
    RZ(child) then CX(parent, child), every other block CX RZ CX."""
    steps = {}
    for e in g.edges:
        steps.setdefault(step_of[e], []).append(e)
    oriented = {}
    if t is not None:
        oriented = {canonical_edge(u, v): (u, v) for u, v in t.discovery_order}
    gates = [("H", (q,), None, (INIT,)) for q in range(g.n)]
    for layer in range(1, params.p + 1):
        gamma = params.gammas[layer - 1]
        for s in sorted(steps):
            for j, k in sorted(steps[s]):
                tag = (COST, layer, (j, k))
                if layer == 1 and (j, k) in oriented:
                    par, child = oriented[(j, k)]
                    gates.append(("RZ", (child,), 2.0 * gamma, tag))
                    gates.append(("CX", (par, child), None, tag))
                else:
                    gates.append(("CX", (j, k), None, tag))
                    gates.append(("RZ", (k,), 2.0 * gamma, tag))
                    gates.append(("CX", (j, k), None, tag))
        beta = params.betas[layer - 1]
        gates.extend(("RX", (q,), 2.0 * beta, (MIXER, layer)) for q in range(g.n))
    return gates
