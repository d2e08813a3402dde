"""Shared independent oracles and fixtures for the test suite.

Everything here deliberately avoids the library's tensor kernels: states
evolve through explicit kron-built full matrices, and channels through
explicit partial traces, so agreement with the engine is meaningful. The one
exception is run_noisy_per_gate, the Pauli-transfer engine as it was before
gates were folded: it keeps its own per-gate passes but shares the library's
gate PTMs (_ptm) and final overlap (_overlap), which the other references
check.
"""

import contextlib
import math
from collections import defaultdict, deque
from itertools import groupby
from operator import attrgetter

import numpy as np

from treeqaoa.graphs import (
    MAX_ER_REJECTIONS, Edge, Graph, GraphError, canonical_edge, edges_connected,
)
from treeqaoa.oracle import MAX_ORACLE_VERTICES, OracleResult
from treeqaoa.scheduling import StepSchedule
from treeqaoa.simulate import MAX_DENSITY_QUBITS, SimResult, _overlap, _ptm, run_ideal
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


def matrix_1q(gate):
    """The 2x2 unitary of an H, RZ or RX gate."""
    if gate.name == "H":
        return _H
    if gate.name == "RZ":
        return np.diag([np.exp(-0.5j * gate.angle), np.exp(0.5j * gate.angle)])
    c, s = np.cos(gate.angle / 2), np.sin(gate.angle / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def full_matrix(n, gate):
    if gate.name != "CX":
        return embed_1q(n, gate.qubits[0], matrix_1q(gate))
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


def expected_cut_reference(sv, g):
    """simulate.expected_cut as it was before it summed probability slices:
    one full-length bit count per edge over all 2^n basis indices."""
    probs = np.abs(sv.amplitudes) ** 2
    idx = np.arange(2 ** g.n)
    cut_sizes = np.zeros(2 ** g.n)
    for u, v in g.edges:
        cut_sizes += ((idx >> u) ^ (idx >> v)) & 1
    return float(probs @ cut_sizes)


def p1_cut_closed_form(g, gamma, beta):
    """Expected cut of the p = 1 ansatz, edge by edge, by the closed form of
    Wang, Hadfield, Jiang & Rieffel (PRA 97, 022304, 2018): with d = deg u - 1,
    e = deg v - 1 and f triangles on uv, edge uv contributes
    1/2 + 1/4 sin 4b sin g (cos^d g + cos^e g)
        - 1/4 sin^2 2b cos^(d+e-2f) g (1 - cos^f 2g)
    at g = -2 gamma and b = beta, since CX RZ(2 gamma) CX = exp(-i gamma Z Z)
    and RX(2 beta) = exp(-i beta X)."""
    gp = -2.0 * gamma
    c, c2 = math.cos(gp), math.cos(2.0 * gp)
    nbrs = [set(a) for a in g.adjacency]
    total = 0.0
    for u, v in g.edges:
        d, e, f = len(nbrs[u]) - 1, len(nbrs[v]) - 1, len(nbrs[u] & nbrs[v])
        total += (0.5 + 0.25 * math.sin(4.0 * beta) * math.sin(gp) * (c ** d + c ** e)
                  - 0.25 * math.sin(2.0 * beta) ** 2 * c ** (d + e - 2 * f) * (1.0 - c2 ** f))
    return total


# ---------------------------------------------------------------------------
# the density-matrix engine that the Pauli-transfer engine replaced, kept as
# the slow reference for differential tests: a complex (2,)*(2n) tensor with
# axis n-1-q for qubit q on the row side and 2n-1-q on the column side, that
# stays a pure (2,)*n statevector until the first nonzero channel fires


def _slot(t, assignments):
    idx = [slice(None)] * t.ndim
    for axis, bit in assignments:
        idx[axis] = bit
    return t[tuple(idx) + (Ellipsis,)]


def gate_inplace_reference(t, top, gate, conj):
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
    M = matrix_1q(gate).conj() if conj else matrix_1q(gate)
    new0 = M[0, 0] * v0 + M[0, 1] * v1
    v1 *= M[1, 1]
    v1 += M[1, 0] * v0
    v0[...] = new0


def run_ideal_reference(c):
    """simulate.run_ideal as it was before it folded diagonal runs: from
    |0...0>, every gate in turn on a (2,)*n tensor (gate_inplace_reference)."""
    n = c.n_qubits
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for gate in c.gates:
        gate_inplace_reference(psi, n, gate, conj=False)
    return psi.reshape(-1)


def dm_depolarize_inplace(t, n, qubits, p):
    """Depolarize the (2,)*(2n) density tensor t on qubits, in place."""
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


def noisy_events(c, sched, noise):
    """The noisy run in order: ("gate", gate) for each gate, then
    ("channel", qubits, p) for the channel after it, and the idle channels of
    each step, one qubit at a time, when the next step or layer begins. A
    gate's (layer, step) tag names its step; the idle qubits of step s are
    those no edge that sched puts at s touches."""
    busy = {s: set() for s in range(1, sched.num_steps + 1)}
    for (u, v), s in sched.step_of.items():
        busy[s].update((u, v))

    def idle(key):
        if key is not None:
            for q in sorted(set(range(c.n_qubits)) - busy[key[1]]):
                yield ("channel", (q,), noise.p_idle)

    current = None
    for gate in c.gates:
        if gate.tag != current:
            yield from idle(current)
            current = gate.tag
        yield ("gate", gate)
        yield ("channel", gate.qubits, noise.p_cx if gate.name == "CX" else noise.p_1q)
    yield from idle(current)


def _score(c, rho):
    """SimResult of a final (2^n, 2^n) density matrix against the ideal state,
    normalized by both norms as the engine does."""
    ideal = run_ideal(c)
    psi = ideal.amplitudes
    ref = float(np.real(np.vdot(psi, psi)))
    tr = float(np.real(np.trace(rho)))
    return SimResult(float(np.real(psi.conj() @ rho @ psi)) / (ref * tr), tr)


def run_noisy_reference(c, sched, noise):
    """The complex density-matrix engine that the Pauli-transfer engine
    replaced: same channels in the same order, evolved on a (2,)*(2n) tensor."""
    n = c.n_qubits
    t = np.zeros((2,) * n, dtype=complex)
    t[(0,) * n] = 1.0
    for event in noisy_events(c, sched, noise):
        if event[0] == "gate":
            gate_inplace_reference(t, n, event[1], False)
            if t.ndim > n:
                gate_inplace_reference(t, 2 * n, event[1], True)
        elif event[2] != 0.0:
            if t.ndim == n:
                psi = t.reshape(-1)
                t = np.outer(psi, psi.conj()).reshape((2,) * (2 * n))
            dm_depolarize_inplace(t, n, event[1], event[2])
    if t.ndim == n:
        ideal = run_ideal(c)
        psi, mine = ideal.amplitudes, t.reshape(-1)
        ref, tr = float(np.real(np.vdot(psi, psi))), float(np.real(np.vdot(mine, mine)))
        return SimResult(float(abs(np.vdot(psi, mine)) ** 2) / (ref * tr), tr)
    return _score(c, t.reshape(2 ** n, 2 ** n))


def run_noisy_dense(c, sched, noise):
    """The same run on a dense (2^n, 2^n) density matrix, through the kron
    matrix oracle and the partial-trace channel oracle."""
    n = c.n_qubits
    rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rho[0, 0] = 1.0
    for event in noisy_events(c, sched, noise):
        if event[0] == "gate":
            U = full_matrix(n, event[1])
            rho = U @ rho @ U.conj().T
        else:
            rho = depolarize_oracle(rho, n, list(event[1]), event[2])
    return _score(c, rho)


# ---------------------------------------------------------------------------
# the Pauli-transfer engine before gates were folded, kept as the slow
# reference for the folded one: one pass over the 4^n coefficients per gate
# and its channel, and one in-place scale per idle qubit


def ptm_pass_per_gate(src, dst, qubits, R, keep):
    """dst = R src on the size-4 axes of qubits, rows but the first scaled by
    keep; for two qubits R must be a signed permutation (a CX)."""
    scale = np.where(np.arange(len(R)) == 0, 1.0, keep)
    if len(qubits) == 1:
        # batched over the axes above, or, while the runs below are short, on rows
        B, R = 4 ** qubits[0], R * scale[:, None]
        if B >= 16:
            np.matmul(R, src.reshape(-1, 4, B), out=dst.reshape(-1, 4, B))
        else:
            np.matmul(src.reshape(-1, 4 * B), np.kron(R, np.eye(B)).T, out=dst.reshape(-1, 4 * B))
        return
    # two qubits: 16 scaled block copies
    axes = [src.ndim - 1 - q for q in qubits]
    for a, row in enumerate(R):
        b = np.flatnonzero(row)[0]
        np.multiply(_slot(src, list(zip(axes, divmod(b, 4)))), row[b] * scale[a],
                    out=_slot(dst, list(zip(axes, divmod(a, 4)))))


def run_noisy_per_gate(c, noise):
    """run_noisy as it was before gates were folded: each gate with its
    channel is one pass, and each idle qubit of a tagged step one scale."""
    n = c.n_qubits
    if n > MAX_DENSITY_QUBITS:
        raise ValueError(f"too many qubits for density matrix: {n} > {MAX_DENSITY_QUBITS}")
    psi = run_ideal(c).amplitudes
    r = np.zeros((4,) * n)
    r[np.ix_(*[[0, 3]] * n)] = 1.0
    spare = np.empty_like(r)
    channels = 0
    for tag, step in groupby(c.gates, key=attrgetter("tag")):
        busy = set()
        for gate in step:
            p = noise.p_cx if gate.name == "CX" else noise.p_1q
            ptm_pass_per_gate(r, spare, gate.qubits, _ptm(gate.name, gate.angle), 1.0 - p)
            r, spare = spare, r
            channels += p > 0.0
            busy.update(gate.qubits)
        for q in set(range(n)) - busy if tag is not None and noise.p_idle else ():
            r[(slice(None),) * (n - 1 - q) + (slice(1, None),)] *= 1.0 - noise.p_idle
            channels += 1
    ref = float(np.real(np.vdot(psi, psi)))
    if channels == 0:
        return SimResult(1.0, ref)
    trace = float(r[(0,) * n])
    return SimResult(_overlap(r, psi, spare) / 2 ** n / (ref * trace), trace)


_PAULI_1Q = [np.eye(2), _X, np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]


def _pauli_string(digits):
    """Kron of the Paulis indexed by digits, listed for qubits n-1..0."""
    P = np.eye(1)
    for d in digits:
        P = np.kron(P, _PAULI_1Q[d])
    return P


def rho_to_pauli(rho, n):
    """r_P = Tr(P rho) as a (4,)*n array, axis n-1-q for qubit q."""
    r = np.empty((4,) * n)
    for digits in np.ndindex(*r.shape):
        r[digits] = np.real(np.trace(_pauli_string(digits) @ rho))
    return r


def pauli_to_rho(r, n):
    """rho = 2^-n sum_P r_P P."""
    return sum(r[d] * _pauli_string(d) for d in np.ndindex(*r.shape)) / 2 ** n


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


def generate_erdos_renyi_reference(n, p_edge, seed):
    """The G(n, p) sampler that the triu_indices one replaced: the same
    draws against a Python list of every pair (u, v), u < v."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng = np.random.default_rng(seed)
    for _ in range(MAX_ER_REJECTIONS):
        draws = rng.random(len(pairs))
        edges = [pairs[i] for i in np.flatnonzero(draws < p_edge)]
        if edges_connected(n, edges):
            return Graph(n, edges)
    raise GraphError(f"{MAX_ER_REJECTIONS} disconnected samples in a row")


def read_edge_list_reference(text: str) -> Graph:
    """The edge-list parser as it was when it repeated Graph's range,
    self-loop and duplicate checks itself: every error it raises about one
    edge carries the 1-based line number."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise GraphError("line 1: missing 'n m' header")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphError(f"line 1: expected 'n m' header, got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphError(f"line 1: non-integer header {lines[0]!r}") from None
    edges: list[Edge] = []
    seen: set[Edge] = set()
    for i, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise GraphError(f"line {i}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {i}: non-integer vertex in {raw!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"line {i}: vertex out of range in ({u}, {v})")
        if u == v:
            raise GraphError(f"line {i}: self-loop at vertex {u}")
        e = canonical_edge(u, v)
        if e in seen:
            raise GraphError(f"line {i}: duplicate edge ({e[0]}, {e[1]})")
        seen.add(e)
        edges.append(e)
    if len(edges) != m:
        raise GraphError(f"header declares m={m} edges but found {len(edges)}")
    return Graph(n, edges)


def tree_from_edges(n, root, parent_child_edges):
    """Build a RootedSpanningTree from explicit (parent, child) pairs
    listed in discovery order; n must be the tree's vertex count."""
    t = RootedSpanningTree(root, tuple(parent_child_edges))
    assert t.n == n
    return t


def tree_views_reference(t):
    """(parent, level, branch_count, height) by the per-view loops the tree
    ran before its constructor derived them, one loop per view."""
    n = len(t.discovery_order) + 1
    parent = [None] * n
    for p, c in t.discovery_order:
        parent[c] = p
    level = [0] * n
    for p, c in t.discovery_order:
        level[c] = level[p] + 1
    branch = [0] * n
    for p, _c in t.discovery_order:
        branch[p] += 1
    return tuple(parent), tuple(level), tuple(branch), max(level)


def tree_edge_set(t):
    """The tree's canonical edges, from discovery_order alone."""
    return frozenset(canonical_edge(u, v) for u, v in t.discovery_order)


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


def verify_schedule_reference(g, sched):
    """verify_schedule as it was before the linear rewrite: edges grouped by
    step in a dict of lists, and every tree edge's ancestor chain walked."""
    violations, step_of = [], sched.step_of
    by_step = defaultdict(list)
    for e in g.edges:
        by_step[step_of[e]].append(e)
    for s in sorted(by_step):
        owner = {}
        for e in by_step[s]:
            for vtx in e:
                if vtx in owner:
                    violations.append(
                        f"incident edges {owner[vtx]} and {e} share step {s}"
                    )
                else:
                    owner[vtx] = e

    t = sched.tree
    if t is not None:
        tree_edges = tree_edge_set(t)
        parent = tree_views_reference(t)[0]
        for u, v in t.discovery_order:
            e = canonical_edge(u, v)
            node = u
            while parent[node] is not None:
                p = parent[node]
                anc = canonical_edge(p, node)
                if step_of[anc] == step_of[e]:
                    violations.append(
                        f"tree edge {e} reuses step {step_of[e]} "
                        f"of its ancestor {anc}"
                    )
                node = p
        max_tree_step = max(step_of[e] for e in tree_edges)
        for e in g.edges:
            if e not in tree_edges and step_of[e] <= max_tree_step:
                violations.append(
                    f"non-tree edge {e} at step {step_of[e]} does not "
                    f"follow the tree phase (last tree step {max_tree_step})"
                )
    return violations


def ansatz_reference(g, params, step_of, t=None):
    """Ansatz as (name, qubits, angle, tag) tuples, from edges grouped per
    step with each group sorted and cost gates tagged (layer, step); with a
    tree, its edges' layer-1 blocks are RZ(child) then CX(parent, child),
    every other block CX RZ CX."""
    steps = {}
    for e in g.edges:
        steps.setdefault(step_of[e], []).append(e)
    oriented = {}
    if t is not None:
        oriented = {canonical_edge(u, v): (u, v) for u, v in t.discovery_order}
    gates = [("H", (q,), None, None) for q in range(g.n)]
    for layer in range(1, params.p + 1):
        gamma = params.gammas[layer - 1]
        for s in sorted(steps):
            for j, k in sorted(steps[s]):
                tag = (layer, s)
                if layer == 1 and (j, k) in oriented:
                    par, child = oriented[(j, k)]
                    gates.append(("RZ", (child,), 2.0 * gamma, tag))
                    gates.append(("CX", (par, child), None, tag))
                else:
                    gates.append(("CX", (j, k), None, tag))
                    gates.append(("RZ", (k,), 2.0 * gamma, tag))
                    gates.append(("CX", (j, k), None, tag))
        beta = params.betas[layer - 1]
        gates.extend(("RX", (q,), 2.0 * beta, None) for q in range(g.n))
    return gates


def circuit_text_reference(n_qubits, gates):
    """CircuitIR.to_text as it was before its qubit strings and angle reprs
    were cached: one f-string per gate, formatted from the gate's fields."""
    lines = [f"{n_qubits} {len(gates)}"]
    for gate in gates:
        if gate.name == "H":
            lines.append(f"H {gate.qubits[0]}")
        elif gate.name in ("RZ", "RX"):
            lines.append(f"{gate.name} {gate.qubits[0]} {gate.angle!r}")
        else:
            lines.append(f"CX {gate.qubits[0]} {gate.qubits[1]}")
    return "\n".join(lines) + "\n"


def _spanning_trees(g: Graph):
    """Yield spanning trees as edge-index tuples, with pruning.

    A branch is abandoned as soon as the chosen edges plus all undecided
    edges can no longer connect the graph.
    """
    m = g.m
    edges = g.edges

    def rec(i: int, chosen: list[int]):
        if len(chosen) == g.n - 1:
            yield tuple(chosen)
            return
        if i == m:
            return
        candidate = [edges[j] for j in chosen] + list(edges[i:])
        if not edges_connected(g.n, candidate):
            return
        u, v = edges[i]
        if _find(parent, u) != _find(parent, v):
            ru, rv = _find(parent, u), _find(parent, v)
            parent[ru] = rv
            chosen.append(i)
            yield from rec(i + 1, chosen)
            chosen.pop()
            parent[ru] = ru
        yield from rec(i + 1, chosen)

    parent = list(range(g.n))
    yield from rec(0, [])


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        x = parent[x]
    return x


def _root_tree(g: Graph, tree_edge_idx: tuple[int, ...], root: int) -> RootedSpanningTree:
    adj: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for i in tree_edge_idx:
        u, v = g.edges[i]
        adj[u].append(v)
        adj[v].append(u)
    order: list[tuple[int, int]] = []
    seen = [False] * g.n
    seen[root] = True
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in sorted(adj[u]):
            if not seen[v]:
                seen[v] = True
                order.append((u, v))
                queue.append(v)
    return RootedSpanningTree(root, tuple(order))


def _min_coloring(order: list[tuple[int, int]], parent_edge: list[int],
                  n: int) -> tuple[int, list[int]]:
    """Exact minimum-max-color assignment by branch and bound.

    order lists (u, v) pairs with u the already-connected endpoint;
    parent_edge[j] is the index of the edge feeding order[j]'s u endpoint
    (-1 at the root). Pass parent_edge = [-1]*m to drop the ancestor
    constraint and get a plain edge coloring.
    """
    m = len(order)
    if m == 0:
        return 0, []
    best = m
    best_colors = list(range(1, m + 1))
    colors = [0] * m
    used: list[set[int]] = [set() for _ in range(n)]

    def bt(j: int, current_max: int) -> None:
        nonlocal best, best_colors
        if current_max >= best:
            return
        if j == m:
            best = current_max
            best_colors = colors.copy()
            return
        u, v = order[j]
        banned = set(used[u]) | used[v]
        k = parent_edge[j]
        while k >= 0:
            banned.add(colors[k])
            k = parent_edge[k]
        for c in range(1, min(best - 1, current_max + 1) + 1):
            if c in banned:
                continue
            colors[j] = c
            used[u].add(c)
            used[v].add(c)
            bt(j + 1, max(current_max, c))
            used[u].remove(c)
            used[v].remove(c)
        colors[j] = 0

    bt(0, 0)
    return best, best_colors


def solve_exact_reference(g: Graph, root: int) -> OracleResult:
    """Global minimum steps over all spanning trees rooted at ``root``:
    the oracle as it was before its trees were bounded before coloring.
    Every tree is rooted and both of its phases colored in full."""
    if g.n > MAX_ORACLE_VERTICES:
        raise ValueError(f"oracle limited to n <= {MAX_ORACLE_VERTICES}, got {g.n}")
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range for n={g.n}")

    best_total: int | None = None
    best: tuple[RootedSpanningTree, dict[Edge, int]] | None = None
    trees_seen = 0
    for tree_idx in _spanning_trees(g):
        trees_seen += 1
        t = _root_tree(g, tree_idx, root)
        t_order = list(t.discovery_order)
        child_edge = {v: j for j, (_u, v) in enumerate(t_order)}
        parent_edge = [child_edge.get(u, -1) for u, _v in t_order]
        tree_min, tree_colors = _min_coloring(t_order, parent_edge, g.n)

        tree_set = tree_edge_set(t)
        rest = [e for e in g.edges if e not in tree_set]
        rest_min, rest_colors = _min_coloring(rest, [-1] * len(rest), g.n)

        total = tree_min + rest_min
        if best_total is None or total < best_total:
            step_of = {
                canonical_edge(u, v): tree_colors[j]
                for j, (u, v) in enumerate(t_order)
            }
            for j, e in enumerate(rest):
                step_of[e] = tree_min + rest_colors[j]
            best_total = total
            best = (t, step_of)

    assert best is not None and best_total is not None
    return OracleResult(
        best_steps=best_total,
        witness_schedule=StepSchedule(g, *best),
        trees_enumerated=trees_seen,
    )
