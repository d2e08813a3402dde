"""Undirected simple connected graphs: representation, generators, edge-list I/O.

Vertices are dense 0-based integers. Edges are stored canonically as (u, v)
with u < v, sorted. All algorithms in this package assume the graph is
connected. Graph(n, edges) alone decides whether pairs form such a graph;
the generators and the edge-list parser hand it their pairs like any caller.

Randomness comes from numpy's ``default_rng`` (PCG64), so any generator
output is reproducible across platforms for a fixed seed.
"""

from __future__ import annotations

import logging
from typing import Iterable

import numpy as np

logger = logging.getLogger(__name__)

Edge = tuple[int, int]

# The generators refuse, with GraphError and before building any large
# list, a graph that needs more than MAX_GENERATOR_PAIRS vertex pairs
# (n(n-1)/2 for G(n, p) and complete graphs, n for a cycle), and a G(n, p)
# sample that stays disconnected after MAX_ER_REJECTIONS draws in a row.
MAX_GENERATOR_PAIRS = 2_000_000
MAX_ER_REJECTIONS = 1000


class GraphError(ValueError):
    """Raised for malformed, disconnected, or otherwise invalid graph input;
    index is the position of the offending edge in the input, or None."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable undirected simple connected graph.

    Attributes:
        n: vertex count; vertices are 0..n-1.
        edges: sorted tuple of canonical (u, v) pairs, u < v.
        adjacency: per-vertex tuple of sorted neighbors.
    """

    __slots__ = ("n", "edges", "adjacency")

    def __init__(self, n: int, edges: Iterable[Edge]):
        if n < 2:
            raise GraphError(f"need at least 2 vertices, got n={n}")
        # keeps input order, so sorting edges that arrive sorted takes linear time
        seen: dict[Edge, None] = {}
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}", len(seen))
            if u == v:
                raise GraphError(f"self-loop at vertex {u}", len(seen))
            e = canonical_edge(u, v)
            if e in seen:
                raise GraphError(f"duplicate edge ({e[0]}, {e[1]})", len(seen))
            seen[e] = None
        if len(seen) < n - 1:
            # checked before any per-vertex allocation, so a hostile header
            # like n = 10^9 with one edge fails fast
            raise GraphError("graph is not connected")
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(sorted(seen))
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        # already ascending: the sorted edges list each vertex's smaller
        # neighbours (as (w, x) edges) before its larger ones (as (x, v))
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(tuple(a) for a in adj)
        if not _reaches_all(adj):
            raise GraphError("graph is not connected")

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def max_degree(self) -> int:
        return max(len(a) for a in self.adjacency)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def edges_connected(n: int, edges: Iterable[Edge]) -> bool:
    """BFS reachability check: does the edge set connect all n vertices?"""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return _reaches_all(adj)


def _reaches_all(adj: list[list[int]]) -> bool:
    """BFS from vertex 0 over neighbour lists: is every vertex reached?"""
    seen = [False] * len(adj)
    seen[0] = True
    queue = [0]
    for u in queue:
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    return len(queue) == len(adj)


def _check_pairs(family: str, n: int, pairs: int) -> None:
    if pairs > MAX_GENERATOR_PAIRS:
        raise GraphError(
            f"{family} graph with n={n} needs {pairs} vertex pairs, "
            f"more than the cap of {MAX_GENERATOR_PAIRS}"
        )


def generate_erdos_renyi(n: int, p_edge: float, seed: int) -> Graph:
    """Sample a connected G(n, p) graph.

    Each vertex pair is included independently with probability ``p_edge``.
    Disconnected samples are rejected and redrawn from the advancing PCG64
    stream, so the result follows the G(n, p) distribution conditioned on
    connectivity. Deterministic for fixed (n, p_edge, seed). Raises
    GraphError past MAX_GENERATOR_PAIRS pairs or MAX_ER_REJECTIONS
    disconnected samples.
    """
    if n < 2:
        raise GraphError(f"need at least 2 vertices, got n={n}")
    if not 0.0 < p_edge <= 1.0:
        raise GraphError(f"p_edge must be in (0, 1], got {p_edge}")
    _check_pairs("erdos_renyi", n, n * (n - 1) // 2)
    iu, iv = np.triu_indices(n, 1)  # the pairs (u, v), u < v, in canonical order
    rng = np.random.default_rng(seed)
    resamples = 0
    while True:
        keep = np.flatnonzero(rng.random(len(iu)) < p_edge)
        edges = list(zip(iu[keep].tolist(), iv[keep].tolist()))
        if edges_connected(n, edges):
            break
        resamples += 1
        if resamples == MAX_ER_REJECTIONS:
            raise GraphError(
                f"erdos_renyi(n={n}, p={p_edge:g}, seed={seed}): "
                f"{resamples} disconnected samples in a row; p_edge is "
                f"too small for a connected graph"
            )
    if resamples:
        logger.debug(
            "erdos_renyi(n=%d, p=%g, seed=%d): %d disconnected samples rejected",
            n, p_edge, seed, resamples,
        )
    return Graph(n, edges)


def generate_complete(n: int) -> Graph:
    if n < 2:
        raise GraphError(f"need at least 2 vertices, got n={n}")
    _check_pairs("complete", n, n * (n - 1) // 2)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def generate_cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got n={n}")
    _check_pairs("cycle", n, n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def read_edge_list(text: str) -> Graph:
    """Parse the edge-list format: header line "n m", then m lines "u v".

    The parser checks only the text: the header, two integer tokens per
    line and the declared m. Graph(n, edges) checks the pairs, and an error
    about one edge is re-raised with its 1-based line number in front.
    """
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
    for i, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise GraphError(f"line {i}: expected 'u v', got {raw!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphError(f"line {i}: non-integer vertex in {raw!r}") from None
    if len(edges) != m:
        raise GraphError(f"header declares m={m} edges but found {len(edges)}")
    try:
        return Graph(n, edges)
    except GraphError as err:
        if err.index is None:
            raise
        edge_lines = [i for i, raw in enumerate(lines[1:], start=2) if raw.strip()]
        raise GraphError(f"line {edge_lines[err.index]}: {err}", err.index) from None


def write_edge_list(g: Graph) -> str:
    """Serialize in canonical order; read_edge_list round-trips exactly."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"
