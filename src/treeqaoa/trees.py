"""Rooted spanning trees: DFS, BFS, and the cost-driven greedy builder.

All builders explore neighbors in ascending vertex order, so results are
deterministic for a fixed graph and root. The greedy builder grows the tree
one frontier edge at a time, always taking the edge (u, v) with visited u
that maximizes ``(n - level(u)) * (B - branch_counter(u))``; ties keep the
earliest-inserted frontier edge. The branch counter of the root starts at 1,
so its reported statistic equals its tree degree; every vertex's counter
then increments as it gains children. Trees from this builder trade off
height against sibling fan-out: B caps useful branching (set B = f + 1 to
target a maximum of f children per vertex), and the level factor steers
branching toward vertices near the root.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .graphs import Edge, Graph, canonical_edge


@dataclass(frozen=True)
class RootedSpanningTree:
    """Spanning tree of a graph, rooted and levelled.

    parent[v] is None exactly for the root; level[root] = 0 and
    level[child] = level[parent] + 1; branch_count[v] is the number of
    children of v (which equals the branching-factor statistic: tree degree
    for the root, tree degree minus one otherwise). discovery_order lists
    the n-1 (parent, child) edges in the order the builder added them.
    """

    root: int
    parent: tuple[int | None, ...]
    level: tuple[int, ...]
    branch_count: tuple[int, ...]
    discovery_order: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.parent)

    @property
    def height(self) -> int:
        return max(self.level)

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(canonical_edge(u, v) for u, v in self.discovery_order)


@dataclass
class HeuristicConfig:
    """Parameters of the greedy builder.

    B is the branching parameter of the cost function; equal costs go to
    the first-inserted frontier edge.
    """

    B: int = 3

    def __post_init__(self) -> None:
        if self.B < 1:
            raise ValueError(f"B must be >= 1, got {self.B}")


def cost_of(n: int, l_v: int, v_bf: int, B: int) -> int:
    """Branching cost of growing the tree from a vertex at level l_v whose
    branch counter is v_bf. Signed; no clamping."""
    if not 0 <= l_v < n:
        raise ValueError(f"level {l_v} out of range for n={n}")
    return (n - l_v) * (B - v_bf)


def _check_root(g: Graph, root: int) -> None:
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range for n={g.n}")


def _finish(g: Graph, root: int, parent: list[int | None], level: list[int],
            order: list[tuple[int, int]]) -> RootedSpanningTree:
    branch = [0] * g.n
    for p, _c in order:
        branch[p] += 1
    return RootedSpanningTree(
        root=root,
        parent=tuple(parent),
        level=tuple(level),
        branch_count=tuple(branch),
        discovery_order=tuple(order),
    )


def build_dfs_tree(g: Graph, root: int) -> RootedSpanningTree:
    """Depth-first spanning tree; iterative, ascending neighbor order."""
    _check_root(g, root)
    parent: list[int | None] = [None] * g.n
    level = [0] * g.n
    order: list[tuple[int, int]] = []
    visited = [False] * g.n
    visited[root] = True
    stack = [(root, iter(g.adjacency[root]))]
    while stack:
        u, it = stack[-1]
        for v in it:
            if not visited[v]:
                visited[v] = True
                parent[v] = u
                level[v] = level[u] + 1
                order.append((u, v))
                stack.append((v, iter(g.adjacency[v])))
                break
        else:
            stack.pop()
    return _finish(g, root, parent, level, order)


def build_bfs_tree(g: Graph, root: int) -> RootedSpanningTree:
    """Breadth-first spanning tree; among all spanning trees rooted at
    ``root`` it has minimum height."""
    _check_root(g, root)
    parent: list[int | None] = [None] * g.n
    level = [0] * g.n
    order: list[tuple[int, int]] = []
    visited = [False] * g.n
    visited[root] = True
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if not visited[v]:
                visited[v] = True
                parent[v] = u
                level[v] = level[u] + 1
                order.append((u, v))
                queue.append(v)
    return _finish(g, root, parent, level, order)


def build_greedy_tree(g: Graph, root: int, cfg: HeuristicConfig) -> RootedSpanningTree:
    """Cost-driven greedy spanning tree.

    Frontier edges (u visited, v not) live in insertion order in flat
    arrays; removal is lazy via the visited mask, and each iteration scans
    the whole frontier, exactly like a linear pass with a strict
    cost-improvement comparison seeded by the frontier head. Runs in
    O(max_degree * n^2) overall.
    """
    _check_root(g, root)
    n = g.n
    B = cfg.B
    adj = [np.asarray(a, dtype=np.int64) for a in g.adjacency]

    level = np.zeros(n, dtype=np.int64)
    bf = np.zeros(n, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    visited[root] = True
    bf[root] = 1  # root's counter starts at its "discovered" state

    # Total frontier insertions are bounded by the degree sum.
    cap = 2 * g.m
    src = np.empty(cap, dtype=np.int64)
    dst = np.empty(cap, dtype=np.int64)
    count = 0

    def push_edges(u: int) -> None:
        nonlocal count
        nbrs = adj[u]
        fresh = nbrs[~visited[nbrs]]
        k = len(fresh)
        src[count:count + k] = u
        dst[count:count + k] = fresh
        count += k

    push_edges(root)

    parent: list[int | None] = [None] * n
    order: list[tuple[int, int]] = []
    for _ in range(n - 1):
        u = src[:count]
        v = dst[:count]
        alive = ~visited[v]
        cost = (n - level[u]) * (B - bf[u])
        cost[~alive] = np.iinfo(np.int64).min
        pick = int(np.argmax(cost))
        if cost[pick] <= 0:
            # no strictly positive cost: keep the frontier head
            pick = int(np.argmax(alive))
        x, y = int(u[pick]), int(v[pick])
        visited[y] = True
        level[y] = level[x] + 1
        bf[x] += 1
        parent[y] = x
        order.append((x, y))
        push_edges(y)

    return _finish(g, root, parent, [int(l) for l in level], order)


def tree_to_text(t: RootedSpanningTree) -> str:
    """Debug serialization: header "root r", then "child parent level"."""
    lines = [f"root {t.root}"]
    for child in range(t.n):
        p = t.parent[child]
        if p is not None:
            lines.append(f"{child} {p} {t.level[child]}")
    return "\n".join(lines) + "\n"
