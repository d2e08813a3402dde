"""Rooted spanning trees: DFS, BFS, and the cost-driven greedy builder.

All builders explore neighbors in ascending vertex order, so results are
deterministic for a fixed graph and root. The greedy builder grows the tree
one vertex at a time: the visited vertex u with an unvisited neighbor that
maximizes ``(n - level(u)) * (B - branch_counter(u))`` gains its smallest
unvisited neighbor as a child; ties, and the case where no cost is
positive, go to the earliest-visited such u. The branch counter of the
root starts at 1, so its reported statistic equals its tree degree; every
vertex's counter then increments as it gains children. Trees from this
builder trade off height against sibling fan-out: B caps useful branching
(set B = f + 1 to target a maximum of f children per vertex), and the
level factor steers branching toward vertices near the root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .graphs import Edge, Graph, canonical_edge


@dataclass(frozen=True)
class RootedSpanningTree:
    """Spanning tree of a graph, rooted and levelled.

    discovery_order lists the n-1 (parent, child) edges in the order the
    builder added them. The constructor alone decides that they form a tree
    (root and vertices in 0..n-1, each parent the root or an earlier child,
    no vertex a child twice), raising ValueError at the first bad pair, and
    derives the views in one pass: parent[v] is None exactly for the root;
    level[child] = level[parent] + 1 from level[root] = 0; branch_count[v]
    counts v's children (tree degree for the root, minus one otherwise);
    edges maps each canonical tree edge to (parent, child) in discovery
    order (a plain dict, so trees pickle; read-only by contract). Equality,
    hash and repr use root and discovery_order alone.
    """

    root: int
    discovery_order: tuple[tuple[int, int], ...]
    parent: tuple[int | None, ...] = field(init=False, compare=False, repr=False)
    level: tuple[int, ...] = field(init=False, compare=False, repr=False)
    branch_count: tuple[int, ...] = field(init=False, compare=False, repr=False)
    edges: Mapping[Edge, tuple[int, int]] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        n, root = self.n, self.root
        if not 0 <= root < n:
            raise ValueError(f"root {root} out of range for n={n}")
        parent: list[int | None] = [None] * n
        level, branch = [0] * n, [0] * n
        edges: dict[Edge, tuple[int, int]] = {}
        for p, c in self.discovery_order:
            if not (0 <= p < n and 0 <= c < n):
                raise ValueError(f"tree edge ({p}, {c}) out of range for n={n}")
            if p != root and parent[p] is None:
                raise ValueError(f"tree edge ({p}, {c}): parent {p} is not yet discovered")
            if c == root or parent[c] is not None:
                raise ValueError(f"tree edge ({p}, {c}): child {c} is already discovered")
            parent[c], level[c] = p, level[p] + 1
            branch[p] += 1
            edges[canonical_edge(p, c)] = (p, c)
        self.__dict__.update(parent=tuple(parent), level=tuple(level),  # past the frozen guard
                             branch_count=tuple(branch), edges=edges)

    @property
    def n(self) -> int:
        return len(self.discovery_order) + 1

    @property
    def height(self) -> int:
        return max(self.level)


@dataclass
class HeuristicConfig:
    """Parameters of the greedy builder.

    B is the branching parameter of the cost function; equal costs go to
    the earliest-visited vertex.
    """

    B: int = 3

    def __post_init__(self) -> None:
        if self.B < 1:
            raise ValueError(f"B must be >= 1, got {self.B}")


def _check_root(g: Graph, root: int) -> None:
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range for n={g.n}")


def build_dfs_tree(g: Graph, root: int) -> RootedSpanningTree:
    """Depth-first spanning tree; iterative, ascending neighbor order."""
    _check_root(g, root)
    order: list[tuple[int, int]] = []
    visited = [False] * g.n
    visited[root] = True
    stack = [(root, iter(g.adjacency[root]))]
    while stack:
        u, it = stack[-1]
        for v in it:
            if not visited[v]:
                visited[v] = True
                order.append((u, v))
                stack.append((v, iter(g.adjacency[v])))
                break
        else:
            stack.pop()
    return RootedSpanningTree(root, tuple(order))


def build_bfs_tree(g: Graph, root: int) -> RootedSpanningTree:
    """Breadth-first spanning tree; among all spanning trees rooted at
    ``root`` it has minimum height."""
    _check_root(g, root)
    order: list[tuple[int, int]] = []
    visited = [False] * g.n
    visited[root] = True
    queue = [root]
    for u in queue:
        for v in g.adjacency[u]:
            if not visited[v]:
                visited[v] = True
                order.append((u, v))
                queue.append(v)
    return RootedSpanningTree(root, tuple(order))


def build_greedy_tree(g: Graph, root: int, cfg: HeuristicConfig) -> RootedSpanningTree:
    """Cost-driven greedy spanning tree.

    The frontier holds the visited vertices that still have an unvisited
    neighbor, in visit order; nxt[u] points at the first neighbor of u not
    yet known to be visited. Each step scans the frontier, takes the first
    vertex of strictly maximum positive cost (the frontier head if no cost
    is positive), and gives it its smallest unvisited neighbor as a child.
    That is the earliest-inserted frontier edge of maximum cost, since each
    vertex's edges join the frontier as one ascending run. Runs in
    O(n^2 + m) overall.
    """
    _check_root(g, root)
    n, B, adj = g.n, cfg.B, g.adjacency
    level = [0] * n
    bf = [0] * n
    bf[root] = 1  # root's counter starts at its "discovered" state
    visited = [False] * n
    visited[root] = True
    nxt = [0] * n
    frontier = [root]
    order: list[tuple[int, int]] = []
    for _ in range(n - 1):
        live: list[int] = []
        best, best_cost = -1, 0
        for u in frontier:
            nbrs, i = adj[u], nxt[u]
            while i < len(nbrs) and visited[nbrs[i]]:
                i += 1
            nxt[u] = i
            if i < len(nbrs):
                live.append(u)
                cost = (n - level[u]) * (B - bf[u])
                if cost > best_cost:
                    best, best_cost = u, cost
        x = best if best >= 0 else live[0]
        y = adj[x][nxt[x]]
        visited[y] = True
        level[y] = level[x] + 1
        bf[x] += 1
        order.append((x, y))
        live.append(y)
        frontier = live
    return RootedSpanningTree(root, tuple(order))


def tree_to_text(t: RootedSpanningTree) -> str:
    """Debug serialization: header "root r", then "child parent level"."""
    lines = [f"root {t.root}"]
    for child in range(t.n):
        p = t.parent[child]
        if p is not None:
            lines.append(f"{child} {p} {t.level[child]}")
    return "\n".join(lines) + "\n"
