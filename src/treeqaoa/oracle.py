"""Exhaustive minimum-step search on tiny graphs.

For a fixed root, every spanning tree is enumerated (recursive edge
include/exclude with connectivity pruning). For each tree, the minimum
number of steps decomposes into two independent parts: an exact
branch-and-bound coloring of the tree edges (incident edges and
tree-ancestor edges must differ) plus an exact edge-chromatic number of
the leftover edges, which are constrained to run strictly after the whole
tree phase. The global minimum over trees is the ground truth against
which the greedy heuristic is measured.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import Edge, Graph, canonical_edge, edges_connected
from .scheduling import TREE_ORDERED, StepSchedule, schedule_tree_ordered
from .trees import HeuristicConfig, RootedSpanningTree, _finish, build_greedy_tree

MAX_ORACLE_VERTICES = 8
DEFAULT_TREE_BUDGET = 10 ** 6


@dataclass
class OracleResult:
    best_steps: int
    witness_tree: RootedSpanningTree
    witness_schedule: StepSchedule
    trees_enumerated: int


class OracleBudgetError(RuntimeError):
    """Spanning-tree enumeration exceeded its budget."""


def _spanning_trees(g: Graph, budget: int):
    """Yield spanning trees as edge-index tuples, with pruning.

    A branch is abandoned as soon as the chosen edges plus all undecided
    edges can no longer connect the graph.
    """
    m = g.m
    edges = g.edges
    count = 0

    def rec(i: int, chosen: list[int]):
        nonlocal count
        if len(chosen) == g.n - 1:
            count += 1
            if count > budget:
                raise OracleBudgetError(
                    f"more than {budget} spanning trees; refusing to continue"
                )
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
    parent: list[int | None] = [None] * g.n
    level = [0] * g.n
    order: list[tuple[int, int]] = []
    seen = [False] * g.n
    seen[root] = True
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in sorted(adj[u]):
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                level[v] = level[u] + 1
                order.append((u, v))
                queue.append(v)
    return _finish(g, root, parent, level, order)


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


def solve_exact(g: Graph, root: int,
                tree_budget: int = DEFAULT_TREE_BUDGET) -> OracleResult:
    """Global minimum steps over all spanning trees rooted at ``root``."""
    if g.n > MAX_ORACLE_VERTICES:
        raise ValueError(f"oracle limited to n <= {MAX_ORACLE_VERTICES}, got {g.n}")
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range for n={g.n}")

    best_total: int | None = None
    best: tuple[RootedSpanningTree, dict[Edge, int]] | None = None
    trees_seen = 0
    for tree_idx in _spanning_trees(g, tree_budget):
        trees_seen += 1
        t = _root_tree(g, tree_idx, root)
        t_order = list(t.discovery_order)
        child_edge = {v: j for j, (_u, v) in enumerate(t_order)}
        parent_edge = [child_edge.get(u, -1) for u, _v in t_order]
        tree_min, tree_colors = _min_coloring(t_order, parent_edge, g.n)

        tree_set = t.edge_set()
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
    t, step_of = best
    witness = StepSchedule(
        strategy=TREE_ORDERED,
        tree=t,
        step_of=step_of,
        num_steps=best_total,
    )
    return OracleResult(
        best_steps=best_total,
        witness_tree=t,
        witness_schedule=witness,
        trees_enumerated=trees_seen,
    )


def heuristic_gap(g: Graph, root: int, cfg: HeuristicConfig) -> tuple[int, int]:
    """(greedy-heuristic steps, exact optimum) for the same graph and root."""
    t = build_greedy_tree(g, root, cfg)
    sched = schedule_tree_ordered(g, t)
    exact = solve_exact(g, root)
    return sched.num_steps, exact.best_steps
