"""Exhaustive minimum-step search on tiny graphs.

For a fixed root, spanning trees are searched by recursive edge
include/exclude with connectivity pruning; the only bound on the input is
n <= MAX_ORACLE_VERTICES = 8 (K8 has 8^6 = 262,144 spanning trees).
A tree's fewest steps are its tree phase (incident and tree-ancestor edges
differ) plus the edge-chromatic number of the leftover edges, which run
after it. The tree phase takes max_v(level(v) + children(v)) steps: a child
edge of u conflicts with u's level(u) root-path edges and its siblings, and
first fit gives it a step of at most level(u) + children(u). The least
total over trees is the ground truth for the greedy heuristic.

A branch of the recursion is abandoned once two lower bounds that only
grow down it reach the best total so far. They start from the tree and
leftover floors that every spanning tree meets (``tree_floors``), so once
a tree reaches their sum every other branch is cut at once. A finished
tree is skipped uncolored when its full bounds (``step_lower_bounds``) do,
and the leftover coloring looks only below what would beat it. The witness
is the first tree, in enumeration order, of minimum total, with each phase's
lexicographically first minimum coloring, built once after the search.
``trees_enumerated`` counts every spanning tree by the matrix-tree theorem.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import perm

from .graphs import Graph
from .scheduling import StepSchedule, schedule_tree_ordered
from .trees import HeuristicConfig, RootedSpanningTree, build_greedy_tree

logger = logging.getLogger(__name__)

MAX_ORACLE_VERTICES = 8
# _BITS[mask]: the set bits of a vertex mask, ascending
_BITS = [[v for v in range(MAX_ORACLE_VERTICES) if mask >> v & 1]
         for mask in range(1 << MAX_ORACLE_VERTICES)]


@dataclass
class OracleResult:
    best_steps: int
    witness_schedule: StepSchedule
    trees_enumerated: int


def _tree_count(adj: list[int]) -> int:
    """Spanning trees of a connected graph of neighbor bitmasks (Kirchhoff):
    the determinant of its Laplacian without vertex 0, by fraction-free
    Bareiss elimination in ints. That minor is positive definite, so no
    pivot is zero and no row needs swapping."""
    n = len(adj)
    a = [[adj[i].bit_count() if i == j else -(adj[i] >> j & 1) for j in range(1, n)]
         for i in range(1, n)]
    pivot = 1
    for k in range(n - 1):
        for i in range(k + 1, n - 1):
            for j in range(k + 1, n - 1):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // pivot
        pivot = a[k][k]
    return pivot


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        x = parent[x]
    return x


def _reachable(adj: list[int], u: int, v: int) -> bool:
    """Bitmask flood fill from u: is v in u's component?"""
    seen = frontier = 1 << u
    while frontier and not seen >> v & 1:
        reached = 0
        for x in _BITS[frontier]:
            reached |= adj[x]
        frontier = reached & ~seen
        seen |= frontier
    return bool(seen >> v & 1)


def _root(tree: list[int], root: int):
    """BFS of a tree's neighbor bitmasks, lowest first: level, order."""
    level = [0] * len(tree)
    order: list[tuple[int, int]] = []
    queue, seen = [root], 1 << root
    for u in queue:
        kids = tree[u] & ~seen
        seen |= kids
        for v in _BITS[kids]:
            level[v] = level[u] + 1
            order.append((u, v))
            queue.append(v)
    return level, order


def step_lower_bounds(adj: list[int], tree: list[int], level: list[int],
                      root: int) -> tuple[int, int]:
    """A tree's tree-phase step count, exact, and leftover-phase lower bound.

    adj and tree are neighbor bitmasks of the graph and a spanning tree,
    level its levels from root. The edges on v's root path and v's child
    edges pairwise conflict, so the tree phase needs max_v(level(v) +
    children(v)) steps. The leftover phase needs its maximum degree D, and
    D + 1 when it is overfull: each step is a matching, at most floor(k/2)
    edges on k vertices, so more than D * floor(k/2) edges on its k
    non-isolated vertices, or on all but one of least degree, need more.
    """
    lb_tree = max(level[v] + t.bit_count() - (v != root) for v, t in enumerate(tree))
    degrees = [d for d in ((a & ~t).bit_count() for a, t in zip(adj, tree)) if d]
    lb_rest, m, k = max(degrees, default=0), sum(degrees) // 2, len(degrees)
    if m > lb_rest * (k // 2) or m - min(degrees, default=0) > lb_rest * ((k - 1) // 2):
        lb_rest += 1
    return lb_tree, lb_rest


def tree_floors(n: int, m: int) -> tuple[int, int]:
    """Floors on the tree and leftover phases of every spanning tree of a
    connected graph with n vertices and m edges.

    A tree whose phase is t steps gives a level-l vertex at most t - l
    children, so it has at most t!/(t-l)! vertices at level l and spans at
    most N(t) = sum_{l<=t} t!/(t-l)! vertices (N(1..4) = 2, 5, 16, 65): the
    tree floor is the least t with N(t) >= n. Every tree leaves m - n + 1
    edges, and a step is a matching of at most floor(n/2) of them, so the
    leftover needs at least ceil((m - n + 1) / floor(n/2)) steps.
    """
    t = 0
    while sum(perm(t, l) for l in range(t + 1)) < n:
        t += 1
    return t, -(-(m - n + 1) // max(n // 2, 1))


def _tree_coloring(order: list[tuple[int, int]], n: int) -> list[int]:
    """First-fit steps of a tree's (parent, child) edges in discovery order:
    each takes the smallest step on neither its root path nor an earlier sibling."""
    path, kids = [1] * n, [0] * n  # step bits of root paths (step 0 barred), of child edges
    colors = []
    for u, v in order:
        banned = path[u] | kids[u]
        bit = ~banned & banned + 1  # the lowest free step
        kids[u] |= bit
        path[v] = path[u] | bit
        colors.append(bit.bit_length() - 1)
    return colors


def _min_coloring(order: list[tuple[int, int]], n: int,
                  lb: int, cap: int) -> tuple[int, list[int] | None]:
    """Exact minimum-max-color edge coloring of the pairs in order, by branch
    and bound. Colors ascend depth-first, so the first coloring found at the
    minimum maximum is the lexicographically first. Only maxima below ``cap``
    are searched (colors None if there is none), and the search stops at a
    coloring whose maximum reaches ``lb``, a lower bound."""
    m = len(order)
    best, best_colors = (m, list(range(1, m + 1))) if cap > m else (cap, None)
    colors = [0] * m
    used = [0] * n  # color bits of the edges colored at each vertex

    def bt(j: int, current_max: int) -> None:
        nonlocal best, best_colors
        if current_max >= best:
            return
        if j == m:
            best, best_colors = current_max, colors.copy()
            return
        u, v = order[j]
        banned = used[u] | used[v]
        for c in range(1, min(best - 1, current_max + 1) + 1):
            bit = 1 << c
            if banned & bit:
                continue
            colors[j] = c
            used[u] |= bit
            used[v] |= bit
            bt(j + 1, max(current_max, c))
            used[u] ^= bit
            used[v] ^= bit
            if best <= lb:
                return

    bt(0, 0)
    return best, best_colors


def solve_exact(g: Graph, root: int) -> OracleResult:
    """Global minimum steps over all spanning trees rooted at ``root``."""
    if g.n > MAX_ORACLE_VERTICES:
        raise ValueError(f"oracle limited to n <= {MAX_ORACLE_VERTICES}, got {g.n}")
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range for n={g.n}")

    n, edges = g.n, g.edges
    adj = [sum(1 << w for w in g.adjacency[v]) for v in range(n)]
    # v's term of the tree-phase bound, less its tree degree so far: its
    # level in any tree is at least its distance from the root
    dist, _ = _root(adj, root)
    base = [d - (v != root) for v, d in enumerate(dist)]
    best_total = g.m + 1  # above every tree's total, so the first tree wins
    best: tuple | None = None  # the best tree's order, tree phase and leftover colors
    avail, tree, parent = adj.copy(), [0] * n, list(range(n))
    leaves = colored = 0

    def rec(i: int, size: int, lb_tree: int, lb_rest: int) -> None:
        """Search the trees that extend the first i edges' choices.

        avail holds the chosen and undecided edges and always connects the
        graph, so edges remain while size < n - 1. lb_tree is max_v of
        base(v) + tree degree(v), lb_rest the largest excluded degree, each
        at least its ``tree_floors`` floor; both only grow down the branch
        and bound its finished trees' bounds.
        """
        nonlocal best_total, best, leaves, colored
        if size == n - 1:
            leaves += 1
            level, order = _root(tree, root)
            tree_min, rest_lb = step_lower_bounds(adj, tree, level, root)
            lb_rest = max(lb_rest, rest_lb)
            if tree_min + lb_rest >= best_total:
                return
            colored += 1
            rest = [(u, v) for u, v in edges if not tree[u] >> v & 1]
            rest_min, rest_colors = _min_coloring(rest, n, lb_rest, best_total - tree_min)
            if rest_colors is not None:
                best = (order, tree_min, rest_colors)
                best_total = tree_min + rest_min
            return
        u, v = edges[i]
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            tree[u], tree[v] = tree[u] ^ 1 << v, tree[v] ^ 1 << u
            lb = max(lb_tree, base[u] + tree[u].bit_count(), base[v] + tree[v].bit_count())
            if lb + lb_rest < best_total:
                parent[ru] = rv
                rec(i + 1, size + 1, lb, lb_rest)
                parent[ru] = ru
            tree[u], tree[v] = tree[u] ^ 1 << v, tree[v] ^ 1 << u
        avail[u], avail[v] = avail[u] ^ 1 << v, avail[v] ^ 1 << u
        lb = max(lb_rest, (adj[u] ^ avail[u]).bit_count(), (adj[v] ^ avail[v]).bit_count())
        if lb_tree + lb < best_total and _reachable(avail, u, v):
            rec(i + 1, size, lb_tree, lb)
        avail[u], avail[v] = avail[u] ^ 1 << v, avail[v] ^ 1 << u

    tree_floor, rest_floor = tree_floors(n, g.m)
    rec(0, 0, max(*dist, tree_floor), rest_floor)
    trees = _tree_count(adj)
    logger.debug("oracle: %d trees counted, %d reached a leaf, %d colored",
                 trees, leaves, colored)
    assert best is not None
    order, tree_min, rest_colors = best
    t = RootedSpanningTree(root, tuple(order))
    tree_step = dict(zip(t.edges, _tree_coloring(order, n)))
    rest = iter(rest_colors)  # the leftover edges' colors, in canonical order
    steps = [tree_step[e] if e in tree_step else tree_min + next(rest) for e in edges]
    witness = StepSchedule.aligned(g, t, steps, [edges.index(e) for e in t.edges])
    return OracleResult(best_steps=best_total, witness_schedule=witness, trees_enumerated=trees)


def heuristic_gap(g: Graph, root: int, cfg: HeuristicConfig) -> tuple[int, int]:
    """(greedy-heuristic steps, exact optimum) for the same graph and root."""
    t = build_greedy_tree(g, root, cfg)
    sched = schedule_tree_ordered(g, t)
    exact = solve_exact(g, root)
    return sched.num_steps, exact.best_steps
