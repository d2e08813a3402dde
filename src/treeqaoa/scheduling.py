"""Step assignment for the cost-layer edge blocks.

A step is a set of pairwise disjoint edges whose two-qubit blocks run
simultaneously. The traditional strategy is plain greedy edge coloring:
each edge, in canonical order, takes the smallest step free at both of its
endpoints. The tree-ordered strategy schedules the spanning-tree edges
first, each strictly after its parent edge, then gives the remaining edges
the traditional coloring shifted past the last tree step; this ordering is
what licenses dropping one CNOT per tree edge in the first ansatz layer.
The tree phase needs no search: the j-th child edge of a vertex, in
discovery order, takes the step of the vertex's own tree edge plus j.

A schedule holds its steps as a tuple aligned with the graph's sorted
``g.edges``, so its consumers walk edges by position; a tree edge's
position is found once, by bisection, when the schedule is made.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .graphs import Edge, Graph, canonical_edge
from .trees import RootedSpanningTree


@dataclass(init=False)
class StepSchedule:
    """Steps (1-based) of g's sorted edges: steps[i] is the step of edges[i],
    and edges is ``g.edges`` itself. Tree-ordered over tree, or traditional
    exactly when tree is None. ``StepSchedule(g, tree, step_of)`` alone
    decides whether a map schedules g: it raises ValueError at the first
    edge of g with no step, key that is not an edge of g, step that is not
    an int, or tree that does not span g."""

    tree: RootedSpanningTree | None
    edges: tuple[Edge, ...]
    steps: tuple[int, ...]
    _tree_at: list[int] = field(compare=False, repr=False)

    def __init__(self, g: Graph, tree: RootedSpanningTree | None, step_of: dict[Edge, int]):
        edges = g.edges
        if (missing := next((e for e in edges if e not in step_of), None)) is not None:
            raise ValueError(f"edge {missing} has no step")
        if len(step_of) != len(edges):  # every edge is a key, so some key is not an edge
            raise ValueError(f"scheduled edge {min(step_of.keys() - set(edges))} not in graph")
        steps = tuple(map(step_of.__getitem__, edges))
        for e, s in zip(edges, steps):
            if type(s) is not int:
                raise ValueError(f"edge {e} has step {s!r}, not an int")
        self.tree, self.edges, self.steps = tree, edges, steps
        self._tree_at = [] if tree is None else _positions(g, tree)

    @classmethod
    def aligned(cls, g: Graph, tree: RootedSpanningTree | None, steps,
                tree_at: list[int]) -> StepSchedule:
        """Unchecked: g.edges[i] runs at steps[i]; tree_at is as tree_index()."""
        sched = cls.__new__(cls)
        sched.tree, sched.edges, sched.steps, sched._tree_at = tree, g.edges, tuple(steps), tree_at
        return sched

    @property
    def step_of(self) -> dict[Edge, int]:
        """Edge -> step, a new plain dict on each read."""
        return dict(zip(self.edges, self.steps))

    def tree_index(self) -> list[int]:
        """Position in edges of each tree edge, in discovery order."""
        return self._tree_at

    @property
    def num_steps(self) -> int:
        """The last step in use."""
        return max(self.steps)

    @property
    def delayed_start_total(self) -> int:
        """Sum over tree edges of how far each edge's step exceeds its child
        vertex's level: the serialization penalty paid when siblings compete
        for their shared parent (0 without a tree)."""
        if self.tree is None:
            return 0
        level = self.tree.level
        return sum(self.steps[i] - level[v]
                   for i, (_u, v) in zip(self._tree_at, self.tree.edges.values()))

    def tree_steps(self) -> int:
        """Max step over tree edges (0 for the traditional strategy)."""
        return max((self.steps[i] for i in self._tree_at), default=0)


def _positions(g: Graph, t: RootedSpanningTree) -> list[int]:
    """Position of each of t's edges in g.edges, in discovery order, by
    bisection; ValueError if t does not span g."""
    edges = g.edges
    if t.n == g.n:
        index = [bisect_left(edges, e) for e in t.edges]
        if all(i < len(edges) and edges[i] == e for i, e in zip(index, t.edges)):
            return index
    raise ValueError("tree does not span this graph")


def _greedy_color(g: Graph, steps: list[int], base: int) -> list[int]:
    """Give each edge still at step 0, in canonical order, base plus the
    smallest step free at both endpoints among those edges."""
    used = [0] * g.n  # bit s - 1 set when step s is taken at the vertex
    for i, (u, v) in enumerate(g.edges):
        if not steps[i]:
            taken = used[u] | used[v]
            free = ~taken & (taken + 1)  # the lowest bit clear at both ends
            used[u] |= free
            used[v] |= free
            steps[i] = base + free.bit_length()
    return steps


def schedule_traditional(g: Graph) -> StepSchedule:
    """Greedy edge coloring in canonical edge order."""
    return StepSchedule.aligned(g, None, _greedy_color(g, [0] * g.m, base=0), [])


def schedule_tree_ordered(g: Graph, t: RootedSpanningTree) -> StepSchedule:
    """Two-phase schedule: tree edges in discovery order, then the rest.

    The j-th child edge of u in discovery order takes the step of u's own
    tree edge (0 at the root) plus j. That is the smallest step after u's
    parent edge free at both endpoints, since the child has no step yet
    and u's earlier child edges hold the j - 1 steps just above. Non-tree
    edges then take the traditional coloring shifted past the last tree
    step.
    """
    index = _positions(g, t)
    steps = [0] * g.m
    last = [0] * g.n  # each vertex's latest tree step so far; 0 at the root to start
    for i, (u, v) in zip(index, t.edges.values()):
        last[u] += 1
        last[v] = steps[i] = last[u]
    return StepSchedule.aligned(g, t, _greedy_color(g, steps, base=max(last)), index)


def tree_order_fault(sched: StepSchedule) -> str | None:
    """The first tree edge, in discovery order, whose step is not above its
    parent edge's, worded, else None: a dropped CNOT is the identity only
    while its child is in |+>."""
    if sched.tree is None:
        return None
    steps, up = sched.steps, {}  # up: each child's own tree edge and its step
    for i, (e, (u, v)) in zip(sched.tree_index(), sched.tree.edges.items()):
        if u in up and steps[i] <= up[u][1]:  # the root's child edges have no parent edge
            return (f"tree edge {e} at step {steps[i]} does not follow its parent edge "
                    f"{up[u][0]} at step {up[u][1]}")
        up[v] = (e, steps[i])
    return None


def verify_schedule(g: Graph, sched: StepSchedule) -> list[str]:
    """Independent legality check; returns human-readable violations.

    A schedule made for another graph gets the one violation that says so.
    Otherwise checks that edges sharing a vertex never share a step, and
    (for tree-ordered schedules) that no tree edge reuses a step of any of
    its tree ancestors and that every non-tree edge comes strictly after the
    whole tree phase. Never raises. O(n + m), unless tree_order_fault finds a
    fault: then Θ(n·h) bits of root-path masks.
    """
    edges, steps = g.edges, sched.steps
    if sched.edges is not edges and sched.edges != edges:
        return ["schedule does not cover exactly this graph's edges"]

    # one pass with each vertex's {step: first edge}; the stable sort lists
    # clashes by step, in canonical order within a step
    first: list[dict[int, Edge]] = [{} for _ in range(g.n)]
    clashes = []
    for e, s in zip(edges, steps):
        for vtx in e:
            if (owner := first[vtx].setdefault(s, e)) is not e:  # another edge holds s
                clashes.append((s, f"incident edges {owner} and {e} share step {s}"))
    violations = [message for _s, message in sorted(clashes, key=lambda c: c[0])]

    t = sched.tree
    if t is not None:
        tree_step = [steps[i] for i in sched.tree_index()]
        if tree_order_fault(sched) is not None:  # else steps rise down root paths: no reuse
            # path[v]: a bit per step on the root-to-v path, indexed by the step's
            # dense rank (one bit for any size); up[v]: the step of v's tree edge
            rank = {s: i for i, s in enumerate(sorted(set(tree_step)))}
            path, up = [0] * t.n, [0] * t.n
            for (e, (u, v)), s in zip(t.edges.items(), tree_step):
                if path[u] >> rank[s] & 1:  # walk the ancestor chain only to word it
                    node = u
                    while (p := t.parent[node]) is not None:  # ends: parent links cannot cycle
                        if up[node] == s:
                            violations.append(f"tree edge {e} reuses step {s} of its ancestor "
                                              f"{canonical_edge(p, node)}")
                        node = p
                path[v], up[v] = path[u] | 1 << rank[s], s
        last = max(tree_step, default=0)
        violations += [f"non-tree edge {e} at step {s} does not follow the tree phase "
                       f"(last tree step {last})"
                       for e, s in zip(edges, steps) if s <= last and e not in t.edges]
    return violations


def schedule_to_text(g: Graph, sched: StepSchedule) -> str:
    """Dump format: one line "u v step tree|nontree" per edge."""
    if sched.edges != g.edges:
        raise ValueError("schedule does not cover exactly this graph's edges")
    tree_edges = sched.tree.edges if sched.tree is not None else {}
    lines = []
    for e, s in zip(g.edges, sched.steps):
        kind = "tree" if e in tree_edges else "nontree"
        lines.append(f"{e[0]} {e[1]} {s} {kind}")
    return "\n".join(lines) + "\n"
