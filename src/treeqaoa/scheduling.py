"""Step assignment for the cost-layer edge blocks.

A step is a set of pairwise disjoint edges whose two-qubit blocks run
simultaneously. The traditional strategy is plain greedy edge coloring.
The tree-ordered strategy schedules the spanning-tree edges first, each
strictly after its parent edge, then colors the remaining edges in steps
strictly after every tree edge; this ordering is what licenses dropping
one CNOT per tree edge in the first ansatz layer. Every edge, in either
strategy and either phase, takes the smallest step above a floor that is
free at both of its endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Edge, Graph, canonical_edge
from .trees import RootedSpanningTree


@dataclass
class StepSchedule:
    """Edge -> step map (1-based). The schedule is tree-ordered over tree,
    or traditional exactly when tree is None."""

    tree: RootedSpanningTree | None
    step_of: dict[Edge, int]

    @property
    def num_steps(self) -> int:
        """The last step in use."""
        return max(self.step_of.values())

    @property
    def delayed_start_total(self) -> int:
        """Sum over tree edges of how far each edge's step exceeds its child
        vertex's level: the serialization penalty paid when siblings compete
        for their shared parent (0 without a tree)."""
        if self.tree is None:
            return 0
        level = self.tree.level
        return sum(self.step_of[e] - level[v] for e, (_u, v) in self.tree.edges.items())

    def tree_steps(self) -> int:
        """Max step over tree edges (0 for the traditional strategy)."""
        if self.tree is None:
            return 0
        return max(self.step_of[e] for e in self.tree.edges)


def _first_free(used: list[int], u: int, v: int, floor: int) -> int:
    """Take the smallest step above floor that is free at both u and v.

    used[x] is a bitmask with bit s set when step s is taken at vertex x;
    the chosen step is marked taken at both endpoints.
    """
    taken = (used[u] | used[v]) >> (floor + 1)
    s = floor + (~taken & (taken + 1)).bit_length()
    used[u] |= 1 << s
    used[v] |= 1 << s
    return s


def _greedy_color(edges: list[Edge], used: list[int], floor: int) -> dict[Edge, int]:
    """Assign each edge the smallest step above floor free at both endpoints."""
    return {(u, v): _first_free(used, u, v, floor) for u, v in edges}


def schedule_traditional(g: Graph) -> StepSchedule:
    """Greedy edge coloring in canonical edge order."""
    return StepSchedule(None, _greedy_color(list(g.edges), [0] * g.n, floor=0))


def schedule_tree_ordered(g: Graph, t: RootedSpanningTree) -> StepSchedule:
    """Two-phase schedule: tree edges in discovery order, then the rest.

    Each tree edge (u, v) takes the smallest step strictly greater than the
    step of u's own parent edge (>= 1 for edges out of the root) that is
    conflict-free at both endpoints. Non-tree edges are then colored
    greedily starting just past the last tree step.
    """
    if t.n != g.n or not t.edges.keys() <= set(g.edges):
        raise ValueError("tree does not span this graph")

    used = [0] * g.n
    step_of: dict[Edge, int] = {}
    floor = [0] * g.n  # step of each vertex's own tree edge; 0 at the root
    for e, (u, v) in t.edges.items():
        floor[v] = step_of[e] = _first_free(used, u, v, floor[u])

    rest = [e for e in g.edges if e not in t.edges]
    step_of.update(_greedy_color(rest, used, floor=max(step_of.values())))
    return StepSchedule(t, step_of)


def verify_schedule(g: Graph, sched: StepSchedule) -> list[str]:
    """Independent legality check; returns human-readable violations.

    Checks that every graph edge has a step, that edges sharing a vertex
    never share a step, and (for tree-ordered schedules) that no tree edge
    reuses a step of any of its tree ancestors and that every non-tree edge
    comes strictly after the whole tree phase. Linear time; never raises.
    """
    step_of = sched.step_of
    scheduled = [(e, step_of[e]) for e in g.edges if e in step_of]
    violations = [f"edge {e} has no step" for e in g.edges if e not in step_of]
    if len(step_of) > len(scheduled):  # keys that are not graph edges
        violations += [f"scheduled edge {e} not in graph"
                       for e in sorted(step_of.keys() - set(g.edges))]

    # one pass with each vertex's {step: first edge}; the stable sort lists
    # clashes by step, in canonical order within a step
    first: list[dict[int, Edge]] = [{} for _ in range(g.n)]
    clashes = []
    for e, s in scheduled:
        for vtx in e:
            if (owner := first[vtx].setdefault(s, e)) is not e:  # another edge holds s
                clashes.append((s, f"incident edges {owner} and {e} share step {s}"))
    violations += [message for _s, message in sorted(clashes, key=lambda c: c[0])]

    t = sched.tree
    if t is not None:
        if not all(e in step_of for e in t.edges):
            return violations + ["tree edge missing from schedule"]
        # path[v]: a bit per step on the root-to-v tree path, indexed by the
        # step's dense rank, so a step of any size costs one bit
        tree_step = [step_of[e] for e in t.edges]
        rank = {s: i for i, s in enumerate(sorted(set(tree_step)))}
        path = [0] * t.n
        for (e, (u, v)), s in zip(t.edges.items(), tree_step):
            if path[u] >> rank[s] & 1:  # walk the ancestor chain only to word it
                node = u
                while (p := t.parent[node]) is not None:  # ends: parent links cannot cycle
                    anc = canonical_edge(p, node)
                    if step_of[anc] == s:
                        violations.append(f"tree edge {e} reuses step {s} of its ancestor {anc}")
                    node = p
            path[v] = path[u] | 1 << rank[s]
        last = max(tree_step, default=0)
        violations += [f"non-tree edge {e} at step {s} does not follow the tree phase "
                       f"(last tree step {last})"
                       for e, s in scheduled if s <= last and e not in t.edges]
    return violations


def schedule_to_text(g: Graph, sched: StepSchedule) -> str:
    """Dump format: one line "u v step tree|nontree" per edge."""
    tree_edges = sched.tree.edges if sched.tree is not None else {}
    lines = []
    for e in g.edges:
        kind = "tree" if e in tree_edges else "nontree"
        lines.append(f"{e[0]} {e[1]} {sched.step_of[e]} {kind}")
    return "\n".join(lines) + "\n"
