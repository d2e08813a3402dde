"""Step scheduling: why tree-ordered circuits get deeper, and how the
tree shape controls it.

A step is a set of disjoint edges whose two-qubit blocks run at once. The
even cycle is the classic example: traditionally 2 steps suffice, but the
tree-ordered rule (every tree edge after its parent, leftovers after the
whole tree) forces a DFS path tree to 6 steps on C6.
"""

from treeqaoa import (
    Graph,
    HeuristicConfig,
    build_dfs_tree,
    build_greedy_tree,
    generate_cycle,
    schedule_to_text,
    schedule_traditional,
    schedule_tree_ordered,
    verify_schedule,
)

c6 = generate_cycle(6)
trad = schedule_traditional(c6)
print(f"C6 traditional: {trad.num_steps} steps")

dfs_sched = schedule_tree_ordered(c6, build_dfs_tree(c6, 0))
print(f"C6 over the DFS path tree: {dfs_sched.num_steps} steps")

greedy_sched = schedule_tree_ordered(c6, build_greedy_tree(c6, 0, HeuristicConfig(B=3)))
print(f"C6 over the greedy tree:   {greedy_sched.num_steps} steps")
print(schedule_to_text(c6, greedy_sched))

# sibling edges share their parent vertex, so they serialize: the second
# child of a vertex starts one step late, the third two steps late, ...
fork = Graph(4, [(0, 1), (1, 2), (1, 3)])
from treeqaoa import build_bfs_tree  # the fork tree is forced here
sched = schedule_tree_ordered(fork, build_bfs_tree(fork, 0))
print(f"fork tree steps: {sorted(sched.step_of.values())}, "
      f"delayed starts: {sched.delayed_start_total}")

# the verifier is the independent legality check the schedulers must pass
assert verify_schedule(c6, trad) == []
assert verify_schedule(c6, dfs_sched) == []
bad = dict(dfs_sched.step_of)
bad[(0, 5)] = 1  # shove the non-tree edge into the tree phase
from treeqaoa import StepSchedule
broken = StepSchedule(c6, dfs_sched.tree, bad)
print("\ninjected violation:", verify_schedule(c6, broken)[0])
