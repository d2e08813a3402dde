"""Graphs and rooted spanning trees: generators, file I/O, and the three
tree builders side by side.

The interesting comparison is the greedy builder's shape: DFS gives long
chains (good CNOT structure, terrible serialization), BFS gives minimum
height (but heavy sibling fan-out), and the cost-driven tree lands in
between, steered by the branching parameter B.
"""

from treeqaoa import (
    HeuristicConfig,
    build_bfs_tree,
    build_dfs_tree,
    build_greedy_tree,
    generate_erdos_renyi,
    read_edge_list,
    tree_to_text,
    write_edge_list,
)

g = generate_erdos_renyi(n=12, p_edge=0.4, seed=11)
print(f"sampled connected G(12, 0.4): m = {g.m}, max degree = {g.max_degree}")

# the edge-list format round-trips exactly
text = write_edge_list(g)
assert write_edge_list(read_edge_list(text)) == text
print("edge list header:", text.splitlines()[0])

root = 0
dfs = build_dfs_tree(g, root)
bfs = build_bfs_tree(g, root)
print(f"\nDFS height {dfs.height}, BFS height {bfs.height} (BFS is minimal)")

# the greedy cost is (n - level) * (B - branch counter): branching near the
# root is cheap until a vertex has taken B children
print("\ncost examples for n=12, B=3:")
for level, bf in ((0, 1), (1, 0), (1, 3), (2, 4)):
    print(f"  level={level} counter={bf}: cost {(12 - level) * (3 - bf)}")

for B in (2, 3, 6):
    t = build_greedy_tree(g, root, HeuristicConfig(B=B))
    widths = max(t.branch_count)
    print(f"greedy B={B}: height {t.height}, max children {widths}")

print("\ngreedy B=3 tree dump:")
print(tree_to_text(build_greedy_tree(g, root, HeuristicConfig(B=3))))
