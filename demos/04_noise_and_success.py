"""Noisy simulation: fewer CNOTs vs more steps, and who wins.

The density-matrix engine applies a depolarizing channel after every gate
(strong for CNOTs) plus an idle channel on every waiting qubit per step,
so circuit depth costs fidelity too. The reduced circuit spends fewer
CNOTs but more steps than the traditional one; with the greedy tree the
CNOT saving dominates and success probability goes up.
"""

import numpy as np

from treeqaoa import (
    AnsatzParams,
    HeuristicConfig,
    NoiseParams,
    build_dfs_tree,
    build_greedy_tree,
    build_optimized,
    build_traditional,
    generate_erdos_renyi,
    run_noisy,
    schedule_traditional,
    schedule_tree_ordered,
)

g = generate_erdos_renyi(n=8, p_edge=0.4, seed=33)
rng = np.random.default_rng(2)
gamma, beta = rng.uniform(0, 2 * np.pi, size=2)
params = AnsatzParams(p=1, gammas=(gamma,), betas=(beta,))
noise = NoiseParams()  # p_cx=0.01, p_1q=0.001, p_idle=0.002

print(f"n={g.n}, m={g.m}, noise={noise}\n")
print(f"{'variant':<14} {'CNOTs':>5} {'steps':>5} {'P_success':>10}")

sched = schedule_traditional(g)
circ = build_traditional(g, params, sched)
r = run_noisy(circ, noise)
print(f"{'traditional':<14} {circ.cnot_count():>5} {sched.num_steps:>5} {r.p_success:>10.4f}")

for name, tree in (("dfs tree", build_dfs_tree(g, 0)),
                   ("greedy tree", build_greedy_tree(g, 0, HeuristicConfig(B=3)))):
    sched = schedule_tree_ordered(g, tree)
    circ = build_optimized(g, params, tree, sched)
    r = run_noisy(circ, noise)
    print(f"{name:<14} {circ.cnot_count():>5} {sched.num_steps:>5} {r.p_success:>10.4f}")

# the channel components are individually monotone
print("\nscaling each noise source separately (greedy tree):")
tree = build_greedy_tree(g, 0, HeuristicConfig(B=3))
sched = schedule_tree_ordered(g, tree)
circ = build_optimized(g, params, tree, sched)
for label, np_ in (("no noise", NoiseParams(0, 0, 0)),
                   ("CNOT only", NoiseParams(0.01, 0, 0)),
                   ("idle only", NoiseParams(0, 0, 0.002)),
                   ("all", NoiseParams())):
    print(f"  {label:<10} P_success = {run_noisy(circ, np_).p_success:.6f}")
