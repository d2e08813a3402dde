"""Circuits: the CNOT saving and the exact functional-equivalence check.

The reduced builder drops the leading CNOT of every tree edge in layer 1
(the child qubit is still in |+> at that moment, so the gate was the
identity). That saves exactly n-1 CNOTs for any connected graph at any
layer count, and the p=1 statevectors agree to machine precision.
"""

import numpy as np

from treeqaoa import (
    AnsatzParams,
    HeuristicConfig,
    build_greedy_tree,
    build_optimized,
    build_traditional,
    expected_cut,
    fidelity,
    generate_erdos_renyi,
    run_ideal,
    schedule_traditional,
    schedule_tree_ordered,
)

rng = np.random.default_rng(5)
g = generate_erdos_renyi(n=8, p_edge=0.5, seed=21)
gamma, beta = rng.uniform(0, 2 * np.pi, size=2)
params = AnsatzParams(p=1, gammas=(gamma,), betas=(beta,))

trad_sched = schedule_traditional(g)
trad = build_traditional(g, params, trad_sched)

tree = build_greedy_tree(g, 0, HeuristicConfig(B=3))
tree_sched = schedule_tree_ordered(g, tree)
opt = build_optimized(g, params, tree, tree_sched)

print(f"n={g.n}, m={g.m}")
print(f"traditional: {trad.cnot_count()} CNOTs, gate depth {trad.depth()}")
print(f"reduced:     {opt.cnot_count()} CNOTs, gate depth {opt.depth()}")
print(f"saved {trad.cnot_count() - opt.cnot_count()} CNOTs (n-1 = {g.n - 1})")

psi_t = run_ideal(trad)
psi_o = run_ideal(opt)
print(f"\n|<psi_trad|psi_opt>|^2 = {fidelity(psi_t, psi_o):.12f}")
print(f"expected cut value     = {expected_cut(psi_t, g):.6f}")

# with more layers only the first one is reduced, so the saving stays n-1
params2 = AnsatzParams(p=2, gammas=(0.3, 0.8), betas=(0.5, 0.1))
trad2 = build_traditional(g, params2, trad_sched)
opt2 = build_optimized(g, params2, tree, tree_sched)
print(f"\np=2: {trad2.cnot_count()} vs {opt2.cnot_count()} CNOTs "
      f"(still {trad2.cnot_count() - opt2.cnot_count()} saved)")
print(f"p=2 fidelity: {fidelity(run_ideal(trad2), run_ideal(opt2)):.12f}")
