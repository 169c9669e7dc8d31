#!/usr/bin/env python3
"""Set packing embedded in cache placement, executed end to end.

The construction: one unit-cache SCBS per ground element, one file per
listed subset, and a request-probability table that makes file i's whole
demand come from exactly the areas of subset i with mass 1/|subsets|.
Serving a file entirely from caches then saves exactly 1/|subsets| of
cost, and unit caches force the chosen subsets to be pairwise disjoint,
so reaching cost 1 - k/|subsets| is the same question as packing k
subsets.
"""

import numpy as np

from macp import (
    SppInstance,
    decision_cost,
    macdp_decide,
    packing_from_policy,
    policy_from_packing,
    spp_decide,
    spp_to_macdp,
)

spp = SppInstance(
    elements=frozenset({1, 2, 3}),
    subsets=(frozenset({1}), frozenset({1, 2}), frozenset({2, 3})),
    target=2,
)
print("Ground set {1, 2, 3}; listed subsets {1}, {1,2}, {2,3}; want 2 disjoint.")

decision = spp_to_macdp(spp)
print(f"\nReduced placement question: {decision.num_scbs} unit-cache SCBSs, "
      f"{decision.num_files} files, threshold Q = {decision.threshold:.4f}")
for file, areas, prob in decision.prob_table:
    print(f"  file {file}: requested by areas {sorted(areas)} with probability {prob:.4f}")

answer, witness = macdp_decide(decision)
print(f"\nPlacement side answer: {answer}")
print(witness.placement)
print(f"objective value: {decision_cost(decision, witness):.4f} <= Q")

packing = packing_from_policy(spp, witness)
print(f"\nSubsets read off the witness policy: {[sorted(spp.subsets[j]) for j in packing]}")

direct, selection = spp_decide(spp)
print(f"Packing side answer: {direct}, picked indices {selection}")

back = policy_from_packing(spp, selection)
print("Policy rebuilt from the packing yields the same objective:",
      f"{decision_cost(decision, back):.4f}")

print("\nA colliding pair is refuted on both sides:")
clash = SppInstance(frozenset({1}), (frozenset({1}), frozenset({1})), 2)
print("  packing side:", spp_decide(clash)[0])
print("  placement side:", macdp_decide(spp_to_macdp(clash))[0])

print("\nRandom cross-check over 50 instances:")
rng = np.random.default_rng(3)
agree = 0
for _ in range(50):
    n = int(rng.integers(1, 6))
    universe = list(range(1, n + 1))
    count = int(rng.integers(1, 6))
    subsets = tuple(
        frozenset(e for e in universe if rng.random() < 0.5) for _ in range(count)
    )
    inst = SppInstance(frozenset(universe), subsets, int(rng.integers(0, count + 1)))
    agree += spp_decide(inst)[0] == macdp_decide(spp_to_macdp(inst))[0]
print(f"  {agree}/50 decisions agree")
