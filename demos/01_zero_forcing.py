#!/usr/bin/env python3
"""Zero forcing from the ground up: the colour-change rule, derived sets,
forcing chronicles, exact minimum sets, and the heuristic for big graphs."""

import numpy as np

from netident import (
    Graph,
    NodeSet,
    derived_set,
    is_zero_forcing_set,
    minimum_zero_forcing_set,
    zfs_heuristic,
)

# A black node with exactly one white neighbour forces it black. Start
# from one endpoint of a path and the whole path falls, one node per step.
path5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
derived, chronicle = derived_set(path5, NodeSet([1]))
print("path P5, seed {1}")
print("  derived set:", list(derived))
print("  chronicle:  ", list(chronicle.forces))

# A node with two white neighbours is stuck: the middle of P3 forces nothing.
path3 = Graph(3, [(1, 2), (2, 3)])
derived, _ = derived_set(path3, NodeSet([2]))
print("path P3, seed {2} -> derived", list(derived), "(stuck: two white neighbours)")

# Zero forcing sets colour everything. Finding a *minimum* one is NP-hard,
# so exact search is capped at desk scale; the tie-break is deterministic.
cycle6 = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
best = minimum_zero_forcing_set(cycle6)
print("cycle C6 minimum zero forcing set:", list(best))

complete4 = Graph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
print("complete K4 minimum size:", len(minimum_zero_forcing_set(complete4)))

# For larger graphs the heuristic drops a diametral shortest path (all but
# its first node); on trees it takes one end of each path of a minimum
# path cover, which achieves the true minimum. Both seeds force by
# construction, so the heuristic never closes them.
rng = np.random.default_rng(1)
n = 400
tree_edges = [(int(rng.integers(1, v)), v) for v in range(2, n + 1)]
tree = Graph(n, tree_edges)
zfs = zfs_heuristic(tree)
print(f"random tree with {n} nodes: heuristic found {len(zfs)} seeds,",
      "valid =", is_zero_forcing_set(tree, zfs))
