#!/usr/bin/env python3
"""Reconstructing network weights from measured Markov parameters.

The forcing chronicle is not just a certificate: replayed round by
round, each propagation round extends the table of measured matrix
powers to the nodes it forces, recovering the forced edge weights by
square roots and the new nodes' rows by one block solve. A chronicle of
R rounds needs measured orders up to 2R + 2.
"""

import numpy as np

from netident import (
    Graph,
    NodeSet,
    derived_set,
    identify,
    markov_sequence,
    random_weights,
    required_order,
    zfs_heuristic,
)

# A 7-node network with two cycles and a pendant path.
g = Graph(7, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 6), (6, 4), (6, 7)])
x = random_weights(g, seed=2024, diagonal_mode="laplacian")
print("true weights (negated Laplacian member):")
print(np.round(x.entries, 3))

# Measure at the heuristic's zero forcing set only.
w = zfs_heuristic(g)
_, chronicle = derived_set(g, w)
order = required_order(chronicle)
print(f"\nexciting + measuring only {list(w)} "
      f"({len(w)}/{g.n} nodes), {len(chronicle.rounds)} rounds, Markov order {order}")

markov = markov_sequence(x, w, w, order)
result = identify(markov, g, g.nodes)
print("max abs recovery error:", np.abs(result.recovered - x.entries).max())
for rec in result.diagnostics:
    print(f"  step {rec.step} (round {rec.round}): {rec.forcing_node} -> {rec.forced_node}, "
          f"edge weight {rec.weight:.3f}")

# Partial recovery: a seed that is NOT a zero forcing set still certifies
# its derived set, and exactly that principal submatrix is recovered.
w_small = NodeSet([2, 3])
target, chron_small = derived_set(g, w_small)
print(f"\nseed {list(w_small)} only reaches {list(target)}")
markov_small = markov_sequence(x, w_small, w_small, required_order(chron_small))
partial = identify(markov_small, g, target)
idx = [i - 1 for i in target]
err = np.abs(partial.recovered - x.entries[np.ix_(idx, idx)]).max()
print(f"recovered {partial.recovered.shape} submatrix, max abs error {err:.2e}")
