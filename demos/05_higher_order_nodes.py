#!/usr/bin/env python3
"""Networks whose nodes are themselves little linear systems.

The network state matrix becomes I (x) A + X (x) EK. As long as the
coupling products C (EK)^k B stay nonzero, the lifted Markov parameters
can be deconvolved back into the plain network's, after which the usual
reconstruction applies unchanged."""

import numpy as np

from netident import (
    DeconvolutionBlockedError,
    Graph,
    NodeDynamics,
    NodeSet,
    coupling_condition,
    deconvolve,
    derived_set,
    identify,
    lifted_markov,
    random_weights,
    required_order,
    zfs_heuristic,
)

# Each node is a lightly damped two-state oscillator, coupled through
# its first state.
dyn = NodeDynamics(
    A=[[0.0, 1.0], [-1.0, -0.2]],
    B=[[1.0, 0.0], [0.0, 1.0]],
    C=[[1.0, 0.0], [0.0, 1.0]],
    E=[[1.0, 0.0], [0.2, 0.9]],
    K=[[0.9, 0.1], [0.0, 1.0]],
)
report = coupling_condition(dyn)
print("coupling products nonzero up to order", report.verified_up_to,
      "->", "ok" if report.ok else f"fails at {report.first_failure}")

g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (2, 5)])
x = random_weights(g, seed=7)
w = zfs_heuristic(g)
_, chronicle = derived_set(g, w)
order = required_order(chronicle)

lifted = lifted_markov(x, dyn, w, w, order)
print(f"lifted blocks are {lifted.data[0].shape} (2 states per node, seeds {list(w)})")

base = deconvolve(lifted, dyn)
recovered = identify(base, g, g.nodes).recovered
print("end-to-end recovery error:", np.abs(recovered - x.entries).max())

# A nilpotent coupling kills the information flow after two hops: the
# deconvolution refuses exactly there.
nilpotent = NodeDynamics(A=np.zeros((2, 2)), B=np.eye(2), C=np.eye(2),
                         E=[[1.0], [0.0]], K=[[0.0, 1.0]])
print("\nnilpotent coupling:", coupling_condition(nilpotent).to_json())
try:
    deconvolve(lifted_markov(x, nilpotent, w, w, order), nilpotent)
except DeconvolutionBlockedError as err:
    print("deconvolution blocked at order", err.k)
