"""Identifiability certification and weight reconstruction for undirected
dynamical networks with known graph structure.

The package answers two questions about a network whose interconnection
graph is known but whose edge weights are not:

* which principal submatrix of the weight matrix is certified
  identifiable from given sets of excited and measured nodes
  (``identifiability``, built on the colour-change rule in
  ``zero_forcing``), and
* how to actually reconstruct those weights from measured Markov
  parameters (``reconstruct``), including networks whose nodes carry
  their own higher-order dynamics (``higher_order``).
"""

from .errors import (
    DeconvolutionBlockedError,
    DecoupledHiddenBlockError,
    DegenerateWeightError,
    DomainError,
    InconsistentDataError,
    InputError,
    InsufficientOrderError,
    NetidentError,
    NoHiddenNodesError,
    SingularShiftError,
    UncertifiedTargetError,
)
from .graph_core import (
    Graph,
    NodeSet,
    graph_from_json,
    nodeset_from_json,
    selection_matrix,
)
from .higher_order import (
    CouplingReport,
    NodeDynamics,
    coupling_condition,
    deconvolve,
    lifted_markov,
)
from .identifiability import (
    IdentifiabilityReport,
    certify,
    necessity_check_directed,
)
from .netsim import (
    DirectedWeightMatrix,
    MarkovSequence,
    WeightMatrix,
    markov_sequence,
    matrix_from_csv,
    matrix_to_csv,
    random_weights,
    scaling_counterexample,
    transfer_eval,
)
from .reconstruct import (
    ForceStepRecord,
    ReconstructionResult,
    identify,
    required_order,
)
from .zero_forcing import (
    ForcingChronicle,
    derived_set,
    is_zero_forcing_set,
    minimum_zero_forcing_set,
    zfs_heuristic,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "NodeSet",
    "selection_matrix",
    "graph_from_json",
    "nodeset_from_json",
    "ForcingChronicle",
    "derived_set",
    "is_zero_forcing_set",
    "minimum_zero_forcing_set",
    "zfs_heuristic",
    "IdentifiabilityReport",
    "certify",
    "necessity_check_directed",
    "WeightMatrix",
    "DirectedWeightMatrix",
    "MarkovSequence",
    "random_weights",
    "markov_sequence",
    "transfer_eval",
    "scaling_counterexample",
    "matrix_to_csv",
    "matrix_from_csv",
    "ReconstructionResult",
    "ForceStepRecord",
    "required_order",
    "identify",
    "NodeDynamics",
    "CouplingReport",
    "coupling_condition",
    "lifted_markov",
    "deconvolve",
    "NetidentError",
    "InputError",
    "DomainError",
    "UncertifiedTargetError",
    "DegenerateWeightError",
    "InconsistentDataError",
    "InsufficientOrderError",
    "DeconvolutionBlockedError",
    "NoHiddenNodesError",
    "DecoupledHiddenBlockError",
    "SingularShiftError",
]
