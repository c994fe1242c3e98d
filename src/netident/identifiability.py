"""Graph-based identifiability certification.

The certificate is a colouring argument: seed the colour-change rule
with the nodes that are both excited and measured; every node the rule
reaches has an identifiable row/column in the weight matrix, and if it
reaches all of them the whole matrix is identifiable.

The condition is sufficient, not necessary, so a report never claims
non-identifiability: the vocabulary is CERTIFIED_FULL,
CERTIFIED_PARTIAL, and UNCERTIFIED.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .graph_core import Graph, NodeSet
from .zero_forcing import ForcingChronicle, derived_set

__all__ = [
    "IdentifiabilityReport",
    "certify",
    "necessity_check_directed",
]

_SUFFICIENCY_CAVEAT = (
    "certification is sufficient only: nodes outside the certified set may "
    "still be identifiable (the colouring condition is not necessary)"
)


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Outcome of certifying one (graph, inputs, outputs) instance."""

    w: NodeSet
    chronicle: ForcingChronicle
    certified_full: bool
    certified_nodes: NodeSet
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def verdict(self) -> str:
        if self.certified_full:
            return "CERTIFIED_FULL"
        if len(self.certified_nodes) > 0:
            return "CERTIFIED_PARTIAL"
        return "UNCERTIFIED"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "w": self.w.to_json(),
            "certified_full": self.certified_full,
            "certified_nodes": self.certified_nodes.to_json(),
            "chronicle": self.chronicle.to_json(),
            "notes": list(self.notes),
        }

    def __str__(self) -> str:
        lines = [
            f"verdict: {self.verdict}",
            f"seed (inputs ∩ outputs): {list(self.w)}",
            f"certified nodes: {list(self.certified_nodes)}",
        ]
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)


def certify(g: Graph, v_in: Iterable[int], v_out: Iterable[int]) -> IdentifiabilityReport:
    """Certify which principal submatrix is identifiable from (v_in, v_out).

    The seed is the intersection of inputs and outputs; the certified
    nodes are its derived set under the colour-change rule. Full
    certification is exactly the seed being a zero forcing set. Equal
    node sets make ``v_in`` itself the seed.
    """
    v_in = g.check_nodes(v_in)
    v_out = g.check_nodes(v_out)
    notes: list[str] = []
    w = v_in
    if v_in != v_out:  # equal sets: w is v_in, and no node is input- or output-only
        w = v_in.intersection(v_out)
        for kind, only in (("input", v_in.difference(v_out)),
                           ("output", v_out.difference(v_in))):
            if only.members:
                notes.append(f"{kind}-only nodes {list(only)} do not join the forcing seed")
    derived, chronicle = derived_set(g, w)
    certified_full = len(derived) == g.n
    if not certified_full:
        notes.append(_SUFFICIENCY_CAVEAT)

    return IdentifiabilityReport(
        w=w,
        chronicle=chronicle,
        certified_full=certified_full,
        certified_nodes=derived,
        notes=tuple(notes),
    )


def necessity_check_directed(
    g: Graph, v_in: Iterable[int], v_out: Iterable[int]
) -> bool:
    """Check the necessary condition for the directed / sign-free classes.

    Returns True iff every node is an input or an output. When False, the
    instance is *not* identifiable once symmetry or the positivity
    constraint is dropped: ``netsim.scaling_counterexample`` constructs an
    explicit witness with identical Markov parameters.
    """
    v_in = g.check_nodes(v_in)
    v_out = g.check_nodes(v_out)
    return len(v_in.union(v_out)) == g.n
