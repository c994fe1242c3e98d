"""Constructive weight recovery along a forcing chronicle, round by round.

Measured Markov parameters give the entries ``(X^k)_{ij}`` for the nodes
that are both excited and measured. :func:`identify` holds every power
it knows in one dense array, indexed by order and by the position of a
node: the overlap nodes in ascending order, then the forced nodes in
the order the chronicle forces them. A forcing round fills in the rows
and columns of the nodes it forces. Write B for the nodes known at the
round's start, U for the round's forcing nodes, V for the nodes they
force, P for the known block ``X[U,B]`` (zero outside each forcing
node's closed neighbourhood) and D for the diagonal of the new edge
weights ``X_{u v}``. Any symmetric, positively-patterned state matrix
obeys:

* ``D^2 = diag((X^2)[U,U] - P P^T)``, and the positive branch of each
  square root is forced by the sign constraint;
* ``X^k[V,B] = D^-1 (X^{k+1}[U,B] - P X^k[B,B])``;
* ``X^k[V,V] = D^-1 (X^{k+2}[U,U] - P X^k[B,B] P^T - P X^k[B,V] D
  - D X^k[V,B] P^T) D^-1``.

These hold for every force valid against the same black set, so a whole
propagation round is applied at once. One round consumes two orders of
the table, so a chronicle of R rounds needs measured orders up to
``2R + 2``; grouping forces into rounds also keeps the chain of
divisions, and with it the error growth, as short as the graph allows.

The graph is read once per call, into one sign pattern over positions
(true where two nodes are equal or adjacent): it masks each round's P,
marks the target's edges and gives the zeros of the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import (
    DegenerateWeightError,
    InconsistentDataError,
    InputError,
    InsufficientOrderError,
    UncertifiedTargetError,
)
from .graph_core import Graph, NodeSet
from .identifiability import certify
from .netsim import MarkovSequence
from .zero_forcing import ForcingChronicle

__all__ = [
    "ReconstructionResult",
    "ForceStepRecord",
    "required_order",
    "identify",
]

# A recovered squared edge weight at most this times its scale vanishes.
DEGENERACY_TOL = 1e-12
_BEYOND_RANGE = "Markov data is beyond float64 range"


def required_order(chronicle: ForcingChronicle) -> int:
    """Markov order sufficient to replay a chronicle: 2R + 2 for R rounds.

    Each propagation round consumes two orders of the table and the final
    level still needs its first two powers; the bound is sufficient, not
    minimal. A chronicle with one force per round needs 2L + 2 for L
    forces.
    """
    return 2 * len(chronicle.rounds) + 2


@dataclass(frozen=True)
class ForceStepRecord:
    """Conditioning log entry for one replayed force."""

    step: int
    round: int  # 1-based propagation round the force belongs to
    forcing_node: int
    forced_node: int
    weight: float

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "round": self.round,
            "force": [self.forcing_node, self.forced_node],
            "weight": self.weight,
        }


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered principal submatrix plus per-force diagnostics."""

    nodes: NodeSet
    recovered: np.ndarray
    diagnostics: tuple[ForceStepRecord, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_json(self) -> dict:
        return {
            "nodes": self.nodes.to_json(),
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "notes": list(self.notes),
        }


# Finite data can overflow float64 mid-replay; the finiteness checks report it.
@np.errstate(over="ignore", invalid="ignore")
def identify(
    markov: MarkovSequence,
    g: Graph,
    target: Iterable[int],
) -> ReconstructionResult:
    """Recover the weight submatrix over ``target`` from measured data.

    Seeds the power table with the input/output overlap block, replays
    the round chronicle that :func:`~netident.identifiability.certify`
    records for the overlap round by round until the target nodes are
    covered, and reads the weights off the first power.
    Replaying R rounds reads only orders up to 2R + 2 of the data, so a
    longer sequence gives the same result. One mask of equal or adjacent
    nodes gives each round's P, the target's edges and the result's
    zeros, so non-edges inside the target are exactly zero; edge
    entries are checked to be strictly positive. A recovered squared
    weight that vanishes raises DegenerateWeightError, a negative one
    InconsistentDataError.
    """
    target = g.check_nodes(target)
    report = certify(g, markov.v_in, markov.v_out)
    w, reachable, chronicle = report.w, report.certified_nodes, report.chronicle
    if not target.issubset(reachable):
        missing = target.difference(reachable)
        raise UncertifiedTargetError(
            f"target nodes {list(missing)} are outside the derived set "
            f"{list(reachable)} of the input/output overlap; certification is "
            "sufficient only, so the instance may still be identifiable; "
            "see identifiability.certify"
        )

    # Only the rounds that reach the target matter.
    missing_nodes = set(target.difference(w))
    prefix: list[tuple[tuple[int, int], ...]] = []
    for forces in chronicle.round_forces():
        if not missing_nodes:
            break
        prefix.append(forces)
        missing_nodes.difference_update(v for _, v in forces)

    needed = 2 * len(prefix) + 2
    if markov.order < needed:
        raise InsufficientOrderError(
            f"markov order {markov.order} is insufficient: replaying "
            f"{len(prefix)} propagation round(s) "
            f"({sum(map(len, prefix))} force(s)) needs order {needed}",
            required=needed,
        )
    expected = (len(markov.v_out), len(markov.v_in))
    if markov.data.shape[1:] != expected:
        raise InputError(
            f"Markov blocks have shape {markov.data.shape[1:]}, expected "
            f"{expected} = (|v_out|, |v_in|)"
        )

    # powers[k, pos[i], pos[j]] = (X^k)_{ij}: the overlap first, with its
    # (i, j) and (j, i) samples averaged, then each round's forced nodes.
    nodes = list(w) + [v for forces in prefix for _, v in forces]
    pos = np.full(g.n + 1, -1)
    pos[nodes] = np.arange(len(nodes))
    # pattern[a, c]: the nodes at positions a and c are equal or adjacent.
    ends = pos[1:][g.edge_index]
    ends = ends[(ends >= 0).all(axis=1)]
    pattern = np.eye(len(nodes), dtype=bool)
    pattern[ends[:, 0], ends[:, 1]] = pattern[ends[:, 1], ends[:, 0]] = True
    powers = np.zeros((needed + 1, len(nodes), len(nodes)))
    rows = np.searchsorted(markov.v_out.members, w.members)
    cols = np.searchsorted(markov.v_in.members, w.members)
    overlap = markov.data[: needed + 1, rows[:, None], cols]
    b = len(w)
    powers[:, :b, :b] = 0.5 * (overlap + overlap.transpose(0, 2, 1))
    if not np.isfinite(powers[:, :b, :b]).all():
        raise InputError(f"{_BEYOND_RANGE}: the symmetrised overlap is not finite")
    powers[0, b:, b:] = np.eye(len(nodes) - b)

    records: list[ForceStepRecord] = []
    for rnd, forces in enumerate(prefix, start=1):
        # Round rnd reads orders 1..k_max and writes orders 1..k_max-2 of
        # V = positions b..e-1, against the known block B = positions 0..b-1.
        k_max = needed - 2 * (rnd - 1)
        e = b + len(forces)
        # Every neighbour of a forcing node but the one it forces is known.
        ui = pos[[u for u, _ in forces]]
        p = np.where(pattern[ui, :b], powers[1, ui, :b], 0.0)

        # Squared edge weights from the second power at the forcing nodes.
        power2 = powers[2, ui, ui]
        pp = p * p
        squared = power2 - pp.sum(axis=1)
        scale = np.maximum(np.maximum(1.0, np.abs(power2)), pp.max(axis=1, initial=0.0))
        degenerate = np.abs(squared) <= DEGENERACY_TOL * scale
        bad = np.flatnonzero(degenerate | (squared < 0.0))
        if bad.size:
            a = bad[0]
            u, v = forces[a]
            if degenerate[a]:
                raise DegenerateWeightError(
                    f"forced edge ({u},{v}) has vanishing recovered weight: measured "
                    "data is inconsistent with a positively-weighted matrix on this graph"
                )
            raise InconsistentDataError(
                f"recovered squared weight of edge ({u},{v}) is negative "
                f"({squared[a]:.3e}): data does not come from a symmetric "
                "positively-patterned matrix on this graph"
            )
        d = np.sqrt(squared)

        # X^k[V,B], then X^k[V,V], for k = 1..k_max-2. The powers are
        # symmetric, so one product over the stacked X^k gives every X^k P^T.
        tp = powers[1 : k_max - 1, :b, :b] @ p.T
        vb = (powers[2:k_max, ui, :b] - tp.transpose(0, 2, 1)) / d[:, None]
        m = vb @ p.T  # X^k[V,B] P^T
        acc = powers[3 : k_max + 1, ui[:, None], ui] - p @ tp
        acc -= m.transpose(0, 2, 1) * d + d[:, None] * m
        vv = acc / (d[:, None] * d)
        ks = slice(1, k_max - 1)
        powers[ks, b:e, :b] = vb
        powers[ks, :b, b:e] = vb.transpose(0, 2, 1)
        powers[ks, b:e, b:e] = 0.5 * (vv + vv.transpose(0, 2, 1))
        weights = vb[0, np.arange(e - b), ui].tolist()  # X_{uv} = X^1[V,B][a, u]
        records += [
            ForceStepRecord(len(records) + a, rnd, u, v, weight)
            for a, ((u, v), weight) in enumerate(zip(forces, weights), start=1)
        ]
        b = e
    if not np.isfinite(powers[1]).all():
        raise InputError(f"{_BEYOND_RANGE}: the recovered first power is not finite")

    members = target.members
    at = pos[list(members)]
    block = powers[1, at[:, None], at]
    mask = pattern[at[:, None], at]
    ea, eb = np.nonzero(np.triu(mask, 1))
    vals = block[ea, eb]
    bad = np.flatnonzero(vals <= 0.0)
    if bad.size:
        a = bad[0]
        raise InconsistentDataError(
            f"recovered weight of edge ({members[ea[a]]},{members[eb[a]]}) is "
            f"{vals[a]:.3e}; members of the positive class carry strictly "
            "positive edge weights"
        )
    # powers[1] is exactly symmetric, so both triangles hold the same weights.
    recovered = np.where(mask, block, 0.0)
    diagonal = np.diagonal(block)

    # Non-edges are masked to zero: report where the table disagrees noticeably.
    table_scale = max(float(np.abs(diagonal).max(initial=0.0)), 1.0)
    na, nb = np.nonzero(np.triu(~mask, 1))
    leaks = np.abs(block[na, nb])
    notes = [
        f"non-edge ({members[na[a]]},{members[nb[a]]}) carries weight "
        f"{leaks[a]:.3e} in the measured data; entry omitted from the result"
        for a in np.flatnonzero(leaks > 1e-6 * table_scale)
    ]

    return ReconstructionResult(
        nodes=target,
        recovered=recovered,
        diagnostics=tuple(records),
        notes=tuple(notes),
    )
