"""Constructive weight recovery along a forcing chronicle, round by round.

Measured Markov parameters give the entries ``(X^k)_{ij}`` for the nodes
that are both excited and measured. A forcing round extends that dense
power table to the nodes it forces. Write B for the current level set,
U for the round's forcing nodes, V for the nodes they force, P for the
known block ``X[U,B]`` (zero outside each forcing node's closed
neighbourhood) and D for the diagonal of the new edge weights
``X_{u v}``. Any symmetric, positively-patterned state matrix obeys:

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
from .graph_core import Graph, NodeSet, _integral
from .netsim import MarkovSequence
from .zero_forcing import ForcingChronicle, derived_set

__all__ = [
    "ExtendedMarkovTable",
    "ReconstructionResult",
    "ForceStepRecord",
    "required_order",
    "force_round",
    "identify",
]

# A recovered squared edge weight at most this times its scale vanishes.
DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class ExtendedMarkovTable:
    """Dense power table over a growing virtual input/output node set.

    ``powers[k, a, b]`` holds ``(X^k)_{ij}`` for ``0 <= k <= max_order``,
    where i and j are the members at positions a and b of ``level_set``.
    The array has shape ``(max_order + 1, |L|, |L|)``, is symmetric in its
    last two axes, and is made read-only on construction. Forcing rounds
    enlarge the level set and shrink the usable order by two.
    """

    level_set: NodeSet
    max_order: int
    powers: np.ndarray

    def __post_init__(self):
        powers = np.asarray(self.powers, dtype=float)
        size = len(self.level_set)
        if powers.shape != (self.max_order + 1, size, size):
            raise InputError(
                f"power table has shape {powers.shape}, expected "
                f"{(self.max_order + 1, size, size)}"
            )
        if not np.array_equal(powers, powers.transpose(0, 2, 1)):
            raise InputError("power table is not symmetric in its node axes")
        powers.setflags(write=False)
        object.__setattr__(self, "powers", powers)

    def get(self, k: int, i: int, j: int) -> float:
        level = self.level_set
        if not (0 <= k <= self.max_order and i in level and j in level):
            raise InputError(
                f"table entry (X^{k})_{{{i},{j}}} unavailable "
                f"(level set {list(level)}, max order {self.max_order})"
            )
        return float(self.powers[k, level.index(i), level.index(j)])

    @classmethod
    def from_markov(
        cls, markov: MarkovSequence, order: int | None = None
    ) -> "ExtendedMarkovTable":
        """Seed the table with the overlap block of a measured sequence.

        Only nodes that are both inputs and outputs contribute; their
        (i, j) and (j, i) samples are averaged, which is the identity for
        data from any symmetric generator. Orders above ``order`` (all of
        them by default) are not read.
        """
        order = markov.order if order is None else order
        if not 0 <= order <= markov.order:
            raise InputError(f"order {order} outside 0..{markov.order}")
        expected = (len(markov.v_out), len(markov.v_in))
        if markov.data[0].shape != expected:
            raise InputError(
                f"Markov blocks have shape {markov.data[0].shape}, expected "
                f"{expected} = (|v_out|, |v_in|)"
            )
        w = markov.v_in.intersection(markov.v_out)
        rows = [markov.v_out.index(node) for node in w]
        cols = [markov.v_in.index(node) for node in w]
        blocks = np.asarray(markov.data[: order + 1])
        overlap = blocks[np.ix_(range(order + 1), rows, cols)]
        powers = 0.5 * (overlap + overlap.transpose(0, 2, 1))
        return cls(level_set=w, max_order=order, powers=powers)


def required_order(chronicle: ForcingChronicle) -> int:
    """Markov order sufficient to replay a chronicle: 2R + 2 for R rounds.

    Each propagation round consumes two orders of the table and the final
    level still needs its first two powers; the bound is sufficient, not
    minimal. A chronicle with one force per round needs 2L + 2 for L
    forces.
    """
    return 2 * len(chronicle.rounds) + 2


def force_round(
    table: ExtendedMarkovTable,
    g: Graph,
    forces: Iterable[tuple[int, int]],
) -> ExtendedMarkovTable:
    """Extend the table across one propagation round of forces ``u -> v``.

    Preconditions, for each force: ``u`` is in the level set, ``v`` is a
    neighbour of ``u`` outside it and forced by no other force of the
    round, every other closed-neighbourhood member of ``u`` is inside the
    level set at the round's start (the colour-change precondition), and
    at least three orders are usable.

    The returned table covers the level set plus the forced nodes with
    ``max_order`` reduced by two. Each recovered edge weight is strictly
    positive; measured data for which one vanishes or comes out negative
    cannot stem from a positively-weighted symmetric matrix on this graph.
    """
    level = table.level_set
    forces = [(u if type(u) is int else _integral(u, "forcing node"),
               v if type(v) is int else _integral(v, "forced node"))
              for u, v in forces]
    if not forces:
        raise InputError("a forcing round needs at least one force")
    forced: set[int] = set()
    known_cols: list[list[int]] = []
    for u, v in forces:
        if u not in level:
            raise InputError(f"forcing node {u} is not in the level set {list(level)}")
        if v in level:
            raise InputError(f"forced node {v} is already in the level set")
        if v in forced:
            raise InputError(f"forced node {v} is forced twice in one round")
        if not g.has_edge(u, v):
            raise InputError(f"({u},{v}) is not an edge; only neighbours can be forced")
        rest = [z for z in g.closed_neighbourhood(u) if z != v]
        outside = [z for z in rest if z not in level]
        if outside:
            raise InputError(
                f"force ({u},{v}) violates the colour-change precondition: "
                f"neighbourhood nodes {outside} are outside the level set"
            )
        forced.add(v)
        known_cols.append([level.index(z) for z in rest])
    k_max = table.max_order
    if k_max < 3:
        raise InsufficientOrderError(
            f"table order {k_max} exhausted: a round needs orders k+1 and k+2; "
            "supply a sequence of order >= 2R+2 for an R-round chronicle "
            "(2L+2 for L forces applied one per round)",
            required=None,
        )

    t = table.powers
    ui = [level.index(u) for u, _ in forces]
    size_b, size_v = len(level), len(forces)
    p = np.zeros((size_v, size_b))
    for a, cols in enumerate(known_cols):
        p[a, cols] = t[1, ui[a], cols]

    # Squared edge weights from the second power at the forcing nodes.
    power2 = t[2, ui, ui]
    squared = power2 - (p * p).sum(axis=1)
    for a, (u, v) in enumerate(forces):
        scale = max(1.0, abs(power2[a]), float((p[a] * p[a]).max(initial=0.0)))
        if abs(squared[a]) <= DEGENERACY_TOL * scale:
            raise DegenerateWeightError(
                f"forced edge ({u},{v}) has vanishing recovered weight: measured "
                "data is inconsistent with a positively-weighted matrix on this graph"
            )
        if squared[a] < 0.0:
            raise InconsistentDataError(
                f"recovered squared weight of edge ({u},{v}) is negative "
                f"({squared[a]:.3e}): data does not come from a symmetric "
                "positively-patterned matrix on this graph"
            )
    d = np.sqrt(squared)

    # X^k[V,B], then X^k[V,V], for k = 1..k_max-2. The powers are
    # symmetric, so one product over the stacked X^k gives every X^k P^T.
    kk = k_max - 2
    tp = (t[1 : k_max - 1].reshape(-1, size_b) @ p.T).reshape(kk, size_b, size_v)
    vb = (t[2:k_max, ui, :] - tp.transpose(0, 2, 1)) / d[:, None]
    m = (vb.reshape(-1, size_b) @ p.T).reshape(kk, size_v, size_v)  # X^k[V,B] P^T
    acc = t[3:][:, ui][:, :, ui] - p @ tp
    acc -= m.transpose(0, 2, 1) * d + d[:, None] * m
    vv = acc / (d[:, None] * d)
    vv = 0.5 * (vv + vv.transpose(0, 2, 1))

    # Assemble in [B, V] order, then permute to the sorted level set.
    full = np.zeros((kk + 1, size_b + size_v, size_b + size_v))
    full[:, :size_b, :size_b] = t[: kk + 1]
    full[0, size_b:, size_b:] = np.eye(size_v)
    full[1:, size_b:, :size_b] = vb
    full[1:, :size_b, size_b:] = vb.transpose(0, 2, 1)
    full[1:, size_b:, size_b:] = vv
    nodes = list(level) + [v for _, v in forces]
    perm = np.argsort(nodes)
    return ExtendedMarkovTable(
        level_set=NodeSet(nodes),
        max_order=kk,
        powers=full[:, perm[:, None], perm],
    )


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
    residual_order: int
    diagnostics: tuple[ForceStepRecord, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_json(self) -> dict:
        return {
            "nodes": self.nodes.to_json(),
            "recovered": self.recovered.tolist(),
            "residual_order": self.residual_order,
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "notes": list(self.notes),
        }


def identify(
    markov: MarkovSequence,
    g: Graph,
    target: Iterable[int],
) -> ReconstructionResult:
    """Recover the weight submatrix over ``target`` from measured data.

    Seeds the power table with the input/output overlap block, replays
    the deterministic round chronicle of the overlap's derived set (see
    :func:`~netident.zero_forcing.derived_set`) round by round until the
    target nodes are covered, and reads the weights off the
    first power. Replaying R rounds reads only orders up to 2R + 2 of the
    data, so a longer sequence gives the same result. Non-edges inside
    the target are never written, so they are exactly zero in the
    result; edge entries are checked to be strictly positive.
    """
    target = g.check_nodes(target)
    w = markov.v_in.intersection(markov.v_out)
    g.check_nodes(markov.v_in)
    g.check_nodes(markov.v_out)

    reachable, chronicle = derived_set(g, w)
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

    table = ExtendedMarkovTable.from_markov(markov, needed)
    records: list[ForceStepRecord] = []
    for rnd, forces in enumerate(prefix, start=1):
        table = force_round(table, g, forces)
        for u, v in forces:
            records.append(
                ForceStepRecord(
                    step=len(records) + 1,
                    round=rnd,
                    forcing_node=u,
                    forced_node=v,
                    weight=table.get(1, u, v),
                )
            )

    members = target.members
    size = len(members)
    pos = [table.level_set.index(i) for i in members]
    block = table.powers[1][np.ix_(pos, pos)]
    # Upper-triangle edge mask of the target, by position in ``members``.
    lookup = np.full(g.n + 1, -1)
    lookup[list(members)] = np.arange(size)
    ends = lookup[np.asarray(g.edges, dtype=int).reshape(-1, 2)]
    ends = ends[(ends >= 0).all(axis=1)]
    edge = np.zeros((size, size), dtype=bool)
    edge[ends[:, 0], ends[:, 1]] = True

    ea, eb = np.nonzero(edge)
    vals = block[ea, eb]
    bad = np.flatnonzero(vals <= 0.0)
    if bad.size:
        a = bad[0]
        raise InconsistentDataError(
            f"recovered weight of edge ({members[ea[a]]},{members[eb[a]]}) is "
            f"{vals[a]:.3e}; members of the positive class carry strictly "
            "positive edge weights"
        )
    recovered = np.zeros((size, size))
    recovered[ea, eb] = recovered[eb, ea] = vals
    diagonal = np.diagonal(block)
    recovered[np.diag_indices(size)] = diagonal

    # Non-edges are never written: report where the table disagrees noticeably.
    table_scale = max(float(np.abs(diagonal).max(initial=0.0)), 1.0)
    na, nb = np.nonzero(np.triu(~edge, 1))
    leaks = np.abs(block[na, nb])
    notes = [
        f"non-edge ({members[na[a]]},{members[nb[a]]}) carries weight "
        f"{leaks[a]:.3e} in the measured data; entry omitted from the result"
        for a in np.flatnonzero(leaks > 1e-6 * table_scale)
    ]

    return ReconstructionResult(
        nodes=target,
        recovered=recovered,
        residual_order=markov.order - 2 * len(prefix),
        diagnostics=tuple(records),
        notes=tuple(notes),
    )
