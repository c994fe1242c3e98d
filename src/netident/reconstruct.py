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

A call is a graph-only plan and a numeric replay. The plan reads the
graph once, into one sign pattern over positions (true where two nodes
are equal or adjacent): it gives every force's P mask in one gather,
marks the target's edges and gives the zeros of the result. The replay
symmetrises the overlap at every order in a contiguous temporary and
copies it into the table once; each round then writes the rows and
columns of V at orders 1..k-2 from orders up to k of B (k falls by two
a round; order 0 past the overlap is never written). A round of several forces gathers U's rows with one ``take``
and the U x U block with one more; a round of one force takes views and
its weight as a scalar. After the loop each squared weight is screened
against ``DEGENERACY_TOL * |X^2_uu|``, and the screen is exact: a weight
that passes is positive, so ``X^2_uu`` exceeds the float sum of the
``p^2``, which is at least their largest term, and the full scale
``max(|X^2_uu|, max p^2)`` is the screen's. Only a failed screen
gathers P again, to name the first overflowing (an InputError),
vanishing or negative weight. The target block is checked with
whole-array masks, located only when one fires, and the per-force
records are named tuples built by one ``map``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

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
# A non-edge entry above this times the result's largest magnitude is noted.
LEAK_TOL = 1e-6
_BEYOND_RANGE = "Markov data is beyond float64 range"


def required_order(chronicle: ForcingChronicle) -> int:
    """Markov order sufficient to replay a chronicle: 2R + 2 for R rounds.

    Each propagation round consumes two orders of the table and the final
    level still needs its first two powers; the bound is sufficient, not
    minimal. A chronicle with one force per round needs 2L + 2 for L
    forces.
    """
    return 2 * len(chronicle.rounds) + 2


class ForceStepRecord(NamedTuple):
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


def identify(markov: MarkovSequence, g: Graph, target: Iterable[int]) -> ReconstructionResult:
    """Recover the weight submatrix over ``target`` from measured data.

    Seeds the power table with the input/output overlap block, replays
    the round chronicle that :func:`~netident.identifiability.certify`
    records for the overlap round by round until the target nodes are
    covered, and reads the weights off the first power. Replaying R
    rounds reads only orders up to 2R + 2 of the data, so a longer
    sequence gives the same result. Non-edges inside the target are
    exactly zero, and edge entries must be strictly positive. The first
    bad squared weight, in force order, raises DegenerateWeightError if
    it vanishes, InconsistentDataError if negative, InputError if past
    float64 range. Every check is relative to the data's own scale, and a
    zero scale refuses: scaling order k by 2^(jk) scales the result by
    exactly 2^j, refusals and notes unchanged, short of over- or underflow.
    """
    return _replay(markov, _plan(g, markov.v_in, markov.v_out, target))


def _plan(g: Graph, v_in: NodeSet, v_out: NodeSet, target: Iterable[int]) -> tuple:
    """What :func:`identify` reads from the graph: ``(target, w, sizes,
    forcing, forced, pos, pattern, fpos, pmask)``, with the replayed
    rounds' sizes, forcing nodes and forced nodes, and ``fpos`` and
    ``pmask`` the forcing nodes' positions and P masks in chronicle
    order."""
    target = g.check_nodes(target)
    report = certify(g, v_in, v_out)
    w, reachable, chronicle = report.w, report.certified_nodes, report.chronicle
    if not target.issubset(reachable):
        missing = target.difference(reachable)
        raise UncertifiedTargetError(
            f"target nodes {list(missing)} are outside the derived set "
            f"{list(reachable)} of the input/output overlap; certification is "
            "sufficient only, so the instance may still be identifiable; "
            "see identifiability.certify"
        )

    # Only the rounds that reach the target matter: the first r rounds, t forces.
    missing_nodes = set(target.difference(w))
    forced, r, t = chronicle.forced, 0, 0
    for count in chronicle.rounds:
        if not missing_nodes:
            break
        missing_nodes.difference_update(forced[t : t + count])
        r, t = r + 1, t + count
    forcing, forced = chronicle.forcing[:t], forced[:t]

    # powers[k, pos[i], pos[j]] = (X^k)_{ij}: the overlap first, then each
    # round's forced nodes, so force f forces the node at position |w| + f.
    nodes = [*w, *forced]
    pos = np.full(g.n + 1, -1)
    pos[nodes] = np.arange(len(nodes))
    # pattern[a, c]: the nodes at positions a and c are equal or adjacent.
    ends = pos[1:][g.edge_index]
    ends = ends[(ends >= 0).all(axis=1)]
    pattern = np.eye(len(nodes), dtype=bool)
    pattern[ends[:, 0], ends[:, 1]] = pattern[ends[:, 1], ends[:, 0]] = True
    # A forcing node knows every neighbour at its round's start but the forced one.
    fpos = pos[list(forcing)]
    pmask = pattern[fpos]
    pmask[np.arange(t), np.arange(len(w), len(nodes))] = False
    return target, w, chronicle.rounds[:r], forcing, forced, pos, pattern, fpos, pmask


# Finite data can overflow float64 mid-replay, and a bad round turns the
# later ones into NaN or inf; the checks after the loop report both.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _replay(markov: MarkovSequence, plan: tuple) -> ReconstructionResult:
    """Replay a :func:`_plan` on Markov data: the numeric part of :func:`identify`."""
    target, w, sizes, forcing, forced, pos, pattern, fpos, pmask = plan
    needed = 2 * len(sizes) + 2
    if markov.order < needed:
        raise InsufficientOrderError(
            f"markov order {markov.order} is insufficient: replaying {len(sizes)} "
            f"propagation round(s) ({len(forced)} force(s)) needs order {needed}",
            required=needed,
        )
    expected = (len(markov.v_out), len(markov.v_in))
    if markov.data.shape[1:] != expected:
        raise InputError(
            f"Markov blocks have shape {markov.data.shape[1:]}, expected "
            f"{expected} = (|v_out|, |v_in|)"
        )

    # The overlap's (i, j) and (j, i) samples are averaged, order 0 included.
    powers = np.empty((needed + 1, *pattern.shape))
    b = len(w)
    if b == len(markov.v_in) == len(markov.v_out):  # w is both node sets
        overlap = markov.data[: needed + 1]
    else:
        rows = np.searchsorted(markov.v_out.members, w.members)
        cols = np.searchsorted(markov.v_in.members, w.members)
        overlap = markov.data[: needed + 1, rows[:, None], cols]
    top = overlap + overlap.transpose(0, 2, 1)
    top *= 0.5
    if not np.isfinite(top).all():
        raise InputError(f"{_BEYOND_RANGE}: the symmetrised overlap is not finite")
    powers[:, :b, :b] = top

    squared = np.empty(len(forced))
    s = 0
    for rnd, count in enumerate(sizes, start=1):
        # Round rnd reads orders 1..k_max and writes orders 1..k_max-2 of
        # V = positions b..e-1, against the known block B = positions 0..b-1;
        # its forces are s..t-1. rows[k] holds U's rows of X^k, uu[k] = X^k[U,U].
        k_max = needed - 2 * (rnd - 1)
        t, e = s + count, b + count
        if count == 1:  # one force: slices give views, not gathers
            u = int(fpos[s])
            rows = powers[: k_max + 1, u : u + 1]
            uu = rows[:, :, u : u + 1]
        else:  # whole rows: a take from the contiguous table is the cheap gather
            rows = powers[: k_max + 1].take(fpos[s:t], axis=1)
            uu = rows.take(fpos[s:t], axis=2)
        p = np.where(pmask[s:t, :b], rows[1, :, :b], 0.0)

        # Squared edge weights from the second power; one force's d is a scalar.
        squared[s:t] = uu[2].diagonal() - (p * p).sum(axis=1)
        d = np.sqrt(squared[s:t])
        d, dc = (d[0], d[0]) if count == 1 else (d, d[:, None])

        # X^k[V,B], then X^k[V,V], for k = 1..k_max-2. The powers are
        # symmetric, so one product over the stacked X^k gives every X^k P^T.
        tp = powers[1 : k_max - 1, :b, :b] @ p.T
        vb = (rows[2:k_max, :, :b] - tp.transpose(0, 2, 1)) / dc
        m = vb @ p.T  # X^k[V,B] P^T
        acc = uu[3:] - p @ tp
        acc -= m.transpose(0, 2, 1) * d + dc * m
        vv = acc / (dc * d)
        ks = slice(1, k_max - 1)
        powers[ks, b:e, :b] = vb
        powers[ks, :b, b:e] = vb.transpose(0, 2, 1)
        powers[ks, b:e, b:e] = 0.5 * (vv + vv.transpose(0, 2, 1))
        s, b = t, e

    # The screen is exact (see the module docstring), and a forcing node's
    # X^2_uu is never rewritten once it is known. Only a failed screen gathers
    # P again, to name the first bad weight; later ones follow from it.
    power2 = powers[2, fpos, fpos]
    if not (squared > DEGENERACY_TOL * np.abs(power2)).all():
        p = np.where(pmask, powers[1, fpos], 0.0)
        scale = np.maximum(np.abs(power2), (p * p).max(axis=1, initial=0.0))
        degenerate = np.abs(squared) <= DEGENERACY_TOL * scale
        overflow = ~np.isfinite(squared)
        a = np.flatnonzero(overflow | degenerate | (squared < 0.0))[0]
        u, v = forcing[a], forced[a]
        if overflow[a]:
            raise InputError(f"{_BEYOND_RANGE}: squared weight of edge ({u},{v}) is not finite")
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
    if not np.isfinite(powers[1]).all():
        raise InputError(f"{_BEYOND_RANGE}: the recovered first power is not finite")

    # powers[1] is exactly symmetric, so each mask below is too, and its
    # upper triangle, row by row, names the entries when one fires.
    members = target.members
    at = pos[list(members)]
    block = powers[1].take(at, 0).take(at, 1)
    mask = pattern.take(at, 0).take(at, 1)
    nonpositive = mask & (block <= 0.0)
    np.fill_diagonal(nonpositive, False)
    if nonpositive.any():
        i, j = np.argwhere(np.triu(nonpositive, 1))[0]
        raise InconsistentDataError(
            f"recovered weight of edge ({members[i]},{members[j]}) is "
            f"{block[i, j]:.3e}; members of the positive class carry strictly "
            "positive edge weights"
        )
    recovered = np.where(mask, block, 0.0)

    # Non-edges are masked to zero: report where the table disagrees noticeably.
    leaks = np.abs(block)
    leaking = ~mask & (leaks > LEAK_TOL * np.abs(recovered).max(initial=0.0))
    notes = [
        f"non-edge ({members[i]},{members[j]}) carries weight "
        f"{leaks[i, j]:.3e} in the measured data; entry omitted from the result"
        for i, j in (np.argwhere(np.triu(leaking, 1)) if leaking.any() else ())
    ]

    # X_{uv} = X^1[v, u]: force f's forced node sits at position |w| + f.
    weights = powers[1, np.arange(len(w), len(pattern)), fpos].tolist()
    rounds = [rnd for rnd, count in enumerate(sizes, start=1) for _ in range(count)]
    steps = range(1, len(forced) + 1)
    records = tuple(map(ForceStepRecord, steps, rounds, forcing, forced, weights))
    return ReconstructionResult(target, recovered, records, tuple(notes))
