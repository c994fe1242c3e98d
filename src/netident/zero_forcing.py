"""Colour-change rule, derived sets, and zero forcing sets.

A black node with exactly one white neighbour forces that neighbour to
turn black. The derived set of an initial black set is the fixpoint of
this rule; it does not depend on the order in which forces are applied,
but the recorded chronicle does, so the implementation fixes a
deterministic order. Forces are grouped into propagation rounds: a round
applies every force that is valid against the black set at the round's
start, in ascending forcing node, and when two black nodes could force
the same white node the smaller one forces it. The number of rounds is
the propagation time of the initial set (Hogben et al., "Propagation
time for zero forcing on a graph", Discrete Appl. Math. 2012).

Finding a *minimum* zero forcing set is NP-hard, so the exact search is
capped by a node budget and a verified heuristic is provided for larger
graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

from .errors import InputError
from .graph_core import Graph, NodeSet, _integral

__all__ = [
    "ForcingChronicle",
    "derived_set",
    "is_zero_forcing_set",
    "minimum_zero_forcing_set",
    "zfs_heuristic",
    "EXACT_SEARCH_DEFAULT_BUDGET",
]

EXACT_SEARCH_DEFAULT_BUDGET = 25
_EXACT_DIAMETER_MAX_NODES = 512  # larger graphs take the double BFS sweep


@dataclass(frozen=True)
class ForcingChronicle:
    """Ordered witness of how an initial black set grew to its derived set.

    ``rounds`` holds the number of forces in each propagation round, in
    order; every force of a round must be valid against the black set at
    the round's start. Given empty, it means one force per round and is
    stored that way, so ``rounds`` always sums to ``len(forces)``.
    """

    initial: NodeSet
    forces: tuple[tuple[int, int], ...] = field(default_factory=tuple)
    rounds: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        rounds = self.rounds or (1,) * len(self.forces)
        if min(rounds, default=1) < 1 or sum(rounds) != len(self.forces):
            raise InputError(
                f"round sizes {list(rounds)} must be positive and sum to the "
                f"{len(self.forces)} force(s)"
            )
        object.__setattr__(self, "rounds", tuple(rounds))

    @property
    def derived(self) -> NodeSet:
        return self.initial.union(v for _, v in self.forces)

    def __len__(self) -> int:
        return len(self.forces)

    def round_forces(self) -> list[tuple[tuple[int, int], ...]]:
        """The forces split into their propagation rounds."""
        out, start = [], 0
        for count in self.rounds:
            out.append(self.forces[start:start + count])
            start += count
        return out

    def replay(self, g: Graph) -> NodeSet:
        """Re-apply every round on ``g``, checking each force's precondition.

        Each force is checked against the black set at its round's start,
        so a round that groups dependent forces is rejected. Runs in time
        linear in the chronicle plus the forcing nodes' degrees. Returns
        the final black set; raises InputError at the first invalid force.
        """
        n = g.n
        nbrs = g.neighbour_rows
        black = [0] * (n + 1)
        for u in g.check_nodes(self.initial):
            black[u] = 1
        step = 0
        for r, forces in enumerate(self.round_forces(), start=1):
            for u, v in forces:
                step += 1
                problem = None
                if not (1 <= u <= n and 1 <= v <= n):
                    problem = f"node outside 1..{n}"
                elif not black[u]:
                    problem = f"forcing node {u} is not black"
                else:
                    whites = [w for w in nbrs[u] if not black[w]]
                    if whites != [v]:
                        problem = (f"white neighbours of {u} are {whites}, "
                                   f"expected exactly [{v}]")
                if problem is not None:
                    raise InputError(
                        f"chronicle invalid at step {step} (round {r}): "
                        f"force ({u},{v}): {problem}"
                    )
            for _, v in forces:
                if black[v]:
                    raise InputError(
                        f"chronicle invalid in round {r}: node {v} is forced twice"
                    )
                black[v] = 1
        return NodeSet._trusted(tuple(compress(range(1, n + 1), black[1:])))

    def to_json(self) -> dict:
        return {
            "initial": self.initial.to_json(),
            "forces": [list(f) for f in self.forces],
            "rounds": list(self.rounds),
            "derived": self.derived.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ForcingChronicle":
        try:
            initial = NodeSet(obj["initial"])
            forces = tuple((_integral(u, "forcing node"), _integral(v, "forced node"))
                           for u, v in obj["forces"])
            rounds = tuple(_integral(c, "round size") for c in obj.get("rounds", ()))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad chronicle JSON: {exc}") from None
        return cls(initial=initial, forces=forces, rounds=rounds)


def derived_set(g: Graph, z: NodeSet) -> tuple[NodeSet, ForcingChronicle]:
    """Fixpoint of the colour-change rule from initial black set ``z``.

    Returns the derived set together with its round chronicle: each
    round holds every force valid against the black set at the round's
    start, in ascending forcing node, the smaller forcing node winning a
    shared target. The derived set itself is order-independent.

    Each node keeps a count of its white neighbours, updated as nodes
    turn black. The counts start from the smaller side: a seed of at
    most n/2 nodes subtracts its own edges from the degrees, a larger
    one counts up over the white nodes' edges, so set-up costs
    O(n + vol(smaller side)). A black node whose count is one either
    forces in the next round or loses its last white neighbour to
    another forcer, so only black nodes next to a node coloured in the
    last round can force in the next one. While a round has a single
    candidate forcer, as along a chain, it forces one node and an inner
    loop runs it with no per-round sets.
    """
    z = g.check_nodes(z)
    n = g.n
    nbrs = g.neighbour_rows
    # black[v]: 0 white, 1 black, 2 forced in the current round.
    if 2 * len(z) <= n:  # count down: degrees minus the seed's edges
        black = [0] * (n + 1)
        white_deg = list(map(len, nbrs))
        for u in z:
            black[u] = 1
            for w in nbrs[u]:
                white_deg[w] -= 1
        active = [u for u in z if white_deg[u] == 1]  # ascending: z is sorted
    else:  # count up over the white nodes' edges
        black = [0] + [1] * n
        whites = set(range(1, n + 1)).difference(z.members)
        white_deg = [0] * (n + 1)
        for v in whites:
            black[v] = 0
            for w in nbrs[v]:
                white_deg[w] += 1
        active = sorted({w for v in whites for w in nbrs[v]
                         if black[w] and white_deg[w] == 1})

    forces: list[tuple[int, int]] = []
    rounds: list[int] = []
    while active:
        while len(active) == 1:  # one forcer: its force is the whole round
            u = active[0]
            for v in nbrs[u]:
                if not black[v]:
                    break
            black[v] = 1
            forces.append((u, v))
            rounds.append(1)
            active = [v] if white_deg[v] == 1 else []
            for w in nbrs[v]:
                white_deg[w] -= 1
                if white_deg[w] == 1 and black[w]:
                    active.append(w)
            active.sort()  # distinct candidates; v may exceed its neighbours
        if not active:
            break
        new: list[int] = []
        for u in active:
            for v in nbrs[u]:
                if black[v] != 1:
                    break  # the one white neighbour at the round's start
            if not black[v]:  # else a smaller forcing node took it
                black[v] = 2
                new.append(v)
                forces.append((u, v))
        rounds.append(len(new))
        for v in new:
            black[v] = 1
        # Candidates: the new nodes and black nodes whose count drops to
        # one; a later update in this round may still drop it to zero.
        touched = list(new)
        for v in new:
            for w in nbrs[v]:
                white_deg[w] -= 1
                if white_deg[w] == 1 and black[w]:
                    touched.append(w)
        active = sorted({w for w in touched if white_deg[w] == 1})

    derived = NodeSet._trusted(tuple(compress(range(n + 1), black)))
    return derived, ForcingChronicle(initial=z, forces=tuple(forces), rounds=tuple(rounds))


def is_zero_forcing_set(g: Graph, z: NodeSet) -> bool:
    """True iff the derived set of ``z`` is the whole node set."""
    derived, _ = derived_set(g, z)
    return len(derived) == g.n


# -- exact minimum search ------------------------------------------------


def _add_and_close(adj: tuple[int, ...], black: int, v: int) -> int:
    """Closure of ``black | {v}``, where the bitmask ``black`` is already closed.

    In a closed set no black node has exactly one white neighbour, so a
    force can only come from a node whose white neighbours just shrank:
    the newly black node itself or one of its black neighbours. Each node
    that turns black is queued, and only it and its black neighbours are
    checked, so the work follows the neighbourhoods of the new black nodes.
    """
    black |= 1 << (v - 1)
    queue = [v]
    while queue:
        x = queue.pop()
        check = (adj[x] & black) | (1 << (x - 1))
        while check:
            low = check & -check
            check ^= low
            w = adj[low.bit_length()] & ~black  # node id: bit j-1 <-> node j
            if w and (w & (w - 1)) == 0:
                black |= w
                queue.append(w.bit_length())
    return black


def _min_zfs_connected_mask(g: Graph) -> tuple[int, ...]:
    """Lexicographically smallest minimum ZFS of a connected graph, n <= budget.

    Iterative deepening on the set size, DFS adding nodes in ascending
    order. Two sound prunes: the size starts at the minimum degree (any
    first force needs that many black nodes), and a new member is never
    taken from the closure of the already-chosen ones (such a member
    could be dropped, so no *minimum* set is skipped).
    """
    n = g.n
    if n == 0:
        return ()
    adj = g.adjacency_masks
    full = (1 << n) - 1

    def dfs(chosen: list[int], black: int, budget: int) -> tuple[int, ...] | None:
        if budget == 0:
            return None
        for v in range(chosen[-1] + 1 if chosen else 1, n + 1):
            if (black >> (v - 1)) & 1:
                continue
            new_black = _add_and_close(adj, black, v)
            chosen.append(v)
            if new_black == full:
                return tuple(chosen)
            hit = dfs(chosen, new_black, budget - 1)
            if hit is not None:
                return hit
            chosen.pop()
        return None

    lower = max(1, min(g.degree(i) for i in range(1, n + 1)))
    for k in range(lower, n + 1):
        hit = dfs([], 0, k)
        if hit is not None:
            return hit
    return tuple(range(1, n + 1))  # unreachable: V itself always forces


def _per_component(g: Graph, solve) -> NodeSet:
    """Union of ``solve`` over the connected components of ``g``.

    ``solve`` takes a connected graph and returns its chosen nodes. A
    connected ``g`` is passed as is; otherwise each component is
    relabelled to ``1..k`` by ``induced_subgraph`` and mapped back.
    """
    comps = g.components()
    if len(comps) == 1:
        return NodeSet._trusted(tuple(solve(g)))
    members: list[int] = []
    for comp in comps:
        sub = g.induced_subgraph(comp)
        members.extend(sub.to_parent[v] for v in solve(sub.graph))
    return NodeSet._trusted(tuple(sorted(members)))


def minimum_zero_forcing_set(
    g: Graph, node_budget: int = EXACT_SEARCH_DEFAULT_BUDGET
) -> NodeSet:
    """Exact minimum zero forcing set, deterministic tie-break.

    Among all minimum zero forcing sets, returns the one whose sorted
    member list is lexicographically smallest. Disconnected graphs are
    solved per component (forces never cross components).

    Raises InputError when the graph exceeds ``node_budget`` nodes: the
    problem is NP-hard, so exact search is only offered at desk scale.
    Use :func:`zfs_heuristic` for larger graphs.
    """
    if g.n > node_budget:
        raise InputError(
            f"exact minimum search refused for n={g.n} > budget {node_budget} "
            "(NP-hard); use zfs_heuristic for a verified upper bound"
        )
    return _per_component(g, _min_zfs_connected_mask)


# -- heuristic -----------------------------------------------------------


def _bfs(g: Graph, source: int) -> tuple[list[int], list[int]]:
    """Distances and BFS parents from ``source`` (-1 where unreachable)."""
    nbrs = g.neighbour_rows
    dist = [-1] * (g.n + 1)
    parent = [-1] * (g.n + 1)
    dist[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for u in frontier:
            for w in nbrs[u]:
                if dist[w] < 0:
                    dist[w] = level
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    return dist, parent


def _eccentricities(g: Graph) -> list[int]:
    """Eccentricity of every node of a connected graph (index 0 unused).

    One bit-parallel sweep runs the BFS from every source at once (Then
    et al., "The More the Merrier: Efficient Multi-Source Graph
    Traversal", PVLDB 2014). ``reach[v]`` is an int with bit ``s-1`` set
    once the BFS from ``s`` has reached ``v``; each level ORs the reach
    sets of a node's neighbours into its own, so level ``d`` adds exactly
    the sources at distance ``d``. A source's eccentricity is the level at
    which its bit has reached every node, and a node whose reach set is
    complete leaves the sweep. Costs O(diam * m * n/64) word operations.
    Raises InputError on a disconnected graph.
    """
    n = g.n
    nbrs = g.neighbour_rows
    full = (1 << n) - 1
    reach = [0] + [1 << (v - 1) for v in range(1, n + 1)]
    ecc = [0] * (n + 1)
    active = [v for v in range(1, n + 1) if reach[v] != full]
    done = 0  # sources whose BFS has reached every node
    level = 0
    while active:
        level += 1
        if level >= n:
            raise InputError("eccentricities need a connected graph")
        nxt = reach[:]  # levels update synchronously
        complete = full
        still = []
        for v in active:
            r = reach[v]
            for w in nbrs[v]:
                r |= reach[w]
            nxt[v] = r
            if r != full:
                still.append(v)
                complete &= r
        reach, active = nxt, still
        newly = complete & ~done
        done = complete
        while newly:
            low = newly & -newly
            ecc[low.bit_length()] = level
            newly ^= low
    return ecc


def _diametral_path(g: Graph, d1: list[int] | None = None) -> list[int]:
    """A shortest path realising the diameter (connected graph).

    Up to ``_EXACT_DIAMETER_MAX_NODES`` nodes the path is exact: its
    source ``s`` is the smallest node of maximum eccentricity, taken from
    one bit-parallel sweep (:func:`_eccentricities`, O(diam * m * n/64)
    word operations). Beyond that ``s`` is the node farthest from node 1
    (a double BFS sweep), which is exact on trees and a lower-bound
    approximation in general; the candidate set only gets larger, and it
    is verified downstream regardless. :func:`zfs_heuristic` passes as
    ``d1`` the BFS from node 1 that was its connectivity test, so one BFS
    is both that test and the first sweep. Either way one BFS from ``s``
    gives the sink, its farthest node (smallest id on ties), and the path.
    """
    if g.n == 1:
        return [1]
    if g.n <= _EXACT_DIAMETER_MAX_NODES:
        ecc = _eccentricities(g)
        s = ecc.index(max(ecc))
    else:
        if d1 is None:
            d1, _ = _bfs(g, 1)
        s = d1.index(max(d1))
    dist, par = _bfs(g, s)
    t = dist.index(max(dist))
    path = [t]
    while path[-1] != s:
        path.append(par[path[-1]])
    path.reverse()
    return path


def _repair_to_zfs(g: Graph, candidate: set[int]) -> NodeSet:
    """Greedily add lowest-id stuck white nodes until forcing completes."""
    black = NodeSet._trusted(tuple(sorted(candidate)))
    derived, _ = derived_set(g, black)
    while len(derived) < g.n:
        stuck = next(u for u in range(1, g.n + 1) if u not in derived)
        black = black.union((stuck,))
        derived, _ = derived_set(g, black)
    return black


def _path_cover_initials(dist: list[int], parent: list[int]) -> set[int]:
    """The smaller end of each path of a minimum path cover of a tree.

    Greedy over the BFS tree ``(dist, parent)``: nodes are visited deepest
    first, and each is joined to its parent while both have fewer than
    two cover edges. On a tree this keeps the most edges of any subgraph
    of maximum degree 2, so it leaves the fewest paths. An ascending scan
    then takes each unseen path end as an initial and walks its chain to
    mark the far end.
    """
    n = len(dist) - 1
    link: list[list[int]] = [[] for _ in range(n + 1)]
    for v in sorted(range(2, n + 1), key=dist.__getitem__, reverse=True):
        p = parent[v]
        if len(link[v]) < 2 and len(link[p]) < 2:
            link[v].append(p)
            link[p].append(v)
    initials, seen = set(), [False] * (n + 1)
    for u in range(1, n + 1):
        if len(link[u]) < 2 and not seen[u]:
            initials.add(u)
            prev, cur = u, link[u][0] if link[u] else u
            while len(link[cur]) == 2:
                prev, cur = cur, link[cur][link[cur][0] == prev]
            seen[cur] = True
    return initials


def _heuristic_connected(g: Graph, bfs1: tuple | None = None) -> NodeSet:
    """Verified ZFS of one connected graph from its single candidate.

    Trees take the path cover of ``bfs1``, the ``(dist, parent)`` of the
    BFS from node 1; other graphs the ``n - diam`` diametral candidate.
    ``bfs1`` is computed here only if missing and read: on a tree, or
    beyond ``_EXACT_DIAMETER_MAX_NODES`` nodes.
    """
    if len(g.edges) == g.n - 1:  # tree: the path cover is a minimum ZFS
        return _repair_to_zfs(g, _path_cover_initials(*(bfs1 or _bfs(g, 1))))
    path = _diametral_path(g, bfs1 and bfs1[0])
    return _repair_to_zfs(g, set(range(1, g.n + 1)) - set(path[1:]))


def zfs_heuristic(g: Graph) -> NodeSet:
    """A valid zero forcing set without the exact-search size cap.

    Each connected graph gets one candidate. A tree takes one end of each
    path of a minimum path cover, built leaves-up over the BFS tree from
    node 1 (see :func:`_path_cover_initials`); on a tree that is a
    minimum zero forcing set. Any other connected graph takes every node
    off a diametral shortest path except its first, at most
    ``n - diam(G)`` nodes (see :func:`_diametral_path`). A disconnected
    graph is solved per component and the union is returned. The
    candidate is verified with :func:`derived_set` and repaired greedily
    with the lowest-id stuck node until it forces, so the result is
    always valid.

    The BFS from node 1 that tests connectivity is reused: on a tree it
    is the BFS tree of the cover, and beyond 512 nodes it is the first
    leg of the double sweep for the diametral path.
    """
    if g.n == 0:
        return NodeSet()
    bfs1 = _bfs(g, 1)
    if bfs1[0].count(-1) > 1:  # entry 0 is always -1
        return _per_component(g, _heuristic_connected)
    return _heuristic_connected(g, bfs1)
