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
capped by a node budget, and larger graphs take a heuristic whose seed
forces by construction. The exact search is the wavefront of Brimkov,
Fast and Hicks (EJOR 2019), Dijkstra over closed sets, bounded by the
best zero forcing set found so far. Its memory follows the closed sets
it reaches, not the number of candidate sets of a size.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, compress, pairwise, repeat

from .errors import InputError
from .graph_core import Graph, NodeSet, _built, _integral

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


@dataclass(frozen=True, init=False)
class ForcingChronicle:
    """Ordered witness of how an initial black set grew to its derived set.

    Force ``i`` is ``forcing[i]`` forcing ``forced[i]``; the constructor
    takes ``(u, v)`` pairs and ``forces`` builds them again on each read.
    ``rounds`` holds the number of forces in each propagation round, in
    order; every force of a round must be valid against the black set at
    the round's start, and ``rounds`` must sum to the number of forces.
    """

    initial: NodeSet
    forcing: tuple[int, ...]
    forced: tuple[int, ...]
    rounds: tuple[int, ...]

    def __init__(self, initial: NodeSet, forces=(), rounds=()):
        forces, rounds = tuple(forces), tuple(rounds)
        if min(rounds, default=1) < 1 or sum(rounds) != len(forces):
            raise InputError(
                f"round sizes {list(rounds)} must be positive and sum to the "
                f"{len(forces)} force(s)"
            )
        for name, value in (("initial", initial), ("forcing", tuple(u for u, _ in forces)),
                            ("forced", tuple(v for _, v in forces)), ("rounds", rounds)):
            object.__setattr__(self, name, value)

    @property
    def forces(self) -> tuple[tuple[int, int], ...]:
        """The ``(forcing, forced)`` pairs, built on each read."""
        return tuple(zip(self.forcing, self.forced))

    @property
    def derived(self) -> NodeSet:
        return self.initial.union(self.forced)

    def __len__(self) -> int:
        return len(self.forced)

    def replay(self, g: Graph) -> NodeSet:
        """Re-apply every round on ``g``, checking each force's precondition.

        Each force is checked against the black set at its round's start,
        so a round that groups dependent forces is rejected. The rounds are
        walked by index over ``forcing`` and ``forced``, and a force is
        accepted after one pass over its forcing node's row; the list of
        white neighbours is built only to word an error. Runs in time
        linear in the chronicle plus the forcing nodes' degrees, plus O(n)
        to set up and read the colours. Returns the final black set;
        raises InputError at the first invalid force.
        """
        n = g.n
        nbrs = g.neighbour_rows
        forcing, forced = self.forcing, self.forced
        black = [0] * (n + 1)
        for u in g.check_nodes(self.initial):
            black[u] = 1
        s = 0
        for r, count in enumerate(self.rounds, start=1):
            t = s + count
            for i in range(s, t):
                u, v = forcing[i], forced[i]
                whites = 0  # 1 iff v is u's one white neighbour
                if 1 <= u <= n and black[u]:
                    for w in nbrs[u]:
                        if not black[w]:
                            whites += 1 if w == v else 2
                if whites != 1:
                    if not (1 <= u <= n and 1 <= v <= n):
                        problem = f"node outside 1..{n}"
                    elif not black[u]:
                        problem = f"forcing node {u} is not black"
                    else:
                        problem = (f"white neighbours of {u} are "
                                   f"{[w for w in nbrs[u] if not black[w]]}, "
                                   f"expected exactly [{v}]")
                    raise InputError(f"chronicle invalid at step {i + 1} (round {r}): "
                                     f"force ({u},{v}): {problem}")
            for v in forced[s:t]:
                if black[v]:
                    raise InputError(
                        f"chronicle invalid in round {r}: node {v} is forced twice"
                    )
                black[v] = 1
            s = t
        return _built(NodeSet, members=tuple(compress(range(n + 1), black)))

    def to_json(self) -> dict:
        return {
            "initial": self.initial.to_json(),
            "forces": list(map(list, zip(self.forcing, self.forced))),
            "rounds": list(self.rounds),
            "derived": self.derived.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ForcingChronicle":
        try:
            initial = NodeSet(obj["initial"])
            forces = tuple((_integral(u, "forcing node"), _integral(v, "forced node"))
                           for u, v in obj["forces"])
            rounds = tuple(_integral(c, "round size") for c in obj["rounds"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad chronicle JSON: {exc}") from None
        return cls(initial=initial, forces=forces, rounds=rounds)


def derived_set(g: Graph, z: NodeSet) -> tuple[NodeSet, ForcingChronicle]:
    """Fixpoint of the colour-change rule from initial black set ``z``.

    Returns the derived set together with its round chronicle: each
    round holds every force valid against the black set at the round's
    start, in ascending forcing node, the smaller forcing node winning a
    shared target. The derived set itself is order-independent. Each
    call closes ``z`` and keeps nothing between calls.

    Each node keeps a count of its white neighbours, updated as nodes
    turn black. The counts start from the smaller side: a seed of at
    most n/2 nodes subtracts its own edges from the degrees, a larger
    one counts up over the white nodes' edges, finding them by hopping
    from zero to zero in the colour list once the seed is marked there,
    so set-up costs O(n + vol(smaller side)), the O(n) only to allocate
    the lists and mark the seed. A black node whose count is one either
    forces in the next round or loses its last white neighbour to
    another forcer, so only black nodes next to a node coloured in the
    last round can force in the next one. A run of rounds with a single
    candidate forcer, as along a chain, is walked by one loop that
    tracks that candidate; a force that leaves two or more candidates
    falls back to the general round. The loop that decrements the counts
    of the forced node's neighbours also finds its white one, so when the
    forced node is the next forcer it forces with no scan; a forcer's row
    is scanned only when the next candidate is some other node. Forces
    are kept as two int lists, forcing and forced nodes, with no tuple
    per force. A closure that reaches every node is ``1..n``, with no
    scan of the colours.
    """
    z = g.check_nodes(z)
    n = g.n
    nbrs = g.neighbour_rows
    black = [0] * (n + 1)  # 0 white, 1 black, 2 forced in the current round
    for u in z:
        black[u] = 1
    if 2 * len(z) <= n:  # count down: degrees minus the seed's edges
        white_deg = list(map(len, nbrs))
        for u in z:
            for w in nbrs[u]:
                white_deg[w] -= 1
        active = [u for u in z if white_deg[u] == 1]  # ascending: z is sorted
    else:  # count up over the white nodes' edges
        whites, v = [], 0
        for _ in range(n - len(z)):  # hop from zero to zero
            v = black.index(0, v + 1)
            whites.append(v)
        white_deg = [0] * (n + 1)
        for v in whites:
            for w in nbrs[v]:
                white_deg[w] += 1
        active = sorted({w for v in whites for w in nbrs[v]
                         if black[w] and white_deg[w] == 1})

    forcing: list[int] = []
    forced: list[int] = []
    rounds: list[int] = []
    while active:
        if len(active) == 1:  # a chain: each round is one force by the one candidate
            u, v, many, start = active[0], 0, False, len(forced)
            while u and not many:
                if u == v:  # the node just forced forces its one white neighbour x
                    v = x
                else:
                    for v in nbrs[u]:
                        if not black[v]:
                            break
                black[v] = 1
                forcing.append(u)
                forced.append(v)
                u = v if white_deg[v] == 1 else 0  # the next candidate, if any
                for w in nbrs[v]:
                    white_deg[w] -= 1
                    if not black[w]:
                        x = w
                    elif white_deg[w] == 1:
                        many = many or u > 0  # u was a candidate already
                        u = w
            rounds.extend(repeat(1, len(forced) - start))
            if not many:
                break
            # Candidates: v and its black neighbours whose count is now one.
            active = [w for w in (v, *nbrs[v]) if black[w] and white_deg[w] == 1]
            active.sort()  # v may exceed its neighbours
        new: list[int] = []
        for u in active:
            for v in nbrs[u]:
                if black[v] != 1:
                    break  # the one white neighbour at the round's start
            if not black[v]:  # else a smaller forcing node took it
                black[v] = 2
                new.append(v)
                forcing.append(u)
        forced += new
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

    # A closure of every node needs no scan of the colours.
    members = range(1, n + 1) if len(z) + len(forced) == n else compress(range(n + 1), black)
    derived = _built(NodeSet, members=tuple(members))
    return derived, _built(ForcingChronicle, initial=z, forcing=tuple(forcing),
                           forced=tuple(forced), rounds=tuple(rounds))


def is_zero_forcing_set(g: Graph, z: NodeSet) -> bool:
    """True iff the derived set of ``z`` is the whole node set."""
    derived, _ = derived_set(g, z)
    return len(derived) == g.n


# -- exact minimum search ------------------------------------------------


def _min_zfs_connected_mask(g: Graph) -> tuple[int, ...]:
    """Lexicographically smallest minimum ZFS of a connected graph.

    Wavefront search (Brimkov, Fast and Hicks, "Computational approaches
    for zero forcing and related problems", EJOR 2019): Dijkstra over
    closed sets, as ints with bit v-1 for node v, from the empty set.
    From a closed set S, each node v whose closed neighbourhood N[v]
    holds a white node gives a step: the white nodes of N[v] join the
    seed, except v's largest white neighbour, which v then forces; a
    white v with no white neighbour joins alone. The step costs the nodes
    that join, at least one since S is closed, and leads to the closure
    of S and N[v].

    Each state keeps its cheapest seed and, at equal cost, the
    lexicographically smallest: the one holding the lowest node of the
    symmetric difference. Later steps add the same nodes to either seed,
    so that order carries over to every extension, and forcing the
    largest white neighbour makes each step's own addition the smallest.
    Every step costs at least one, so a state's cheaper predecessors are
    all expanded before it is popped.

    The best full set found so far bounds the search and is never
    pushed: a step adding more nodes than the room left under it is
    dropped before its addition is built, one that fills the room is
    closed only if its seed is smaller, and the search stops at the first
    state that costs as much. A closure checks, wave by wave, each black
    node in or next to the last wave's new ones, and is cached by the
    black set it starts from. Memory follows the states reached.
    """
    n = g.n
    full = (1 << n) - 1
    adj = [0] * n
    for i, j in g.edges:
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
    row_of = {1 << v: row for v, row in enumerate(adj)}  # a node's bit -> its neighbours' bits
    rows = [(row, row | bit) for bit, row in row_of.items()]

    def close(black: int, new: int) -> int:
        """Closure of ``black``, given that only ``new`` turned black since it was closed."""
        while new:
            check = new
            while new:
                x = new & -new
                new ^= x
                check |= row_of[x]
            check &= black  # the last wave and its black neighbours
            while check:
                u = check & -check
                check ^= u
                white = row_of[u] & ~black
                if white and not white & (white - 1):
                    black |= white
                    new |= white
        return black

    best = {0: 0}  # closed set -> its seed; a seed's cost is its size
    closures: dict[int, int] = {}
    heap = [(0, 0, 0)]
    bound, answer = n, full
    while heap:
        cost, closed, seed = heappop(heap)
        if cost >= bound:
            break
        if best[closed] != seed:
            continue  # superseded
        room = bound - cost
        white = full ^ closed
        for row, ball in rows:
            near = ball & white
            if not near:
                continue
            size = near.bit_count() - 1 or 1  # all of N[v] but the forced node; v if none
            if size > room:
                continue
            top = 1 << (row & white).bit_length() >> 1  # the forced node; 0 if none
            add = near ^ top
            grown = seed | add
            if size == room and not grown & (diff := grown ^ answer) & -diff:
                continue  # not smaller than the best full set
            black = closed | near
            state = closures.get(black)
            if state is None:
                state = closures[black] = close(black, near)
            if state == full:
                bound, answer, room = cost + size, grown, size
            elif size < room:
                old = best.get(state, full)  # full costs more than any step
                more = old.bit_count() - cost - size
                if more > 0 or not more and grown & (diff := grown ^ old) & -diff:
                    best[state] = grown
                    heappush(heap, (cost + size, state, grown))
    return tuple(v + 1 for v in range(n) if answer >> v & 1)


def _per_component(g: Graph, solve) -> NodeSet:
    """Union of ``solve`` over the connected components of ``g``.

    ``solve`` takes a connected graph and returns its chosen nodes. A
    connected ``g`` is passed as is; otherwise each component is
    relabelled to ``1..k`` in ascending id order and mapped back. A
    component holds every neighbour of its members, so its edges are
    read straight off their neighbour rows.
    """
    comps = g.components()
    if len(comps) == 1:
        return _built(NodeSet, members=tuple(solve(g)))
    nbrs = g.neighbour_rows
    members: list[int] = []
    for comp in comps:
        ids = comp.members
        local = {v: k for k, v in enumerate(ids, start=1)}
        edges = [(local[i], local[j]) for i in ids for j in nbrs[i] if j > i]
        members.extend(ids[v - 1] for v in solve(Graph(len(ids), edges)))
    return _built(NodeSet, members=tuple(sorted(members)))


def minimum_zero_forcing_set(
    g: Graph, node_budget: int = EXACT_SEARCH_DEFAULT_BUDGET
) -> NodeSet:
    """Exact minimum zero forcing set, deterministic tie-break.

    Among all minimum zero forcing sets, returns the one whose sorted
    member list is lexicographically smallest. Disconnected graphs are
    solved per component (forces never cross components).

    Each component is searched by a wavefront over closed sets (see
    :func:`_min_zfs_connected_mask`): a closed set is reached by its
    cheapest, then lexicographically smallest, seed, steps costing more
    than the best zero forcing set found so far are dropped, and the
    search stops once no cheaper set remains. Memory follows the closed
    sets reached.

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


def _bfs(g: Graph, source: int) -> tuple[list[int], list[int], int, int]:
    """BFS from ``source``: ``(dist, parent, reached, far)``.

    ``dist`` and ``parent`` are indexed by node (-1 where unreachable),
    ``reached`` counts the nodes reached, ``source`` included, and ``far``
    is the smallest node of the last non-empty frontier, the smallest of
    the farthest nodes (``dist.index(max(dist))``). The edge scan is the
    cost, O(n + m) over the component of ``source``; the count and the
    farthest node come from the frontiers, with no pass over the lists.
    """
    nbrs = g.neighbour_rows
    dist = [-1] * (g.n + 1)
    parent = [-1] * (g.n + 1)
    dist[source] = 0
    frontier, reached, level = [source], 1, 0
    while True:
        level += 1
        nxt = []
        for u in frontier:
            for w in nbrs[u]:
                if dist[w] < 0:
                    dist[w] = level
                    parent[w] = u
                    nxt.append(w)
        if not nxt:
            return dist, parent, reached, min(frontier)
        reached += len(nxt)
        frontier = nxt


def _eccentricities(g: Graph) -> list[int]:
    """Eccentricity of every node of a connected graph (index 0 unused).

    One bit-parallel sweep runs the BFS from every source at once (Then
    et al., "The More the Merrier: Efficient Multi-Source Graph
    Traversal", PVLDB 2014). ``reach[v]`` is an int with bit ``s-1`` set
    once the BFS from ``s`` has reached ``v``; each level ORs the reach
    sets of a node's neighbours into its own, so level ``d`` adds exactly
    the sources at distance ``d``. Distances are symmetric, so ``v``'s
    reach set is also its own ball, the nodes within ``d`` of ``v``: it
    becomes complete exactly at level ecc(v), and ``v`` leaves the sweep
    then with that level as its eccentricity. Costs O(sum_v deg(v) *
    ecc(v)) big-int ORs. Raises InputError on a disconnected graph.
    """
    n = g.n
    nbrs = g.neighbour_rows
    full = (1 << n) - 1
    reach = [0] + [1 << (v - 1) for v in range(1, n + 1)]
    ecc = [0] * (n + 1)
    active = [v for v in range(1, n + 1) if reach[v] != full]
    level = 0
    while active:
        level += 1
        if level >= n:
            raise InputError("eccentricities need a connected graph")
        nxt = reach[:]  # levels update synchronously
        still = []
        for v in active:
            r = reach[v]
            for w in nbrs[v]:
                r |= reach[w]
            nxt[v] = r
            if r == full:
                ecc[v] = level
            else:
                still.append(v)
        reach, active = nxt, still
    return ecc


def _diametral_path(g: Graph, bfs1: tuple | None = None) -> list[int]:
    """A shortest path realising the diameter (connected graph).

    Up to ``_EXACT_DIAMETER_MAX_NODES`` nodes the path is exact: its
    source ``s`` is the smallest node of maximum eccentricity, taken from
    one bit-parallel sweep (:func:`_eccentricities`, O(sum_v deg(v) *
    ecc(v)) big-int ORs). Beyond that ``s`` is the node farthest from node 1
    (a double BFS sweep), which is exact on trees and a lower-bound
    approximation in general; the candidate set only gets larger, and it
    still forces, as every shortest path is chordless. :func:`zfs_heuristic`
    passes as ``bfs1`` the :func:`_bfs` from node 1 that was its
    connectivity test, so one BFS is both that test and the first sweep.
    Either way one BFS from ``s`` gives the sink, its farthest node
    (smallest id on ties), and the path. On a large graph the cost is the two sweeps' edge
    scans plus O(diam) for the path.
    """
    if g.n == 1:
        return [1]
    if g.n <= _EXACT_DIAMETER_MAX_NODES:
        ecc = _eccentricities(g)
        s = ecc.index(max(ecc))
    else:
        _, _, _, s = bfs1 or _bfs(g, 1)
    _, par, _, t = _bfs(g, s)
    path = [t]
    while path[-1] != s:
        path.append(par[path[-1]])
    path.reverse()
    return path


def _path_cover_initials(dist: list[int], parent: list[int]) -> list[int]:
    """The smaller end of each path of a minimum path cover of a tree.

    Greedy over the BFS tree ``(dist, parent)``: nodes are visited deepest
    first, and each is joined to its parent while both have fewer than
    two cover edges. On a tree this keeps the most edges of any subgraph
    of maximum degree 2, so it leaves the fewest paths. An ascending scan
    then takes each unseen path end as an initial and walks its chain to
    mark the far end, so the initials come out ascending.
    """
    n = len(dist) - 1
    link: list[list[int]] = [[] for _ in range(n + 1)]
    for v in sorted(range(2, n + 1), key=dist.__getitem__, reverse=True):
        p = parent[v]
        if len(link[v]) < 2 and len(link[p]) < 2:
            link[v].append(p)
            link[p].append(v)
    initials, seen = [], [False] * (n + 1)
    for u in range(1, n + 1):
        if len(link[u]) < 2 and not seen[u]:
            initials.append(u)
            prev, cur = u, link[u][0] if link[u] else u
            while len(link[cur]) == 2:
                prev, cur = cur, link[cur][link[cur][0] == prev]
            seen[cur] = True
    return initials


def _heuristic_connected(g: Graph, bfs1: tuple | None = None) -> NodeSet:
    """The single candidate of one connected graph, a ZFS by construction.

    Trees take the path cover of ``bfs1``, the :func:`_bfs` from node 1;
    other graphs the diametral candidate, ``n - diam`` nodes up to
    ``_EXACT_DIAMETER_MAX_NODES`` nodes. Both come out ascending.
    ``bfs1`` is computed here only if missing and read: on a tree, or
    beyond ``_EXACT_DIAMETER_MAX_NODES`` nodes.
    """
    if len(g.edges) == g.n - 1:  # tree: the path cover is a minimum ZFS
        dist, parent, _, _ = bfs1 or _bfs(g, 1)
        return _built(NodeSet, members=tuple(_path_cover_initials(dist, parent)))
    cuts = sorted(_diametral_path(g, bfs1)[1:])  # the candidate fills the gaps
    return _built(NodeSet, members=tuple(chain.from_iterable(
        range(a + 1, b) for a, b in pairwise([0, *cuts, g.n + 1]))))


def zfs_heuristic(g: Graph) -> NodeSet:
    """A zero forcing set without the exact-search size cap.

    Each connected graph gets one candidate. A tree takes one end of each
    path of a minimum path cover, built leaves-up over the BFS tree from
    node 1 (see :func:`_path_cover_initials`); on a tree that is a
    minimum zero forcing set. Any other connected graph takes every node
    off a diametral shortest path except its first (see
    :func:`_diametral_path`): at most ``n - diam(G)`` nodes up to 512
    nodes; beyond that the double sweep can find a shorter path than the
    diameter, and the candidate grows by the difference. A disconnected
    graph is solved per component and the union is returned. The
    candidate is returned unclosed, as it forces by construction (one
    forcing order that reaches every node is enough):

    - Off a tree, a shortest path has no chords, so every neighbour of
      ``path[i]`` but ``path[i-1]`` and ``path[i+1]`` is black, and
      ``path[0]`` forces along the path; this holds for the double sweep.
    - On a tree, let only each path's front force along its path. If this
      stalls, each unfinished front waits on a white node of another
      unfinished path. Following the waits in the tree of contracted
      paths gives a closed walk, which must turn back: a path A waits on
      B and B on A. One edge (a, b) at most joins them, a on A; A's wait
      needs b white, and B's needs b black, as B's front.

    The BFS from node 1 that tests connectivity is reused: on a tree it
    is the BFS tree of the cover, and beyond 512 nodes it is the first
    leg of the double sweep for the diametral path. On a connected graph
    beyond 512 nodes the cost is those two sweeps' edge scans and the
    O(n) candidate; no closure is run.
    """
    if g.n == 0:
        return NodeSet()
    bfs1 = _bfs(g, 1)
    if bfs1[2] < g.n:  # node 1 does not reach every node
        return _per_component(g, _heuristic_connected)
    return _heuristic_connected(g, bfs1)
