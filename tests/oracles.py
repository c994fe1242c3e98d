"""Independent brute-force oracles for pinning expected test values.

Everything here works on raw (n, edge list) data and plain numpy so it
shares no code path with the library: forcing fixpoints by repeated
full rescans, minimum sets by subset enumeration, by depth-first search
or by a wavefront search, Markov blocks by numpy matrix powers. The two
exceptions are ``reference_identify``, the previous round loop of
``identify``, kept to pin the library's replay bit for bit, and
``reference_replay``, the previous ``ForcingChronicle.replay``, kept to
pin the chronicle check's results and error messages. The named graph
families (``path``, ``cycle``, ``complete``, ``grid``, ``star``) only
spell out edge lists; they return the library's ``Graph`` for the tests.
"""

import heapq
import itertools

import numpy as np

from netident.graph_core import Graph


def adjacency(n, edges):
    adj = {u: set() for u in range(1, n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def reference_graph(n, edges):
    """Edge tuple and neighbour rows of a simple graph, built by putting
    every canonical pair in a set and sorting it; pairs must be valid."""
    canonical = {(min(int(i), int(j)), max(int(i), int(j))) for i, j in edges}
    rows = [[] for _ in range(n + 1)]
    for i, j in canonical:
        rows[i].append(j)
        rows[j].append(i)
    return tuple(sorted(canonical)), tuple(tuple(sorted(row)) for row in rows)


def naive_derived(n, edges, black):
    """Forcing fixpoint by full rescans, deliberately scanning in
    descending node order (the library applies smallest-first)."""
    adj = adjacency(n, edges)
    black = set(black)
    changed = True
    while changed:
        changed = False
        for u in sorted(black, reverse=True):
            whites = [w for w in adj[u] if w not in black]
            if len(whites) == 1:
                black.add(whites[0])
                changed = True
    return black


def shuffled_derived(n, edges, black, rng):
    """Forcing fixpoint applying one uniformly random applicable force
    at a time."""
    adj = adjacency(n, edges)
    black = set(black)
    while True:
        applicable = []
        for u in black:
            whites = [w for w in adj[u] if w not in black]
            if len(whites) == 1:
                applicable.append((u, whites[0]))
        if not applicable:
            return black
        u, v = applicable[rng.integers(len(applicable))]
        black.add(v)


def parallel_colour_change(n, edges, black):
    """Forcing fixpoint applied in parallel time steps: at each step every
    black node with exactly one white neighbour (judged against the black
    set at the step's start) forces it. Returns the final black set and
    the number of steps that forced something (the propagation time)."""
    adj = adjacency(n, edges)
    black = set(black)
    steps = 0
    while True:
        newly = set()
        for u in black:
            whites = [w for w in adj[u] if w not in black]
            if len(whites) == 1:
                newly.add(whites[0])
        if not newly:
            return black, steps
        black |= newly
        steps += 1


def round_chronicle(n, edges, black):
    """Forces and round sizes under the documented round rule, by rescans.

    Every round judges each black node against the black set at the
    round's start. Forcing nodes act in ascending order, so when two of
    them share their one white neighbour the smaller one forces it.
    Returns the list of (forcing, forced) pairs and the round sizes."""
    adj = adjacency(n, edges)
    black = set(black)
    forces, rounds = [], []
    while True:
        forced_by = {}
        for u in sorted(black):
            whites = [w for w in adj[u] if w not in black]
            if len(whites) == 1 and whites[0] not in forced_by:
                forced_by[whites[0]] = u
        if not forced_by:
            return forces, rounds
        forces += sorted((u, v) for v, u in forced_by.items())
        rounds.append(len(forced_by))
        black |= set(forced_by)


def is_zfs_naive(n, edges, black):
    return naive_derived(n, edges, black) == set(range(1, n + 1))


def exhaustive_min_zfs(n, edges):
    """Smallest zero forcing set by subset enumeration; among minimum
    sets, the lexicographically smallest member tuple."""
    if n == 0:
        return ()
    for k in range(1, n + 1):
        for cand in itertools.combinations(range(1, n + 1), k):
            if is_zfs_naive(n, edges, cand):
                return cand
    raise AssertionError("unreachable: V itself always forces")


def dfs_min_zfs(n, edges):
    """Lexicographically smallest minimum zero forcing set by iterative
    deepening on the set size, a depth-first search adding nodes in
    ascending order over bitmasks (bit v-1 is node v).

    The size starts at the minimum degree, since a first force needs that
    many black nodes, and a node already in the closure of the chosen
    ones is never added, since a minimum set cannot hold it. Each closure
    only rechecks the newly black nodes and their black neighbours.
    Works on disconnected graphs too; it is much faster than
    :func:`exhaustive_min_zfs` and reaches n = 25 in seconds.
    """
    if n == 0:
        return ()
    adj = [0] * (n + 1)
    for i, j in edges:
        adj[i] |= 1 << (j - 1)
        adj[j] |= 1 << (i - 1)
    full = (1 << n) - 1

    def add_and_close(black, v):
        black |= 1 << (v - 1)
        queue = [v]
        while queue:
            x = queue.pop()
            check = (adj[x] & black) | (1 << (x - 1))
            while check:
                low = check & -check
                check ^= low
                white = adj[low.bit_length()] & ~black
                if white and (white & (white - 1)) == 0:
                    black |= white
                    queue.append(white.bit_length())
        return black

    def dfs(chosen, black, budget):
        if budget == 0:
            return None
        for v in range(chosen[-1] + 1 if chosen else 1, n + 1):
            if (black >> (v - 1)) & 1:
                continue
            grown = add_and_close(black, v)
            chosen.append(v)
            if grown == full:
                return tuple(chosen)
            hit = dfs(chosen, grown, budget - 1)
            if hit is not None:
                return hit
            chosen.pop()
        return None

    lower = max(1, min(bin(row).count("1") for row in adj[1:]))
    for k in range(lower, n + 1):
        hit = dfs([], 0, k)
        if hit is not None:
            return hit
    raise AssertionError("unreachable: V itself always forces")


def wavefront_zf_number(n, edges):
    """Zero forcing number by the wavefront search (Brimkov, Fast and
    Hicks, EJOR 2019): Dijkstra over closed sets, from the empty set.

    From closed S, a node v with at least one white neighbour can be made
    to force: every node of its closed neighbourhood N[v] outside S but
    one white neighbour joins the initial set, at cost |N[v] - S| - 1,
    and the next state is the closure of S and N[v]. A v whose
    neighbours are all black cannot force, and letting it in for free
    would under-count. A white node with no white neighbour costs one.
    """
    adj = adjacency(n, edges)
    nodes = frozenset(range(1, n + 1))
    best = {frozenset(): 0}
    heap = [(0, 0, frozenset())]
    tie = itertools.count(1)
    while heap:
        cost, _, closed = heapq.heappop(heap)
        if closed == nodes:
            return cost
        if cost > best[closed]:
            continue
        for v in range(1, n + 1):
            white = (adj[v] | {v}) - closed
            if adj[v] - closed:
                step = len(white) - 1
            elif white:
                step = 1
            else:
                continue
            grown = frozenset(naive_derived(n, edges, closed | white))
            if cost + step < best.get(grown, n + 1):
                best[grown] = cost + step
                heapq.heappush(heap, (cost + step, next(tie), grown))
    raise AssertionError("unreachable: the whole node set is a state")


def bfs_ecc(n, edges, source):
    adj = adjacency(n, edges)
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def diameter(n, edges):
    best = 0
    for s in range(1, n + 1):
        dist = bfs_ecc(n, edges, s)
        best = max(best, max(dist.values()))
    return best


def relabelled_components(n, edges):
    """Connected components by graph search over the adjacency sets, each
    relabelled to 1..k in ascending node order. Returns, ordered by
    smallest member, pairs (members, edges) where members[v - 1] is the
    original id of local node v and edges are in local ids."""
    adj = adjacency(n, edges)
    seen, out = set(), []
    for start in range(1, n + 1):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for w in adj[stack.pop()] - comp:
                comp.add(w)
                stack.append(w)
        seen |= comp
        members = sorted(comp)
        local = {v: k for k, v in enumerate(members, start=1)}
        out.append((members, [(local[i], local[j]) for i, j in edges if i in comp]))
    return out


def markov_blocks_oracle(entries, v_in, v_out, order):
    """N X^k M via numpy matrix powers and explicit selections."""
    entries = np.asarray(entries, dtype=float)
    n = entries.shape[0]
    rows = [i - 1 for i in sorted(v_out)]
    cols = [j - 1 for j in sorted(v_in)]
    out = []
    for k in range(order + 1):
        power = np.linalg.matrix_power(entries, k)
        out.append(power[np.ix_(rows, cols)])
    return out


def single_channel_transfer(base_transfer, v_in, v_out, A, B, C, E, K, s):
    """Transfer matrix (N (x) C) (sI - I (x) A - X (x) EK)^-1 (M (x) B) of
    a lifted network with one coupling channel (E one column, K one row),
    from the base transfer matrix G(sigma) = N (sigma I - X)^-1 M at the
    one point sigma = 1/g, without forming the lift:

        T(s) = kron(NM, a) + kron(G(1/g)/g - NM, c/g),

    where Phi = (sI - A)^-1, g = K Phi E, a = C Phi B and c = C Phi E K Phi B.
    It follows from (Phi EK)^j = g^(j-1) Phi EK for j >= 1 in the series
    of (I - X (x) Phi EK)^-1. ``base_transfer`` maps sigma to G(sigma).
    """
    A, B, C, E, K = (np.asarray(mat, dtype=float) for mat in (A, B, C, E, K))
    assert E.shape[1] == K.shape[0] == 1, "one coupling channel"
    phi = np.linalg.solve(s * np.eye(A.shape[0]) - A, np.hstack([B, E]))
    phi_b, phi_e = phi[:, : B.shape[1]], phi[:, B.shape[1] :]
    g = (K @ phi_e)[0, 0]
    a = C @ phi_b
    c = C @ phi_e @ (K @ phi_b)
    nm = np.equal.outer(sorted(v_out), sorted(v_in)).astype(float)
    return np.kron(nm, a) + np.kron(base_transfer(1 / g) / g - nm, c / g)


def reference_identify(markov, g, target):
    """The previous ``reconstruct.identify``: one loop that gathers every
    round's operands and checks its squared weights before the next round.

    It calls ``certify`` and returns the library's result and error
    types. It includes the overflow fix: a squared weight that is not
    finite is reported as data beyond float64 range, not as vanishing.
    """
    from netident.errors import (
        DegenerateWeightError,
        InconsistentDataError,
        InputError,
        InsufficientOrderError,
        UncertifiedTargetError,
    )
    from netident.identifiability import certify
    from netident.reconstruct import (
        DEGENERACY_TOL,
        ForceStepRecord,
        ReconstructionResult,
    )

    beyond = "Markov data is beyond float64 range"
    with np.errstate(over="ignore", invalid="ignore"):
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
        missing_nodes = set(target.difference(w))
        prefix, pairs, start = [], chronicle.forces, 0
        for count in chronicle.rounds:
            forces, start = pairs[start:start + count], start + count
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
        nodes = list(w) + [v for forces in prefix for _, v in forces]
        pos = np.full(g.n + 1, -1)
        pos[nodes] = np.arange(len(nodes))
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
            raise InputError(f"{beyond}: the symmetrised overlap is not finite")
        powers[0, b:, b:] = np.eye(len(nodes) - b)

        records = []
        for rnd, forces in enumerate(prefix, start=1):
            k_max = needed - 2 * (rnd - 1)
            e = b + len(forces)
            ui = pos[[u for u, _ in forces]]
            p = np.where(pattern[ui, :b], powers[1, ui, :b], 0.0)
            power2 = powers[2, ui, ui]
            pp = p * p
            squared = power2 - pp.sum(axis=1)
            scale = np.maximum(np.abs(power2), pp.max(axis=1, initial=0.0))
            overflow = ~np.isfinite(squared)
            degenerate = np.abs(squared) <= DEGENERACY_TOL * scale
            bad = np.flatnonzero(overflow | degenerate | (squared < 0.0))
            if bad.size:
                a = bad[0]
                u, v = forces[a]
                if overflow[a]:
                    raise InputError(
                        f"{beyond}: squared weight of edge ({u},{v}) is not finite"
                    )
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
            tp = powers[1 : k_max - 1, :b, :b] @ p.T
            vb = (powers[2:k_max, ui, :b] - tp.transpose(0, 2, 1)) / d[:, None]
            m = vb @ p.T
            acc = powers[3 : k_max + 1, ui[:, None], ui] - p @ tp
            acc -= m.transpose(0, 2, 1) * d + d[:, None] * m
            vv = acc / (d[:, None] * d)
            ks = slice(1, k_max - 1)
            powers[ks, b:e, :b] = vb
            powers[ks, :b, b:e] = vb.transpose(0, 2, 1)
            powers[ks, b:e, b:e] = 0.5 * (vv + vv.transpose(0, 2, 1))
            weights = vb[0, np.arange(e - b), ui].tolist()
            records += [
                ForceStepRecord(len(records) + a, rnd, u, v, weight)
                for a, ((u, v), weight) in enumerate(zip(forces, weights), start=1)
            ]
            b = e
        if not np.isfinite(powers[1]).all():
            raise InputError(f"{beyond}: the recovered first power is not finite")

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
        recovered = np.where(mask, block, 0.0)
        table_scale = np.abs(recovered).max(initial=0.0)
        na, nb = np.nonzero(np.triu(~mask, 1))
        leaks = np.abs(block[na, nb])
        notes = [
            f"non-edge ({members[na[a]]},{members[nb[a]]}) carries weight "
            f"{leaks[a]:.3e} in the measured data; entry omitted from the result"
            for a in np.flatnonzero(leaks > 1e-6 * table_scale)
        ]
    return ReconstructionResult(
        nodes=target, recovered=recovered, diagnostics=tuple(records), notes=tuple(notes)
    )


def reference_replay(chronicle, g):
    """The previous ``ForcingChronicle.replay``: it splits the forces into
    rounds as pairs and checks each force by listing its forcing node's
    white neighbours. Returns the final black set as a NodeSet; raises
    the library's InputError at the first invalid force."""
    from netident.errors import InputError
    from netident.graph_core import NodeSet

    n = g.n
    nbrs = g.neighbour_rows
    black = [0] * (n + 1)
    for u in g.check_nodes(chronicle.initial):
        black[u] = 1
    step, start = 0, 0
    for r, count in enumerate(chronicle.rounds, start=1):
        forces, start = chronicle.forces[start:start + count], start + count
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
    return NodeSet(v for v in range(1, n + 1) if black[v])


# -- named graph families --------------------------------------------------


def path(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def cycle(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def complete(n):
    return Graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def grid(a):
    """a x a grid, nodes numbered row by row from 1."""
    edges = [(r * a + c + 1, r * a + c + 2) for r in range(a) for c in range(a - 1)]
    edges += [(r * a + c + 1, (r + 1) * a + c + 1) for r in range(a - 1) for c in range(a)]
    return Graph(a * a, edges)


def star(leaves):
    return Graph(leaves + 1, [(1, k) for k in range(2, leaves + 2)])


# -- random instance generators -------------------------------------------


def random_graph_edges(rng, n, p=0.4):
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < p:
                edges.append((i, j))
    return edges


def random_tree_edges(rng, n):
    edges = []
    for v in range(2, n + 1):
        u = int(rng.integers(1, v))
        edges.append((u, v))
    return edges


def random_connected_edges(rng, n, extra=0.25):
    """Random spanning tree plus a sprinkling of extra edges."""
    edges = set(random_tree_edges(rng, n))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in edges and rng.random() < extra:
                edges.add((i, j))
    return sorted(edges)


def random_symmetric_weights(rng, n, edges, lo=0.5, hi=2.0):
    """A random positively-weighted symmetric matrix on the given edges,
    built directly (no library involvement)."""
    x = np.zeros((n, n))
    for i, j in edges:
        w = rng.uniform(lo, hi)
        x[i - 1, j - 1] = x[j - 1, i - 1] = w
    x[np.diag_indices(n)] = rng.uniform(-hi, hi, size=n)
    return x
