import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netident import (
    ForcingChronicle,
    Graph,
    InputError,
    NodeSet,
    derived_set,
    is_zero_forcing_set,
    minimum_zero_forcing_set,
    zfs_heuristic,
)

from netident import zero_forcing
from netident.zero_forcing import _diametral_path, _eccentricities, _repair_to_zfs

from oracles import (
    adjacency,
    bfs_ecc,
    diameter,
    exhaustive_min_zfs,
    is_zfs_naive,
    naive_derived,
    parallel_colour_change,
    random_connected_edges,
    random_graph_edges,
    random_tree_edges,
    round_chronicle,
    shuffled_derived,
)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def cycle(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def complete(n):
    return Graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def star(leaves):
    return Graph(leaves + 1, [(1, k) for k in range(2, leaves + 2)])


class TestDerivedSet:
    def test_path_endpoint_forces_everything(self):
        derived, chronicle = derived_set(path(4), NodeSet([1]))
        assert derived == NodeSet([1, 2, 3, 4])
        assert chronicle.forces == ((1, 2), (2, 3), (3, 4))

    def test_triangle_single_black_is_stuck(self):
        derived, chronicle = derived_set(complete(3), NodeSet([1]))
        assert derived == NodeSet([1])
        assert chronicle.forces == ()

    def test_path_middle_is_stuck(self):
        # Two white neighbours on both sides: the rule never applies.
        derived, _ = derived_set(path(3), NodeSet([2]))
        assert derived == NodeSet([2])

    def test_empty_seed(self):
        derived, _ = derived_set(path(3), NodeSet())
        assert derived == NodeSet()

    def test_deterministic_smallest_forcer_first(self):
        # Both endpoints can force against the initial black set, so both
        # forces share the first round, in ascending forcing node.
        _, chronicle = derived_set(path(4), NodeSet([1, 4]))
        assert chronicle.forces == ((1, 2), (4, 3))
        assert chronicle.rounds == (2,)

    def test_shared_target_goes_to_smaller_forcer(self):
        # Leaves 2 and 3 of the star both see only the white centre 1.
        _, chronicle = derived_set(star(2), NodeSet([2, 3]))
        assert chronicle.forces == ((2, 1),)
        assert chronicle.rounds == (1,)


class TestIsZeroForcingSet:
    def test_path_cases(self):
        assert not is_zero_forcing_set(path(3), NodeSet([2]))
        assert is_zero_forcing_set(path(3), NodeSet([1]))

    def test_complete_graph_cases(self):
        k4 = complete(4)
        assert is_zfs_naive(4, k4.edges, {1, 2, 3})  # oracle agrees
        assert not is_zfs_naive(4, k4.edges, {1, 2})
        assert is_zero_forcing_set(k4, NodeSet([1, 2, 3]))
        assert not is_zero_forcing_set(k4, NodeSet([1, 2]))

    def test_against_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            n = int(rng.integers(1, 8))
            edges = random_graph_edges(rng, n)
            g = Graph(n, edges)
            size = int(rng.integers(1, max(2, n // 2 + 1)))
            z = set(rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist())
            derived, _ = derived_set(g, NodeSet(z))
            assert set(derived) == naive_derived(n, edges, z)


class TestChronicle:
    def test_replay_reproduces_derived(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            edges = random_graph_edges(rng, n, p=0.5)
            g = Graph(n, edges)
            z = NodeSet(rng.choice(np.arange(1, n + 1), size=2, replace=False).tolist())
            derived, chronicle = derived_set(g, z)
            assert chronicle.replay(g) == derived
            assert chronicle.derived == derived

    def test_replay_rejects_bogus_force(self):
        bad = ForcingChronicle(initial=NodeSet([2]), forces=((2, 1),))
        with pytest.raises(InputError, match="step 1"):
            bad.replay(path(3))  # node 2 has two white neighbours

    def test_replay_rejects_dependent_forces_in_one_round(self):
        # (2,3) is valid only after (1,2) has coloured node 2.
        forces = ((1, 2), (2, 3))
        grouped = ForcingChronicle(initial=NodeSet([1]), forces=forces, rounds=(2,))
        with pytest.raises(InputError, match="forcing node 2 is not black"):
            grouped.replay(path(3))
        ForcingChronicle(initial=NodeSet([1]), forces=forces).replay(path(3))

    def test_replay_rejects_non_black_forcer_and_non_neighbour(self):
        g = path(3)
        with pytest.raises(InputError, match="forcing node 3 is not black"):
            ForcingChronicle(initial=NodeSet([1]), forces=((3, 2),)).replay(g)
        with pytest.raises(InputError, match="step 2"):
            ForcingChronicle(initial=NodeSet([1]), forces=((1, 2), (1, 3))).replay(g)
        done = ForcingChronicle(initial=NodeSet([1]), forces=((1, 2), (2, 3)))
        assert done.replay(g) == g.nodes

    def test_replay_rejects_node_forced_twice_in_a_round(self):
        g = star(2)  # centre 1, leaves 2 and 3
        twice = ForcingChronicle(initial=NodeSet([2, 3]), forces=((2, 1), (3, 1)),
                                 rounds=(2,))
        with pytest.raises(InputError, match="forced twice"):
            twice.replay(g)

    def test_rounds_must_partition_the_forces(self):
        forces = ((1, 2), (2, 3))
        for rounds in ((0, 2), (1,), (1, 1, 1), (3, -1)):
            with pytest.raises(InputError, match="round sizes"):
                ForcingChronicle(initial=NodeSet([1]), forces=forces, rounds=rounds)
        blank = ForcingChronicle(initial=NodeSet([1]), forces=forces)
        assert blank.rounds == (1, 1)
        assert blank == ForcingChronicle(initial=NodeSet([1]), forces=forces,
                                         rounds=(1, 1))

    def test_json_roundtrip(self):
        _, chronicle = derived_set(path(4), NodeSet([1]))
        again = ForcingChronicle.from_json(chronicle.to_json())
        assert again == chronicle
        assert chronicle.to_json()["derived"] == [1, 2, 3, 4]
        assert chronicle.to_json()["rounds"] == [1, 1, 1]

    def test_json_without_rounds_means_one_force_per_round(self):
        blob = {"initial": [1], "forces": [[1, 2], [2, 3]]}
        assert ForcingChronicle.from_json(blob).rounds == (1, 1)

    @pytest.mark.parametrize("blob", [
        {"initial": [1], "forces": [[1.5, 2.9]]},
        {"initial": [1], "forces": [[1, 2.5]]},
        {"initial": [1], "forces": [["1", 2]]},
        {"initial": [1], "forces": [[1, 2]], "rounds": [1.5]},
        {"initial": [1], "forces": [[1, 2]], "rounds": ["1"]},
    ], ids=["forces-fraction", "forced-fraction", "forcer-string", "round-fraction",
            "round-string"])
    def test_json_non_integral_values_rejected(self, blob):
        with pytest.raises(InputError, match="must be an integer"):
            ForcingChronicle.from_json(blob)

    @pytest.mark.parametrize("blob", [
        {"initial": [1], "forces": [[True, 2]]},
        {"initial": [1], "forces": [[1, 2]], "rounds": [True]},
    ], ids=["forcer-true", "round-true"])
    def test_json_booleans_rejected(self, blob):
        with pytest.raises(InputError, match="must be an integer"):
            ForcingChronicle.from_json(blob)

    def test_json_integral_floats_load(self):
        blob = {"initial": [1.0], "forces": [[1.0, 2.0], [2.0, 3.0]], "rounds": [1.0, 1.0]}
        chronicle = ForcingChronicle.from_json(blob)
        assert chronicle.forces == ((1, 2), (2, 3)) and chronicle.rounds == (1, 1)
        assert all(type(u) is int for f in chronicle.forces for u in f)
        assert chronicle.replay(path(3)) == NodeSet([1, 2, 3])

    def test_json_malformed_rounds(self):
        base = {"initial": [1], "forces": [[1, 2], [2, 3]]}
        for rounds in ([2, 1], [0, 2], ["x"], 3, [[1], [1]]):
            with pytest.raises(InputError):
                ForcingChronicle.from_json({**base, "rounds": rounds})


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 10), seed=st.integers(0, 2**31 - 1))
def test_rounds_match_parallel_oracle(n, seed):
    rng = np.random.default_rng(seed)
    edges = random_graph_edges(rng, n, p=0.4)
    g = Graph(n, edges)
    z = set(rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n + 1)),
                       replace=False).tolist())
    derived, chronicle = derived_set(g, NodeSet(z))
    final, time_steps = parallel_colour_change(n, edges, z)
    assert set(derived) == final
    assert len(chronicle.rounds) == time_steps
    assert chronicle.replay(g) == derived


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 14), p=st.sampled_from((0.1, 0.25, 0.5)),
       seed=st.integers(0, 2**31 - 1), data=st.data())
def test_chronicle_matches_round_oracle(n, p, seed, data):
    # Seeds from empty to all but one node: derived_set counts white
    # neighbours from the seed up to n/2 nodes and from the white side
    # beyond, and both must give this exact chronicle.
    rng = np.random.default_rng(seed)
    edges = random_graph_edges(rng, n, p=p)
    size = data.draw(st.integers(0, max(0, n - 1)), label="seed size")
    z = rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist()
    _, chronicle = derived_set(Graph(n, edges), NodeSet(z))
    forces, rounds = round_chronicle(n, edges, z)
    assert list(chronicle.forces) == forces
    assert list(chronicle.rounds) == rounds


@pytest.mark.parametrize("n", [1, 2, 3, 4, 17, 200])
def test_path_chronicles_match_round_oracle(n):
    edges = [(i, i + 1) for i in range(1, n)]
    for z in ([1], [n], list(range(1, n)), list(range(2, n + 1))):
        _, chronicle = derived_set(path(n), NodeSet(z))
        forces, rounds = round_chronicle(n, edges, z)
        assert list(chronicle.forces) == forces
        assert list(chronicle.rounds) == rounds


def spider(legs):
    """Paths of the given lengths joined at hub 1: (n, edges, leg ends)."""
    edges, ends, nxt = [], [], 2
    for length in legs:
        prev = 1
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
        ends.append(prev)
    return nxt - 1, edges, ends


def broom(handle, bristles):
    """Path 1..handle ending in the centre of a star: (n, edges, path end and leaves)."""
    edges = [(i, i + 1) for i in range(1, handle)]
    edges += [(handle, handle + k) for k in range(1, bristles + 1)]
    return handle + bristles, edges, [1] + list(range(handle + 1, handle + bristles + 1))


def chain_cases():
    """Spiders and brooms with seeds whose chains meet a branch point."""
    for legs in ((3, 3, 3), (1, 4, 2), (5, 1, 1, 6), (2, 7, 3, 3, 1)):
        n, edges, ends = spider(legs)
        seeds = [[e] for e in ends] + [ends, ends[1:], ends[:-1], [1] + ends[2:]]
        # One leg's end plus the hub's neighbour on another leg: the chain
        # up the first leg makes the hub and that neighbour candidates at once.
        seeds += [[ends[0], j] for i, j in edges if i == 1 and j != edges[0][1]]
        yield f"spider{legs}", n, edges, seeds
    for handle, bristles in ((4, 3), (6, 1), (3, 8), (9, 5)):
        n, edges, tips = broom(handle, bristles)
        leaves = tips[1:]
        seeds = [[1], leaves, leaves[:-1], [1] + leaves[:-1], [1] + leaves[1:],
                 [leaves[0]], [handle] + leaves[:-1]]
        yield f"broom{handle, bristles}", n, edges, seeds


@pytest.mark.parametrize("name, n, edges, seeds", list(chain_cases()),
                         ids=[case[0] for case in chain_cases()])
def test_chains_through_branch_points_match_round_oracle(name, n, edges, seeds):
    # Random relabellings put a chain's next node above and below its
    # other candidates, so one-candidate and multi-candidate rounds hand
    # over in both id orders.
    rng = np.random.default_rng(len(edges))
    for trial in range(6):
        perm = [0] + (list(range(1, n + 1)) if trial == 0
                      else rng.permutation(np.arange(1, n + 1)).tolist())
        relabelled = [(perm[i], perm[j]) for i, j in edges]
        g = Graph(n, relabelled)
        for z in seeds:
            z = [perm[v] for v in z]
            derived, chronicle = derived_set(g, NodeSet(z))
            forces, rounds = round_chronicle(n, relabelled, z)
            assert list(chronicle.forces) == forces, (name, z)
            assert list(chronicle.rounds) == rounds, (name, z)
            assert set(derived) == naive_derived(n, relabelled, z)


def test_long_path_chain_from_either_end():
    n = 10_000
    g = path(n)
    derived, chronicle = derived_set(g, NodeSet([1]))
    assert chronicle.forces == tuple((i, i + 1) for i in range(1, n))
    assert chronicle.rounds == (1,) * (n - 1)
    assert derived == g.nodes
    derived, chronicle = derived_set(g, NodeSet([n]))
    assert chronicle.forces == tuple((i + 1, i) for i in range(n - 1, 0, -1))
    assert chronicle.rounds == (1,) * (n - 1)
    assert derived == g.nodes


def assert_well_formed(ns, n):
    members = ns.members
    assert type(members) is tuple
    assert all(type(m) is int and 1 <= m <= n for m in members)
    assert all(a < b for a, b in zip(members, members[1:]))
    assert ns == NodeSet(list(ns))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), p=st.sampled_from((0.1, 0.3, 0.5)),
       seed=st.integers(0, 2**31 - 1))
def test_returned_node_sets_are_well_formed(n, p, seed):
    rng = np.random.default_rng(seed)
    g = Graph(n, random_graph_edges(rng, n, p=p))
    z = NodeSet(rng.choice(np.arange(1, n + 1), size=int(rng.integers(0, n + 1)),
                           replace=False).tolist())
    other = rng.integers(-2, n + 3, size=int(rng.integers(0, n + 1))).tolist()
    derived, chronicle = derived_set(g, z)
    results = [derived, chronicle.replay(g), zfs_heuristic(g),
               minimum_zero_forcing_set(g), z.intersection(other), z.difference(other),
               *g.components()]
    for ns in results:
        assert_well_formed(ns, n)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 9), seed=st.integers(0, 2**31 - 1))
def test_order_independence(n, seed):
    rng = np.random.default_rng(seed)
    edges = random_graph_edges(rng, n, p=0.45)
    z = set(rng.choice(np.arange(1, n + 1), size=max(1, n // 3), replace=False).tolist())
    reference, _ = derived_set(Graph(n, edges), NodeSet(z))
    for _ in range(10):
        assert shuffled_derived(n, edges, z, rng) == set(reference)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 9), seed=st.integers(0, 2**31 - 1))
def test_monotonicity(n, seed):
    rng = np.random.default_rng(seed)
    g = Graph(n, random_graph_edges(rng, n, p=0.45))
    small = set(rng.choice(np.arange(1, n + 1), size=max(1, n // 3), replace=False).tolist())
    grown = small | {int(rng.integers(1, n + 1))}
    d_small, _ = derived_set(g, NodeSet(small))
    d_grown, _ = derived_set(g, NodeSet(grown))
    assert d_small.issubset(d_grown)


def test_fixpoint_soundness():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(1, 12))
        g = Graph(n, random_graph_edges(rng, n, p=0.4))
        z = NodeSet(rng.choice(np.arange(1, n + 1), size=max(1, n // 2), replace=False).tolist())
        derived, _ = derived_set(g, z)
        blk = set(derived)
        for u in blk:
            whites = [w for w in g.neighbour_ids(u) if w not in blk]
            assert len(whites) != 1


class TestMinimumZfs:
    def test_path_is_one_endpoint(self):
        assert minimum_zero_forcing_set(path(5)) == NodeSet([1])

    def test_cycle_needs_adjacent_pair(self):
        assert minimum_zero_forcing_set(cycle(5)) == NodeSet([1, 2])

    def test_complete_needs_all_but_one(self):
        assert len(minimum_zero_forcing_set(complete(4))) == 3

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            edges = random_graph_edges(rng, n, p=0.4)
            got = minimum_zero_forcing_set(Graph(n, edges))
            assert got.members == exhaustive_min_zfs(n, edges)

    def test_structured_families_vs_oracle(self):
        for n in range(2, 8):
            for g in (path(n), cycle(max(n, 3)), complete(n)):
                got = minimum_zero_forcing_set(g)
                assert got.members == exhaustive_min_zfs(g.n, g.edges)

    def test_minimality_no_smaller_subset(self):
        rng = np.random.default_rng(17)
        from itertools import combinations

        for _ in range(12):
            n = int(rng.integers(4, 13))
            edges = random_graph_edges(rng, n, p=0.35)
            g = Graph(n, edges)
            best = minimum_zero_forcing_set(g)
            assert is_zero_forcing_set(g, best)
            k = len(best)
            if k > 1:
                for cand in combinations(range(1, n + 1), k - 1):
                    assert not is_zfs_naive(n, edges, cand)

    def test_budget_refusal_points_to_heuristic(self):
        g = path(26)
        with pytest.raises(InputError, match="zfs_heuristic"):
            minimum_zero_forcing_set(g)
        assert minimum_zero_forcing_set(g, node_budget=26) == NodeSet([1])

    def test_disconnected_union(self):
        g = Graph(6, [(1, 2), (2, 3), (4, 5), (5, 6), (6, 4)])  # P3 + C3
        assert minimum_zero_forcing_set(g) == NodeSet([1, 4, 5])


class TestHeuristic:
    def test_path(self):
        assert zfs_heuristic(path(5)) == NodeSet([1])

    def test_star_path_cover_branch(self):
        got = zfs_heuristic(star(3))
        assert len(got) == 2
        assert is_zero_forcing_set(star(3), got)
        # exhaustive search confirms 2 is the minimum
        assert len(exhaustive_min_zfs(4, star(3).edges)) == 2

    def test_cycle_respects_diameter_bound(self):
        got = zfs_heuristic(cycle(6))
        assert is_zero_forcing_set(cycle(6), got)
        assert len(got) <= 6 - 3

    def test_always_valid_and_bounded(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            n = int(rng.integers(2, 24))
            edges = random_graph_edges(rng, n, p=0.3)
            g = Graph(n, edges)
            got = zfs_heuristic(g)
            assert is_zero_forcing_set(g, got)
            if len(g.components()) == 1:
                assert len(got) <= n - diameter(n, edges)

    def test_trees_hit_path_cover_minimum(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 11))
            edges = random_tree_edges(rng, n)
            g = Graph(n, edges)
            got = zfs_heuristic(g)
            assert is_zero_forcing_set(g, got)
            assert len(got) == len(exhaustive_min_zfs(n, edges))

    def test_disconnected_processed_per_component(self):
        g = Graph(7, [(1, 2), (2, 3), (5, 6), (6, 7), (7, 5)])
        got = zfs_heuristic(g)
        assert is_zero_forcing_set(g, got)
        assert 4 in got  # isolated node must seed itself

    def test_many_component_matching(self):
        rng = np.random.default_rng(71)
        k = 5000
        perm = [0] + rng.permutation(np.arange(1, 2 * k + 1)).tolist()
        edges = [(perm[2 * i + 1], perm[2 * i + 2]) for i in range(k)]
        g = Graph(2 * k, edges)
        got = zfs_heuristic(g)
        assert got == NodeSet(min(e) for e in edges)  # one seed per edge, its smaller end
        assert is_zero_forcing_set(g, got)

    def test_spiders_with_mixed_legs_need_one_less_than_their_legs(self):
        # A spider's minimum path cover joins two legs through the hub, so
        # its zero forcing number is k - 1: sizes past exhaustive search.
        rng = np.random.default_rng(73)
        for k in range(3, 41):
            legs = [1, 2] + rng.integers(1, 170, size=k - 2).tolist()
            n, edges, _ = spider(legs)
            perm = [0] + rng.permutation(np.arange(1, n + 1)).tolist()
            g = Graph(n, [(perm[i], perm[j]) for i, j in edges])
            got = zfs_heuristic(g)
            assert len(got) == k - 1, (k, legs)
            assert is_zero_forcing_set(g, got)


# -- seed search: eccentricity sweep and diametral path ---------------------


def grid(a):
    edges = [(r * a + c + 1, r * a + c + 2) for r in range(a) for c in range(a - 1)]
    edges += [(r * a + c + 1, (r + 1) * a + c + 1) for r in range(a - 1) for c in range(a)]
    return Graph(a * a, edges)


def _bfs_tree(adj, source):
    """Distances and parents; frontier in discovery order, neighbours ascending."""
    dist, parent, frontier = {source: 0}, {}, [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w in sorted(adj[u]):
                if w not in dist:
                    dist[w], parent[w] = dist[u] + 1, u
                    nxt.append(w)
        frontier = nxt
    return dist, parent


def _path_to(parent, s, t):
    path = [t]
    while path[-1] != s:
        path.append(parent[path[-1]])
    return path[::-1]


def per_source_diametral_path(n, edges):
    """One BFS per source; the smallest source, then sink, of maximum distance."""
    adj = adjacency(n, edges)
    best = None
    for s in range(1, n + 1):
        dist, parent = _bfs_tree(adj, s)
        far = max(dist.values())
        t = min(v for v, d in dist.items() if d == far)
        if best is None or far > best[0]:
            best = (far, s, t, parent)
    _, s, t, parent = best
    return _path_to(parent, s, t)


def double_sweep_path(n, edges):
    """Farthest node from node 1, then the farthest node from that one."""
    adj = adjacency(n, edges)
    dist, _ = _bfs_tree(adj, 1)
    s = min(v for v, d in dist.items() if d == max(dist.values()))
    dist, parent = _bfs_tree(adj, s)
    t = min(v for v, d in dist.items() if d == max(dist.values()))
    return _path_to(parent, s, t)


def sparse_connected_edges(rng, n, chords):
    edges = set(random_tree_edges(rng, n))
    while len(edges) < n - 1 + chords:
        i, j = (int(v) for v in rng.integers(1, n + 1, size=2))
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return sorted(edges)


def assert_eccentricities(g):
    ecc = _eccentricities(g)
    assert ecc[0] == 0 and len(ecc) == g.n + 1
    for v in range(1, g.n + 1):
        assert ecc[v] == max(bfs_ecc(g.n, g.edges, v).values())


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), extra=st.floats(0.0, 0.5), seed=st.integers(0, 2**31 - 1))
def test_eccentricities_match_bfs_oracle(n, extra, seed):
    rng = np.random.default_rng(seed)
    assert_eccentricities(Graph(n, random_connected_edges(rng, n, extra)))


class TestSeedSearch:
    @pytest.mark.parametrize("g", [path(1), path(2), path(64), path(130), cycle(3),
                                   cycle(64), cycle(65), grid(2), grid(7), grid(12),
                                   complete(9)],
                             ids=repr)
    def test_eccentricities_structured(self, g):
        assert_eccentricities(g)

    def test_eccentricities_refuse_disconnected_graph(self):
        with pytest.raises(InputError, match="connected"):
            _eccentricities(Graph(4, [(1, 2), (3, 4)]))

    def test_diametral_path_matches_per_source_bfs(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(1, 40))
            edges = random_connected_edges(rng, n, float(rng.uniform(0.0, 0.4)))
            assert _diametral_path(Graph(n, edges)) == per_source_diametral_path(n, edges)
        for g in (path(9), cycle(10), grid(6), star(5)):
            assert _diametral_path(g) == per_source_diametral_path(g.n, g.edges)

    def test_diametral_path_at_the_exact_cutoff(self):
        rng = np.random.default_rng(43)
        edges = sparse_connected_edges(rng, 512, 170)
        assert _diametral_path(Graph(512, edges)) == per_source_diametral_path(512, edges)
        assert _diametral_path(path(512)) == list(range(1, 513))
        edges = sparse_connected_edges(rng, 513, 171)
        assert _diametral_path(Graph(513, edges)) == double_sweep_path(513, edges)
        assert _diametral_path(path(513)) == list(range(513, 0, -1))

    def test_connected_graph_is_solved_without_a_copy(self, monkeypatch):
        rng = np.random.default_rng(47)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            g = Graph(n, random_connected_edges(rng, n, 0.2))
            copy = g.induced_subgraph(g.nodes)
            via_copy = NodeSet(copy.to_parent[v]
                               for v in zero_forcing._heuristic_connected(copy.graph))
            assert zfs_heuristic(g) == via_copy
            if n <= 12:
                local = zero_forcing._min_zfs_connected_mask(copy.graph)
                assert minimum_zero_forcing_set(g) == NodeSet(copy.to_parent[v]
                                                              for v in local)
        seen = []
        real = zero_forcing._heuristic_connected
        monkeypatch.setattr(zero_forcing, "_heuristic_connected",
                            lambda h, *d1: seen.append(h) or real(h, *d1))
        g = grid(5)
        zfs_heuristic(g)
        assert len(seen) == 1 and seen[0] is g

    def test_disconnected_graph_is_solved_per_component(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            sizes = [int(k) for k in rng.integers(1, 9, size=3)]
            edges, offset = [], 0
            for k in sizes:
                edges += [(i + offset, j + offset) for i, j in random_connected_edges(rng, k)]
                offset += k
            g = Graph(offset, edges)
            expect_heur, expect_min = [], []
            for comp in g.components():
                sub = g.induced_subgraph(comp)
                expect_heur += [sub.to_parent[v] for v in zfs_heuristic(sub.graph)]
                expect_min += [sub.to_parent[v] for v in minimum_zero_forcing_set(sub.graph)]
            assert len(g.components()) == 3
            assert zfs_heuristic(g) == NodeSet(expect_heur)
            assert minimum_zero_forcing_set(g) == NodeSet(expect_min)
            assert is_zero_forcing_set(g, zfs_heuristic(g))


def per_component_heuristic(g):
    """zfs_heuristic through components and relabelled copies, whatever g is."""
    members = []
    for comp in g.components():
        sub = g.induced_subgraph(comp)
        members += [sub.to_parent[v] for v in zero_forcing._heuristic_connected(sub.graph)]
    return NodeSet(members)


def disjoint_union(parts):
    """Side-by-side (n, edges) parts, the first part holding node 1."""
    edges, offset = [], 0
    for n, part in parts:
        edges += [(i + offset, j + offset) for i, j in part]
        offset += n
    return Graph(offset, edges)


class TestConnectivityFromTheFirstSweep:
    def test_small_and_node_one_cases(self):
        cases = [Graph(0), Graph(1), Graph(2), path(2), Graph(6, [(i, i + 1) for i in range(2, 6)]),
                 disjoint_union([(3, [(1, 2), (2, 3)]), (9, grid(3).edges)]),
                 disjoint_union([(9, grid(3).edges), (3, [(1, 2), (2, 3)])]),
                 disjoint_union([(9, grid(3).edges), (1, []), (4, cycle(4).edges)])]
        for g in cases:
            assert zfs_heuristic(g) == per_component_heuristic(g), g

    @pytest.mark.parametrize("sizes", [(500, 12), (12, 500), (500, 13), (13, 500),
                                       (1, 511), (1000, 500), (500, 1000), (1, 1499)])
    def test_disconnected_on_both_sides_of_the_cutoff(self, sizes):
        rng = np.random.default_rng(sum(sizes) + sizes[0])
        g = disjoint_union([(k, sparse_connected_edges(rng, k, k // 3)) for k in sizes])
        assert len(g.components()) == 2
        got = zfs_heuristic(g)
        assert got == per_component_heuristic(g)
        assert is_zero_forcing_set(g, got)

    def test_random_graphs_match_the_per_component_reference(self):
        rng = np.random.default_rng(59)
        for _ in range(500):
            n = int(rng.integers(1, 30))
            g = Graph(n, random_graph_edges(rng, n, float(rng.choice((0.03, 0.08, 0.15, 0.3)))))
            assert zfs_heuristic(g) == per_component_heuristic(g)

    def test_connected_graph_costs_two_bfs_and_no_components(self, monkeypatch):
        rng = np.random.default_rng(61)
        sources = []
        real = zero_forcing._bfs
        monkeypatch.setattr(zero_forcing, "_bfs",
                            lambda g, s: sources.append(s) or real(g, s))
        monkeypatch.setattr(Graph, "components",
                            lambda g: pytest.fail("components of a connected graph"))
        for n in (300, 600):
            sources.clear()
            zfs_heuristic(Graph(n, sparse_connected_edges(rng, n, n // 2)))
            assert len(sources) == 2 and sources[0] == 1


# -- one seed candidate per tree -------------------------------------------


def pruefer_tree_edges(rng, n):
    """The tree of a uniform random Pruefer sequence."""
    if n < 2:
        return []
    seq = rng.integers(1, n + 1, size=n - 2).tolist()
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def caterpillar_edges(rng, n):
    """A spine 1..k with every other node hung on a random spine node."""
    k = int(rng.integers(1, n + 1))
    legs = [(int(rng.integers(1, k + 1)), v) for v in range(k + 1, n + 1)]
    return [(i, i + 1) for i in range(1, k)] + legs


TREE_MAKERS = (random_tree_edges, pruefer_tree_edges, caterpillar_edges)


def relabelled(rng, n, edges):
    perm = [0] + rng.permutation(np.arange(1, n + 1)).tolist()
    return Graph(n, [(perm[i], perm[j]) for i, j in edges])


def random_forest(rng, sizes):
    """A relabelled forest with one tree of each size, of mixed shapes."""
    parts = [(k, TREE_MAKERS[i % 3](rng, k)) for i, k in enumerate(sizes)]
    g = disjoint_union(parts)
    return relabelled(rng, g.n, g.edges)


def diametral_candidate(g):
    """The n - diam candidate, repaired, summed over the components of g."""
    size = 0
    for comp in g.components():
        sub = g.induced_subgraph(comp).graph
        off_path = set(range(1, sub.n + 1)) - set(_diametral_path(sub)[1:])
        size += len(_repair_to_zfs(sub, off_path))
    return size


class TestOneCandidatePerTree:
    def test_tree_costs_one_bfs_one_closure_and_no_diametral_path(self, monkeypatch):
        rng = np.random.default_rng(83)
        sources, closures = [], []
        real_bfs, real_derived = zero_forcing._bfs, zero_forcing.derived_set
        monkeypatch.setattr(zero_forcing, "_bfs",
                            lambda g, s: sources.append(s) or real_bfs(g, s))
        monkeypatch.setattr(zero_forcing, "derived_set",
                            lambda g, z: closures.append(z) or real_derived(g, z))
        for name in ("_diametral_path", "_eccentricities"):
            monkeypatch.setattr(zero_forcing, name,
                                lambda *a, name=name: pytest.fail(f"{name} on a tree"))
        for n in (2, 3, 200, 511, 512, 513, 900, 1500):
            for make in TREE_MAKERS:
                g = relabelled(rng, n, make(rng, n))
                sources.clear()
                closures.clear()
                got = zfs_heuristic(g)
                assert sources == [1] and closures == [got], (make.__name__, n)
        # A forest pays its own BFS from node 1, then one per component.
        g = random_forest(rng, (700, 40, 1, 300))
        sources.clear()
        closures.clear()
        zfs_heuristic(g)
        assert sources == [1] * 5 and len(closures) == 4

    def test_seed_is_no_larger_than_the_diametral_candidate(self):
        rng = np.random.default_rng(89)
        graphs = [relabelled(rng, n, TREE_MAKERS[i % 3](rng, n))
                  for i, n in enumerate(rng.integers(2, 1500, size=24).tolist())]
        graphs += [random_forest(rng, rng.integers(1, 400, size=k).tolist())
                   for k in (2, 3, 5, 8)]
        graphs += [path(1500), star(600), random_forest(rng, [1] * 9)]
        for g in graphs:
            got = zfs_heuristic(g)
            assert len(got) <= diametral_candidate(g), g
            assert is_zero_forcing_set(g, got)
