import gc
import heapq
import json
import weakref
from itertools import pairwise, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netident import (
    ForcingChronicle,
    Graph,
    InputError,
    NodeSet,
    certify,
    derived_set,
    identify,
    is_zero_forcing_set,
    markov_sequence,
    minimum_zero_forcing_set,
    random_weights,
    required_order,
    zfs_heuristic,
)

from netident import zero_forcing
from netident.zero_forcing import _diametral_path, _eccentricities

from oracles import (
    adjacency,
    bfs_ecc,
    complete,
    cycle,
    dfs_min_zfs,
    diameter,
    exhaustive_min_zfs,
    grid,
    is_zfs_naive,
    naive_derived,
    parallel_colour_change,
    path,
    random_connected_edges,
    random_graph_edges,
    random_tree_edges,
    reference_replay,
    relabelled_components,
    round_chronicle,
    shuffled_derived,
    star,
    wavefront_zf_number,
)


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
        # Two-node seeds, and seeds beyond n/2 up to every node, many of
        # whose closures reach every node.
        rng = np.random.default_rng(5)
        forced_to_all = 0
        for _ in range(40):
            n = int(rng.integers(2, 10))
            edges = random_graph_edges(rng, n, p=0.5)
            g = Graph(n, edges)
            for size in (2, int(rng.integers(n // 2 + 1, n + 1)), n - 1, n):
                z = NodeSet(rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist())
                derived, chronicle = derived_set(g, z)
                assert chronicle.replay(g) == derived
                assert chronicle.derived == derived
                forced_to_all += len(derived) == n and len(chronicle) > 0
        assert forced_to_all > 40

    def test_replay_of_n_nodes_in_all_still_checks_every_force(self):
        # The seed and the forces number n, but a force is invalid: replay
        # raises rather than returning 1..n.
        g = path(4)
        initial_forced = ForcingChronicle(initial=NodeSet([1, 2]), forces=((2, 3), (1, 2)),
                                          rounds=(1, 1))
        with pytest.raises(InputError, match=r"step 2 \(round 2\): force \(1,2\): "
                                             r"white neighbours of 1 are \[\]"):
            initial_forced.replay(g)
        twice = ForcingChronicle(initial=NodeSet([1]), forces=((1, 2), (2, 3), (2, 3)),
                                 rounds=(1, 1, 1))
        with pytest.raises(InputError, match=r"step 3 \(round 3\): force \(2,3\): "
                                             r"white neighbours of 2 are \[\]"):
            twice.replay(g)

    def test_replay_rejects_bogus_force(self):
        bad = ForcingChronicle(initial=NodeSet([2]), forces=((2, 1),), rounds=(1,))
        with pytest.raises(InputError, match="step 1"):
            bad.replay(path(3))  # node 2 has two white neighbours

    def test_replay_rejects_dependent_forces_in_one_round(self):
        # (2,3) is valid only after (1,2) has coloured node 2.
        forces = ((1, 2), (2, 3))
        grouped = ForcingChronicle(initial=NodeSet([1]), forces=forces, rounds=(2,))
        with pytest.raises(InputError, match="forcing node 2 is not black"):
            grouped.replay(path(3))
        ForcingChronicle(initial=NodeSet([1]), forces=forces, rounds=(1, 1)).replay(path(3))

    def test_replay_rejects_non_black_forcer_and_non_neighbour(self):
        g = path(3)
        with pytest.raises(InputError, match="forcing node 3 is not black"):
            ForcingChronicle(initial=NodeSet([1]), forces=((3, 2),), rounds=(1,)).replay(g)
        with pytest.raises(InputError, match="step 2"):
            ForcingChronicle(initial=NodeSet([1]), forces=((1, 2), (1, 3)),
                             rounds=(1, 1)).replay(g)
        done = ForcingChronicle(initial=NodeSet([1]), forces=((1, 2), (2, 3)), rounds=(1, 1))
        assert done.replay(g) == g.nodes

    @pytest.mark.parametrize("force", [(1, 9), (7, 2)])
    def test_replay_rejects_a_node_outside_the_graph(self, force):
        bad = ForcingChronicle(initial=NodeSet([1]), forces=(force,), rounds=(1,))
        with pytest.raises(InputError) as err:
            bad.replay(path(3))
        assert str(err.value) == (f"chronicle invalid at step 1 (round 1): "
                                  f"force ({force[0]},{force[1]}): node outside 1..3")

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
        listed = ForcingChronicle(initial=NodeSet([1]), forces=forces, rounds=[1, 1])
        assert listed.rounds == (1, 1)
        assert listed == ForcingChronicle(initial=NodeSet([1]), forces=forces,
                                          rounds=(1, 1))
        with pytest.raises(InputError, match="round sizes"):
            ForcingChronicle(initial=NodeSet([1]), forces=forces)

    def test_json_roundtrip(self):
        _, chronicle = derived_set(path(4), NodeSet([1]))
        again = ForcingChronicle.from_json(chronicle.to_json())
        assert again == chronicle
        assert chronicle.to_json()["derived"] == [1, 2, 3, 4]
        assert chronicle.to_json()["rounds"] == [1, 1, 1]

    @pytest.mark.parametrize("g, seed", [(path(9), [1]), (grid(6), None), (star(4), [2, 3, 4])],
                             ids=["path", "grid", "star"])
    def test_a_chronicle_built_from_pairs_is_the_closures_chronicle(self, g, seed):
        seed = zfs_heuristic(g) if seed is None else NodeSet(seed)
        _, chronicle = derived_set(g, seed)
        built = ForcingChronicle(seed, chronicle.forces, chronicle.rounds)
        assert built == chronicle and hash(built) == hash(chronicle)
        assert json.dumps(built.to_json()) == json.dumps(chronicle.to_json())
        assert (built.forcing, built.forced) == (chronicle.forcing, chronicle.forced)

    def test_json_without_rounds_rejected(self):
        blob = {"initial": [1], "forces": [[1, 2], [2, 3]]}
        with pytest.raises(InputError, match="bad chronicle JSON.*rounds"):
            ForcingChronicle.from_json(blob)

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


def replay_outcome(replay, chronicle, g):
    """A replay's returned members, or its InputError message."""
    try:
        return "set", replay(chronicle, g).members
    except InputError as exc:
        return "error", str(exc)


MUTATIONS = ("swap", "drop", "duplicate", "retarget", "reforce", "merge", "split", "outside")


def mutate(draw, n, forces, rounds):
    """One edit of a chronicle's forces and round sizes, kept a partition."""
    kind = draw(st.sampled_from(MUTATIONS), label="mutation")
    ends = list(pairwise([0, *np.cumsum(rounds).tolist()]))
    if kind == "merge" and len(rounds) > 1:
        r = draw(st.integers(0, len(rounds) - 2), label="merged round")
        rounds[r:r + 2] = [rounds[r] + rounds[r + 1]]
    elif kind == "split" and max(rounds) > 1:
        r = draw(st.sampled_from([r for r, c in enumerate(rounds) if c > 1]), label="split round")
        cut = draw(st.integers(1, rounds[r] - 1), label="cut")
        rounds[r:r + 1] = [cut, rounds[r] - cut]
    elif kind in ("swap", "merge", "split"):
        i = draw(st.integers(0, len(forces) - 1), label="swapped force")
        j = draw(st.integers(0, len(forces) - 1), label="swapped with")
        forces[i], forces[j] = forces[j], forces[i]
    else:
        i = draw(st.integers(0, len(forces) - 1), label="force")
        r = next(r for r, (a, b) in enumerate(ends) if a <= i < b)
        u, v = forces[i]
        if kind == "drop":
            del forces[i]
            rounds[r] -= 1
        elif kind == "duplicate":
            forces.insert(i + 1, (u, v))
            if draw(st.booleans(), label="in its own round"):
                rounds.insert(r + 1, 1)
            else:
                rounds[r] += 1
        elif kind == "outside":
            bad = draw(st.sampled_from((0, -1, n + 1, n + 7)), label="outside node")
            forces[i] = (bad, v) if draw(st.booleans(), label="forcer") else (u, bad)
        else:
            other = draw(st.integers(1, n), label="new node")
            forces[i] = (u, other) if kind == "retarget" else (other, v)
    return forces, [c for c in rounds if c]


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(("path", "tree", "random")), n=st.integers(2, 24),
       seed=st.integers(0, 2**31 - 1), data=st.data())
def test_replay_matches_the_reference_on_mutated_chronicles(kind, n, seed, data):
    # Valid chronicles on paths, trees and random graphs, then up to three
    # edits: swapped, dropped, duplicated or retargeted forces (either end),
    # merged or split rounds, nodes outside 1..n. The one-scan accept path and the
    # list-building reference must return the same set or the same error.
    rng = np.random.default_rng(seed)
    if kind == "path":
        edges = [(i, i + 1) for i in range(1, n)]
    elif kind == "tree":
        edges = random_tree_edges(rng, n)
    else:
        edges = random_graph_edges(rng, n, p=0.3)
    g = Graph(n, edges)
    z = data.draw(st.sampled_from(("heuristic", "random")), label="seed")
    z = zfs_heuristic(g) if z == "heuristic" else NodeSet(
        rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n + 1)), replace=False).tolist())
    _, chronicle = derived_set(g, z)
    forces, rounds = list(chronicle.forces), list(chronicle.rounds)
    for _ in range(data.draw(st.integers(0 if forces else 1, 3), label="edits")):
        if forces:
            forces, rounds = mutate(data.draw, n, forces, rounds)
        else:  # nothing to edit: force from a random node
            forces, rounds = [(data.draw(st.integers(-1, n + 1)), 1)], [1]
    mutant = ForcingChronicle(z, forces, rounds)
    assert replay_outcome(ForcingChronicle.replay, mutant, g) == replay_outcome(
        reference_replay, mutant, g)


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
    # Seeds from empty to every node: derived_set counts white neighbours
    # from the seed up to n/2 nodes and from the white side beyond, and
    # both must give this exact chronicle, also with no white node.
    rng = np.random.default_rng(seed)
    edges = random_graph_edges(rng, n, p=p)
    size = data.draw(st.integers(0, n), label="seed size")
    z = rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist()
    _, chronicle = derived_set(Graph(n, edges), NodeSet(z))
    forces, rounds = round_chronicle(n, edges, z)
    assert list(chronicle.forces) == forces
    assert list(chronicle.rounds) == rounds


@pytest.mark.parametrize("n", [1, 2, 3, 4, 17, 200])
def test_path_chronicles_match_round_oracle(n):
    edges = [(i, i + 1) for i in range(1, n)]
    for z in ([1], [n], list(range(1, n)), list(range(2, n + 1)), list(range(1, n + 1))):
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


def caterpillar(leaves):
    """Spine 1..k, spine node i carrying ``leaves[i-1]`` leaves: (n, edges,
    a hand-off seed). The seed is a leaf of spine node 1, or that node if it
    has none, and each spine node after a leafless one, with its leaves."""
    k = len(leaves)
    edges, hung, nxt = [(i, i + 1) for i in range(1, k)], [], k + 1
    for i, count in enumerate(leaves, start=1):
        hung.append(list(range(nxt, nxt + count)))
        edges += [(i, leaf) for leaf in hung[-1]]
        nxt += count
    seed = hung[0][:1] or [1]
    for i in range(2, k + 1):
        if not leaves[i - 2]:
            seed += [i, *hung[i - 1]]
    return nxt - 1, edges, seed


def chain_cases():
    """Spiders, brooms and caterpillars with seeds whose chains meet a
    branch point, or hand over to a black neighbour of the node just forced."""
    for legs in ((3, 3, 3), (1, 4, 2), (5, 1, 1, 6), (2, 7, 3, 3, 1)):
        n, edges, ends = spider(legs)
        seeds = [[e] for e in ends] + [ends, ends[1:], ends[:-1], [1] + ends[2:]]
        # One leg's end plus the hub's neighbour on another leg: the chain
        # up the first leg makes the hub and that neighbour candidates at once.
        seeds += [[ends[0], j] for i, j in edges if i == 1 and j != edges[0][1]]
        # The hub and every leg end but one: the last chain to reach the hub
        # leaves it one white neighbour, and the hub takes the chain over.
        seeds += [[1] + ends[:-1], [1] + ends[1:]]
        yield f"spider{legs}", n, edges, seeds
    for handle, bristles in ((4, 3), (6, 1), (3, 8), (9, 5)):
        n, edges, tips = broom(handle, bristles)
        leaves = tips[1:]
        seeds = [[1], leaves, leaves[:-1], [1] + leaves[:-1], [1] + leaves[1:],
                 [leaves[0]], [handle] + leaves[:-1]]
        # A black centre: the chain up the handle ends at its neighbour,
        # and the centre forces the one white bristle.
        seeds += [[1, handle] + leaves[:-1]]
        yield f"broom{handle, bristles}", n, edges, seeds
    # Leaves on every other spine node: each black island of a spine node
    # and its leaves has two white spine neighbours until the chain comes.
    for leaves in ((1, 0, 2, 0, 1, 0, 3, 1), (1, 0, 3, 0, 1, 0, 2, 2), (1, 0) * 6 + (1, 1)):
        n, edges, seed = caterpillar(leaves)
        yield f"caterpillar{leaves}", n, edges, [seed]


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


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(("tree", "caterpillar", "sparse", "path")),
       n=st.integers(1, 80), seed=st.integers(0, 2**31 - 1), data=st.data())
def test_chain_walk_matches_round_oracle(kind, n, seed, data):
    # Long chains that end at branch points: one-node seeds on trees,
    # caterpillars and sparse graphs, path-cover seeds on trees, and paths
    # seeded at either end, in the middle, or at a middle pair whose two
    # chains run side by side until the shorter one ends. Relabelling puts
    # a chain's next node above and below its other candidates.
    rng = np.random.default_rng(seed)
    if kind == "tree":
        edges = random_tree_edges(rng, n)
    elif kind == "caterpillar":
        edges = caterpillar_edges(rng, n)
    elif kind == "sparse":
        edges = sparse_connected_edges(rng, n, n // 8)
    else:
        edges = [(i, i + 1) for i in range(1, n)]
    perm = [0] + rng.permutation(np.arange(1, n + 1)).tolist()
    if kind != "path":
        edges = [(perm[i], perm[j]) for i, j in edges]
    g = Graph(n, edges)
    seeds = [[data.draw(st.integers(1, n), label="one-node seed")]]
    if kind in ("tree", "caterpillar"):
        seeds.append(list(zfs_heuristic(g)))
    if kind == "path":
        mid = (n + 1) // 2
        seeds += [[1], [n], [mid], [mid, min(mid + 1, n)]]
    else:
        # The one node plus islands, nodes taken with their leaves: a chain
        # that empties a node next to an island can hand over to it.
        rows = g.neighbour_rows
        islands = data.draw(st.lists(st.integers(1, n), max_size=n // 6 + 1), label="islands")
        seeds.append(seeds[0] + [w for b in islands for w in (b, *rows[b]) if w == b
                                 or len(rows[w]) == 1])
    for z in seeds:
        derived, chronicle = derived_set(g, NodeSet(z))
        forces, rounds = round_chronicle(n, edges, z)
        assert list(chronicle.forces) == forces, z
        assert list(chronicle.rounds) == rounds, z
        assert set(derived) == naive_derived(n, edges, z), z


class TestClosureIsAFunctionOfGraphAndSeed:
    """derived_set closes the seed on every call and keeps nothing."""

    def test_certify_and_the_caller_get_equal_closures(self):
        g = grid(6)
        seed = zfs_heuristic(g)
        report = certify(g, seed, seed)
        derived, chronicle = derived_set(g, seed)
        assert report.chronicle.forcing == chronicle.forcing
        assert report.chronicle.forced == chronicle.forced
        assert report.chronicle.rounds == chronicle.rounds
        assert report.certified_nodes == derived
        assert chronicle.initial is seed and len(chronicle.forces) > 0

    def test_each_call_closes_the_seed_again(self):
        g = grid(6)
        seed = zfs_heuristic(g)
        _, first = derived_set(g, seed)
        for again_seed in (seed, NodeSet(seed.members)):
            derived, again = derived_set(g, again_seed)
            assert again.forcing is not first.forcing and again.forced is not first.forced
            assert again.forces == first.forces and again.rounds == first.rounds
            assert derived == g.nodes and again.initial is again_seed

    def test_a_seed_moved_to_another_graph_gets_that_graphs_closure(self):
        g1 = path(6)
        g2 = Graph(6, [(1, 3), (3, 2), (2, 5), (5, 4), (4, 6)])
        seed = NodeSet([1])
        for g in (g1, g2, g1):
            derived, chronicle = derived_set(g, seed)
            forces, rounds = round_chronicle(6, g.edges, [1])
            assert list(chronicle.forces) == forces
            assert list(chronicle.rounds) == rounds
            assert set(derived) == naive_derived(6, g.edges, [1])
        assert derived_set(g2, seed)[1].forces[0] == (1, 3)

    def test_equal_graph_objects_give_equal_results(self):
        seed = NodeSet([1, 2, 3])
        g, twin = grid(5), grid(5)
        derived, chronicle = derived_set(g, seed)
        derived2, chronicle2 = derived_set(twin, seed)
        assert derived2 == derived and chronicle2.forcing is not chronicle.forcing
        assert (chronicle2.forces, chronicle2.rounds) == (chronicle.forces, chronicle.rounds)

    def test_closing_a_seed_leaves_no_state_on_it(self):
        assert NodeSet.__slots__ == ("members",)
        g = grid(4)
        closed, fresh = NodeSet([1, 2, 3, 4]), NodeSet([1, 2, 3, 4])
        derived_set(g, closed)
        assert closed == fresh and hash(closed) == hash(fresh)
        assert closed.to_json() == fresh.to_json() == [1, 2, 3, 4]
        assert repr(closed) == repr(fresh)

    def test_a_closed_seed_does_not_keep_its_graph_alive(self):
        g = path(1000)
        seed = NodeSet([1])
        derived, chronicle = derived_set(g, seed)
        certify(g, seed, seed)
        graph = weakref.ref(g)
        del g
        gc.collect()
        assert graph() is None
        assert chronicle.initial is seed and len(derived) == 1000

    def test_closures_leave_no_cyclic_garbage(self):
        # A closure, a certificate or a replay that made a reference cycle
        # would leave garbage for the collector.
        g = grid(5)

        def run():
            seed = zfs_heuristic(g)
            derived_set(g, seed)
            report = certify(g, seed, seed)
            x = random_weights(g, seed=3)
            markov = markov_sequence(x, seed, seed, required_order(report.chronicle))
            identify(markov, g, g.nodes)
            derived_set(g, NodeSet([1, 2, 3, 4, 5]))

        run()  # warm up any lazy state, such as the graph's edge index
        gc.collect()
        gc.disable()
        try:
            run()
            assert gc.collect() == 0
        finally:
            gc.enable()


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
            whites = [w for w in g.neighbour_rows[u] if w not in blk]
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


def tie_heavy_graphs():
    """Graphs with many minimum zero forcing sets, as pytest params of (n, edges)."""
    out = [pytest.param(a + b, [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)],
                        id=f"K{a},{b}") for a in range(2, 6) for b in range(a, 6)]
    out += [pytest.param(1 << d, [(v + 1, (v | 1 << k) + 1) for v in range(1 << d)
                                  for k in range(d) if not v >> k & 1], id=f"Q{d}") for d in (3, 4)]
    petersen = [(k + 1, (k + 1) % 5 + 1) for k in range(5)] + [(k + 1, k + 6) for k in range(5)]
    petersen += [(k + 6, (k + 2) % 5 + 6) for k in range(5)]  # inner pentagram
    out.append(pytest.param(10, petersen, id="petersen"))
    out += [pytest.param(k + 1, [(1, v) for v in range(2, k + 2)]  # hub 1 and a k-cycle
                         + [(v + 1, v % k + 2) for v in range(1, k + 1)], id=f"W{k}")
            for k in range(5, 10)]
    out += [pytest.param(2 * k, [(c, c + 1) for c in range(1, k)]
                         + [(c + k, c + k + 1) for c in range(1, k)]
                         + [(c, c + k) for c in range(1, k + 1)], id=f"ladder{k}")
            for k in range(2, 9)]
    out += [pytest.param(n, [(i, i % n + 1) for i in range(1, n + 1)] + [(1, j)], id=f"C{n}+1-{j}")
            for n in (5, 7, 10) for j in range(3, n // 2 + 2)]
    return out


class TestExactSearch:
    """The wavefront search against the depth-first reference."""

    def test_random_connected_graphs_match_the_dfs_reference(self):
        rng = np.random.default_rng(59)
        for _ in range(320):
            n = int(rng.integers(2, 21))
            edges = random_connected_edges(rng, n, float(rng.uniform(0.0, 0.2)))
            assert minimum_zero_forcing_set(Graph(n, edges)).members == dfs_min_zfs(n, edges)

    @pytest.mark.parametrize(
        "g",
        [*(path(n) for n in (1, 2, 7, 25)), *(cycle(n) for n in (3, 8, 25)),
         *(complete(n) for n in (2, 5, 9)), *(star(k) for k in (2, 6, 12)),
         *(grid(a) for a in (2, 3, 4, 5))],
        ids=repr,
    )
    def test_structured_families_match_the_dfs_reference(self, g):
        assert minimum_zero_forcing_set(g).members == dfs_min_zfs(g.n, g.edges)

    def test_random_trees_match_the_dfs_reference(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            n = int(rng.integers(2, 19))
            edges = random_tree_edges(rng, n)
            assert minimum_zero_forcing_set(Graph(n, edges)).members == dfs_min_zfs(n, edges)

    def test_disconnected_unions_match_the_dfs_reference(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            sizes = [int(k) for k in rng.integers(1, 7, size=int(rng.integers(2, 4)))]
            g = disjoint_union([(k, random_connected_edges(rng, k, 0.3)) for k in sizes])
            assert minimum_zero_forcing_set(g).members == dfs_min_zfs(g.n, g.edges)
        g = Graph(12, random_graph_edges(rng, 12, p=0.15))  # isolated nodes too
        assert minimum_zero_forcing_set(g).members == dfs_min_zfs(g.n, g.edges)

    @pytest.mark.parametrize("a", [6, 7, 8])
    def test_grids_beyond_the_references_take_their_first_row(self, a):
        assert minimum_zero_forcing_set(grid(a), node_budget=a * a) == NodeSet(range(1, a + 1))

    def test_pinned_graphs_beyond_the_references(self):
        # Sets pinned from a level-synchronous exact search, beyond the reference tests' sizes.
        edges = random_connected_edges(np.random.default_rng(3), 36, 0.03)
        assert len(edges) == 52
        assert minimum_zero_forcing_set(Graph(36, edges), node_budget=36) == NodeSet(
            [2, 3, 4, 8, 15, 22, 26])
        edges = random_graph_edges(np.random.default_rng(1), 25, p=0.5)
        assert len(edges) == 153
        assert minimum_zero_forcing_set(Graph(25, edges)) == NodeSet(
            [1, 4, 6, 7, 8, 9, 11, 12, 13, 14, 16, 17, 20, 21, 24])

    @pytest.mark.parametrize("n, edges", tie_heavy_graphs())
    def test_tie_heavy_families_match_the_dfs_reference(self, n, edges):
        assert minimum_zero_forcing_set(Graph(n, edges)).members == dfs_min_zfs(n, edges)

    def test_graphs_shaped_like_the_benchmark_match_the_dfs_reference(self):
        # A random tree plus 3n/4 chords: average degree 3.5, many equal-cost seeds.
        rng = np.random.default_rng(89)
        for _ in range(40):
            n = int(rng.integers(8, 19))
            edges = sparse_connected_edges(rng, n, 3 * n // 4)
            assert minimum_zero_forcing_set(Graph(n, edges)).members == dfs_min_zfs(n, edges)


class TestWavefrontOracle:
    def test_oracle_matches_exhaustive_search(self):
        rng = np.random.default_rng(79)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            edges = random_graph_edges(rng, n, p=float(rng.uniform(0.1, 0.7)))
            assert wavefront_zf_number(n, edges) == len(exhaustive_min_zfs(n, edges))

    def test_zero_forcing_number_of_random_graphs(self):
        rng = np.random.default_rng(83)
        for _ in range(60):
            n = int(rng.integers(2, 21))
            edges = random_connected_edges(rng, n, float(rng.uniform(0.0, 0.3)))
            assert len(minimum_zero_forcing_set(Graph(n, edges))) == wavefront_zf_number(n, edges)

    @pytest.mark.parametrize("a", [2, 3, 4, 5])
    def test_zero_forcing_number_of_grids(self, a):
        g = grid(a)
        assert len(minimum_zero_forcing_set(g)) == wavefront_zf_number(g.n, g.edges) == a


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


def assert_bfs_matches_tree_oracle(g):
    adj = adjacency(g.n, g.edges)
    for s in range(1, g.n + 1):
        dist, _, reached, far = zero_forcing._bfs(g, s)
        want, _ = _bfs_tree(adj, s)
        farthest = max(want.values())
        assert reached == len(want), (g, s)
        assert far == min(v for v, d in want.items() if d == farthest), (g, s)
        assert far == dist.index(max(dist)), (g, s)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 60), connected=st.booleans(), seed=st.integers(0, 2**31 - 1))
@example(n=1, connected=True, seed=0)  # path(1)
def test_bfs_count_and_farthest_node_match_bfs_oracle(n, connected, seed):
    # Every source of the graph; a disconnected graph's sources reach
    # their own component only.
    rng = np.random.default_rng(seed)
    edges = (random_connected_edges(rng, n, float(rng.uniform(0.0, 0.3))) if connected
             else random_graph_edges(rng, n, float(rng.choice((0.02, 0.05, 0.1)))))
    assert_bfs_matches_tree_oracle(Graph(n, edges))


class TestSeedSearch:
    @pytest.mark.parametrize("g", [path(1), path(2), path(64), path(130), cycle(3),
                                   cycle(64), cycle(65), grid(2), grid(7), grid(12),
                                   complete(9), grid(22),
                                   *(Graph(n, sparse_connected_edges(np.random.default_rng(n),
                                                                     n, n // 2))
                                     for n in (500, 512))],
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

    def test_diametral_candidate_is_every_node_off_the_path(self):
        # The candidate is built as the gaps between the sorted path nodes:
        # a path through node n, or through consecutive ids, leaves empty gaps.
        rng = np.random.default_rng(67)
        graphs = [cycle(10), complete(9), grid(6)]
        while len(graphs) < 63:
            n = int(rng.integers(3, 41))
            edges = random_connected_edges(rng, n, float(rng.uniform(0.02, 0.4)))
            if len(edges) > n - 1:
                graphs.append(Graph(n, edges))
        ends = runs = 0
        for g in graphs:
            cuts = _diametral_path(g)[1:]
            off_path = sorted(set(range(1, g.n + 1)) - set(cuts))
            got = zero_forcing._heuristic_connected(g)
            assert got == NodeSet(off_path) and is_zero_forcing_set(g, got), g
            ends += g.n in cuts
            runs += any(b - a == 1 for a, b in pairwise(sorted(cuts)))
        assert ends and runs

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
            [(members, copy_edges)] = relabelled_components(n, g.edges)
            copy = Graph(len(members), copy_edges)
            via_copy = NodeSet(members[v - 1]
                               for v in zero_forcing._heuristic_connected(copy))
            assert zfs_heuristic(g) == via_copy
            if n <= 12:
                local = zero_forcing._min_zfs_connected_mask(copy)
                assert minimum_zero_forcing_set(g) == NodeSet(members[v - 1]
                                                              for v in local)
        seen = []
        real = zero_forcing._heuristic_connected
        monkeypatch.setattr(zero_forcing, "_heuristic_connected",
                            lambda h, *d1: seen.append(h) or real(h, *d1))
        g = grid(5)
        zfs_heuristic(g)
        assert len(seen) == 1 and seen[0] is g

    def test_components_are_relabelled_in_ascending_order(self):
        g = Graph(6, [(4, 5), (2, 5), (1, 6)])
        seen = []
        got = zero_forcing._per_component(g, lambda h: seen.append(h) or [h.n])
        assert seen == [Graph(2, [(1, 2)]), Graph(3, [(1, 3), (2, 3)]), Graph(1)]
        assert got == NodeSet([3, 5, 6])  # the last local node of each component

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
            for members, sub_edges in relabelled_components(g.n, g.edges):
                sub = Graph(len(members), sub_edges)
                expect_heur += [members[v - 1] for v in zfs_heuristic(sub)]
                expect_min += [members[v - 1] for v in minimum_zero_forcing_set(sub)]
            assert len(g.components()) == 3
            assert zfs_heuristic(g) == NodeSet(expect_heur)
            assert minimum_zero_forcing_set(g) == NodeSet(expect_min)
            assert is_zero_forcing_set(g, zfs_heuristic(g))


def per_component_heuristic(g):
    """zfs_heuristic through components and relabelled copies, whatever g is."""
    chosen = []
    for members, sub_edges in relabelled_components(g.n, g.edges):
        sub = Graph(len(members), sub_edges)
        chosen += [members[v - 1] for v in zero_forcing._heuristic_connected(sub)]
    return NodeSet(chosen)


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
    return pruefer_decode(n, rng.integers(1, n + 1, size=n - 2).tolist())


def pruefer_decode(n, seq):
    """The labelled tree on ``n >= 2`` nodes whose Pruefer sequence is ``seq``."""
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
    """The n - diam candidate, summed over the components of g."""
    size = 0
    for members, sub_edges in relabelled_components(g.n, g.edges):
        sub = Graph(len(members), sub_edges)
        off_path = set(range(1, sub.n + 1)) - set(_diametral_path(sub)[1:])
        size += len(off_path)
    return size


class TestOneCandidatePerTree:
    def test_tree_costs_one_bfs_no_closure_and_no_diametral_path(self, monkeypatch):
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
                assert sources == [1] and closures == [], (make.__name__, n)
                assert is_zero_forcing_set(g, got), (make.__name__, n)
        # A forest pays its own BFS from node 1, then one per component.
        g = random_forest(rng, (700, 40, 1, 300))
        sources.clear()
        closures.clear()
        zfs_heuristic(g)
        assert sources == [1] * 5 and closures == []

    def test_every_small_tree_and_large_sparse_graph_forces_unclosed(self):
        # Every labelled tree on 2..7 nodes, one per Pruefer sequence,
        # checked by the descending-scan oracle, not by derived_set.
        count = 0
        for n in range(2, 8):
            for seq in product(range(1, n + 1), repeat=n - 2):
                edges = pruefer_decode(n, seq)
                assert is_zfs_naive(n, edges, zfs_heuristic(Graph(n, edges))), (n, seq)
                count += 1
        assert count == sum(n ** (n - 2) for n in range(2, 8)) == 18248
        # Past 512 nodes the diametral candidate comes from the double sweep.
        rng = np.random.default_rng(101)
        for n in (513, 1000):
            edges = sparse_connected_edges(rng, n, n // 2)
            off_path = set(range(1, n + 1)) - set(double_sweep_path(n, edges)[1:])
            got = zero_forcing._heuristic_connected(Graph(n, edges))
            assert got == NodeSet(off_path) and is_zfs_naive(n, edges, got), n

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
