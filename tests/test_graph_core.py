import os
import resource
import subprocess
import sys
import warnings
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netident import (
    ForcingChronicle,
    Graph,
    InputError,
    MarkovSequence,
    NodeSet,
    WeightMatrix,
    derived_set,
    graph_from_json,
    nodeset_from_json,
    random_weights,
    selection_matrix,
    zfs_heuristic,
)
from netident.netsim import check_pattern

from oracles import (
    adjacency,
    complete,
    path,
    random_connected_edges,
    random_graph_edges,
    reference_graph,
)


Pair = namedtuple("Pair", "i j")
FORMS = {
    "tuples": lambda edges: edges,
    "generator": lambda edges: (e for e in edges),
    "lists": lambda edges: [list(e) for e in edges],
    "namedtuples": lambda edges: [Pair(*e) for e in edges],
    "int64": lambda edges: [(np.int64(i), np.int64(j)) for i, j in edges],
}


class TestNodeSet:
    def test_sorted_and_deduplicated(self):
        assert NodeSet([3, 1, 2, 1]).members == (1, 2, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            NodeSet([0, 1])

    def test_set_algebra(self):
        a = NodeSet([1, 2, 4])
        b = NodeSet([2, 3])
        assert a.union(b).members == (1, 2, 3, 4)
        assert a.intersection(b).members == (2,)
        assert a.difference(b).members == (1, 4)
        assert NodeSet([2]).issubset(a)
        assert not a.issubset(b)

    def test_node_ids_must_be_integral(self):
        assert NodeSet([2.0, np.int64(3)]) == NodeSet([2, 3])
        for bad in (1.5, "3", "a", None, [1], float("nan"), float("inf")):
            with pytest.raises(InputError, match="must be an integer"):
                NodeSet([bad])

    def test_membership_matches_linear_scan(self):
        members = [2, 3, 5, 8, 13, 21]
        s = NodeSet(members)
        for node in range(0, 25):
            assert (node in s) == (node in members)
        assert "5" not in s and None not in s
        assert 1 not in NodeSet()

    def test_json_roundtrip(self):
        assert nodeset_from_json([4, 1]) == NodeSet([1, 4])


class TestGraph:
    def test_neighbours_path(self):
        g = path(3)
        assert g.neighbour_rows == ((), (2,), (1, 3), (2,))

    def test_neighbours_complete(self):
        assert complete(4).neighbour_rows[3] == (1, 2, 4)

    def test_out_of_range_node(self):
        with pytest.raises(InputError, match="outside 1..3"):
            path(3).check_nodes([4])
        with pytest.raises(InputError, match="1-based"):
            path(3).check_nodes([0])

    @pytest.mark.parametrize("bad", [1.5, "2", True])
    def test_node_queries_refuse_non_integral_ids(self, bad):
        with pytest.raises(InputError, match="node id"):
            path(3).check_nodes([bad])

    @pytest.mark.parametrize("two", [2.0, np.int64(2), np.int32(2)])
    def test_node_queries_accept_integral_values(self, two):
        assert path(3).check_nodes([two, 3]) == NodeSet([2, 3])

    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Graph(2, [(1, 1)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(InputError):
            Graph(2, [(1, 3)])

    def test_non_integral_count_or_endpoint(self):
        for n in ("abc", 2.5, None):
            with pytest.raises(InputError, match="node count"):
                Graph(n)
        for edge in ((1.5, 2), ("1", 2), (1, None)):
            with pytest.raises(InputError, match="edge endpoint"):
                Graph(3, [edge])
        assert Graph(3.0, [(np.int64(1), 2.0)]) == Graph(3, [(1, 2)])

    def test_duplicate_edges_collapse(self):
        g = Graph(2, [(1, 2), (2, 1), (1, 2)])
        assert g.edges == ((1, 2),)

    def test_components(self):
        g = Graph(5, [(1, 2), (4, 5)])
        assert [c.members for c in g.components()] == [(1, 2), (3,), (4, 5)]
        assert path(4).components() == [path(4).nodes]
        assert Graph(0).components() == []

    @pytest.mark.parametrize("edges, message", [
        ([(1, 2), (4, 1), (2, 2)], r"^edge \(4,1\) has an endpoint outside 1\.\.3$"),
        ([(2, 1), (2, 2), (1, 4)], r"^self-loop \(2,2\) not allowed in a simple graph$"),
    ], ids=["out-of-range-first", "self-loop-first"])
    def test_the_first_invalid_pair_in_input_order_is_reported(self, edges, message):
        for form in (tuple, list, lambda e: tuple(map(np.int64, e))):
            with pytest.raises(InputError, match=message):
                Graph(3, map(form, edges))

    def test_ascending_int_tuples_are_kept_not_copied(self):
        first, second, third = (2, 3), (1, 2), (1, 3)
        g = Graph(3, [first, second, third, tuple([1, 2]), (3, 1), [2, 3]])
        assert g.edges == ((1, 2), (1, 3), (2, 3))
        assert g.edges[0] is second and g.edges[1] is third and g.edges[2] is first
        for copied in ((3, 1), [1, 3], Pair(1, 3), (np.int64(1), 3), (1.0, 3)):
            assert type(Graph(3, [copied]).edges[0]) is tuple
            assert Graph(3, [copied]).edges[0] is not copied

    @pytest.mark.parametrize("n", [10**18, 10**19])
    def test_a_node_count_that_cannot_be_held_is_an_input_error(self, n):
        # A child process under a 2 GB address-space cap and a timeout: a
        # build that allocated its rows one at a time would take all memory.
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", f"from netident import Graph; Graph({n})"],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.endswith(f"InputError: node count n is too large: {n}\n")


@settings(max_examples=150)
@given(n=st.integers(min_value=0, max_value=14), data=st.data(),
       form=st.sampled_from(sorted(FORMS)),
       layout=st.sampled_from(["sorted", "shuffled", "reversed", "both-orientations"]))
def test_build_matches_the_sorted_set_reference(n, data, form, layout):
    pairs = st.tuples(st.integers(1, max(n, 1)), st.integers(1, max(n, 1)))
    drawn = [e for e in data.draw(st.lists(pairs, max_size=40)) if n and e[0] != e[1]]
    edges = sorted({(min(e), max(e)) for e in drawn})
    if layout == "shuffled":  # the draw's own orientations and repeats, reordered
        edges = data.draw(st.permutations(drawn))
    elif layout == "reversed":
        edges = edges[::-1]
    elif layout == "both-orientations":
        edges = edges + [(j, i) for i, j in edges] + edges
    g = Graph(n, FORMS[form](edges))
    assert (g.edges, g.neighbour_rows) == reference_graph(n, edges)
    assert all(type(e) is tuple and type(e[0]) is type(e[1]) is int for e in g.edges)


class TestSelectionMatrix:
    def test_single_column(self):
        np.testing.assert_array_equal(
            selection_matrix(3, NodeSet([2])), np.array([[0.0], [1.0], [0.0]])
        )

    def test_two_columns(self):
        p = selection_matrix(3, NodeSet([1, 3]))
        np.testing.assert_array_equal(p[:, 0], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(p[:, 1], [0.0, 0.0, 1.0])

    def test_full_selection_identity(self):
        np.testing.assert_array_equal(selection_matrix(2, NodeSet([1, 2])), np.eye(2))

    def test_out_of_range(self):
        with pytest.raises(InputError):
            selection_matrix(2, NodeSet([3]))

    @given(
        n=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    def test_orthonormal_columns(self, n, data):
        members = data.draw(
            st.lists(st.integers(min_value=1, max_value=n), max_size=n)
        )
        p = selection_matrix(n, NodeSet(members))
        np.testing.assert_array_equal(p.T @ p, np.eye(len(NodeSet(members))))


@settings(max_examples=60)
@given(n=st.integers(min_value=1, max_value=12), seed=st.integers(0, 2**32 - 1))
def test_neighbour_symmetry_random_graphs(n, seed):
    rng = np.random.default_rng(seed)
    g = Graph(n, random_graph_edges(rng, n))
    for i in range(1, n + 1):
        for j in g.neighbour_rows[i]:
            assert i in g.neighbour_rows[j]


@settings(max_examples=60)
@given(n=st.integers(min_value=0, max_value=14), data=st.data())
def test_neighbour_rows_strictly_ascending(n, data):
    pairs = st.tuples(st.integers(1, max(n, 1)), st.integers(1, max(n, 1)))
    edges = [e for e in data.draw(st.lists(pairs, max_size=40)) if n and e[0] != e[1]]
    g = Graph(n, edges)
    adj = adjacency(n, edges)
    assert len(g.neighbour_rows) == n + 1 and g.neighbour_rows[0] == ()
    for v in range(1, n + 1):
        row = g.neighbour_rows[v]
        assert all(a < b for a, b in zip(row, row[1:]))
        assert list(row) == sorted(adj[v])


@settings(max_examples=60)
@given(n=st.integers(min_value=0, max_value=14), data=st.data())
def test_edge_index_is_the_edge_list_less_one_and_read_only(n, data):
    pairs = st.tuples(st.integers(1, max(n, 1)), st.integers(1, max(n, 1)))
    edges = [e for e in data.draw(st.lists(pairs, max_size=40)) if n and e[0] != e[1]]
    g = Graph(n, edges)
    ends = g.edge_index
    assert ends.shape == (len(g.edges), 2) and ends.dtype == np.intp
    assert [tuple(e) for e in (ends + 1).tolist()] == list(g.edges)
    assert not ends.flags.writeable
    with pytest.raises(ValueError):
        ends[...] = 0
    assert g.edge_index is ends
    assert g.nodes == NodeSet(range(1, n + 1))


class TestGraphJson:
    def test_roundtrip(self):
        g = Graph(3, [(1, 2), (2, 3)])
        assert graph_from_json({"n": g.n, "edges": g.edges}) == g

    def test_strips_self_loops_with_warning(self):
        with pytest.warns(UserWarning, match="self-loop"):
            g = graph_from_json({"n": 3, "edges": [[1, 1], [1, 2]]})
        assert g.edges == ((1, 2),)

    @pytest.mark.parametrize("loop", [[4, 4], [0, 0], [-1, -1]])
    def test_refuses_a_self_loop_outside_the_graph(self, loop):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any strip warning
            with pytest.raises(InputError, match=rf"edge \({loop[0]},{loop[0]}\) has an "
                                                 r"endpoint outside 1\.\.3"):
                graph_from_json({"n": 3, "edges": [[1, 2], loop]})

    def test_validates_the_ids_of_a_stripped_loop(self):
        with pytest.raises(InputError, match="edge endpoint"):
            graph_from_json({"n": 3, "edges": [[1, True]]})
        with pytest.raises(InputError, match="edge endpoint"):
            graph_from_json({"n": 3, "edges": [["a", "a"]]})
        with pytest.warns(UserWarning, match="stripped 2 self-loop"):
            g = graph_from_json({"n": 3, "edges": [[2.0, 2.0], [3, 3.0], [3, 2.0]]})
        assert g == Graph(3, [(2, 3)])

    @pytest.mark.parametrize("edges, message", [
        ([[5, 5], [1, "a"]], r"^edge \(5,5\) has an endpoint outside 1\.\.3$"),
        ([[1, 2], [3, 3], [4, 1], [2, 2]], r"^edge \(4,1\) has an endpoint outside 1\.\.3$"),
        ([[2, 1], [1, 1], [1, "a"], [0, 0]], r"^edge endpoint must be an integer, got 'a'$"),
        ([[1, 2, 3], [5, 5]], r"^edge \[1, 2, 3\] is not a pair of nodes$"),
    ], ids=["loop-out-of-range-first", "out-of-range-after-a-loop", "bad-endpoint-first",
            "non-pair-first"])
    def test_the_first_invalid_pair_in_input_order_is_reported(self, edges, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any strip warning
            with pytest.raises(InputError, match=message):
                graph_from_json({"n": 3, "edges": edges})

    @pytest.mark.parametrize("entry", [[1, 2, 3], [1], [], 7, None],
                             ids=["triple", "single", "empty", "number", "null"])
    def test_a_non_pair_entry_gets_the_graph_wording(self, entry):
        message = f"edge {entry!r} is not a pair of nodes"
        for build in (lambda: graph_from_json({"n": 3, "edges": [[1, 2], entry]}),
                      lambda: Graph(3, [(1, 2), entry])):
            with pytest.raises(InputError) as err:
                build()
            assert str(err.value) == message

    def test_malformed(self):
        with pytest.raises(InputError):
            graph_from_json({"edges": []})
        with pytest.raises(InputError):
            graph_from_json({"n": 2, "edges": [[1]]})
        for blob in ({"n": "abc", "edges": []}, {"n": 3, "edges": 5},
                     {"n": 3, "edges": [[1, 2, 3]]}, {"n": 3, "edges": [[1.5, 2]]},
                     {"n": 3, "edges": [["a", 2]]}):
            with pytest.raises(InputError):
                graph_from_json(blob)


@pytest.mark.parametrize("flag", [True, False, np.bool_(True)], ids=repr)
def test_booleans_are_not_integers(flag):
    with pytest.raises(InputError, match="node id must be an integer"):
        NodeSet([flag])
    with pytest.raises(InputError, match="node count"):
        Graph(flag)
    with pytest.raises(InputError, match="edge endpoint"):
        Graph(3, [(flag, 2)])
    with pytest.raises(InputError, match="node count"):
        graph_from_json({"n": flag, "edges": []})
    with pytest.raises(InputError, match="edge endpoint"):
        graph_from_json({"n": 3, "edges": [[flag, 2]]})
    with pytest.raises(InputError, match="node id"):
        nodeset_from_json([flag])


@pytest.mark.parametrize("python, blob, message", [
    (lambda: Graph(-1), lambda: graph_from_json({"n": -1, "edges": []}),
     "node count must be non-negative, got -1"),
    (lambda: Graph(3, [(1, 4)]), lambda: graph_from_json({"n": 3, "edges": [[1, 4]]}),
     "edge (1,4) has an endpoint outside 1..3"),
    (lambda: Graph(3, [(1, 1.5)]), lambda: graph_from_json({"n": 3, "edges": [[1, 1.5]]}),
     "edge endpoint must be an integer, got 1.5"),
    (lambda: NodeSet([0]), lambda: nodeset_from_json([0]),
     "node identifiers are 1-based, got 0"),
    (lambda: NodeSet(["2"]), lambda: nodeset_from_json(["2"]),
     "node id must be an integer, got '2'"),
    (lambda: ForcingChronicle(NodeSet([1]), ((1, 2),), (2,)),
     lambda: ForcingChronicle.from_json({"initial": [1], "forces": [[1, 2]], "rounds": [2]}),
     "round sizes [2] must be positive and sum to the 1 force(s)"),
    (lambda: MarkovSequence(NodeSet([1]), NodeSet([1]), [[[float("nan")]]]),
     lambda: MarkovSequence.from_json({"v_in": [1], "v_out": [1], "K": 0,
                                       "data": [[[float("nan")]]]}),
     "Markov block 0 entry (1,1) is not finite: nan"),
], ids=["node-count", "endpoint-range", "endpoint-type", "node-base", "node-type",
        "round-sizes", "markov-finite"])
def test_python_and_json_entry_points_give_one_message(python, blob, message):
    for build in (python, blob):
        with pytest.raises(InputError) as err:
            build()
        assert str(err.value) == message


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 14), connected=st.booleans(), p=st.sampled_from((0.1, 0.3, 0.6)),
       seed=st.integers(0, 2**31 - 1), data=st.data())
def test_values_built_unchecked_equal_the_checked_constructors(n, connected, p, seed, data):
    # Library-built values skip their constructors; each must equal what
    # the checking constructor makes of the same fields.
    rng = np.random.default_rng(seed)
    edges = random_connected_edges(rng, n) if connected else random_graph_edges(rng, n, p=p)
    g = Graph(n, edges)
    size = data.draw(st.integers(0, n), label="seed size")
    z = NodeSet(rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist())

    def same_set(built):
        assert all(type(m) is int for m in built.members)
        assert built.members == NodeSet(built.members).members

    for seed_set in (z, zfs_heuristic(g)):
        derived, chronicle = derived_set(g, seed_set)
        same_set(derived)
        checked = ForcingChronicle(chronicle.initial, chronicle.forces, chronicle.rounds)
        assert chronicle == checked and chronicle.initial is seed_set
        assert type(chronicle.forces) is tuple and type(chronicle.rounds) is tuple
        same_set(chronicle.replay(g))
        same_set(derived.intersection(z))
        same_set(derived.difference(z))
    same_set(zfs_heuristic(g))
    same_set(g.nodes)
    for comp in g.components():
        same_set(comp)
    for mode in ("free", "laplacian"):
        x = random_weights(g, seed, diagonal_mode=mode)
        check_pattern(g, x.entries)
        checked = WeightMatrix(g, x.entries)
        assert x.entries.dtype == checked.entries.dtype and x.entries.shape == (n, n)
        assert x.entries.tobytes() == checked.entries.tobytes()
        assert not x.entries.flags.writeable
        assert x.graph is g and x.sign_constrained is True
