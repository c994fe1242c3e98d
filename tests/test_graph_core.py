import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netident import (
    Graph,
    InputError,
    NodeSet,
    graph_from_json,
    nodeset_from_json,
    selection_matrix,
)

from oracles import adjacency, random_graph_edges


def path(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def complete(n):
    return Graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def cycle(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


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

    def test_index(self):
        assert NodeSet([5, 2, 9]).index(9) == 2
        with pytest.raises(InputError):
            NodeSet([1]).index(3)

    def test_membership_matches_linear_scan(self):
        members = [2, 3, 5, 8, 13, 21]
        s = NodeSet(members)
        for node in range(0, 25):
            assert (node in s) == (node in members)
        for pos, node in enumerate(members):
            assert s.index(node) == pos
        assert "5" not in s and None not in s
        assert 1 not in NodeSet()

    def test_json_roundtrip(self):
        assert nodeset_from_json(json.dumps([4, 1])) == NodeSet([1, 4])


class TestGraph:
    def test_neighbours_path(self):
        g = path(3)
        assert g.neighbour_rows == ((), (2,), (1, 3), (2,))
        assert g.neighbour_ids(2) == (1, 3)

    def test_neighbours_complete(self):
        assert complete(4).neighbour_rows[3] == (1, 2, 4)

    def test_out_of_range_node(self):
        with pytest.raises(InputError):
            path(3).neighbour_ids(4)
        with pytest.raises(InputError):
            path(3).neighbour_ids(0)

    @pytest.mark.parametrize("bad", [1.5, "2", True])
    def test_node_queries_refuse_non_integral_ids(self, bad):
        g = path(3)
        for query in (lambda: g.has_edge(bad, 2), lambda: g.has_edge(1, bad),
                      lambda: g.degree(bad), lambda: g.neighbour_ids(bad)):
            with pytest.raises(InputError, match="node id"):
                query()

    @pytest.mark.parametrize("two", [2.0, np.int64(2), np.int32(2)])
    def test_node_queries_accept_integral_values(self, two):
        g = path(3)
        assert g.has_edge(two, 3) and g.has_edge(1, two)
        assert g.degree(two) == 2
        assert g.neighbour_ids(two) == (1, 3)

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

    def test_adjacency_masks(self):
        g = path(3)
        masks = g.adjacency_masks
        assert masks[1] == 0b010
        assert masks[2] == 0b101
        assert masks[3] == 0b010


class TestInducedSubgraph:
    def test_path_drop_middle(self):
        g = path(4)
        sub = g.induced_subgraph(NodeSet([1, 2, 4]))
        assert sub.edges == ((1, 2),)
        assert sub.graph.edges == ((1, 2),)
        assert sub.to_parent == (0, 1, 2, 4)

    def test_full_selection_is_identity(self):
        g = cycle(5)
        assert g.induced_subgraph(g.nodes).graph == g

    def test_opposite_cycle_nodes_edgeless(self):
        sub = cycle(4).induced_subgraph(NodeSet([1, 3]))
        assert sub.edges == ()
        assert sub.graph == Graph(2, [])

    def test_relabelling_is_ascending(self):
        g = path(5)
        sub = g.induced_subgraph(NodeSet([2, 4, 5]))
        assert sub.to_sub == {2: 1, 4: 2, 5: 3}
        assert sub.graph.edges == ((2, 3),)  # only edge {4,5} survives


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
        for j in g.neighbour_ids(i):
            assert i in g.neighbour_ids(j)


@settings(max_examples=60)
@given(n=st.integers(min_value=0, max_value=14), data=st.data())
def test_neighbour_rows_strictly_ascending(n, data):
    pairs = st.tuples(st.integers(1, max(n, 1)), st.integers(1, max(n, 1)))
    edges = [e for e in data.draw(st.lists(pairs, max_size=40)) if n and e[0] != e[1]]
    g = Graph(n, edges)
    adj = adjacency(n, edges)
    assert len(g.neighbour_rows) == n + 1 and g.neighbour_rows[0] == ()
    for v in range(1, n + 1):
        row = g.neighbour_ids(v)
        assert all(a < b for a, b in zip(row, row[1:]))
        assert list(row) == sorted(adj[v])
        assert g.neighbour_rows[v] == row


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


def test_induced_full_equals_graph_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 14))
        g = Graph(n, random_graph_edges(rng, n))
        assert g.induced_subgraph(g.nodes).graph == g


def test_induced_edges_match_the_parent_edge_filter():
    rng = np.random.default_rng(67)
    for _ in range(200):
        n = int(rng.integers(0, 30))
        g = Graph(n, random_graph_edges(rng, n, float(rng.choice((0.05, 0.2, 0.5)))))
        keep = {v for v in range(1, n + 1) if rng.random() < rng.random()}
        sub = g.induced_subgraph(keep)
        assert sub.edges == tuple(e for e in g.edges if e[0] in keep and e[1] in keep)


class TestGraphJson:
    def test_roundtrip(self):
        g = Graph(3, [(1, 2), (2, 3)])
        assert graph_from_json(g.dumps()) == g

    def test_strips_self_loops_with_warning(self):
        with pytest.warns(UserWarning, match="self-loop"):
            g = graph_from_json({"n": 3, "edges": [[1, 1], [1, 2]]})
        assert g.edges == ((1, 2),)

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
