import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netident import (
    Graph,
    NodeSet,
    certify,
    identify,
    is_zero_forcing_set,
    markov_sequence,
    necessity_check_directed,
    random_weights,
    required_order,
)

from oracles import complete, cycle, path, random_graph_edges


class TestCertify:
    def test_p3_middle_input_full_output(self):
        # The seed {2} certifies only itself, but the report must not
        # claim non-identifiability: this very instance is identifiable.
        report = certify(path(3), NodeSet([2]), NodeSet([1, 2, 3]))
        assert report.w == NodeSet([2])
        assert report.certified_nodes == NodeSet([2])
        assert not report.certified_full
        assert report.verdict == "CERTIFIED_PARTIAL"
        assert any("sufficient only" in note for note in report.notes)

    def test_p3_endpoint_full(self):
        report = certify(path(3), NodeSet([1]), NodeSet([1]))
        assert report.certified_full
        assert report.verdict == "CERTIFIED_FULL"

    def test_triangle_partial(self):
        report = certify(complete(3), NodeSet([1, 2]), NodeSet([2, 3]))
        assert report.w == NodeSet([2])
        assert report.certified_nodes == NodeSet([2])

    def test_empty_seed_is_uncertified(self):
        report = certify(path(3), NodeSet([2]), NodeSet([1, 3]))
        assert report.w == NodeSet()
        assert report.verdict == "UNCERTIFIED"

    def test_notes_record_one_sided_nodes(self):
        report = certify(path(3), NodeSet([1, 2]), NodeSet([1, 3]))
        joined = " ".join(report.notes)
        assert "[2]" in joined and "input-only" in joined
        assert "[3]" in joined and "output-only" in joined

    def test_never_claims_non_identifiability(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(1, 10))
            g = Graph(n, random_graph_edges(rng, n))
            vin = NodeSet(rng.choice(np.arange(1, n + 1), size=max(1, n // 2), replace=False).tolist())
            report = certify(g, vin, vin)
            text = (report.verdict + " ".join(report.notes)).lower()
            assert "not identifiable" not in text
            assert "unidentifiable" not in text

    def test_json_has_verdict_and_chronicle(self):
        blob = certify(path(3), NodeSet([2]), NodeSet([1, 2, 3])).to_json()
        assert blob["verdict"] == "CERTIFIED_PARTIAL"
        assert blob["certified_nodes"] == [2]
        assert blob["chronicle"]["initial"] == [2]


class TestCertifySubgraph:
    def test_endpoint_covers_prefix(self):
        assert NodeSet([1, 2, 3]).issubset(
            certify(path(4), NodeSet([1]), NodeSet([1])).certified_nodes
        )

    def test_empty_seed_certifies_nothing(self):
        assert not NodeSet([2]).issubset(
            certify(path(3), NodeSet([2]), NodeSet([1, 3])).certified_nodes
        )

    def test_adjacent_cycle_pair_covers_rest(self):
        # Oracle check: on C4 the seed {1,2} forces everything.
        assert NodeSet([3, 4]).issubset(
            certify(cycle(4), NodeSet([1, 2]), NodeSet([1, 2])).certified_nodes
        )


class TestNecessityDirected:
    def test_gap_in_union(self):
        assert not necessity_check_directed(path(3), NodeSet([1]), NodeSet([3]))

    def test_all_inputs(self):
        g = path(3)
        assert necessity_check_directed(g, g.nodes, NodeSet())

    def test_union_covers(self):
        assert necessity_check_directed(complete(3), NodeSet([1]), NodeSet([2, 3]))


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 10), seed=st.integers(0, 2**31 - 1))
def test_certified_full_equals_zfs_check(n, seed):
    rng = np.random.default_rng(seed)
    g = Graph(n, random_graph_edges(rng, n))
    vin = NodeSet(rng.choice(np.arange(1, n + 1), size=max(1, n // 2), replace=False).tolist())
    vout = NodeSet(rng.choice(np.arange(1, n + 1), size=max(1, n // 2), replace=False).tolist())
    report = certify(g, vin, vout)
    assert report.certified_full == is_zero_forcing_set(g, vin.intersection(vout))


def test_monotone_in_inputs_and_outputs():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(2, 11))
        g = Graph(n, random_graph_edges(rng, n, p=0.45))
        vin = NodeSet(rng.choice(np.arange(1, n + 1), size=max(1, n // 3), replace=False).tolist())
        vout = NodeSet(rng.choice(np.arange(1, n + 1), size=max(1, n // 3), replace=False).tolist())
        base = certify(g, vin, vout).certified_nodes
        extra = int(rng.integers(1, n + 1))
        grown_in = certify(g, vin.union((extra,)), vout).certified_nodes
        grown_out = certify(g, vin, vout.union((extra,))).certified_nodes
        assert base.issubset(grown_in)
        assert base.issubset(grown_out)


def test_certified_subgraph_implies_reconstruction_succeeds():
    # Cross-module consistency: whenever certification says yes, the
    # constructive recovery really does reproduce the generator.
    rng = np.random.default_rng(37)
    done = 0
    while done < 10:
        n = int(rng.integers(3, 8))
        g = Graph(n, random_graph_edges(rng, n, p=0.5))
        w = NodeSet(rng.choice(np.arange(1, n + 1), size=max(1, n // 2), replace=False).tolist())
        report = certify(g, w, w)
        target = report.certified_nodes
        if len(target) == 0:
            continue
        x = random_weights(g, seed=int(rng.integers(1 << 30)))
        markov = markov_sequence(x, w, w, required_order(report.chronicle))
        result = identify(markov, g, target)
        idx = [i - 1 for i in target]
        expected = x.entries[np.ix_(idx, idx)]
        scale = max(1.0, np.abs(x.entries).max())
        assert np.abs(result.recovered - expected).max() <= 1e-8 * scale
        done += 1
