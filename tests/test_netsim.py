import hashlib
import json
import re
import warnings

import numpy as np
import pytest

from netident import (
    DecoupledHiddenBlockError,
    DirectedWeightMatrix,
    Graph,
    InputError,
    MarkovSequence,
    NodeDynamics,
    NodeSet,
    NoHiddenNodesError,
    SingularShiftError,
    WeightMatrix,
    deconvolve,
    lifted_markov,
    markov_sequence,
    matrix_from_csv,
    matrix_to_csv,
    random_weights,
    scaling_counterexample,
    transfer_eval,
)
from netident.netsim import check_pattern

from oracles import markov_blocks_oracle, random_connected_edges, random_graph_edges


def path(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


P2 = path(2)
X2 = np.array([[1.0, 2.0], [2.0, 3.0]])


class TestPatternChecker:
    def test_accepts_member(self):
        check_pattern(P2, X2)

    def test_rejects_asymmetry(self):
        bad = X2.copy()
        bad[0, 1] = 5.0
        with pytest.raises(InputError, match="symmetric"):
            check_pattern(P2, bad)

    def test_rejects_nonzero_on_non_edge(self):
        g = path(3)
        bad = np.diag([1.0, 2.0, 3.0])
        bad[0, 1] = bad[1, 0] = 1.0
        bad[0, 2] = bad[2, 0] = 0.5  # {1,3} is not an edge of P3
        bad[1, 2] = bad[2, 1] = 1.0
        with pytest.raises(InputError, match="non-edge"):
            check_pattern(g, bad)

    def test_rejects_zero_or_negative_edge(self):
        for value in (0.0, -1.0):
            bad = X2.copy()
            bad[0, 1] = bad[1, 0] = value
            with pytest.raises(InputError):
                check_pattern(P2, bad)

    def test_sign_free_allows_negative_but_not_zero_edges(self):
        bad = X2.copy()
        bad[0, 1] = bad[1, 0] = -2.0
        check_pattern(P2, bad, positive=False)
        bad[0, 1] = bad[1, 0] = 0.0
        with pytest.raises(InputError):
            check_pattern(P2, bad, positive=False)

    def test_diagonal_is_free(self):
        free = X2.copy()
        free[0, 0] = -100.0
        check_pattern(P2, free)

    def test_directed_rejects_negative_offdiagonal(self):
        with pytest.raises(InputError):
            DirectedWeightMatrix(np.array([[0.0, -1.0], [0.0, 0.0]]))
        DirectedWeightMatrix(np.array([[-3.0, 1.0], [0.0, 2.0]]))  # diagonal free


class TestRandomWeights:
    def test_p2_laplacian_forced_form(self):
        x = random_weights(P2, seed=9, diagonal_mode="laplacian")
        w = x.entries[0, 1]
        assert 0.5 <= w <= 2.0
        np.testing.assert_allclose(x.entries, [[-w, w], [w, -w]])

    def test_result_is_class_member(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            g = Graph(n, random_graph_edges(rng, n))
            x = random_weights(g, seed=int(rng.integers(1 << 30)))
            check_pattern(g, x.entries)  # constructor validated already

    def test_deterministic_per_seed(self):
        g = Graph(4, random_connected_edges(np.random.default_rng(0), 4))
        a = random_weights(g, seed=42)
        b = random_weights(g, seed=42)
        np.testing.assert_array_equal(a.entries, b.entries)
        c = random_weights(g, seed=43)
        assert not np.array_equal(a.entries, c.entries)

    @pytest.mark.parametrize("mode", ["free", "laplacian"])
    def test_equals_per_edge_scalar_draws_byte_for_byte(self, mode):
        """One draw of every edge weight equals one scalar draw per edge."""
        rng = np.random.default_rng(5)
        graphs = [Graph(0), Graph(3)] + [
            Graph(n, random_graph_edges(rng, n)) for n in (2, 5, 9, 14)
        ]
        for g in graphs:
            for seed in (0, 1, 12345):
                draw = np.random.default_rng(seed)
                want = np.zeros((g.n, g.n))
                for i, j in g.edges:
                    want[i - 1, j - 1] = want[j - 1, i - 1] = draw.uniform(0.5, 2.0)
                if mode == "free":
                    want[np.diag_indices(g.n)] = draw.uniform(-2.0, 2.0, size=g.n)
                else:
                    want[np.diag_indices(g.n)] = -want.sum(axis=1)
                got = random_weights(g, seed, diagonal_mode=mode).entries
                assert got.tobytes() == want.tobytes()

    def test_invalid_range(self):
        with pytest.raises(InputError):
            random_weights(P2, seed=0, weight_range=(0.0, 1.0))
        with pytest.raises(InputError):
            random_weights(P2, seed=0, weight_range=(2.0, 1.0))

    @pytest.mark.parametrize("weight_range, mode", [
        ((1.0, np.inf), "free"), ((1.0, np.inf), "laplacian"), ((1.0, 1e308), "free"),
        ((1e308, 1.7e308), "laplacian"),
    ])
    def test_range_beyond_float64_is_refused(self, weight_range, mode):
        g = Graph(3, [(1, 2), (2, 3)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="weight range"):
                random_weights(g, seed=0, weight_range=weight_range, diagonal_mode=mode)
            # Draws and row sums that stay finite are kept.
            x = random_weights(g, seed=0, weight_range=(1.0, 1e308), diagonal_mode="laplacian")
        assert np.isfinite(x.entries).all()

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", [1, -2]], ids=repr)
    def test_seed_the_generator_refuses_is_an_input_error(self, seed):
        with pytest.raises(InputError, match="bad random seed"):
            random_weights(P2, seed=seed)

    def test_laplacian_rows_sum_to_zero(self):
        g = Graph(5, random_connected_edges(np.random.default_rng(8), 5))
        x = random_weights(g, seed=1, diagonal_mode="laplacian")
        np.testing.assert_allclose(x.entries.sum(axis=1), 0.0, atol=1e-12)


class TestMarkovSequence:
    def test_worked_scalar_sequence(self):
        seq = markov_sequence(WeightMatrix(P2, X2), [1], [1], 3)
        got = [float(b[0, 0]) for b in seq.data]
        assert got == [1.0, 1.0, 5.0, 21.0]

    def test_no_power_past_the_last_stored_order(self):
        # X^3 e1 is finite, X^4 e1 is not: a product after the last order
        # would overflow and warn.
        x = WeightMatrix(P2, np.array([[1e100, 1.0], [1.0, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seq = markov_sequence(x, [1], [1, 2], 3)
        assert seq.data[3, 0, 0] == 1e300

    def test_order_zero_full_selection_is_identity(self):
        g = path(3)
        x = random_weights(g, seed=2)
        seq = markov_sequence(x, g.nodes, g.nodes, 0)
        np.testing.assert_array_equal(seq.data[0], np.eye(3))

    def test_disjoint_selections_start_at_zero(self):
        g = path(3)
        x = random_weights(g, seed=2)
        seq = markov_sequence(x, [1], [3], 0)
        np.testing.assert_array_equal(seq.data[0], [[0.0]])

    def test_matches_matrix_power_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            g = Graph(n, random_connected_edges(rng, n))
            x = random_weights(g, seed=int(rng.integers(1 << 30)))
            vin = NodeSet(rng.choice(np.arange(1, n + 1), size=max(1, n // 2), replace=False).tolist())
            vout = NodeSet(rng.choice(np.arange(1, n + 1), size=max(1, n // 2), replace=False).tolist())
            seq = markov_sequence(x, vin, vout, 6)
            for got, want in zip(seq.data, markov_blocks_oracle(x.entries, vin, vout, 6)):
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_symmetric_blocks_for_coincident_selections(self):
        rng = np.random.default_rng(14)
        g = Graph(5, random_connected_edges(rng, 5))
        x = random_weights(g, seed=5)
        sel = NodeSet([1, 3, 5])
        seq = markov_sequence(x, sel, sel, 8)
        for block in seq.data:
            scale = max(1.0, np.abs(block).max())
            np.testing.assert_allclose(block, block.T, atol=1e-12 * scale)

    def test_json_roundtrip(self):
        seq = markov_sequence(WeightMatrix(P2, X2), [1], [1, 2], 2)
        again = MarkovSequence.from_json(seq.to_json())
        assert again.order == 2
        assert again.v_out == NodeSet([1, 2])
        for a, b in zip(again.data, seq.data):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("order", [0.7, 1.5, "2", None])
    def test_json_non_integral_order_rejected(self, order):
        blob = markov_sequence(WeightMatrix(P2, X2), [1], [1, 2], 2).to_json()
        with pytest.raises(InputError, match="K"):
            MarkovSequence.from_json({**blob, "K": order})

    def test_json_boolean_order_rejected(self):
        blob = markov_sequence(WeightMatrix(P2, X2), [1], [1, 2], 2).to_json()
        with pytest.raises(InputError, match="Markov order K must be an integer"):
            MarkovSequence.from_json({**blob, "K": True, "data": blob["data"][:2]})

    def test_json_integral_float_order_loads(self):
        blob = markov_sequence(WeightMatrix(P2, X2), [1], [1, 2], 2).to_json()
        again = MarkovSequence.from_json({**blob, "K": 2.0})
        assert again.order == 2 and type(again.order) is int

    @pytest.mark.parametrize("data", [
        [],
        [[1.0], [2.0]],
        [[[[1.0]]]],
        [1.0, 2.0],
    ], ids=["no-blocks", "1d-blocks", "3d-block", "scalar-blocks"])
    def test_blocks_must_be_matrices(self, data):
        with pytest.raises(InputError):
            MarkovSequence(v_in=NodeSet([1]), v_out=NodeSet([1]), data=data)

    def test_negative_order_rejected(self):
        with pytest.raises(InputError):
            markov_sequence(WeightMatrix(P2, X2), [1], [1], -1)

    @pytest.mark.parametrize("order", [10**17, 10**19])
    def test_unallocatable_order_is_an_input_error(self, order):
        # numpy refuses both sizes at once, without touching memory; empty
        # node sets, whose blocks hold no entries, are refused alike.
        for v_in, v_out in (([1], [1]), ([], [1]), ([1], []), ([], [])):
            with pytest.raises(InputError, match=f"^order {order} is too large: "):
                markov_sequence(WeightMatrix(P2, X2), v_in, v_out, order)

    def test_data_is_one_read_only_array(self):
        seq = markov_sequence(WeightMatrix(P2, X2), [1], [1, 2], 3)
        assert seq.data.shape == (4, 2, 1) and seq.order == 3
        assert not seq.data.flags.writeable
        with pytest.raises(ValueError):
            seq.data[0, 0, 0] = 7.0
        with pytest.raises(AttributeError):
            seq.order = 2

    def test_constructor_copies_its_input(self):
        data = np.ones((2, 1, 1))
        seq = MarkovSequence(v_in=NodeSet([1]), v_out=NodeSet([1]), data=data)
        data[1] = 5.0
        assert data.flags.writeable and seq.data[1, 0, 0] == 1.0

    @pytest.mark.parametrize("read_only_view", [False, True])
    def test_mutating_the_callers_float_array_leaves_data_unchanged(self, read_only_view):
        # A read-only view is still the caller's: its base stays writable.
        base = np.arange(6.0).reshape(3, 2, 1)
        data = base.view() if read_only_view else base
        data.flags.writeable = not read_only_view
        seq = MarkovSequence(v_in=NodeSet([1]), v_out=NodeSet([1, 2]), data=data)
        base[:] = -1.0
        assert base.flags.writeable and not seq.data.flags.writeable
        assert not np.shares_memory(seq.data, base)
        assert seq.data.tolist() == [[[0.0], [1.0]], [[2.0], [3.0]], [[4.0], [5.0]]]

    def test_sequence_functions_keep_their_bytes(self):
        # Every entry is an integer far inside float64's exact range, so
        # the bytes are the same under any BLAS; deconvolving the lift
        # gives back the plain sequence exactly.
        a = 3
        edges = [(r * a + c + 1, r * a + c + 2) for r in range(a) for c in range(a - 1)]
        edges += [(r * a + c + 1, (r + 1) * a + c + 1) for r in range(a - 1) for c in range(a)]
        g = Graph(9, edges)
        x = np.diag([-float(i % 4) for i in range(1, 10)])
        for i, j in g.edges:
            x[i - 1, j - 1] = x[j - 1, i - 1] = (i + j) % 3 + 1
        w = WeightMatrix(g, x)
        dyn = NodeDynamics(A=[[1, 0], [1, -1]], B=[[1], [0]], C=[[1, 1]], E=[[1], [1]],
                           K=[[1, 1]])
        v_in, v_out = [1, 5, 9], [1, 2, 5, 9]
        seq = markov_sequence(w, v_in, v_out, 6)
        lifted = lifted_markov(w, dyn, v_in, v_out, 6)
        base = deconvolve(lifted, dyn)
        digests = {
            "d4086dd3675c4ac6b2bba3a4548f190e1d2c0e16e279e1134fed1588e5f22bdc": (seq, base),
            "99714afe8e856814cdf8999cd33fce9b1367a066cc6fbf687c3527ef9fbdf37f": (lifted,),
        }
        for digest, built in digests.items():
            for out in built:
                assert out.data.shape == (7, 4, 3) and out.data.dtype == np.float64
                assert hashlib.sha256(out.data.tobytes()).hexdigest() == digest
                assert not out.data.flags.writeable
                with pytest.raises(ValueError):
                    out.data[0, 0, 0] = 0.0
        assert not np.shares_memory(base.data, lifted.data)

    @pytest.mark.parametrize("data", [
        [[[1.0]], [[1.0, 2.0]]],
        [[[1.0], [1.0, 2.0]]],
        [1.0, 2.0],
        [[[[1.0]]]],
        [],
        [[[1.0]], "a"],
    ], ids=["ragged-blocks", "ragged-rows", "1d", "4d", "empty", "string-block"])
    def test_data_must_be_one_3d_array(self, data):
        with pytest.raises(InputError, match="Markov data"):
            MarkovSequence(v_in=NodeSet([1]), v_out=NodeSet([1]), data=data)
        blob = {"v_in": [1], "v_out": [1], "K": len(data) - 1, "data": data}
        with pytest.raises(InputError, match="Markov data"):
            MarkovSequence.from_json(blob)

    @pytest.mark.parametrize("order", [0, 1, 3])
    def test_json_order_must_match_block_count(self, order):
        blob = markov_sequence(WeightMatrix(P2, X2), [1], [1, 2], 2).to_json()
        with pytest.raises(InputError, match=f"order {order} inconsistent with 3 blocks"):
            MarkovSequence.from_json({**blob, "K": order})

    def test_matches_oracle_bit_for_bit(self):
        # Integer weights keep every product exact, so any summation order agrees.
        rng = np.random.default_rng(16)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            g = Graph(n, random_connected_edges(rng, n))
            entries = np.diag(rng.integers(-3, 4, size=n).astype(float))
            i, j = g.edge_index.T
            entries[i, j] = entries[j, i] = rng.integers(1, 4, size=len(i))
            vin = NodeSet(rng.choice(np.arange(1, n + 1), size=2, replace=False).tolist())
            vout = NodeSet(rng.choice(np.arange(1, n + 1), size=3, replace=False).tolist()
                           if n > 2 else [1])
            seq = markov_sequence(WeightMatrix(g, entries), vin, vout, 8)
            assert seq.data.shape == (9, len(vout), 2)
            want = np.array(markov_blocks_oracle(entries, vin, vout, 8))
            assert seq.data.tobytes() == want.tobytes()

    def test_json_roundtrip_is_bit_identical(self):
        g = Graph(5, random_connected_edges(np.random.default_rng(17), 5))
        seq = markov_sequence(random_weights(g, seed=9), [1, 4], [2, 4, 5], 7)
        again = MarkovSequence.from_json(json.loads(json.dumps(seq.to_json())))
        assert (again.v_in, again.v_out, again.order) == (seq.v_in, seq.v_out, 7)
        assert again.data.tobytes() == seq.data.tobytes()
        assert again.to_json() == seq.to_json()

    @pytest.mark.parametrize("v_in, v_out", [([1], []), ([], []), ([], [1])])
    def test_json_roundtrip_without_outputs_or_inputs(self, v_in, v_out):
        seq = markov_sequence(random_weights(path(3), seed=1), v_in, v_out, 3)
        again = MarkovSequence.from_json(seq.to_json())
        assert (again.v_in, again.v_out, again.order) == (seq.v_in, seq.v_out, 3)
        assert again.data.shape == seq.data.shape == (4, len(v_out), len(v_in))
        assert again.to_json() == seq.to_json()


class TestTransferEval:
    def test_scalar(self):
        x = WeightMatrix(Graph(1, []), np.array([[0.0]]))
        got = transfer_eval(x, [1], [1], 2.0)
        np.testing.assert_allclose(got, [[0.5]])

    def test_two_by_two_hand_value(self):
        # (10 I - X) = [[9,-2],[-2,7]], det 59, inverse [[7,2],[2,9]]/59.
        got = transfer_eval(WeightMatrix(P2, X2), [1], [1], 10.0)
        np.testing.assert_allclose(got, [[7.0 / 59.0]], rtol=1e-14)

    def test_singular_point_named(self):
        x = WeightMatrix(Graph(1, []), np.array([[2.0]]))
        with pytest.raises(SingularShiftError, match="s="):
            transfer_eval(x, [1], [1], 2.0)

    @pytest.mark.parametrize("s", [float("nan"), float("inf"), complex(0, float("nan"))],
                             ids=["nan", "inf", "nan-imaginary"])
    def test_non_finite_sample_point_refused(self, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="sample point s must be finite"):
                transfer_eval(WeightMatrix(P2, X2), [1], [1], s)

    def test_neumann_truncation_matches(self):
        # Partial sums of data[k] / s^(k+1) converge to the transfer
        # matrix far outside the spectrum.
        rng = np.random.default_rng(21)
        for _ in range(3):
            n = int(rng.integers(2, 6))
            g = Graph(n, random_connected_edges(rng, n))
            x = random_weights(g, seed=int(rng.integers(1 << 30)))
            s = 100.0 * np.abs(x.entries).max()
            vin = g.nodes
            seq = markov_sequence(x, vin, vin, 2 * n)
            series = sum(
                seq.data[k] / s ** (k + 1) for k in range(seq.order + 1)
            )
            np.testing.assert_allclose(
                series, transfer_eval(x, vin, vin, s).real, atol=1e-8
            )


class TestScalingCounterexample:
    def test_symmetric_sign_free_flip(self):
        x = WeightMatrix(P2, X2)
        rescaled = scaling_counterexample(x, [1], [1])
        assert isinstance(rescaled, WeightMatrix)
        assert not rescaled.sign_constrained
        np.testing.assert_array_equal(
            rescaled.entries, [[1.0, -2.0], [-2.0, 3.0]]
        )

    def test_directed_chain_matches_markov_to_high_order(self):
        # 1 -> 2 -> 3 with unit weights, only node 1 visible.
        x = DirectedWeightMatrix(
            np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        )
        rescaled = scaling_counterexample(x, [1], [1], epsilon=2.0)
        assert isinstance(rescaled, DirectedWeightMatrix)
        assert np.abs(rescaled.entries - x.entries).max() >= 0.1
        before = markov_blocks_oracle(x.entries, [1], [1], 10)
        after = markov_blocks_oracle(rescaled.entries, [1], [1], 10)
        for a, b in zip(before, after):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_sign_free_result_equals_the_checked_construction(self):
        rng = np.random.default_rng(79)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            g = Graph(n, random_connected_edges(rng, n, float(rng.uniform(0.0, 0.5))))
            entries = random_weights(g, seed=int(rng.integers(1 << 30))).entries.copy()
            signs = np.triu(rng.choice((-1.0, 1.0), size=(n, n)))
            x = WeightMatrix(g, entries * (signs + signs.T - np.diag(np.diag(signs))),
                             sign_constrained=False)
            nodes = rng.permutation(np.arange(1, n + 1)).tolist()
            visible = nodes[:int(rng.integers(1, n))]
            vin = visible[:int(rng.integers(1, len(visible) + 1))]
            vout = visible[len(vin) - 1:]  # inputs and outputs cover the visible nodes
            got = scaling_counterexample(x, vin, vout)
            scale = np.array([1.0 if v in visible else -1.0 for v in range(1, n + 1)])
            checked = WeightMatrix(g, x.entries * np.outer(scale, scale),
                                   sign_constrained=False)
            assert got.entries.tobytes() == checked.entries.tobytes()
            assert got.sign_constrained is checked.sign_constrained is False
            assert got.graph == checked.graph and got.graph is x.graph
            assert not got.entries.flags.writeable

    def test_markov_match_to_double_order(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            g = Graph(n, random_connected_edges(rng, n))
            x = random_weights(g, seed=int(rng.integers(1 << 30)))
            vin = NodeSet([1])
            vout = NodeSet([1, 2]) if n > 2 else NodeSet([1])
            rescaled = scaling_counterexample(WeightMatrix(g, x.entries), vin, vout)
            assert np.abs(rescaled.entries - x.entries).max() > 0
            before = markov_blocks_oracle(x.entries, vin, vout, 2 * n)
            after = markov_blocks_oracle(rescaled.entries, vin, vout, 2 * n)
            scale = max(1.0, max(np.abs(b).max() for b in before))
            for a, b in zip(before, after):
                assert np.abs(a - b).max() <= 1e-10 * scale

    def test_transfer_match_at_random_points(self):
        g = path(4)
        x = random_weights(g, seed=3)
        rescaled = scaling_counterexample(x, [1], [2])
        rng = np.random.default_rng(0)
        for _ in range(5):
            s = complex(rng.uniform(5, 10), rng.uniform(-3, 3))
            np.testing.assert_allclose(
                transfer_eval(x, [1], [2], s),
                transfer_eval(rescaled, [1], [2], s),
                rtol=1e-10,
            )

    def test_no_hidden_nodes(self):
        with pytest.raises(NoHiddenNodesError, match="hidden"):
            scaling_counterexample(WeightMatrix(P2, X2), [1], [2])

    def test_decoupled_hidden_block(self):
        g = Graph(3, [(1, 2)])  # node 3 isolated
        entries = np.zeros((3, 3))
        entries[0, 1] = entries[1, 0] = 1.0
        entries[2, 2] = 4.0
        x = WeightMatrix(g, entries)
        with pytest.raises(DecoupledHiddenBlockError, match="independent"):
            scaling_counterexample(x, [1], [2])

    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "directed"])
    def test_no_visible_node_is_decoupled(self, symmetric):
        # Empty Markov data says nothing about any node. Rescaling every node
        # by eps is the similarity eps*I, which would return X unchanged.
        entries = random_weights(path(3), seed=1).entries
        x = (WeightMatrix(path(3), entries, sign_constrained=False) if symmetric
             else DirectedWeightMatrix(entries))
        with pytest.raises(DecoupledHiddenBlockError, match="independent"):
            scaling_counterexample(x, [], [])

    def test_epsilon_validation(self):
        x = WeightMatrix(path(3), random_weights(path(3), seed=1).entries)
        with pytest.raises(InputError, match="-1"):
            scaling_counterexample(x, [1], [1], epsilon=2.0)
        d = DirectedWeightMatrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
        for bad in (-1.0, 0.0, 1.0, np.inf, np.nan):
            with pytest.raises(InputError):
                scaling_counterexample(d, [1], [1], epsilon=bad)

    @pytest.mark.parametrize("epsilon", [1e-320, 1e308])
    def test_epsilon_beyond_float64_range_is_refused(self, epsilon):
        # 1 / 1e-320 overflows; 2 * 1e308 overflows in the rescaled entry.
        d = DirectedWeightMatrix(
            np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=re.escape(f"epsilon {epsilon} ") + ".*float64"):
                scaling_counterexample(d, [1], [1], epsilon=epsilon)


class TestNodeRange:
    CHAIN3 = DirectedWeightMatrix(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                            [0.0, 1.0, 0.0]]))

    @pytest.mark.parametrize("v_in, v_out", [([1, 99], [1]), ([1], [1, 99])],
                             ids=["in", "out"])
    def test_node_beyond_the_matrix_is_an_input_error(self, v_in, v_out):
        with pytest.raises(InputError, match=r"^node 99 outside 1\.\.3$"):
            scaling_counterexample(self.CHAIN3, v_in, v_out)
        with pytest.raises(InputError, match=r"^node 99 outside 1\.\.3$"):
            transfer_eval(self.CHAIN3, v_in, v_out, 2.0)

    def test_markov_sequence_message_is_unchanged(self):
        for v_in, v_out in (([4], [1]), ([1], [2, 4])):
            with pytest.raises(InputError) as exc:
                markov_sequence(self.CHAIN3, v_in, v_out, 2)
            assert str(exc.value) == "node 4 outside 1..3"


class TestRepr:
    def test_weight_matrix_names_its_size_and_class(self):
        x = random_weights(path(3), seed=1)
        assert repr(x) == "WeightMatrix(n=3, positive)"
        assert repr(WeightMatrix(path(3), x.entries, sign_constrained=False)) == (
            "WeightMatrix(n=3, sign-free)"
        )


class TestMatrixCsv:
    def test_roundtrip(self):
        text = matrix_to_csv(X2)
        assert text.splitlines()[0] == "n,2"
        np.testing.assert_array_equal(matrix_from_csv(text), X2)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_roundtrip_every_small_size(self, n):
        entries = np.arange(n * n, dtype=float).reshape(n, n) - 2.5
        back = matrix_from_csv(matrix_to_csv(entries))
        assert back.shape == (n, n)
        np.testing.assert_array_equal(back, entries)

    def test_rows_are_the_reprs_of_their_floats(self):
        tiny = np.nextafter(0.0, 1.0)
        entries = np.array([[-0.0, tiny, 1e-300, 0.1], [1e300, -2.5e-310, 3.0, -1e-300],
                            [np.inf, -np.inf, np.nan, 7.0], [1.0 / 3.0, -0.0, 2.0**-1074, 5e-324]])
        old = "".join(
            [f"n,{len(entries)}\n"]
            + [",".join(repr(float(v)) for v in row) + "\n" for row in entries]
        )
        assert matrix_to_csv(entries) == old
        finite = entries[[0, 1, 3]][:, [0, 1, 2]]
        back = matrix_from_csv(matrix_to_csv(finite))
        assert back.tobytes() == finite.tobytes()  # -0.0 and subnormals survive

    def test_ragged_rows(self):
        with pytest.raises(InputError, match="wrong length for n=2"):
            matrix_from_csv("n,2\n1.0,2.0\n3.0\n")

    def test_bad_header(self):
        with pytest.raises(InputError, match="header"):
            matrix_from_csv("1.0,2.0\n")

    def test_row_count_mismatch(self):
        with pytest.raises(InputError):
            matrix_from_csv("n,2\n1.0,2.0\n")


class TestNonFinite:
    """Every numeric input refuses NaN and infinity, naming the first entry."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_matrix_input(self, bad):
        entries = X2.copy()
        entries[0, 1] = entries[1, 0] = bad
        with pytest.raises(InputError, match=r"matrix entry \(1,2\) is not finite"):
            check_pattern(P2, entries)
        with pytest.raises(InputError, match=r"matrix entry \(1,2\) is not finite"):
            DirectedWeightMatrix(entries)
        with pytest.raises(InputError, match=r"matrix CSV entry \(1,2\) is not finite"):
            matrix_from_csv(matrix_to_csv(entries))

    def test_markov_blocks(self):
        data = (np.eye(1), np.array([[1.0]]), np.array([[np.nan]]))
        with pytest.raises(InputError, match=r"Markov block 2 entry \(1,1\) is not finite"):
            MarkovSequence(v_in=NodeSet([1]), v_out=NodeSet([1]), data=data)

    def test_overflowing_markov_sequence_raises(self):
        x = WeightMatrix(P2, X2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InputError, match="not finite"):
                markov_sequence(x, [1], [1], 1000)
