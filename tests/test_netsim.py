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
    NodeSet,
    NoHiddenNodesError,
    SingularShiftError,
    WeightMatrix,
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

    def test_laplacian_rows_sum_to_zero(self):
        g = Graph(5, random_connected_edges(np.random.default_rng(8), 5))
        x = random_weights(g, seed=1, diagonal_mode="laplacian")
        np.testing.assert_allclose(x.entries.sum(axis=1), 0.0, atol=1e-12)


class TestMarkovSequence:
    def test_worked_scalar_sequence(self):
        seq = markov_sequence(WeightMatrix(P2, X2), [1], [1], 3)
        got = [float(b[0, 0]) for b in seq.data]
        assert got == [1.0, 1.0, 5.0, 21.0]

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

    @pytest.mark.parametrize("order, data", [
        (-1, []),
        (1, [[1.0], [2.0]]),
        (0, [[[[1.0]]]]),
        (1, [1.0, 2.0]),
    ], ids=["no-blocks", "1d-blocks", "3d-block", "scalar-blocks"])
    def test_blocks_must_be_matrices(self, order, data):
        with pytest.raises(InputError):
            MarkovSequence(v_in=NodeSet([1]), v_out=NodeSet([1]), order=order, data=data)

    def test_negative_order_rejected(self):
        with pytest.raises(InputError):
            markov_sequence(WeightMatrix(P2, X2), [1], [1], -1)


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


class TestMatrixCsv:
    def test_roundtrip(self):
        text = matrix_to_csv(X2)
        assert text.splitlines()[0] == "n,2"
        np.testing.assert_array_equal(matrix_from_csv(text), X2)

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
            MarkovSequence(v_in=NodeSet([1]), v_out=NodeSet([1]), order=2, data=data)

    def test_overflowing_markov_sequence_raises(self):
        x = WeightMatrix(P2, X2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InputError, match="not finite"):
                markov_sequence(x, [1], [1], 1000)
