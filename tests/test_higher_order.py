import functools
import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netident import (
    CouplingReport,
    DeconvolutionBlockedError,
    Graph,
    InconsistentDataError,
    InputError,
    MarkovSequence,
    NetidentError,
    NodeDynamics,
    NodeSet,
    WeightMatrix,
    coupling_condition,
    deconvolve,
    derived_set,
    identify,
    lifted_markov,
    markov_sequence,
    random_weights,
    required_order,
    zfs_heuristic,
)
from netident.higher_order import (
    COUPLING_MAX_ORDER,
    _kron,
    _mixing_tables,
    _scaled_norm,
    _stack_norms,
)
from netident.netsim import transfer_eval

from oracles import (
    kron_lift,
    markov_blocks_oracle,
    path,
    random_connected_edges,
    reference_coupling_condition,
    reference_deconvolve,
    single_channel_transfer,
)


SCALAR_IDENTITY = NodeDynamics(
    A=[[0.0]], B=[[1.0]], C=[[1.0]], E=[[1.0]], K=[[1.0]]
)

NILPOTENT = NodeDynamics(
    A=np.zeros((2, 2)), B=np.eye(2), C=np.eye(2),
    E=[[1.0], [0.0]], K=[[0.0, 1.0]],
)

# C (EK)^k B = 2^k never vanishes, though the norm of (EK)^k squares past
# float64 range from k = 512 on.
DOUBLING = NodeDynamics(A=[[0.0]], B=[[1.0]], C=[[1.0]], E=[[2.0]], K=[[1.0]])


def random_dyn(rng, q, r=None, t=None, s=None):
    r = r or q
    t = t or q
    s = s or q
    return NodeDynamics(
        A=rng.uniform(-1, 1, (q, q)),
        B=rng.uniform(-1, 1, (q, r)),
        C=rng.uniform(-1, 1, (t, q)),
        E=rng.uniform(-1, 1, (q, s)),
        K=rng.uniform(-1, 1, (s, q)),
    )


def word_expansion_oracle(dyn, k):
    """Sum C . (word product) . B over all 2^k words, grouped by the
    number of coupling letters."""
    out = {i: np.zeros((dyn.output_dim, dyn.input_dim)) for i in range(k + 1)}
    for word in itertools.product((0, 1), repeat=k):
        prod = np.eye(dyn.state_dim)
        for letter in word:
            prod = prod @ (dyn.coupling if letter else dyn.A)
        out[sum(word)] += dyn.C @ prod @ dyn.B
    return out


class TestNodeDynamics:
    def test_dimension_validation(self):
        with pytest.raises(InputError, match="B"):
            NodeDynamics(A=np.eye(2), B=np.ones((3, 1)), C=np.ones((1, 2)),
                         E=np.ones((2, 1)), K=np.ones((1, 2)))
        with pytest.raises(InputError, match="K"):
            NodeDynamics(A=np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)),
                         E=np.ones((2, 1)), K=np.ones((2, 2)))

    @pytest.mark.parametrize("name", list("ABCEK"))
    def test_non_finite_entry_is_refused(self, name):
        mats = {m: np.ones((1, 1)) for m in "ABCEK"}
        mats[name] = np.array([[np.nan]])
        with pytest.raises(InputError, match=rf"^{name} entry \(1,1\) is not finite"):
            NodeDynamics(**mats)

    def test_json_roundtrip(self):
        dyn = random_dyn(np.random.default_rng(0), 2, r=1, t=3, s=2)
        again = NodeDynamics.from_json(dyn.to_json())
        for name in "ABCEK":
            np.testing.assert_array_equal(getattr(again, name), getattr(dyn, name))


class TestCouplingCondition:
    def test_scalar_identity_verified(self):
        report = coupling_condition(SCALAR_IDENTITY, k_max=6)
        assert report.ok
        assert report.verified_up_to == 6
        assert report.first_failure is None

    def test_nilpotent_fails_at_two(self):
        report = coupling_condition(NILPOTENT)
        assert not report.ok
        assert report.first_failure == 2
        assert report.verified_up_to == 1

    def test_identity_coupling_verified(self):
        dyn = NodeDynamics(A=np.zeros((2, 2)), B=np.eye(2), C=np.eye(2),
                           E=np.eye(2), K=np.eye(2))
        assert coupling_condition(dyn).ok

    def test_default_horizon_is_twice_state_dim(self):
        report = coupling_condition(random_dyn(np.random.default_rng(3), 3))
        assert report.verified_up_to <= 2 * 3
        assert "finite-horizon" in report.note

    def test_note_is_a_class_constant(self):
        report = coupling_condition(NILPOTENT)
        assert report.note == CouplingReport.note == report.to_json()["note"]
        with pytest.raises(TypeError):
            CouplingReport(1, 2, "another note")

    def test_report_json(self):
        blob = coupling_condition(NILPOTENT).to_json()
        assert blob["first_failure"] == 2
        assert not blob["ok"]

    def test_growing_coupling_is_verified_past_float64_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = coupling_condition(DOUBLING, k_max=1000)
        assert report.ok and report.verified_up_to == 1000

    def test_order_is_capped(self):
        # The cap itself is accepted; a nilpotent coupling fails early, so
        # this does not walk all the orders.
        assert coupling_condition(NILPOTENT, k_max=COUPLING_MAX_ORDER).first_failure == 2
        for k_max in (COUPLING_MAX_ORDER + 1, 10**11):
            with pytest.raises(InputError) as err:
                coupling_condition(NILPOTENT, k_max=k_max)
            assert str(err.value) == ("k_max must be at most COUPLING_MAX_ORDER = "
                                      f"{COUPLING_MAX_ORDER}, got {k_max}")

    def test_tiny_coupling_is_not_zero(self):
        # (EK)^2 = 1e-400 underflows, but the test is scale-invariant.
        dyn = NodeDynamics(A=[[0.0]], B=[[1.0]], C=[[1.0]], E=[[1e-200]], K=[[1.0]])
        assert coupling_condition(dyn, k_max=20).ok

    def test_a_tiny_output_matrix_is_not_zero(self):
        # norm(C) underflows to zero, and the scale has no floor to exceed 1e-200.
        dyn = NodeDynamics(A=[[0.0]], B=[[1.0]], C=[[1e-200]], E=[[1.0]], K=[[1.0]])
        assert coupling_condition(dyn).ok

    @pytest.mark.parametrize("value", [1e160, 1e300])
    @pytest.mark.parametrize("name", ["B", "C"])
    def test_a_huge_input_or_output_matrix_is_not_zero(self, name, value):
        # norm(C) or norm(B) squares past float64 range unless taken on the
        # matrix divided by the power of two of its largest magnitude.
        dyn = NodeDynamics(**{**SCALAR_IDENTITY.to_json(), name: [[value]]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert coupling_condition(dyn, k_max=0).ok
            assert coupling_condition(dyn).ok

    @pytest.mark.parametrize("name", ["B", "C"])
    def test_a_zero_input_or_output_matrix_fails_at_order_zero(self, name):
        dyn = NodeDynamics(**{**SCALAR_IDENTITY.to_json(), name: [[0.0]]})
        assert coupling_condition(dyn).first_failure == 0

    def test_scale_free(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            dyn = random_dyn(rng, 3, r=1, t=1)
            want = coupling_condition(dyn, k_max=12).first_failure
            for c in (1e-100, 1e100):
                big = NodeDynamics(A=dyn.A, B=c * dyn.B, C=c * dyn.C, E=c * dyn.E, K=dyn.K)
                assert coupling_condition(big, k_max=12).first_failure == want


class TestLiftedMarkov:
    @pytest.mark.parametrize("v_in, v_out", [([1, 4], [1]), ([1], [4])], ids=["in", "out"])
    def test_node_beyond_the_graph_is_an_input_error(self, v_in, v_out):
        # The node sets are checked before the order.
        x = random_weights(path(3), seed=4)
        for order in (3, -1):
            with pytest.raises(InputError, match=r"^node 4 outside 1\.\.3$"):
                lifted_markov(x, SCALAR_IDENTITY, v_in, v_out, order)

    def test_scalar_identity_reduces_to_base(self):
        g = path(3)
        x = random_weights(g, seed=4)
        lifted = lifted_markov(x, SCALAR_IDENTITY, NodeSet([1]), NodeSet([1, 2]), 5)
        base = markov_sequence(x, [1], [1, 2], 5)
        for a, b in zip(lifted.data, base.data):
            np.testing.assert_allclose(a, b, atol=1e-13)

    def test_no_power_past_the_last_stored_order(self):
        # The lift of SCALAR_IDENTITY is X itself: X^3 e1 is finite, X^4 e1 is not.
        x = WeightMatrix(path(2), np.array([[1e100, 1.0], [1.0, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lifted = lifted_markov(x, SCALAR_IDENTITY, NodeSet([1]), NodeSet([1, 2]), 3)
        assert lifted.data[3, 0, 0] == 1e300

    def test_order_zero_is_selection_kron(self):
        g = path(2)
        x = WeightMatrix(g, np.array([[1.0, 2.0], [2.0, 3.0]]))
        dyn = random_dyn(np.random.default_rng(5), 2, r=1, t=2)
        lifted = lifted_markov(x, dyn, NodeSet([1, 2]), NodeSet([2]), 0)
        nm = np.array([[0.0, 1.0]])  # N M for v_out={2}, v_in={1,2}
        np.testing.assert_allclose(lifted.data[0], np.kron(nm, dyn.C @ dyn.B))

    @pytest.mark.parametrize("order", [10**17, 10**19])
    def test_unallocatable_order_is_an_input_error(self, order):
        # numpy refuses both sizes at once, without touching memory; empty
        # node sets, whose blocks hold no entries, are refused alike.
        for v_in, v_out in (([1], [1]), ([], [1]), ([1], []), ([], [])):
            with pytest.raises(InputError, match=f"^order {order} is too large: "):
                lifted_markov(random_weights(path(2), seed=4), SCALAR_IDENTITY,
                              NodeSet(v_in), NodeSet(v_out), order)

    def test_one_array_matching_the_oracle_bit_for_bit(self):
        # With B = C = I every lifted block is the state-power block of the
        # nodes' bands, and integer entries keep every product exact.
        rng = np.random.default_rng(18)
        g = path(3)
        x = WeightMatrix(g, [[1.0, 2.0, 0.0], [2.0, -1.0, 1.0], [0.0, 1.0, 3.0]])
        dyn = NodeDynamics(A=rng.integers(-2, 3, (2, 2)), B=np.eye(2), C=np.eye(2),
                           E=rng.integers(-2, 3, (2, 1)), K=rng.integers(-2, 3, (1, 2)))
        lifted = lifted_markov(x, dyn, NodeSet([1, 3]), NodeSet([2]), 6)
        assert lifted.data.shape == (7, 2, 4) and not lifted.data.flags.writeable
        state = np.kron(np.eye(3), dyn.A) + np.kron(x.entries, dyn.coupling)
        want = np.array(markov_blocks_oracle(state, [1, 2, 5, 6], [3, 4], 6))
        assert lifted.data.tobytes() == want.tobytes()

    def test_matches_dense_matrix_power_oracle(self):
        rng = np.random.default_rng(6)
        g = path(2)
        x = WeightMatrix(g, np.array([[1.0, 2.0], [2.0, 3.0]]))
        dyn = random_dyn(rng, 2)
        lifted = lifted_markov(x, dyn, NodeSet([1]), NodeSet([1]), 6)
        state = np.kron(np.eye(2), dyn.A) + np.kron(x.entries, dyn.coupling)
        m_e = np.kron(np.array([[1.0], [0.0]]), dyn.B)
        n_e = np.kron(np.array([[1.0, 0.0]]), dyn.C)
        for k in range(7):
            want = n_e @ np.linalg.matrix_power(state, k) @ m_e
            np.testing.assert_allclose(lifted.data[k], want, rtol=1e-9, atol=1e-12)

    def test_laurent_series_matches_the_single_channel_transfer_identity(self):
        """The lifted Markov parameters are the Laurent coefficients of the
        lifted transfer matrix, T(s) = sum_k data[k] s^-(k+1), which the
        oracle gets from transfer_eval at the one point 1/g(s).

        |s| = 4 (|A| + |X| |E| |K|) (spectral norms) is at least four times
        the lift's state norm, so the terms past ``order`` add up to at
        most 4^-order of |C| |B| / |s|, the scale of T; the sum must match
        to 1e-10 of that scale."""
        rng = np.random.default_rng(31)
        order = 30
        norm = functools.partial(np.linalg.norm, ord=2)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            x = random_weights(Graph(n, random_connected_edges(rng, n)),
                               seed=int(rng.integers(2**31)))
            q, r, t = (int(v) for v in rng.integers(1, (5, 3, 3)))
            dyn = random_dyn(rng, q, r=r, t=t, s=1)
            v_in, v_out = [sorted(int(v) + 1 for v in rng.choice(
                n, int(rng.integers(1, n + 1)), replace=False)) for _ in range(2)]
            lifted = lifted_markov(x, dyn, v_in, v_out, order)
            modulus = 4 * (norm(dyn.A) + norm(x.entries) * norm(dyn.E) * norm(dyn.K))
            for s in modulus * np.exp(1j * rng.uniform(0, 2 * np.pi, 2)):
                laurent = sum(block * s ** -(k + 1) for k, block in enumerate(lifted.data))
                want = single_channel_transfer(
                    lambda sigma: transfer_eval(x, v_in, v_out, sigma), v_in, v_out,
                    dyn.A, dyn.B, dyn.C, dyn.E, dyn.K, s)
                scale = norm(dyn.C) * norm(dyn.B) / abs(s)
                assert np.abs(laurent - want).max() <= 1e-10 * scale


class TestMixingTables:
    def test_against_word_enumeration(self):
        rng = np.random.default_rng(7)
        for q in (1, 2, 3):
            dyn = random_dyn(rng, q)
            tables = _mixing_tables(dyn, 6)
            for k in (0, 1, 3, 6):
                oracle = word_expansion_oracle(dyn, k)
                for i in range(k + 1):
                    scale = max(1.0, np.abs(oracle[i]).max())
                    assert np.abs(tables[k][i] - oracle[i]).max() <= 1e-9 * scale

    def test_equals_the_per_word_recursion_bit_for_bit(self):
        """The batched tables hold the products of the per-(k, i) recursion."""
        rng = np.random.default_rng(14)
        order = 20
        for q, r, t in ((1, 1, 1), (2, 1, 2), (3, 3, 2), (4, 2, 3)):
            dyn = random_dyn(rng, q, r=r, t=t)
            words = [{0: np.eye(q)}]
            for k in range(1, order + 1):
                prev, cur = words[-1], {}
                for i in range(k + 1):
                    acc = np.zeros((q, q))
                    if i in prev:
                        acc = acc + dyn.A @ prev[i]
                    if i - 1 in prev:
                        acc = acc + dyn.coupling @ prev[i - 1]
                    cur[i] = acc
                words.append(cur)
            tables = _mixing_tables(dyn, order)
            assert tables.shape == (order + 1, order + 1, t, r)
            for k in range(order + 1):
                for i in range(k + 1):
                    want = dyn.C @ words[k][i] @ dyn.B
                    assert tables[k][i].tobytes() == want.tobytes()
                assert not tables[k, k + 1 :].any()

    def test_lifted_blocks_are_the_predicted_mixture(self):
        rng = np.random.default_rng(8)
        g = Graph(3, random_connected_edges(rng, 3))
        x = random_weights(g, seed=11)
        dyn = random_dyn(rng, 2, r=1, t=2, s=1)
        vin, vout = NodeSet([1, 2]), NodeSet([2, 3])
        lifted = lifted_markov(x, dyn, vin, vout, 5)
        base = markov_sequence(x, vin, vout, 5)
        tables = _mixing_tables(dyn, 5)
        for k in range(6):
            mixture = sum(
                np.kron(base.data[i], tables[k][i]) for i in range(k + 1)
            )
            scale = max(1.0, np.abs(lifted.data[k]).max())
            assert np.abs(lifted.data[k] - mixture).max() <= 1e-9 * scale

    def test_kron_mixed_product_identity(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, (3, 3))
        p = rng.uniform(-1, 1, (2, 2))
        q = rng.uniform(-1, 1, (2, 2))
        a, b = 2, 3
        left = np.kron(np.linalg.matrix_power(x, a), p) @ np.kron(
            np.linalg.matrix_power(x, b), q
        )
        right = np.kron(np.linalg.matrix_power(x, a + b), p @ q)
        np.testing.assert_allclose(left, right, atol=1e-10)


class TestDeconvolve:
    def test_round_trip_p3(self):
        rng = np.random.default_rng(10)
        g = path(3)
        x = random_weights(g, seed=21)
        dyn = random_dyn(rng, 2)
        assert coupling_condition(dyn, k_max=8).ok
        vin = vout = NodeSet([1])
        lifted = lifted_markov(x, dyn, vin, vout, 6)
        base = deconvolve(lifted, dyn)
        want = markov_sequence(x, vin, vout, 6)
        for got, ref in zip(base.data, want.data):
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(got - ref).max() <= 1e-8 * scale

    def test_scalar_identity_is_identity_map(self):
        g = path(3)
        x = random_weights(g, seed=2)
        lifted = lifted_markov(x, SCALAR_IDENTITY, NodeSet([1, 3]), NodeSet([1, 3]), 5)
        base = deconvolve(lifted, SCALAR_IDENTITY)
        for got, ref in zip(base.data, lifted.data):
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("v_in, v_out", [([1], []), ([], [1, 3]), ([], [])])
    def test_empty_node_sets_give_empty_blocks(self, v_in, v_out):
        dyn = random_dyn(np.random.default_rng(4), 2)
        x = random_weights(path(3), seed=3)
        base = deconvolve(lifted_markov(x, dyn, NodeSet(v_in), NodeSet(v_out), 4), dyn)
        assert base.data.shape == (5, len(v_out), len(v_in))

    def test_nilpotent_blocks_at_predicted_order(self):
        g = path(3)
        x = random_weights(g, seed=2)
        lifted = lifted_markov(x, NILPOTENT, NodeSet([1]), NodeSet([1]), 6)
        with pytest.raises(DeconvolutionBlockedError) as err:
            deconvolve(lifted, NILPOTENT)
        assert err.value.k == 2

    def test_growing_coupling_returns_exact_powers(self):
        x = WeightMatrix(Graph(1, []), [[0.5]])
        one = NodeSet([1])
        lifted = lifted_markov(x, DOUBLING, one, one, 600)
        base = deconvolve(lifted, DOUBLING)
        assert base.data.shape == (601, 1, 1) and base.order == 600
        np.testing.assert_array_equal(base.data[:, 0, 0], 0.5 ** np.arange(601))

    def test_growing_coupling_is_exact_at_order_1000(self):
        x = WeightMatrix(Graph(1, []), [[0.5]])
        one = NodeSet([1])
        lifted = lifted_markov(x, DOUBLING, one, one, 1000)
        base = deconvolve(lifted, DOUBLING)
        np.testing.assert_array_equal(base.data[:, 0, 0], 0.5 ** np.arange(1001))

    def test_overflowing_coupling_table_blocks_at_order_1024(self):
        # C (EK)^k B = 2^k passes float64 range at k = 1024, though every
        # lifted entry is 1 and every base block 0.5^k is representable.
        x = WeightMatrix(Graph(1, []), [[0.5]])
        one = NodeSet([1])
        lifted = lifted_markov(x, DOUBLING, one, one, 1100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DeconvolutionBlockedError) as err:
                deconvolve(lifted, DOUBLING)
        assert err.value.k == 1024
        assert str(err.value) == ("coupling product C (EK)^1024 B overflows float64: "
                                  "deconvolution blocked at order 1024")

    def test_underflowing_coupling_product_blocks(self):
        # C (EK)^2 B = 1e-400 is zero in float64, so order 2 cannot be divided out.
        dyn = NodeDynamics(A=[[0.0]], B=[[1.0]], C=[[1.0]], E=[[1e-200]], K=[[1.0]])
        x = WeightMatrix(Graph(1, []), [[1.0]])
        one = NodeSet([1])
        lifted = lifted_markov(x, dyn, one, one, 4)
        with pytest.raises(DeconvolutionBlockedError) as err:
            deconvolve(lifted, dyn)
        assert err.value.k == 2

    def test_shape_mismatch_rejected(self):
        g = path(2)
        x = WeightMatrix(g, np.array([[1.0, 2.0], [2.0, 3.0]]))
        lifted = lifted_markov(x, SCALAR_IDENTITY, NodeSet([1]), NodeSet([1]), 3)
        wrong = random_dyn(np.random.default_rng(1), 2)
        with pytest.raises(InputError, match="shape"):
            deconvolve(lifted, wrong)

    def test_tampered_data_is_inconsistent(self):
        rng = np.random.default_rng(12)
        g = path(2)
        x = WeightMatrix(g, np.array([[1.0, 2.0], [2.0, 3.0]]))
        dyn = random_dyn(rng, 2)
        lifted = lifted_markov(x, dyn, NodeSet([1]), NodeSet([1]), 4)
        blocks = [np.array(b) for b in lifted.data]
        blocks[2][0, 1] += 7.0  # break the Kronecker structure
        tampered = MarkovSequence(
            v_in=lifted.v_in, v_out=lifted.v_out, data=tuple(blocks),
        )
        with pytest.raises(InconsistentDataError, match="mismatch"):
            deconvolve(tampered, dyn)

    @pytest.mark.parametrize("seed", range(20))
    def test_zero_block_after_nonzero_ones_is_consistent(self, seed):
        """A zero-diagonal path seen at node 1 has zero base blocks at odd
        orders and nonzero ones at even orders, so at an odd order the
        residual is rounding of the lower-order terms alone: the ratio check
        judges it against that order's data, not against the zero block."""
        rng = np.random.default_rng(seed)
        dyn = random_dyn(rng, 3, r=2, t=2)
        w = rng.uniform(0.5, 2.0)
        x = WeightMatrix(path(2), np.array([[0.0, w], [w, 0.0]]))
        one = NodeSet([1])
        base = deconvolve(lifted_markov(x, dyn, one, one, 6), dyn).data
        want = markov_sequence(x, one, one, 6).data
        assert not want[1::2].any() and want[::2].all()
        assert np.abs(base - want).max() <= 1e-8 * np.abs(want).max()

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_kron_reference_bit_for_bit(self, seed):
        """The block-view update makes the same products as subtracting
        ``np.kron(base_i, R_ki)`` from the flat residual. ``t != r`` and
        ``n_out != n_in`` make any swapped reshape axis show."""
        rng = np.random.default_rng(seed)
        q, t, r = 3, 2, 3
        dyn = random_dyn(rng, q, r=r, t=t, s=2)
        # A coupling that dominates A keeps order 20 inside the ratio check.
        dyn = NodeDynamics(A=0.1 * dyn.A, B=dyn.B, C=dyn.C, E=dyn.E, K=dyn.K)
        assert coupling_condition(dyn, k_max=20).ok
        x = random_weights(path(4), seed=seed)
        lifted = lifted_markov(x, dyn, NodeSet([1, 4]), NodeSet([1, 2, 4]), 20)
        n_in, n_out = 2, 3
        mixing = _mixing_tables(dyn, lifted.order)
        reference = []
        for k in range(lifted.order + 1):
            residual = np.array(lifted.data[k])
            for i in range(k):
                residual -= np.kron(reference[i], mixing[k][i])
            a, b = divmod(int(np.abs(mixing[k][k]).argmax()), r)
            grid = residual.reshape(n_out, t, n_in, r)
            reference.append(grid[:, a, :, b] / mixing[k][k][a, b])
        got = deconvolve(lifted, dyn).data
        assert len(got) == len(reference)
        for block, ref in zip(got, reference):
            assert block.shape == (n_out, n_in)
            assert np.array_equal(block, ref)


def test_end_to_end_recovery_through_lift():
    rng = np.random.default_rng(13)
    done = 0
    while done < 6:
        n = int(rng.integers(3, 7))
        q = int(rng.integers(1, 4))
        g = Graph(n, random_connected_edges(rng, n))
        dyn = random_dyn(rng, q)
        if not coupling_condition(dyn, k_max=2 * q).ok:
            continue
        x = random_weights(g, seed=int(rng.integers(1 << 30)))
        w = zfs_heuristic(g)
        _, chron = derived_set(g, w)
        order = required_order(chron)
        if not coupling_condition(dyn, k_max=order).ok:
            continue
        lifted = lifted_markov(x, dyn, w, w, order)
        recovered = identify(deconvolve(lifted, dyn), g, g.nodes).recovered
        scale = np.abs(x.entries).max()
        assert np.abs(recovered - x.entries).max() <= 1e-5 * scale
        done += 1


ORDER_IN_MESSAGE = re.compile(r"order (\d+)")


def deconvolved(lifted, dyn):
    """The base blocks, or the error class and the orders its message names."""
    try:
        return deconvolve(lifted, dyn).data
    except NetidentError as exc:
        return type(exc), ORDER_IN_MESSAGE.findall(str(exc))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    j=st.integers(-200, 200),
    tamper=st.sampled_from((0.0, 1e-9, 1e-6, 1e-3, 1.0)),
)
def test_deconvolve_is_equivariant_under_power_of_two_scaling(seed, j, tamper):
    """Two outputs and two inputs per node, so the ratio check runs: scaling
    the lifted data by 2^j scales every base block by exactly 2^j, and data
    with one entry off raises the same error at the same order."""
    rng = np.random.default_rng(seed)
    dyn = random_dyn(rng, 3, r=2, t=2)
    x = random_weights(path(4), seed=seed)
    data = lifted_markov(x, dyn, NodeSet([1, 4]), NodeSet([1, 2]), 6).data.copy()
    data[tuple(rng.integers(0, data.shape))] *= 1.0 + tamper
    lifted = MarkovSequence(NodeSet([1, 4]), NodeSet([1, 2]), data)
    base = deconvolved(lifted, dyn)
    scaled = deconvolved(MarkovSequence(lifted.v_in, lifted.v_out, np.ldexp(data, j)), dyn)
    if isinstance(base, tuple):
        assert scaled == base
    else:
        assert scaled.tobytes() == np.ldexp(base, j).tobytes()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), j=st.integers(-500, 500), name=st.sampled_from("BC"))
def test_scaling_b_or_c_changes_no_base_block(seed, j, name):
    rng = np.random.default_rng(seed)
    dyn = random_dyn(rng, 3, r=2, t=2)
    scaled = NodeDynamics(**{**dyn.to_json(), name: np.ldexp(getattr(dyn, name), j)})
    x = random_weights(path(4), seed=seed)
    base, same = (deconvolved(lifted_markov(x, d, [1, 4], [1, 2], 6), d) for d in (dyn, scaled))
    if isinstance(base, tuple):
        assert same == base
    else:
        assert same.tobytes() == base.tobytes()
    assert coupling_condition(scaled) == coupling_condition(dyn)


def sparse_dyn(rng, q, t, r, s, nilpotent, integer=False):
    """Node dynamics with negative and zero entries, small integers with
    ``integer`` (so coupling products tie); with ``nilpotent`` (and q > 1)
    E has zero rows from some i on and K zero columns before i, so EK is
    strictly upper triangular and (EK)^2 = 0 exactly."""
    shapes = dict(zip("ABCEK", ((q, q), (q, r), (t, q), (q, s), (s, q))))
    mats = {name: rng.integers(-2, 3, shape).astype(float) if integer
            else rng.uniform(-1, 1, shape) * (rng.random(shape) < 0.75)
            for name, shape in shapes.items()}
    if nilpotent and q > 1:
        i = int(rng.integers(1, q))
        mats["E"][i:] = 0.0
        mats["K"][:, :i] = 0.0
    return NodeDynamics(**mats)


def outcome(fn):
    """The bytes of ``fn()``, or the error class and message it raises."""
    try:
        return fn().tobytes()
    except NetidentError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    q=st.integers(1, 4),
    tr=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
    s=st.integers(1, 2),
    nilpotent=st.booleans(),
    integer=st.booleans(),
    tamper=st.sampled_from((0.0, 1e-9, 1e-3, 1.0)),
)
def test_deconvolve_equals_the_per_order_reference(seed, q, tr, s, nilpotent, integer, tamper):
    """The checks computed for all orders up front give the same blocks, or
    the same error and message, as the loop that makes them order by order;
    with t r > 1 the cross-check runs, integer dynamics make the entries it
    ranks tie, and one lifted entry may be off."""
    rng = np.random.default_rng(seed)
    dyn = sparse_dyn(rng, q, *tr, s, nilpotent, integer)
    n = int(rng.integers(1, 6))
    x = random_weights(Graph(n, random_connected_edges(rng, n)), seed=seed)
    v_in, v_out = (NodeSet(int(v) + 1 for v in rng.choice(n, int(rng.integers(1, n + 1)),
                                                          replace=False)) for _ in range(2))
    data = lifted_markov(x, dyn, v_in, v_out, int(rng.integers(0, 13))).data.copy()
    data[tuple(rng.integers(0, data.shape))] *= 1.0 + tamper
    lifted = MarkovSequence(v_in, v_out, data)
    got = outcome(lambda: deconvolve(lifted, dyn).data)
    assert got == outcome(lambda: reference_deconvolve(lifted, dyn))
    k_max = int(rng.integers(0, 60))
    assert coupling_condition(dyn, k_max) == reference_coupling_condition(dyn, k_max)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), q=st.integers(2, 4),
       k_max=st.integers(0, COUPLING_MAX_ORDER))
def test_coupling_condition_equals_the_per_order_reference_on_a_nilpotent_coupling(
        seed, q, k_max):
    rng = np.random.default_rng(seed)
    dyn = sparse_dyn(rng, q, *rng.integers(1, 3, 3), nilpotent=True)
    assert coupling_condition(dyn, k_max) == reference_coupling_condition(dyn, k_max)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 5),
    q=st.integers(1, 3),
    trs=st.tuples(*[st.integers(1, 2)] * 3),
    order=st.integers(0, 6),
)
def test_lift_equals_the_kron_build_bit_for_bit(seed, n, q, trs, order):
    """Zero and negative entries, and a zero diagonal half of the time, make
    0.0 * (-x) = -0.0 products; node sets may be empty."""
    rng = np.random.default_rng(seed)
    dyn = sparse_dyn(rng, q, *trs, nilpotent=False)
    g = Graph(n, random_connected_edges(rng, n))
    entries = random_weights(g, seed=seed).entries * (1.0 - np.eye(n) * rng.integers(0, 2))
    x = WeightMatrix(g, entries)
    v_in, v_out = (sorted(int(v) + 1 for v in rng.choice(n, int(rng.integers(0, n + 1)),
                                                         replace=False)) for _ in range(2))
    got = lifted_markov(x, dyn, v_in, v_out, order).data
    want = kron_lift(x.entries, dyn.A, dyn.B, dyn.C, dyn.E, dyn.K, v_in, v_out, order)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    a, b = x.entries, dyn.coupling
    assert _kron(a, b).tobytes() == np.kron(a, b).tobytes()


def test_kron_keeps_negative_zeros():
    a, b = np.array([[0.0, 1.0]]), np.array([[-2.0], [0.0]])
    assert _kron(a, b).tobytes() == np.kron(a, b).tobytes()
    assert np.signbit(_kron(a, b)).tolist() == [[True, True], [False, False]]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 30), q=st.integers(1, 6),
       exp=st.integers(-100, 100))
def test_stacked_norms_equal_numpy_norm_bit_for_bit(seed, m, q, exp):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((m, q, q)) * (rng.random((m, q, q)) < 0.7) * 10.0 ** exp
    want = np.array([np.linalg.norm(power) for power in stack])
    assert _stack_norms(stack).shape == (m, 1, 1)
    assert _stack_norms(stack)[:, 0, 0].tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), j=st.integers(-1000, 1000))
def test_scaled_norm_is_numpy_norm_in_the_normal_range_and_scales_past_it(seed, j):
    rng = np.random.default_rng(seed)
    mat = rng.uniform(-1, 1, tuple(rng.integers(1, 4, 2)))
    assert _scaled_norm(mat) == np.linalg.norm(mat)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _scaled_norm(np.ldexp(mat, j)) == np.ldexp(np.linalg.norm(mat), j)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), j=st.integers(600, 900),
       sign=st.sampled_from((-1, 1)), name=st.sampled_from("BC"))
def test_scaling_b_or_c_far_out_changes_nothing(seed, j, sign, name):
    """Past 2^±512 the squares in norm(C) or norm(B) leave float64 range;
    the coupling test and the blocks still do not move."""
    rng = np.random.default_rng(seed)
    dyn = random_dyn(rng, 3, r=2, t=2)
    scaled = NodeDynamics(**{**dyn.to_json(), name: np.ldexp(getattr(dyn, name), sign * j)})
    x = random_weights(path(4), seed=seed)
    base, same = (deconvolved(lifted_markov(x, d, [1, 4], [1, 2], 6), d) for d in (dyn, scaled))
    if isinstance(base, tuple):
        assert same == base
    else:
        assert same.tobytes() == base.tobytes()
    assert coupling_condition(scaled) == coupling_condition(dyn)
