import itertools

import numpy as np
import pytest

from netident import (
    DeconvolutionBlockedError,
    Graph,
    InconsistentDataError,
    InputError,
    LiftedSystem,
    MarkovSequence,
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
from netident.higher_order import _mixing_tables

from oracles import random_connected_edges


def path(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


SCALAR_IDENTITY = NodeDynamics(
    A=[[0.0]], B=[[1.0]], C=[[1.0]], E=[[1.0]], K=[[1.0]]
)

NILPOTENT = NodeDynamics(
    A=np.zeros((2, 2)), B=np.eye(2), C=np.eye(2),
    E=[[1.0], [0.0]], K=[[0.0, 1.0]],
)


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

    def test_report_json(self):
        blob = coupling_condition(NILPOTENT).to_json()
        assert blob["first_failure"] == 2
        assert not blob["ok"]


class TestLiftedMarkov:
    def test_scalar_identity_reduces_to_base(self):
        g = path(3)
        x = random_weights(g, seed=4)
        sys_ = LiftedSystem(weights=x, dyn=SCALAR_IDENTITY,
                            v_in=NodeSet([1]), v_out=NodeSet([1, 2]))
        lifted = lifted_markov(sys_, 5)
        base = markov_sequence(x, [1], [1, 2], 5)
        for a, b in zip(lifted.data, base.data):
            np.testing.assert_allclose(a, b, atol=1e-13)

    def test_order_zero_is_selection_kron(self):
        g = path(2)
        x = WeightMatrix(g, np.array([[1.0, 2.0], [2.0, 3.0]]))
        dyn = random_dyn(np.random.default_rng(5), 2, r=1, t=2)
        sys_ = LiftedSystem(weights=x, dyn=dyn, v_in=NodeSet([1, 2]), v_out=NodeSet([2]))
        lifted = lifted_markov(sys_, 0)
        nm = np.array([[0.0, 1.0]])  # N M for v_out={2}, v_in={1,2}
        np.testing.assert_allclose(lifted.data[0], np.kron(nm, dyn.C @ dyn.B))

    def test_matches_dense_matrix_power_oracle(self):
        rng = np.random.default_rng(6)
        g = path(2)
        x = WeightMatrix(g, np.array([[1.0, 2.0], [2.0, 3.0]]))
        dyn = random_dyn(rng, 2)
        sys_ = LiftedSystem(weights=x, dyn=dyn, v_in=NodeSet([1]), v_out=NodeSet([1]))
        lifted = lifted_markov(sys_, 6)
        state = np.kron(np.eye(2), dyn.A) + np.kron(x.entries, dyn.coupling)
        m_e = np.kron(np.array([[1.0], [0.0]]), dyn.B)
        n_e = np.kron(np.array([[1.0, 0.0]]), dyn.C)
        for k in range(7):
            want = n_e @ np.linalg.matrix_power(state, k) @ m_e
            np.testing.assert_allclose(lifted.data[k], want, rtol=1e-9, atol=1e-12)


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
        lifted = lifted_markov(
            LiftedSystem(weights=x, dyn=dyn, v_in=vin, v_out=vout), 5
        )
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
        lifted = lifted_markov(LiftedSystem(weights=x, dyn=dyn, v_in=vin, v_out=vout), 6)
        base = deconvolve(lifted, dyn)
        want = markov_sequence(x, vin, vout, 6)
        for got, ref in zip(base.data, want.data):
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(got - ref).max() <= 1e-8 * scale

    def test_scalar_identity_is_identity_map(self):
        g = path(3)
        x = random_weights(g, seed=2)
        lifted = lifted_markov(
            LiftedSystem(weights=x, dyn=SCALAR_IDENTITY,
                         v_in=NodeSet([1, 3]), v_out=NodeSet([1, 3])),
            5,
        )
        base = deconvolve(lifted, SCALAR_IDENTITY)
        for got, ref in zip(base.data, lifted.data):
            np.testing.assert_array_equal(got, ref)

    def test_nilpotent_blocks_at_predicted_order(self):
        g = path(3)
        x = random_weights(g, seed=2)
        lifted = lifted_markov(
            LiftedSystem(weights=x, dyn=NILPOTENT, v_in=NodeSet([1]), v_out=NodeSet([1])),
            6,
        )
        with pytest.raises(DeconvolutionBlockedError) as err:
            deconvolve(lifted, NILPOTENT)
        assert err.value.k == 2

    def test_shape_mismatch_rejected(self):
        g = path(2)
        x = WeightMatrix(g, np.array([[1.0, 2.0], [2.0, 3.0]]))
        lifted = lifted_markov(
            LiftedSystem(weights=x, dyn=SCALAR_IDENTITY,
                         v_in=NodeSet([1]), v_out=NodeSet([1])),
            3,
        )
        wrong = random_dyn(np.random.default_rng(1), 2)
        with pytest.raises(InputError, match="shape"):
            deconvolve(lifted, wrong)

    def test_tampered_data_is_inconsistent(self):
        rng = np.random.default_rng(12)
        g = path(2)
        x = WeightMatrix(g, np.array([[1.0, 2.0], [2.0, 3.0]]))
        dyn = random_dyn(rng, 2)
        lifted = lifted_markov(
            LiftedSystem(weights=x, dyn=dyn, v_in=NodeSet([1]), v_out=NodeSet([1])), 4
        )
        blocks = [np.array(b) for b in lifted.data]
        blocks[2][0, 1] += 7.0  # break the Kronecker structure
        tampered = MarkovSequence(
            v_in=lifted.v_in, v_out=lifted.v_out, order=lifted.order,
            data=tuple(blocks),
        )
        with pytest.raises(InconsistentDataError, match="mismatch"):
            deconvolve(tampered, dyn)

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
        lifted = lifted_markov(
            LiftedSystem(weights=x, dyn=dyn, v_in=NodeSet([1, 4]),
                         v_out=NodeSet([1, 2, 4])),
            20,
        )
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
        lifted = lifted_markov(LiftedSystem(weights=x, dyn=dyn, v_in=w, v_out=w), order)
        recovered = identify(deconvolve(lifted, dyn), g, g.nodes).recovered
        scale = np.abs(x.entries).max()
        assert np.abs(recovered - x.entries).max() <= 1e-5 * scale
        done += 1
