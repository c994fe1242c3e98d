import warnings

import numpy as np
import pytest

from netident import (
    DegenerateWeightError,
    ForcingChronicle,
    Graph,
    InconsistentDataError,
    InputError,
    InsufficientOrderError,
    MarkovSequence,
    NodeSet,
    UncertifiedTargetError,
    WeightMatrix,
    derived_set,
    identify,
    markov_sequence,
    random_weights,
    required_order,
    zfs_heuristic,
)

from oracles import (
    markov_blocks_oracle,
    random_connected_edges,
    random_tree_edges,
)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


P2 = path(2)
X2 = np.array([[1.0, 2.0], [2.0, 3.0]])


def grid(a):
    def node(r, c):
        return r * a + c + 1

    edges = [(node(r, c), node(r, c + 1)) for r in range(a) for c in range(a - 1)]
    edges += [(node(r, c), node(r + 1, c)) for r in range(a - 1) for c in range(a)]
    return Graph(a * a, edges)


def seq_from_raw(entries, v_in, v_out, order):
    """Markov sequence built straight from matrix powers (oracle path)."""
    blocks = markov_blocks_oracle(entries, v_in, v_out, order)
    return MarkovSequence(
        v_in=NodeSet(v_in), v_out=NodeSet(v_out), order=order, data=tuple(blocks)
    )


class TestRequiredOrder:
    def test_no_forces(self):
        assert required_order(ForcingChronicle(initial=NodeSet([1]))) == 2

    def test_three_forces(self):
        chron = ForcingChronicle(initial=NodeSet([1]), forces=((1, 2), (2, 3), (3, 4)))
        assert required_order(chron) == 8

    def test_json_without_rounds_counts_every_force(self):
        blob = {"initial": [1], "forces": [[1, 2], [2, 3], [3, 4]]}
        assert required_order(ForcingChronicle.from_json(blob)) == 8
        assert required_order(ForcingChronicle.from_json({**blob, "rounds": [3]})) == 4

    def test_path_chronicle_length(self):
        _, chron = derived_set(path(4), NodeSet([1]))
        assert len(chron.forces) == 3
        assert required_order(chron) == 8


class TestForceStep:
    """One forcing round on P2, replayed by identify."""

    def test_worked_two_node_example(self):
        markov = markov_sequence(WeightMatrix(P2, X2), [1], [1], 4)
        result = identify(markov, P2, [1, 2])
        # X_12 = sqrt(5 - 1) = 2, then X_22 = (21 - 1 - 4 - 4) / 4 = 3.
        assert result.recovered[0, 1] == pytest.approx(2.0)
        assert result.recovered[1, 1] == pytest.approx(3.0)
        assert result.diagnostics[0].weight == pytest.approx(2.0)
        assert result.residual_order == 2

    def test_order_two_table_is_insufficient(self):
        markov = markov_sequence(WeightMatrix(P2, X2), [1], [1], 2)
        with pytest.raises(InsufficientOrderError, match="needs order 4") as err:
            identify(markov, P2, [1, 2])
        assert err.value.required == 4

    def test_degenerate_edge_weight(self):
        # Claimed graph P2 but the generator carries no (1,2) coupling.
        markov = seq_from_raw(np.diag([1.0, 3.0]), [1], [1], 4)
        with pytest.raises(DegenerateWeightError, match="vanishing"):
            identify(markov, P2, [1, 2])

    def test_negative_square_is_inconsistent(self):
        # Handcrafted data no symmetric matrix can produce: (X^2)_11 < X_11^2.
        data = tuple(np.array([[v]]) for v in (1.0, 2.0, 1.0, 0.0, 0.0))
        markov = MarkovSequence(v_in=NodeSet([1]), v_out=NodeSet([1]), order=4, data=data)
        with pytest.raises(InconsistentDataError, match="negative"):
            identify(markov, P2, [1, 2])


class TestIdentify:
    def test_unit_laplacian_p3_exact(self):
        g = path(3)
        x = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
        markov = seq_from_raw(x, [1], [1], 6)
        result = identify(markov, g, g.nodes)
        assert np.abs(result.recovered - x).max() <= 1e-9

    def test_round_trip_random_trees(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            n = int(rng.integers(2, 11))
            g = Graph(n, random_tree_edges(rng, n))
            x = random_weights(g, seed=int(rng.integers(1 << 30)))
            w = zfs_heuristic(g)
            _, chron = derived_set(g, w)
            markov = markov_sequence(x, w, w, required_order(chron))
            result = identify(markov, g, g.nodes)
            scale = np.abs(x.entries).max()
            assert np.abs(result.recovered - x.entries).max() <= 1e-6 * scale

    def test_target_equals_seed_returns_block_verbatim(self):
        markov = markov_sequence(WeightMatrix(P2, X2), [1, 2], [1, 2], 2)
        result = identify(markov, P2, [1, 2])
        np.testing.assert_array_equal(result.recovered, markov.data[1])
        assert result.diagnostics == ()
        assert result.residual_order == 2

    def test_non_edges_inside_target_stay_zero(self):
        g = path(3)
        x = random_weights(g, seed=12)
        w = NodeSet([1])
        _, chron = derived_set(g, w)
        markov = markov_sequence(x, w, w, required_order(chron))
        result = identify(markov, g, g.nodes)
        assert result.recovered[0, 2] == 0.0
        assert result.recovered[2, 0] == 0.0

    def test_uncertified_target(self):
        g = path(3)
        markov = markov_sequence(random_weights(g, seed=3), [2], [2], 6)
        with pytest.raises(UncertifiedTargetError, match="identifiability.certify"):
            identify(markov, g, [1])

    def test_blocks_must_match_the_node_sets(self):
        g = path(3)
        good = markov_sequence(random_weights(g, seed=3), [1], [1], 6)
        wide = MarkovSequence(v_in=NodeSet([1, 2]), v_out=good.v_out, order=6,
                              data=good.data)
        with pytest.raises(InputError, match="shape"):
            identify(wide, g, g.nodes)

    def test_data_beyond_float64_range_is_refused(self):
        # Finite data whose replay overflows: no NaN, inf or warning comes back.
        data = tuple(np.array([[v]]) for v in (1.0, 10.0) + (1e307,) * 7)
        markov = MarkovSequence(v_in=NodeSet([1]), v_out=NodeSet([1]), order=8, data=data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="not finite"):
                identify(markov, path(4), [1, 2, 3, 4])

    def test_overflowing_overlap_is_refused_without_a_warning(self):
        # 0.5 * (1e308 + 1e308) overflows while the overlap is symmetrised.
        data = tuple(np.array([[v]]) for v in (1.0, 10.0, 1e308, 1.0, 1.0, 1.0, 1.0))
        markov = MarkovSequence(v_in=NodeSet([1]), v_out=NodeSet([1]), order=6, data=data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="beyond float64 range"):
                identify(markov, path(3), [1, 2, 3])

    def test_insufficient_order_names_requirement(self):
        g = path(3)
        w = NodeSet([1])
        markov = markov_sequence(random_weights(g, seed=3), w, w, 3)
        with pytest.raises(InsufficientOrderError) as err:
            identify(markov, g, g.nodes)  # two forces need order 6
        assert err.value.required == 6

    def test_partial_target_uses_shorter_prefix(self):
        # Recovering only up to node 2 on P4 needs one force, order 4.
        g = path(4)
        x = random_weights(g, seed=9)
        markov = markov_sequence(x, [1], [1], 4)
        result = identify(markov, g, [1, 2])
        expected = x.entries[:2, :2]
        assert np.abs(result.recovered - expected).max() <= 1e-9 * np.abs(x.entries).max()
        assert len(result.diagnostics) == 1

    def test_more_data_never_changes_values(self):
        rng = np.random.default_rng(51)
        for _ in range(8):
            n = int(rng.integers(3, 9))
            g = Graph(n, random_connected_edges(rng, n))
            x = random_weights(g, seed=int(rng.integers(1 << 30)))
            w = zfs_heuristic(g)
            _, chron = derived_set(g, w)
            base_order = required_order(chron)
            lean = identify(markov_sequence(x, w, w, base_order), g, g.nodes)
            rich = identify(markov_sequence(x, w, w, base_order + 5), g, g.nodes)
            np.testing.assert_array_equal(lean.recovered, rich.recovered)

    def test_diagnostics_record_weights(self):
        g = path(3)
        x = random_weights(g, seed=8)
        w = NodeSet([1])
        _, chron = derived_set(g, w)
        markov = markov_sequence(x, w, w, required_order(chron))
        result = identify(markov, g, g.nodes)
        assert [d.step for d in result.diagnostics] == [1, 2]
        assert result.diagnostics[0].weight == pytest.approx(x.entries[0, 1], rel=1e-9)

    def test_diagnostics_weights_are_the_recovered_entries(self):
        g = grid(8)
        w = zfs_heuristic(g)
        _, chron = derived_set(g, w)
        markov = markov_sequence(random_weights(g, seed=1), w, w, required_order(chron))
        result = identify(markov, g, g.nodes)
        assert len(result.diagnostics) == len(chron.forces)
        for d in result.diagnostics:
            assert d.weight == result.recovered[d.forcing_node - 1, d.forced_node - 1]

    def test_recovered_edges_strictly_positive(self):
        rng = np.random.default_rng(61)
        for _ in range(8):
            n = int(rng.integers(2, 9))
            g = Graph(n, random_connected_edges(rng, n))
            x = random_weights(g, seed=int(rng.integers(1 << 30)))
            w = zfs_heuristic(g)
            _, chron = derived_set(g, w)
            markov = markov_sequence(x, w, w, required_order(chron))
            rec = identify(markov, g, g.nodes).recovered
            for i, j in g.edges:
                assert rec[i - 1, j - 1] > 0.0


class TestPastTheForceWall:
    """Heuristic-seeded grids finish forcing in three propagation rounds.

    Replayed one force per round they need orders up to 2L + 2 (30 to 118
    here) and lose all precision; replayed by rounds they need order 8.
    """

    @pytest.mark.parametrize("side", [8, 10, 12, 30])
    def test_grid_recovers_with_order_eight(self, side):
        g = grid(side)
        w = zfs_heuristic(g)
        _, chron = derived_set(g, w)
        assert required_order(chron) == 8
        x = random_weights(g, seed=1)
        markov = markov_sequence(x, w, w, required_order(chron))
        result = identify(markov, g, g.nodes)
        err = np.linalg.norm(result.recovered - x.entries) / np.linalg.norm(x.entries)
        assert err <= 1e-10
        assert [d.round for d in result.diagnostics] == sorted(
            d.round for d in result.diagnostics
        )
        assert result.diagnostics[-1].round == 3
