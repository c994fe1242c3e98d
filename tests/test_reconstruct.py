import numpy as np
import pytest

from netident import (
    DegenerateWeightError,
    ExtendedMarkovTable,
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
    force_round,
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
    def test_worked_two_node_example(self):
        markov = markov_sequence(WeightMatrix(P2, X2), [1], [1], 4)
        table = ExtendedMarkovTable.from_markov(markov)
        assert table.level_set == NodeSet([1])
        assert table.max_order == 4
        stepped = force_round(table, P2, [(1, 2)])
        # X_12 = sqrt(5 - 1) = 2, then X_22 = (21 - 1 - 4 - 4) / 4 = 3.
        assert stepped.get(1, 1, 2) == pytest.approx(2.0)
        assert stepped.get(1, 2, 2) == pytest.approx(3.0)
        assert stepped.level_set == NodeSet([1, 2])
        assert stepped.max_order == 2

    def test_intermediate_entries_match_matrix_powers(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            g = Graph(n, random_connected_edges(rng, n))
            x = random_weights(g, seed=int(rng.integers(1 << 30)))
            w = zfs_heuristic(g)
            _, chron = derived_set(g, w)
            markov = markov_sequence(x, w, w, required_order(chron))
            table = ExtendedMarkovTable.from_markov(markov)
            for forces in chron.round_forces():
                table = force_round(table, g, forces)
            powers = {1: x.entries}
            for k in range(2, table.max_order + 1):
                powers[k] = powers[k - 1] @ x.entries
            scale = max(1.0, np.abs(x.entries).max())
            for k in range(1, table.max_order + 1):
                ref_scale = max(1.0, np.abs(powers[k]).max())
                for i in table.level_set:
                    for j in table.level_set:
                        got = table.get(k, i, j)
                        want = powers[k][i - 1, j - 1]
                        assert abs(got - want) <= 1e-8 * ref_scale, (k, i, j)
            assert scale  # generator well-formed

    def test_round_rejects_dependent_and_duplicate_forces(self):
        g = path(3)
        table = ExtendedMarkovTable.from_markov(
            markov_sequence(random_weights(g, seed=1), [1], [1], 6)
        )
        with pytest.raises(InputError, match="forcing node 2 is not in the level set"):
            force_round(table, g, [(1, 2), (2, 3)])
        star = Graph(3, [(1, 2), (1, 3)])
        table = ExtendedMarkovTable.from_markov(
            markov_sequence(random_weights(star, seed=1), [2, 3], [2, 3], 6)
        )
        with pytest.raises(InputError, match="forced twice"):
            force_round(table, star, [(2, 1), (3, 1)])

    @pytest.mark.parametrize("bad", [1.5, "2", True])
    def test_non_integral_force_is_refused(self, bad):
        g = path(3)
        table = ExtendedMarkovTable.from_markov(
            markov_sequence(random_weights(g, seed=1), [1, 2], [1, 2], 6)
        )
        # As forcing node (2 is in the level set) and as forced node (3 is not).
        for forces in ([(bad, 3)], [(2, bad)]):
            with pytest.raises(InputError, match="must be an integer"):
                force_round(table, g, forces)

    def test_integral_force_values_pass(self):
        g = path(3)
        table = ExtendedMarkovTable.from_markov(
            markov_sequence(random_weights(g, seed=1), [1, 2], [1, 2], 6)
        )
        want = force_round(table, g, [(2, 3)])
        for forces in ([(2.0, 3.0)], [(np.int64(2), np.int32(3))]):
            got = force_round(table, g, forces)
            assert got.level_set == want.level_set
            np.testing.assert_array_equal(got.powers, want.powers)

    def test_second_white_neighbour_violates_precondition(self):
        # Star centre with one black leaf: two whites in the way.
        star = Graph(4, [(1, 2), (1, 3), (1, 4)])
        markov = markov_sequence(random_weights(star, seed=1), [1], [1], 6)
        table = ExtendedMarkovTable.from_markov(markov)
        with pytest.raises(InputError, match="precondition"):
            force_round(table, star, [(1, 2)])

    def test_non_edge_cannot_be_forced(self):
        g = path(3)
        markov = markov_sequence(random_weights(g, seed=1), [1], [1], 6)
        table = ExtendedMarkovTable.from_markov(markov)
        with pytest.raises(InputError, match="not an edge"):
            force_round(table, g, [(1, 3)])

    def test_order_two_table_is_insufficient(self):
        markov = markov_sequence(WeightMatrix(P2, X2), [1], [1], 2)
        table = ExtendedMarkovTable.from_markov(markov)
        with pytest.raises(InsufficientOrderError, match="2L\\+2"):
            force_round(table, P2, [(1, 2)])

    def test_degenerate_edge_weight(self):
        # Claimed graph P2 but the generator carries no (1,2) coupling.
        markov = seq_from_raw(np.diag([1.0, 3.0]), [1], [1], 4)
        table = ExtendedMarkovTable.from_markov(markov)
        with pytest.raises(DegenerateWeightError, match="vanishing"):
            force_round(table, P2, [(1, 2)])

    def test_negative_square_is_inconsistent(self):
        # Handcrafted data no symmetric matrix can produce: (X^2)_11 < X_11^2.
        table = ExtendedMarkovTable(
            level_set=NodeSet([1]),
            max_order=4,
            powers=np.array([1.0, 2.0, 1.0, 0.0, 0.0]).reshape(5, 1, 1),
        )
        with pytest.raises(InconsistentDataError, match="negative"):
            force_round(table, P2, [(1, 2)])


class TestTable:
    def test_rejects_wrong_shape_and_asymmetry(self):
        with pytest.raises(InputError, match="shape"):
            ExtendedMarkovTable(NodeSet([1, 2]), 2, np.zeros((2, 2, 2)))
        lopsided = np.zeros((3, 2, 2))
        lopsided[1, 0, 1] = 1.0
        with pytest.raises(InputError, match="symmetric"):
            ExtendedMarkovTable(NodeSet([1, 2]), 2, lopsided)

    def test_get_outside_table(self):
        markov = markov_sequence(WeightMatrix(P2, X2), [1], [1], 4)
        table = ExtendedMarkovTable.from_markov(markov, 3)
        assert table.max_order == 3 and table.get(3, 1, 1) == 21.0
        for k, i, j in ((4, 1, 1), (-1, 1, 1), (1, 1, 2)):
            with pytest.raises(InputError, match="unavailable"):
                table.get(k, i, j)


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
