import json
import re
import runpy
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import netident

from netident import (
    DegenerateWeightError,
    ForceStepRecord,
    ForcingChronicle,
    Graph,
    InconsistentDataError,
    InputError,
    InsufficientOrderError,
    MarkovSequence,
    NetidentError,
    NodeSet,
    UncertifiedTargetError,
    WeightMatrix,
    derived_set,
    identify,
    markov_sequence,
    minimum_zero_forcing_set,
    random_weights,
    required_order,
    zfs_heuristic,
)
from netident.reconstruct import DEGENERACY_TOL

from oracles import (
    grid,
    markov_blocks_oracle,
    path,
    random_connected_edges,
    random_tree_edges,
    reference_identify,
)


P2 = path(2)
X2 = np.array([[1.0, 2.0], [2.0, 3.0]])


def seq_from_raw(entries, v_in, v_out, order):
    """Markov sequence built straight from matrix powers (oracle path)."""
    blocks = markov_blocks_oracle(entries, v_in, v_out, order)
    return MarkovSequence(
        v_in=NodeSet(v_in), v_out=NodeSet(v_out), data=tuple(blocks)
    )


class TestRequiredOrder:
    def test_no_forces(self):
        assert required_order(ForcingChronicle(initial=NodeSet([1]))) == 2

    def test_three_forces(self):
        chron = ForcingChronicle(initial=NodeSet([1]), forces=((1, 2), (2, 3), (3, 4)),
                                 rounds=(1, 1, 1))
        assert required_order(chron) == 8

    def test_json_rounds_set_the_order(self):
        blob = {"initial": [1], "forces": [[1, 2], [2, 3], [3, 4]], "rounds": [1, 1, 1]}
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
        markov = MarkovSequence(v_in=NodeSet([1]), v_out=NodeSet([1]), data=data)
        with pytest.raises(InconsistentDataError, match="negative"):
            identify(markov, P2, [1, 2])


class TestForceStepRecord:
    """The record's public surface: constructors, JSON, immutability."""

    def test_positional_and_keyword_construction_agree(self):
        by_position = ForceStepRecord(3, 2, 5, 7, 0.25)  # as tests/oracles.py builds it
        by_keyword = ForceStepRecord(step=3, round=2, forcing_node=5, forced_node=7,
                                     weight=0.25)
        assert by_position == by_keyword
        assert (by_position.step, by_position.round, by_position.forcing_node,
                by_position.forced_node, by_position.weight) == (3, 2, 5, 7, 0.25)

    def test_to_json(self):
        assert ForceStepRecord(3, 2, 5, 7, 0.25).to_json() == {
            "step": 3, "round": 2, "force": [5, 7], "weight": 0.25,
        }

    def test_fields_cannot_be_assigned(self):
        record = ForceStepRecord(1, 1, 1, 2, 2.0)
        with pytest.raises(AttributeError):
            record.weight = 3.0

    def test_worked_example_json_matches_the_reference_byte_for_byte(self):
        markov = markov_sequence(WeightMatrix(P2, X2), [1], [1], 4)
        got = identify(markov, P2, [1, 2])
        want = reference_identify(markov, P2, [1, 2])
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())
        assert got.diagnostics == want.diagnostics

    def test_demo_03_prints_what_the_reference_prints(self, capsys, monkeypatch):
        demo = str(Path(__file__).resolve().parent.parent / "demos" / "03_weight_recovery.py")
        runpy.run_path(demo, run_name="__main__")
        printed = capsys.readouterr().out
        monkeypatch.setattr(netident, "identify", reference_identify)
        runpy.run_path(demo, run_name="__main__")
        assert capsys.readouterr().out == printed
        assert "step 1 (round 1)" in printed


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

    def test_non_edges_inside_target_stay_zero(self):
        g = path(3)
        x = random_weights(g, seed=12)
        w = NodeSet([1])
        _, chron = derived_set(g, w)
        markov = markov_sequence(x, w, w, required_order(chron))
        result = identify(markov, g, g.nodes)
        assert result.recovered[0, 2] == 0.0
        assert result.recovered[2, 0] == 0.0

    @pytest.mark.parametrize("x13", [0.3, 1e-9])
    def test_weight_on_a_non_edge_is_noted_and_omitted(self, x13):
        # P3 with overlap {1, 3}; the data comes from a matrix that couples 1 and 3.
        x = np.array([[1.0, 0.5, x13], [0.5, 2.0, 0.7], [x13, 0.7, 1.5]])
        result = identify(seq_from_raw(x, [1, 3], [1, 3], 4), path(3), [1, 2, 3])
        assert result.recovered[0, 2] == 0.0
        expected = ("non-edge (1,3) carries weight 3.000e-01 in the measured data; "
                    "entry omitted from the result",)
        assert result.notes == (expected if x13 > 1e-6 else ())

    def test_uncertified_target(self):
        g = path(3)
        markov = markov_sequence(random_weights(g, seed=3), [2], [2], 6)
        with pytest.raises(UncertifiedTargetError, match="identifiability.certify"):
            identify(markov, g, [1])

    def test_blocks_must_match_the_node_sets(self):
        g = path(3)
        good = markov_sequence(random_weights(g, seed=3), [1], [1], 6)
        wide = MarkovSequence(v_in=NodeSet([1, 2]), v_out=good.v_out, data=good.data)
        with pytest.raises(InputError, match="shape"):
            identify(wide, g, g.nodes)

    def test_data_beyond_float64_range_is_refused(self):
        # Finite data whose replay overflows: no NaN, inf or warning comes back.
        data = tuple(np.array([[v]]) for v in (1.0, 10.0) + (1e307,) * 7)
        markov = MarkovSequence(v_in=NodeSet([1]), v_out=NodeSet([1]), data=data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="not finite"):
                identify(markov, path(4), [1, 2, 3, 4])

    def test_overflowing_overlap_is_refused_without_a_warning(self):
        # 0.5 * (1e308 + 1e308) overflows while the overlap is symmetrised.
        data = tuple(np.array([[v]]) for v in (1.0, 10.0, 1e308, 1.0, 1.0, 1.0, 1.0))
        markov = MarkovSequence(v_in=NodeSet([1]), v_out=NodeSet([1]), data=data)
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

    def test_partial_target_is_the_full_block_on_the_graph_pattern(self):
        rng = np.random.default_rng(71)
        for _ in range(300):
            n = int(rng.integers(5, 15))
            edges = random_connected_edges(rng, n)
            g = Graph(n, edges)
            x = random_weights(g, seed=int(rng.integers(1 << 30)))
            w = zfs_heuristic(g)
            _, chron = derived_set(g, w)
            markov = markov_sequence(x, w, w, required_order(chron))
            full = identify(markov, g, g.nodes).recovered
            target = np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False))
            rec = identify(markov, g, (target + 1).tolist()).recovered
            assert np.array_equal(rec, full[np.ix_(target, target)])
            pattern = np.eye(n, dtype=bool)
            for i, j in edges:
                pattern[i - 1, j - 1] = pattern[j - 1, i - 1] = True
            assert not rec[~pattern[np.ix_(target, target)]].any()

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


class TestChecksAfterTheLoop:
    """The squared weights are checked once every round has run, first force first."""

    # Two components replayed side by side: A = 1-2-3 from node 1 forces
    # (1,2), (2,3) in rounds 1-2; B = 4-...-8 from node 4 forces
    # (4,5), (5,6), (6,7), (7,8) in rounds 1-4.
    G = Graph(8, [(1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (7, 8)])
    W = [1, 4]

    def data(self, x23):
        x = np.zeros((8, 8))
        for (i, j), weight in zip(self.G.edges, (1.0, x23, 1.0, 0.9, 1.1, 0.8)):
            x[i - 1, j - 1] = x[j - 1, i - 1] = weight
        np.fill_diagonal(x, [0.3, -0.2, 0.1, 0.4, -0.1, 0.2, 0.3, -0.3])
        blocks = np.array(markov_blocks_oracle(x, self.W, self.W, 10))
        # Of the squared weights, only round 4's reads order 8 at node 4.
        blocks[8, 1, 1] -= 10.0
        return MarkovSequence(v_in=NodeSet(self.W), v_out=NodeSet(self.W), data=blocks)

    def test_first_bad_force_wins_over_a_later_one(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # With a sound round 2, round 4's squared weight is negative...
            with pytest.raises(InconsistentDataError, match=r"edge \(7,8\) is negative"):
                identify(self.data(1.0), self.G, self.G.nodes)
            # ...and a vanishing one in round 2 is reported first.
            with pytest.raises(DegenerateWeightError, match=r"forced edge \(2,3\) has vanishing"):
                identify(self.data(1e-7), self.G, self.G.nodes)

    def test_negative_weight_in_round_one(self):
        # (X^2)_{11} = 1 < X_{11}^2 = 4 on a path seeded at one end.
        data = tuple(np.array([[v]]) for v in (1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0))
        markov = MarkovSequence(v_in=NodeSet([1]), v_out=NodeSet([1]), data=data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InconsistentDataError, match=r"edge \(1,2\) is negative"):
                identify(markov, path(4), [1, 2, 3, 4])

    def test_overflowing_square_is_beyond_range_not_vanishing(self):
        # X_{12}^2 = 1e300 - 1e300**2 overflows to -inf in round 1.
        data = tuple(np.array([[1e300]]) for _ in range(9))
        markov = MarkovSequence(v_in=NodeSet([1]), v_out=NodeSet([1]), data=data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError) as err:
                identify(markov, path(4), [1, 2, 3, 4])
        assert str(err.value) == (
            "Markov data is beyond float64 range: squared weight of edge (1,2) is not finite"
        )

    def test_overflowing_first_power_is_refused_like_the_reference(self):
        # X_{12}^2 = 1e-6 is finite and positive, but X^1[2,2] = 1e304 / 1e-6
        # overflows.
        data = tuple(np.array([[v]]) for v in (1.0, 1.0, 1.0 + 1e-6, 1e304, 1.0))
        markov = MarkovSequence(v_in=NodeSet([1]), v_out=NodeSet([1]), data=data)
        for solve in (identify, reference_identify):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InputError) as err:
                    solve(markov, P2, [1, 2])
            assert str(err.value) == (
                "Markov data is beyond float64 range: the recovered first power is not finite"
            ), solve.__name__


# Row entries and X^2_uu values: zeros, subnormals, squares that overflow,
# NaN and +-inf all come from st.floats().
SCREEN_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from((0.0, -0.0, 5e-324, 2.2e-308, 1e-160, 1e154, 1e200, 1.7e308)),
)
# Offsets of X^2_uu from the sum of the p^2, relative to max(1, sum): on either
# side of DEGENERACY_TOL, and far from it.
SCREEN_OFFSETS = (0.0, 1e-12, -1e-12, 1.0000000000000002e-12, 5e-13, 2e-12, 1e-300, 1.0, -1.0)


@settings(max_examples=1000, deadline=None)
@given(
    row=st.lists(SCREEN_FLOATS, max_size=6),
    x2=SCREEN_FLOATS,
    near=st.booleans(),
    offset=st.sampled_from(SCREEN_OFFSETS),
)
@example(row=[1e200], x2=1.0, near=False, offset=0.0)
@example(row=[1.0], x2=float("nan"), near=False, offset=0.0)
@example(row=[1.0], x2=float("inf"), near=False, offset=0.0)
@example(row=[2.0, 3.0], x2=13.0, near=False, offset=0.0)
@example(row=[1e-170], x2=0.0, near=True, offset=1e-300)
def test_screen_passes_exactly_when_the_full_check_flags_nothing(row, x2, near, offset):
    """_replay screens each squared weight with |X^2_uu| as its scale and runs
    the full check, whose scale also takes max p^2, only when the screen fails."""
    p = np.array([row])
    with np.errstate(all="ignore"):
        sums = (p * p).sum(axis=1)
        power2 = np.array([x2])
        if near:  # X^2_uu just around the sum, where the scale decides
            power2 = sums + offset * np.maximum(1.0, sums)
        squared = power2 - sums  # as _replay computes it
        screen = bool((squared > DEGENERACY_TOL * np.abs(power2)).all())
        scale = np.maximum(np.abs(power2), (p * p).max(axis=1, initial=0.0))
        degenerate = np.abs(squared) <= DEGENERACY_TOL * scale
        overflow = ~np.isfinite(squared)
        flagged = bool((overflow | degenerate | (squared < 0.0)).any())
    assert screen == (not flagged)


@settings(max_examples=300, deadline=None)
@given(
    row=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=5),
    x2=st.floats(allow_nan=False, allow_infinity=False),
    near=st.booleans(),
    offset=st.sampled_from(SCREEN_OFFSETS),
)
@example(row=[1e-7], x2=0.0, near=True, offset=5e-13)
@example(row=[1e200, 1.0], x2=1.0, near=False, offset=0.0)
def test_replay_screens_the_squared_weight_like_the_reference(row, x2, near, offset):
    """One force on a star: centre 1 and leaves 2..m are known, so P is the
    drawn row X^1[1, B], and X^2_11 is drawn freely or near the sum of its squares."""
    m = len(row)
    g = Graph(m + 1, [(1, leaf) for leaf in range(2, m + 2)])
    seed = list(range(1, m + 1))
    p = np.array(row)
    with np.errstate(all="ignore"):
        if near:
            total = (p * p).sum()
            x2 = float(total + offset * max(1.0, total))
    assume(np.isfinite(x2))
    data = np.zeros((5, m, m))
    data[0] = np.eye(m)
    data[1, 0, :] = data[1, :, 0] = p
    data[2, 0, 0] = x2
    markov = MarkovSequence(v_in=NodeSet(seed), v_out=NodeSet(seed), data=data)
    assert outcome(markov, g, g.nodes, identify) == outcome(
        markov, g, g.nodes, reference_identify
    )


def weights_on(g, edge_weights, diagonal):
    x = np.diag(np.asarray(diagonal, dtype=float))
    for (i, j), weight in zip(g.edges, edge_weights):
        x[i - 1, j - 1] = x[j - 1, i - 1] = weight
    return x


class TestLocatedOnlyOnFailure:
    """The checks on the target block name the same entries as the reference."""

    def test_every_leaking_non_edge_is_noted_in_order(self):
        # P5 seeded at {1, 2, 3}; the data couples the non-edges (1,3) and (2,4).
        g = path(5)
        x = weights_on(g, (0.9, 0.8, 1.1, 0.7), (0.3, -0.2, 0.1, 0.4, -0.1))
        x[0, 2] = x[2, 0] = 0.3
        x[1, 3] = x[3, 1] = 0.2
        markov = seq_from_raw(x, [1, 2, 3], [1, 2, 3], 6)
        result = identify(markov, g, g.nodes)
        assert len(result.diagnostics) == 2
        assert [note.split(" carries")[0] for note in result.notes] == [
            "non-edge (1,3)", "non-edge (1,4)", "non-edge (1,5)",
            "non-edge (2,4)", "non-edge (2,5)", "non-edge (3,5)",
        ]
        assert outcome(markov, g, g.nodes, identify) == outcome(
            markov, g, g.nodes, reference_identify
        )

    @pytest.mark.parametrize("target, edge", [
        ([1, 2, 3, 4, 5], "(1,3) is -3.000e-01"),
        ([4, 3, 2], "(2,3) is 0.000e+00"),
    ])
    def test_first_non_positive_edge_is_named(self, target, edge):
        # Edges (1,3) and (2,3) of the seed block are -0.3 and 0; the forced
        # edges (3,4) and (4,5) are positive.
        g = Graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
        x = weights_on(g, (0.5, -0.3, 0.0, 0.8, 0.7), (0.3, -0.2, 0.1, 0.4, -0.1))
        markov = seq_from_raw(x, [1, 2, 3], [1, 2, 3], 6)
        with pytest.raises(InconsistentDataError, match=rf"edge {re.escape(edge)};"):
            identify(markov, g, target)
        assert outcome(markov, g, target, identify) == outcome(
            markov, g, target, reference_identify
        )


BENCHMARK_SIZED = (
    [(f"grid{a}", grid(a), None, "free", False) for a in (8, 10, 12)]
    + [(f"path{n}-one-end", path(n), [1], "laplacian", n == 14) for n in (8, 11, 14)]
    + [(f"path{n}-both-ends", path(n), [1, n], "laplacian", False) for n in (16, 24)]
)


@pytest.mark.parametrize("name, g, seed, diagonal, past_the_wall", BENCHMARK_SIZED,
                         ids=[case[0] for case in BENCHMARK_SIZED])
def test_replay_matches_the_reference_at_benchmark_sizes(name, g, seed, diagonal,
                                                         past_the_wall):
    # Heuristic-seeded grids put 50-122 nodes in the overlap; a path seeded
    # at one end loses precision with length and is refused by n = 14.
    w = zfs_heuristic(g) if seed is None else NodeSet(seed)
    _, chron = derived_set(g, w)
    refused = []
    for weight_seed in (1, 2, 3):
        x = random_weights(g, seed=weight_seed, diagonal_mode=diagonal)
        markov = markov_sequence(x, w, w, required_order(chron))
        got = outcome(markov, g, g.nodes, identify)
        assert got == outcome(markov, g, g.nodes, reference_identify)
        refused.append(isinstance(got[0], type))
    assert any(refused) == past_the_wall


def outcome(markov, g, target, fn):
    try:
        result = fn(markov, g, target)
    except Exception as exc:
        return type(exc), str(exc)
    return result.recovered.tobytes(), json.dumps(result.to_json())


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(3, 16),
    seed=st.integers(0, 2**31 - 1),
    exact=st.booleans(),
    diagonal=st.sampled_from(("laplacian", "free")),
    partial=st.booleans(),
    unequal=st.booleans(),
    perturb=st.sampled_from((0.0, 1e-3, -1.0, 10.0)),
)
def test_replay_matches_the_reference_bit_for_bit(n, seed, exact, diagonal, partial,
                                                   unequal, perturb):
    rng = np.random.default_rng(seed)
    g = Graph(n, random_connected_edges(rng, n))
    w = minimum_zero_forcing_set(g) if exact else zfs_heuristic(g)
    v_in = v_out = w
    if unequal:  # extra input-only and output-only nodes, and a larger overlap
        v_in = NodeSet(set(w) | set((rng.choice(n, 2) + 1).tolist()) | {1})
        v_out = NodeSet(set(w) | set((rng.choice(n, 2) + 1).tolist()) | {n})
    overlap = v_in.intersection(v_out)
    _, chron = derived_set(g, overlap)
    x = random_weights(g, seed=seed, diagonal_mode=diagonal)
    order = required_order(chron)
    markov = markov_sequence(x, v_in, v_out, order + int(rng.integers(0, 3)))
    if perturb:  # one overlap entry that the replay reads is off: some rounds fail
        data = markov.data.copy()
        i, j = rng.choice(overlap.members, 2)
        data[rng.integers(1, order + 1), v_out.members.index(i), v_in.members.index(j)] *= (
            1.0 + perturb
        )
        markov = MarkovSequence(v_in=markov.v_in, v_out=markov.v_out, data=data)
    target = g.nodes
    if partial:
        target = (rng.choice(n, int(rng.integers(1, n + 1)), replace=False) + 1).tolist()
    assert outcome(markov, g, target, identify) == outcome(
        markov, g, target, reference_identify
    )


EDGE = re.compile(r"\(\d+,\d+\)")


def scaled_by_powers(markov, j):
    """Order k of ``markov`` scaled by 2^(jk): the data of the network scaled by 2^j."""
    factors = np.ldexp(1.0, j * np.arange(len(markov.data)))
    return MarkovSequence(markov.v_in, markov.v_out, markov.data * factors[:, None, None])


def assert_equivariant(markov, g, j):
    """identify on ``markov`` and on it scaled by 2^(jk) raise the same error
    class naming the same edges, or return blocks that differ by exactly 2^j
    with notes naming the same entries. Returns the unscaled error class and
    the edges it names, or None and the edges each note names."""
    outcomes = []
    for data in (markov, scaled_by_powers(markov, j)):
        try:
            result = identify(data, g, g.nodes)
        except NetidentError as exc:
            outcomes.append((type(exc), EDGE.findall(str(exc)), None))
        else:
            notes = [EDGE.findall(note) for note in result.notes]
            outcomes.append((None, notes, result.recovered))
    (error, named, block), (scaled_error, scaled_named, scaled_block) = outcomes
    assert (error, named) == (scaled_error, scaled_named)
    if block is not None:
        assert scaled_block.tobytes() == np.ldexp(block, j).tobytes()
    return error, named


WORKLOAD_SHAPED = st.one_of(
    st.tuples(st.just("grid"), st.integers(4, 8)),
    st.tuples(st.just("sparse"), st.integers(8, 14)),
    st.tuples(st.just("path"), st.integers(4, 12)),
)


@settings(max_examples=200, deadline=None)
@given(shape=WORKLOAD_SHAPED, seed=st.integers(0, 2**31 - 1), data=st.data())
def test_identify_is_equivariant_under_power_of_two_scaling(shape, seed, data):
    """Heuristic-seeded grids and minimum-seeded sparse graphs with a free
    diagonal, and Laplacian paths seeded at one end. With |j| K <= 900 for
    the data's order K the scaled data stays well inside float64's normal
    range, so the equivariance is exact on both sides of the precision wall."""
    family, n = shape
    if family == "grid":
        g = grid(n)
        w, diagonal = zfs_heuristic(g), "free"
    elif family == "sparse":
        g = Graph(n, random_connected_edges(np.random.default_rng(seed), n, extra=0.2))
        w, diagonal = minimum_zero_forcing_set(g), "free"
    else:
        g = path(n)
        w, diagonal = NodeSet([1]), "laplacian"
    _, chron = derived_set(g, w)
    order = required_order(chron)
    markov = markov_sequence(random_weights(g, seed=seed, diagonal_mode=diagonal), w, w, order)
    assert_equivariant(markov, g, data.draw(st.integers(-(900 // order), 900 // order)))


@pytest.mark.parametrize("side", [4, 5, 6, 7, 8])
def test_weights_near_one_millionth_are_recovered(side):
    """Data of a grid whose weights are 2^-20 times the default range: each
    recovered block is exactly 2^-20 times the unscaled one."""
    g = grid(side)
    w = zfs_heuristic(g)
    _, chron = derived_set(g, w)
    for weight_seed in (1, 2, 3):
        markov = markov_sequence(random_weights(g, seed=weight_seed), w, w,
                                 required_order(chron))
        assert assert_equivariant(markov, g, -20) == (None, [])


@pytest.mark.parametrize("j", [-80, -3, 5, 80])
def test_refusals_and_notes_do_not_depend_on_the_scale(j):
    checks = TestChecksAfterTheLoop()
    assert assert_equivariant(checks.data(1.0), checks.G, j) == (
        InconsistentDataError, ["(7,8)"])
    assert assert_equivariant(checks.data(1e-7), checks.G, j) == (
        DegenerateWeightError, ["(2,3)"])
    g = Graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    x = weights_on(g, (0.5, -0.3, 0.0, 0.8, 0.7), (0.3, -0.2, 0.1, 0.4, -0.1))
    assert assert_equivariant(seq_from_raw(x, [1, 2, 3], [1, 2, 3], 6), g, j) == (
        InconsistentDataError, ["(1,3)"])
    x = np.array([[1.0, 0.5, 0.3], [0.5, 2.0, 0.7], [0.3, 0.7, 1.5]])
    assert assert_equivariant(seq_from_raw(x, [1, 3], [1, 3], 4), path(3), j) == (
        None, [["(1,3)"]])
