"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they go by (they also appear in captured output with ``-rA``).
"""

import time

import numpy as np
import pytest

from netident import (
    DeconvolutionBlockedError,
    DirectedWeightMatrix,
    Graph,
    NodeDynamics,
    NodeSet,
    UncertifiedTargetError,
    certify,
    coupling_condition,
    deconvolve,
    derived_set,
    identify,
    is_zero_forcing_set,
    lifted_markov,
    markov_sequence,
    minimum_zero_forcing_set,
    random_weights,
    required_order,
    scaling_counterexample,
    zfs_heuristic,
)

from oracles import exhaustive_min_zfs, naive_derived, random_connected_edges, random_graph_edges


def _record(num: int, message: str) -> None:
    print(f"acceptance criterion {num}: PASS - {message}")


def path(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def cycle(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def complete(n):
    return Graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def test_criterion_1_forcing_matches_oracle_and_scales():
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(500):
        n = int(rng.integers(1, 8))
        edges = random_graph_edges(rng, n, p=float(rng.uniform(0.15, 0.7)))
        g = Graph(n, edges)
        for size in range(1, max(1, n // 2) + 1):
            z = set(rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist())
            derived, chronicle = derived_set(g, NodeSet(z))
            assert set(derived) == naive_derived(n, edges, z)
            assert chronicle.replay(g) == derived
            checked += 1

    big_n = 100_000
    big_path = path(big_n)
    start = time.perf_counter()
    assert is_zero_forcing_set(big_path, NodeSet([1]))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"n=100000 path check took {elapsed:.3f}s"
    _record(1, f"{checked} oracle comparisons on 500 random graphs; "
               f"n=100000 path check in {elapsed * 1e3:.0f} ms")


def test_criterion_2_minimum_zfs_families():
    for n in range(1, 11):
        assert len(minimum_zero_forcing_set(path(n))) == 1
        if n >= 3:
            assert len(minimum_zero_forcing_set(cycle(n))) == 2
        if n >= 2:
            assert len(minimum_zero_forcing_set(complete(n))) == n - 1
    rng = np.random.default_rng(202)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        edges = random_graph_edges(rng, n, p=0.4)
        assert minimum_zero_forcing_set(Graph(n, edges)).members == exhaustive_min_zfs(n, edges)
    _record(2, "paths=1, cycles=2, complete=n-1 up to n=10; exact search matches "
               "exhaustive subset oracle on 30 random graphs")


def test_criterion_3_full_round_trip_two_hundred_graphs():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        g = Graph(n, random_connected_edges(rng, n, extra=float(rng.uniform(0.05, 0.4))))
        x = random_weights(g, seed=int(rng.integers(1 << 30)))
        w = zfs_heuristic(g)
        assert is_zero_forcing_set(g, w)
        _, chron = derived_set(g, w)
        markov = markov_sequence(x, w, w, required_order(chron))
        recovered = identify(markov, g, g.nodes).recovered
        err = np.abs(recovered - x.entries).max() / np.abs(x.entries).max()
        worst = max(worst, err)
        assert err <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _record(3, f"200 round trips in {elapsed:.1f}s, worst relative error {worst:.2e}")


def _non_forcing_seed(g):
    """A deterministic nonempty seed that is not a zero forcing set."""
    heur = zfs_heuristic(g)
    if len(heur) > 1:
        for dropped in reversed(heur.members):
            cand = heur.difference((dropped,))
            if not is_zero_forcing_set(g, cand):
                return cand
    for v in range(1, g.n + 1):
        if not is_zero_forcing_set(g, NodeSet([v])):
            return NodeSet([v])
    return None


def test_criterion_4_partial_recovery_inside_derived_set():
    rng = np.random.default_rng(404)
    tested = 0
    while tested < 200:
        n = int(rng.integers(3, 13))
        g = Graph(n, random_connected_edges(rng, n, extra=float(rng.uniform(0.05, 0.4))))
        w = _non_forcing_seed(g)
        if w is None:
            continue
        assert not is_zero_forcing_set(g, w)
        x = random_weights(g, seed=int(rng.integers(1 << 30)))
        target, chron = derived_set(g, w)
        markov = markov_sequence(x, w, w, required_order(chron))
        result = identify(markov, g, target)
        idx = [i - 1 for i in target]
        expected = x.entries[np.ix_(idx, idx)]
        assert np.abs(result.recovered - expected).max() <= 1e-6 * np.abs(x.entries).max()
        # Nothing outside the derived set is ever emitted.
        assert result.nodes == target
        assert result.recovered.shape == (len(target), len(target))
        if len(target) < g.n:
            with pytest.raises(UncertifiedTargetError):
                identify(markov, g, g.nodes)
        tested += 1
    _record(4, "200 partial recoveries over derived sets of non-forcing seeds; "
               "uncertified targets rejected")


def test_criterion_5_three_node_fixture():
    g = path(3)
    report = certify(g, NodeSet([2]), NodeSet([1, 2, 3]))
    assert report.verdict == "CERTIFIED_PARTIAL"
    assert report.certified_nodes == NodeSet([2])
    assert is_zero_forcing_set(g, NodeSet([2])) is False
    _record(5, "P3 with inputs {2}, outputs V: CERTIFIED_PARTIAL on {2}; "
               "{2} is not a zero forcing set")


def test_criterion_6_directed_hidden_node_witnesses():
    rng = np.random.default_rng(606)
    for _ in range(50):
        n = int(rng.integers(4, 9))
        k_in = int(rng.integers(1, n - 1))
        k_out = int(rng.integers(1, n - k_in))
        perm = rng.permutation(np.arange(1, n + 1)).tolist()
        v_in = NodeSet(perm[:k_in])
        v_out = NodeSet(perm[k_in:k_in + k_out])
        hidden = [v for v in range(1, n + 1) if v not in v_in.union(v_out)]
        assert hidden

        entries = np.where(rng.random((n, n)) < 0.4, rng.uniform(0.5, 2.0, (n, n)), 0.0)
        entries[np.diag_indices(n)] = rng.uniform(-1.0, 1.0, n)
        # guarantee a well-sized visible <-> hidden coupling
        vis0, hid0 = v_in.members[0] - 1, hidden[0] - 1
        entries[vis0, hid0] = rng.uniform(0.5, 2.0)
        x = DirectedWeightMatrix(entries)

        rescaled = scaling_counterexample(x, v_in, v_out, epsilon=2.0)
        assert np.abs(rescaled.entries - x.entries).max() >= 0.1
        before = markov_sequence(x, v_in, v_out, 2 * n)
        after = markov_sequence(rescaled, v_in, v_out, 2 * n)
        for a, b in zip(before.data, after.data):
            scale = max(1.0, np.abs(a).max())
            assert np.abs(a - b).max() <= 1e-10 * scale
    _record(6, "50 directed hidden-node instances: rescaled matrix differs by "
               ">= 0.1 yet matches all Markov blocks to order 2n")


def _coupled_dynamics(rng, q, order):
    """Random node dynamics passing the coupling check, sampled away from
    near-decoupled cases: when ||EK|| is far below ||A||, the network
    information in the lifted data sits (||EK||/||A||)^k below its
    magnitude, which double precision cannot represent at the orders a
    full chronicle needs. No recovery tolerance is meaningful there."""
    while True:
        dyn = NodeDynamics(
            A=rng.uniform(-1, 1, (q, q)),
            B=rng.uniform(-1, 1, (q, q)),
            C=rng.uniform(-1, 1, (q, q)),
            E=rng.uniform(-1, 1, (q, q)),
            K=rng.uniform(-1, 1, (q, q)),
        )
        balance = np.linalg.norm(dyn.coupling) / max(np.linalg.norm(dyn.A), 1e-12)
        if balance >= 0.5 and coupling_condition(dyn, k_max=max(2 * q, order)).ok:
            return dyn


def test_criterion_7_higher_order_pipeline():
    rng = np.random.default_rng(707)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        q = int(rng.integers(1, 4))
        g = Graph(n, random_connected_edges(rng, n, extra=0.2))
        x = random_weights(g, seed=int(rng.integers(1 << 30)))
        w = zfs_heuristic(g)
        _, chron = derived_set(g, w)
        order = required_order(chron)
        dyn = _coupled_dynamics(rng, q, order)
        lifted = lifted_markov(x, dyn, w, w, order)
        recovered = identify(deconvolve(lifted, dyn), g, g.nodes).recovered
        assert np.abs(recovered - x.entries).max() <= 1e-5 * np.abs(x.entries).max()

    # Nilpotent coupling must abort exactly where the product dies.
    nil = NodeDynamics(A=np.zeros((2, 2)), B=np.eye(2), C=np.eye(2),
                       E=[[1.0], [0.0]], K=[[0.0, 1.0]])
    assert coupling_condition(nil).first_failure == 2
    g = path(3)
    x = random_weights(g, seed=9)
    lifted = lifted_markov(x, nil, NodeSet([1]), NodeSet([1]), 6)
    with pytest.raises(DeconvolutionBlockedError) as err:
        deconvolve(lifted, nil)
    assert err.value.k == 2
    _record(7, "50 lifted instances recovered to 1e-5; nilpotent coupling "
               "aborts at the predicted order 2")


def test_criterion_8_worked_two_node_example():
    g = path(2)
    x = np.array([[1.0, 2.0], [2.0, 3.0]])
    from netident import WeightMatrix

    markov = markov_sequence(WeightMatrix(g, x), [1], [1], 4)
    assert [float(b[0, 0]) for b in markov.data] == [1.0, 1.0, 5.0, 21.0, 89.0]
    recovered = identify(markov, g, [1, 2]).recovered
    np.testing.assert_array_equal(recovered, x)
    _record(8, "Markov sequence [1, 1, 5, 21, ...]; force (1,2) recovers "
               "X12 = 2 and X22 = 3 exactly")
