import argparse
import json
import os
import resource
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import netident
from netident import Graph, NodeSet, cli, markov_sequence, random_weights
from netident.cli import main

from oracles import dfs_min_zfs, random_connected_edges


def write(tmp_path, name, payload):
    p = tmp_path / name
    if isinstance(payload, str):
        p.write_text(payload)
    else:
        p.write_text(json.dumps(payload))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cycle_json(n):
    return {"n": n, "edges": [[i, i + 1] for i in range(1, n)] + [[n, 1]]}


def path_json(n):
    return {"n": n, "edges": [[i, i + 1] for i in range(1, n)]}


class TestZfs:
    def test_min_on_c5(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", cycle_json(5))
        code, out, _ = run(capsys, ["zfs", "min", "--graph", g])
        assert code == 0
        assert json.loads(out) == {"size": 2, "set": [1, 2]}

    def test_min_on_a_20_node_graph_matches_the_dfs_reference(self, tmp_path, capsys):
        edges = random_connected_edges(np.random.default_rng(71), 20, 0.15)
        g = write(tmp_path, "g.json", {"n": 20, "edges": [list(e) for e in edges]})
        code, out, _ = run(capsys, ["zfs", "min", "--graph", g])
        expect = dfs_min_zfs(20, edges)
        assert code == 0 and json.loads(out) == {"size": len(expect), "set": list(expect)}

    def test_check_and_derive(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", path_json(3))
        z = write(tmp_path, "z.json", [1])
        code, out, _ = run(capsys, ["zfs", "check", "--graph", g, "--in", z])
        assert code == 0 and json.loads(out)["is_zero_forcing_set"] is True
        code, out, _ = run(capsys, ["zfs", "derive", "--graph", g, "--in", z])
        blob = json.loads(out)
        assert blob == {"initial": [1], "forces": [[1, 2], [2, 3]], "rounds": [1, 1],
                        "derived": [1, 2, 3]}

    def test_heuristic(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", cycle_json(6))
        code, out, _ = run(capsys, ["zfs", "heuristic", "--graph", g])
        assert code == 0
        assert json.loads(out)["size"] <= 3

    def test_min_budget_exceeded(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", path_json(30))
        code, _, err = run(capsys, ["zfs", "min", "--graph", g])
        assert code == 2
        assert "heuristic" in err

    def test_min_refusal_names_the_heuristic_command(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", path_json(3))
        code, _, err = run(capsys, ["zfs", "min", "--graph", g, "--budget", "2"])
        assert code == 2
        assert "zfs heuristic" in err and "zfs_heuristic" not in err

    @pytest.mark.parametrize("budget", ["-5", "-1", "2.5", "x"])
    def test_malformed_budget_is_a_usage_error(self, tmp_path, capsys, budget):
        g = write(tmp_path, "g.json", path_json(3))
        with pytest.raises(SystemExit) as exc:
            main(["zfs", "min", "--graph", g, "--budget", budget])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: netident") and "--budget" in err

    def test_zero_budget_admits_the_empty_graph(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", {"n": 0, "edges": []})
        code, out, _ = run(capsys, ["zfs", "min", "--graph", g, "--budget", "0"])
        assert code == 0 and json.loads(out) == {"size": 0, "set": []}


class TestIdent:
    def test_certify_example_instance(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", path_json(3))
        vin = write(tmp_path, "in.json", [2])
        vout = write(tmp_path, "out.json", [1, 2, 3])
        code, out, _ = run(
            capsys, ["ident", "certify", "--graph", g, "--in", vin, "--out-nodes", vout]
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["verdict"] == "CERTIFIED_PARTIAL"
        assert blob["certified_nodes"] == [2]

    def test_certify_chronicle_lists_rounds(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", path_json(5))
        ends = write(tmp_path, "ends.json", [1, 5])
        code, out, _ = run(
            capsys, ["ident", "certify", "--graph", g, "--in", ends, "--out-nodes", ends]
        )
        assert code == 0
        chronicle = json.loads(out)["chronicle"]
        assert chronicle["forces"] == [[1, 2], [5, 4], [2, 3]]
        assert chronicle["rounds"] == [2, 1]

    def test_certify_human_format(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", path_json(3))
        vin = write(tmp_path, "in.json", [1])
        code, out, _ = run(
            capsys,
            ["ident", "certify", "--graph", g, "--in", vin, "--out-nodes", vin,
             "--format", "human"],
        )
        assert code == 0
        assert "CERTIFIED_FULL" in out

    def test_recover_round_trip(self, tmp_path, capsys):
        graph = Graph(4, [(1, 2), (2, 3), (3, 4)])
        x = random_weights(graph, seed=5)
        markov = markov_sequence(x, [1], [1], 8)
        g = write(tmp_path, "g.json", path_json(4))
        m = write(tmp_path, "m.json", markov.to_json())
        t = write(tmp_path, "t.json", [1, 2, 3, 4])
        code, out, err = run(
            capsys, ["ident", "recover", "--graph", g, "--markov", m, "--target", t]
        )
        assert code == 0
        recovered = netident.matrix_from_csv(out)
        assert np.abs(recovered - x.entries).max() <= 1e-8 * np.abs(x.entries).max()
        diag = json.loads(err)
        assert [d["force"] for d in diag["diagnostics"]] == [[1, 2], [2, 3], [3, 4]]

    def test_recover_lists_the_round_of_each_force(self, tmp_path, capsys):
        # Both endpoints force in round 1, so order 4 suffices for two forces.
        graph = Graph(4, [(1, 2), (2, 3), (3, 4)])
        markov = markov_sequence(random_weights(graph, seed=5), [1, 4], [1, 4], 4)
        g = write(tmp_path, "g.json", path_json(4))
        m = write(tmp_path, "m.json", markov.to_json())
        t = write(tmp_path, "t.json", [1, 2, 3, 4])
        code, _, err = run(
            capsys, ["ident", "recover", "--graph", g, "--markov", m, "--target", t]
        )
        assert code == 0
        diag = json.loads(err)["diagnostics"]
        assert [(d["force"], d["round"]) for d in diag] == [([1, 2], 1), ([4, 3], 1)]

    def test_recover_uncertified_exits_one(self, tmp_path, capsys):
        graph = Graph(3, [(1, 2), (2, 3)])
        markov = markov_sequence(random_weights(graph, seed=1), [2], [2], 4)
        g = write(tmp_path, "g.json", path_json(3))
        m = write(tmp_path, "m.json", markov.to_json())
        t = write(tmp_path, "t.json", [1])
        code, _, err = run(
            capsys, ["ident", "recover", "--graph", g, "--markov", m, "--target", t]
        )
        assert code == 1
        assert "certify" in err


class TestSim:
    def test_random_deterministic_bytes(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", cycle_json(4))
        argv = ["sim", "random", "--graph", g, "--seed", "7"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
        mat = netident.matrix_from_csv(out1)
        assert mat.shape == (4, 4)

    @pytest.mark.parametrize("diagonal, expect", [
        ("free", "n,3\n1.102742760980774,1.4376431999070005,0.0\n"
                 "1.4376431999070005,-1.0991712400376326,1.8458207014543633\n"
                 "0.0,1.8458207014543633,-0.7993348603550983\n"),
        ("laplacian", "n,3\n-1.4376431999070005,1.4376431999070005,0.0\n"
                      "1.4376431999070005,-3.2834639013613636,1.8458207014543633\n"
                      "0.0,1.8458207014543633,-1.8458207014543633\n"),
    ])
    def test_random_default_range_bytes_are_pinned(self, tmp_path, capsys, diagonal, expect):
        g = write(tmp_path, "g.json", path_json(3))
        for weight_range in ([], ["--weight-range", "0.5,2.0"]):
            code, out, err = run(capsys, ["sim", "random", "--graph", g, "--seed", "7",
                                          "--diagonal", diagonal, *weight_range])
            assert (code, out, err) == (0, expect, "")

    @pytest.mark.parametrize("weight_range, diagonal", [
        ("1,inf", "free"), ("1,inf", "laplacian"), ("1,1e308", "free"),
        ("1e308,1.7e308", "free"), ("1e308,1.7e308", "laplacian"),
    ])
    def test_weight_range_beyond_float64_exits_two(self, tmp_path, capsys, weight_range,
                                                   diagonal):
        g = write(tmp_path, "g.json", path_json(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
            code, out, err = run(capsys, ["sim", "random", "--graph", g, "--weight-range",
                                          weight_range, "--diagonal", diagonal])
        assert (code, out) == (2, "")
        assert err.startswith("input error: weight range (") and err.count("\n") == 1

    @pytest.mark.parametrize("weight_range", ["abc", "1", "1,2,3"])
    def test_malformed_weight_range_exits_two(self, tmp_path, capsys, weight_range):
        g = write(tmp_path, "g.json", path_json(3))
        code, out, err = run(capsys, ["sim", "random", "--graph", g,
                                      "--weight-range", weight_range])
        assert (code, out) == (2, "")
        assert err == f"input error: weight range must be 'lo,hi', got {weight_range!r}\n"

    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_malformed_seed_is_a_usage_error(self, tmp_path, capsys, seed):
        g = write(tmp_path, "g.json", cycle_json(4))
        with pytest.raises(SystemExit) as exc:
            main(["sim", "random", "--graph", g, "--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: netident") and "--seed" in err

    def test_empty_graph_from_random_matrix_to_markov(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", {"n": 0, "edges": []})
        code, out, _ = run(capsys, ["sim", "random", "--graph", g])
        assert code == 0 and out == "n,0\n"
        x = write(tmp_path, "x.csv", out)
        vin = write(tmp_path, "in.json", [])
        code, out, err = run(capsys, ["sim", "markov", "--graph", g, "--matrix", x,
                                      "--in", vin, "--out-nodes", vin, "--order", "2"])
        assert (code, err) == (0, "")
        assert json.loads(out)["data"] == [[], [], []]

    def test_markov_command(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", path_json(2))
        x = write(tmp_path, "x.csv", netident.matrix_to_csv(np.array([[1.0, 2.0], [2.0, 3.0]])))
        vin = write(tmp_path, "in.json", [1])
        code, out, _ = run(
            capsys,
            ["sim", "markov", "--graph", g, "--matrix", x, "--in", vin,
             "--out-nodes", vin, "--order", "3"],
        )
        assert code == 0
        assert json.loads(out)["data"] == [[[1.0]], [[1.0]], [[5.0]], [[21.0]]]

    def test_counterexample_directed(self, tmp_path, capsys):
        entries = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        x = write(tmp_path, "x.csv", netident.matrix_to_csv(entries))
        vin = write(tmp_path, "in.json", [1])
        code, out, _ = run(
            capsys,
            ["sim", "counterexample", "--matrix", x, "--in", vin, "--out-nodes", vin],
        )
        assert code == 0
        rescaled = netident.matrix_from_csv(out)
        assert not np.array_equal(rescaled, entries)

    def test_counterexample_no_hidden_exits_one(self, tmp_path, capsys):
        entries = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = write(tmp_path, "x.csv", netident.matrix_to_csv(entries))
        vin = write(tmp_path, "in.json", [1])
        vout = write(tmp_path, "out.json", [2])
        code, _, err = run(
            capsys,
            ["sim", "counterexample", "--matrix", x, "--in", vin, "--out-nodes", vout],
        )
        assert code == 1
        assert "hidden" in err

    @pytest.mark.parametrize("with_graph", [False, True], ids=["directed", "graph"])
    def test_counterexample_with_no_visible_node_exits_one(self, tmp_path, capsys,
                                                           with_graph):
        x = random_weights(Graph(3, [(1, 2), (2, 3)]), seed=1)
        xf = write(tmp_path, "x.csv", netident.matrix_to_csv(x.entries))
        none = write(tmp_path, "none.json", [])
        graph = ["--graph", write(tmp_path, "g.json", path_json(3))] if with_graph else []
        code, out, err = run(capsys, ["sim", "counterexample", "--matrix", xf, "--in", none,
                                      "--out-nodes", none, *graph])
        assert (code, out) == (1, "")
        assert err.startswith("error: hidden block is decoupled from the visible nodes")

    @pytest.mark.parametrize("flag", ["--in", "--out-nodes"])
    def test_counterexample_node_beyond_the_matrix_exits_two(self, tmp_path, capsys,
                                                             flag):
        entries = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        x = write(tmp_path, "x.csv", netident.matrix_to_csv(entries))
        nodes = {"--in": write(tmp_path, "in.json", [1]),
                 "--out-nodes": write(tmp_path, "out.json", [1])}
        nodes[flag] = write(tmp_path, "bad.json", [1, 99])
        code, out, err = run(capsys, ["sim", "counterexample", "--matrix", x,
                                      "--in", nodes["--in"],
                                      "--out-nodes", nodes["--out-nodes"]])
        assert (code, out) == (2, "")
        assert err == "input error: node 99 outside 1..3\n"

    def test_counterexample_epsilon_beyond_float64_exits_two(self, tmp_path, capsys):
        entries = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        x = write(tmp_path, "x.csv", netident.matrix_to_csv(entries))
        vin = write(tmp_path, "in.json", [1])
        code, out, err = run(capsys, ["sim", "counterexample", "--matrix", x, "--in", vin,
                                      "--out-nodes", vin, "--epsilon", "1e-320"])
        assert (code, out) == (2, "")
        assert err == "input error: epsilon 1e-320 rescales the matrix beyond float64 range\n"


class TestHod:
    DYN = {"A": [[0.0]], "B": [[1.0]], "C": [[1.0]], "E": [[1.0]], "K": [[1.0]]}

    def test_check(self, tmp_path, capsys):
        d = write(tmp_path, "d.json", self.DYN)
        code, out, _ = run(capsys, ["hod", "check", "--dyn", d])
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_check_nilpotent_first_failure(self, tmp_path, capsys):
        d = write(
            tmp_path, "d.json",
            {"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[1.0, 0.0], [0.0, 1.0]],
             "C": [[1.0, 0.0], [0.0, 1.0]], "E": [[1.0], [0.0]], "K": [[0.0, 1.0]]},
        )
        code, out, _ = run(capsys, ["hod", "check", "--dyn", d])
        assert code == 0
        assert json.loads(out)["first_failure"] == 2

    def test_check_growing_coupling_past_float64_range(self, tmp_path, capsys):
        # C (EK)^k B = 2^k: the norm of (EK)^k overflows when squared from k = 512.
        d = write(tmp_path, "d.json", {**self.DYN, "E": [[2.0]]})
        code, out, err = run(capsys, ["hod", "check", "--dyn", d, "--order", "1000"])
        assert (code, err) == (0, "")
        blob = json.loads(out)
        assert (blob["ok"], blob["first_failure"], blob["verified_up_to"]) == (True, None, 1000)

    def test_markov_and_recover_chain(self, tmp_path, capsys):
        graph = Graph(3, [(1, 2), (2, 3)])
        x = random_weights(graph, seed=11)
        g = write(tmp_path, "g.json", path_json(3))
        xf = write(tmp_path, "x.csv", netident.matrix_to_csv(x.entries))
        d = write(tmp_path, "d.json", self.DYN)
        vin = write(tmp_path, "in.json", [1])
        code, out, _ = run(
            capsys,
            ["hod", "markov", "--graph", g, "--matrix", xf, "--dyn", d,
             "--in", vin, "--out-nodes", vin, "--order", "6"],
        )
        assert code == 0
        m = write(tmp_path, "m.json", out)
        t = write(tmp_path, "t.json", [1, 2, 3])
        code, out, err = run(
            capsys,
            ["hod", "recover", "--graph", g, "--markov", m, "--dyn", d, "--target", t],
        )
        assert code == 0
        recovered = netident.matrix_from_csv(out)
        assert np.abs(recovered - x.entries).max() <= 1e-8 * np.abs(x.entries).max()

    @pytest.mark.parametrize("flag", ["--in", "--out-nodes"])
    def test_markov_node_beyond_the_graph_exits_two(self, tmp_path, capsys, flag):
        x = random_weights(Graph(3, [(1, 2), (2, 3)]), seed=11)
        g = write(tmp_path, "g.json", path_json(3))
        xf = write(tmp_path, "x.csv", netident.matrix_to_csv(x.entries))
        d = write(tmp_path, "d.json", self.DYN)
        nodes = {"--in": write(tmp_path, "in.json", [1]),
                 "--out-nodes": write(tmp_path, "out.json", [1])}
        nodes[flag] = write(tmp_path, "bad.json", [1, 4])
        code, out, err = run(capsys, ["hod", "markov", "--graph", g, "--matrix", xf,
                                      "--dyn", d, "--in", nodes["--in"],
                                      "--out-nodes", nodes["--out-nodes"], "--order", "3"])
        assert (code, out) == (2, "")
        assert err == "input error: node 4 outside 1..3\n"

    def test_recover_blocked_exits_one(self, tmp_path, capsys):
        graph = Graph(2, [(1, 2)])
        x = random_weights(graph, seed=2)
        nil = {"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[1.0, 0.0], [0.0, 1.0]],
               "C": [[1.0, 0.0], [0.0, 1.0]], "E": [[1.0], [0.0]], "K": [[0.0, 1.0]]}
        import netident.higher_order as ho

        lifted = ho.lifted_markov(x, ho.NodeDynamics.from_json(nil), NodeSet([1]), NodeSet([1]), 4)
        g = write(tmp_path, "g.json", path_json(2))
        m = write(tmp_path, "m.json", lifted.to_json())
        d = write(tmp_path, "d.json", nil)
        t = write(tmp_path, "t.json", [1, 2])
        code, _, err = run(
            capsys,
            ["hod", "recover", "--graph", g, "--markov", m, "--dyn", d, "--target", t],
        )
        assert code == 1
        assert "blocked at order 2" in err


    def test_recover_overflowing_coupling_exits_one(self, tmp_path, capsys):
        import netident.higher_order as ho

        doubling = {**self.DYN, "E": [[2.0]]}
        one = NodeSet([1])
        x = netident.WeightMatrix(Graph(1, []), [[0.5]])
        g = write(tmp_path, "g.json", {"n": 1, "edges": []})
        lifted = ho.lifted_markov(x, ho.NodeDynamics.from_json(doubling), one, one, 1100)
        g = write(tmp_path, "g.json", {"n": 1, "edges": []})
        m = write(tmp_path, "m.json", lifted.to_json())
        d = write(tmp_path, "d.json", doubling)
        t = write(tmp_path, "t.json", [1])
        code, out, err = run(
            capsys,
            ["hod", "recover", "--graph", g, "--markov", m, "--dyn", d, "--target", t],
        )
        assert (code, out) == (1, "")
        assert "C (EK)^1024 B overflows float64" in err
        assert "blocked at order 1024" in err and "Warning" not in err


class TestErrorsAndPlumbing:
    def test_malformed_json_exits_two_with_line(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text('{"n": 3,\n "edges": [[1, 2],]}')
        z = write(tmp_path, "z.json", [1])
        code, _, err = run(capsys, ["zfs", "check", "--graph", str(g), "--in", z])
        assert code == 2
        assert "line" in err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        z = write(tmp_path, "z.json", [1])
        code, _, err = run(capsys, ["zfs", "check", "--graph", "/nope.json", "--in", z])
        assert code == 2

    def test_unknown_subcommand_usage_exit_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["zfs", "frobnicate"])
        assert err.value.code == 2

    def test_help_documents_formats(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["ident", "recover", "--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert "--markov" in out and "JSON" in out

    @pytest.mark.parametrize("graph, nodes", [
        ({"n": "abc", "edges": []}, [1]),
        ({"n": 2.5, "edges": []}, [1]),
        ({"n": 3, "edges": 5}, [1]),
        ({"n": 3, "edges": [[1.5, 2]]}, [1]),
        (path_json(3), ["a"]),
        (path_json(3), [1.5]),
    ], ids=["n-string", "n-fraction", "edges-number", "edge-fraction",
            "node-string", "node-fraction"])
    def test_malformed_input_exits_two(self, tmp_path, capsys, graph, nodes):
        g = write(tmp_path, "g.json", graph)
        z = write(tmp_path, "z.json", nodes)
        code, _, err = run(capsys, ["zfs", "check", "--graph", g, "--in", z])
        assert code == 2
        assert err.startswith("input error:")

    def test_self_loop_warning_on_every_run_in_one_process(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", {"n": 3, "edges": [[1, 1], [1, 2], [2, 3]]})
        for _ in range(2):
            code, out, err = run(capsys, ["zfs", "heuristic", "--graph", g])
            assert (code, out) == (0, '{"set": [1], "size": 1}\n')
            assert err == "warning: stripped 1 self-loop(s); diagonal weights are free anyway\n"

    @pytest.mark.parametrize("loop", [[4, 4], [0, 0]])
    def test_self_loop_outside_the_graph_exits_two(self, tmp_path, capsys, loop):
        g = write(tmp_path, "g.json", {"n": 3, "edges": [[1, 2], loop]})
        code, out, err = run(capsys, ["zfs", "heuristic", "--graph", g])
        assert (code, out) == (2, "")
        i = loop[0]
        assert err == f"input error: edge ({i},{i}) has an endpoint outside 1..3\n"

    @pytest.mark.parametrize("group", ["ident", "hod"])
    @pytest.mark.parametrize("change, code", [
        ({"K": 8.0}, 0),
        ({"K": 0.7, "data": [[[1.0]]]}, 2),  # int() would load order 0
        ({"K": 8.5}, 2),
        ({"K": -1, "data": []}, 2),
        ({"data": [[1.0]] * 9}, 2),
        ({"data": [[[[1.0]]]] * 9}, 2),
        ({"v_in": [1, 2]}, 2),
    ], ids=["K-8.0", "K-0.7", "K-8.5", "no-blocks", "1d-blocks",
            "3d-blocks", "shape-vs-nodes"])
    def test_recover_checks_the_markov_file(self, tmp_path, capsys, group, change, code):
        graph = Graph(4, [(1, 2), (2, 3), (3, 4)])
        blob = markov_sequence(random_weights(graph, seed=5), [1], [1], 8).to_json()
        g = write(tmp_path, "g.json", path_json(4))
        m = write(tmp_path, "m.json", {**blob, **change})
        t = write(tmp_path, "t.json", [1, 2, 3, 4])
        extra = ["--dyn", write(tmp_path, "d.json", TestHod.DYN)] if group == "hod" else []
        got, _, err = run(capsys, [group, "recover", "--graph", g, "--markov", m,
                                   "--target", t, *extra])
        assert got == code
        if code == 2:
            assert err.startswith("input error:")

    def test_a_path_given_twice_is_read_once(self, tmp_path, capsys, monkeypatch):
        g = write(tmp_path, "g.json", path_json(4))
        s = write(tmp_path, "s.json", [1])
        t = write(tmp_path, "t.json", [1])
        reads, loaded = [], []
        real_read, real_certify = cli._read_text, cli.identifiability.certify
        monkeypatch.setattr(cli, "_read_text", lambda path: reads.append(path) or real_read(path))
        monkeypatch.setattr(cli.identifiability, "certify",
                            lambda g, i, o: loaded.append((i, o)) or real_certify(g, i, o))
        code, out, err = run(capsys, ["ident", "certify", "--graph", g, "--in", s,
                                      "--out-nodes", s])
        assert (code, err) == (0, "") and json.loads(out)["verdict"] == "CERTIFIED_FULL"
        assert sorted(reads) == sorted([g, s])
        [(v_in, v_out)] = loaded
        assert v_in is v_out
        # Distinct paths with equal contents are still read one by one.
        reads.clear()
        code, _, _ = run(capsys, ["ident", "certify", "--graph", g, "--in", s,
                                  "--out-nodes", t])
        assert code == 0 and sorted(reads) == sorted([g, s, t])

    def test_a_bad_path_given_twice_reports_once(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", path_json(3))
        bad = write(tmp_path, "bad.json", [0])
        code, out, err = run(capsys, ["ident", "certify", "--graph", g, "--in", bad,
                                      "--out-nodes", bad])
        assert (code, out) == (2, "")
        assert err == "input error: node identifiers are 1-based, got 0\n"

    def test_out_nodes_alias(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", path_json(3))
        vin = write(tmp_path, "in.json", [1])
        code, out, _ = run(
            capsys, ["ident", "certify", "--graph", g, "--in", vin, "--out", vin]
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "CERTIFIED_FULL"


def test_recover_overflowing_overlap_exits_two(tmp_path, capsys):
    blob = {"v_in": [1], "v_out": [1], "K": 6,
            "data": [[[v]] for v in (1.0, 10.0, 1e308, 1.0, 1.0, 1.0, 1.0)]}
    g = write(tmp_path, "g.json", path_json(3))
    m = write(tmp_path, "m.json", blob)
    t = write(tmp_path, "t.json", [1, 2, 3])
    code, out, err = run(capsys, ["ident", "recover", "--graph", g, "--markov", m,
                                  "--target", t])
    assert (code, out) == (2, "")
    assert err == ("input error: Markov data is beyond float64 range: the "
                   "symmetrised overlap is not finite\n")


def test_recover_overflowing_replay_exits_two(tmp_path, capsys):
    # Finite data whose first squared weight overflows: beyond range, not vanishing.
    blob = {"v_in": [1], "v_out": [1], "K": 8, "data": [[[1e300]]] * 9}
    g = write(tmp_path, "g.json", path_json(4))
    m = write(tmp_path, "m.json", blob)
    t = write(tmp_path, "t.json", [1, 2, 3, 4])
    code, out, err = run(capsys, ["ident", "recover", "--graph", g, "--markov", m,
                                  "--target", t])
    assert (code, out) == (2, "")
    assert err == ("input error: Markov data is beyond float64 range: squared "
                   "weight of edge (1,2) is not finite\n")


def test_recover_overflowing_first_power_exits_two(tmp_path, capsys):
    # The squared weight is finite; the weight's own entry of X^1 is not.
    blob = {"v_in": [1], "v_out": [1], "K": 4,
            "data": [[[v]] for v in (1.0, 1.0, 1.0 + 1e-6, 1e304, 1.0)]}
    g = write(tmp_path, "g.json", path_json(2))
    m = write(tmp_path, "m.json", blob)
    t = write(tmp_path, "t.json", [1, 2])
    code, out, err = run(capsys, ["ident", "recover", "--graph", g, "--markov", m,
                                  "--target", t])
    assert (code, out) == (2, "")
    assert err == ("input error: Markov data is beyond float64 range: the "
                   "recovered first power is not finite\n")


class TestMarkovArrayInput:
    """Markov JSON whose data is not one (K+1, p, m) array exits 2, prints nothing."""

    def recover(self, tmp_path, capsys, command, blob):
        argv = [command, "recover", "--graph", write(tmp_path, "g.json", path_json(3)),
                "--markov", write(tmp_path, "m.json", blob),
                "--target", write(tmp_path, "t.json", [1, 2, 3])]
        if command == "hod":
            argv += ["--dyn", write(tmp_path, "d.json", TestHod.DYN)]
        return run(capsys, argv)

    @pytest.mark.parametrize("command", ["ident", "hod"])
    @pytest.mark.parametrize("data", [
        [[[1.0]], [[1.0, 2.0]]],
        [1.0, 2.0],
        [[[[1.0]]]],
        [],
    ], ids=["ragged", "1d", "4d", "empty"])
    def test_malformed_data(self, tmp_path, capsys, command, data):
        blob = {"v_in": [1], "v_out": [1], "K": len(data) - 1, "data": data}
        code, out, err = self.recover(tmp_path, capsys, command, blob)
        assert (code, out) == (2, "")
        assert err.startswith("input error: Markov data ")

    @pytest.mark.parametrize("command", ["ident", "hod"])
    def test_order_must_match_block_count(self, tmp_path, capsys, command):
        blob = {"v_in": [1], "v_out": [1], "K": 7, "data": [[[1.0]]] * 7}
        code, out, err = self.recover(tmp_path, capsys, command, blob)
        assert (code, out, err) == (2, "", "input error: order 7 inconsistent with 7 blocks\n")


class TestNonFiniteInput:
    """NaN or infinity anywhere in a numeric input file exits 2, prints nothing."""

    @pytest.mark.parametrize("k, bad", [(1, float("nan")), (3, float("inf"))],
                             ids=["nan-order-1", "inf-order-3"])
    def test_ident_recover(self, tmp_path, capsys, k, bad):
        graph = Graph(4, [(1, 2), (2, 3), (3, 4)])
        blob = markov_sequence(random_weights(graph, seed=5), [1], [1], 8).to_json()
        blob["data"][k][0][0] = bad
        g = write(tmp_path, "g.json", path_json(4))
        m = write(tmp_path, "m.json", blob)
        t = write(tmp_path, "t.json", [1, 2, 3, 4])
        assert ("NaN" if k == 1 else "Infinity") in Path(m).read_text()
        code, out, err = run(capsys, ["ident", "recover", "--graph", g, "--markov", m,
                                      "--target", t])
        assert (code, out) == (2, "")
        assert err == f"input error: Markov block {k} entry (1,1) is not finite: {bad}\n"

    @pytest.mark.parametrize("with_graph", [False, True], ids=["directed", "graph"])
    def test_sim_counterexample(self, tmp_path, capsys, with_graph):
        x = write(tmp_path, "x.csv", "n,3\n0,nan,0\nnan,0,1\n0,1,inf\n")
        vin = write(tmp_path, "in.json", [1])
        graph = ["--graph", write(tmp_path, "g.json", path_json(3))] if with_graph else []
        code, out, err = run(capsys, ["sim", "counterexample", "--matrix", x, "--in", vin,
                                      "--out-nodes", vin, *graph])
        assert (code, out) == (2, "")
        assert err == "input error: matrix CSV entry (1,2) is not finite: nan\n"

    def test_sim_markov(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", path_json(2))
        x = write(tmp_path, "x.csv", "n,2\n1,2\n2,nan\n")
        vin = write(tmp_path, "in.json", [1])
        code, out, err = run(capsys, ["sim", "markov", "--graph", g, "--matrix", x,
                                      "--in", vin, "--out-nodes", vin, "--order", "3"])
        assert (code, out) == (2, "")
        assert "not finite" in err

    def test_hod_check(self, tmp_path, capsys):
        d = write(tmp_path, "d.json", {**TestHod.DYN, "A": [[float("nan")]]})
        code, out, err = run(capsys, ["hod", "check", "--dyn", d])
        assert (code, out) == (2, "")
        assert err == "input error: A entry (1,1) is not finite: nan\n"


class TestOneParserPerProcess:
    def commands(self, tmp_path):
        """Every subcommand once on a 4-node path, then one domain error
        (exit 1) and one input error (exit 2)."""
        graph = Graph(4, [(1, 2), (2, 3), (3, 4)])
        x = random_weights(graph, seed=3)
        dyn = netident.NodeDynamics.from_json(TestHod.DYN)
        lifted = netident.lifted_markov(x, dyn, NodeSet([1]), NodeSet([1]), 8)
        g = write(tmp_path, "g.json", path_json(4))
        z = write(tmp_path, "z.json", [1])
        t = write(tmp_path, "t.json", [1, 2, 3, 4])
        xf = write(tmp_path, "x.csv", netident.matrix_to_csv(x.entries))
        m = write(tmp_path, "m.json", markov_sequence(x, [1], [1], 8).to_json())
        lf = write(tmp_path, "l.json", lifted.to_json())
        d = write(tmp_path, "d.json", TestHod.DYN)
        io = ["--in", z, "--out-nodes", z]
        return [
            ["zfs", "check", "--graph", g, "--in", z],
            ["zfs", "derive", "--graph", g, "--in", z],
            ["zfs", "min", "--graph", g],
            ["zfs", "heuristic", "--graph", g],
            ["ident", "certify", "--graph", g, *io],
            ["ident", "recover", "--graph", g, "--markov", m, "--target", t],
            ["sim", "random", "--graph", g, "--seed", "4"],
            ["sim", "markov", "--graph", g, "--matrix", xf, *io, "--order", "3"],
            ["sim", "counterexample", "--matrix", xf, "--in", z, "--out-nodes", z,
             "--graph", g],
            ["hod", "check", "--dyn", d],
            ["hod", "markov", "--graph", g, "--matrix", xf, "--dyn", d, *io,
             "--order", "3"],
            ["hod", "recover", "--graph", g, "--markov", lf, "--dyn", d, "--target", t],
            ["sim", "counterexample", "--matrix", xf, "--in", t, "--out-nodes", t],
            ["zfs", "min", "--graph", g, "--budget", "2"],
        ]

    def test_second_round_repeats_the_first(self, tmp_path, capsys):
        commands = self.commands(tmp_path)
        first = [run(capsys, argv) for argv in commands]
        for argv, code in ((["zfs", "nope"], 2), (["hod", "markov", "--help"], 0)):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
            capsys.readouterr()
        second = [run(capsys, argv) for argv in commands]
        assert second == first
        assert [code for code, _, _ in first] == [0] * 12 + [1, 2]

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()


def test_python_dash_m_runs_the_cli(tmp_path):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )

    def netident_cmd(graph):
        g = write(tmp_path, "g.json", graph)
        return subprocess.run(
            [sys.executable, "-m", "netident", "zfs", "heuristic", "--graph", g],
            env=env, capture_output=True, text=True, timeout=60,
        )

    grid = {"n": 9, "edges": [[1, 2], [2, 3], [4, 5], [5, 6], [7, 8], [8, 9],
                              [1, 4], [4, 7], [2, 5], [5, 8], [3, 6], [6, 9]]}
    proc = netident_cmd(grid)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["size"] == len(json.loads(proc.stdout)["set"])
    proc = netident_cmd({"n": 2.5, "edges": []})
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("graph, nodes", [
    (path_json(3), [True]),
    ({"n": True, "edges": []}, [1]),
    ({"n": 3, "edges": [[True, 2]]}, [1]),
], ids=["node-true", "n-true", "edge-true"])
def test_json_booleans_are_not_integers(tmp_path, capsys, graph, nodes):
    g = write(tmp_path, "g.json", graph)
    z = write(tmp_path, "z.json", nodes)
    code, out, err = run(capsys, ["zfs", "check", "--graph", g, "--in", z])
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "True" in err


def test_markov_order_true_exits_two(tmp_path, capsys):
    graph = Graph(2, [(1, 2)])
    blob = markov_sequence(random_weights(graph, seed=5), [1], [1], 4).to_json()
    g = write(tmp_path, "g.json", path_json(2))
    m = write(tmp_path, "m.json", {**blob, "K": True, "data": blob["data"][:2]})
    t = write(tmp_path, "t.json", [1, 2])
    code, _, err = run(capsys, ["ident", "recover", "--graph", g, "--markov", m,
                                "--target", t])
    assert code == 2
    assert err.startswith("input error:") and "Markov order K" in err


@pytest.mark.parametrize("order", [10**17, 10**19])
@pytest.mark.parametrize("group", ["sim", "hod"])
def test_unallocatable_markov_order_exits_two(tmp_path, capsys, group, order):
    g = write(tmp_path, "g.json", path_json(2))
    x = write(tmp_path, "x.csv", "n,2\n1,2\n2,3\n")
    z = write(tmp_path, "z.json", [1])
    dyn = ["--dyn", write(tmp_path, "d.json", TestHod.DYN)] if group == "hod" else []
    for empty in (None, "--in", "--out-nodes"):  # an empty node set is refused alike
        argv = [group, "markov", "--graph", g, "--matrix", x, *dyn, "--in", z,
                "--out-nodes", z, "--order", str(order)]
        if empty:
            argv[argv.index(empty) + 1] = write(tmp_path, "none.json", [])
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: order {order} is too large: ")
        assert "Traceback" not in err and err.count("\n") == 1


def test_hod_check_refuses_an_order_above_the_cap(tmp_path):
    # Without the cap this order would run for days; the timeout fails it.
    root = Path(__file__).resolve().parent.parent
    d = write(tmp_path, "d.json", TestHod.DYN)
    proc = subprocess.run(
        [sys.executable, "-m", "netident", "hod", "check", "--dyn", d,
         "--order", "100000000000"],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("input error: k_max must be at most COUPLING_MAX_ORDER = "
                           "100000, got 100000000000\n")


def test_a_node_count_that_cannot_be_held_exits_two(tmp_path):
    # A child process under a 2 GB address-space cap and a timeout: a
    # build that allocated its rows one at a time would take all memory.
    root = Path(__file__).resolve().parent.parent
    g = write(tmp_path, "g.json", {"n": 10**18, "edges": [[1, 2]]})
    proc = subprocess.run(
        [sys.executable, "-m", "netident", "zfs", "heuristic", "--graph", g],
        env={**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)),
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"input error: node count n is too large: {10**18}\n"


def test_json_output_is_one_compact_sorted_line(tmp_path, capsys):
    graph = Graph(3, [(1, 2), (2, 3)])
    g = write(tmp_path, "g.json", path_json(3))
    m = write(tmp_path, "m.json",
              markov_sequence(random_weights(graph, seed=2), [1], [1], 6).to_json())
    t = write(tmp_path, "t.json", [1, 2, 3])
    z = write(tmp_path, "z.json", [1])
    _, derive, _ = run(capsys, ["zfs", "derive", "--graph", g, "--in", z])
    _, matrix, diag = run(capsys, ["ident", "recover", "--graph", g, "--markov", m,
                                   "--target", t, "--format", "json"])
    for text in (derive, matrix, diag):
        assert text.endswith("\n") and text.count("\n") == 1
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


# The flags each subcommand's handler reads; nothing else may be accepted.
# A value is the flag's choices, or None for a flag that takes any value.
FLAG_TABLE = {
    ("zfs", "check"): {"--graph": None, "--in": None},
    ("zfs", "derive"): {"--graph": None, "--in": None},
    ("zfs", "min"): {"--graph": None, "--budget": None},
    ("zfs", "heuristic"): {"--graph": None},
    ("ident", "certify"): {"--graph": None, "--in": None, "--out-nodes": None,
                           "--out": None, "--format": ("json", "human")},
    ("ident", "recover"): {"--graph": None, "--markov": None, "--target": None,
                           "--format": ("csv", "json")},
    ("sim", "random"): {"--graph": None, "--seed": None, "--weight-range": None,
                        "--diagonal": ("free", "laplacian"), "--format": ("csv", "json")},
    ("sim", "markov"): {"--graph": None, "--matrix": None, "--in": None,
                        "--out-nodes": None, "--out": None, "--order": None},
    ("sim", "counterexample"): {"--matrix": None, "--in": None, "--out-nodes": None,
                                "--out": None, "--graph": None, "--epsilon": None,
                                "--format": ("csv", "json")},
    ("hod", "check"): {"--dyn": None, "--order": None},
    ("hod", "markov"): {"--graph": None, "--matrix": None, "--dyn": None, "--in": None,
                        "--out-nodes": None, "--out": None, "--order": None},
    ("hod", "recover"): {"--graph": None, "--markov": None, "--dyn": None,
                         "--target": None, "--format": ("csv", "json")},
}


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestFlagSurface:
    @pytest.mark.parametrize("group, command", list(FLAG_TABLE))
    def test_options_are_the_flags_the_handler_reads(self, group, command):
        sub = _subparsers(_subparsers(cli.build_parser())[group])[command]
        options = {flag: (tuple(a.choices) if a.choices else None)
                   for a in sub._actions if not isinstance(a, argparse._HelpAction)
                   for flag in a.option_strings}
        assert options == FLAG_TABLE[group, command]

    def test_table_covers_every_subcommand(self):
        groups = _subparsers(cli.build_parser())
        commands = {(g, c) for g, p in groups.items() for c in _subparsers(p)}
        assert commands == set(FLAG_TABLE)

    @pytest.mark.parametrize("command, extra", [
        *[((group, "recover"), ["--tol", "1e-8"]) for group in ("ident", "hod")],
        *[((group, command), ["--format", "json"]) for group, command in (
            ("zfs", "check"), ("zfs", "derive"), ("zfs", "min"), ("zfs", "heuristic"),
            ("sim", "markov"), ("hod", "check"), ("hod", "markov"))],
        (("ident", "certify"), ["--format", "csv"]),
        (("ident", "recover"), ["--format", "human"]),
    ], ids=lambda v: " ".join(v))
    def test_unread_flag_is_a_usage_error(self, tmp_path, capsys, command, extra):
        argv = next(argv for argv in TestOneParserPerProcess().commands(tmp_path)
                    if tuple(argv[:2]) == command)
        assert main(argv) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv + extra)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: netident") and extra[0] in err


FILE_FLAGS = {entry[0][0] for entry in cli.PATHS.values()}


# E = 0 blocks the deconvolution at order 1, before the target is needed.
BLOCKING_DYN = {**TestHod.DYN, "E": [[0.0]]}


@pytest.mark.parametrize("group, command, flag, dyn", [
    *[(group, command, flag, None) for (group, command), flags in FLAG_TABLE.items()
      for flag in flags if flag in FILE_FLAGS],
    ("hod", "recover", "--target", BLOCKING_DYN),
], ids=lambda v: "blocking-dyn" if isinstance(v, dict) else v)
def test_every_malformed_file_exits_two(tmp_path, capsys, group, command, flag, dyn):
    """Each file is read before any computation, so a malformed one exits 2
    even where the command would otherwise fail with exit 1."""
    argv = next(argv for argv in TestOneParserPerProcess().commands(tmp_path)
                if tuple(argv[:2]) == (group, command))
    if dyn is not None:
        argv[argv.index("--dyn") + 1] = write(tmp_path, "blocking.json", dyn)
    code, _, err = run(capsys, argv)
    assert code == (0 if dyn is None else 1)
    assert dyn is None or "blocked at order 1" in err
    bad = write(tmp_path, "bad", "n,2\n1,x\n0,1\n" if flag == "--matrix" else "not json")
    argv[argv.index(flag) + 1] = bad
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("input error:" if flag == "--matrix" else f"input error: {bad}")
    assert "Traceback" not in err and err.count("\n") == 1


def test_first_malformed_file_in_table_order_is_reported(tmp_path, capsys):
    argv = next(argv for argv in TestOneParserPerProcess().commands(tmp_path)
                if argv[:2] == ["hod", "markov"])
    for flag in ("--dyn", "--graph"):  # the table lists --graph before --dyn
        argv[argv.index(flag) + 1] = write(tmp_path, f"bad{flag}", "not json")
    code, _, err = run(capsys, argv)
    assert code == 2 and err.startswith(f"input error: {tmp_path / 'bad--graph'}:")


def test_markov_file_without_outputs_round_trips(tmp_path, capsys):
    g = write(tmp_path, "g.json", path_json(3))
    _, x, _ = run(capsys, ["sim", "random", "--graph", g])
    none = write(tmp_path, "none.json", [])
    code, markov, _ = run(capsys, ["sim", "markov", "--graph", g,
                                   "--matrix", write(tmp_path, "x.csv", x),
                                   "--in", write(tmp_path, "in.json", [1]),
                                   "--out-nodes", none, "--order", "3"])
    assert code == 0 and json.loads(markov)["data"] == [[], [], [], []]
    m = write(tmp_path, "m.json", markov)
    code, out, _ = run(capsys, ["ident", "recover", "--graph", g, "--markov", m,
                                "--target", none])
    assert (code, out) == (0, "n,0\n")
    # Lifted blocks with no rows carry no column count: r = 1 fits, r = 2 does not.
    for dyn, want in ((TestHod.DYN, 0), (TestHod.DYN | {"B": [[1.0, 0.0]]}, 2)):
        code, out, err = run(capsys, ["hod", "recover", "--graph", g, "--markov", m,
                                      "--dyn", write(tmp_path, "d.json", dyn),
                                      "--target", none])
        assert code == want
        assert out == ("n,0\n" if want == 0 else "")
        assert want == 0 or err.startswith("input error: lifted blocks have shape (0, 1)")


def test_readme_command_line_examples_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for block in section.split("```sh\n")[1:]
             for line in block.split("```", 1)[0].splitlines() if "netident " in line]
    assert len(lines) >= 8
    parser = cli.build_parser()
    for line in lines:
        words = shlex.split(line.split("netident ", 1)[1].split(">", 1)[0])
        args = parser.parse_args(words)
        assert callable(args.handler), line
