"""Self-test of the benchmark.

Run from the repository root with ``python3 -m pytest -q perfbench/test_bench.py``.
Every workload runs on its reduced instance list, so the whole file takes
seconds; the figures it produces are not measurements.
"""

import dataclasses
import math
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import instances  # noqa: E402
import pipelines  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = run.load_spec()

# Layers each workload must exercise, so a per-layer figure of 0 there is a bug.
LAYERS_RUN = {
    "grid-recover": ["reconstruct.identify", "zero_forcing.zfs_heuristic",
                     "zero_forcing.derived_set", "graph_core.build"],
    "exact-small": ["reconstruct.identify", "zero_forcing.minimum_zero_forcing_set",
                    "graph_core.build"],
    "seed-large": ["zero_forcing.zfs_heuristic", "identifiability.certify",
                   "zero_forcing.replay", "zero_forcing.derived_set", "graph_core.build"],
    "cli-batch": ["cli.main", "higher_order.deconvolve", "reconstruct.identify",
                  "graph_core.build"],
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(instances.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, lines = run.run(workload, seed=3, seconds=0.01, trace=trace, reduced=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if trace:
        for layer in LAYERS_RUN[workload]:
            assert result["metrics"][f"{layer}.calls"]["value"] > 0, layer
    assert any(line.startswith(f"workload {workload} ") and " digest " in line
               for line in lines)


def test_instance_lists_follow_the_seed():
    for build in instances.WORKLOADS.values():
        assert instances.digest(build(5)) == instances.digest(build(5))
        assert instances.digest(build(5)) != instances.digest(build(6))


def test_closure_checker():
    assert checks.is_forcing(5, instances.path_edges(5), [1])
    assert not checks.is_forcing(5, instances.path_edges(5), [3])
    grid = instances.grid_edges(3)
    assert checks.is_forcing(9, grid, [1, 2, 3])
    assert not checks.is_forcing(9, grid, [1])


@pytest.fixture
def ni():
    return run.import_netident()


def _grid_instance(a=4):
    return instances.Instance("grid", "recover-heuristic", a * a, instances.grid_edges(a), 7)


def test_perturbed_matrix_is_a_silent_failure(ni, monkeypatch):
    inst = _grid_instance()
    g = ni.Graph(inst.n, inst.edges)
    assert pipelines.recover(ni, inst, g, exact=False).status == "ok"

    identify = ni.reconstruct.identify

    def perturbed(*args, **kwargs):
        result = identify(*args, **kwargs)
        return dataclasses.replace(result, recovered=result.recovered * (1 + 1e-4))

    monkeypatch.setattr(ni.reconstruct, "identify", perturbed)
    out = pipelines.recover(ni, inst, g, exact=False)
    assert out.status == "wrong" and not out.hard and out.rel_err > checks.REL_TOL
    out.gauge_s = run.REFERENCE_NOMINAL_S
    values, _ = run.end_to_end([out], 1, [1.0], [1.0])
    assert values["pass_frac"] == 0 and values["honest_frac"] == 0


def test_non_forcing_seed_is_a_hard_failure(ni, monkeypatch):
    inst = instances.Instance("grid", "seed", 16, instances.grid_edges(4))
    g = ni.Graph(inst.n, inst.edges)
    assert pipelines.seed_and_certify(ni, inst, g).status == "ok"
    monkeypatch.setattr(ni.zero_forcing, "zfs_heuristic", lambda graph: ni.NodeSet([1]))
    out = pipelines.seed_and_certify(ni, inst, g)
    assert out.status == "wrong" and out.hard


def test_cli_matrix_reader_rejects_garbage():
    assert checks.parse_matrix_csv("n,2\n1,0\n0,1\n").shape == (2, 2)
    for bad in ("", "1,2\n", "n,2\n1,0\n"):
        with pytest.raises(ValueError):
            checks.parse_matrix_csv(bad)


def test_refuses_to_run_without_the_sources():
    os.makedirs(run.RESULTS, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.RESULTS)
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "grid-recover", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_graph_load_counts_as_one_build(ni):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ni.graph_from_json({"n": 3, "edges": [[1, 2], [2, 3]]})
        ni.Graph(2, [(1, 2)])
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()["graph_core.build"]
    assert len(tracer.spans) == 3 and totals["calls"] == 2
