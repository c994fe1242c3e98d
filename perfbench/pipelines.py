"""The timed work of one instance, and the check of its outputs.

Each runner times only the calls into ``netident`` (and, for the CLI,
the file writes that feed one command into the next); the checks run
after the clock stops. Library functions are looked up on their modules
at call time, so the tracer's wrappers see every call.

Outcome statuses:

* ``ok``: the outputs passed every check;
* ``wrong``: the program returned normally but an output failed a check
  (a silent failure);
* ``refused``: the program raised a ``netident`` error or a CLI command
  exited with code 1;
* ``error``: anything else (another exception, an exit code other than
  0 or 1, unreadable output).

``hard`` marks failures that no floating-point limit explains: a seed
that is not forcing, a certificate or replay that does not cover the
graph, a weight matrix off the graph's pattern, or an ``error``. A hard
failure makes the run's ``correct`` false. Recovery past the precision
wall (a large relative error, or a refusal) is a measured outcome, not
a hard failure.
"""

from __future__ import annotations

import io
import json
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import checks
from instances import NODE_DYNAMICS, Instance


@dataclass
class Outcome:
    family: str
    task: str
    n: int
    seconds: float = 0.0
    status: str = "ok"
    seed_size: int | None = None
    forces: int | None = None
    order: int | None = None
    rel_err: float | None = None
    gauge_s: float | None = None  # host-speed gauge taken before this run (see run.py)
    hard: bool = False
    detail: str = ""

    def fail(self, status: str, detail: str, hard: bool = False) -> None:
        # Keep the first failure: later steps often fail because of it.
        if self.status == "ok":
            self.status, self.detail = status, detail
        self.hard = self.hard or hard

    def record(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None and v != ""}


def pattern_ok(inst: Instance, x: np.ndarray) -> bool:
    """Symmetric, positive on every edge, zero on every other off-diagonal entry."""
    x = np.asarray(x, dtype=float)
    if x.shape != (inst.n, inst.n) or not np.array_equal(x, x.T):
        return False
    mask = np.zeros(x.shape, dtype=bool)
    idx = np.asarray(inst.edges, dtype=int) - 1
    mask[idx[:, 0], idx[:, 1]] = mask[idx[:, 1], idx[:, 0]] = True
    np.fill_diagonal(mask, True)
    edge_vals = x[idx[:, 0], idx[:, 1]]
    return bool((edge_vals > 0).all() and not x[~mask].any())


def _check_seed(out: Outcome, inst: Instance, seed) -> None:
    out.seed_size = len(seed)
    if not checks.is_forcing(inst.n, inst.edges, seed):
        out.fail("wrong", "seed is not a zero forcing set", hard=True)


# -- library pipelines -------------------------------------------------------


def recover(ni, inst: Instance, g, exact: bool) -> Outcome:
    """Seed search -> derived_set -> random_weights -> markov_sequence -> identify."""
    out = Outcome(inst.family, inst.task, inst.n)
    seed = weights = result = None
    t0 = time.perf_counter()
    try:
        if exact:
            seed = ni.zero_forcing.minimum_zero_forcing_set(g)
        else:
            seed = ni.zero_forcing.zfs_heuristic(g)
        _, chronicle = ni.zero_forcing.derived_set(g, seed)
        weights = ni.netsim.random_weights(g, inst.weight_seed, diagonal_mode=inst.diagonal)
        out.forces = len(chronicle)
        out.order = ni.reconstruct.required_order(chronicle)
        markov = ni.netsim.markov_sequence(weights, seed, seed, out.order)
        result = ni.reconstruct.identify(markov, g, g.nodes)
    except ni.errors.NetidentError as exc:
        out.fail("refused", f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # a crash is an outcome to report, not to die on
        out.fail("error", f"{type(exc).__name__}: {exc}", hard=True)
    out.seconds = time.perf_counter() - t0

    if seed is not None:
        _check_seed(out, inst, seed.members)
        if exact and inst.family == "path" and len(seed) != 1:
            out.fail("wrong", f"minimum seed of a path has {len(seed)} nodes", hard=True)
    if weights is not None and not pattern_ok(inst, weights.entries):
        out.fail("wrong", "weight matrix is off the graph's pattern", hard=True)
    if result is not None:
        ok, out.rel_err = checks.recovery_ok(result.recovered, weights.entries)
        if not ok:
            out.fail("wrong", f"relative error {out.rel_err:.3e}")
    return out


def seed_and_certify(ni, inst: Instance, g) -> Outcome:
    """zfs_heuristic -> certify -> ForcingChronicle.replay."""
    out = Outcome(inst.family, inst.task, inst.n)
    seed = report = final = None
    t0 = time.perf_counter()
    try:
        seed = ni.zero_forcing.zfs_heuristic(g)
        report = ni.identifiability.certify(g, seed, seed)
        final = report.chronicle.replay(g)
    except ni.errors.NetidentError as exc:
        out.fail("refused", f"{type(exc).__name__}: {exc}")
    except Exception as exc:
        out.fail("error", f"{type(exc).__name__}: {exc}", hard=True)
    out.seconds = time.perf_counter() - t0

    if seed is not None:
        _check_seed(out, inst, seed.members)
    if report is not None:
        out.forces = len(report.chronicle)
        if not report.certified_full or len(report.certified_nodes) != inst.n:
            out.fail("wrong", f"certified {len(report.certified_nodes)} of {inst.n}", hard=True)
    if final is not None and len(final) != inst.n:
        out.fail("wrong", f"replay reached {len(final)} of {inst.n}", hard=True)
    return out


def closure(ni, inst: Instance, g, truth_size: int) -> Outcome:
    """derived_set from node 1; ``truth_size`` is the benchmark's own closure."""
    out = Outcome(inst.family, inst.task, inst.n)
    derived = chronicle = None
    t0 = time.perf_counter()
    try:
        derived, chronicle = ni.zero_forcing.derived_set(g, ni.NodeSet([1]))
    except ni.errors.NetidentError as exc:
        out.fail("refused", f"{type(exc).__name__}: {exc}")
    except Exception as exc:
        out.fail("error", f"{type(exc).__name__}: {exc}", hard=True)
    out.seconds = time.perf_counter() - t0

    if derived is not None:
        out.forces = len(chronicle)
        if len(derived) != truth_size or out.forces != truth_size - 1:
            out.fail("wrong", f"derived {len(derived)} nodes with {out.forces} forces, "
                              f"expected {truth_size}", hard=True)
    return out


# -- command line --------------------------------------------------------------

PATH_FLAGS = frozenset({"--graph", "--in", "--out-nodes", "--markov", "--target",
                        "--dyn", "--matrix"})


class CliFailure(Exception):
    """A command exited non-zero or printed something unreadable."""

    def __init__(self, status: str, detail: str, hard: bool):
        super().__init__(detail)
        self.status, self.hard = status, hard


def write_cli_inputs(inst: Instance, directory: str) -> None:
    """The input files a user would hand the CLI: graph, target, node dynamics."""
    os.makedirs(directory, exist_ok=True)
    files = {
        "graph.json": {"n": inst.n, "edges": [list(e) for e in inst.edges]},
        "all.json": list(range(1, inst.n + 1)),
        "dyn.json": NODE_DYNAMICS,
    }
    for name, obj in files.items():
        with open(os.path.join(directory, name), "w") as fh:
            json.dump(obj, fh)


def _call(ni, tracer, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = ni.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
    text = out.getvalue()
    if tracer is not None:
        bytes_in = sum(os.path.getsize(argv[i + 1]) for i, a in enumerate(argv)
                       if a in PATH_FLAGS)
        tracer.add("cli.main", bytes_in=bytes_in, bytes_out=len(text.encode()),
                   exit_nonzero=int(code != 0))
    return code, text


def _run_ok(ni, tracer, argv: list[str]) -> str:
    code, text = _call(ni, tracer, argv)
    if code != 0:
        raise CliFailure("refused" if code == 1 else "error",
                         f"'{' '.join(argv[:2])}' exited {code}", hard=code != 1)
    return text


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def cli(ni, inst: Instance, directory: str, tracer=None) -> Outcome:
    """zfs heuristic, ident certify, sim random, sim markov -> ident recover,
    hod markov -> hod recover, all through ``netident.cli.main``."""
    out = Outcome(inst.family, inst.task, inst.n)
    f = {name: os.path.join(directory, name) for name in (
        "graph.json", "all.json", "dyn.json", "seed.json", "x.csv", "markov.json",
        "lifted.json")}
    common = ["--graph", f["graph.json"]]
    recovered: dict[str, str] = {}
    seed = report = truth_text = None
    t0 = time.perf_counter()
    try:
        text = _run_ok(ni, tracer, ["zfs", "heuristic", *common])
        seed = json.loads(text)["set"]
        _write(f["seed.json"], json.dumps(seed))
        io_nodes = ["--in", f["seed.json"], "--out-nodes", f["seed.json"]]
        report = json.loads(_run_ok(ni, tracer, ["ident", "certify", *common, *io_nodes]))
        truth_text = _run_ok(ni, tracer, ["sim", "random", *common, "--seed",
                                          str(inst.weight_seed), "--diagonal",
                                          inst.diagonal])
        _write(f["x.csv"], truth_text)
        chronicle = ni.zero_forcing.ForcingChronicle.from_json(report["chronicle"])
        out.forces = len(chronicle)
        out.order = ni.reconstruct.required_order(chronicle)
        order = ["--order", str(out.order)]
        matrix = ["--matrix", f["x.csv"]]
        dyn = ["--dyn", f["dyn.json"]]
        target = ["--target", f["all.json"]]
        _write(f["markov.json"], _run_ok(ni, tracer, ["sim", "markov", *common, *matrix,
                                                      *io_nodes, *order]))
        _write(f["lifted.json"], _run_ok(ni, tracer, ["hod", "markov", *common, *matrix,
                                                      *dyn, *io_nodes, *order]))
        for name, argv in (
            ("ident", ["ident", "recover", *common, "--markov", f["markov.json"], *target]),
            ("hod", ["hod", "recover", *common, "--markov", f["lifted.json"], *dyn, *target]),
        ):
            try:
                recovered[name] = _run_ok(ni, tracer, argv)
            except CliFailure as exc:
                out.fail(exc.status, str(exc), exc.hard)
    except CliFailure as exc:
        out.fail(exc.status, str(exc), exc.hard)
    except (ValueError, KeyError, TypeError) as exc:  # unreadable JSON output
        out.fail("error", f"unreadable output: {exc}", hard=True)
    except Exception as exc:  # a traceback out of main
        out.fail("error", f"{type(exc).__name__}: {exc}", hard=True)
    out.seconds = time.perf_counter() - t0

    if out.status == "error":
        return out
    if seed is not None:
        _check_seed(out, inst, seed)
    if report is not None and report["verdict"] != "CERTIFIED_FULL":
        out.fail("wrong", f"verdict {report['verdict']} for a forcing seed", hard=True)
    if truth_text is None:
        return out
    try:
        truth = checks.parse_matrix_csv(truth_text)
        errors = {name: checks.relative_error(checks.parse_matrix_csv(text), truth)
                  for name, text in recovered.items()}
    except ValueError as exc:
        out.fail("error", f"unreadable matrix CSV: {exc}", hard=True)
        return out
    if not pattern_ok(inst, truth):
        out.fail("wrong", "sim random matrix is off the graph's pattern", hard=True)
    if errors:
        out.rel_err = max(errors.values())
        for name, err in errors.items():
            if err > checks.REL_TOL:
                out.fail("wrong", f"{name} recover relative error {err:.3e}")
    return out
