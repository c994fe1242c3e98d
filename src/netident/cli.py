"""Command-line entry point wiring all modules together.

Subcommand tree: ``zfs {check,derive,min,heuristic}``,
``ident {certify,recover}``, ``sim {random,markov,counterexample}``,
``hod {check,markov,recover}``. Results go to stdout, diagnostics to
stderr. Exit codes: 0 success, 1 domain errors (uncertified target,
blocked deconvolution, ...), 2 input/format errors.

File formats (also described in each subcommand's ``--help``):

* graph JSON: ``{"n": <int>, "edges": [[i, j], ...]}``
* node set JSON: array of ints, e.g. ``[1, 4, 7]``
* matrix CSV: header line ``n,<count>`` then one comma-separated row per line
* Markov sequence JSON: ``{"v_in": [...], "v_out": [...], "K": k, "data": [[[...]]]}``
* node dynamics JSON: ``{"A": [[...]], "B": ..., "C": ..., "E": ..., "K": ...}``
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import higher_order, identifiability, netsim, reconstruct, zero_forcing
from .errors import DomainError, InputError, NetidentError
from .graph_core import Graph, NodeSet, graph_from_json, nodeset_from_json
from .netsim import DirectedWeightMatrix, MarkovSequence, WeightMatrix
from .zero_forcing import ForcingChronicle

FORMATS = ("json", "csv", "human")


@dataclass
class RunConfig:
    """Everything a run depends on; identical configs give identical output."""

    command: str
    args: argparse.Namespace
    seed: int
    tol: float | None
    fmt: str


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None


def _load_graph(path: str) -> Graph:
    return graph_from_json(_load_json(path))


def _load_nodes(path: str) -> NodeSet:
    return nodeset_from_json(_load_json(path))


def _load_matrix(path: str) -> np.ndarray:
    return netsim.matrix_from_csv(_read_text(path))


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _emit_matrix(entries: np.ndarray, fmt: str) -> None:
    if fmt == "json":
        _emit_json({"n": int(entries.shape[0]), "matrix": entries.tolist()})
    else:
        sys.stdout.write(netsim.matrix_to_csv(entries))


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError:
        raise InputError(f"weight range must be 'lo,hi', got {text!r}") from None
    return lo, hi


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after that.

    Building it costs milliseconds, more than most commands take, so a
    process that calls :func:`main` repeatedly builds it once. It is not
    built at import time, so importing the package stays cheap. Sharing
    is safe because ``parse_args`` keeps no state between calls; the
    parser must stay stateless, so no command may change its defaults or
    actions once it is built.
    """
    parser = argparse.ArgumentParser(
        prog="netident",
        description=(
            "Certify identifiability of undirected dynamical networks and "
            "reconstruct their weights from Markov parameters."
        ),
    )
    top = parser.add_subparsers(dest="group", required=True)

    def common(p, *, graph=False, in_nodes=False, out_nodes=False, target=False,
               markov=False, dyn=False, matrix=False, order=None, seed=False,
               tol=False):
        if graph:
            p.add_argument("--graph", required=True, metavar="PATH",
                           help='graph JSON: {"n": <int>, "edges": [[i,j], ...]}')
        if in_nodes:
            p.add_argument("--in", dest="in_nodes", required=True, metavar="PATH",
                           help="node set JSON (array of ints)")
        if out_nodes:
            p.add_argument("--out-nodes", "--out", dest="out_nodes", required=True,
                           metavar="PATH", help="node set JSON (array of ints)")
        if target:
            p.add_argument("--target", required=True, metavar="PATH",
                           help="node set JSON: nodes whose weights to recover")
        if markov:
            p.add_argument("--markov", required=True, metavar="PATH",
                           help='Markov JSON: {"v_in":..,"v_out":..,"K":..,"data":..}')
        if dyn:
            p.add_argument("--dyn", required=True, metavar="PATH",
                           help='node dynamics JSON with keys "A","B","C","E","K"')
        if matrix:
            p.add_argument("--matrix", required=True, metavar="PATH",
                           help='matrix CSV: header "n,<count>" then rows')
        if order is not None:
            p.add_argument("--order", type=int, default=order,
                           help=f"highest power to use (default {order})")
        if seed:
            p.add_argument("--seed", type=int, default=0,
                           help="seed for all randomness (default 0)")
        if tol:
            p.add_argument("--tol", type=float, default=None,
                           help="override the default numerical tolerance")
        p.add_argument("--format", choices=FORMATS, default=None,
                       help="output format (default: json for reports, csv for matrices)")

    zfs = top.add_parser("zfs", help="zero forcing sets").add_subparsers(
        dest="command", required=True
    )
    p = zfs.add_parser("check", help="is the given set a zero forcing set?")
    common(p, graph=True, in_nodes=True)
    p = zfs.add_parser("derive", help="derived set and forcing chronicle")
    common(p, graph=True, in_nodes=True)
    p = zfs.add_parser("min", help="exact minimum zero forcing set (small graphs)")
    common(p, graph=True)
    p.add_argument("--budget", type=int, default=zero_forcing.EXACT_SEARCH_DEFAULT_BUDGET,
                   help="largest node count accepted by the exact search")
    p = zfs.add_parser("heuristic", help="verified heuristic zero forcing set")
    common(p, graph=True)

    ident = top.add_parser("ident", help="identifiability").add_subparsers(
        dest="command", required=True
    )
    p = ident.add_parser("certify", help="certify (graph, inputs, outputs)")
    common(p, graph=True, in_nodes=True, out_nodes=True)
    p = ident.add_parser("recover", help="reconstruct weights from Markov data")
    common(p, graph=True, markov=True, target=True, tol=True)

    sim = top.add_parser("sim", help="instances and Markov data").add_subparsers(
        dest="command", required=True
    )
    p = sim.add_parser("random", help="random positively-weighted matrix for a graph")
    common(p, graph=True, seed=True)
    p.add_argument("--weight-range", default="0.5,2.0", metavar="LO,HI",
                   help="uniform edge-weight range (default 0.5,2.0)")
    p.add_argument("--diagonal", choices=("free", "laplacian"), default="free",
                   help="diagonal mode (default free)")
    p = sim.add_parser("markov", help="Markov parameters N X^k M of a matrix")
    common(p, graph=True, matrix=True, in_nodes=True, out_nodes=True, order=0)
    p = sim.add_parser("counterexample",
                       help="hidden-node rescaling with identical Markov parameters")
    common(p, in_nodes=True, out_nodes=True, matrix=True)
    p.add_argument("--graph", metavar="PATH", default=None,
                   help="graph JSON; if given, the matrix is read as symmetric "
                        "sign-free on this graph (epsilon -1), otherwise as directed")
    p.add_argument("--epsilon", type=float, default=None,
                   help="rescaling factor (default: -1 symmetric, 2 directed)")

    hod = top.add_parser("hod", help="higher-order node dynamics").add_subparsers(
        dest="command", required=True
    )
    p = hod.add_parser("check", help="coupling products C (EK)^k B != 0")
    common(p, dyn=True)
    p.add_argument("--order", type=int, default=None,
                   help="highest order to check (default 2q)")
    p = hod.add_parser("markov", help="Markov parameters of the lifted block system")
    common(p, graph=True, matrix=True, dyn=True, in_nodes=True, out_nodes=True, order=0)
    p = hod.add_parser("recover",
                       help="deconvolve lifted Markov data, then reconstruct weights")
    common(p, graph=True, markov=True, dyn=True, target=True, tol=True)

    return parser


def _run(config: RunConfig) -> None:
    args = config.args
    group, command = args.group, args.command
    fmt = config.fmt

    if group == "zfs":
        g = _load_graph(args.graph)
        if command == "check":
            z = _load_nodes(args.in_nodes)
            ok = zero_forcing.is_zero_forcing_set(g, g.check_nodes(z))
            _emit_json({"is_zero_forcing_set": ok, "set": z.to_json()})
        elif command == "derive":
            z = _load_nodes(args.in_nodes)
            _, chronicle = zero_forcing.derived_set(g, z)
            _emit_json(chronicle.to_json())
        elif command == "min":
            best = zero_forcing.minimum_zero_forcing_set(g, node_budget=args.budget)
            _emit_json({"size": len(best), "set": best.to_json()})
        else:  # heuristic
            best = zero_forcing.zfs_heuristic(g)
            _emit_json({"size": len(best), "set": best.to_json()})
        return

    if group == "ident":
        g = _load_graph(args.graph)
        if command == "certify":
            report = identifiability.certify(
                g, _load_nodes(args.in_nodes), _load_nodes(args.out_nodes)
            )
            if fmt == "human":
                sys.stdout.write(str(report) + "\n")
            else:
                _emit_json(report.to_json())
        else:  # recover
            markov = MarkovSequence.from_json(_load_json(args.markov))
            target = _load_nodes(args.target)
            kwargs = {} if config.tol is None else {"tol": config.tol}
            result = reconstruct.identify(markov, g, target, **kwargs)
            _emit_matrix(result.recovered, fmt or "csv")
            diag = result.to_json()
            del diag["recovered"]
            sys.stderr.write(json.dumps(diag, sort_keys=True, indent=2) + "\n")
        return

    if group == "sim":
        if command == "random":
            g = _load_graph(args.graph)
            weights = netsim.random_weights(
                g, config.seed, _parse_range(args.weight_range), args.diagonal
            )
            _emit_matrix(weights.entries, fmt or "csv")
        elif command == "markov":
            g = _load_graph(args.graph)
            x = WeightMatrix(g, _load_matrix(args.matrix))
            seq = netsim.markov_sequence(
                x, _load_nodes(args.in_nodes), _load_nodes(args.out_nodes), args.order
            )
            _emit_json(seq.to_json())
        else:  # counterexample
            entries = _load_matrix(args.matrix)
            x: WeightMatrix | DirectedWeightMatrix
            if args.graph is not None:
                g = _load_graph(args.graph)
                x = WeightMatrix(g, entries, sign_constrained=False)
            else:
                x = DirectedWeightMatrix(entries)
            rescaled = netsim.scaling_counterexample(
                x, _load_nodes(args.in_nodes), _load_nodes(args.out_nodes),
                epsilon=args.epsilon,
            )
            _emit_matrix(rescaled.entries, fmt or "csv")
        return

    # group == "hod"
    dyn = higher_order.NodeDynamics.from_json(_load_json(args.dyn))
    if command == "check":
        report = higher_order.coupling_condition(dyn, k_max=args.order)
        _emit_json(report.to_json())
    elif command == "markov":
        g = _load_graph(args.graph)
        sys_ = higher_order.LiftedSystem(
            weights=WeightMatrix(g, _load_matrix(args.matrix)),
            dyn=dyn,
            v_in=_load_nodes(args.in_nodes),
            v_out=_load_nodes(args.out_nodes),
        )
        _emit_json(higher_order.lifted_markov(sys_, args.order).to_json())
    else:  # recover
        g = _load_graph(args.graph)
        lifted = MarkovSequence.from_json(_load_json(args.markov))
        kwargs = {} if config.tol is None else {"tol": config.tol}
        base = higher_order.deconvolve(lifted, dyn, **kwargs)
        result = reconstruct.identify(base, g, _load_nodes(args.target), **kwargs)
        _emit_matrix(result.recovered, config.fmt or "csv")
        diag = result.to_json()
        del diag["recovered"]
        sys.stderr.write(json.dumps(diag, sort_keys=True, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(
            command=f"{args.group} {args.command}",
            args=args,
            seed=getattr(args, "seed", 0),
            tol=getattr(args, "tol", None),
            fmt=getattr(args, "format", None),
        )
        _run(config)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except NetidentError as exc:  # pragma: no cover - safety net
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
