"""Command-line entry point wiring all modules together.

Subcommand tree: ``zfs {check,derive,min,heuristic}``,
``ident {certify,recover}``, ``sim {random,markov,counterexample}``,
``hod {check,markov,recover}``. Each subcommand has one handler, and its
parser declares only the flags that handler reads. Results go to
stdout, diagnostics to stderr. Exit codes: 0 success, 1 domain errors
(uncertified target, blocked deconvolution, ...), 2 input/format errors.
Every file argument is read and checked before the command computes
anything, so a malformed file exits 2 even where the computation would
fail. A path given to two node-set flags (``--in s.json --out-nodes
s.json``) is read once. Files are read as UTF-8; one that is not valid
UTF-8 exits 2.

A command line that starts with a group and a command is parsed by that
command's own parser alone. Help, an unknown command and leftover words
go through the whole parser tree, so every help, usage and error text is
the same either way.

Output: JSON is written compact, with sorted keys, one object per line.
``--format`` exists only where there is a choice: ``ident certify``
takes ``json`` (default) or ``human``; the four commands that write a
matrix (``ident recover``, ``sim random``, ``sim counterexample``,
``hod recover``) take ``csv`` (default) or ``json``. Numerical
tolerances are fixed library constants, not flags.

File formats (also described in each subcommand's ``--help``):

* graph JSON: ``{"n": <int>, "edges": [[i, j], ...]}``; a self-loop
  ``[i, i]`` is stripped with a ``warning:`` line on stderr, and ``i``
  must lie in ``1..n``
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
import warnings

import numpy as np

from . import higher_order, identifiability, netsim, reconstruct, zero_forcing
from .errors import DomainError, InputError, NetidentError
from .graph_core import NodeSet, graph_from_json, nodeset_from_json
from .netsim import DirectedWeightMatrix, MarkovSequence, WeightMatrix

MATRIX_FORMATS = ("csv", "json")
REPORT_FORMATS = ("json", "human")


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid UTF-8: {exc.reason}") from None


def _load_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None


def _load_nodes(path: str) -> NodeSet:
    return nodeset_from_json(_load_json(path))


# File arguments: dest -> (option strings, help, loader). :func:`main`
# replaces each path the command was given by its loaded object, in this
# order, before the handler runs. The node-set flags share one loader, so
# a path given to two of them is read once and both get the same object.
PATHS = {
    "graph": (("--graph",), 'graph JSON: {"n": <int>, "edges": [[i,j], ...]}',
              lambda path: graph_from_json(_load_json(path))),
    "in_nodes": (("--in",), "node set JSON (array of ints)", _load_nodes),
    "out_nodes": (("--out-nodes", "--out"), "node set JSON (array of ints)", _load_nodes),
    "target": (("--target",), "node set JSON: nodes whose weights to recover",
               _load_nodes),
    "markov": (("--markov",), 'Markov JSON: {"v_in":..,"v_out":..,"K":..,"data":..}',
               lambda path: MarkovSequence.from_json(_load_json(path))),
    "dyn": (("--dyn",), 'node dynamics JSON with keys "A","B","C","E","K"',
            lambda path: higher_order.NodeDynamics.from_json(_load_json(path))),
    "matrix": (("--matrix",), 'matrix CSV: header "n,<count>" then rows',
               lambda path: netsim.matrix_from_csv(_read_text(path))),
}


def _warning_line(message, *_) -> None:
    """Write a warning raised while loading files as one stderr line."""
    sys.stderr.write(f"warning: {message}\n")


def _emit_json(obj, file=None) -> None:
    """One compact, key-sorted JSON object per line, to stdout by default."""
    print(json.dumps(obj, sort_keys=True), file=file)


def _emit_matrix(entries: np.ndarray, fmt: str) -> None:
    if fmt == "json":
        _emit_json({"n": int(entries.shape[0]), "matrix": entries.tolist()})
    else:
        sys.stdout.write(netsim.matrix_to_csv(entries))


def _emit_set(best: NodeSet) -> None:
    _emit_json({"size": len(best), "set": best.to_json()})


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError:
        raise InputError(f"weight range must be 'lo,hi', got {text!r}") from None
    return lo, hi


def _zfs_check(args) -> None:
    ok = zero_forcing.is_zero_forcing_set(args.graph, args.in_nodes)
    _emit_json({"is_zero_forcing_set": ok, "set": args.in_nodes.to_json()})


def _zfs_derive(args) -> None:
    _, chronicle = zero_forcing.derived_set(args.graph, args.in_nodes)
    _emit_json(chronicle.to_json())


def _non_negative_int(text: str) -> int:
    """argparse type: a decimal integer of at least 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _zfs_min(args) -> None:
    if args.graph.n > args.budget:
        raise InputError(
            f"exact minimum search refused for n={args.graph.n} > --budget {args.budget} "
            "(NP-hard); use 'netident zfs heuristic' for a verified upper bound"
        )
    _emit_set(zero_forcing.minimum_zero_forcing_set(args.graph, node_budget=args.budget))


def _zfs_heuristic(args) -> None:
    _emit_set(zero_forcing.zfs_heuristic(args.graph))


def _ident_certify(args) -> None:
    report = identifiability.certify(args.graph, args.in_nodes, args.out_nodes)
    if args.format == "human":
        sys.stdout.write(str(report) + "\n")
    else:
        _emit_json(report.to_json())


def _recover(args, markov: MarkovSequence) -> None:
    """Tail of both recover commands: weights to stdout, diagnostics to stderr."""
    result = reconstruct.identify(markov, args.graph, args.target)
    _emit_matrix(result.recovered, args.format)
    _emit_json(result.to_json(), sys.stderr)


def _ident_recover(args) -> None:
    _recover(args, args.markov)


def _sim_random(args) -> None:
    weights = netsim.random_weights(
        args.graph, args.seed, _parse_range(args.weight_range), args.diagonal
    )
    _emit_matrix(weights.entries, args.format)


def _sim_markov(args) -> None:
    x = WeightMatrix(args.graph, args.matrix)
    _emit_json(netsim.markov_sequence(x, args.in_nodes, args.out_nodes, args.order).to_json())


def _sim_counterexample(args) -> None:
    x: WeightMatrix | DirectedWeightMatrix
    if args.graph is not None:
        x = WeightMatrix(args.graph, args.matrix, sign_constrained=False)
    else:
        x = DirectedWeightMatrix(args.matrix)
    rescaled = netsim.scaling_counterexample(
        x, args.in_nodes, args.out_nodes, epsilon=args.epsilon
    )
    _emit_matrix(rescaled.entries, args.format)


def _hod_check(args) -> None:
    report = higher_order.coupling_condition(args.dyn, k_max=args.order)
    _emit_json(report.to_json())


def _hod_markov(args) -> None:
    x = WeightMatrix(args.graph, args.matrix)
    lifted = higher_order.lifted_markov(x, args.dyn, args.in_nodes, args.out_nodes, args.order)
    _emit_json(lifted.to_json())


def _hod_recover(args) -> None:
    _recover(args, higher_order.deconvolve(args.markov, args.dyn))


@functools.lru_cache(maxsize=None)
def _parser_tree() -> tuple[argparse.ArgumentParser, dict]:
    """The argument parser and, by (group, command), each command's own
    parser in its tree; built on the first call and shared after that.

    Building them costs milliseconds, more than most commands take, so a
    process that calls :func:`main` repeatedly builds them once. They are
    not built at import time, so importing the package stays cheap.
    Sharing is safe because parsing keeps no state between calls; the
    parsers must stay stateless, so no command may change its defaults or
    actions once they are built.
    """
    parser = argparse.ArgumentParser(
        prog="netident",
        description=(
            "Certify identifiability of undirected dynamical networks and "
            "reconstruct their weights from Markov parameters."
        ),
    )
    top = parser.add_subparsers(dest="group", required=True)
    leaves = {}

    def group(name, help):
        sub = top.add_parser(name, help=help)
        return name, sub.add_subparsers(dest="command", required=True)

    def command(parent, name, handler, help, paths=(), formats=None):
        group_name, sub = parent
        p = sub.add_parser(name, help=help)
        leaves[group_name, name] = p
        for dest in paths:
            flags, text, _ = PATHS[dest]
            p.add_argument(*flags, dest=dest, required=True, metavar="PATH", help=text)
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0],
                           help=f"output format (default {formats[0]})")
        p.set_defaults(handler=handler)
        return p

    zfs = group("zfs", "zero forcing sets")
    command(zfs, "check", _zfs_check, "is the given set a zero forcing set?",
            ("graph", "in_nodes"))
    command(zfs, "derive", _zfs_derive, "derived set and forcing chronicle",
            ("graph", "in_nodes"))
    p = command(zfs, "min", _zfs_min, "exact minimum zero forcing set (small graphs)",
                ("graph",))
    p.add_argument("--budget", type=_non_negative_int,
                   default=zero_forcing.EXACT_SEARCH_DEFAULT_BUDGET,
                   help="largest node count accepted by the exact search")
    command(zfs, "heuristic", _zfs_heuristic,
            "heuristic zero forcing set (forces by construction)", ("graph",))

    ident = group("ident", "identifiability")
    command(ident, "certify", _ident_certify, "certify (graph, inputs, outputs)",
            ("graph", "in_nodes", "out_nodes"), REPORT_FORMATS)
    command(ident, "recover", _ident_recover, "reconstruct weights from Markov data",
            ("graph", "markov", "target"), MATRIX_FORMATS)

    sim = group("sim", "instances and Markov data")
    p = command(sim, "random", _sim_random,
                "random positively-weighted matrix for a graph", ("graph",),
                MATRIX_FORMATS)
    p.add_argument("--seed", type=_non_negative_int, default=0,
                   help="seed for all randomness (default 0)")
    weight_range = ",".join(map(str, netsim.DEFAULT_WEIGHT_RANGE))
    p.add_argument("--weight-range", default=weight_range, metavar="LO,HI",
                   help=f"uniform edge-weight range (default {weight_range})")
    p.add_argument("--diagonal", choices=netsim.DIAGONAL_MODES, default="free",
                   help="diagonal mode (default free)")
    p = command(sim, "markov", _sim_markov, "Markov parameters N X^k M of a matrix",
                ("graph", "matrix", "in_nodes", "out_nodes"))
    p.add_argument("--order", type=int, default=0,
                   help="highest power to use (default 0)")
    p = command(sim, "counterexample", _sim_counterexample,
                "hidden-node rescaling with identical Markov parameters",
                ("in_nodes", "out_nodes", "matrix"), MATRIX_FORMATS)
    p.add_argument("--graph", metavar="PATH", default=None,
                   help="graph JSON; if given, the matrix is read as symmetric "
                        "sign-free on this graph (epsilon -1), otherwise as directed")
    p.add_argument("--epsilon", type=float, default=None,
                   help="rescaling factor (default: -1 symmetric, 2 directed)")

    hod = group("hod", "higher-order node dynamics")
    p = command(hod, "check", _hod_check, "coupling products C (EK)^k B != 0", ("dyn",))
    p.add_argument("--order", type=int, default=None,
                   help="highest order to check (default 2q, at most "
                        f"{higher_order.COUPLING_MAX_ORDER})")
    p = command(hod, "markov", _hod_markov,
                "Markov parameters of the lifted block system",
                ("graph", "matrix", "dyn", "in_nodes", "out_nodes"))
    p.add_argument("--order", type=int, default=0,
                   help="highest power to use (default 0)")
    command(hod, "recover", _hod_recover,
            "deconvolve lifted Markov data, then reconstruct weights",
            ("graph", "markov", "dyn", "target"), MATRIX_FORMATS)

    return parser, leaves


def build_parser() -> argparse.ArgumentParser:
    """The whole argument parser tree, shared as :func:`_parser_tree` says."""
    return _parser_tree()[0]


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse with the named command's own parser; help, an unknown command
    or a word it leaves over goes through the whole tree. The result lacks
    only the ``group`` and ``command`` names, which nothing reads."""
    parser, leaves = _parser_tree()
    leaf = leaves.get(tuple(argv[:2]))
    if leaf is not None:
        args, rest = leaf.parse_known_args(argv[2:])
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        with warnings.catch_warnings():
            # Every run reports its warnings, not only a process's first.
            warnings.simplefilter("always")
            warnings.showwarning = _warning_line
            loaded = {}  # (path, loader) -> object: each file is read once
            for dest, (_, _, load) in PATHS.items():
                path = getattr(args, dest, None)
                if path is not None:
                    if (path, load) not in loaded:
                        loaded[path, load] = load(path)
                    setattr(args, dest, loaded[path, load])
        args.handler(args)
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
