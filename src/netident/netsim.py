"""Network weight matrices, Markov parameters, and transfer-matrix samples.

A weight matrix compatible with a graph is symmetric, carries a strictly
positive entry exactly on the graph's edges, zero on off-diagonal
non-edges, and a free diagonal (negated Laplacians and weighted
adjacency matrices both qualify). Dropping the positivity requirement
gives the sign-free class; dropping symmetry gives the directed class.
The scaling counterexample shows why those relaxations destroy
identifiability whenever some node is neither excited nor measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    DecoupledHiddenBlockError,
    InputError,
    NoHiddenNodesError,
    SingularShiftError,
)
from .graph_core import Graph, NodeSet, _built, _integral, _nodes_within, selection_matrix

__all__ = [
    "WeightMatrix",
    "DirectedWeightMatrix",
    "MarkovSequence",
    "random_weights",
    "markov_sequence",
    "transfer_eval",
    "scaling_counterexample",
    "check_pattern",
    "matrix_to_csv",
    "matrix_from_csv",
    "DEFAULT_WEIGHT_RANGE",
]

DEFAULT_WEIGHT_RANGE = (0.5, 2.0)
DIAGONAL_MODES = ("free", "laplacian")


def _markov_blocks(order: int, p: int, m: int) -> np.ndarray:
    """Uninitialised ``(order+1, p, m)`` floats, sized as if no block were empty
    (each still costs a JSON ``[]``); InputError if numpy refuses that size."""
    try:
        return np.empty((order + 1, max(p, 1), max(m, 1)))[:, :p, :m]
    except (MemoryError, ValueError) as exc:  # numpy refuses the size outright
        raise InputError(f"order {order} is too large: {exc}") from None


def _check_finite(entries: np.ndarray, what: str) -> None:
    """Raise InputError naming the first NaN or infinite entry of ``entries``."""
    bad = ~np.isfinite(entries)
    if bad.any():
        index = tuple(np.argwhere(bad)[0])
        at = ",".join(str(i + 1) for i in index)
        raise InputError(f"{what} entry ({at}) is not finite: {entries[index]}")


def check_pattern(graph: Graph, entries: np.ndarray, positive: bool = True) -> None:
    """Validate a matrix against a graph's qualitative class.

    Checks exact symmetry, zero off-diagonal entries away from edges, and
    nonzero (strictly positive when ``positive``) entries on every edge.
    The diagonal is unconstrained. Raises InputError on the first
    violation; mutating any single off-diagonal entry of a member breaks
    membership.
    """
    n = graph.n
    entries = np.asarray(entries, dtype=float)
    if entries.shape != (n, n):
        raise InputError(f"matrix shape {entries.shape} does not match n={n}")
    _check_finite(entries, "matrix")
    if not np.array_equal(entries, entries.T):
        i, j = np.argwhere(entries != entries.T)[0]
        raise InputError(f"matrix is not symmetric at ({i + 1},{j + 1})")
    edge_mask = np.zeros((n, n), dtype=bool)
    i, j = graph.edge_index.T
    edge_mask[i, j] = edge_mask[j, i] = True
    off = ~np.eye(n, dtype=bool)
    bad_zero = off & ~edge_mask & (entries != 0.0)
    if bad_zero.any():
        i, j = np.argwhere(bad_zero)[0]
        raise InputError(f"nonzero entry at non-edge ({i + 1},{j + 1})")
    bad_edge = edge_mask & ((entries <= 0.0) if positive else (entries == 0.0))
    if bad_edge.any():
        i, j = np.argwhere(bad_edge)[0]
        kind = "positive" if positive else "nonzero"
        raise InputError(f"edge ({i + 1},{j + 1}) must carry a {kind} weight")


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Symmetric state matrix constrained to a graph's sign pattern.

    With ``sign_constrained=True`` (default) edge weights must be strictly
    positive; with ``False`` only the nonzero pattern is enforced
    (sign-free class).
    """

    graph: Graph
    entries: np.ndarray
    sign_constrained: bool = True

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        check_pattern(self.graph, entries, positive=self.sign_constrained)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    def __repr__(self) -> str:
        kind = "positive" if self.sign_constrained else "sign-free"
        return f"WeightMatrix(n={self.graph.n}, {kind})"


@dataclass(frozen=True, eq=False)
class DirectedWeightMatrix:
    """State matrix with non-negative off-diagonal entries, no symmetry.

    The nonzero off-diagonal pattern is read as the edge set of a directed
    graph; only the sign constraint is enforced here.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise InputError(f"expected a square matrix, got shape {entries.shape}")
        _check_finite(entries, "matrix")
        off = ~np.eye(entries.shape[0], dtype=bool)
        if (entries[off] < 0.0).any():
            i, j = np.argwhere(off & (entries < 0.0))[0]
            raise InputError(
                f"off-diagonal entry ({i + 1},{j + 1}) must be non-negative"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True, eq=False)
class MarkovSequence:
    """The output/input samples of the matrix powers: ``data[k]`` is N X^k M.

    ``data`` is one read-only float array of shape ``(K+1, p, m)`` and
    ``order`` is K. Rows follow the ascending output nodes, columns the
    ascending input nodes, so ``(p, m) = (len(v_out), len(v_in))`` for
    plain network dynamics; the higher-order lift carries per-node
    blocks, so its ``(p, m)`` are integer multiples of that. The
    constructor copies ``data``, so a caller's array stays the caller's.
    """

    v_in: NodeSet
    v_out: NodeSet
    data: np.ndarray

    def __post_init__(self):
        try:
            data = np.array(self.data, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(
                f"Markov data is not an array of equal-shape blocks: {exc}"
            ) from None
        self._keep(data)

    @classmethod
    def _built(cls, v_in: NodeSet, v_out: NodeSet, data: np.ndarray) -> "MarkovSequence":
        """Wrap a float array that ``markov_sequence``, ``lifted_markov`` or
        ``deconvolve`` has just filled and that nothing else holds, frozen but
        not copied. Unlike :func:`~netident.graph_core._built` it checks shape
        and finiteness, because matrix powers can overflow float64."""
        seq = _built(cls, v_in=v_in, v_out=v_out)
        seq._keep(data)
        return seq

    def _keep(self, data: np.ndarray) -> None:
        """Check the float array ``data``, freeze it and store it as ``data``."""
        if data.ndim == 2 and not data.shape[1]:  # JSON writes a block with no rows as []
            data = data.reshape(len(data), 0, len(self.v_in))
        if data.ndim != 3 or not len(data):
            raise InputError(
                f"Markov data must stack at least one 2-d block, got shape {data.shape}"
            )
        if not np.isfinite(data).all():
            k = int(np.isfinite(data).all(axis=(1, 2)).argmin())
            _check_finite(data[k], f"Markov block {k}")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def order(self) -> int:
        return len(self.data) - 1

    def to_json(self) -> dict:
        return {
            "v_in": self.v_in.to_json(),
            "v_out": self.v_out.to_json(),
            "K": self.order,
            "data": self.data.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MarkovSequence":
        """Load the JSON format; ``"K"`` must equal the block count minus one."""
        try:
            seq = cls(NodeSet(obj["v_in"]), NodeSet(obj["v_out"]), obj["data"])
            order = _integral(obj["K"], "Markov order K")
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad Markov sequence JSON: {exc}") from None
        if order != seq.order:
            raise InputError(f"order {order} inconsistent with {len(seq.data)} blocks")
        return seq


def random_weights(
    g: Graph,
    seed: int,
    weight_range: tuple[float, float] = DEFAULT_WEIGHT_RANGE,
    diagonal_mode: str = "free",
) -> WeightMatrix:
    """Draw a random positively-weighted member for ``g``, reproducibly.

    Edge weights are uniform on ``weight_range`` (which must satisfy
    0 < lo <= hi so the reconstruction stays well-conditioned), drawn in
    one call in canonical edge order. The diagonal is either uniform on
    ``[-hi, hi]`` (``"free"``), drawn after the edges, or chosen so every
    row sums to zero (``"laplacian"``, the negated-Laplacian member).
    Same graph and seed give the identical matrix. A range whose draws
    (``2 * hi`` for the free diagonal) or row sums overflow float64 is
    refused with InputError. The matrix is frozen in place and not checked again.
    """
    lo, hi = weight_range
    if not (0.0 < lo <= hi):
        raise InputError(f"weight range must satisfy 0 < lo <= hi, got ({lo}, {hi})")
    if diagonal_mode not in DIAGONAL_MODES:
        modes = " or ".join(map(repr, DIAGONAL_MODES))
        raise InputError(f"diagonal_mode must be {modes}, got {diagonal_mode!r}")
    if not np.isfinite(2.0 * hi if diagonal_mode == "free" else hi):
        raise InputError(f"weight range ({lo}, {hi}) is too wide to draw in float64")
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad random seed {seed!r}: {exc}") from None
    n = g.n
    entries = np.zeros((n, n))
    i, j = g.edge_index.T
    entries[i, j] = entries[j, i] = rng.uniform(lo, hi, size=len(i))
    if diagonal_mode == "free":
        entries[np.diag_indices(n)] = rng.uniform(-hi, hi, size=n)
    else:
        with np.errstate(over="ignore"):
            sums = entries.sum(axis=1)
        if not np.isfinite(sums).all():
            raise InputError(f"weight range ({lo}, {hi}) overflows a laplacian row sum")
        entries[np.diag_indices(n)] = -sums
    entries.setflags(write=False)
    return _built(WeightMatrix, graph=g, entries=entries, sign_constrained=True)


# Powers can overflow float64; MarkovSequence._built refuses the first
# non-finite block, so the overflow raises no warning here.
@np.errstate(over="ignore", invalid="ignore")
def markov_sequence(
    x: WeightMatrix | DirectedWeightMatrix,
    v_in: Iterable[int],
    v_out: Iterable[int],
    order: int,
) -> MarkovSequence:
    """Markov parameters of the network with the given input/output nodes.

    ``data[k] = N X^k M`` where M selects the input-node columns and N the
    output-node rows, one ``(order+1, len(v_out), len(v_in))`` array.
    Entries can grow like ``norm(X)**k``; downstream comparisons should
    use relative tolerances.
    """
    if order < 0:
        raise InputError(f"order must be >= 0, got {order}")
    n = x.entries.shape[0]
    v_in = _nodes_within(v_in, n)
    v_out = _nodes_within(v_out, n)
    cur = selection_matrix(n, v_in)
    out_rows = np.asarray([i - 1 for i in v_out], dtype=int)
    data = _markov_blocks(order, len(v_out), len(v_in))
    for k in range(order + 1 if data.size else 0):  # empty blocks need no powers
        data[k] = cur[out_rows]
        if k < order:  # the last stored order needs no further product
            cur = x.entries @ cur
    return MarkovSequence._built(v_in, v_out, data)


def transfer_eval(
    x: WeightMatrix | DirectedWeightMatrix,
    v_in: Iterable[int],
    v_out: Iterable[int],
    s: complex,
) -> np.ndarray:
    """Transfer matrix N (sI - X)^{-1} M at one complex sample point.

    Uses a linear solve, never an explicit inverse. Raises InputError for
    a non-finite ``s`` and SingularShiftError when ``s`` is an eigenvalue
    of the state matrix.
    """
    if not np.isfinite(s):
        raise InputError(f"sample point s must be finite, got {s}")
    n = x.entries.shape[0]
    v_in = _nodes_within(v_in, n)
    v_out = _nodes_within(v_out, n)
    m_cols = selection_matrix(n, v_in).astype(complex)
    shifted = s * np.eye(n, dtype=complex) - x.entries
    try:
        solved = np.linalg.solve(shifted, m_cols)
    except np.linalg.LinAlgError:
        raise SingularShiftError(
            f"s*I - X is singular at sample point s={s}"
        ) from None
    out_rows = np.asarray([i - 1 for i in v_out], dtype=int)
    return solved[out_rows, :]


def scaling_counterexample(
    x: WeightMatrix | DirectedWeightMatrix,
    v_in: Iterable[int],
    v_out: Iterable[int],
    epsilon: float | None = None,
):
    """A different state matrix with identical Markov parameters.

    Rescales the block of nodes that are neither inputs nor outputs by a
    similarity ``diag(I, eps*I)``, which leaves every ``N X^k M``
    unchanged. Only the visible-row, hidden-column block (times eps) and
    the hidden-row, visible-column block (times 1/eps) change; every other
    entry keeps its bits. For a directed matrix any positive ``eps != 1``
    keeps the sign pattern; for a symmetric (sign-free) matrix only
    ``eps = -1`` preserves symmetry. Either way the result witnesses that, without
    both symmetry and positivity, hidden nodes make the weights
    unidentifiable.

    Raises NoHiddenNodesError when the input/output union covers every
    node, and DecoupledHiddenBlockError when the hidden block is not
    connected to the rest, or when no node is visible (the data then
    carries no information about it, which is a different route to the
    same non-identifiability). Raises InputError when eps takes a
    coupling entry past float64 range, or a nonzero one to zero.
    """
    entries = x.entries
    n = entries.shape[0]
    v_in = _nodes_within(v_in, n)
    v_out = _nodes_within(v_out, n)
    hidden = np.ones(n, dtype=bool)
    hidden[[i - 1 for i in (*v_in, *v_out)]] = False
    if not hidden.any():
        raise NoHiddenNodesError(
            "every node is an input or output; no hidden block to rescale"
        )
    vis_hid, hid_vis = np.ix_(~hidden, hidden), np.ix_(hidden, ~hidden)
    if not entries[vis_hid].any() and not entries[hid_vis].any():
        raise DecoupledHiddenBlockError(
            "hidden block is decoupled from the visible nodes: the Markov "
            "parameters are independent of it, so the weights are "
            "unidentifiable without any rescaling"
        )

    symmetric = isinstance(x, WeightMatrix)
    if epsilon is None:
        epsilon = -1.0 if symmetric else 2.0
    epsilon = float(epsilon)
    if symmetric:
        if epsilon != -1.0:
            raise InputError(
                "symmetric (sign-free) rescaling requires epsilon = -1; "
                "any other value breaks symmetry"
            )
    elif not (0.0 < epsilon < np.inf and epsilon != 1.0):
        raise InputError(
            f"directed rescaling requires a finite positive epsilon != 1, got {epsilon}"
        )

    # (S^-1 X S)_ij = X_ij * s_j / s_i: only the two coupling blocks change.
    rescaled = entries.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        rescaled[vis_hid] *= epsilon
        rescaled[hid_vis] *= 1.0 / epsilon
    if not np.isfinite(rescaled).all():
        raise InputError(
            f"epsilon {epsilon} rescales the matrix beyond float64 range"
        )
    if ((rescaled == 0.0) & (entries != 0.0)).any():
        raise InputError(
            f"epsilon {epsilon} rescales a nonzero coupling entry to zero, "
            "below float64 range"
        )
    # Valid by construction: a positive epsilon keeps every sign, and -1 keeps
    # symmetry and the nonzero pattern.
    rescaled.setflags(write=False)
    if symmetric:
        return _built(WeightMatrix, graph=x.graph, entries=rescaled, sign_constrained=False)
    return _built(DirectedWeightMatrix, entries=rescaled)


# -- matrix CSV ------------------------------------------------------------


def matrix_to_csv(entries: np.ndarray) -> str:
    """Serialize a square matrix: header line ``n,<count>``, then rows."""
    entries = np.asarray(entries, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise InputError(f"expected a square matrix, got shape {entries.shape}")
    n = entries.shape[0]
    lines = [f"n,{n}"] + [",".join(map(repr, row)) for row in entries.tolist()]
    return "\n".join(lines) + "\n"


def matrix_from_csv(text: str) -> np.ndarray:
    """Parse the matrix CSV format produced by :func:`matrix_to_csv`."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n,"):
        raise InputError('matrix CSV must start with a header line "n,<count>"')
    try:
        n = int(lines[0].split(",", 1)[1])
    except ValueError:
        raise InputError(f"bad matrix CSV header {lines[0]!r}") from None
    if len(lines) != n + 1:
        raise InputError(f"matrix CSV declares n={n} but has {len(lines) - 1} rows")
    try:
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    except ValueError as exc:
        raise InputError(f"bad matrix CSV value: {exc}") from None
    if any(len(row) != n for row in rows):
        raise InputError(f"matrix CSV rows have wrong length for n={n}")
    mat = np.asarray(rows, dtype=float).reshape(n, n)  # (0, 0) when n is 0
    _check_finite(mat, "matrix CSV")
    return mat
