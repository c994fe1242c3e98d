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

import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    DecoupledHiddenBlockError,
    InputError,
    NoHiddenNodesError,
    SingularShiftError,
)
from .graph_core import Graph, NodeSet, _integral, _nodes_within, selection_matrix

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
    on_edges = entries[edge_mask]
    if positive:
        if edge_mask.any() and not (on_edges > 0.0).all():
            idx = np.argwhere(edge_mask & (entries <= 0.0))[0]
            raise InputError(
                f"edge ({idx[0] + 1},{idx[1] + 1}) must carry a positive weight"
            )
    elif edge_mask.any() and not (on_edges != 0.0).all():
        idx = np.argwhere(edge_mask & (entries == 0.0))[0]
        raise InputError(f"edge ({idx[0] + 1},{idx[1] + 1}) must carry a nonzero weight")


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

    @property
    def n(self) -> int:
        return self.graph.n

    def __repr__(self) -> str:
        kind = "positive" if self.sign_constrained else "sign-free"
        return f"WeightMatrix(n={self.n}, {kind})"


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

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class MarkovSequence:
    """The output/input samples of the matrix powers: block k is N X^k M.

    Rows follow the ascending output node list, columns the ascending
    input node list; ``data[k]`` has shape ``(len(v_out), len(v_in))`` for
    plain network dynamics. Sequences produced by the higher-order lift
    keep the same node sets but carry per-node blocks, so their shapes
    are integer multiples of that.
    """

    v_in: NodeSet
    v_out: NodeSet
    order: int
    data: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.order < 0 or self.order != len(self.data) - 1:
            raise InputError(
                f"order {self.order} inconsistent with {len(self.data)} blocks"
            )
        frozen = []
        shape = None
        for k, block in enumerate(self.data):
            block = np.array(block, dtype=float)
            if block.ndim != 2:
                raise InputError(f"block {k} must be a 2-d matrix, got ndim={block.ndim}")
            _check_finite(block, f"Markov block {k}")
            if shape is None:
                shape = block.shape
            elif block.shape != shape:
                raise InputError(
                    f"block {k} has shape {block.shape}, expected {shape}"
                )
            block.setflags(write=False)
            frozen.append(block)
        object.__setattr__(self, "data", tuple(frozen))

    def to_json(self) -> dict:
        return {
            "v_in": self.v_in.to_json(),
            "v_out": self.v_out.to_json(),
            "K": self.order,
            "data": [block.tolist() for block in self.data],
        }

    @classmethod
    def from_json(cls, obj: dict | str) -> "MarkovSequence":
        if isinstance(obj, str):
            obj = json.loads(obj)
        try:
            return cls(
                v_in=NodeSet(obj["v_in"]),
                v_out=NodeSet(obj["v_out"]),
                order=_integral(obj["K"], "Markov order K"),
                data=tuple(np.asarray(b, dtype=float) for b in obj["data"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad Markov sequence JSON: {exc}") from None


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
    Same graph and seed give the identical matrix.
    """
    lo, hi = weight_range
    if not (0.0 < lo <= hi):
        raise InputError(f"weight range must satisfy 0 < lo <= hi, got ({lo}, {hi})")
    if diagonal_mode not in ("free", "laplacian"):
        raise InputError(f"diagonal_mode must be 'free' or 'laplacian', got {diagonal_mode!r}")
    rng = np.random.default_rng(seed)
    n = g.n
    entries = np.zeros((n, n))
    i, j = g.edge_index.T
    entries[i, j] = entries[j, i] = rng.uniform(lo, hi, size=len(i))
    if diagonal_mode == "free":
        entries[np.diag_indices(n)] = rng.uniform(-hi, hi, size=n)
    else:
        entries[np.diag_indices(n)] = -entries.sum(axis=1)
    return WeightMatrix(g, entries)


def _markov_blocks(
    entries: np.ndarray, v_in: NodeSet, v_out: NodeSet, order: int
) -> list[np.ndarray]:
    """N X^k M for k = 0..order by repeated multiply on the input columns."""
    n = entries.shape[0]
    cur = selection_matrix(n, v_in)
    out_rows = np.asarray([i - 1 for i in v_out], dtype=int)
    blocks = []
    for _ in range(order + 1):
        blocks.append(cur[out_rows, :])
        cur = entries @ cur
    return blocks


def markov_sequence(
    x: WeightMatrix | DirectedWeightMatrix,
    v_in: Iterable[int],
    v_out: Iterable[int],
    order: int,
) -> MarkovSequence:
    """Markov parameters of the network with the given input/output nodes.

    ``data[k] = N X^k M`` where M selects the input-node columns and N the
    output-node rows. Entries can grow like ``norm(X)**k``; downstream
    comparisons should use relative tolerances.
    """
    if order < 0:
        raise InputError(f"order must be >= 0, got {order}")
    n = x.entries.shape[0]
    v_in = _nodes_within(v_in, n)
    v_out = _nodes_within(v_out, n)
    blocks = _markov_blocks(x.entries, v_in, v_out, order)
    return MarkovSequence(v_in=v_in, v_out=v_out, order=order, data=tuple(blocks))


def transfer_eval(
    x: WeightMatrix | DirectedWeightMatrix,
    v_in: Iterable[int],
    v_out: Iterable[int],
    s: complex,
) -> np.ndarray:
    """Transfer matrix N (sI - X)^{-1} M at one complex sample point.

    Uses a linear solve, never an explicit inverse. Raises
    SingularShiftError when ``s`` is an eigenvalue of the state matrix.
    """
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
    unchanged. For a directed matrix any positive ``eps != 1`` keeps the
    sign pattern; for a symmetric (sign-free) matrix only ``eps = -1``
    preserves symmetry. Either way the result witnesses that, without
    both symmetry and positivity, hidden nodes make the weights
    unidentifiable.

    Raises NoHiddenNodesError when the input/output union covers every
    node, and DecoupledHiddenBlockError when the hidden block is not
    connected to the rest (the data then carries no information about it,
    which is a different route to the same non-identifiability).
    """
    entries = x.entries
    n = entries.shape[0]
    v_in = _nodes_within(v_in, n)
    v_out = _nodes_within(v_out, n)
    visible = frozenset(v_in) | frozenset(v_out)
    hidden = [i for i in range(1, n + 1) if i not in visible]
    if not hidden:
        raise NoHiddenNodesError(
            "every node is an input or output; no hidden block to rescale"
        )
    hid = np.asarray([i - 1 for i in hidden], dtype=int)
    vis = np.asarray([i - 1 for i in range(1, n + 1) if i in visible], dtype=int)
    if (
        vis.size
        and not entries[np.ix_(vis, hid)].any()
        and not entries[np.ix_(hid, vis)].any()
    ):
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

    scale = np.ones(n)
    scale[hid] = epsilon
    with np.errstate(over="ignore", invalid="ignore"):
        factor = np.outer(1.0 / scale, scale)  # (S^-1 X S)_ij = X_ij * s_j / s_i
        rescaled = entries * factor
    if not np.isfinite(rescaled).all():
        raise InputError(
            f"epsilon {epsilon} rescales the matrix beyond float64 range"
        )
    if symmetric:
        return WeightMatrix(x.graph, rescaled, sign_constrained=False)
    return DirectedWeightMatrix(rescaled)


# -- matrix CSV ------------------------------------------------------------


def matrix_to_csv(entries: np.ndarray) -> str:
    """Serialize a square matrix: header line ``n,<count>``, then rows."""
    entries = np.asarray(entries, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise InputError(f"expected a square matrix, got shape {entries.shape}")
    n = entries.shape[0]
    lines = [f"n,{n}"]
    for row in entries:
        lines.append(",".join(repr(float(v)) for v in row))
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
    mat = np.asarray(rows, dtype=float)
    if mat.shape != (n, n):
        raise InputError(f"matrix CSV rows have wrong length for n={n}")
    _check_finite(mat, "matrix CSV")
    return mat
