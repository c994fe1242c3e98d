"""Networks whose nodes carry their own linear dynamics.

Per-node dynamics (A, B, C, E, K) and a network weight matrix X combine
into the block system with state matrix ``I (x) A + X (x) EK``, input
matrix ``M (x) B`` and output matrix ``N (x) C``. Expanding a power of
the state matrix over words in {I (x) A, X (x) EK} shows that the lifted
Markov parameters are mixtures

    sum_i  (N X^i M) (x) R_{k,i},

where the R tables depend on the node dynamics only and the top
coefficient at order k is ``C (EK)^k B``. As long as those coupling
products stay nonzero, the mixture is triangular and the base network's
Markov parameters can be peeled out order by order, after which the
plain reconstruction applies unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DeconvolutionBlockedError,
    InconsistentDataError,
    InputError,
)
from .graph_core import NodeSet, selection_matrix
from .netsim import MarkovSequence, WeightMatrix, _check_finite

__all__ = [
    "NodeDynamics",
    "LiftedSystem",
    "CouplingReport",
    "coupling_condition",
    "lifted_markov",
    "deconvolve",
]

# A coupling product at most this times its norm scale counts as zero.
COUPLING_TOL = 1e-10
# Largest relative mismatch between two deconvolved copies of one block.
RATIO_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class NodeDynamics:
    """Local dynamics shared by every node: state A, input B, output C,
    coupling input E and coupling output K."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    E: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        mats = {}
        for name in ("A", "B", "C", "E", "K"):
            mat = np.array(getattr(self, name), dtype=float)
            if mat.ndim != 2:
                raise InputError(f"{name} must be a 2-d matrix, got ndim={mat.ndim}")
            _check_finite(mat, name)
            mat.setflags(write=False)
            mats[name] = mat
            object.__setattr__(self, name, mat)
        q = mats["A"].shape[0]
        if mats["A"].shape != (q, q) or q < 1:
            raise InputError(f"A must be square and non-empty, got {mats['A'].shape}")
        if mats["B"].shape[0] != q:
            raise InputError(f"B must have {q} rows, got {mats['B'].shape}")
        if mats["C"].shape[1] != q:
            raise InputError(f"C must have {q} columns, got {mats['C'].shape}")
        if mats["E"].shape[0] != q:
            raise InputError(f"E must have {q} rows, got {mats['E'].shape}")
        s = mats["E"].shape[1]
        if mats["K"].shape != (s, q):
            raise InputError(
                f"K must have shape ({s},{q}) to match E and A, got {mats['K'].shape}"
            )

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def input_dim(self) -> int:
        return self.B.shape[1]

    @property
    def output_dim(self) -> int:
        return self.C.shape[0]

    @cached_property
    def coupling(self) -> np.ndarray:
        """The q x q product E @ K entering the lifted state matrix."""
        return self.E @ self.K

    def to_json(self) -> dict:
        return {name: getattr(self, name).tolist() for name in "ABCEK"}

    @classmethod
    def from_json(cls, obj: dict | str) -> "NodeDynamics":
        if isinstance(obj, str):
            obj = json.loads(obj)
        try:
            return cls(**{name: np.asarray(obj[name], dtype=float) for name in "ABCEK"})
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad node-dynamics JSON: {exc}") from None


@dataclass(frozen=True, eq=False)
class LiftedSystem:
    """A weighted network together with per-node dynamics."""

    weights: WeightMatrix
    dyn: NodeDynamics
    v_in: NodeSet
    v_out: NodeSet

    def __post_init__(self):
        object.__setattr__(self, "v_in", self.weights.graph.check_nodes(self.v_in))
        object.__setattr__(self, "v_out", self.weights.graph.check_nodes(self.v_out))

    @cached_property
    def state_matrix(self) -> np.ndarray:
        n = self.weights.n
        return np.kron(np.eye(n), self.dyn.A) + np.kron(
            self.weights.entries, self.dyn.coupling
        )

    @cached_property
    def input_matrix(self) -> np.ndarray:
        return np.kron(selection_matrix(self.weights.n, self.v_in), self.dyn.B)

    @cached_property
    def output_matrix(self) -> np.ndarray:
        return np.kron(selection_matrix(self.weights.n, self.v_out).T, self.dyn.C)


@dataclass(frozen=True)
class CouplingReport:
    """Finite-horizon check of the coupling products C (EK)^k B."""

    verified_up_to: int
    first_failure: int | None
    note: str = (
        "finite-horizon verification only: orders beyond the checked range "
        "are not decided"
    )

    @property
    def ok(self) -> bool:
        return self.first_failure is None

    def to_json(self) -> dict:
        return {
            "verified_up_to": self.verified_up_to,
            "first_failure": self.first_failure,
            "ok": self.ok,
            "note": self.note,
        }


def coupling_condition(dyn: NodeDynamics, k_max: int | None = None) -> CouplingReport:
    """Check C (EK)^k B != 0 for k = 0..k_max (default 2q).

    "Nonzero" is scale-aware: the max-abs entry must exceed
    ``COUPLING_TOL`` times the norm product of the factors. Reports the
    first failing order, if any.
    """
    if k_max is None:
        k_max = 2 * dyn.state_dim
    if k_max < 0:
        raise InputError(f"k_max must be >= 0, got {k_max}")
    c_norm = float(np.linalg.norm(dyn.C)) or 1.0
    b_norm = float(np.linalg.norm(dyn.B)) or 1.0
    power = np.eye(dyn.state_dim)
    for k in range(k_max + 1):
        product = dyn.C @ power @ dyn.B
        scale = max(c_norm * b_norm * max(float(np.linalg.norm(power)), 1e-300), 1e-300)
        if np.abs(product).max() <= COUPLING_TOL * scale:
            return CouplingReport(verified_up_to=k - 1, first_failure=k)
        power = dyn.coupling @ power
    return CouplingReport(verified_up_to=k_max, first_failure=None)


def lifted_markov(sys: LiftedSystem, order: int) -> MarkovSequence:
    """Markov parameters of the lifted block system.

    Block k has shape ``(t*|v_out|, r*|v_in|)``: per output node a band of
    t rows, per input node a band of r columns.
    """
    if order < 0:
        raise InputError(f"order must be >= 0, got {order}")
    state = sys.state_matrix
    cur = sys.input_matrix
    out = sys.output_matrix
    blocks = []
    for _ in range(order + 1):
        blocks.append(out @ cur)
        cur = state @ cur
    return MarkovSequence(
        v_in=sys.v_in, v_out=sys.v_out, order=order, data=tuple(blocks)
    )


def _mixing_tables(dyn: NodeDynamics, order: int) -> list[list[np.ndarray]]:
    """R[k][i] = C G_{k,i} B where G sums all k-letter words with i
    coupling letters; G recursion: G_{k,i} = A G_{k-1,i} + EK G_{k-1,i-1}."""
    q = dyn.state_dim
    words: list[dict[int, np.ndarray]] = [{0: np.eye(q)}]
    for k in range(1, order + 1):
        prev = words[k - 1]
        cur: dict[int, np.ndarray] = {}
        for i in range(k + 1):
            acc = np.zeros((q, q))
            if i in prev:
                acc = acc + dyn.A @ prev[i]
            if i - 1 in prev:
                acc = acc + dyn.coupling @ prev[i - 1]
            cur[i] = acc
        words.append(cur)
    return [
        [dyn.C @ words[k][i] @ dyn.B for i in range(k + 1)] for k in range(order + 1)
    ]


def deconvolve(
    lifted: MarkovSequence,
    dyn: NodeDynamics,
) -> MarkovSequence:
    """Peel base-network Markov parameters out of lifted ones.

    At each order k the known lower-order contributions are subtracted,
    leaving a Kronecker product of the unknown base block with
    ``C (EK)^k B``; dividing by that product's largest entry recovers the
    block, and a few other well-sized entries are cross-checked for ratio
    consistency. The residual is updated on its 4-d block view
    ``grid[i, a, j, b]`` (output node i, output channel a, input node j,
    input channel b): each lower-order term is subtracted as a broadcast
    outer product, with the same products as ``np.kron`` but without
    forming the Kronecker matrix. Raises DeconvolutionBlockedError at the
    first order whose coupling product is (numerically) zero, and
    InconsistentDataError when the data is not actually a Kronecker
    mixture of this shape.

    Conditioning caveat: the recoverable signal at order k sits a factor
    ``(norm(EK)/norm(A))**k`` below the data magnitude, so couplings much
    weaker than the local state matrix lose precision quickly even
    though the peel is exact in exact arithmetic.
    """
    n_in, n_out = len(lifted.v_in), len(lifted.v_out)
    t, r = dyn.output_dim, dyn.input_dim
    expected = (t * n_out, r * n_in)
    if lifted.data[0].shape != expected:
        raise InputError(
            f"lifted blocks have shape {lifted.data[0].shape}, expected "
            f"{expected} = (t*n_out, r*n_in)"
        )

    mixing = _mixing_tables(dyn, lifted.order)
    c_norm = float(np.linalg.norm(dyn.C)) or 1.0
    b_norm = float(np.linalg.norm(dyn.B)) or 1.0
    power = np.eye(dyn.state_dim)  # accumulated (EK)^k, sets the "nonzero" scale

    base_blocks: list[np.ndarray] = []
    for k in range(lifted.order + 1):
        grid = np.array(lifted.data[k], dtype=float).reshape(n_out, t, n_in, r)
        for i in range(k):
            grid -= base_blocks[i][:, None, :, None] * mixing[k][i][None, :, None, :]
        top = mixing[k][k]
        scale = max(c_norm * b_norm * float(np.linalg.norm(power)), 1e-300)
        power = dyn.coupling @ power
        if np.abs(top).max() <= COUPLING_TOL * scale:
            raise DeconvolutionBlockedError(
                f"coupling product C (EK)^{k} B is zero within tolerance: "
                f"deconvolution blocked at order {k}",
                k=k,
            )
        flat = int(np.abs(top).argmax())
        alpha, beta = divmod(flat, r)
        block = grid[:, alpha, :, beta] / top[alpha, beta]

        # Cross-check a few other well-sized entries of the top product.
        order_idx = np.argsort(np.abs(top), axis=None)[::-1]
        checked = 0
        for pos in order_idx[1:]:
            a2, b2 = divmod(int(pos), r)
            if abs(top[a2, b2]) <= COUPLING_TOL * scale:
                break
            other = grid[:, a2, :, b2] / top[a2, b2]
            err = np.abs(other - block).max()
            if err > RATIO_TOL * max(1.0, np.abs(block).max()):
                raise InconsistentDataError(
                    f"lifted data at order {k} is not a consistent Kronecker "
                    f"mixture: block ratio mismatch {err:.3e}"
                )
            checked += 1
            if checked >= 3:
                break
        base_blocks.append(block)

    return MarkovSequence(
        v_in=lifted.v_in,
        v_out=lifted.v_out,
        order=lifted.order,
        data=tuple(base_blocks),
    )
